import numpy as np
import pytest

from hullkit import INFEASIBLE, OPTIMAL, UNBOUNDED, DimensionError, LpProblem, \
    cross_polytope, lp_solve, random_point_set, unit_cube
from hullkit import lp
from hullkit.lp import _simplex, phase1_stack
from hullkit.queries import membership_problem
from oracles import lp_oracle_min, min_grid_distance


def test_feasibility_only():
    out = lp_solve(LpProblem(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0])))
    assert out.status == OPTIMAL
    assert abs(out.objective) <= 1e-12


def test_unbounded_ray():
    out = lp_solve(LpProblem(np.array([-1.0]), np.array([[0.0]]), np.array([0.0])))
    assert out.status == UNBOUNDED


def test_membership_system_infeasible_outside_triangle():
    # Grid oracle first: no convex combination of the triangle reaches (2, 2).
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert min_grid_distance(tri, [2.0, 2.0]) > 0.9
    eq = np.vstack([tri.T, np.ones(3)])
    out = lp_solve(LpProblem(np.zeros(3), eq, np.array([2.0, 2.0, 1.0])))
    assert out.status == INFEASIBLE
    y = out.farkas
    assert np.min(y @ eq) >= -1e-9
    assert y @ np.array([2.0, 2.0, 1.0]) < -1e-9


def test_iteration_cap_is_arithmetic_error():
    # The CLI maps ArithmeticError to its numerical-failure exit code.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    eq = np.vstack([tri.T, np.ones(3)])
    with pytest.raises(ArithmeticError):
        lp_solve(LpProblem(np.zeros(3), eq, np.array([0.2, 0.2, 1.0])),
                 max_iterations=1)


def test_shape_validation():
    with pytest.raises(DimensionError):
        LpProblem(np.zeros(3), np.array([[1.0, 1.0]]), np.array([1.0]))


def _random_feasible_problem(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    n = int(rng.integers(m, 11))
    a = rng.uniform(-2.0, 2.0, (m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=min(n, m + 1), replace=False)
    x0[support] = rng.uniform(0.2, 2.0, support.size)
    b = a @ x0
    c = rng.uniform(0.0, 2.0, n)  # nonnegative cost keeps the LP bounded
    return LpProblem(c, a, b)


def test_oracle_cross_check_50_problems():
    for seed in range(50):
        p = _random_feasible_problem(300 + seed)
        out = lp_solve(p)
        assert out.status == OPTIMAL, f"seed {seed} unexpectedly {out.status}"
        expect = lp_oracle_min(p.cost, p.eq_matrix, p.eq_rhs)
        assert expect is not None
        assert abs(out.objective - expect) <= 1e-7, f"seed {seed}"
        # weak-duality spot check: tableau objective equals c.x
        assert abs(out.objective - float(p.cost @ out.solution)) <= 1e-8
        assert out.solution.min() >= -1e-9
        resid = np.abs(p.eq_matrix @ out.solution - p.eq_rhs).max()
        assert resid <= 1e-8 * max(1.0, np.abs(p.eq_rhs).max())


def test_farkas_certificates_on_infeasible_batch():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, (m, n))
        b = rng.uniform(-1.0, 1.0, m)
        out = lp_solve(LpProblem(np.zeros(n), a, b))
        if out.status != INFEASIBLE:
            continue
        checked += 1
        y = out.farkas
        assert np.min(y @ a) >= -1e-9
        assert float(y @ b) < -1e-9
    assert checked >= 20  # the batch must actually exercise infeasibility


def test_deterministic_pivot_sequences():
    p = _random_feasible_problem(12345)
    first = lp_solve(p, track_pivots=True)
    second = lp_solve(p, track_pivots=True)
    assert first.pivots == second.pivots
    assert first.iterations == second.iterations
    assert first.objective == second.objective


def test_bland_iteration_headroom():
    for seed in range(20):
        p = _random_feasible_problem(800 + seed)
        out = lp_solve(p)
        bound = 10 * sum(p.eq_matrix.shape)
        assert out.iterations < bound


def test_beale_cycling_lp_terminates():
    # Chvatal's form of Beale's example: from the slack basis, largest-
    # coefficient pricing with smallest-index leaving ties cycles forever
    # through six degenerate bases; the Bland fallback must break the cycle.
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.array([[0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    tableau = np.hstack([a, b[:, None]])
    obj_row = np.concatenate([c, [0.0]])
    basis = [4, 5, 6]
    status, iters = _simplex(tableau, obj_row, basis, 7, 2, None, 200, 0)
    assert status == OPTIMAL
    assert abs(-obj_row[-1] - (-0.05)) <= 1e-12
    x = np.zeros(7)
    x[basis] = tableau[:, -1]
    assert abs(c @ x - (-0.05)) <= 1e-12
    np.testing.assert_allclose(a @ x, b, atol=1e-12)



def _stack_queries(points, rng):
    """Membership queries against ``points`` that mix inside and outside,
    with degenerate ones: the points themselves, edge midpoints and face
    centres, which sit on faces of the hull."""
    m = len(points)
    pairs = rng.choice(m, size=(8, 2))
    quads = rng.choice(m, size=(6, 4))
    ctr = points.mean(axis=0)
    return np.vstack([points[:8],
                      points[pairs].mean(axis=1),
                      points[quads].mean(axis=1),
                      ctr + rng.uniform(-1.0, 1.0, (6, points.shape[1])),
                      ctr + 2.5 * (points[:4] - ctr)])


_STACK_HULLS = {
    "cube5": lambda: unit_cube(5)[0].points,
    "cross5": lambda: cross_polytope(5)[0].points,
    "random40x4": lambda: random_point_set(40, 4, seed=7).points,
}


def _assert_stack_matches_serial(points, queries):
    problems = [membership_problem(points, q) for q in queries]
    out = phase1_stack(problems[0].eq_matrix, np.array([p.eq_rhs for p in problems]),
                       track_pivots=True)
    statuses = set()
    for k, p in enumerate(problems):
        ref = lp_solve(p, track_pivots=True)
        statuses.add(ref.status)
        assert (ref.status == OPTIMAL) == out.feasible[k], k
        assert out.pivots[k] == ref.pivots, k
        assert out.iterations[k] == ref.iterations, k
    assert statuses == {OPTIMAL, INFEASIBLE}
    return out.pivots


@pytest.mark.parametrize("hull", sorted(_STACK_HULLS))
def test_stack_members_pivot_as_lp_solve(hull, monkeypatch):
    """Every member's verdict and phase-1 pivots equal ``lp_solve``'s, with
    Dantzig pricing and, at ``_DEGEN_RUN = 1``, with Bland's rule engaged in
    both engines on the degenerate members."""
    points = _STACK_HULLS[hull]()
    queries = _stack_queries(points, np.random.default_rng(3))
    dantzig = _assert_stack_matches_serial(points, queries)
    monkeypatch.setattr(lp, "_DEGEN_RUN", 1)
    bland = _assert_stack_matches_serial(points, queries)
    if hull != "random40x4":  # general position: no degenerate runs
        assert bland != dantzig


def test_skipped_column_pivots_as_deleted_column():
    """Member k tests point k against the other points with column k
    skipped, and pivots as ``lp_solve`` on the matrix without that column,
    up to the column's index: on the cube's degenerate vertex LPs, and on a
    hull whose point 5 holds every row's largest entry."""
    spiked = random_point_set(30, 3, seed=2).points.copy()
    spiked[5] *= 40.0
    for points in (unit_cube(4)[0].points, spiked):
        m, n = points.shape
        eq = np.vstack([points.T, np.ones(m)])
        rhs = np.hstack([points, np.ones((m, 1))])
        out = phase1_stack(eq, rhs, skip=np.arange(m), track_pivots=True)
        for k in range(m):
            ref = lp_solve(membership_problem(np.delete(points, k, axis=0), points[k]),
                           track_pivots=True)
            assert (ref.status == OPTIMAL) == out.feasible[k]
            assert tuple((p, e - (e > k), r) for p, e, r in out.pivots[k]) == ref.pivots


def test_stack_edge_cases():
    eq = np.array([[1.0, 1.0]])
    out = phase1_stack(eq, np.empty((0, 1)))
    assert out.feasible.shape == (0,)
    out = phase1_stack(eq, np.array([[1.0], [-1.0], [0.0]]))
    assert out.feasible.tolist() == [True, False, True]
    with pytest.raises(DimensionError):
        phase1_stack(eq, np.ones((2, 2)))
