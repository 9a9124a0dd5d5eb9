import numpy as np
import pytest

from hullkit import INFEASIBLE, OPTIMAL, UNBOUNDED, DimensionError, LpProblem, \
    lp_solve
from hullkit.lp import _simplex
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

