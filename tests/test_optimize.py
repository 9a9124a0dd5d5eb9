import numpy as np
import pytest

from hullkit import EmptyInterior, InfeasibleStart, Objective, \
    SolveOptions, VRep, chebyshev_center, compose_objective, contains, \
    cross_polytope, project_to_simplex, random_point_set, \
    solve_hrep, solve_vrep, unit_cube, vrep_to_hrep
from oracles import central_difference, grid_project, grid_project_bruteforce, \
    kkt_project

FIG_QUAD = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [1.0, 1.0], [0.0, 1.0]])


def _quadratic(n, target, weights=None):
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    t = np.asarray(target, dtype=float)
    return Objective(dim=n,
                     eval=lambda x: float(w @ (x - t) ** 2),
                     grad=lambda x: 2.0 * w * (x - t))


def test_project_identity_point():
    np.testing.assert_allclose(project_to_simplex([0.2, 0.8]).alpha, [0.2, 0.8],
                               atol=1e-12)


def test_project_clamps_to_vertex():
    np.testing.assert_allclose(project_to_simplex([2.0, 0.0]).alpha, [1.0, 0.0],
                               atol=1e-12)


def test_grid_oracle_agrees_with_bruteforce_enumeration():
    # The greedy mesh minimizer must equal full enumeration where that fits.
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        y = rng.uniform(-1.0, 1.5, m)
        greedy = grid_project(y, spacing=1.0 / 40.0)
        brute = grid_project_bruteforce(y, steps=40)
        np.testing.assert_allclose(greedy, brute, atol=1e-12)


def test_project_matches_grid_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        y = rng.uniform(-1.5, 1.5, m)
        alpha = project_to_simplex(y).alpha
        oracle = grid_project(y, spacing=1e-3)
        assert np.abs(alpha - oracle).max() <= 2e-3


def test_project_matches_kkt_bisection():
    rng = np.random.default_rng(18)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        y = rng.uniform(-3.0, 3.0, m)
        alpha = project_to_simplex(y).alpha
        np.testing.assert_allclose(alpha, kkt_project(y), atol=1e-9)
        assert abs(alpha.sum() - 1.0) <= 1e-12


def test_compose_barycenter_value():
    v, _ = unit_cube(2)
    f = Objective(dim=2, eval=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    composed = compose_objective(f, v)
    alpha = np.full(4, 0.25)
    assert abs(composed.eval(alpha) - 0.5) <= 1e-12


def test_compose_vertex_indicator():
    v = VRep(FIG_QUAD)
    f = _quadratic(2, [0.3, 0.4])
    composed = compose_objective(f, v)
    for k in range(v.n_points):
        e = np.zeros(v.n_points)
        e[k] = 1.0
        assert abs(composed.eval(e) - f.eval(v.points[k])) <= 1e-12


def test_compose_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    v = random_point_set(12, 3, seed=2)
    f = _quadratic(3, [0.1, -0.2, 0.3], weights=[1.0, 2.0, 0.5])
    composed = compose_objective(f, v)
    for _ in range(20):
        alpha = rng.dirichlet(np.ones(12))
        g = composed.grad(alpha)
        fd = central_difference(composed.eval, alpha)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(g - fd).max() / denom <= 1e-5


def test_solve_vrep_linear_on_square():
    v, _ = unit_cube(2)
    f = Objective(dim=2, eval=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    res = solve_vrep(f, [], v)
    assert res.objective <= 1e-9
    assert abs(res.minimizer[0]) <= 1e-9


def test_solve_vrep_interior_target():
    v, _ = unit_cube(2)
    res = solve_vrep(_quadratic(2, [0.4, 0.3]), [], v)
    assert res.objective <= 1e-6


def test_solve_vrep_linear_matches_vertex_scan():
    v = random_point_set(20, 2, seed=13)
    f = Objective(dim=2, eval=lambda x: float(x[0] + x[1]),
                  grad=lambda x: np.ones(2))
    expect = float(np.min(v.points.sum(axis=1)))  # linear min sits on a vertex
    res = solve_vrep(f, [], v)
    assert abs(res.objective - expect) <= 1e-5


def test_solve_vrep_weights_consistent():
    v = random_point_set(15, 3, seed=4)
    res = solve_vrep(_quadratic(3, [0.0, 0.0, 0.0]), [], v)
    np.testing.assert_allclose(v.points.T @ res.weights.alpha, res.minimizer,
                               atol=1e-7)
    assert contains(v, res.minimizer).inside


def test_solve_vrep_budget_exhaustion_returns_best():
    v = random_point_set(10, 2, seed=6)
    opts = SolveOptions(max_fun_evals=3)
    res = solve_vrep(_quadratic(2, [0.0, 0.0]), [], v, opts=opts)
    assert not res.converged
    assert np.isfinite(res.objective)


def test_solve_vrep_monotone_best_so_far():
    v = random_point_set(25, 3, seed=7)
    res = solve_vrep(_quadratic(3, [0.2, 0.1, -0.1]), [], v)
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_solve_vrep_converged_means_gap_certificate():
    rng = np.random.default_rng(41)
    opts = SolveOptions()
    for trial in range(10):
        n = int(rng.integers(2, 5))
        v = random_point_set(int(rng.integers(6, 30)), n, seed=300 + trial)
        f = _quadratic(n, rng.uniform(-1.0, 2.0, n), rng.uniform(0.5, 2.0, n))
        res = solve_vrep(f, [], v, opts)
        assert res.converged, trial
        assert res.gap <= opts.objective_tol * max(1.0, abs(res.objective)), trial
        # The gap is g . alpha - min(g) for the composed gradient at the result.
        g = compose_objective(f, v).grad(res.weights.alpha)
        assert abs(res.gap - (g @ res.weights.alpha - g.min())) <= 1e-12, trial


def _engine_model(seed, n_inputs, op, prune=True, normalize=True):
    from hullkit import build_boundary_model, group_by_operating_point, \
        synth_bsfc_objective, synth_engine_dataset
    key, block = group_by_operating_point(synth_engine_dataset(seed, n_inputs))[op]
    model = build_boundary_model(block, range(n_inputs), prune=prune,
                                 normalize=normalize, op_point_key=key)
    return model, model.map_objective(synth_bsfc_objective(seed, n_inputs, op))


def _slsqp_minimum(points, f, extra=()):
    # ``extra``: further SLSQP constraints on the weights.
    minimize = pytest.importorskip("scipy.optimize").minimize
    m = points.shape[0]
    ref = minimize(lambda a: f.eval(points.T @ a), np.full(m, 1.0 / m),
                   jac=lambda a: points @ f.grad(points.T @ a), method="SLSQP",
                   bounds=[(0.0, 1.0)] * m,
                   constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                                 "jac": lambda a: np.ones_like(a)}, *extra],
                   options={"maxiter": 1000, "ftol": 1e-12})
    return float(ref.fun)


@pytest.mark.parametrize("seed, n_inputs", [(3164770343, 9), (4108649244, 9),
                                            (1563021450, 4)])
def test_solve_vrep_reaches_slsqp_minimum_on_engine_models(seed, n_inputs):
    # Heuristic stops once left these 0.0017, 0.0167 and 0.85 g/kWh high.
    model, f = _engine_model(seed, n_inputs, 5)
    ref = _slsqp_minimum(model.vrep.points, f)
    res = solve_vrep(f, [], model.vrep)
    assert res.converged
    assert res.gap <= 1e-6 * max(1.0, abs(res.objective))
    assert abs(res.objective - ref) <= 1e-6


def test_solve_vrep_gradient_free_differences_in_x_space():
    # Central differences on the 4 inputs, not on the ~70 simplex weights.
    model, f = _engine_model(1, 4, 6)
    ref = _slsqp_minimum(model.vrep.points, f)
    res = solve_vrep(Objective(dim=f.dim, eval=f.eval), [], model.vrep)
    assert res.fun_evals <= 1000
    assert abs(res.objective - ref) <= 1e-6


@pytest.mark.parametrize("op", [0, 2])
def test_solve_hrep_converged_follows_final_barrier_round(op):
    # A per-weight iteration cap once stopped both at a large barrier weight.
    model, f = _engine_model(3653403231, 4, op)
    ref = _slsqp_minimum(model.vrep.points, f)
    hrep = vrep_to_hrep(model.vrep).hrep
    res = solve_hrep(f, [], hrep, model.vrep.points.mean(axis=0))
    assert res.converged
    assert res.gap <= 1e-6 * max(1.0, abs(res.objective))
    assert abs(res.objective - ref) <= 1e-6


@pytest.mark.parametrize("seed, op, prune, normalize", [
    (1, 0, True, True), (1, 3, False, True), (2, 5, True, False),
    (5, 1, False, False), (5, 6, True, True),
])
def test_solve_hrep_gap_certifies_minimum(seed, op, prune, normalize):
    # The dual bound covers the distance to SLSQP's minimum and the
    # Frank-Wolfe gap over the half-spaces, which LP duality puts below it.
    linprog = pytest.importorskip("scipy.optimize").linprog
    model, f = _engine_model(seed, 4, op, prune, normalize)
    ref = _slsqp_minimum(model.vrep.points, f)
    hrep = vrep_to_hrep(model.vrep).hrep
    res = solve_hrep(f, [], hrep, model.vrep.points.mean(axis=0))
    assert res.converged
    assert res.gap <= 1e-6 * max(1.0, abs(res.objective))
    assert res.objective - ref <= res.gap
    g = f.grad(res.minimizer)
    lp = linprog(g, A_ub=hrep.normals, b_ub=hrep.offsets,
                 bounds=[(None, None)] * hrep.dim, method="highs")
    assert lp.status == 0
    assert g @ res.minimizer - lp.fun <= res.gap


def test_solve_hrep_gradient_free():
    model, f = _engine_model(1, 4, 6)
    ref = _slsqp_minimum(model.vrep.points, f)
    hrep = vrep_to_hrep(model.vrep).hrep
    res = solve_hrep(Objective(dim=f.dim, eval=f.eval), [], hrep,
                     model.vrep.points.mean(axis=0))
    assert res.fun_evals <= 1000
    assert abs(res.objective - ref) <= 1e-6


def test_converged_requires_feasibility_on_both_routes():
    # A binding constraint is met within constraint_tol and the minimum
    # matches SLSQP's over the simplex weights; with no feasible point at
    # all, neither route may claim convergence.
    model, f = _engine_model(1, 4, 2)
    pts = model.vrep.points
    bound = float(np.quantile(pts[:, 0], 0.7))
    cons = [Objective(dim=4, eval=lambda x: float(x[0] - bound))]
    ref = _slsqp_minimum(pts, f, [{"type": "ineq", "fun": lambda a: pts[:, 0] @ a - bound}])
    opts = SolveOptions()
    hrep = vrep_to_hrep(model.vrep).hrep
    for res in (solve_vrep(f, cons, model.vrep),
                solve_hrep(f, cons, hrep, pts.mean(axis=0))):
        assert res.converged
        assert bound - res.minimizer[0] <= opts.constraint_tol
        assert abs(res.objective - ref) <= opts.objective_tol * abs(ref)

    v, h = unit_cube(2)
    cons = [Objective(dim=2, eval=lambda x: float(x[0] - 2.0))]  # x0 >= 2
    for res in (solve_vrep(_quadratic(2, [0.0, 0.0]), cons, v),
                solve_hrep(_quadratic(2, [0.0, 0.0]), cons, h, np.array([0.5, 0.5]))):
        assert not res.converged


def test_constraint_gradient_spares_evaluations():
    # Constraints are Objectives: an affine limit given with its gradient
    # needs no central differences, so both routes certify the same minimum
    # with far fewer evaluations than from differences.
    model, f = _engine_model(1, 4, 2)
    pts = model.vrep.points
    bound = float(np.quantile(pts[:, 0], 0.7))
    by_diff = Objective(dim=4, eval=lambda x: float(x[0] - bound))
    exact = Objective(dim=4, eval=by_diff.eval, grad=lambda x: np.eye(4)[0])
    hrep = vrep_to_hrep(model.vrep).hrep
    for solve in (lambda c: solve_vrep(f, [c], model.vrep),
                  lambda c: solve_hrep(f, [c], hrep, pts.mean(axis=0))):
        slow, fast = solve(by_diff), solve(exact)
        assert slow.converged and fast.converged
        assert abs(fast.objective - slow.objective) <= 1e-6 * abs(slow.objective)
        assert 4 * fast.fun_evals < slow.fun_evals, (fast.fun_evals, slow.fun_evals)


@pytest.mark.parametrize("op", range(7))
def test_barrier_resumes_across_multiplier_rounds(op):
    # Two binding constraints without gradients: each augmented-Lagrangian
    # round starts the barrier where the last one ended, which certifies
    # these in 1 065-1 987 evaluations; restarting at mu = 1 took 2 160-4 887.
    model, f = _engine_model(1, 4, op)
    pts = model.vrep.points
    b0, b1 = float(np.quantile(pts[:, 0], 0.7)), float(np.quantile(pts[:, 1], 0.6))
    cons = [Objective(dim=4, eval=lambda x: float(x[0] - b0)),
            Objective(dim=4, eval=lambda x: float(x[1] - b1))]
    res = solve_hrep(f, cons, vrep_to_hrep(model.vrep).hrep, pts.mean(axis=0))
    assert res.converged
    assert res.fun_evals <= 3000, res.fun_evals


def test_binding_constraint_certified_on_unit_square():
    # min |x|^2 with x0 >= 0.5: the multiplier converges to 1, so both
    # routes reach (0.5, 0) and certify it.
    v, h = unit_cube(2)
    f = _quadratic(2, [0.0, 0.0])
    cons = [Objective(dim=2, eval=lambda x: float(x[0] - 0.5))]
    for res in (solve_vrep(f, cons, v), solve_hrep(f, cons, h, np.array([0.75, 0.5]))):
        assert res.converged
        assert abs(res.minimizer[0] - 0.5) <= 1e-6
        assert abs(res.objective - 0.25) <= 1e-6


def test_solve_vrep_penalty_constraint():
    # For a linear objective one multiplier update reaches the exact
    # multiplier 1, so the active constraint is met well within the bounds.
    v, _ = unit_cube(2)
    f = Objective(dim=2, eval=lambda x: float(x[0] + x[1]),
                  grad=lambda x: np.ones(2))
    cons = [Objective(dim=2, eval=lambda x: float(x[0] - 0.5))]  # x0 >= 0.5
    res = solve_vrep(f, cons, v)
    assert res.minimizer[0] >= 0.5 - 1e-3
    assert abs(res.minimizer[0] - 0.5) <= 1e-2
    assert res.minimizer[1] <= 1e-4


def test_solve_hrep_linear_on_square():
    _, h = unit_cube(2)
    f = Objective(dim=2, eval=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    res = solve_hrep(f, [], h, np.array([0.5, 0.5]))
    assert res.objective <= 1e-4
    assert h.contains(res.minimizer)


def test_solve_hrep_interior_target():
    _, h = unit_cube(2)
    res = solve_hrep(_quadratic(2, [0.4, 0.3]), [], h, np.array([0.5, 0.5]))
    assert res.objective <= 1e-6


def test_solve_hrep_infeasible_start():
    _, h = unit_cube(2)
    with pytest.raises(InfeasibleStart):
        solve_hrep(_quadratic(2, [0.4, 0.3]), [], h, np.array([1.0, 0.5]))


def test_cross_method_agreement_on_random_instance():
    v = random_point_set(20, 2, seed=13)
    f = Objective(dim=2, eval=lambda x: float(x[0] + x[1]),
                  grad=lambda x: np.ones(2))
    expect = float(np.min(v.points.sum(axis=1)))
    conv = vrep_to_hrep(v)
    start = chebyshev_center(conv.hrep)
    res_h = solve_hrep(f, [], conv.hrep, start)
    res_v = solve_vrep(f, [], v)
    assert abs(res_h.objective - res_v.objective) <= 1e-3
    assert abs(res_v.objective - expect) <= 1e-4  # vertex-scan oracle arbitrates


def test_chebyshev_square():
    _, h = unit_cube(2)
    center = chebyshev_center(h)
    np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-9)
    radius = float(np.min(h.offsets - h.normals @ center))
    assert abs(radius - 0.5) <= 1e-9


def test_chebyshev_cross():
    _, h = cross_polytope(2)
    center = chebyshev_center(h)
    np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-9)
    radius = float(np.min(h.offsets - h.normals @ center))
    assert abs(radius - 1.0 / np.sqrt(2.0)) <= 1e-9


def test_chebyshev_quadrilateral_strictly_interior():
    h = vrep_to_hrep(VRep(FIG_QUAD)).hrep
    center = chebyshev_center(h)
    radius = float(np.min(h.offsets - h.normals @ center))
    assert radius > 1e-9
    slacks = h.offsets - h.normals @ center
    assert np.all(slacks >= radius - 1e-9)


def test_chebyshev_empty_interior():
    # Two opposing half-spaces squeezed to a slab of zero width.
    from hullkit import HRep
    h = HRep(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
             np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(EmptyInterior):
        chebyshev_center(h)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(max_fun_evals=0)


def test_fd_gradient_path_when_grad_absent():
    v = random_point_set(8, 2, seed=3)
    f = Objective(dim=2, eval=lambda x: float(np.sum((x - 0.1) ** 2)))
    res = solve_vrep(f, [], v)
    assert contains(v, res.minimizer).inside
    best = min(float(np.sum((p - 0.1) ** 2)) for p in v.points)
    assert res.objective <= best + 1e-6


def test_chebyshev_center_matches_highs_on_engine_hull():
    # Operating point 3 of this dataset once came back from the simplex with
    # a center that cleared its facets 1.3e-5 short of the true optimum.
    linprog = pytest.importorskip("scipy.optimize").linprog
    from hullkit import build_boundary_model, group_by_operating_point, \
        synth_engine_dataset
    key, block = group_by_operating_point(synth_engine_dataset(2655869424, 4))[3]
    model = build_boundary_model(block, range(4), prune=True, op_point_key=key)
    hrep = vrep_to_hrep(model.vrep).hrep
    center = chebyshev_center(hrep)
    clearance = float(np.min(hrep.offsets - hrep.normals @ center))  # unit normals
    ref = linprog(np.r_[np.zeros(hrep.dim), -1.0],
                  A_ub=np.hstack([hrep.normals, np.ones((hrep.n_halfspaces, 1))]),
                  b_ub=hrep.offsets,
                  bounds=[(None, None)] * hrep.dim + [(0.0, None)], method="highs")
    assert ref.status == 0
    assert clearance >= -ref.fun - 1e-9


@pytest.mark.parametrize("normals, offsets, expected", [
    ([[1, 0], [-1, 0]], [1, 0], ([0.5, 0.0], 0.5)),  # slab 0 <= x <= 1
    ([[1, 0], [-1, 0], [0, -1]], [1, 0, 0], (None, 0.5)),  # half-strip
    ([[1, 0]], [0], ValueError),  # half-plane
    ([[1, 0], [-1, 0]], [0, -1], EmptyInterior),  # x <= 0 and x >= 1
    ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
     [1, 0, 1, 0, 0.5, -0.5], EmptyInterior),  # box of zero width in z
])
def test_chebyshev_edge_cases(normals, offsets, expected):
    # expected is an exception type or (center, clearance); the half-strip's
    # center is not unique.
    from hullkit import HRep
    h = HRep(np.array(normals, dtype=float), np.array(offsets, dtype=float))
    if not isinstance(expected, tuple):
        with pytest.raises(expected) as info:
            chebyshev_center(h)
        assert info.type is expected  # EmptyInterior is also a ValueError
        return
    center, clearance = expected
    found = chebyshev_center(h)
    if center is not None:
        np.testing.assert_allclose(found, center, atol=1e-9)
    assert abs(float(np.min(h.offsets - h.normals @ found)) - clearance) <= 1e-9


def test_chebyshev_center_of_many_tangent_halfspaces():
    # 20 000 half-spaces tangent to the unit 5-ball: the dual LP has 6 rows,
    # where a primal tableau would need a dense 20 000 x 20 000 slack block.
    linprog = pytest.importorskip("scipy.optimize").linprog
    from hullkit import HRep
    normals = np.random.default_rng(5).normal(size=(20000, 5))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    h = HRep(normals, np.ones(20000))
    center = chebyshev_center(h)
    clearance = float(np.min(h.offsets - h.normals @ center))
    ref = linprog(np.r_[np.zeros(5), -1.0], A_ub=np.hstack([normals, np.ones((20000, 1))]),
                  b_ub=h.offsets, bounds=[(None, None)] * 5 + [(0.0, None)],
                  method="highs")
    assert ref.status == 0
    assert abs(clearance - -ref.fun) <= 1e-9
    np.testing.assert_allclose(center, ref.x[:5], atol=1e-9)
