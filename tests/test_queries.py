import warnings

import numpy as np
import pytest

from hullkit import VRep, contains, cross_polytope, extreme_mask, extreme_points, \
    is_extreme, random_point_set, unit_cube, vrep_to_hrep
from hullkit.errors import DimensionError
from oracles import min_grid_distance, serial_extreme_mask

FIG_QUAD = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [1.0, 1.0], [0.0, 1.0]])


def _assert_certificate(v, query, result):
    sep = result.separator
    assert sep is not None
    assert np.max(v.points @ sep.normal - sep.offset) <= 1e-9
    assert sep.normal @ np.asarray(query) > sep.offset + 1e-9


def test_quadrilateral_fixture():
    v = VRep(FIG_QUAD)
    res = contains(v, [1.0, 1.0])
    assert res.inside
    w = res.weights.alpha
    np.testing.assert_allclose(v.points.T @ w, [1.0, 1.0], atol=1e-7)


def test_cube_centroid_weights():
    v, _ = unit_cube(3)
    res = contains(v, [0.5, 0.5, 0.5])
    assert res.inside
    assert abs(res.weights.alpha.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(v.points.T @ res.weights.alpha, [0.5, 0.5, 0.5],
                               atol=1e-7)


def test_triangle_outside_with_separator():
    tri = VRep(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # Brute-force oracle: no lattice combination comes near (1, 1).
    assert min_grid_distance(tri.points, [1.0, 1.0]) > 0.4
    res = contains(tri, [1.0, 1.0])
    assert not res.inside
    np.testing.assert_allclose(res.separator.normal,
                               np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-9)
    assert abs(res.separator.offset - 1.0 / np.sqrt(2.0)) <= 1e-9
    _assert_certificate(tri, [1.0, 1.0], res)


def test_dimension_mismatch():
    v, _ = unit_cube(3)
    with pytest.raises(DimensionError):
        contains(v, [0.5, 0.5])


def test_self_membership():
    for v in (unit_cube(3)[0], VRep(FIG_QUAD), random_point_set(40, 4, seed=3)):
        for i in range(v.n_points):
            assert contains(v, v.points[i]).inside, f"point {i} not self-member"


def test_is_extreme_fixture():
    v = VRep(FIG_QUAD)
    assert not is_extreme(v, 3)  # (1, 1) is interior
    assert is_extreme(v, 0)
    assert is_extreme(v, 1)
    assert is_extreme(v, 2)
    assert is_extreme(v, 4)


def test_is_extreme_segment_endpoints():
    seg = VRep(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert is_extreme(seg, 0)
    assert is_extreme(seg, 1)


def test_is_extreme_index_error():
    with pytest.raises(IndexError):
        is_extreme(VRep(FIG_QUAD), 5)


def test_extreme_points_fixture():
    pruned = extreme_points(VRep(FIG_QUAD))
    np.testing.assert_array_equal(
        pruned.points, np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [0.0, 1.0]]))


def test_extreme_points_cube_all_kept():
    v, _ = unit_cube(3)
    assert extreme_points(v).n_points == 8


def test_extreme_points_cross4_all_kept():
    v, _ = cross_polytope(4)
    assert extreme_points(v).n_points == 8


def test_extreme_points_drop_interior_combinations():
    rng = np.random.default_rng(55)
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    combos = rng.dirichlet(np.full(3, 2.0), 10) @ tri  # all-positive weights
    v = VRep(np.vstack([tri, combos]))
    pruned = extreme_points(v)
    np.testing.assert_array_equal(pruned.points, tri)


def test_krein_milman_consistency():
    rng = np.random.default_rng(4242)
    v = random_point_set(50, 4, seed=21)
    pruned = extreme_points(v)
    assert pruned.n_points <= v.n_points
    queries = rng.uniform(-1.3, 1.3, (100, 4))
    for q in queries:
        assert contains(pruned, q).inside == contains(v, q).inside


def test_certificates_valid_on_random_outside_queries():
    rng = np.random.default_rng(808)
    v = random_point_set(30, 3, seed=5)
    checked = 0
    for _ in range(100):
        q = rng.uniform(-2.0, 2.0, 3)
        res = contains(v, q)
        if res.inside:
            continue
        _assert_certificate(v, q, res)
        checked += 1
    assert checked >= 20


def test_oracle_equivalence_with_hrep():
    rng = np.random.default_rng(31)
    for seed in (0, 1):
        v = random_point_set(28, 4, seed=seed)
        hrep = vrep_to_hrep(v).hrep
        for q in rng.uniform(-1.2, 1.2, (200, 4)):
            assert contains(v, q).inside == hrep.contains(q)


def test_scale_robustness():
    rng = np.random.default_rng(66)
    v = random_point_set(25, 3, seed=12)
    big = VRep(v.points * 1e3)
    for q in rng.uniform(-1.5, 1.5, (50, 3)):
        assert contains(v, q).inside == contains(big, q * 1e3).inside



def test_repeat_queries_answered_from_certificates():
    v = random_point_set(40, 4, seed=3)
    first = contains(v, np.zeros(4))
    assert first.inside and first.source == "lp"
    again = contains(v, np.full(4, 1e-3))  # inside the same basis simplex
    assert again.inside and again.source == "basis"
    np.testing.assert_allclose(v.points.T @ again.weights.alpha, np.full(4, 1e-3),
                               atol=1e-12)
    far = contains(v, np.full(4, 3.0))
    assert not far.inside and far.source == "steps"
    _assert_certificate(v, [3.0, 3.0, 3.0, 3.0], far)
    farther = contains(v, np.full(4, 4.0))
    assert not farther.inside and farther.source == "steps"
    _assert_certificate(v, [4.0, 4.0, 4.0, 4.0], farther)
    # A fresh hull with the same points starts without the basis.
    assert contains(VRep(v.points), np.full(4, 1e-3)).source == "lp"


def test_queries_just_beyond_each_vertex_are_separated():
    v = random_point_set(30, 3, seed=2)
    for p in extreme_points(v).points:  # just beyond each vertex
        res = contains(v, 1.05 * p)
        assert not res.inside
        _assert_certificate(v, 1.05 * p, res)


def test_extreme_mask_counts_step_certificates():
    mask, certified = extreme_mask(VRep(FIG_QUAD))
    assert mask.tolist() == [True, True, True, False, True]
    assert certified == 4  # only the interior point (1, 1) takes an LP
    mask, certified = extreme_mask(unit_cube(3)[0])
    assert mask.all() and certified == 8


def test_steps_separator_needs_margin_beyond_tau():
    v = random_point_set(40, 4, seed=3)
    far = contains(v, np.full(4, 3.0))
    assert not far.inside
    # The vertex that attains the steps separator's offset lies on its
    # plane, inside the LP's band, so no separator may answer for it.
    support = v.points[np.argmax(v.points @ far.separator.normal)]
    res = contains(v, support)
    assert res.inside and res.source == "lp"


def _other_centroid_steps(points, tau):
    """The 1-D step loop run per point against the hull of the other points,
    with the pruning stop rule: a point stops when certified or |d| <= tau."""
    from hullkit.queries import _STEPS, _verdict
    out = []
    for k in range(len(points)):
        others = np.delete(points, k, axis=0)
        q, x, hit = points[k], others.mean(axis=0), False
        for _ in range(_STEPS):
            d = q - x
            s = others.dot(d)
            j = s.argmax()
            hit, close, _ = _verdict(d.dot(q) - s[j], d.dot(d), tau)
            if hit or close:
                break
            e = others[j] - x
            x = x + min(1.0, d.dot(e) / e.dot(e)) * e
        out.append(bool(hit))
    return np.array(out)


@pytest.mark.parametrize("seed,n,block", [(0, 2, None), (1, 3, None), (2, 4, 40),
                                          (3, 5, 1), (4, 6, None)])
def test_block_steps_certify_what_single_steps_certify(seed, n, block, monkeypatch):
    from hullkit import queries
    rng = np.random.default_rng(seed)
    m = 12 * n
    pts = rng.uniform(-1.0, 1.0, (m, n)) * 10.0 ** rng.integers(-3, 4)
    # Half the points sit just inside or outside the hull of the rest, so
    # some targets certify only after several steps and some never do.
    ctr = pts.mean(axis=0)
    pts[m // 2:] = ctr + (pts[m // 2:] - ctr) * rng.uniform(0.97, 1.03, (m - m // 2, 1))
    if block is not None:
        monkeypatch.setattr(queries, "_BLOCK", block)
    tau = queries._tau(n, float(np.abs(pts).max()))
    blocked = queries._extreme_steps(pts, tau)
    np.testing.assert_array_equal(blocked, _other_centroid_steps(pts, tau))
    assert 0 < blocked.sum() < m
    mask, _ = extreme_mask(VRep(pts))
    assert not (blocked & ~mask).any()


def test_steps_edge_cases():
    # One point is its own hull's only vertex.
    mask, certified = extreme_mask(VRep([[1.0, 2.0]]))
    assert mask.tolist() == [True] and certified == 1
    # At 1e300, d . d overflows: no step certifies and the LP answers,
    # with no overflow warning.
    v = random_point_set(30, 3, seed=5)
    far = np.full(3, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = contains(v, far)
    assert not res.inside and res.source == "lp"
    assert res.separator.normal @ far > res.separator.offset
    # A query equal to a vertex is inside, with no steps answer.
    for k in np.flatnonzero(extreme_mask(v)[0])[:4]:
        res = contains(VRep(v.points), v.points[k])
        assert res.inside and res.source == "lp"


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("n_inputs", [4, 9])
def test_extreme_mask_equals_lp_on_engine_models(seed, n_inputs):
    """The mask equals one serial LP per point on the other points, on
    normalized and on raw models; raw models leave most points to the
    stacked LPs."""
    from hullkit import build_boundary_model, group_by_operating_point, synth_engine_dataset
    groups = group_by_operating_point(synth_engine_dataset(seed, n_inputs))
    assert len(groups) == 7
    for normalize in (True, False):
        for _, rows in groups:
            v = build_boundary_model(rows, range(n_inputs), normalize=normalize).vrep
            mask, certified = extreme_mask(v)
            assert mask.tolist() == serial_extreme_mask(v.points)
            assert 0 <= certified <= int(mask.sum())
            assert certified > 0 or not normalize


@pytest.mark.parametrize("block", [1, 2000, 20000])
def test_blocked_lp_stacks_give_the_one_stack_mask(block, monkeypatch):
    """Stacks split to at most ``_BLOCK`` tableau entries each give the mask
    that one stack gives."""
    from hullkit import queries
    pts = random_point_set(60, 4, seed=9).points
    pts = np.vstack([pts, 0.5 * pts[:30]])  # interior points that need an LP
    ks = np.arange(len(pts))
    whole = queries._extreme_lps(pts, ks)
    monkeypatch.setattr(queries, "_BLOCK", block)
    np.testing.assert_array_equal(queries._extreme_lps(pts, ks), whole)
    assert whole.tolist() == serial_extreme_mask(pts)
    assert 0 < whole.sum() < len(pts)
