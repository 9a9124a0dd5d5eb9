import itertools
import json

import numpy as np
import pytest

from hullkit import ConversionTimeout, DegenerateError, HRep, VRep, \
    contains, cross_polytope, random_point_set, unit_cube, vrep_to_hrep
from hullkit.polytope import DISTINCT_EPS, _duplicate_rows
from oracles import bruteforce_facets, pairwise_duplicate_rows

FIG_QUAD = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [1.0, 1.0], [0.0, 1.0]])


def _facet_array(hrep):
    return np.hstack([hrep.normals, hrep.offsets[:, None]])


def _assert_same_facets(got, expect, atol):
    """Both (normal, offset) arrays hold the same rows within ``atol``."""
    assert got.shape == expect.shape
    dist = np.abs(got[:, None, :] - expect[None, :, :]).max(axis=2)
    assert dist.min(axis=1).max() <= atol
    assert dist.min(axis=0).max() <= atol


def _cube_with_facet_centres(n):
    centres = 0.5 + 0.5 * np.vstack([np.eye(n), -np.eye(n)])
    return np.vstack([unit_cube(n)[0].points, centres])


def _hexagon_times_hexagon():
    ang = np.arange(6) * np.pi / 3.0
    hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
    return np.array([np.concatenate([p, q]) for p in hexagon for q in hexagon])


ORACLE_CASES = {
    **{f"random22x4-seed{s}": (lambda s=s: random_point_set(22, 4, seed=s).points)
       for s in range(6)},
    "cube4": lambda: unit_cube(4)[0].points,
    "cross3": lambda: cross_polytope(3)[0].points,
    "cross4": lambda: cross_polytope(4)[0].points,
    "cross5": lambda: cross_polytope(5)[0].points,
    "grid3x3x3": lambda: np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=3))),
    "cube3-face-centres": lambda: _cube_with_facet_centres(3),
    "cube4-facet-centres": lambda: _cube_with_facet_centres(4),
    "hexagon-x-hexagon": _hexagon_times_hexagon,
    "random22x4-seed0-times-1e4": lambda: random_point_set(22, 4, seed=0).points * 1e4,
    "cube4-plus-1e6": lambda: unit_cube(4)[0].points + 1e6,
}


def test_cube_counts_through_dim_10():
    for n in range(1, 11):
        vrep, hrep = unit_cube(n)
        assert vrep.n_points == 2 ** n
        assert hrep.n_halfspaces == 2 * n
        assert np.all((vrep.points == 0.0) | (vrep.points == 1.0))


def test_cross_counts_through_dim_10():
    for n in range(1, 11):
        vrep, hrep = cross_polytope(n)
        assert vrep.n_points == 2 * n
        assert hrep.n_halfspaces == 2 ** n
        np.testing.assert_allclose(hrep.offsets, 1.0 / np.sqrt(n))


def test_cube_dim_1():
    vrep, hrep = unit_cube(1)
    assert sorted(vrep.points[:, 0]) == [0.0, 1.0]
    sides = sorted(zip(hrep.normals[:, 0], hrep.offsets))
    assert sides == [(-1.0, 0.0), (1.0, 1.0)]


def test_cube_vrep_omitted_past_20():
    vrep, hrep = unit_cube(21)
    assert vrep is None
    assert hrep.n_halfspaces == 42
    vrep, hrep = cross_polytope(21)
    assert hrep is None
    assert vrep.n_points == 42


def test_conversion_cube3():
    vrep, _ = unit_cube(3)
    report = vrep_to_hrep(vrep)
    assert report.facet_count == 6
    assert report.hrep.n_halfspaces == 6


def test_conversion_cross3():
    vrep, hrep = cross_polytope(3)
    report = vrep_to_hrep(vrep)
    assert report.facet_count == 8
    # Duality symmetry: recovered normals match the closed-form sign vectors.
    got = np.array(sorted(map(tuple, np.round(report.hrep.normals, 9))))
    expect = np.array(sorted(map(tuple, np.round(hrep.normals, 9))))
    np.testing.assert_allclose(got, expect, atol=1e-9)
    np.testing.assert_allclose(report.hrep.offsets, 1.0 / np.sqrt(3), atol=1e-9)


def test_conversion_quadrilateral_with_interior_point():
    report = vrep_to_hrep(VRep(FIG_QUAD))
    assert report.facet_count == 4


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_conversion_matches_bruteforce_oracle(case):
    points = ORACLE_CASES[case]()
    scale = max(1.0, float(np.abs(points).max()))
    got = _facet_array(vrep_to_hrep(VRep(points)).hrep)
    normals, offsets = bruteforce_facets(points)
    expect = np.hstack([normals, offsets[:, None]])
    got[:, -1] /= scale  # compare offsets relative to the data's magnitude
    expect[:, -1] /= scale
    _assert_same_facets(got, expect, atol=1e-9)


def _assert_matches_qhull(v):
    """Same facets as Qhull within 1e-9, matched by max-norm nearest
    neighbour in both directions (a k-d tree, as hulls here reach F ~ 7000)."""
    spatial = pytest.importorskip("scipy.spatial")
    got = _facet_array(vrep_to_hrep(v).hrep)
    eq = spatial.ConvexHull(v.points).equations  # normal . x + c <= 0
    expect = np.hstack([eq[:, :-1], -eq[:, -1:]])
    assert got.shape == expect.shape
    for a, b in ((got, expect), (expect, got)):
        dist, _ = spatial.cKDTree(b).query(a, p=np.inf)
        assert dist.max() <= 1e-9


@pytest.mark.parametrize("shift", [1e3, 1e6, 1e7])
def test_conversion_matches_qhull_far_from_origin(shift):
    # The walk's perturbation and tol must follow the hull's extent (about
    # 2 here), not its distance from the origin; offsets are compared
    # relative to the shift.
    spatial = pytest.importorskip("scipy.spatial")
    points = random_point_set(40, 4, seed=1).points + shift
    got = _facet_array(vrep_to_hrep(VRep(points)).hrep)
    eq = spatial.ConvexHull(points).equations
    expect = np.hstack([eq[:, :-1], -eq[:, -1:]])
    got[:, -1] /= shift
    expect[:, -1] /= shift
    assert got.shape == expect.shape == (129, 5)
    for a, b in ((got, expect), (expect, got)):
        dist, _ = spatial.cKDTree(b).query(a, p=np.inf)
        assert dist.max() <= 1e-9


def _cube4_with_near_facet_points(depth, shift):
    """The unit 4-cube plus 6 random points per facet, ``depth`` inside it."""
    rng = np.random.default_rng(4)
    extra = []
    for axis in range(4):
        for side in (0.0, 1.0):
            pts = rng.uniform(0.1, 0.9, (6, 4))
            pts[:, axis] = side + depth if side == 0.0 else side - depth
            extra.append(pts)
    return np.vstack([unit_cube(4)[0].points] + extra) + shift


@pytest.mark.parametrize("depth", [1e-6, 1e-7])
@pytest.mark.parametrize("shift", [0.0, 1e3])
def test_conversion_near_facet_points(depth, shift):
    # The near-facet points are interior, so the facets are exactly the
    # cube's 8. A perturbation as large as ``depth`` would make them hull
    # points and lose facets; this pins the walk's amplitude below 1e-7 of
    # the hull's extent, wherever the hull sits.
    report = vrep_to_hrep(VRep(_cube4_with_near_facet_points(depth, shift)))
    cube = unit_cube(4)[1]
    expect = np.hstack([cube.normals, (cube.offsets + cube.normals.sum(axis=1) * shift)[:, None]])
    got = _facet_array(report.hrep)
    got[:, -1] /= max(1.0, shift)  # offsets relative to the data's magnitude
    expect[:, -1] /= max(1.0, shift)
    assert report.facet_count == 8
    _assert_same_facets(got, expect, atol=1e-9)


def test_conversion_matches_qhull_60x5():
    # About 2 900 ridges: two waves of the walk.
    _assert_matches_qhull(random_point_set(60, 5, seed=3))


def test_conversion_matches_qhull_60x7():
    # About 31 000 ridges: 16 waves of the walk.
    _assert_matches_qhull(random_point_set(60, 7, seed=3))


def test_facet_set_permutation_invariant():
    rng = np.random.default_rng(5)
    v = random_point_set(18, 3, seed=17)
    base = _facet_array(vrep_to_hrep(v).hrep)
    for _ in range(4):
        shuffled = VRep(v.points[rng.permutation(v.n_points)])
        other = _facet_array(vrep_to_hrep(shuffled).hrep)
        assert other.shape == base.shape
        np.testing.assert_allclose(other, base, atol=1e-7)


@pytest.mark.parametrize("case", ["random22x4-seed0", "cube4-facet-centres", "cross4"])
def test_facets_sorted_by_rounded_normal_then_offset(case):
    # Reference order: a Python sort keyed on the normal and offset rounded
    # to 10 digits, which the merge step's np.lexsort must reproduce.
    hrep = vrep_to_hrep(VRep(ORACLE_CASES[case]())).hrep
    keys = [(tuple(np.round(nrm, 10)), round(float(off), 10))
            for nrm, off in zip(hrep.normals, hrep.offsets)]
    assert keys == sorted(keys)


def test_degenerate_rejected():
    flat = VRep(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(DegenerateError):
        vrep_to_hrep(flat)


def test_conversion_timeout_raised():
    v = random_point_set(120, 6, seed=0)
    with pytest.raises(ConversionTimeout) as err:
        vrep_to_hrep(v, deadline_s=0.05)
    assert err.value.elapsed >= 0.05
    assert err.value.candidates_examined > 0


def test_hrep_contains_examples():
    _, cube_h = unit_cube(3)
    assert cube_h.contains([0.5, 0.5, 0.5])
    assert not cube_h.contains([1.5, 0.0, 0.0])
    _, cross_h = cross_polytope(3)
    assert not cross_h.contains([0.4, 0.4, 0.4])  # l1 norm 1.2 > 1


def test_random_50x5_facet_count_order_of_magnitude():
    # 50 uniform points in 5 dimensions yield a few hundred facets.
    report = vrep_to_hrep(random_point_set(50, 5, seed=11))
    assert 100 <= report.facet_count <= 2000


def test_random_point_set_deterministic_and_in_range():
    a = random_point_set(5, 2, seed=42)
    b = random_point_set(5, 2, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    c = random_point_set(50, 5, seed=9)
    assert np.all(np.abs(c.points) <= 1.0)
    with pytest.raises(ValueError):
        random_point_set(3, 3, seed=0)


def test_representation_equivalence_against_membership():
    # Theorem-level equivalence: H-rep containment must match the LP answer.
    rng = np.random.default_rng(77)
    for m, n, seed in [(25, 3, 1), (30, 4, 2), (18, 5, 3)]:
        v = random_point_set(m, n, seed=seed)
        hrep = vrep_to_hrep(v).hrep
        queries = rng.uniform(-1.2, 1.2, (200, n))
        for q in queries:
            assert hrep.contains(q) == contains(v, q).inside


def test_vrep_distinctness_enforced():
    with pytest.raises(ValueError):
        VRep(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


def _near_duplicates():
    # 60 rows planted 1e-13 from earlier rows (duplicates) and 20 planted
    # 2e-12 away in one coordinate (distinct), shuffled among 200 others.
    rng = np.random.default_rng(11)
    base = rng.uniform(-1.0, 1.0, (200, 4))
    near = base[rng.integers(0, 200, 60)] + 1e-13 * rng.choice([-1.0, 1.0], (60, 4))
    apart = base[rng.integers(0, 200, 20)].copy()
    apart[:, 1 + np.arange(20) % 3] += 2e-12
    return rng.permutation(np.vstack([base, near, apart]))


@pytest.mark.parametrize("points", [
    np.random.default_rng(3).uniform(-1.0, 1.0, (400, 6)),
    np.random.default_rng(4).integers(0, 3, (300, 3)).astype(float),  # exact repeats
    np.array(list(itertools.product([0.0, 0.5, 1.0], repeat=4))),  # tied columns
    unit_cube(6)[0].points,
    _near_duplicates(),
], ids=["random", "integer-repeats", "grid", "cube6", "near-duplicates"])
def test_duplicate_rows_matches_pairwise_scan(points):
    expect = pairwise_duplicate_rows(points, DISTINCT_EPS)
    np.testing.assert_array_equal(_duplicate_rows(points), expect)


def test_json_round_trip(tmp_path):
    v = random_point_set(10, 3, seed=4)
    d = v.to_dict()
    assert d["dim"] == 3 and len(d["points"]) == 10
    v2 = VRep.from_dict(json.loads(json.dumps(d)))
    np.testing.assert_array_equal(v.points, v2.points)

    hrep = vrep_to_hrep(v).hrep
    h2 = HRep.from_dict(json.loads(json.dumps(hrep.to_dict())))
    np.testing.assert_array_equal(hrep.normals, h2.normals)
    np.testing.assert_array_equal(hrep.offsets, h2.offsets)


def test_conversion_report_counters():
    for vrep in (random_point_set(12, 3, seed=8), unit_cube(4)[0]):
        report = vrep_to_hrep(vrep)
        # Every facet is refit from at least one simplex the walk found.
        assert report.candidates_examined >= report.facet_count
        assert report.elapsed >= 0.0
        assert report.facet_count == report.hrep.n_halfspaces
        # Every simplex walked is fit once and is dropped, merged or kept.
        assert report.facet_count == (report.simplices_refit - report.slivers_dropped
                                      - report.facets_merged)
        # Candidates: one LP for the initial facet, then one per ridge
        # pivoted and one per simplex refit.
        assert report.ridges_walked > 0
        assert report.candidates_examined == (1 + report.ridges_walked
                                              + report.simplices_refit)


def test_conversion_cube5():
    # Degenerate hull: the 1e-9 perturbation shatters each facet into many
    # simplices, which the on-set refit and merge fold back into 10 facets.
    report = vrep_to_hrep(unit_cube(5)[0], deadline_s=30)
    assert report.facet_count == 10
    _assert_same_facets(_facet_array(report.hrep), _facet_array(unit_cube(5)[1]), atol=1e-9)
    assert report.slivers_dropped > 0 and report.facets_merged > 0
