"""Property tests of certificate-first membership and pruning.

A stream of queries runs against one hull, so later queries may be answered
from the certificates of earlier ones. Every answer must match a cold answer
on a fresh copy of the hull whenever the query is farther than the LP's band
tau from the boundary, inside weights must reconstruct the query, outside
separators must be strict, and step-first pruning must keep exactly the
points that LP alone keeps. Hulls are drawn at unit scale, scaled by 1e4 and
shifted by 1e3; Qhull gives the boundary distances.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
spatial = pytest.importorskip("scipy.spatial")
from hypothesis import given, strategies as st  # noqa: E402

from hullkit import VRep, contains, extreme_mask  # noqa: E402
from hullkit.queries import _tau  # noqa: E402
from oracles import serial_extreme_mask  # noqa: E402

hulls = st.tuples(st.integers(0, 2**32 - 1),   # seed
                  st.integers(2, 5),            # dimension
                  st.sampled_from([1.0, 1e4]),  # scale
                  st.sampled_from([0.0, 1e3]))  # shift


def _hull(seed, n, scale, shift):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n + 3, 8 * n))
    return rng, rng.uniform(-1.0, 1.0, (m, n)) * scale + shift


def _stream(rng, pts, family, k=12):
    """k queries of one family: deep (convex combinations), box (uniform over
    the bounding box) or band (1e-3 inside or outside the boundary along
    random rays from the centroid)."""
    if family == "deep":
        return rng.dirichlet(np.ones(len(pts)), k) @ pts
    if family == "box":
        return rng.uniform(pts.min(axis=0), pts.max(axis=0), (k, pts.shape[1]))
    eq = spatial.ConvexHull(pts).equations
    ctr = pts.mean(axis=0)
    dirs = rng.normal(size=(k, pts.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ad = dirs @ eq[:, :-1].T
    room = -(eq[:, :-1] @ ctr + eq[:, -1])
    exits = np.min(np.where(ad > 0.0, room / np.where(ad > 0.0, ad, 1.0), np.inf), axis=1)
    sides = np.where(np.arange(k) % 2 == 0, 1.0 - 1e-3, 1.0 + 1e-3)
    return ctr + (sides * exits)[:, None] * dirs


@given(hulls, st.sampled_from(["deep", "box", "band"]))
def test_cached_answers_match_cold_answers(hull, family):
    rng, pts = _hull(*hull)
    v = VRep(pts)
    eq = spatial.ConvexHull(pts).equations
    for q in _stream(rng, pts, family):
        tau = _tau(v.dim, max(np.abs(pts).max(), np.abs(q).max()))
        res = contains(v, q)
        if res.inside:
            alpha = res.weights.alpha
            assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9
            assert np.max(np.abs(alpha @ pts - q)) <= tau
        else:
            margin = res.separator.normal @ q - res.separator.offset
            assert np.max(pts @ res.separator.normal) <= res.separator.offset
            assert margin > (tau if res.source == "steps" else 0.0)
        depth = np.max(eq[:, :-1] @ q + eq[:, -1])  # > 0 outside, -distance inside
        if abs(depth) > 2.0 * tau:
            cold = contains(VRep(pts), q)
            assert cold.source in ("lp", "steps")
            assert res.inside == cold.inside == (depth < 0.0)


@given(hulls, st.floats(-10.0, -6.0))
def test_pruning_equals_lp_only_classification(hull, log_depth):
    """Points planted 1e-10 to 1e-6 (relative) outside the others' hull,
    beyond facet centroids and radially beyond vertices, straddle the LP's
    band; the separator must certify only those the LP calls extreme."""
    rng, pts = _hull(*hull)
    qh = spatial.ConvexHull(pts)
    scale = np.abs(pts).max()
    depth = 10.0 ** log_depth
    planted = []
    for row in rng.choice(len(qh.equations), size=min(3, len(qh.equations)), replace=False):
        normal, offset = qh.equations[row, :-1], -qh.equations[row, -1]
        on_facet = pts[np.abs(pts @ normal - offset) <= 1e-9 * scale].mean(axis=0)
        planted.append(on_facet + depth * scale * normal)
    ctr = pts.mean(axis=0)
    for k in rng.choice(qh.vertices, size=2, replace=False):
        planted.append(ctr + (1.0 + depth) * (pts[k] - ctr))
    v = VRep(np.vstack([pts, planted]))
    mask, certified = extreme_mask(v)
    assert mask.tolist() == serial_extreme_mask(v.points)
    assert 0 <= certified <= int(mask.sum())


def _benchmark_hull(seed, m=1000, n=9):
    """A hull shaped like the benchmark's: m points uniform in [-1, 1]^n."""
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(-1.0, 1.0, (m, n))


def _highs_feasible(pts, q):
    optimize = pytest.importorskip("scipy.optimize")
    eq = np.vstack([pts.T, np.ones(len(pts))])
    res = optimize.linprog(np.zeros(len(pts)), A_eq=eq, b_eq=np.append(q, 1.0),
                           bounds=(0, None), method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def test_band_queries_reach_the_lp():
    """Queries 1e-3 inside or outside the boundary (exit distance by HiGHS)
    of a benchmark-sized hull stop stepping and go to the LP. Each query gets
    a fresh hull, so no cached certificate answers first."""
    optimize = pytest.importorskip("scipy.optimize")
    rng, pts = _benchmark_hull(7)
    ctr = pts.mean(axis=0)
    eq = np.vstack([pts.T, np.ones(len(pts))])
    for k in range(8):
        ray = rng.normal(size=pts.shape[1])
        ray /= np.linalg.norm(ray)
        # max t s.t. ctr + t ray = P^T y, sum y = 1, y >= 0
        exit_lp = optimize.linprog(np.append(np.zeros(len(pts)), -1.0),
                                   A_eq=np.hstack([eq, -np.append(ray, 0.0)[:, None]]),
                                   b_eq=np.append(ctr, 1.0), bounds=(0, None), method="highs")
        assert exit_lp.status == 0
        for side in (1.0 - 1e-3, 1.0 + 1e-3):
            res = contains(VRep(pts), ctr - side * exit_lp.fun * ray)
            assert res.source == "lp"
            assert res.inside == (side < 1.0)


def test_steps_answers_agree_with_lp_and_highs():
    from hullkit.lp import INFEASIBLE, lp_solve
    from hullkit.queries import membership_problem
    seen = 0
    for seed, (m, n) in enumerate([(1000, 9), (200, 5), (40, 3)]):
        rng, pts = _benchmark_hull(seed, m, n)
        v = VRep(pts)
        for q in _stream(rng, pts, "box", k=40):
            res = contains(v, q)
            if res.source != "steps":
                continue
            seen += 1
            sep = res.separator
            assert np.max(pts @ sep.normal) == sep.offset
            assert sep.normal @ q - sep.offset > _tau(n, max(np.abs(pts).max(), np.abs(q).max()))
            assert lp_solve(membership_problem(pts, q)).status == INFEASIBLE
            assert not _highs_feasible(pts, q)
    assert seen >= 20
