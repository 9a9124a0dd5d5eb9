"""Property tests of certificate-first membership and pruning.

A stream of queries runs against one hull, so later queries may be answered
from the certificates of earlier ones. Every answer must match a cold answer
on a fresh copy of the hull whenever the query is farther than the LP's band
tau from the boundary, inside weights must reconstruct the query, outside
separators must be strict, and separator-first pruning must keep exactly the
points that LP alone keeps. Hulls are drawn at unit scale, scaled by 1e4 and
shifted by 1e3; Qhull gives the boundary distances.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
spatial = pytest.importorskip("scipy.spatial")
from hypothesis import given, strategies as st  # noqa: E402

from hullkit import VRep, contains, extreme_mask, is_extreme  # noqa: E402
from hullkit.queries import _tau  # noqa: E402

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
            assert margin > (tau if res.source == "separator" else 0.0)
        depth = np.max(eq[:, :-1] @ q + eq[:, -1])  # > 0 outside, -distance inside
        if abs(depth) > 2.0 * tau:
            cold = contains(VRep(pts), q)
            assert cold.source == "lp"
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
    assert mask.tolist() == [is_extreme(v, k) for k in range(v.n_points)]
    assert 0 <= certified <= int(mask.sum())
