"""Vertex (V-) and half-space (H-) representations of point-set hulls.

Includes reference generators (unit cube, cross-polytope), seeded random
point sets, and facet enumeration for the V-to-H conversion.

Facets are enumerated by gift-wrapping (Chand & Kapur 1970): starting from
one supporting facet, read off the optimal basis of one ``lp_solve``, the
walk rotates the supporting hyperplane across each ridge to the
neighbouring facet, so its cost follows the number of facets found rather
than the C(m, n) subsets of the input. The walk runs on a
deterministically perturbed copy of the points, which puts them in general
position so that every facet it meets is a simplex; the points are centred
on their centroid first, so the perturbation follows the hull's extent. It
works in waves: each ridge is queued once, and up to ``_CHUNK`` queued
ridges are pivoted together with one stacked QR, two matrix products for
the angle terms and one row-wise argmax. Every simplex found is then fit
once, in batches, on the unperturbed coordinates. A simplex whose plane
holds no other input point is a facet as it stands; the larger on-sets of
degenerate hulls, coplanar pieces of one true facet, are refit once each on
all their points.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConversionTimeout, DegenerateError, ParseError, SchemaError
from .linalg import GEOM_EPS, affine_rank, as_matrix, as_vector
from .lp import LpProblem, lp_solve

# Points closer than this in max-norm count as duplicates.
DISTINCT_EPS = 1e-12
# Facets whose (normal, offset) agree within this are merged.
DEDUP_EPS = 1e-7

# Ridges pivoted per wave of the walk, and simplices fit per batched SVD.
_CHUNK = 2048


def _duplicate_rows(points) -> np.ndarray:
    """Indices of rows that duplicate an earlier row within DISTINCT_EPS.

    Sort and sweep: a close pair is also close in the first coordinate, so
    each row is compared only with the rows that follow it in that order
    within DISTINCT_EPS, and the later input index of a close pair is marked.
    """
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    ends = np.searchsorted(pts[:, 0], pts[:, 0] + DISTINCT_EPS, side="right")
    dup = np.zeros(points.shape[0], dtype=bool)
    for i in np.flatnonzero(ends > np.arange(1, len(pts) + 1)):
        close = np.max(np.abs(pts[i + 1:ends[i]] - pts[i]), axis=1) <= DISTINCT_EPS
        dup[np.maximum(order[i], order[i + 1:ends[i]][close])] = True
    return np.flatnonzero(dup)


def _check_distinct(points):
    dups = _duplicate_rows(points)
    if dups.size:
        raise ValueError(f"points must be pairwise distinct; index {dups[0]} has a duplicate")


@dataclass(frozen=True, eq=False)
class VRep:
    """Convex hull of a finite set of pairwise-distinct points (rows)."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_matrix(self.points)
        if pts.shape[0] < 1:
            raise ValueError("VRep needs at least one point")
        _check_distinct(pts)
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        return {"dim": self.dim, "points": self.points.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "VRep":
        try:
            pts = np.atleast_2d(np.asarray(data["points"], dtype=float))
            return cls(as_matrix(pts, cols=int(data["dim"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed vrep document: {exc!r}") from exc


@dataclass(frozen=True, eq=False)
class HRep:
    """Intersection of half-spaces ``normal_i . x <= offset_i`` (unit normals)."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = as_matrix(self.normals)
        offsets = as_vector(self.offsets, normals.shape[0])
        if normals.shape[0] < 1:
            raise ValueError("HRep needs at least one half-space")
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-9):
            raise ValueError("HRep normals must be unit length")
        normals = normals.copy()
        offsets = offsets.copy()
        normals.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_halfspaces(self) -> int:
        return self.normals.shape[0]

    def contains(self, x) -> bool:
        """Whether ``x`` satisfies every half-space within ``GEOM_EPS``."""
        x = as_vector(x, self.dim)
        return bool(np.all(self.normals @ x <= self.offsets + GEOM_EPS))

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "halfspaces": [{"normal": n.tolist(), "offset": float(o)}
                               for n, o in zip(self.normals, self.offsets)]}

    @classmethod
    def from_dict(cls, data: dict) -> "HRep":
        try:
            normals = np.array([h["normal"] for h in data["halfspaces"]], dtype=float)
            offsets = np.array([h["offset"] for h in data["halfspaces"]], dtype=float)
            return cls(as_matrix(normals, cols=int(data["dim"])), offsets)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed hrep document: {exc!r}") from exc


@dataclass(frozen=True, eq=False)
class ConversionReport:
    """Outcome of a V-to-H conversion with its cost counters.

    ``facet_count == simplices_refit - slivers_dropped - facets_merged``:
    every simplex the walk found is fit once, and is either dropped, folded
    into a facet already found, or kept as a facet.
    """

    hrep: HRep
    facet_count: int
    elapsed: float
    candidates_examined: int
    ridges_walked: int
    simplices_refit: int
    slivers_dropped: int  # degenerate or non-supporting fits
    facets_merged: int  # fits folded into a facet by on-set or DEDUP_EPS

    def __post_init__(self):
        if self.facet_count != self.hrep.n_halfspaces:
            raise ValueError("facet_count must match the half-space count")


def unit_cube(n: int):
    """V- and H-representations of the n-dimensional unit cube.

    The V-side has 2^n vertices and is omitted (None) for n > 20; the H-side
    always has 2n half-spaces.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    normals = np.vstack([np.eye(n), -np.eye(n)])
    offsets = np.concatenate([np.ones(n), np.zeros(n)])
    hrep = HRep(normals, offsets)
    if n > 20:
        return None, hrep
    pts = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    return VRep(pts), hrep


def cross_polytope(n: int):
    """V- and H-representations of the n-dimensional cross-polytope.

    The V-side has 2n vertices; the H-side has 2^n half-spaces (one per sign
    vector, normals unit length with offsets 1/sqrt(n)) and is omitted for
    n > 20.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    vrep = VRep(np.vstack([np.eye(n), -np.eye(n)]))
    if n > 20:
        return vrep, None
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    normals = signs / math.sqrt(n)
    offsets = np.full(signs.shape[0], 1.0 / math.sqrt(n))
    return vrep, HRep(normals, offsets)


def random_point_set(m: int, n: int, seed: int) -> VRep:
    """m points drawn i.i.d. uniform on [-1, 1]^n from a seeded 64-bit PRNG.

    Points that duplicate an earlier one (within the distinctness tolerance)
    are redrawn, so the result always satisfies the VRep invariants.
    """
    if m < n + 1:
        raise ValueError("need at least n+1 points")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (m, n))
    for _ in range(64):
        dups = _duplicate_rows(pts)
        if dups.size == 0:
            break
        pts[dups] = rng.uniform(-1.0, 1.0, (dups.size, n))
    return VRep(pts)


def _deadline_check(t0, deadline, candidates):
    if deadline is not None and time.perf_counter() > deadline:
        raise ConversionTimeout(time.perf_counter() - t0, candidates)


def _fit_planes(points, pts, tol):
    """Fit one outward hyperplane to each stack of k >= n points in ``pts`` (B, k, n).

    A fit is kept iff its points lie on one hyperplane (smallest singular
    value below ``GEOM_EPS``), span it (second smallest above), and every
    row of ``points`` lies on its inner side within ``tol``. Returns the unit
    normals, offsets, keep mask and the (m, B) mask of points on each plane.
    """
    ctr = pts.mean(axis=1)
    _, sing, vt = np.linalg.svd(pts - ctr[:, None, :])
    normals = vt[:, -1, :]
    offsets = np.einsum("bi,bi->b", normals, ctr)
    side = points @ normals.T - offsets
    flip = side.mean(axis=0) > 0.0  # orient the centroid of ``points`` inward
    normals[flip] *= -1.0
    offsets[flip] *= -1.0
    side[:, flip] *= -1.0
    eps = GEOM_EPS * np.maximum(1.0, sing[:, 0])
    keep = (sing[:, -1] <= eps) & (sing[:, -2] > eps) & (side.max(axis=0) <= tol)
    return normals, offsets, keep, np.abs(side) <= tol


def _facets_from_simplices(points, simplices, tol, t0, deadline, counts):
    """Fit every walked simplex once on the original coordinates; merge the fits.

    A kept fit whose on-set (the points on its plane within ``tol``) is the
    simplex itself is a facet. Each distinct larger on-set, the coplanar
    pieces of one facet of a degenerate hull, is refit once on all its
    points. Planes are then sorted by rounded (normal, offset), and each one
    that repeats the last kept one within ``DEDUP_EPS`` is dropped. Returns
    the (F, n + 1) array of unit normals and offsets.
    """
    n = points.shape[1]
    normals, offsets, onsets = [], [], []
    for lo in range(0, len(simplices), _CHUNK):
        idx = simplices[lo:lo + _CHUNK]
        counts["candidates"] += len(idx)
        _deadline_check(t0, deadline, counts["candidates"])
        nrm, off, keep, on = _fit_planes(points, points[idx], tol)
        whole = keep & (on.sum(axis=0) == n)
        normals.append(nrm[whole])
        offsets.append(off[whole])
        onsets += [frozenset(np.flatnonzero(on[:, b]).tolist())
                   for b in np.flatnonzero(keep & ~whole)]
    distinct = sorted(set(onsets), key=sorted)
    for onset in distinct:
        nrm, off, keep, _ = _fit_planes(points, points[sorted(onset)][None], tol)
        normals.append(nrm[keep])
        offsets.append(off[keep])

    planes = np.column_stack([np.concatenate(normals), np.concatenate(offsets)])
    order = np.lexsort(planes.round(10).T[::-1])  # first normal column is the primary key
    kept = []
    for i in order.tolist():
        if kept and np.max(np.abs(planes[kept[-1]] - planes[i])) <= DEDUP_EPS:
            continue
        kept.append(i)
    counts["simplices_refit"] = len(simplices)
    # Dropped: fits neither whole nor in an on-set, then on-sets whose refit fails.
    counts["slivers_dropped"] = len(simplices) - len(onsets) + len(distinct) - len(planes)
    counts["facets_merged"] = len(onsets) - len(distinct) + len(planes) - len(kept)
    return planes[kept]


def _pivot_ridges(pp, ridges, opp, a_old, scale):
    """Rotate each supporting hyperplane across its ridge, away from its vertex.

    ``ridges`` is a (B, n-1) index array, ``opp`` the (B,) vertices opposite
    them and ``a_old`` the (B, n) outward normals of the facets they come
    from. Returns the index of the point each rotation first touches and
    the new outward normals.
    """
    rows = np.arange(len(ridges))
    s0 = pp[ridges[:, 0]]
    q, _ = np.linalg.qr(np.swapaxes(pp[ridges[:, 1:]] - s0[:, None, :], 1, 2))
    g = pp[opp] - s0
    g -= np.einsum("bij,bj->bi", q, np.einsum("bij,bi->bj", q, g))
    g -= np.einsum("bi,bi->b", g, a_old)[:, None] * a_old
    g /= np.linalg.norm(g, axis=1, keepdims=True)

    ca = np.minimum(a_old @ pp.T - np.einsum("bi,bi->b", a_old, s0)[:, None], 0.0)
    cg = g @ pp.T - np.einsum("bi,bi->b", g, s0)[:, None]
    theta = np.arctan2(-ca, cg)
    theta[rows[:, None], ridges] = -1.0
    theta[rows, opp] = -1.0
    theta[np.hypot(ca, cg) < 1e-13 * scale] = -1.0

    j = np.argmax(theta, axis=1)
    caj, cgj = ca[rows, j][:, None], cg[rows, j][:, None]
    a_new = (caj * g - cgj * a_old) / np.hypot(caj, cgj)
    return j, a_new / np.linalg.norm(a_new, axis=1, keepdims=True)


def _initial_facet(pp):
    """The facet of ``conv(pp)`` that the ray from the origin along e0 leaves through.

    ``pp`` is centred, so the origin lies inside the hull and
    ``min sum(y) s.t. pp^T y = e0, y >= 0`` is feasible and bounded. Its
    optimal basis is n points of that facet, and its dual
    ``a = solve(pp[basis], 1)`` satisfies ``a . p <= 1`` for every point,
    with equality on the basis.
    """
    m, n = pp.shape
    outcome = lp_solve(LpProblem(np.ones(m), pp.T, np.eye(n)[0]))
    basis = list(outcome.basis)
    a = np.linalg.solve(pp[basis], np.ones(n))
    return tuple(sorted(basis)), a / np.linalg.norm(a)


def _ridge_walk(points, t0, deadline, counts):
    """Simplicial facets of the deterministically perturbed points, as an
    (S, n) index array, walked in waves of up to ``_CHUNK`` ridges."""
    scale = max(1.0, float(np.max(np.abs(points))))
    rng = np.random.default_rng(987654321)
    pp = points + rng.uniform(-1.0, 1.0, points.shape) * (1e-9 * scale)

    counts["candidates"] += 1
    first, a0 = _initial_facet(pp)
    facets = {first: a0}
    queued = set()
    queue = deque()

    def push(fkey):
        for pos, vertex in enumerate(fkey):
            ridge = fkey[:pos] + fkey[pos + 1:]
            if ridge not in queued:
                queued.add(ridge)
                queue.append((ridge, vertex, fkey))

    push(first)
    while queue:
        wave = [queue.popleft() for _ in range(min(_CHUNK, len(queue)))]
        counts["candidates"] += len(wave)
        _deadline_check(t0, deadline, counts["candidates"])
        ridges, opp, owners = zip(*wave)
        js, a_new = _pivot_ridges(pp, np.array(ridges, dtype=np.intp), np.array(opp),
                                  np.array([facets[f] for f in owners]), scale)
        for ridge, j, a in zip(ridges, js.tolist(), a_new):
            fkey = tuple(sorted(ridge + (j,)))
            if fkey not in facets:
                facets[fkey] = a
                push(fkey)
    counts["ridges_walked"] = len(queued)
    return np.array(list(facets), dtype=np.intp)


def _onplane_tol(centred) -> float:
    """On-plane distance: ``GEOM_EPS`` times the extent of points centred on their centroid."""
    return GEOM_EPS * max(1.0, float(np.max(np.abs(centred))))


def vrep_to_hrep(vrep: VRep, deadline_s: float | None = None) -> ConversionReport:
    """Enumerate the facets of ``conv(points)`` as an H-representation.

    For n >= 2 the facets come from the wave-batched ridge walk described
    in the module docstring, and every simplex it finds is fit once on the
    unperturbed points, so no normal or offset depends on the perturbation.
    Both run on the points minus their centroid, so the perturbation and
    the on-plane tolerance scale with the hull's extent, not with its
    distance from the origin; for n == 1 they are the two extreme values.
    ``candidates_examined`` counts one for the LP that finds the initial
    facet, one per ridge pivoted and one per simplex fit (m when n == 1);
    the other counters of :class:`ConversionReport` split that work up.
    Raises :class:`DegenerateError` if the hull is not full-dimensional and
    :class:`ConversionTimeout` if ``deadline_s`` expires, which is checked
    once per wave of ridges and once per batch of fits.
    """
    points = vrep.points
    m, n = points.shape
    t0 = time.perf_counter()
    deadline = t0 + deadline_s if deadline_s is not None else None
    if affine_rank(points) < n:
        raise DegenerateError("hull is not full-dimensional")

    counts = dict.fromkeys(("candidates", "ridges_walked", "simplices_refit",
                            "slivers_dropped", "facets_merged"), 0)
    if n == 1:
        vals = points[:, 0]
        counts.update(candidates=m, simplices_refit=2)
        planes = np.array([[1.0, vals.max()], [-1.0, -vals.min()]])
    else:
        # Walk and fit on centred points, so that the perturbation and tol
        # follow the hull's extent, not its distance from the origin.
        centroid = points.mean(axis=0)
        centred = points - centroid
        tol = _onplane_tol(centred)
        simplices = _ridge_walk(centred, t0, deadline, counts)
        planes = _facets_from_simplices(centred, simplices, tol, t0, deadline, counts)
        planes[:, -1] += planes[:, :-1] @ centroid

    hrep = HRep(planes[:, :-1], planes[:, -1])
    return ConversionReport(hrep, len(planes), time.perf_counter() - t0,
                            counts.pop("candidates"), **counts)


def _read_json(path) -> dict:
    """The JSON object in ``path``: :class:`ParseError` if the file is not
    JSON, :class:`SchemaError` if the document is not an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def _write_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def save_vrep(vrep: VRep, path) -> None:
    _write_json(vrep.to_dict(), path)


def load_vrep(path) -> VRep:
    return VRep.from_dict(_read_json(path))


def save_hrep(hrep: HRep, path) -> None:
    _write_json(hrep.to_dict(), path)


def load_hrep(path) -> HRep:
    return HRep.from_dict(_read_json(path))
