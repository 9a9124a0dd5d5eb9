"""Vertex (V-) and half-space (H-) representations of point-set hulls.

Includes reference generators (unit cube, cross-polytope), seeded random
point sets, and facet enumeration for the V-to-H conversion.

Facets are enumerated by gift-wrapping (Chand & Kapur 1970): starting from
one supporting facet, the walk rotates the supporting hyperplane across each
ridge to the neighbouring facet, so its cost follows the number of facets
found rather than the C(m, n) subsets of the input. The walk runs on a
deterministically perturbed copy of the points, which puts them in general
position so that every facet it meets is a simplex. Each simplex is then
refit on the original coordinates, and facets are identified by the set of
input points on them, which merges coplanar simplices back into true facets.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConversionTimeout, DegenerateError
from .linalg import GEOM_EPS, affine_rank, as_matrix, as_vector

# Points closer than this in max-norm count as duplicates.
DISTINCT_EPS = 1e-12
# Facets whose (normal, offset) agree within this are merged.
DEDUP_EPS = 1e-7

# Simplices refit per batched SVD.
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


@dataclass(frozen=True)
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
        pts = as_matrix(np.atleast_2d(np.asarray(data["points"], dtype=float)),
                        cols=int(data["dim"]))
        return cls(pts)


@dataclass(frozen=True)
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

    def contains(self, x, tol: float = GEOM_EPS) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(self.normals @ x <= self.offsets + tol))

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "halfspaces": [{"normal": n.tolist(), "offset": float(o)}
                               for n, o in zip(self.normals, self.offsets)]}

    @classmethod
    def from_dict(cls, data: dict) -> "HRep":
        dim = int(data["dim"])
        normals = np.array([h["normal"] for h in data["halfspaces"]], dtype=float)
        offsets = np.array([h["offset"] for h in data["halfspaces"]], dtype=float)
        return cls(as_matrix(normals, cols=dim), offsets)


@dataclass(frozen=True)
class ConversionReport:
    """Outcome of a V-to-H conversion with its cost counters."""

    hrep: HRep
    facet_count: int
    elapsed: float
    candidates_examined: int

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


def _supporting_onsets(points, subsets, tol, t0, deadline, counter):
    """Collect facet identities from the n-subsets of ``points`` in ``subsets``.

    ``subsets`` is an (S, n) index array. Each subset is fit with a hyperplane
    (batched); a candidate survives iff all points lie on one side within
    ``tol``. The facet identity is the frozen set of point indices on the
    fitted hyperplane, which makes the dedup step exact.
    """
    onsets = set()
    for lo in range(0, len(subsets), _CHUNK):
        idx = subsets[lo:lo + _CHUNK]
        counter[0] += len(idx)
        _deadline_check(t0, deadline, counter[0])

        pts = points[idx]                      # (B, n, n)
        diffs = pts[:, 1:, :] - pts[:, :1, :]  # (B, n-1, n)
        _, sing, vt = np.linalg.svd(diffs)
        normals = vt[:, -1, :]                 # (B, n)
        nondegen = sing[:, -1] > GEOM_EPS * np.maximum(1.0, sing[:, 0])

        side = points @ normals.T - np.einsum("bi,bi->b", normals, pts[:, 0, :])
        mx = side.max(axis=0)
        mn = side.min(axis=0)
        keep = nondegen & ((mx <= tol) | (mn >= -tol))
        for b in np.flatnonzero(keep):
            onsets.add(frozenset(np.flatnonzero(np.abs(side[:, b]) <= tol).tolist()))
    return onsets


def _facets_from_onsets(points, onsets, tol):
    """Refit one oriented hyperplane per facet identity; drop non-supporting fits."""
    interior = points.mean(axis=0)
    planes = []
    for onset in sorted(onsets, key=sorted):
        idx = np.fromiter(sorted(onset), dtype=np.intp)
        pts = points[idx]
        ctr = pts.mean(axis=0)
        _, sing, vt = np.linalg.svd(pts - ctr)
        if sing[-1] > GEOM_EPS * max(1.0, sing[0]):
            continue  # on-set does not actually lie on one hyperplane
        normal = vt[-1]
        offset = float(normal @ ctr)
        if normal @ interior > offset:
            normal, offset = -normal, -offset
        side = points @ normal - offset
        if side.max() > tol:
            continue  # perturbation sliver, not a supporting hyperplane
        planes.append((normal / np.linalg.norm(normal), offset))

    planes.sort(key=lambda p: (tuple(np.round(p[0], 10)), round(p[1], 10)))
    merged = []
    for normal, offset in planes:
        if merged:
            pn, po = merged[-1]
            if np.max(np.abs(pn - normal)) <= DEDUP_EPS and abs(po - offset) <= DEDUP_EPS:
                continue
        merged.append((normal, offset))
    return merged


def _pivot_ridge(pp, ridge, opp, a_old, scale):
    """Rotate the supporting hyperplane across ``ridge`` away from vertex ``opp``.

    Returns the index of the point first touched and the new outward normal.
    """
    s0 = pp[ridge[0]]
    if len(ridge) > 1:
        q, _ = np.linalg.qr((pp[list(ridge[1:])] - s0).T)
    else:
        q = None
    g = pp[opp] - s0
    if q is not None:
        g = g - q @ (q.T @ g)
    g = g - (g @ a_old) * a_old
    g = g / np.linalg.norm(g)

    w = pp - s0
    ca = np.minimum(w @ a_old, 0.0)
    cg = w @ g
    theta = np.arctan2(-ca, cg)
    theta[list(ridge)] = -1.0
    theta[opp] = -1.0
    theta[np.hypot(ca, cg) < 1e-13 * scale] = -1.0

    j = int(np.argmax(theta))
    r = math.hypot(ca[j], cg[j])
    a_new = (ca[j] * g - cg[j] * a_old) / r
    return j, a_new / np.linalg.norm(a_new)


def _initial_facet(pp, scale, t0, deadline, counter):
    """Grow a first supporting facet by repeated minimal-angle rotations."""
    m, n = pp.shape
    a = np.zeros(n)
    a[0] = 1.0
    chosen = [int(np.argmax(pp[:, 0]))]
    while len(chosen) < n:
        counter[0] += 1
        _deadline_check(t0, deadline, counter[0])
        s0 = pp[chosen[0]]
        if len(chosen) > 1:
            q, _ = np.linalg.qr((pp[chosen[1:]] - s0).T)
            a = a - q @ (q.T @ a)
            a = a / np.linalg.norm(a)
            w = pp - s0
            wp = w - (w @ q) @ q.T
        else:
            q = None
            wp = pp - s0
        d = np.minimum(wp @ a, 0.0)
        resid = wp - np.outer(wp @ a, a)
        rho = np.linalg.norm(resid, axis=1)
        theta = np.arctan2(-d, rho)
        theta[chosen] = np.inf
        theta[np.hypot(d, rho) < 1e-13 * scale] = np.inf

        j = int(np.argmin(theta))
        dj, rj = d[j], rho[j]
        if rj < 1e-13 * scale:
            raise DegenerateError("cannot grow an initial facet; points look degenerate")
        u = resid[j] / rj
        a = (rj * a - dj * u) / math.hypot(dj, rj)
        a = a / np.linalg.norm(a)
        chosen.append(j)
    return tuple(sorted(chosen)), a


def _ridge_walk_onsets(points, tol, t0, deadline, counter):
    """Facet identities via the ridge walk on deterministically perturbed points."""
    scale = max(1.0, float(np.max(np.abs(points))))
    rng = np.random.default_rng(987654321)
    pp = points + rng.uniform(-1.0, 1.0, points.shape) * (1e-9 * scale)

    first, a0 = _initial_facet(pp, scale, t0, deadline, counter)
    facets = {first: a0}
    done = set()
    queue = deque()

    def push(fkey):
        for pos, vertex in enumerate(fkey):
            ridge = fkey[:pos] + fkey[pos + 1:]
            if ridge not in done:
                queue.append((ridge, vertex, fkey))

    push(first)
    ticks = 0
    while queue:
        ridge, opp, owner = queue.popleft()
        if ridge in done:
            continue
        done.add(ridge)
        ticks += 1
        if ticks % 64 == 0:
            _deadline_check(t0, deadline, counter[0])
        counter[0] += 1
        j, a_new = _pivot_ridge(pp, ridge, opp, facets[owner], scale)
        fkey = tuple(sorted(ridge + (j,)))
        if fkey not in facets:
            facets[fkey] = a_new
            push(fkey)

    # Refit every simplicial facet on the unperturbed coordinates; the shared
    # on-set dedup collapses coplanar pieces back into true facets.
    return _supporting_onsets(points, np.array(list(facets), dtype=np.intp),
                              tol, t0, deadline, counter)


def vrep_to_hrep(vrep: VRep, deadline_s: float | None = None) -> ConversionReport:
    """Enumerate the facets of ``conv(points)`` as an H-representation.

    For n >= 2 the facets come from the ridge walk described in the module
    docstring; for n == 1 they are the two extreme values. Every facet is
    fit on the original coordinates, so its normal and offset do not
    depend on the perturbation. ``candidates_examined`` counts the walk's
    steps: one per step that grows the initial facet, one per ridge
    pivoted, and one per simplicial facet refit on the original points
    (m when n == 1). Raises
    :class:`DegenerateError` if the hull is not full-dimensional and
    :class:`ConversionTimeout` if ``deadline_s`` expires.
    """
    points = vrep.points
    m, n = points.shape
    t0 = time.perf_counter()
    deadline = t0 + deadline_s if deadline_s is not None else None
    if affine_rank(points) < n:
        raise DegenerateError("hull is not full-dimensional")

    scale = max(1.0, float(np.max(np.abs(points))))
    tol = GEOM_EPS * scale
    counter = [0]

    if n == 1:
        vals = points[:, 0]
        counter[0] = m
        onsets = {
            frozenset(np.flatnonzero(vals >= vals.max() - tol).tolist()),
            frozenset(np.flatnonzero(vals <= vals.min() + tol).tolist()),
        }
    else:
        onsets = _ridge_walk_onsets(points, tol, t0, deadline, counter)

    planes = _facets_from_onsets(points, onsets, tol)
    hrep = HRep(np.array([p[0] for p in planes]), np.array([p[1] for p in planes]))
    return ConversionReport(hrep, len(planes), time.perf_counter() - t0, counter[0])


def save_vrep(vrep: VRep, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vrep.to_dict(), fh)


def load_vrep(path) -> VRep:
    with open(path, encoding="utf-8") as fh:
        return VRep.from_dict(json.load(fh))


def save_hrep(hrep: HRep, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hrep.to_dict(), fh)


def load_hrep(path) -> HRep:
    with open(path, encoding="utf-8") as fh:
        return HRep.from_dict(json.load(fh))
