"""LP-based hull queries: membership, extreme-point tests, vertex pruning.

Membership of a query point in ``conv(V)`` is decided by the feasibility of

    sum_i alpha_i v_i = query,  sum_i alpha_i = 1,  alpha >= 0

with a zero cost vector, so one phase-1 solve settles the question. An
infeasible system yields a Farkas vector whose first n components give a
separating hyperplane; the certificate is re-offset against the point set so
it can be checked independently.

A certificate check runs in front of every LP, which runs only when no
certificate already settles the answer. Every shortcut answer carries a
certificate checked against the original points: inside weights that are
nonnegative and reconstruct the query within the LP's own acceptance band
``tau`` (see ``_tau``), or a separator that the query exceeds by more than
``tau``. So for every query farther than ``tau`` from the boundary a
shortcut gives the LP's answer:

* ``contains`` keeps, per hull, the last inside basis (n + 1 point indices,
  their bounding box and, once a query falls in that box, the inverse of
  their columns) and a bounded list of recent outside separators.
  ``B^-1 [q; 1] >= 0`` makes the query inside with those weights; a stored
  separator that ``q`` exceeds by more than ``tau`` makes it outside. This
  module holds the cache weakly, keyed by the ``VRep`` object itself, so it
  goes away with the hull, and a hull rebuilt from the same points starts
  with an empty cache.
* ``extreme_points`` certifies point k extreme with no LP when the linear
  function ``c_k = v_k - mean(V)`` puts it above every other point by more
  than ``tau * |c_k|`` (Dula & Helgason 1996); only the rest take an LP.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import Hyperplane, as_vector
from .lp import _FEAS_EPS, INFEASIBLE, OPTIMAL, LpProblem, lp_solve
from .polytope import VRep

# Outside separators that ``contains`` keeps per hull, newest first.
_SEPARATORS = 8
# Entries of C C^T that ``extreme_mask`` forms per block of points.
_BLOCK = 1 << 22


@dataclass(frozen=True, eq=False)
class Weights:
    """A point on the standard simplex: alpha >= 0, sum(alpha) = 1."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = as_vector(self.alpha)
        if alpha.shape[0] < 1:
            raise ValueError("weights need at least one coordinate")
        if np.min(alpha) < -1e-9:
            raise ValueError("weights must be nonnegative within 1e-9")
        if abs(alpha.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 within 1e-9")
        alpha = alpha.copy()
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """A membership answer and its certificate.

    ``source`` names what settled it: ``"lp"`` (a solve), ``"basis"`` (the
    hull's cached inside basis) or ``"separator"`` (a cached separator).
    """

    inside: bool
    weights: Weights | None = None
    separator: Hyperplane | None = None
    source: str = "lp"


def membership_problem(points, query, cost=None) -> LpProblem:
    """The LP ``min cost . y`` s.t. ``[P^T; 1] y = [query; 1]``, ``y >= 0``.

    ``points`` holds one point per row. With no cost this is the
    feasibility LP whose solvability decides ``query in conv(points)``.
    """
    m, dim = points.shape
    eq = np.vstack([points.T, np.ones((1, m))])
    rhs = np.concatenate([as_vector(query, dim), [1.0]])
    return LpProblem(np.zeros(m) if cost is None else cost, eq, rhs)


def _tau(dim, scale) -> float:
    """Distance from the hull beyond which the membership LP answers outside.

    ``scale`` is the largest absolute coordinate of the points and the
    query. The LP accepts a phase-1 residual of ``_FEAS_EPS`` on rows
    equilibrated by their largest entry, so an accepted combination lies
    within dim * scale * ``_FEAS_EPS`` of the query; one more row of margin
    gives tau.
    """
    return (dim + 1) * _FEAS_EPS * scale


class _Certificates:
    """What ``contains`` remembers about one hull between queries. Each
    certificate is replaced by one assignment, so a reader never sees half
    of an update."""

    def __init__(self, points):
        self.scale = float(np.max(np.abs(points)))
        # n + 1 point indices, their bounding box, and the inverse of their
        # columns of [P^T; 1], which is formed on the first query in the box.
        self.basis = None
        self.separators = (np.empty((0, points.shape[1])), np.empty(0))  # newest first

    def tau(self, q):
        return _tau(q.shape[0], max(self.scale, float(np.abs(q).max())))

    def inside(self, points, q):
        """Weights of ``q`` on the cached basis, if they are all >= 0 and
        reconstruct ``q`` from the original points within distance tau."""
        if self.basis is None:
            return None
        idx, lo, hi, inverse = self.basis
        if (q < lo).any() or (q > hi).any():  # outside the simplex's box
            return None
        if inverse is None:
            cols = np.ones((len(idx), len(idx)))
            cols[:-1] = points[idx].T
            inverse = np.linalg.inv(cols)
            self.basis = idx, lo, hi, inverse
        beta = inverse[:, :-1] @ q
        beta += inverse[:, -1]
        if beta.min() < 0.0:
            return None
        beta /= beta.sum()
        if np.linalg.norm(beta @ points[idx] - q) > self.tau(q):
            return None
        alpha = np.zeros(points.shape[0])
        alpha[idx] = beta
        return Weights(alpha)

    def outside(self, q):
        """The stored separator that ``q`` exceeds most, if by more than tau."""
        normals, offsets = self.separators
        if not offsets.size:
            return None
        margin = normals @ q
        margin -= offsets
        k = int(margin.argmax())
        # tau > 0, so most misses are settled before tau is computed.
        if margin[k] <= 0.0 or margin[k] <= self.tau(q):
            return None
        return Hyperplane(normals[k], offsets[k])

    def keep_basis(self, points, basis):
        if len(basis) == points.shape[1] + 1:
            idx = np.array(basis)
            vertices = points[idx]
            self.basis = idx, vertices.min(axis=0), vertices.max(axis=0), None

    def keep_separator(self, sep):
        normals, offsets = self.separators
        self.separators = (np.concatenate((sep.normal[None], normals[:_SEPARATORS - 1])),
                           np.concatenate(([sep.offset], offsets[:_SEPARATORS - 1])))


# Each hull's certificates, made on its first query and dropped with the hull.
_CACHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _certificates(v: VRep) -> _Certificates:
    cache = _CACHES.get(v)
    if cache is None:
        cache = _CACHES[v] = _Certificates(v.points)
    return cache


def contains(v: VRep, query) -> MembershipResult:
    """Decide membership of ``query`` in ``conv(V)``.

    Inside answers carry convex-combination weights; outside answers carry a
    separating hyperplane. A certificate from an earlier query on the same
    hull answers without an LP when it settles the query (the last inside
    basis still gives nonnegative weights, or a stored separator holds by
    more than the LP's band tau); otherwise one LP runs and its basis or
    separator is remembered. So the inside/outside answer does not depend on
    earlier queries for a query farther than tau from the boundary, but the
    weights or the separator returned may. The certificates belong to this
    ``v`` object: ``VRep(v.points)`` starts without them.
    """
    q = as_vector(query, v.dim)
    cache = _certificates(v)
    weights = cache.inside(v.points, q)
    if weights is not None:
        return MembershipResult(True, weights=weights, source="basis")
    sep = cache.outside(q)
    if sep is not None:
        return MembershipResult(False, separator=sep, source="separator")

    outcome = lp_solve(membership_problem(v.points, q))
    if outcome.status == OPTIMAL:
        alpha = np.maximum(outcome.solution, 0.0)
        alpha /= alpha.sum()
        cache.keep_basis(v.points, outcome.basis)
        return MembershipResult(True, weights=Weights(alpha))
    if outcome.status != INFEASIBLE:
        raise ArithmeticError("membership LP cannot be unbounded")

    u = outcome.farkas[:v.dim]
    norm = np.linalg.norm(u)
    if norm <= 1e-15:
        raise ArithmeticError("degenerate Farkas certificate")
    normal = -u / norm
    sep = Hyperplane(normal, float(np.max(v.points @ normal)))
    cache.keep_separator(sep)
    return MembershipResult(False, separator=sep)


def is_extreme(v: VRep, k: int) -> bool:
    """True iff ``v_k`` is not a convex combination of the other points."""
    if not 0 <= k < v.n_points:
        raise IndexError(f"point index {k} out of range")
    if v.n_points == 1:
        return True
    others = np.delete(v.points, k, axis=0)
    return lp_solve(membership_problem(others, v.points[k])).status == INFEASIBLE


def extreme_mask(v: VRep) -> tuple[np.ndarray, int]:
    """Which points of ``v`` are extreme, and how many of them a separator
    certified without an LP.

    With ``C`` the points minus their centroid, point k sits above point j
    along ``c_k`` by ``(C C^T)[k, k] - (C C^T)[j, k]``. Point k is extreme
    if that gap exceeds ``tau * |c_k|`` for every j != k, which puts it
    farther than the LP's band from the other points' hull; every other
    point goes through :func:`is_extreme`. So the mask equals the one that
    LP alone gives.
    """
    m = v.n_points
    c = v.points - v.points.mean(axis=0)
    bar = _tau(v.dim, float(np.max(np.abs(v.points)))) * np.linalg.norm(c, axis=1)
    gap = np.empty(m)
    step = max(1, _BLOCK // m)
    for lo in range(0, m, step):
        cols = np.arange(lo, min(m, lo + step))
        s = c @ c[cols].T
        own = s[cols, cols - lo].copy()
        s[cols, cols - lo] = -np.inf
        gap[cols] = own - s.max(axis=0)
    certified = gap > bar
    mask = certified.copy()
    for k in np.flatnonzero(~certified):
        mask[k] = is_extreme(v, int(k))
    return mask, int(certified.sum())


def extreme_points(v: VRep) -> VRep:
    """The sub-VRep of extreme points, in their original order.

    By the Krein-Milman property the hull is unchanged. Points a separator
    certifies take no LP (see :func:`extreme_mask`).
    """
    if v.n_points == 1:
        return v
    kept = np.flatnonzero(extreme_mask(v)[0])
    if kept.size == 0:
        raise ArithmeticError("no extreme points found; numerical invariant violated")
    return VRep(v.points[kept])
