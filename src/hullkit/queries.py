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
shortcut gives the LP's answer. ``contains`` tries, in order:

* the hull's last inside basis (n + 1 point indices and the inverse of their
  columns of ``[P^T; 1]``): ``B^-1 [q; 1] >= 0`` makes the query inside with
  those weights;
* Gilbert steps (Gilbert 1966; Kalantari's triangle algorithm, 2015,
  adapts them to hull membership), from the hull's centroid;
* the LP.

This module holds the basis and the centroid weakly, keyed by the ``VRep``
object itself, so they go away with the hull, and a hull rebuilt from the
same points starts with an empty cache.

A Gilbert step holds a point x of the hull and d = q - x. With
``j = argmax_i d . p_i``, the query is outside by more than ``tau`` when
``gap = d . q - d . p_j > tau * |d|``, with the separator normal
``d / |d|``. Otherwise x moves toward ``p_j`` by an exact line search.
``contains`` stops the steps after ``_STEPS`` steps, when the hull reaches
past q along d by at least |d| (``gap < -|d|^2``), or when |d| <= tau, where
no step can certify since gap <= |d|^2. ``extreme_points`` runs the steps for
every point at once against the other points, from their centroid, so point
k's first direction is ``m / (m - 1) * (v_k - mean(V))``, the linear function
of Dula & Helgason (1996). Pruning drops the middle stop: in ``contains``
it cuts short steps that would not certify a band query anyway, but many
points just outside the hull of the others pass it and still certify a few
steps later, and each point certified saves an LP. Only the points that no
step certifies take an LP, all of a hull's in one stacked phase 1
(``lp.phase1_stack``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import Hyperplane, as_vector
from .lp import _FEAS_EPS, INFEASIBLE, OPTIMAL, LpProblem, lp_solve, phase1_stack
from .polytope import VRep

# Entries of the (K, m) product that ``extreme_mask`` forms per step, and of
# the (K, rows, cols) tableau of each stack of its LPs.
_BLOCK = 1 << 22
# Gilbert steps per target before the LP decides.
_STEPS = 20


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
    hull's cached inside basis) or ``"steps"`` (Gilbert steps from the
    hull's centroid, outside only).
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


def _verdict(gap, dd, tau):
    """Gilbert's test at an iterate with ``d = q - x``, ``dd = d . d`` and
    ``gap = d . q - max_i d . p_i``, on scalars or arrays: (certified outside
    by more than tau, |d| <= tau, the hull reaches past q by at least |d|)."""
    norm = dd ** 0.5
    return gap > tau * norm, norm <= tau, gap < -dd


def _steps(points, x, q, tau):
    """Gilbert steps from ``x`` in the hull of ``points`` toward ``q``: the
    unit normal of a plane that ``q`` exceeds by more than ``tau``, or None.

    Far beyond the points' scale d . d overflows; no step then certifies,
    and the caller's LP decides.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_STEPS):
            d = q - x
            s = points.dot(d)
            j = s.argmax()
            dd = d.dot(d)
            certified, close, passed = _verdict(d.dot(q) - s[j], dd, tau)
            if certified:
                return d / dd ** 0.5
            if close or passed:
                return None
            e = points[j] - x
            x = x + min(1.0, d.dot(e) / e.dot(e)) * e
    return None


def _extreme_steps(points, tau) -> np.ndarray:
    """Which points Gilbert steps put farther than ``tau`` from the hull of
    the other points: each starts from the other points' centroid, and all
    step together, a block of K points at a time with one (K, m) product per
    step, in which each point's own column is masked. A point stops when it
    is certified or |d| <= tau, or after ``_STEPS`` steps."""
    m = points.shape[0]
    certified = np.zeros(m, dtype=bool)
    others = (points.sum(axis=0) - points) / (m - 1)
    block = max(1, _BLOCK // m)
    for lo in range(0, m, block):
        cols = np.arange(lo, min(m, lo + block))
        x = others[cols]
        for _ in range(_STEPS):
            q = points[cols]
            d = q - x
            s = d @ points.T
            rows = np.arange(len(cols))
            s[rows, cols] = -np.inf
            j = s.argmax(axis=1)
            dd = np.einsum("ij,ij->i", d, d)
            hit, close, _ = _verdict(np.einsum("ij,ij->i", d, q) - s[rows, j], dd, tau)
            certified[cols[hit]] = True
            go = ~(hit | close)
            if not go.any():
                break
            cols, x, d, j = cols[go], x[go], d[go], j[go]
            e = points[j] - x
            t = np.minimum(1.0, np.einsum("ij,ij->i", d, e) / np.einsum("ij,ij->i", e, e))
            x = x + t[:, None] * e
    return certified


class _Certificates:
    """What ``contains`` remembers about one hull between queries. The basis
    is replaced by one assignment, so a reader never sees half of an
    update."""

    def __init__(self, points):
        self.scale = float(np.max(np.abs(points)))
        self.centroid = points.mean(axis=0)
        # n + 1 point indices and the inverse of their columns of [P^T; 1].
        self.basis = None

    def tau(self, q):
        return _tau(q.shape[0], max(self.scale, float(np.abs(q).max())))

    def inside(self, points, q):
        """Weights of ``q`` on the cached basis, if they are all >= 0 and
        reconstruct ``q`` from the original points within distance tau."""
        if self.basis is None:
            return None
        idx, inverse = self.basis
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

    def separate(self, points, q):
        """A separator from Gilbert steps that ``q`` exceeds by more than tau,
        its offset taken from the points."""
        tau = self.tau(q)
        normal = _steps(points, self.centroid, q, tau)
        if normal is None:
            return None
        sep = Hyperplane(normal, float(np.max(points @ normal)))
        # The steps tested d unnormalized; the re-offset margin can differ by
        # an ulp, so the answer carries it only if it still clears tau.
        return sep if normal @ q - sep.offset > tau else None

    def keep_basis(self, points, basis):
        if len(basis) == points.shape[1] + 1:
            idx = np.array(basis)
            cols = np.ones((len(idx), len(idx)))
            cols[:-1] = points[idx].T
            self.basis = idx, np.linalg.inv(cols)


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
    separating hyperplane. The inside basis of the last LP on the same hull
    answers without an LP when it still gives nonnegative weights. Otherwise
    Gilbert steps from the hull's centroid look for a separator that holds
    by more than the LP's band tau, and failing that one LP runs; only an
    inside LP answer's basis is remembered. So the inside/outside answer does
    not depend on earlier queries for a query farther than tau from the
    boundary, but the weights returned may. The basis belongs to this ``v``
    object: ``VRep(v.points)`` starts without it.
    """
    q = as_vector(query, v.dim)
    cache = _certificates(v)
    weights = cache.inside(v.points, q)
    if weights is not None:
        return MembershipResult(True, weights=weights, source="basis")
    sep = cache.separate(v.points, q)
    if sep is not None:
        return MembershipResult(False, separator=sep, source="steps")

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
    return MembershipResult(False, separator=sep)


def _extreme_lps(points, ks) -> np.ndarray:
    """Which of the points ``ks`` are not convex combinations of the other
    points, by phase 1 of each one's membership LP.

    Point k's LP is ``[P^T; 1]`` with column k zeroed, which pivots as the
    LP on the other points alone does. The LPs run as stacks of at most
    ``_BLOCK`` tableau entries each.
    """
    m, n = points.shape
    eq = np.ones((n + 1, m))
    eq[:n] = points.T
    rhs = np.ones((len(ks), n + 1))
    rhs[:, :n] = points[ks]
    out = np.empty(len(ks), dtype=bool)
    block = max(1, _BLOCK // ((n + 1) * (m + n + 2)))
    for lo in range(0, len(ks), block):
        hi = lo + block
        out[lo:hi] = ~phase1_stack(eq, rhs[lo:hi], skip=ks[lo:hi]).feasible
    return out


def is_extreme(v: VRep, k: int) -> bool:
    """True iff ``v_k`` is not a convex combination of the other points."""
    if not 0 <= k < v.n_points:
        raise IndexError(f"point index {k} out of range")
    if v.n_points == 1:
        return True
    return bool(_extreme_lps(v.points, [k])[0])


def extreme_mask(v: VRep) -> tuple[np.ndarray, int]:
    """Which points of ``v`` are extreme, and how many of them Gilbert steps
    certified without an LP.

    Each point takes steps against the hull of the other points (see the
    module docstring); one that they put farther than the LP's band tau from
    that hull is extreme. Every other point takes the membership LP against
    the other points, all of them in one stacked phase 1 (in blocks of at
    most ``_BLOCK`` tableau entries). So the mask equals the one that
    :func:`is_extreme` alone gives, point by point.
    """
    if v.n_points == 1:
        return np.ones(1, dtype=bool), 1
    certified = _extreme_steps(v.points, _tau(v.dim, float(np.max(np.abs(v.points)))))
    mask = certified.copy()
    rest = np.flatnonzero(~certified)
    mask[rest] = _extreme_lps(v.points, rest)
    return mask, int(certified.sum())


def extreme_points(v: VRep) -> VRep:
    """The sub-VRep of extreme points, in their original order.

    By the Krein-Milman property the hull is unchanged. Points that Gilbert
    steps certify take no LP (see :func:`extreme_mask`).
    """
    if v.n_points == 1:
        return v
    kept = np.flatnonzero(extreme_mask(v)[0])
    if kept.size == 0:
        raise ArithmeticError("no extreme points found; numerical invariant violated")
    return VRep(v.points[kept])
