"""LP-based hull queries: membership, extreme-point tests, vertex pruning.

Membership of a query point in ``conv(V)`` is decided by the feasibility of

    sum_i alpha_i v_i = query,  sum_i alpha_i = 1,  alpha >= 0

with a zero cost vector, so one phase-1 solve settles the question. An
infeasible system yields a Farkas vector whose first n components give a
separating hyperplane; the certificate is re-offset against the point set so
it can be checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import Hyperplane, as_vector
from .lp import INFEASIBLE, OPTIMAL, LpProblem, lp_solve
from .polytope import VRep


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    weights: Weights | None = None
    separator: Hyperplane | None = None


def membership_problem(points, query, cost=None) -> LpProblem:
    """The LP ``min cost . y`` s.t. ``[P^T; 1] y = [query; 1]``, ``y >= 0``.

    ``points`` holds one point per row. With no cost this is the
    feasibility LP whose solvability decides ``query in conv(points)``;
    every LP hullkit solves has this shape.
    """
    m, dim = points.shape
    eq = np.vstack([points.T, np.ones((1, m))])
    rhs = np.concatenate([as_vector(query, dim), [1.0]])
    return LpProblem(np.zeros(m) if cost is None else cost, eq, rhs)


def contains(v: VRep, query) -> MembershipResult:
    """Decide membership of ``query`` in ``conv(V)`` by one LP solve.

    Inside answers carry the recovered convex-combination weights; outside
    answers carry a separating hyperplane derived from the Farkas
    certificate.
    """
    if np.asarray(query, dtype=float).shape != (v.dim,):
        raise DimensionError(f"query must have dimension {v.dim}")
    outcome = lp_solve(membership_problem(v.points, query))
    if outcome.status == OPTIMAL:
        alpha = np.maximum(outcome.solution, 0.0)
        alpha /= alpha.sum()
        return MembershipResult(True, weights=Weights(alpha))
    if outcome.status != INFEASIBLE:
        raise ArithmeticError("membership LP cannot be unbounded")

    u = outcome.farkas[:v.dim]
    norm = np.linalg.norm(u)
    if norm <= 1e-15:
        raise ArithmeticError("degenerate Farkas certificate")
    normal = -u / norm
    offset = float(np.max(v.points @ normal))
    return MembershipResult(False, separator=Hyperplane(normal, offset))


def is_extreme(v: VRep, k: int) -> bool:
    """True iff ``v_k`` is not a convex combination of the other points."""
    if not 0 <= k < v.n_points:
        raise IndexError(f"point index {k} out of range")
    if v.n_points == 1:
        return True
    others = np.delete(v.points, k, axis=0)
    return lp_solve(membership_problem(others, v.points[k])).status == INFEASIBLE


def extreme_points(v: VRep) -> VRep:
    """The sub-VRep of extreme points, in their original order.

    By the Krein-Milman property the hull is unchanged.
    """
    if v.n_points == 1:
        return v
    flags = [is_extreme(v, k) for k in range(v.n_points)]
    kept = np.flatnonzero(flags)
    if kept.size == 0:
        raise ArithmeticError("no extreme points found; numerical invariant violated")
    return VRep(v.points[kept])
