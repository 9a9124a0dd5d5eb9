"""Two-phase dense-tableau simplex for standard-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0``. Every LP in hullkit is built in
this form by its caller (membership and the Chebyshev dual by
``queries.membership_problem``, the ridge walk's first facet by
``polytope._initial_facet``), so no conversion from other forms is needed.
Both phases run on one tableau and share one pivot step; phase 2 keeps the
artificial columns out of the basis. Both price with Dantzig's rule (most
negative reduced cost enters), which needs several times fewer pivots than
Bland's rule on membership LPs. Dantzig's rule alone can cycle on a
degenerate vertex, so after a run of degenerate pivots the loop falls back
to Bland's smallest-index rule until the objective moves again; that keeps
every solve finite. The leaving row is always the minimum ratio with ties
broken by smallest basis index, so every solve is deterministic.
Infeasible problems come back with a Farkas certificate ``y`` satisfying
``y.A >= 0`` componentwise and ``y.b < 0``.

Two entry points share these rules, the constants below, the
equilibration and ``_pivot``'s arithmetic, element for element.
``lp_solve`` runs one LP through both phases: membership for ``contains``,
the ridge walk's first facet and the Chebyshev dual, each of which reads the
solution, the basis or the Farkas vector. ``phase1_stack`` runs phase 1
alone on a stack of K feasibility LPs that share one matrix, one numpy step
per pivot for every member still running: the pruning LPs of
``queries.extreme_mask`` and ``queries.is_extreme``, which need only the
verdict. A member's verdict and pivots equal those of ``lp_solve`` on the
same LP with zero cost. Single LPs keep the serial loop because a stack of
one costs more per pivot than it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Reduced-cost threshold for entering columns.
_RC_EPS = 1e-9
# Smallest usable ratio-test pivot.
_PIV_EPS = 1e-9
# Phase-1 optimum above this means infeasible.
_FEAS_EPS = 1e-8
# Minimum ratio at or below this makes a pivot degenerate.
_DEGEN_EPS = 1e-12
# Consecutive degenerate pivots after which Bland's rule takes over.
_DEGEN_RUN = 50


@dataclass(frozen=True, eq=False)
class LpProblem:
    """``min cost . x`` subject to ``eq_matrix x = eq_rhs`` and ``x >= 0``."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.eq_matrix)
        c = as_vector(self.cost, a.shape[1])
        b = as_vector(self.eq_rhs, a.shape[0])
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError("LP needs at least one row and one column")
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: str
    solution: np.ndarray | None = None
    objective: float | None = None
    farkas: np.ndarray | None = None
    iterations: int = 0
    pivots: tuple | None = None
    basis: tuple | None = None


@dataclass(frozen=True, eq=False)
class StackOutcome:
    """Phase-1 results of a stack of feasibility LPs, one entry per member:
    whether it is feasible, its pivot count and, on request, its pivots."""

    feasible: np.ndarray
    iterations: np.ndarray
    pivots: tuple | None = None


class _IterationCap(ArithmeticError):
    pass


def _pivot(tableau, obj_row, basis, row, col):
    """Gauss-Jordan step in place: column ``col`` enters the basis at ``row``."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    obj_row -= obj_row[col] * tableau[row]
    basis[row] = col


def _equilibrate(row_max, b):
    """Row factors: each row is divided by its largest absolute entry (the
    larger of ``row_max``, from A, and |b|; 1 if that is below 1e-12) and
    flipped where b is negative."""
    row_scale = np.maximum(row_max, np.abs(b))
    row_scale[row_scale < 1e-12] = 1.0
    return np.where(b / row_scale < 0.0, -1.0, 1.0) / row_scale


def _simplex(tableau, obj_row, basis, n_cols, phase, pivots, max_iterations, start_iter):
    """Run simplex pivots in place. Returns (status, iterations).

    ``obj_row`` holds reduced costs in columns ``0..n_cols-1`` and ``-z`` in
    its last cell. ``n_cols`` limits the entering-column scan (used in phase
    2 to keep artificial columns out of the basis).

    The entering column is the most negative reduced cost, lowest index on
    ties (Dantzig). After more than ``_DEGEN_RUN`` consecutive degenerate
    pivots the first negative reduced cost enters instead (Bland), until a
    nondegenerate pivot lowers the objective. Each nondegenerate pivot
    strictly lowers the objective, so no basis repeats across them, and
    Bland's rule cannot cycle within a degenerate stretch; the loop is
    therefore finite.
    """
    iters = start_iter
    degenerate_run = 0
    while True:
        reduced = obj_row[:n_cols]
        if degenerate_run > _DEGEN_RUN:
            entering = int(np.argmax(reduced < -_RC_EPS))  # first True: Bland's rule
        else:
            entering = int(np.argmin(reduced))  # first minimum: Dantzig's rule
        if reduced[entering] >= -_RC_EPS:
            return OPTIMAL, iters

        col = tableau[:, entering]
        rhs = tableau[:, -1]
        eligible = col > _PIV_EPS
        if not eligible.any():
            return UNBOUNDED, iters
        ratios = np.where(eligible, rhs / np.where(eligible, col, 1.0), np.inf)
        best = ratios.min()
        # Ties broken by smallest basis index: Bland's rule.
        tied = np.flatnonzero(ratios <= best + 1e-12)
        leaving = int(tied[np.argmin(np.asarray(basis)[tied])])
        degenerate_run = degenerate_run + 1 if best <= _DEGEN_EPS else 0

        _pivot(tableau, obj_row, basis, leaving, entering)

        # Clamp roundoff drift so the ratio test stays meaningful.
        rhs = tableau[:, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0

        if pivots is not None:
            pivots.append((phase, entering, leaving))
        iters += 1
        if iters >= max_iterations:
            raise _IterationCap(f"simplex exceeded {max_iterations} pivots")


def lp_solve(problem: LpProblem, track_pivots: bool = False,
             max_iterations: int | None = None) -> LpOutcome:
    """Two-phase primal simplex: Dantzig pricing, Bland's rule against cycling.

    Both phases enter the most negative reduced cost and switch to Bland's
    smallest-index rule only during long runs of degenerate pivots, where
    Dantzig's rule could cycle (see ``_simplex``). Phase 1 minimizes the
    artificial-variable sum; a phase-1 optimum above 1e-8 yields
    ``INFEASIBLE`` with the Farkas vector recovered from the final dual
    values. Phase 2 optimizes ``cost``; ``UNBOUNDED`` is reported when an
    entering column admits no ratio-test row. An optimal outcome carries the
    final basis (one column per row kept after dropping redundant rows), from
    which callers can recover dual values.
    """
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.cost
    m, n = a.shape
    if max_iterations is None:
        max_iterations = 1000 + 200 * (m + n)
    pivots = [] if track_pivots else None

    # Row equilibration keeps pivot thresholds meaningful across scales;
    # sign flips make the right-hand side nonnegative.
    e = _equilibrate(np.max(np.abs(a), axis=1), b)
    a1 = a * e[:, None]
    b1 = b * e

    # Phase 1 tableau: [A | I | b] with an all-artificial basis.
    tableau = np.hstack([a1, np.eye(m), b1[:, None]])
    basis = list(range(n, n + m))
    obj_row = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    obj_row -= tableau.sum(axis=0)  # reduce against the artificial basis

    status, iters = _simplex(tableau, obj_row, basis, n + m, 1, pivots,
                             max_iterations, 0)
    if status == UNBOUNDED:  # phase-1 objective is bounded below by 0
        raise ArithmeticError("phase 1 reported unbounded; input is malformed")

    phase1_value = -obj_row[-1]
    if phase1_value > _FEAS_EPS:
        # Dual values: reduced cost of artificial i is 1 - y_i.
        y = 1.0 - obj_row[n:n + m]
        farkas = -(y * e)
        norm = np.max(np.abs(farkas))
        if norm > 0.0:
            farkas = farkas / norm
        return LpOutcome(INFEASIBLE, farkas=farkas, iterations=iters,
                         pivots=tuple(pivots) if pivots is not None else None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    # The largest available pivot is taken: this is a single structural pass,
    # not an optimization loop, so Bland's rule is unnecessary here.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            row = np.abs(tableau[i, :n])
            entering = int(np.argmax(row))
            if row[entering] <= _PIV_EPS:
                keep[i] = False
                continue
            _pivot(tableau, obj_row, basis, i, entering)
    if not keep.all():
        tableau = tableau[keep]
        basis = [bv for bv, k in zip(basis, keep) if k]

    # Phase 2 on the same tableau; n_cols = n keeps the artificials out.
    obj_row = np.concatenate([c, np.zeros(m + 1)])
    for i, bv in enumerate(basis):
        if abs(obj_row[bv]) > 0.0:
            obj_row -= obj_row[bv] * tableau[i]

    status, iters = _simplex(tableau, obj_row, basis, n, 2, pivots,
                             max_iterations, iters)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED, iterations=iters,
                         pivots=tuple(pivots) if pivots is not None else None)

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    return LpOutcome(OPTIMAL, solution=x, objective=float(-obj_row[-1]),
                     iterations=iters,
                     pivots=tuple(pivots) if pivots is not None else None,
                     basis=tuple(basis))


def phase1_stack(eq_matrix, eq_rhs, skip=None, track_pivots: bool = False) -> StackOutcome:
    """Feasibility of K systems ``A x = eq_rhs[k]``, ``x >= 0``, that share
    the (rows, cols) matrix ``A = eq_matrix``.

    Each member runs ``lp_solve``'s phase 1: the same equilibration and
    artificial basis, Dantzig entering with the Bland fallback after
    ``_DEGEN_RUN`` degenerate pivots, minimum-ratio leaving with ties to the
    smallest basis index, the same clamp and the same ``_FEAS_EPS`` verdict.
    So its verdict and pivots equal those of ``lp_solve`` with zero cost.

    With ``skip``, member k's tableau has column ``skip[k]`` zeroed, so that
    column never enters and the member pivots on the other columns, their
    indices kept. Its rows are still scaled by their largest entry in A and
    ``eq_rhs[k]``. Where ``eq_rhs[k]`` is the skipped column, as for a
    point tested against the other points, that is the largest entry of the
    other columns and ``eq_rhs[k]``: the scale of the LP without the column,
    so the member pivots as ``lp_solve`` on it does.

    The members pivot together on one (K, rows, cols + rows + 1) tableau,
    each step one numpy operation over all of them, and a member that
    reaches its phase-1 optimum drops out of the stack. The caller bounds
    K: the tableau is the only array of its size that the stack holds.
    """
    a = as_matrix(eq_matrix)
    b = np.asarray(eq_rhs, dtype=float)
    m, n = a.shape
    if b.ndim != 2 or b.shape[1] != m:
        raise DimensionError(f"right-hand sides have shape {b.shape}, expected (K, {m})")
    k = b.shape[0]
    max_iterations = 1000 + 200 * (m + n)
    slots = np.arange(k)
    e = _equilibrate(np.max(np.abs(a), axis=1), b)
    tableau = np.zeros((k, m, n + m + 1))
    np.multiply(a, e[:, :, None], out=tableau[:, :, :n])
    if skip is not None:
        tableau[slots, :, skip] = 0.0
    tableau[:, :, n:n + m] = np.eye(m)
    tableau[:, :, -1] = b * e
    obj = np.concatenate([np.zeros(n), np.ones(m), [0.0]]) - tableau.sum(axis=1)
    basis = np.tile(np.arange(n, n + m), (k, 1))
    degenerate_run = np.zeros(k, dtype=int)
    pivots = [[] for _ in range(k)] if track_pivots else None

    feasible = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=int)
    members = np.arange(k)  # the member in each slot of the stack
    iters = 0
    while members.size:
        reduced = obj[:, :-1]
        entering = reduced.argmin(axis=1)  # first minimum: Dantzig's rule
        bland = degenerate_run > _DEGEN_RUN
        if bland.any():  # first negative: Bland's rule
            entering[bland] = (reduced[bland] < -_RC_EPS).argmax(axis=1)
        done = reduced[slots, entering] >= -_RC_EPS
        if done.any():
            feasible[members[done]] = ~(-obj[done, -1] > _FEAS_EPS)
            iterations[members[done]] = iters
            # Members still running move into the finished ones' slots, so
            # the stack stays a leading view of its arrays, with no copy.
            live = members.size - int(done.sum())
            if live == 0:
                break
            holes = np.flatnonzero(done[:live])
            movers = live + np.flatnonzero(~done[live:])
            for arr in (members, tableau, obj, basis, entering, degenerate_run):
                arr[holes] = arr[movers]
            members, tableau, obj, basis = members[:live], tableau[:live], obj[:live], basis[:live]
            entering, degenerate_run, slots = entering[:live], degenerate_run[:live], slots[:live]

        col = tableau[slots, :, entering]
        rhs = tableau[:, :, -1]
        eligible = col > _PIV_EPS
        if not eligible.any(axis=1).all():  # phase-1 objective is bounded below by 0
            raise ArithmeticError("phase 1 reported unbounded; input is malformed")
        ratios = np.where(eligible, rhs / np.where(eligible, col, 1.0), np.inf)
        best = ratios.min(axis=1)
        # Ties broken by smallest basis index: Bland's rule.
        tied = ratios <= (best + 1e-12)[:, None]
        leaving = np.where(tied, basis, n + m).argmin(axis=1)
        degenerate_run = np.where(best <= _DEGEN_EPS, degenerate_run + 1, 0)

        # _pivot on every member at once; the pivot row's own factor is 0.
        pivot_row = tableau[slots, leaving] / col[slots, leaving][:, None]
        col[slots, leaving] = 0.0
        tableau[slots, leaving] = pivot_row
        for i in range(m):  # a row at a time: no temporary of the tableau's size
            tableau[:, i] -= col[:, i, None] * pivot_row
        obj -= obj[slots, entering][:, None] * pivot_row
        basis[slots, leaving] = entering

        # Clamp roundoff drift so the ratio test stays meaningful.
        rhs = tableau[:, :, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0

        if pivots is not None:
            for member, enter, leave in zip(members, entering, leaving):
                pivots[member].append((1, int(enter), int(leave)))
        iters += 1
        if iters >= max_iterations:
            raise _IterationCap(f"simplex exceeded {max_iterations} pivots")

    return StackOutcome(feasible, iterations,
                        tuple(map(tuple, pivots)) if pivots is not None else None)
