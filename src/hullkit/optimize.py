"""Constrained minimization over a hull in both representations.

The vertex route reparameterizes the problem on the standard simplex
(``x = sum_i alpha_i v_i``) and runs accelerated projected gradient (FISTA)
until the Frank-Wolfe gap certifies the minimum; the half-space route runs
a Newton log-barrier method over ``A x <= b`` until a dual bound does. Each
route returns its bound as ``SolveResult.gap``, which is only as exact as
the gradient: a central difference when ``Objective.grad`` is missing.
Extra constraints ``g_j(x) >= 0`` are each an :class:`Objective` too, so an
analytic ``grad`` spares their central differences as well; they go through
one augmented-Lagrangian loop shared by both routes (see
:class:`SolveOptions` for what ``gap`` then bounds).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DimensionError, EmptyInterior, InfeasibleStart
from .linalg import as_vector
from .lp import INFEASIBLE, OPTIMAL, lp_solve
from .polytope import HRep, VRep
from .queries import Weights, membership_problem

# Central-difference step used when an objective has no analytic gradient.
_FD_STEP = 1e-6
_ARMIJO_C = 1e-4
# Weight rho of the augmented Lagrangian's quadratic term, sized for
# constraints of unit scale such as those on normalized model inputs.
_AL_WEIGHT = 1000.0


@dataclass(frozen=True)
class Objective:
    """Scalar objective with an optional analytic gradient."""

    dim: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class SolveOptions:
    """Solver budgets and tolerances, the same on both routes.

    ``converged=True`` means ``gap <= objective_tol * max(1, |objective|)``
    and no constraint violated by more than ``constraint_tol`` at the
    minimizer. ``gap`` is the Frank-Wolfe gap on the vertex route and the
    barrier's dual bound on the half-space route, taken on the augmented
    Lagrangian, plus ``lambda . g(x)`` at the updated multipliers. For convex
    ``f`` and concave constraints it bounds ``objective - min``, the minimum
    over the feasible part of the hull.
    """

    max_fun_evals: int = 20000
    max_iters: int = 500
    constraint_tol: float = 1e-6
    objective_tol: float = 1e-6

    def __post_init__(self):
        if self.max_fun_evals < 1:
            raise ValueError("max_fun_evals must be at least 1")
        for name in ("max_iters", "constraint_tol", "objective_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class SolveResult:
    minimizer: np.ndarray
    objective: float
    iterations: int
    fun_evals: int
    elapsed: float
    converged: bool
    gap: float
    weights: Weights | None = None
    trace: tuple = field(default=())


class _Budget:
    """Counts function evaluations against a hard cap."""

    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def spend(self, k=1) -> bool:
        self.used += k
        return self.used <= self.cap

    @property
    def exhausted(self) -> bool:
        return self.used > self.cap


def _gradient(f: Objective, x, budget) -> np.ndarray:
    """``f.grad(x)``, or central differences (2n evaluations) without one."""
    if f.grad is not None:
        return np.array(f.grad(x), dtype=float)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = _FD_STEP
        budget.spend(2)
        g[i] = (f.eval(x + e) - f.eval(x - e)) / (2.0 * _FD_STEP)
    return g


def project_to_simplex(y) -> Weights:
    """Euclidean projection onto ``{alpha : alpha >= 0, sum(alpha) = 1}``.

    Sort-and-threshold closed form; the output is renormalized so the
    simplex invariants hold exactly.
    """
    y = as_vector(y)
    m = y.shape[0]
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, m + 1)
    cond = u + (1.0 - css) / ks > 0.0
    rho = int(np.max(np.flatnonzero(cond)))
    lam = (1.0 - css[rho]) / (rho + 1.0)
    alpha = np.maximum(y + lam, 0.0)
    alpha /= alpha.sum()
    return Weights(alpha)


def compose_objective(f: Objective, v: VRep) -> Objective:
    """Pull ``f`` back through the hull map ``alpha -> sum_i alpha_i v_i``."""
    if f.dim != v.dim:
        raise DimensionError("objective dimension must match the point set")
    pts = v.points

    def fun(alpha):
        return f.eval(pts.T @ alpha)

    grad = None
    if f.grad is not None:
        def grad(alpha):  # noqa: E731 - chain rule through the linear hull map
            return pts @ f.grad(pts.T @ alpha)

    return Objective(dim=v.n_points, eval=fun, grad=grad)


def _lagrangian(f: Objective, cons, lam, budget) -> Objective:
    """Augmented Lagrangian of ``f`` and ``g_j(x) >= 0`` at ``rho = _AL_WEIGHT``:
    ``f + sum_j (max(0, lam_j - rho g_j)^2 - lam_j^2) / (2 rho)`` (Hestenes
    1969; Powell 1969). Its gradient ``grad f - sum_j lam'_j grad g_j``, with
    ``lam'_j = max(0, lam_j - rho g_j)``, is the ordinary Lagrangian's at the
    updated multipliers. ``lam`` is read in place at every call.
    """
    def fun(x):
        val = f.eval(x)
        for c, lj in zip(cons, lam):
            val += (max(0.0, lj - _AL_WEIGHT * c.eval(x)) ** 2 - lj * lj) / (2.0 * _AL_WEIGHT)
        return val

    def grad(x):
        g = _gradient(f, x, budget)
        for c, lj in zip(cons, lam):
            mult = lj - _AL_WEIGHT * c.eval(x)
            if mult > 0.0:
                g -= mult * _gradient(c, x, budget)
        return g

    return Objective(f.dim, fun, grad)


def _solve(f: Objective, cons, opts, inner, z, v: VRep | None = None) -> SolveResult:
    """Minimize ``f`` subject to ``cons`` by rounds of ``inner`` from ``z``: the
    simplex weights of ``v`` if given (the Lagrangian is composed through it
    once), else ``x``. Each round updates ``lam`` and adds ``lam . g(x)`` to
    the inner gap; rounds share one budget and trace, and stop once certified,
    when an inner stop did not converge, or when the budget runs out.
    """
    t0 = time.perf_counter()
    opts, cons = opts or SolveOptions(), list(cons or [])
    budget = _Budget(opts.max_fun_evals)
    lam = np.zeros(len(cons))
    lag = _lagrangian(f, cons, lam, budget)
    if v is not None:
        lag = compose_objective(lag, v)
    trace: list[float] = []
    iters_total = 0
    while True:
        z, gap, iters, converged = inner(lag.eval, lag.grad, z, opts.objective_tol,
                                         budget, trace, opts.max_iters)
        iters_total += iters
        x = z if v is None else v.points.T @ z
        objective = float(f.eval(x))
        g = np.array([c.eval(x) for c in cons])
        lam[:] = np.maximum(0.0, lam - _AL_WEIGHT * g)
        gap += float(lam @ g)
        done = bool(converged and not budget.exhausted
                    and np.max(-g, initial=0.0) <= opts.constraint_tol
                    and gap <= opts.objective_tol * max(1.0, abs(objective)))
        if done or not converged or budget.exhausted:
            return SolveResult(minimizer=x, objective=objective, iterations=iters_total,
                               fun_evals=budget.used, elapsed=time.perf_counter() - t0,
                               converged=done, gap=gap,
                               weights=None if v is None else Weights(z),
                               trace=tuple(trace))


def _fista(fun, grad, alpha, tol, budget, trace, max_iters):
    """Accelerated projected gradient on the simplex from ``alpha``.

    FISTA with a backtracking Lipschitz estimate (doubled until the quadratic
    upper bound holds at the step, then shrunk by 0.9) and a momentum restart
    whenever a step would raise the objective, so every accepted iterate is
    feasible and no worse than the last. Stops once the Frank-Wolfe gap
    ``g . alpha - min(g)`` at the accepted iterate is at most
    ``tol * max(1, |f|)``. Returns ``(alpha, gap, iterations, converged)``.
    """
    f_cur = fun(alpha)
    budget.spend()
    g_cur = grad(alpha)
    trace.append(f_cur)
    prev, t, lip = alpha, 1.0, 1.0
    iters = 0
    while True:
        gap = float(g_cur @ alpha - g_cur.min())
        if gap <= tol * max(1.0, abs(f_cur)):
            return alpha, gap, iters, True
        if budget.exhausted or iters == max_iters:
            return alpha, gap, iters, False
        iters += 1
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = alpha + beta * (alpha - prev)
        if beta:
            f_y, g_y = fun(y), grad(y)
            budget.spend()
        else:
            f_y, g_y = f_cur, g_cur
        while budget.spend():
            cand = project_to_simplex(y - g_y / lip).alpha
            step = cand - y
            f_new = fun(cand)
            if f_new <= f_y + float(g_y @ step) + 0.5 * lip * float(step @ step):
                break
            lip *= 2.0
        if budget.exhausted:
            return alpha, gap, iters, False
        if f_new > f_cur:
            if not beta:  # a plain step from alpha cannot descend: rounding floor
                return alpha, gap, iters, False
            prev, t = alpha, 1.0
            continue
        prev, alpha, f_cur = alpha, cand, f_new
        g_cur = grad(alpha)
        trace.append(f_cur)
        t = t_next
        lip *= 0.9


def solve_vrep(f: Objective, cons, v: VRep, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize ``f`` over ``conv(V)`` via the simplex reparameterization.

    The augmented Lagrangian is built in x-space (a missing gradient costs
    2n evaluations by central differences) and pulled back through
    ``x = V^T alpha`` once; FISTA then runs on the weights from the
    barycenter, also evaluating ``f`` at extrapolated points that may lie
    just outside the hull. The only stopping test is the Frank-Wolfe gap
    ``g . alpha - min(g)``, returned as ``gap``: for a convex objective it
    bounds how far the result lies above the minimum over the hull
    (``converged`` is as described in :class:`SolveOptions`). On budget or
    iteration exhaustion the last (and best) iterate is returned with
    ``converged=False``.
    """
    if v.n_points < 2:
        raise ValueError("need at least two points to optimize over")
    return _solve(f, cons, opts, _fista, np.full(v.n_points, 1.0 / v.n_points), v)


def _barrier(fun, grad, x, tol, budget, trace, max_iters, a_mat, b_vec, resume):
    """Newton log-barrier method on ``{x : A x <= b}`` from the interior ``x``.

    Centres ``fun(x) - mu * sum(log s)``, ``s = b - A x``, by damped Newton
    steps on the barrier Hessian ``H_b = mu A^T diag(1/s^2) A`` plus the
    objective Hessian by central differences of ``grad``. Solving
    ``H_b w = g`` for the full gradient ``g`` gives multipliers
    ``y_i = (mu/s_i)(1 - a_i . w / s_i)`` with ``A^T y = -grad(x)``; when
    ``y >= 0``, weak duality bounds ``fun(x) - min fun`` by ``y . s``,
    otherwise the bound is ``inf``. At the central point it is ``F mu`` for F
    half-spaces, so ``mu`` starts at 1 and shrinks tenfold once the bound is
    at most ``2 F mu``, until it is at most ``tol * max(1, |fun|)``. The
    dict ``resume`` keeps the last ``mu``, so a later augmented-Lagrangian
    round starts where this one ended. Returns
    ``(x, gap, iterations, converged)``.
    """
    n_half = a_mat.shape[0]
    eye = _FD_STEP * np.eye(x.shape[0])
    mu, iters = resume.get("mu", 1.0), 0
    s = b_vec - a_mat @ x
    f_cur = fun(x)
    budget.spend()
    g_f = grad(x)
    trace.append(min(f_cur, trace[-1] if trace else math.inf))
    while True:
        g = g_f + mu * (a_mat.T @ (1.0 / s))
        h_b = mu * (a_mat.T * (1.0 / (s * s))) @ a_mat
        try:
            slack = 1.0 - (a_mat @ np.linalg.solve(h_b, g)) / s
            gap = mu * float(slack.sum()) if np.min(slack) >= 0.0 else math.inf
        except np.linalg.LinAlgError:
            gap = math.inf
        if gap <= tol * max(1.0, abs(f_cur)):
            return x, gap, iters, True
        if budget.exhausted or iters == max_iters:
            return x, gap, iters, False
        if gap <= 2.0 * n_half * mu:
            mu *= 0.1
            resume["mu"] = mu
            continue
        iters += 1
        h_f = np.array([grad(x + e) - grad(x - e) for e in eye]) / (2.0 * _FD_STEP)
        try:
            d = -np.linalg.solve(h_b + 0.5 * (h_f + h_f.T), g)
        except np.linalg.LinAlgError:
            d = -g
        slope = float(g @ d)
        if not slope < 0.0:
            d, slope = -g, -float(g @ g)
        phi = f_cur - mu * float(np.log(s).sum())
        step = 1.0
        while True:
            cand = x + step * d
            s_new = b_vec - a_mat @ cand
            if np.min(s_new) > 0.0:
                if not budget.spend():
                    return x, gap, iters, False
                f_new = fun(cand)
                if f_new - mu * float(np.log(s_new).sum()) <= phi + _ARMIJO_C * step * slope:
                    break
            step *= 0.5
            if step <= 1e-18:  # no descent left at this precision
                return x, gap, iters, False
        x, s, f_cur = cand, s_new, f_new
        g_f = grad(x)
        trace.append(min(f_cur, trace[-1]))


def solve_hrep(f: Objective, cons, h: HRep, start,
               opts: SolveOptions | None = None) -> SolveResult:
    """Minimize ``f`` over ``{x : A x <= b}`` by a Newton log-barrier method.

    ``start`` must be strictly interior. The only stopping test is the dual
    bound of ``_barrier``, returned as ``gap``: for a convex objective
    ``objective - min <= gap``. Without ``f.grad`` both the bound and the
    Newton steps rest on central differences, about 4n^2 evaluations a step.
    ``converged`` is as described in :class:`SolveOptions`; the trace holds
    the lowest augmented Lagrangian value seen so far.
    """
    if f.dim != h.dim:
        raise DimensionError("objective dimension must match the half-spaces")
    start = as_vector(start, h.dim)
    if np.min(h.offsets - h.normals @ start) <= 1e-9:
        raise InfeasibleStart("start point is not strictly inside the region")
    return _solve(f, cons, opts,
                  partial(_barrier, a_mat=h.normals, b_vec=h.offsets, resume={}),
                  start.copy())


def chebyshev_center(h: HRep) -> np.ndarray:
    """Center of the largest inscribed ball, by the dual of the LP ``max r``
    s.t. ``normal_i . x + r <= offset_i``.

    The dual, ``min offset . y`` s.t. ``sum_i y_i normal_i = 0``,
    ``sum_i y_i = 1``, ``y >= 0``, is the membership LP of the origin in the
    hull of the normals priced by the offsets: n + 1 rows for any number of
    half-spaces. ``(x, r)`` are the dual values of its optimal basis.

    Raises ``ValueError`` when the region holds arbitrarily large balls
    (the origin is outside the normals' hull), and :class:`EmptyInterior`
    when the optimal radius is <= 1e-9.
    """
    problem = membership_problem(h.normals, np.zeros(h.dim), h.offsets)
    outcome = lp_solve(problem)
    if outcome.status == INFEASIBLE:
        raise ValueError("half-space region is unbounded")
    if outcome.status != OPTIMAL:
        raise ArithmeticError("Chebyshev dual LP cannot be unbounded")
    basis = list(outcome.basis)
    # Least squares also covers a row lp_solve dropped as redundant (a slab).
    dual = np.linalg.lstsq(problem.eq_matrix[:, basis].T, h.offsets[basis],
                           rcond=None)[0]
    center, radius = dual[:-1], float(dual[-1])
    if radius <= 1e-9:
        raise EmptyInterior(f"inscribed radius {radius:.2e} is not positive")
    return center
