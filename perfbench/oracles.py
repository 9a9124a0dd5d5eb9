"""Independent references and certificate checks for the benchmark.

Nothing here calls hullkit. Membership labels, ray exits and 9-input vertex
tests come from HiGHS (``scipy.optimize.linprog``), facets and 4-input vertex
sets from Qhull (``scipy.spatial.ConvexHull``), reference minima from SLSQP
over the simplex weights, and every certificate is re-checked with numpy.

Labels are only compared where the reference is unambiguous: a query is
judged against a label only when it lies farther than ``LABEL_MARGIN`` (in
units of the hull's scale) from the boundary, far outside the band where
hullkit's LP tolerance and its H-representation tolerance disagree.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.spatial import ConvexHull, cKDTree

# Queries closer than this (relative to the coordinate scale) to the
# boundary get no label check: HiGHS and hullkit both work at ~1e-8.
LABEL_MARGIN = 1e-6
# Weights must reproduce an inside query this closely.
WEIGHT_RESIDUAL = 1e-7
# Facet and vertex geometry tolerance, relative to the coordinate scale.
GEOM_TOL = 1e-8
# Both optimization routes and the SLSQP reference agree this closely.
OBJECTIVE_TOL = 1e-3


class CheckFailed(AssertionError):
    """An answer of the program disagrees with its certificate or oracle."""


def _scale(points) -> float:
    return max(1.0, float(np.max(np.abs(points))))


def _linprog(cost, **problem):
    """HiGHS, retried with its interior-point and dual-simplex solvers when a
    solve ends without a verdict (HiGHS reports numerical trouble on a few
    near-degenerate vertex tests)."""
    for method in ("highs", "highs-ipm", "highs-ds"):
        res = linprog(cost, method=method, **problem)
        if res.status in (0, 2):
            break
    return res


def ray_exit(points, origin, direction) -> float:
    """Largest ``t`` with ``origin + t * direction`` in ``conv(points)`` (HiGHS)."""
    m, n = points.shape
    eq = np.zeros((n + 1, m + 1))
    eq[:n, :m] = points.T
    eq[:n, m] = -direction
    eq[n, :m] = 1.0
    rhs = np.concatenate([origin, [1.0]])
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    res = _linprog(cost, A_eq=eq, b_eq=rhs, bounds=(0, None))
    if res.status != 0:
        raise RuntimeError(f"HiGHS ray-exit LP failed: {res.message}")
    return float(-res.fun)


def boundary_margin(points, center, query) -> float:
    """Signed distance along the ray from ``center`` to the boundary crossing:
    positive when ``query`` is inside, negative when outside."""
    d = np.asarray(query, dtype=float) - center
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        return np.inf
    return ray_exit(points, center, d / dist) - dist


def is_vertex(points, k):
    """True iff ``points[k]`` is not a convex combination of the others
    (HiGHS); None when no HiGHS solver reaches a verdict."""
    others = np.delete(points, k, axis=0)
    eq = np.vstack([others.T, np.ones(others.shape[0])])
    rhs = np.concatenate([points[k], [1.0]])
    res = _linprog(np.zeros(others.shape[0]), A_eq=eq, b_eq=rhs, bounds=(0, None))
    return {0: False, 2: True}.get(res.status)


def qhull_facets(points):
    """Unit normals and offsets of the simplicial facets of ``conv(points)``
    (Qhull); coplanar simplices repeat a facet."""
    eqs = ConvexHull(points).equations
    return eqs[:, :-1], -eqs[:, -1]


def qhull_vertices(points) -> np.ndarray:
    """Rows of ``points`` that are vertices of their hull (Qhull), sorted."""
    return _sorted_rows(points[ConvexHull(points).vertices])


def simplex_minimum(points, fun, grad) -> float:
    """Minimum of ``fun`` over ``conv(points)`` by SLSQP on the simplex weights."""
    m = points.shape[0]
    res = minimize(lambda a: fun(points.T @ a), np.full(m, 1.0 / m),
                   jac=lambda a: points @ grad(points.T @ a), method="SLSQP",
                   bounds=[(0.0, 1.0)] * m,
                   constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                                 "jac": lambda a: np.ones_like(a)}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    return float(res.fun)


def _sorted_rows(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[np.lexsort(a.T[::-1])]


def check_weights(points, query, alpha):
    """Inside certificate: ``alpha >= 0``, sums to 1, reproduces ``query``."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (points.shape[0],):
        raise CheckFailed("weights have the wrong length")
    if alpha.min() < 0.0:
        raise CheckFailed(f"negative weight {alpha.min():.3e}")
    if abs(alpha.sum() - 1.0) > 1e-9:
        raise CheckFailed(f"weights sum to {alpha.sum():.12f}")
    resid = float(np.max(np.abs(points.T @ alpha - query)))
    if resid > WEIGHT_RESIDUAL * _scale(points):
        raise CheckFailed(f"weights miss the query by {resid:.3e}")


def check_separator(points, query, normal, offset):
    """Outside certificate: a unit normal whose plane bounds every point and
    strictly cuts off ``query``."""
    normal = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
        raise CheckFailed("separator normal is not unit length")
    top = float(np.max(points @ normal))
    if top > offset + GEOM_TOL * _scale(points):
        raise CheckFailed(f"separator leaves a point {top - offset:.3e} outside")
    if not float(normal @ query) > max(top, offset):
        raise CheckFailed("separator does not strictly cut off the query")


def check_membership(points, query, result, expect_inside=None):
    """Check a ``contains`` answer by its certificate and, when given, its label."""
    if expect_inside is not None and bool(result.inside) != expect_inside:
        raise CheckFailed(f"inside={result.inside}, reference says {expect_inside}")
    if result.inside:
        if result.weights is None:
            raise CheckFailed("inside answer without weights")
        check_weights(points, query, result.weights.alpha)
    else:
        if result.separator is None:
            raise CheckFailed("outside answer without a separator")
        check_separator(points, query, result.separator.normal,
                        result.separator.offset)


def check_facets(points, normals, offsets):
    """Every facet bounds every point and is tight on n affinely independent
    points; the facet set equals Qhull's.

    The sets are compared as planes within 1e-6 in both directions rather
    than counted: hullkit merges facets whose planes agree within 1e-7, so
    two nearly coplanar Qhull simplices may be one hullkit facet."""
    n = points.shape[1]
    tol = GEOM_TOL * _scale(points)
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    slack = points @ normals.T - offsets
    if slack.max() > tol:
        raise CheckFailed(f"a point lies {slack.max():.3e} outside a facet")
    for j in range(normals.shape[0]):
        tight = points[np.abs(slack[:, j]) <= tol]
        if tight.shape[0] < n or np.linalg.matrix_rank(tight[1:] - tight[0], tol) < n - 1:
            raise CheckFailed(f"facet {j} is not tight on {n} affinely independent points")
    got = np.column_stack([normals, offsets])
    ref = np.column_stack(qhull_facets(points))
    if (cKDTree(ref).query(got, p=np.inf)[0].max() > 1e-6
            or cKDTree(got).query(ref, p=np.inf)[0].max() > 1e-6):
        raise CheckFailed(f"{got.shape[0]} facets do not cover Qhull's "
                          f"{ref.shape[0]} simplicial facets within 1e-6")


def check_minimum(value, converged, reference, what="minimum"):
    """No objective lies below the reference minimum, and one the solver
    reports as converged matches it. A solver that stops at its budget says
    so (``converged=False``) and is held only to the first condition."""
    if value < reference - OBJECTIVE_TOL:
        raise CheckFailed(f"{what} {value:.8f} is below the reference {reference:.8f}")
    if converged and value > reference + OBJECTIVE_TOL:
        raise CheckFailed(f"converged {what} {value:.8f} misses the reference {reference:.8f}")


def check_same_rows(a, b, what):
    a, b = _sorted_rows(a), _sorted_rows(b)
    if a.shape != b.shape or np.max(np.abs(a - b), initial=0.0) > 1e-12:
        raise CheckFailed(f"{what}: {a.shape[0]} rows against {b.shape[0]} expected")
