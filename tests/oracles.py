"""Independent oracles used by the tests.

Each oracle takes a deliberately different route from the code it checks:
basis enumeration instead of simplex pivoting, lattice search instead of the
sort-and-threshold projection, bisection on the KKT threshold instead of
sorting, dense grid scans for small membership questions, brute-force
subset fitting instead of the ridge walk for facet enumeration, a scan
of every pair of rows instead of the sort-and-sweep duplicate check, and
one serial LP per point on the other points instead of the stacked phase 1
with a zeroed column for vertex pruning.
"""

import itertools
import math

import numpy as np


def lp_oracle_min(cost, eq_matrix, eq_rhs, tol=1e-9):
    """Optimal value of ``min c.x : A x = b, x >= 0`` by basis enumeration.

    Enumerates every square column subset, keeps nonnegative basic
    solutions, and returns the minimum objective (None if no feasible basic
    solution exists).
    """
    a = np.asarray(eq_matrix, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    c = np.asarray(cost, dtype=float)
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.abs(sub @ xb - b).max() > 1e-7:
            continue  # numerically singular basis
        if xb.min() < -tol:
            continue
        val = float(c[list(cols)] @ xb)
        if best is None or val < best - 1e-12:
            best = val
    return best


def simplex_lattice(m, steps, lower, upper):
    """Lattice points of the simplex with ``alpha_i = k_i/steps`` and
    per-coordinate integer bounds ``lower <= k <= upper``."""
    out = []

    def rec(prefix, remaining, idx):
        if idx == m - 1:
            if lower[idx] <= remaining <= upper[idx]:
                out.append(prefix + [remaining])
            return
        lo = max(lower[idx], remaining - int(upper[idx + 1:].sum()))
        hi = min(upper[idx], remaining)
        for k in range(lo, hi + 1):
            rec(prefix + [k], remaining - k, idx + 1)

    rec([], steps, 0)
    return np.array(out, dtype=float) / steps


def grid_project(y, spacing=1e-3):
    """Exact minimizer of ``|alpha - y|^2`` over the simplex mesh of the given
    spacing.

    The mesh optimum of this separable convex objective under the single
    budget constraint ``sum k_i = K`` is found by greedy marginal allocation
    (allocate one mesh unit at a time to the coordinate with the smallest
    cost increase), which is exact for convex per-coordinate costs.
    ``grid_project_bruteforce`` cross-checks this on small cases.
    """
    import heapq

    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    steps = int(round(1.0 / spacing))

    def marginal(i, k):
        # ((k+1)/K - y_i)^2 - (k/K - y_i)^2
        return ((2 * k + 1) / steps - 2.0 * y[i]) / steps

    k = np.zeros(m, dtype=int)
    heap = [(marginal(i, 0), i) for i in range(m)]
    heapq.heapify(heap)
    for _ in range(steps):
        _, i = heapq.heappop(heap)
        k[i] += 1
        heapq.heappush(heap, (marginal(i, k[i]), i))
    return k / steps


def grid_project_bruteforce(y, steps):
    """Reference mesh minimizer by full lattice enumeration (tiny m only)."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    pts = simplex_lattice(m, steps, np.zeros(m, dtype=int),
                          np.full(m, steps, dtype=int))
    d2 = ((pts - y) ** 2).sum(axis=1)
    return pts[int(np.argmin(d2))]


def kkt_project(y, tol=1e-12):
    """Projection onto the simplex via bisection on the KKT threshold."""
    y = np.asarray(y, dtype=float)
    lo, hi = y.min() - 1.0, y.max()
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = np.maximum(y - tau, 0.0).sum()
        if s > 1.0:
            lo = tau
        else:
            hi = tau
        if hi - lo < tol:
            break
    tau = 0.5 * (lo + hi)
    alpha = np.maximum(y - tau, 0.0)
    return alpha / alpha.sum()


def min_grid_distance(points, target, steps=60):
    """Smallest max-norm distance from ``target`` to any convex combination
    on a dense simplex lattice over ``points``."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    lattice = simplex_lattice(m, steps, np.zeros(m, dtype=int),
                              np.full(m, steps, dtype=int))
    combos = lattice @ pts
    return float(np.abs(combos - np.asarray(target)).max(axis=1).min())


def central_difference(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def bruteforce_facets(points, tol=1e-9):
    """Facets of ``conv(points)`` in R^n (n >= 2) by fitting every n-subset.

    The points are centred and scaled into [-1, 1]^n. Each n-subset gets the
    hyperplane ``a.x = b`` whose coefficients span the null space of the
    homogeneous system ``[x_i, -1]`` (last right singular vector); subsets of
    rank below n are skipped. A plane is kept when every point lies on one
    side within ``tol`` (in scaled units), and planes are merged by the set
    of points on them. Returns outward unit normals and offsets in the input
    coordinates, one row per facet.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    centre = pts.mean(axis=0)
    scale = float(np.abs(pts - centre).max())
    unit = (pts - centre) / scale
    homog = np.hstack([unit, -np.ones((m, 1))])

    planes = {}
    subsets = np.array(list(itertools.combinations(range(m), n)), dtype=np.intp)
    for lo in range(0, len(subsets), 4096):
        _, sing, vt = np.linalg.svd(homog[subsets[lo:lo + 4096]])  # (B, n, n+1)
        coef = vt[:, -1, :]                             # (B, n+1) null vectors
        length = np.linalg.norm(coef[:, :n], axis=1)
        ok = (sing[:, -1] > 1e-9 * sing[:, 0]) & (length > 1e-12)
        coef = coef[ok] / length[ok, None]              # unit normal, offset
        side = homog @ coef.T                           # (m, K)
        for k in np.flatnonzero((side.max(axis=0) <= tol) | (side.min(axis=0) >= -tol)):
            onset = frozenset(np.flatnonzero(np.abs(side[:, k]) <= tol).tolist())
            if onset not in planes:
                sign = -1.0 if side[:, k].max() > tol else 1.0
                planes[onset] = (sign * coef[k, :n], sign * coef[k, n])

    normals = np.array([a for a, _ in planes.values()])
    offsets = np.array([b * scale + a @ centre for a, b in planes.values()])
    return normals, offsets


def pairwise_duplicate_rows(points, eps):
    """Indices of rows within ``eps`` (max-norm) of an earlier row, found by
    comparing every pair of rows."""
    pts = np.asarray(points, dtype=float)
    dists = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    earlier = np.tril(dists <= eps, k=-1)
    return np.flatnonzero(earlier.any(axis=1))


def serial_extreme_mask(points):
    """Which rows of ``points`` are extreme: for each point, the membership
    LP on the other points (``np.delete``) through the serial ``lp_solve``."""
    from hullkit.lp import INFEASIBLE, lp_solve
    from hullkit.queries import membership_problem

    points = np.asarray(points, dtype=float)
    if len(points) == 1:
        return [True]
    return [lp_solve(membership_problem(np.delete(points, k, axis=0), points[k])).status
            == INFEASIBLE for k in range(len(points))]
