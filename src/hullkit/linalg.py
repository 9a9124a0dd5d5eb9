"""Dense linear-algebra helpers: input validation, hyperplanes, affine rank.

Vectors and matrices are plain float ``numpy`` arrays; the helpers here
validate shape and finiteness at module boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# Global geometric tolerance (applied relative to a scale where one exists).
GEOM_EPS = 1e-9


def as_vector(x, dim=None) -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got array of ndim {v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(a, rows=None, cols=None) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"expected {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Half-space boundary ``normal . x <= offset`` with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = as_vector(self.normal)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))
        if abs(np.linalg.norm(normal) - 1.0) > 1e-12:
            raise ValueError("hyperplane normal must be unit length")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]


def _rref(mat, tol):
    """Reduced row echelon form with partial pivoting; returns (rref, pivot cols)."""
    a = np.array(mat, dtype=float)
    rows, cols = a.shape
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[p, c]) <= tol:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] /= a[r, c]
        others = np.arange(rows) != r
        a[others] -= np.outer(a[others, c], a[r])
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def affine_rank(points) -> int:
    """Rank of ``{p_i - p_0}``, i.e. the dimension of the affine hull."""
    pts = as_matrix(np.atleast_2d(np.asarray(points, dtype=float)))
    if pts.shape[0] == 1:
        return 0
    diffs = pts[1:] - pts[0]
    scale = max(1.0, float(np.max(np.abs(diffs))))
    _, piv = _rref(diffs, GEOM_EPS * scale)
    return len(piv)

