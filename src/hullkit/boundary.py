"""Dataset ingestion, per-operating-point boundary models, synthetic data.

A boundary model is the convex hull of the (optionally normalized, optionally
vertex-pruned) input signals measured at one engine operating point. Models
persist to a single JSON document with ``schema_version`` 1; a cached
half-space representation survives the round trip, and is re-checked on
load against the model's points and the stored validation queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateError, ParseError, SchemaError, TooFewPoints
from .linalg import affine_rank, as_vector
from .optimize import Objective
from .polytope import HRep, VRep, _duplicate_rows, _onplane_tol, _read_json, \
    _write_json
from .queries import MembershipResult, contains, extreme_points

SCHEMA_VERSION = 1

# Column layouts for the synthetic diesel-style datasets, by input count.
_SIGNALS = {
    4: ("MAINSOI", "FUELPRESS", "VGTPOS", "EGRPOS"),
    7: ("MAINSOI", "FUELPRESS", "VGTPOS", "EGRPOS", "MAINFUEL", "EGRMF", "AFR"),
    9: ("MAINSOI", "FUELPRESS", "VGTPOS", "EGRPOS", "MAINFUEL", "EGRMF", "AFR",
        "VGTSPEED", "PEAKPRESS"),
}

# Plausible global operating ranges per signal.
_RANGES = {
    "MAINSOI": (-8.0, 8.0),
    "FUELPRESS": (60.0, 180.0),
    "VGTPOS": (1.0, 9.0),
    "EGRPOS": (0.05, 0.85),
    "MAINFUEL": (8.0, 55.0),
    "EGRMF": (0.02, 0.45),
    "AFR": (16.0, 32.0),
    "VGTSPEED": (60000.0, 160000.0),
    "PEAKPRESS": (7.0, 19.0),
}

# Seven (SPEED, BTQ) operating points.
_OP_POINTS = ((1000.0, 60.0), (1250.0, 95.0), (1500.0, 130.0), (1750.0, 160.0),
              (2000.0, 200.0), (2250.0, 240.0), (2500.0, 280.0))

_ROWS_PER_OP = 125

# Box queries that re-check a cached H-representation against the hull.
_VALIDATION_QUERIES = 16


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric table with named columns and designated operating-point columns."""

    column_names: tuple
    rows: np.ndarray
    op_point_columns: tuple

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if rows.shape[1] != len(self.column_names):
            raise ValueError("row width must match the number of column names")
        if not np.all(np.isfinite(rows)):
            raise ValueError("dataset cells must be finite")
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "op_point_columns", tuple(int(c) for c in self.op_point_columns))


def load_csv(path, op_point_columns=None) -> Dataset:
    """Parse a comma-separated numeric file with a header row.

    Cells must be plain numbers ('.' decimal, no quoting); NaN/Inf are
    rejected. When ``op_point_columns`` is omitted, columns named SPEED and
    BTQ are used if both exist.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header")
    names = [c.strip() for c in lines[0].split(",")]
    width = len(names)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", line=lineno)
        parsed = []
        for colno, cell in enumerate(cells, start=1):
            try:
                val = float(cell)
            except ValueError:
                raise ParseError(f"could not parse {cell.strip()!r} as a number",
                                 line=lineno, column=colno) from None
            if not np.isfinite(val):
                raise ParseError("non-finite value", line=lineno, column=colno)
            parsed.append(val)
        rows.append(parsed)
    if not rows:
        raise ParseError("no data rows")
    if op_point_columns is None:
        if "SPEED" in names and "BTQ" in names:
            op_point_columns = (names.index("SPEED"), names.index("BTQ"))
        else:
            op_point_columns = ()
    return Dataset(tuple(names), np.array(rows), tuple(op_point_columns))


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(dataset.column_names) + "\n")
        for row in dataset.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def group_by_operating_point(dataset: Dataset):
    """Rows grouped by exact equality on the operating-point columns.

    Groups come back in lexicographic key order, each as
    ``(key_vector, row_block)``.
    """
    if not dataset.op_point_columns:
        raise ValueError("dataset has no operating-point columns")
    keys = dataset.rows[:, list(dataset.op_point_columns)]
    uniq = np.unique(keys, axis=0)
    groups = []
    for key in uniq:
        mask = np.all(keys == key, axis=1)
        groups.append((key.copy(), dataset.rows[mask]))
    return groups


@dataclass(frozen=True, eq=False)
class BoundaryModel:
    """Convex-hull boundary model for one operating point.

    ``vrep`` lives in normalized coordinates; ``normalization`` holds the
    per-input-column (offset, scale) pairs mapping raw values via
    ``z = (x - offset) / scale``.
    """

    name: str
    input_columns: tuple
    op_point_key: np.ndarray
    vrep: VRep
    pruned: bool
    normalization: tuple
    cached_hrep: HRep | None = None
    validation_queries: tuple = ()

    def __post_init__(self):
        if self.vrep.dim != len(self.input_columns):
            raise ValueError("vrep dimension must match the input columns")
        if len(self.normalization) != len(self.input_columns):
            raise ValueError("need one (offset, scale) pair per input column")
        object.__setattr__(self, "input_columns", tuple(int(c) for c in self.input_columns))
        object.__setattr__(self, "op_point_key",
                           np.asarray(self.op_point_key, dtype=float))
        object.__setattr__(self, "normalization",
                           tuple((float(o), float(s)) for o, s in self.normalization))
        if not all(math.isfinite(o) and math.isfinite(s) and s > 0.0
                   for o, s in self.normalization):
            raise ValueError("normalization needs finite offsets and finite positive scales")
        if self.cached_hrep is not None and self.cached_hrep.dim != self.vrep.dim:
            raise ValueError("cached H-rep dimension must match the model inputs")
        object.__setattr__(self, "validation_queries",
                           tuple(as_vector(q, self.vrep.dim) for q in self.validation_queries))

    @property
    def offsets(self) -> np.ndarray:
        return np.array([o for o, _ in self.normalization])

    @property
    def scales(self) -> np.ndarray:
        return np.array([s for _, s in self.normalization])

    def normalize(self, x) -> np.ndarray:
        return (as_vector(x, self.vrep.dim) - self.offsets) / self.scales

    def denormalize(self, z) -> np.ndarray:
        return self.offsets + self.scales * as_vector(z, self.vrep.dim)

    def contains(self, x_raw) -> MembershipResult:
        return contains(self.vrep, self.normalize(x_raw))

    def map_objective(self, f: Objective) -> Objective:
        """Pull a raw-units objective back to normalized model coordinates."""
        if f.dim != self.vrep.dim:
            raise ValueError("objective dimension must match the model inputs")
        off, sc = self.offsets, self.scales

        def fun(z):
            return f.eval(off + sc * z)

        grad = None
        if f.grad is not None:
            def grad(z):  # noqa: E731
                return sc * f.grad(off + sc * z)

        return Objective(dim=f.dim, eval=fun, grad=grad)

    def with_cached_hrep(self, hrep: HRep) -> "BoundaryModel":
        """Attach an H-representation plus the queries used to re-validate it."""
        rng = np.random.default_rng(941_259_731)
        box = rng.uniform(-1.2, 1.2, (_VALIDATION_QUERIES, self.vrep.dim))
        model = replace(self, cached_hrep=hrep, validation_queries=tuple(box))
        _check_hrep_agreement(model.vrep, hrep, model.validation_queries)
        return model

    @classmethod
    def from_dict(cls, doc: dict) -> "BoundaryModel":
        """Re-validated model from a :func:`save_model` document, or :class:`SchemaError`."""
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
        try:
            model = cls(
                name=doc["name"],
                input_columns=tuple(doc["input_columns"]),
                op_point_key=np.asarray(doc["op_point_key"], dtype=float),
                vrep=VRep.from_dict(doc["vrep"]),
                pruned=bool(doc["pruned"]),
                normalization=tuple(tuple(p) for p in doc["normalization"]),
                cached_hrep=HRep.from_dict(doc["cached_hrep"]) if doc.get("cached_hrep") else None,
                validation_queries=tuple(np.asarray(q, dtype=float)
                                         for q in doc.get("validation_queries", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed model file: {exc!r}") from exc
        if model.cached_hrep is not None:
            _check_hrep_agreement(model.vrep, model.cached_hrep, model.validation_queries)
        return model


def _check_hrep_agreement(vrep, hrep, queries):
    """Every point within the on-plane tolerance of ``vrep_to_hrep`` inside
    every half-space, n points on each plane, and agreement on ``queries``."""
    pts = vrep.points
    side = pts @ hrep.normals.T - hrep.offsets
    tol = _onplane_tol(pts - pts.mean(axis=0))
    if side.max() > tol or np.min(np.sum(side >= -tol, axis=0)) < vrep.dim:
        raise SchemaError("cached half-space representation does not fit the model points")
    for q in queries:
        if contains(vrep, q).inside != hrep.contains(q):
            raise SchemaError("cached half-space representation disagrees with the hull")


def build_boundary_model(rows, input_columns, prune: bool = False,
                         normalize: bool = True, name: str = "model",
                         op_point_key=None) -> BoundaryModel:
    """Build the hull model of the selected input columns of ``rows``.

    Each column is affinely mapped onto [-1, 1] when ``normalize``; rows
    whose mapped inputs duplicate an earlier row within ``DISTINCT_EPS`` are
    then removed (first occurrence kept); vertex pruning is LP-based and
    optional. The H-representation is never computed here.
    """
    rows = np.asarray(rows, dtype=float)
    input_columns = tuple(int(c) for c in input_columns)
    x = rows[:, list(input_columns)]
    n = x.shape[1]

    offsets, scales = np.zeros(n), np.ones(n)
    if normalize and x.size:
        lo, hi = x.min(axis=0), x.max(axis=0)
        offsets, scales = (hi + lo) / 2.0, (hi - lo) / 2.0
    # A constant column (scale 0) fails the rank test below.
    z = (x - offsets) / np.where(scales > 0.0, scales, 1.0)
    dups = _duplicate_rows(z)
    x, z = np.delete(x, dups, axis=0), np.delete(z, dups, axis=0)
    if x.shape[0] < n + 1:
        raise TooFewPoints(f"need at least {n + 1} distinct rows, have {x.shape[0]}")
    if affine_rank(x) < n:
        raise DegenerateError("selected columns are not full-dimensional")
    pairs = tuple(zip(offsets.tolist(), scales.tolist()))

    vrep = VRep(z)
    if prune:
        vrep = extreme_points(vrep)
    if op_point_key is None:
        op_point_key = np.zeros(0)
    return BoundaryModel(name=name, input_columns=input_columns,
                         op_point_key=op_point_key, vrep=vrep, pruned=prune,
                         normalization=pairs)


def _synth_params(seed: int, n_inputs: int):
    """Deterministic per-operating-point boxes, mixing, and response bowls."""
    if n_inputs not in _SIGNALS:
        raise ValueError("n_inputs must be one of 4, 7, 9")
    names = _SIGNALS[n_inputs]
    lo = np.array([_RANGES[s][0] for s in names])
    hi = np.array([_RANGES[s][1] for s in names])
    span = hi - lo
    rng = np.random.default_rng(seed)
    params = []
    for p in range(len(_OP_POINTS)):
        frac = p / (len(_OP_POINTS) - 1)
        center = lo + (0.3 + 0.4 * frac) * span + rng.uniform(-0.05, 0.05, n_inputs) * span
        halfwidth = 0.22 * span * rng.uniform(0.8, 1.2, n_inputs)
        mix_raw = rng.uniform(-1.0, 1.0, (n_inputs, n_inputs))
        mix_raw /= np.abs(mix_raw).sum(axis=1, keepdims=True)
        mixing = 0.75 * np.eye(n_inputs) + 0.25 * mix_raw
        bowl_center = center + 0.3 * halfwidth * rng.uniform(-1.0, 1.0, n_inputs)
        bowl_weights = rng.uniform(0.5, 2.0, n_inputs)
        amplitude = float(rng.uniform(25.0, 60.0))
        base = float(rng.uniform(195.0, 235.0))
        params.append({"center": center, "halfwidth": halfwidth, "mixing": mixing,
                       "bowl_center": bowl_center, "bowl_weights": bowl_weights,
                       "amplitude": amplitude, "base": base})
    return names, params, rng


def _bowl_value(par, x):
    u = (np.atleast_2d(x) - par["bowl_center"]) / par["halfwidth"]
    return par["base"] + par["amplitude"] * (u * u) @ par["bowl_weights"]


def synth_engine_dataset(seed: int, n_inputs: int) -> Dataset:
    """Synthetic diesel-style dataset: 875 rows over 7 operating points.

    Inputs are drawn from seeded per-operating-point boxes with mild
    cross-signal correlation; the BSFC response is a smooth quadratic bowl
    plus Gaussian noise with sigma equal to 1% of the local response range.
    """
    names, params, rng = _synth_params(seed, n_inputs)
    blocks = []
    for (speed, btq), par in zip(_OP_POINTS, params):
        latent = rng.uniform(-1.0, 1.0, (_ROWS_PER_OP, n_inputs)) @ par["mixing"].T
        x = par["center"] + par["halfwidth"] * latent
        response = _bowl_value(par, x)
        sigma = 0.01 * (response.max() - response.min())
        response = response + rng.normal(0.0, sigma, _ROWS_PER_OP)
        block = np.column_stack([x, np.full(_ROWS_PER_OP, speed),
                                 np.full(_ROWS_PER_OP, btq), response])
        blocks.append(block)
    rows = np.vstack(blocks)
    columns = names + ("SPEED", "BTQ", "BSFC")
    return Dataset(columns, rows, (n_inputs, n_inputs + 1))


def synth_bsfc_objective(seed: int, n_inputs: int, op_index: int) -> Objective:
    """The noiseless response bowl for one operating point, with gradient."""
    _, params, _ = _synth_params(seed, n_inputs)
    if not 0 <= op_index < len(params):
        raise IndexError("operating-point index out of range")
    par = params[op_index]

    def fun(x):
        return float(_bowl_value(par, x)[0])

    def grad(x):
        u = (as_vector(x, n_inputs) - par["bowl_center"]) / par["halfwidth"]
        return par["amplitude"] * 2.0 * par["bowl_weights"] * u / par["halfwidth"]

    return Objective(dim=n_inputs, eval=fun, grad=grad)


def save_model(model: BoundaryModel, path) -> None:
    """Persist a model as one JSON document (full-precision reals)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "input_columns": list(model.input_columns),
        "op_point_key": model.op_point_key.tolist(),
        "pruned": model.pruned,
        "normalization": [list(p) for p in model.normalization],
        "vrep": model.vrep.to_dict(),
        "cached_hrep": model.cached_hrep.to_dict() if model.cached_hrep else None,
        "validation_queries": [q.tolist() for q in model.validation_queries],
    }
    _write_json(doc, path)


def load_model(path) -> BoundaryModel:
    """Load and re-validate a model written by :func:`save_model`."""
    return BoundaryModel.from_dict(_read_json(path))
