"""Seeded, reproducible benchmarks for conversion, membership, and optimization.

Timings use a monotonic wall clock and medians over seeds; cells that exceed
the per-cell timeout are kept as data (``timed_out=True``, value = elapsed
time at abandonment) and rendered as ``--`` in markdown tables. Everything
except the elapsed-time columns is deterministic for fixed flags.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .boundary import build_boundary_model, group_by_operating_point, \
    synth_bsfc_objective, synth_engine_dataset
from .errors import ConversionTimeout
from .optimize import solve_hrep, solve_vrep
from .polytope import random_point_set, vrep_to_hrep
from .queries import contains

CONVERSION_MAX_M = 500
CONVERSION_MAX_N = 7
MEMBERSHIP_MAX_M = 2000
MEMBERSHIP_MAX_N = 15


@dataclass(frozen=True)
class BenchRow:
    """One measured cell: (m, n, seed) x metric."""

    m: int
    n: int
    seed: int
    metric_name: str
    value: float
    unit: str
    timed_out: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("benchmark values are nonnegative")


def bench_conversion(grid, seeds: int = 3, timeout_s: float = 60.0,
                     base_seed: int = 0) -> list[BenchRow]:
    """Median facet-enumeration time and facet count per (m, n) cell.

    The grid is capped at m <= 500, n <= 7; a cell is marked timed out when
    the majority of its seeded runs hit ``timeout_s``.
    """
    rows = []
    for m, n in grid:
        if m > CONVERSION_MAX_M or n > CONVERSION_MAX_N:
            raise ValueError(f"conversion grid capped at m<={CONVERSION_MAX_M}, "
                             f"n<={CONVERSION_MAX_N}; got ({m}, {n})")
        elapsed, facets, timeouts = [], [], 0
        for s in range(seeds):
            vrep = random_point_set(m, n, seed=base_seed + s)
            try:
                report = vrep_to_hrep(vrep, deadline_s=timeout_s)
                elapsed.append(report.elapsed)
                facets.append(report.facet_count)
            except ConversionTimeout as t:
                elapsed.append(t.elapsed)
                timeouts += 1
        timed_out = timeouts * 2 > seeds
        rows.append(BenchRow(m, n, base_seed, "conversion_time_s",
                             statistics.median(elapsed), "s", timed_out))
        if facets:
            rows.append(BenchRow(m, n, base_seed, "facet_count",
                                 float(statistics.median(facets)), "count", False))
    return rows


def bench_membership(grid, seeds: int = 3, queries_per_cell: int = 20,
                     base_seed: int = 0) -> list[BenchRow]:
    """Median ``contains`` time per (m, n) cell, inside and uniform queries
    reported separately.

    Half the queries are random convex combinations of the points (inside by
    construction); the other half are uniform in [-1, 1]^n. All queries of
    one hull go to the same ``VRep``, so a query that an earlier one's basis
    settles, or that Gilbert steps separate, is timed without an LP, as
    ``contains`` answers it.
    """
    rows = []
    half = max(1, queries_per_cell // 2)
    for m, n in grid:
        if m > MEMBERSHIP_MAX_M or n > MEMBERSHIP_MAX_N:
            raise ValueError(f"membership grid capped at m<={MEMBERSHIP_MAX_M}, "
                             f"n<={MEMBERSHIP_MAX_N}; got ({m}, {n})")
        t_inside, t_uniform, inside_hits = [], [], []
        for s in range(seeds):
            vrep = random_point_set(m, n, seed=base_seed + s)
            rng = np.random.default_rng(base_seed + 7777 + s)
            combos = rng.dirichlet(np.ones(m), half) @ vrep.points
            uniform = rng.uniform(-1.0, 1.0, (half, n))
            for q in combos:
                t0 = time.perf_counter()
                res = contains(vrep, q)
                t_inside.append(time.perf_counter() - t0)
                inside_hits.append(1.0 if res.inside else 0.0)
            for q in uniform:
                t0 = time.perf_counter()
                contains(vrep, q)
                t_uniform.append(time.perf_counter() - t0)
        rows.append(BenchRow(m, n, base_seed, "membership_time_inside_s",
                             statistics.median(t_inside), "s"))
        rows.append(BenchRow(m, n, base_seed, "membership_time_uniform_s",
                             statistics.median(t_uniform), "s"))
        rows.append(BenchRow(m, n, base_seed, "inside_rate_convex_draws",
                             float(np.mean(inside_hits)), "ratio"))
    return rows


def bench_optimize(n_inputs: int, seed: int = 1, timeout_s: float = 60.0,
                   prune: bool = False, normalize: bool = True) -> list[BenchRow]:
    """Per-operating-point comparison of the two optimization routes.

    Builds the seven boundary models from the synthetic dataset, minimizes
    the noiseless response bowl over each hull via the vertex route, and,
    when facet enumeration finishes inside ``timeout_s``, via the half-space
    route as well (started from the hull barycenter, which is strictly
    interior). Conversion timeouts are recorded as data.
    """
    dataset = synth_engine_dataset(seed, n_inputs)
    groups = group_by_operating_point(dataset)
    input_cols = tuple(range(n_inputs))
    rows = []
    for p, (key, block) in enumerate(groups):
        model = build_boundary_model(block, input_cols, prune=prune,
                                     normalize=normalize, name=f"op{p}",
                                     op_point_key=key)
        m = model.vrep.n_points
        objective = model.map_objective(synth_bsfc_objective(seed, n_inputs, p))

        res_v = solve_vrep(objective, [], model.vrep)
        feas_v = contains(model.vrep, res_v.minimizer).inside
        rows.append(BenchRow(m, n_inputs, seed, "opt_time_vrep_s", res_v.elapsed, "s"))
        rows.append(BenchRow(m, n_inputs, seed, "objective_vrep", res_v.objective, "g/kWh"))
        rows.append(BenchRow(m, n_inputs, seed, "minimizer_feasible_vrep",
                             1.0 if feas_v else 0.0, "bool"))

        try:
            report = vrep_to_hrep(model.vrep, deadline_s=timeout_s)
        except ConversionTimeout as t:
            rows.append(BenchRow(m, n_inputs, seed, "conversion_time_s",
                                 t.elapsed, "s", True))
            continue
        rows.append(BenchRow(m, n_inputs, seed, "conversion_time_s",
                             report.elapsed, "s"))
        rows.append(BenchRow(m, n_inputs, seed, "facet_count",
                             float(report.facet_count), "count"))

        start = model.vrep.points.mean(axis=0)
        res_h = solve_hrep(objective, [], report.hrep, start)
        feas_h = report.hrep.contains(res_h.minimizer)
        rows.append(BenchRow(m, n_inputs, seed, "opt_time_hrep_s", res_h.elapsed, "s"))
        rows.append(BenchRow(m, n_inputs, seed, "objective_hrep", res_h.objective, "g/kWh"))
        rows.append(BenchRow(m, n_inputs, seed, "minimizer_feasible_hrep",
                             1.0 if feas_h else 0.0, "bool"))
        rows.append(BenchRow(m, n_inputs, seed, "objective_gap",
                             abs(res_v.objective - res_h.objective), "g/kWh"))
    return rows


_COLUMNS = ("m", "n", "seed", "metric", "value", "unit", "timed_out")


def emit_table(rows, fmt: str = "csv") -> str:
    """Render benchmark rows as CSV or markdown, sorted by (m, n, metric).

    Markdown renders timed-out values as ``--``.
    """
    if not rows:
        raise ValueError("no benchmark rows to render")
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown table format {fmt!r}")
    ordered = sorted(rows, key=lambda r: (r.m, r.n, r.metric_name, r.seed))
    out = []
    if fmt == "csv":
        out.append(",".join(_COLUMNS))
        for r in ordered:
            out.append(f"{r.m},{r.n},{r.seed},{r.metric_name},{r.value!r},"
                       f"{r.unit},{str(r.timed_out).lower()}")
    else:
        out.append("| " + " | ".join(_COLUMNS) + " |")
        out.append("|" + "---|" * len(_COLUMNS))
        for r in ordered:
            value = "--" if r.timed_out else f"{r.value:.6g}"
            out.append(f"| {r.m} | {r.n} | {r.seed} | {r.metric_name} | "
                       f"{value} | {r.unit} | {str(r.timed_out).lower()} |")
    return "\n".join(out) + "\n"
