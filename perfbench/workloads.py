"""The benchmark's workloads and the loop that runs and checks them.

Every workload is closed-loop with one caller: a round is a fixed list of
operations, each timed on its own, and the next operation starts when the
previous one returns. Inputs come from the seed alone. Each round's inputs
and oracle references are made before its operations run, and the answers
are checked after the round; neither counts toward the timings.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hullkit.boundary as boundary
import hullkit.optimize as optimize
import hullkit.polytope as polytope
import hullkit.queries as queries

import oracles
from tracing import Tracer

# Relative distance of the band queries from the boundary along their ray.
BAND = 1e-3
# Set-up is repeated at least this often, and until this much time is spent.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.3


@dataclass(frozen=True)
class Op:
    """One timed call into hullkit and the check of its answer."""

    run: Callable[[], Any]
    check: Callable[[Any], None]


def _seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


class Membership:
    """``contains`` queries of one family, a batch per fresh random hull.

    Latency varies several-fold from hull to hull (the pivot path depends on
    the point order), so each round draws a new hull: a run averages over
    dozens of hulls while every query still shares its hull with the rest
    of its batch.
    """

    FAMILIES = {"deep": 1, "box": 2, "band": 3}
    SIZES = {"full": {"m": 1000, "n": 9, "batch": 20, "labelled": 4},
             "tiny": {"m": 60, "n": 4, "batch": 6, "labelled": 3}}

    def __init__(self, family, seed, size):
        self.family = family
        self.tag = self.FAMILIES[family]
        self.seed = seed
        self.cfg = self.SIZES[size]

    def _hull(self, r):
        """The round's hull: uniform points in [-1, 1]^n, the same for every
        family at a given seed."""
        c = self.cfg
        pts = np.random.default_rng([self.seed, 0, r]).uniform(-1.0, 1.0, (c["m"], c["n"]))
        return polytope.VRep(pts)

    def setup(self):
        self._hull(0)

    def make_round(self, r):
        c = self.cfg
        hull = self._hull(r)
        pts = np.array(hull.points)
        ctr = pts.mean(axis=0)
        rng = np.random.default_rng([self.seed, self.tag, r])
        expect = [None] * c["batch"]
        if self.family == "deep":
            qs = rng.dirichlet(np.ones(c["m"]), c["batch"]) @ pts
            expect = [True] * c["batch"]
        elif self.family == "box":
            qs = rng.uniform(pts.min(axis=0), pts.max(axis=0), (c["batch"], c["n"]))
            for i in range(c["labelled"]):
                margin = oracles.boundary_margin(pts, ctr, qs[i])
                if abs(margin) > oracles.LABEL_MARGIN:
                    expect[i] = margin > 0.0
        else:
            dirs = rng.normal(size=(c["batch"], c["n"]))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sides = np.where(np.arange(c["batch"]) % 2 == 0, -1.0, 1.0)
            exits = np.array([oracles.ray_exit(pts, ctr, d) for d in dirs])
            qs = ctr + ((1.0 + sides * BAND) * exits)[:, None] * dirs
            expect = [bool(s < 0) for s in sides]
        return [Op(lambda q=q: queries.contains(hull, q),
                   lambda res, q=q, e=e: oracles.check_membership(pts, q, res, e))
                for q, e in zip(qs, expect)]


class Convert:
    """Facet enumeration with the default method on fresh random cells."""

    CELLS = {("small", "full"): ((40, 4), (30, 5), (25, 6)),
             ("large", "full"): ((100, 5), (100, 6), (60, 7)),
             ("small", "tiny"): ((12, 3),),
             ("large", "tiny"): ((40, 5),)}

    def __init__(self, regime, seed, size):
        self.tag = 4 if regime == "small" else 5
        self.seed = seed
        self.cells = self.CELLS[(regime, size)]

    def _hulls(self, r):
        return [polytope.random_point_set(m, n, seed=_seed(self.seed, self.tag, r, k))
                for k, (m, n) in enumerate(self.cells)]

    def setup(self):
        self._hulls(0)

    def make_round(self, r):
        return [Op(lambda v=v: polytope.vrep_to_hrep(v),
                   lambda rep, pts=np.array(v.points):
                       oracles.check_facets(pts, rep.hrep.normals, rep.hrep.offsets))
                for v in self._hulls(r)]


def _normalized_inputs(model, rows):
    """All distinct input rows of an operating point, mapped by the model's
    own normalization, which must send each column's range onto [-1, 1]."""
    x = np.unique(rows[:, list(model.input_columns)], axis=0)
    z = (x - model.offsets) / model.scales
    if np.max(np.abs(z.min(axis=0) + 1.0)) > 1e-12 or np.max(np.abs(z.max(axis=0) - 1.0)) > 1e-12:
        raise oracles.CheckFailed("normalization does not map the inputs onto [-1, 1]")
    return z


def _check_roundtrip(saved, loaded):
    """A loaded model equals the one saved, field by field."""
    same = (saved.name == loaded.name
            and saved.input_columns == loaded.input_columns
            and saved.pruned == loaded.pruned
            and saved.normalization == loaded.normalization
            and np.array_equal(saved.op_point_key, loaded.op_point_key)
            and np.array_equal(saved.vrep.points, loaded.vrep.points)
            and (saved.cached_hrep is None) == (loaded.cached_hrep is None)
            and len(saved.validation_queries) == len(loaded.validation_queries)
            and all(np.array_equal(a, b) for a, b in
                    zip(saved.validation_queries, loaded.validation_queries)))
    if same and saved.cached_hrep is not None:
        same = (np.array_equal(saved.cached_hrep.normals, loaded.cached_hrep.normals)
                and np.array_equal(saved.cached_hrep.offsets, loaded.cached_hrep.offsets))
    if not same:
        raise oracles.CheckFailed("the loaded model differs from the saved one")


class Boundary:
    """The MBC use: per operating point, boundary models at 4 and 9 inputs.

    One operation is one operating point. The 4-input model is minimized by
    both routes (the half-space route starts from the vertex centroid), its
    minimizer is checked with ``contains``, and it makes a save/load round
    trip with its H-representation cached. The 9-input model is queried
    with one point inside and one outside its hull. Qhull would need over
    340k facets for a 9-input hull, so 9-input models skip the half-space
    route.
    """

    SIZES = {"full": {"op_points": 7, "vertex_checks": 16},
             "tiny": {"op_points": 2, "vertex_checks": 4}}

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.out_dir = out_dir
        self.totals = {}  # route times and unconverged solves, summed over the run

    def _inputs(self, r):
        ds_seed = _seed(self.seed, 6, r)
        groups4 = boundary.group_by_operating_point(boundary.synth_engine_dataset(ds_seed, 4))
        groups9 = boundary.group_by_operating_point(boundary.synth_engine_dataset(ds_seed, 9))
        objectives = [boundary.synth_bsfc_objective(ds_seed, 4, p)
                      for p in range(self.cfg["op_points"])]
        return groups4, objectives, groups9

    def setup(self):
        self._inputs(0)

    def make_round(self, r):
        g4, f4, g9 = self._inputs(r)
        ops = []
        for p in range(self.cfg["op_points"]):
            raw9 = g9[p][1][:, :9]
            probes = (raw9.mean(axis=0), raw9.mean(axis=0) + 3.0 * np.ptp(raw9, axis=0))
            ops.append(Op(lambda p=p, probes=probes: self._run(p, g4[p], f4[p], g9[p], probes),
                          lambda out, p=p: self._check(out, g4[p][1], g9[p][1])))
        return ops

    def _run(self, p, group4, objective4, group9, probes9):
        clock = time.perf_counter
        path = os.path.join(self.out_dir, f"boundary-op{p}.json")
        t0 = clock()
        model4 = boundary.build_boundary_model(group4[1], range(4), prune=True,
                                               name=f"op{p}", op_point_key=group4[0])
        f4 = model4.map_objective(objective4)
        sv4 = optimize.solve_vrep(f4, [], model4.vrep)
        in4 = queries.contains(model4.vrep, sv4.minimizer)
        t1 = clock()
        conv = polytope.vrep_to_hrep(model4.vrep)
        start = model4.vrep.points.mean(axis=0)
        sh4 = optimize.solve_hrep(f4, [], conv.hrep, start)
        t2 = clock()
        cached = model4.with_cached_hrep(conv.hrep)
        boundary.save_model(cached, path)
        loaded = boundary.load_model(path)
        t3 = clock()
        model9 = boundary.build_boundary_model(group9[1], range(9), prune=True,
                                               name=f"op{p}", op_point_key=group9[0])
        in9 = [model9.contains(x) for x in probes9]
        t4 = clock()
        return {"model4": model4, "f4": f4, "sv4": sv4, "in4": in4, "conv": conv,
                "sh4": sh4, "cached": cached, "loaded": loaded,
                "model9": model9, "probes9": probes9, "in9": in9,
                "routes": {"vrep4_route_s": t1 - t0, "hrep4_route_s": t2 - t1,
                           "model_roundtrip_s": t3 - t2, "vrep9_route_s": t4 - t3,
                           "unconverged_solves": (not sv4.converged) + (not sh4.converged)}}

    def _check(self, out, rows4, rows9):
        for key, val in out["routes"].items():
            self.totals[key] = self.totals.get(key, 0.0) + val
        chk = oracles
        # 4 inputs: pruned vertices and facets against Qhull, both minima
        # against SLSQP and against each other.
        z4 = _normalized_inputs(out["model4"], rows4)
        p4 = np.array(out["model4"].vrep.points)
        ref_vertices = chk.qhull_vertices(z4)
        chk.check_same_rows(p4, ref_vertices, "4-input vertices against Qhull")
        f4, sv4, sh4 = out["f4"], out["sv4"], out["sh4"]
        ref_min = chk.simplex_minimum(ref_vertices, f4.eval, f4.grad)
        chk.check_weights(p4, sv4.minimizer, sv4.weights.alpha)
        chk.check_membership(p4, sv4.minimizer, out["in4"], True)
        chk.check_minimum(sv4.objective, sv4.converged, ref_min, "vertex-route minimum")
        hrep = out["conv"].hrep
        chk.check_facets(p4, hrep.normals, hrep.offsets)
        if np.max(hrep.normals @ sh4.minimizer - hrep.offsets) > chk.GEOM_TOL:
            raise chk.CheckFailed("half-space-route minimizer is outside the hull")
        chk.check_minimum(sh4.objective, sh4.converged, ref_min, "half-space-route minimum")
        if sv4.converged and sh4.converged and abs(sv4.objective - sh4.objective) > chk.OBJECTIVE_TOL:
            raise chk.CheckFailed("the two optimization routes disagree")
        if out["cached"].cached_hrep is not hrep:
            raise chk.CheckFailed("with_cached_hrep did not attach the H-representation")
        _check_roundtrip(out["cached"], out["loaded"])
        # 9 inputs: dropped points are not vertices, a spread of kept ones
        # are (HiGHS); the probe answers hold by their certificates.
        model9 = out["model9"]
        z9 = _normalized_inputs(model9, rows9)
        p9 = np.array(model9.vrep.points)
        rows = {row.tobytes() for row in z9}
        if any(row.tobytes() not in rows for row in p9):
            raise chk.CheckFailed("a 9-input vertex is not one of the input rows")
        kept = {row.tobytes() for row in p9}
        flags = np.array([row.tobytes() in kept for row in z9])
        probe = np.flatnonzero(flags)
        probe = probe[np.linspace(0, probe.size - 1, self.cfg["vertex_checks"]).astype(int)]
        for k in np.concatenate([np.flatnonzero(~flags), probe]):
            verdict = chk.is_vertex(z9, k)
            if verdict is not None and verdict != flags[k]:
                raise chk.CheckFailed(f"9-input point {k}: pruning disagrees with HiGHS")
        for x, res, inside in zip(out["probes9"], out["in9"], (True, False)):
            chk.check_membership(p9, (x - model9.offsets) / model9.scales, res, inside)


WORKLOADS = ("contains-deep", "contains-box", "contains-band", "convert-small",
             "convert-large", "boundary")


def make_workload(name, seed, size="full", out_dir="."):
    if name.startswith("contains-"):
        return Membership(name[len("contains-"):], seed, size)
    if name.startswith("convert-"):
        return Convert(name[len("convert-"):], seed, size)
    if name == "boundary":
        return Boundary(seed, size, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# Per-layer metrics of the traced run: self time per round of each traced
# public function, then counters per round.
SELF_TIMES = (
    "lp.lp_solve",
    "queries.contains", "queries.membership_problem", "queries.is_extreme",
    "queries.extreme_points",
    "polytope.vrep_to_hrep", "polytope.VRep", "polytope.HRep",
    "optimize.solve_vrep", "optimize.project_to_simplex", "optimize.solve_hrep",
    "boundary.build_boundary_model", "boundary.map_objective",
    "boundary.with_cached_hrep", "boundary.save_model", "boundary.load_model",
    "linalg.affine_rank",
    "bench.op",
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, rounds, setup_reps):
    """The per-layer metrics from the spans of the measured rounds."""
    tot = tracer.totals(set(rounds))
    rnd, stp = tot["round"], tot["setup"]
    n = len(rounds)
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_ms"] = (rnd[f"{name}.self_ns"] / n / 1e6, "ms")
    out["lp.calls"] = (rnd["lp.lp_solve.calls"] / n, "count")
    out["lp.pivots"] = (rnd["lp.lp_solve.pivots"] / n, "count")
    out["lp.pivots_per_solve"] = (_ratio(rnd["lp.lp_solve.pivots"],
                                         rnd["lp.lp_solve.calls"]), "count")
    out["queries.extreme_kept_ratio"] = (
        _ratio(rnd["queries.extreme_points.kept"], rnd["queries.extreme_points.tested"]),
        "ratio")
    out["polytope.candidates"] = (rnd["polytope.vrep_to_hrep.candidates"] / n, "count")
    out["polytope.facets"] = (rnd["polytope.vrep_to_hrep.facets"] / n, "count")
    out["polytope.facets_per_candidate"] = (
        _ratio(rnd["polytope.vrep_to_hrep.facets"], rnd["polytope.vrep_to_hrep.candidates"]),
        "ratio")
    for route in ("vrep", "hrep"):
        for counter in ("fun_evals", "iterations", "unconverged"):
            out[f"optimize.{route}_{counter}"] = (
                rnd[f"optimize.solve_{route}.{counter}"] / n, "count")
    out["boundary.model_bytes"] = (rnd["boundary.save_model.bytes"] / n, "bytes")
    out["trace.round_s"] = (sum(v for k, v in rnd.items() if k.endswith(".self_ns"))
                            / n / 1e9, "s")
    out["trace.spans_per_round"] = (sum(v for k, v in rnd.items() if k.endswith(".calls"))
                                    / n, "count")
    for layer in ("polytope", "boundary"):
        out[f"setup.{layer}.self_ms"] = (
            sum(v for k, v in stp.items()
                if k.startswith(layer + ".") and k.endswith(".self_ns")) / setup_reps / 1e6,
            "ms")
    return out


def _percentile(sorted_vals, q):
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def run(name, seed, seconds, trace=False, size="full", out_dir="."):
    """Set up, measure for ``seconds`` (whole rounds, at least one), check.

    Returns ``(result, detail)``: the result object printed last and a record
    of extra figures (latency percentiles, route split, span file).
    """
    workload = make_workload(name, seed, size, out_dir)
    tracer = Tracer().install() if trace else None
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        attempted = failed = 0
        problems = []
        round_times, latencies = [], []
        start = time.perf_counter()
        r = 0
        while True:
            if tracer:
                tracer.round = -1  # input and reference generation is not measured
            ops = workload.make_round(r)
            answers, spent = [], 0.0
            for k, op in enumerate(ops):
                attempted += 1
                if tracer:
                    tracer.round, tracer.op = r, k
                span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        out = op.run()
                except Exception:  # a failed operation is counted, not fatal
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    answers.append(None)
                    continue
                dt = time.perf_counter() - t0
                spent += dt
                latencies.append(dt)
                answers.append(out)
            if tracer:
                tracer.round = -1
            for op, out in zip(ops, answers):
                if out is None:
                    continue
                try:
                    op.check(out)
                except oracles.CheckFailed as exc:
                    problems.append(f"round {r}: {exc}")
            round_times.append(spent)
            r += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    for msg in problems[:10]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    lat = sorted(latencies) or [0.0]
    detail = {"workload": name, "seed": seed, "rounds": r, "ops": len(latencies),
              "round_s_mean": statistics.fmean(round_times),
              "op_p50_ms": statistics.median(lat) * 1e3,
              "op_p90_ms": _percentile(lat, 0.90) * 1e3,
              "op_p99_ms": _percentile(lat, 0.99) * 1e3,
              "setup_repeats": len(setup_times)}
    detail.update({k: v / r for k, v in getattr(workload, "totals", {}).items()})
    if tracer:
        metrics = layer_metrics(tracer, range(r), len(setup_times))
        path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
        tracer.write(path)
        detail["trace_file"] = path
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": (statistics.median(round_times), "s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail
