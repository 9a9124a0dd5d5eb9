"""In-memory spans around hullkit's public functions, for the traced run.

:meth:`Tracer.install` rebinds every traced public function in each hullkit
module that holds it (so calls between modules are caught too), plus the
construction hooks of ``VRep``/``HRep`` and two ``BoundaryModel`` methods, to
a wrapper that records one span per call: name, start, end, parent, the
operation it belongs to, and the counters the call's result already carries.
The untraced run installs nothing. Spans stay in memory until
:meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _lp_counts(args, kwargs, out):
    return {"pivots": out.iterations}


def _conversion_counts(args, kwargs, out):
    return {"facets": out.facet_count, "candidates": out.candidates_examined}


def _solve_counts(args, kwargs, out):
    return {"fun_evals": out.fun_evals, "iterations": out.iterations,
            "unconverged": int(not out.converged)}


def _extreme_counts(args, kwargs, out):
    return {"tested": args[0].n_points, "kept": out.n_points}


def _save_counts(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


# (module, function) -> counter extractor or None.
TRACED = {
    ("lp", "lp_solve"): _lp_counts,
    ("queries", "contains"): None,
    ("queries", "membership_problem"): None,
    ("queries", "is_extreme"): None,
    ("queries", "extreme_points"): _extreme_counts,
    ("polytope", "vrep_to_hrep"): _conversion_counts,
    ("polytope", "random_point_set"): None,
    ("optimize", "solve_vrep"): _solve_counts,
    ("optimize", "solve_hrep"): _solve_counts,
    ("optimize", "project_to_simplex"): None,
    ("boundary", "build_boundary_model"): None,
    ("boundary", "group_by_operating_point"): None,
    ("boundary", "synth_engine_dataset"): None,
    ("boundary", "synth_bsfc_objective"): None,
    ("boundary", "save_model"): _save_counts,
    ("boundary", "load_model"): None,
    ("linalg", "affine_rank"): None,
}
# (module, class, method, span name)
TRACED_METHODS = (
    ("polytope", "VRep", "__post_init__", "polytope.VRep"),
    ("polytope", "HRep", "__post_init__", "polytope.HRep"),
    ("boundary", "BoundaryModel", "with_cached_hrep", "boundary.with_cached_hrep"),
    ("boundary", "BoundaryModel", "map_objective", "boundary.map_objective"),
)


class Tracer:
    """Collects spans ``[name, start_ns, end_ns, parent, round, op, counters]``."""

    def __init__(self):
        self.spans = []
        self.round = None  # None during set-up
        self.op = None
        self._stack = []
        self._restore = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.round, self.op, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counters is not None:
                rec[6] = counters(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Rebind the traced functions in every loaded hullkit module; undo
        with :meth:`uninstall`."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "hullkit" or name.startswith("hullkit.")]
        for (mod, fname), counters in TRACED.items():
            original = getattr(importlib.import_module(f"hullkit.{mod}"), fname)
            wrapper = self._wrap(f"{mod}.{fname}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for mod, cls_name, meth, name in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"hullkit.{mod}"), cls_name)
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, None))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times_ns(self):
        """Self time of every span: its duration minus its children's."""
        child = np.zeros(len(self.spans), dtype=np.int64)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return np.array([end - start for _, start, end, *_ in self.spans],
                        dtype=np.int64) - child

    def totals(self, rounds):
        """Per-name self time (ns) and counter sums, split into set-up spans
        and spans of the given rounds."""
        selfs = self.self_times_ns()
        out = {"setup": defaultdict(float), "round": defaultdict(float)}
        for rec, st in zip(self.spans, selfs):
            name, _, _, _, rnd, _, counters = rec
            if rnd is None:
                phase = "setup"
            elif rnd in rounds:
                phase = "round"
            else:
                continue
            out[phase][name + ".self_ns"] += st
            out[phase][name + ".calls"] += 1
            for key, val in (counters or {}).items():
                out[phase][f"{name}.{key}"] += val
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, rnd, op, counters) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "round": rnd,
                                     "op": op, "counters": counters}) + "\n")
