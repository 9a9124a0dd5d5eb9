"""``hullkit`` command-line interface.

Subcommands: gen, convert, contains, vertices, optimize, bench-conversion,
bench-membership, bench-optimize. Exit codes: 0 success, 2 usage error,
3 I/O error, 4 numerical failure (an ``ArithmeticError`` such as the
simplex iteration cap).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bench as bench_mod
from .boundary import BoundaryModel, load_model, save_csv, synth_engine_dataset
from .errors import ConversionTimeout, DimensionError, HullkitError, ParseError, \
    SchemaError
from .optimize import Objective, chebyshev_center, solve_hrep, solve_vrep
from .polytope import VRep, _read_json, cross_polytope, load_vrep, \
    random_point_set, save_hrep, save_vrep, unit_cube, vrep_to_hrep
from .queries import contains, extreme_mask, extreme_points

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _parse_grid(text):
    cells = []
    for part in text.split(","):
        try:
            m, n = part.lower().split("x")
            cells.append((int(m), int(n)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad grid cell {part!r}; expected MxN like 100x5") from None
    return cells


def _parse_point(text):
    try:
        return np.array([float(c) for c in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinate list {text!r}") from None


def _emit(args, rows):
    table = bench_mod.emit_table(rows, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)


def _load_queryable(path):
    """Load either a plain VRep JSON or a boundary-model JSON."""
    doc = _read_json(path)
    if "schema_version" in doc:
        return BoundaryModel.from_dict(doc)
    return VRep.from_dict(doc)


def _cmd_gen(args):
    if args.kind == "random":
        if args.m is None or args.n is None:
            raise DimensionError("gen random needs --m and --n")
        vrep = random_point_set(args.m, args.n, seed=args.seed)
        out = args.out or f"random_m{args.m}_n{args.n}_s{args.seed}.vrep.json"
        save_vrep(vrep, out)
        print(f"random {vrep.n_points} {vrep.dim} {args.seed} {out}")
    elif args.kind in ("cube", "cross"):
        if args.n is None:
            raise DimensionError(f"gen {args.kind} needs --n")
        vrep, hrep = unit_cube(args.n) if args.kind == "cube" else cross_polytope(args.n)
        base = args.out or f"{args.kind}{args.n}"
        paths = []
        if vrep is not None:
            save_vrep(vrep, base + ".vrep.json")
            paths.append(base + ".vrep.json")
        if hrep is not None:
            save_hrep(hrep, base + ".hrep.json")
            paths.append(base + ".hrep.json")
        m = vrep.n_points if vrep is not None else 0
        print(f"{args.kind} {m} {args.n} {'+'.join(paths)}")
    elif args.kind == "engine":
        dataset = synth_engine_dataset(args.seed, args.inputs)
        out = args.out or f"engine_n{args.inputs}_s{args.seed}.csv"
        save_csv(dataset, out)
        print(f"engine {dataset.rows.shape[0]} {args.inputs} {args.seed} {out}")
    return EXIT_OK


def _cmd_convert(args):
    vrep = load_vrep(args.vrep)
    try:
        report = vrep_to_hrep(vrep, deadline_s=args.timeout_s)
    except ConversionTimeout as t:
        print(f"timed out after {t.elapsed:.3f} s "
              f"({t.candidates_examined} candidates examined)")
        return EXIT_OK
    out = args.out or args.vrep + ".hrep.json"
    save_hrep(report.hrep, out)
    print(f"facets {report.facet_count} elapsed {report.elapsed:.6f} s "
          f"candidates {report.candidates_examined} ridges {report.ridges_walked} "
          f"refit {report.simplices_refit} slivers {report.slivers_dropped} "
          f"merged {report.facets_merged} {out}")
    return EXIT_OK


def _cmd_contains(args):
    target = _load_queryable(args.path)
    dim = target.dim if isinstance(target, VRep) else target.vrep.dim
    queries = [q for q in (args.query or [])]
    if args.queries_csv:
        with open(args.queries_csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        first = True
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = np.array([float(c) for c in line.split(",")])
            except ValueError:
                if not first:  # only a non-numeric first line is a header
                    raise ParseError(f"could not parse query row {line!r}",
                                     line=lineno) from None
            else:
                # Checked here so that a bad row stops the run before any answer.
                if row.shape[0] != dim or not np.isfinite(row).all():
                    raise ParseError(f"query row {line!r} needs {dim} finite entries",
                                     line=lineno)
                queries.append(row)
            first = False
    if not queries:
        raise DimensionError("no queries given; use --query or --queries-csv")
    for q in queries:
        t0 = time.perf_counter()
        if isinstance(target, VRep):
            res = contains(target, q)
        else:
            res = target.contains(q)
        micros = (time.perf_counter() - t0) * 1e6
        print(f"{'inside' if res.inside else 'outside'} {micros:.1f}us {res.source}")
    return EXIT_OK


def _cmd_vertices(args):
    vrep = load_vrep(args.vrep)
    mask, certified = extreme_mask(vrep)
    idx = np.flatnonzero(mask).tolist()
    out = args.out or args.vrep + ".pruned.json"
    save_vrep(VRep(vrep.points[idx]), out)
    print(f"extreme {len(idx)} of {vrep.n_points}: {idx}")
    print(f"certified {certified} lp {vrep.n_points - certified}")
    print(f"pruned vrep written to {out}")
    return EXIT_OK


def _cmd_optimize(args):
    if args.model:
        model = load_model(args.model)
        vrep = model.vrep
        target_raw = _parse_point(args.target)
        if target_raw.shape[0] != model.vrep.dim:
            raise DimensionError("target dimension does not match the model")
        target = model.normalize(target_raw)
    else:
        vrep = load_vrep(args.vrep)
        model = None
        target = _parse_point(args.target)
        if target.shape[0] != vrep.dim:
            raise DimensionError("target dimension does not match the point set")
    if args.prune:
        vrep = extreme_points(vrep)

    f = Objective(dim=vrep.dim,
                  eval=lambda x: float(np.sum((x - target) ** 2)),
                  grad=lambda x: 2.0 * (x - target))

    def report(tag, res):
        x = res.minimizer if model is None else model.denormalize(res.minimizer)
        coords = ",".join(f"{c:.9g}" for c in x)
        print(f"{tag} objective {res.objective:.9g} minimizer {coords} "
              f"elapsed {res.elapsed:.4f} s converged {res.converged} gap {res.gap:.3g}")

    if args.route in ("vrep", "both"):
        report("vrep", solve_vrep(f, [], vrep))
    if args.route in ("hrep", "both"):
        try:
            conv = vrep_to_hrep(vrep, deadline_s=args.timeout_s)
        except ConversionTimeout as t:
            print(f"hrep conversion timed out after {t.elapsed:.3f} s")
            return EXIT_OK
        start = chebyshev_center(conv.hrep)
        report("hrep", solve_hrep(f, [], conv.hrep, start))
    return EXIT_OK


def _cmd_bench_conversion(args):
    rows = bench_mod.bench_conversion(args.grid, seeds=args.seeds,
                                      timeout_s=args.timeout_s, base_seed=args.seed)
    _emit(args, rows)
    return EXIT_OK


def _cmd_bench_membership(args):
    rows = bench_mod.bench_membership(args.grid, seeds=args.seeds,
                                      queries_per_cell=args.queries,
                                      base_seed=args.seed)
    _emit(args, rows)
    return EXIT_OK


def _cmd_bench_optimize(args):
    rows = bench_mod.bench_optimize(args.inputs, seed=args.seed,
                                    timeout_s=args.timeout_s, prune=args.prune,
                                    normalize=not args.no_normalize)
    _emit(args, rows)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(prog="hullkit",
                                     description="Hull representations, membership "
                                                 "tests, and hull-constrained optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, timeout=False, bench=False):
        if timeout:
            p.add_argument("--timeout-s", type=float, default=60.0)
        if bench:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--format", choices=("csv", "markdown"), default="csv")
            p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="generate point sets and datasets")
    p.add_argument("kind", choices=("random", "cube", "cross", "engine"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--inputs", type=int, choices=(4, 7, 9), default=4)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="enumerate facets of a point-set hull "
                                       "by the output-sensitive ridge walk")
    p.add_argument("vrep")
    p.add_argument("--out", default=None)
    common(p, timeout=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("contains", help="membership tests against a hull or model")
    p.add_argument("path")
    p.add_argument("--query", type=_parse_point, action="append")
    p.add_argument("--queries-csv", default=None)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("vertices", help="classify extreme points and write the pruned hull")
    p.add_argument("vrep")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("optimize", help="minimize a quadratic target distance over a hull")
    p.add_argument("--vrep", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--route", choices=("vrep", "hrep", "both"), default="vrep")
    p.add_argument("--prune", action="store_true")
    common(p, timeout=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bench-conversion", help="facet-enumeration timing table")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--seeds", type=int, default=3)
    common(p, timeout=True, bench=True)
    p.set_defaults(func=_cmd_bench_conversion)

    p = sub.add_parser("bench-membership", help="membership timing table")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--queries", type=int, default=20)
    common(p, bench=True)
    p.set_defaults(func=_cmd_bench_membership)

    p = sub.add_parser("bench-optimize", help="per-operating-point optimization table")
    p.add_argument("--inputs", type=int, choices=(4, 7, 9), required=True)
    p.add_argument("--prune", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    common(p, timeout=True, bench=True)
    p.set_defaults(func=_cmd_bench_optimize)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "optimize" and bool(args.model) == bool(args.vrep):
        parser.error("optimize needs exactly one of --model or --vrep")
    if args.command == "gen":
        if args.kind in ("cube", "cross") and args.seed is not None:
            parser.error(f"gen {args.kind} does not read --seed")
        args.seed = args.seed or 0
    try:
        return args.func(args)
    except (ParseError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (HullkitError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
