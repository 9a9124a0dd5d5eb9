#!/usr/bin/env python3
"""Run one benchmark workload against the hullkit sources of this checkout.

    python3 perfbench/run.py --workload contains-deep --seed 1 --seconds 15 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it carries extra figures (latency
percentiles, the boundary route split, the span file). Spans of a traced run
and the boundary workload's model files go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import sys

# One caller thread and no pool threads: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HULLKIT_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hullkit", "__init__.py")):
        print(f"perfbench: no hullkit sources under {src}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads  # after sys.path names the checkout's sources

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    result, detail = workloads.run(args.workload, args.seed, args.seconds,
                                   trace=bool(args.trace), out_dir=out_dir)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
