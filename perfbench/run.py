"""Run one workload of the conedual benchmark and print its metrics.

    python3 perfbench/run.py --workload farkas_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The BLAS and OpenMP thread counts are pinned to 1 before numpy is
imported, and everything runs in this one process.  ``--seconds`` sizes
the seeded item pool to about that much work.  The last line of standard
output is the result, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment and the details of the run.  With
``--trace 1`` the spans of the first traced items are written to
``.bench_out/`` in the checkout.  See ``METRICS.md`` for the workloads and
metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-seed{args.seed}.npz"
            result, details = bench.trace(workload, args.seed, args.seconds, root, spans)
            details["spans"] = str(spans.relative_to(root))
        else:
            result, details = bench.measure(workload, args.seed, args.seconds, root)
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": bench.environment()}
    header.update(details)
    print(json.dumps(header, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
