"""Time two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --seed 1093 --pairs 10 --seconds 20 --json BENCH_x.json

PARENT and CHANGE are roots of two checkouts.  Each run is one process of
the checkout's own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, started in that checkout with ``-B`` (no bytecode written;
with ``--trace 0`` the benchmark writes no other file) and the BLAS
threads pinned to 1, as ``tools/judgement_gate.py`` pins them.  One run at
a time: in every pair each workload of CHANGE's ``BENCHMARK.json`` runs
once on each side, in that file's order, and the side that runs first
alternates from pair to pair, the parent first in the first pair.

Printed per workload and end-to-end metric: the median and the quartiles
of each side's runs and the pairs the change won, that is, read better in
the metric's direction.  ``--json PATH`` writes, per workload: the
attempted, failed and correct counts of every run, and per metric the
unit, direction and bound read from ``BENCHMARK.json``, each side's runs,
median, q1 and q3 (linear interpolation) and the pairs won and lost; and
the environment that ``perfbench/run.py`` reports for each side.  The exit
status is 2 when a run fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from judgement_gate import THREAD_VARIABLES

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """``(header, result)``: the last two lines of one benchmark run, or
    raises ``RuntimeError`` with its stderr."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{name: "1" for name in THREAD_VARIABLES})
    cmd = [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: {' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr.strip()}")
    header, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(header), json.loads(result)


def spread(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"runs": runs, "median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(metrics, results):
    """Per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``), the
    runs and their spread on both sides and the pairs the change won and
    lost; ``results`` holds each side's run results in pair order."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        diffs = [sign * (new - old) for old, new in zip(runs["parent"], runs["change"])]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: spread(runs[side]) for side in SIDES},
            "change_wins": sum(d > 0 for d in diffs),
            "change_losses": sum(d < 0 for d in diffs),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    orders = [SIDES[::-1] if pair % 2 else SIDES for pair in range(args.pairs)]
    environment = {}
    for pair in range(args.pairs):
        for workload in workloads:
            for side in orders[pair]:
                try:
                    header, result = run_once(trees[side], workload, args.seed, args.seconds)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                environment.setdefault(side, header["env"])
                results[workload][side].append(result)
        print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)

    doc = {
        "command": f"python3 tools/bench_pairs.py PARENT CHANGE --seed {args.seed} --pairs {args.pairs} --seconds {args.seconds}",
        "workload_order": workloads,
        "first_side": [order[0] for order in orders],
        "environment": environment,
        "workloads": {},
    }
    for workload in workloads:
        runs = {side: [{k: r[k] for k in ("attempted", "failed", "correct")} for r in results[workload][side]] for side in SIDES}
        metrics = summarize(benchmark["end_to_end"], results[workload])
        doc["workloads"][workload] = {"runs": runs, "metrics": metrics}
        print(workload)
        for name, row in metrics.items():
            p, c = row["parent"], row["change"]
            print(f"  {name:16s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  change {c['median']:.6g} "
                  f"[{c['q1']:.6g}, {c['q3']:.6g}]  change better in {row['change_wins']} of {args.pairs}")
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
