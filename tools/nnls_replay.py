"""Replay the NNLS calls of a benchmark workload on two checkouts.

    python3 tools/nnls_replay.py PARENT CHANGE --workload clp_grid --seed 5 --seconds 20

PARENT and CHANGE are roots of two checkouts.  One worker process, with
the BLAS threads pinned to 1, does all the work.  It loads PARENT's package
and the item pool of ``--seconds`` as ``tools/judgement_gate.py`` does
(read-only, no bytecode written) and runs the workload's ``execute`` on
every item, keeping the ``(M, b)`` of every ``nnls`` call.  It then loads
CHANGE's package beside it and replays every call on both ``nnls``
functions, timing each as the best of 5 runs, with the side that goes
first alternating from one call to the next, so that drift of the machine
falls on both sides alike.

Printed per shape ``(m, k)`` of ``M``, then over all calls: the number of
calls; the mean over the calls of the best-of-5 time per call on each
side; the mean iterations on each side; the calls whose support
(``u > 0``) or outcome (a raised ``SolverFailure``) changed; and the
largest relative move of ``u``, ``max |new - old| / max(|old|, |new|)``
over the entries of a call.  ``--json PATH`` writes the same summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from judgement_gate import THREAD_VARIABLES, load_pool, load_tree

REPEATS = 5


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def record(tree, workload_name, seed, seconds):
    """``(nnls, SolverFailure, calls)``: the checkout's kernel and failure
    class, and the ``(M, b)`` of every ``nnls`` call of the pool's items."""
    cd, workload, families, items = load_pool(tree, workload_name, seed, seconds)
    nnls = cd.nnls.nnls
    calls = []

    def recording_nnls(M, b):
        calls.append((np.array(M, dtype=float), np.array(b, dtype=float)))
        return nnls(M, b)

    # The modules that call nnls imported it by name.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("conedual.") and getattr(module, "nnls", None) is nnls:
            module.nnls = recording_nnls
    for item in items:
        try:
            workload.execute(cd, item)
        except families:
            pass
    return nnls, cd.errors.SolverFailure, calls


def replay_call(nnls, failure, M, b):
    """The best-of-``REPEATS`` time of one call, and the iterations and
    ``u`` of its result, or the failure message."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            res = nnls(M, b)
        except failure as exc:
            res = str(exc)
        best = min(best, time.perf_counter() - start)
    if isinstance(res, str):
        return {"time": best, "failure": res}
    return {"time": best, "iterations": res.iterations, "u": res.u.tolist()}


def measure(parent, change, workload_name, seed, seconds):
    """Record the calls on ``parent``, then replay each on both checkouts,
    the side that goes first alternating; returns the shapes of ``M`` and
    the replays of each side."""
    nnls, failure, calls = record(parent, workload_name, seed, seconds)
    sides = [(nnls, failure)]
    # Dropping PARENT's modules leaves its kernel working: the function
    # keeps its own module globals.
    cd = load_tree(change)
    sides.append((cd.nnls.nnls, cd.errors.SolverFailure))
    replays = ([], [])
    for i, (M, b) in enumerate(calls):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            replays[side].append(replay_call(*sides[side], M, b))
    return {"shapes": [M.shape for M, _ in calls], "parent": replays[0], "change": replays[1]}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def u_move(old, new):
    """``max |new - old| / max(|old|, |new|)`` over the entries, 0 if both are 0."""
    old, new = np.asarray(old), np.asarray(new)
    scale = max(np.abs(old).max(initial=0.0), np.abs(new).max(initial=0.0))
    return float(np.abs(new - old).max(initial=0.0) / scale) if scale > 0.0 else 0.0


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def summarize(shapes, parent, change):
    """Per shape and over ``"all"``: calls, mean times and iterations per
    side (iterations over the calls that returned), changed supports or
    outcomes, and the largest move of ``u``."""
    groups = defaultdict(list)
    for i, shape in enumerate(shapes):
        groups[f"({shape[0]}, {shape[1]})"].append(i)
    groups["all"] = list(range(len(shapes)))
    summary = {}
    for key, idx in groups.items():
        changed, move = 0, 0.0
        for i in idx:
            old, new = parent[i], change[i]
            if "u" in old and "u" in new:
                changed += not np.array_equal(np.greater(old["u"], 0.0), np.greater(new["u"], 0.0))
                move = max(move, u_move(old["u"], new["u"]))
            else:
                changed += old.get("failure") != new.get("failure")
        summary[key] = {
            "calls": len(idx),
            "time_ms": [1e3 * float(np.mean([side[i]["time"] for i in idx])) for side in (parent, change)],
            "iterations": [_mean([side[i]["iterations"] for i in idx if "u" in side[i]]) for side in (parent, change)],
            "support_changes": changed,
            "u_move": move,
        }
    return summary


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--worker":
        parent, change, workload, seed, seconds = argv[1:6]
        json.dump(measure(parent, change, workload, int(seed), float(seconds)), sys.stdout)
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    trees = [str(tree.resolve()) for tree in (args.parent, args.change)]
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    cmd = [sys.executable, "-B", __file__, "--worker", *trees, args.workload, str(args.seed), str(args.seconds)]
    run = json.loads(subprocess.run(cmd, capture_output=True, env=env, check=True).stdout)
    summary = summarize(run["shapes"], run["parent"], run["change"])

    print(f"{args.workload} seed {args.seed}: {len(run['shapes'])} nnls calls, best of {REPEATS} per call,"
          " sides alternating")
    print(f"{'shape':>12} {'calls':>6} {'ms/call parent':>15} {'change':>8} {'iterations parent':>18} {'change':>8}"
          f" {'support changes':>16} {'max u move':>11}")
    for key, row in summary.items():
        print(f"{key:>12} {row['calls']:>6} {row['time_ms'][0]:>15.3f} {row['time_ms'][1]:>8.3f}"
              f" {row['iterations'][0]:>18.2f} {row['iterations'][1]:>8.2f} {row['support_changes']:>16}"
              f" {row['u_move']:>11.2e}")
    if args.json is not None:
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "repeats": REPEATS,
               "shapes": summary}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
