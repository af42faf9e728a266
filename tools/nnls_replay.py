"""Replay the NNLS calls of a benchmark workload on two checkouts.

    python3 tools/nnls_replay.py PARENT CHANGE --workload clp_grid --seed 5 --seconds 20

PARENT and CHANGE are roots of two checkouts.  The calls are recorded on
PARENT: one Python process imports ``conedual`` from PARENT's ``src/`` and
the workload from its ``perfbench/`` (read-only, no bytecode written),
builds the item pool of ``--seconds`` and runs the workload's ``execute``
on every item, keeping the arguments of every ``nnls`` call.  Each
checkout then replays the same calls in its own process, with the BLAS
threads pinned to 1, and times each call as the best of 5 runs.

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
import pickle
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 5


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def record(tree, workload_name, seed, seconds):
    """The ``(M, b, kwargs)`` of every ``nnls`` call of the pool's items."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import bench
    from workloads import FAILURE_FAMILIES, WORKLOADS, pool_size

    cd = bench.load_package(tree)
    workload = WORKLOADS[workload_name]
    families = tuple(getattr(cd.errors, name) for name in FAILURE_FAMILIES)
    nnls = cd.nnls.nnls
    calls = []

    def recording_nnls(M, b, **kwargs):
        calls.append((np.array(M, dtype=float), np.array(b, dtype=float), kwargs))
        return nnls(M, b, **kwargs)

    # The modules that call nnls imported it by name.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("conedual.") and getattr(module, "nnls", None) is nnls:
            module.nnls = recording_nnls
    for item in workload.make_items(cd, seed, pool_size(workload, seconds)):
        try:
            workload.execute(cd, item)
        except families:
            pass
    return calls


def replay(tree, calls):
    """Per call: the best-of-``REPEATS`` time, and the iterations and ``u``
    of the result, or the failure message."""
    src = Path(tree) / "src"
    sys.path.insert(0, str(src))
    import conedual
    from conedual.errors import SolverFailure
    from conedual.nnls import nnls

    if Path(conedual.__file__).resolve().parent != (src / "conedual").resolve():
        raise RuntimeError(f"conedual was imported from {conedual.__file__}, not from {src}")

    out = []
    for M, b, kwargs in calls:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            try:
                res = nnls(M, b, **kwargs)
            except SolverFailure as exc:
                res = str(exc)
            best = min(best, time.perf_counter() - start)
        if isinstance(res, str):
            out.append({"time": best, "failure": res})
        else:
            out.append({"time": best, "iterations": res.iterations, "u": res.u.tolist()})
    return out


def run_worker(args, stdin=None):
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    cmd = [sys.executable, "-B", __file__, *args]
    return subprocess.run(cmd, input=stdin, capture_output=True, env=env, check=True).stdout


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
    if argv and argv[0] == "--record":
        tree, workload, seed, seconds = argv[1:5]
        pickle.dump(record(tree, workload, int(seed), float(seconds)), sys.stdout.buffer)
        return 0
    if argv and argv[0] == "--replay":
        json.dump(replay(argv[1], pickle.load(sys.stdin.buffer)), sys.stdout)
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    blob = run_worker(["--record", str(parent), args.workload, str(args.seed), str(args.seconds)])
    calls = pickle.loads(blob)
    sides = [json.loads(run_worker(["--replay", str(tree)], stdin=blob)) for tree in (parent, change)]
    summary = summarize([M.shape for M, _, _ in calls], *sides)

    print(f"{args.workload} seed {args.seed}: {len(calls)} nnls calls, best of {REPEATS} per call")
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
