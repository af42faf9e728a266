"""Compare the judgements and outputs of two checkouts on a benchmark workload.

    python3 tools/judgement_gate.py PARENT CHANGE --workload pipelines --seeds 11-60 --seconds 20

PARENT and CHANGE are roots of two checkouts.  For each seed, each checkout
runs in its own Python process: it imports ``conedual`` from its own
``src/`` and the workload from its own ``perfbench/`` (read-only, no
bytecode written), builds the item pool of ``--seconds``, and calls the
workload's ``execute`` and ``judge`` on every item as the benchmark does,
with the failure families judged by their class name.  Every output is
flattened into fields (floats by their hex form, arrays by dtype, shape and
a digest of their bytes) and the two checkouts are compared item by item.

Printed: per seed, the items and the failed items of both trees; then the
judgement changes by item kind (``kind old -> new``), per item kind how
many items changed each output field, and per item kind and float field
the largest relative value move over all items: ``max |new - old|`` over
the entries of the field, divided by ``1 + max(|old|, |new|)``, as the
package's tolerances scale (``inf`` where only one side is finite).
``--json PATH`` writes the same summary.  The exit status is 1 when a judgement moves from passing to
failing or a seed's failure total rises, 2 when the pools differ in size,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Worker: one checkout, one seed
# ---------------------------------------------------------------------------


def flatten(value, path="", out=None, values=None):
    """``{field path: canonical string}`` for the leaves of an output.

    With a ``values`` dict, the entries of each float leaf and each float
    or complex array (real parts, then imaginary parts) go there as a list
    of floats under the same path."""
    out = {} if out is None else out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            flatten(getattr(value, f.name), f"{path}.{f.name}", out, values)
    elif isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
        out[path] = f"{value.dtype}{value.shape}:{digest}"
        if values is not None and np.issubdtype(value.dtype, np.inexact):
            parts = [value.real, value.imag] if np.iscomplexobj(value) else [value]
            values[path] = np.concatenate([part.ravel() for part in parts]).tolist()
    elif isinstance(value, (list, tuple)):
        out[path] = f"{type(value).__name__}[{len(value)}]"
        for i, v in enumerate(value):
            flatten(v, f"{path}[{i}]", out, values)
    elif isinstance(value, dict):
        for key in sorted(value):
            flatten(value[key], f"{path}[{key!r}]", out, values)
    elif isinstance(value, (float, np.floating)):
        out[path] = float(value).hex()
        if values is not None:
            values[path] = [float(value)]
    else:
        out[path] = repr(value)
    return out


def value_move(old, new):
    """``max |new - old| / (1 + max(|old|, |new|))`` over the entries of a
    field; 0 where equal entries are not finite, ``inf`` where one is."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    if same.all():
        return 0.0
    if not (np.isfinite(old[~same]).all() and np.isfinite(new[~same]).all()):
        return math.inf
    scale = 1.0 + max(np.abs(old[~same]).max(), np.abs(new[~same]).max())
    return float(np.abs(new[~same] - old[~same]).max() / scale)


def item_kind(workload, item):
    if isinstance(item, tuple) and item and isinstance(item[0], str):
        return item[0]
    return workload.name


def load_tree(tree):
    """Put the checkout's ``perfbench/`` on the path and import ``conedual``
    from its ``src/`` by that ``bench.load_package``; returns the modules."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import bench

    return bench.load_package(tree)


def load_pool(tree, workload_name, seed, seconds):
    """``(cd, workload, families, items)``: the checkout's modules, the
    workload, its failure families and the item pool of ``seconds``."""
    cd = load_tree(tree)
    from workloads import FAILURE_FAMILIES, WORKLOADS, pool_size

    workload = WORKLOADS[workload_name]
    families = tuple(getattr(cd.errors, name) for name in FAILURE_FAMILIES)
    return cd, workload, families, workload.make_items(cd, seed, pool_size(workload, seconds))


def run_tree(tree, workload_name, seed, seconds):
    """Execute and judge every pool item in this process; returns records."""
    cd, workload, families, items = load_pool(tree, workload_name, seed, seconds)
    records = []
    for item in items:
        try:
            result = workload.execute(cd, item)
        except families as exc:
            judgement, fields, values = type(exc).__name__, {"raised": f"{type(exc).__name__}: {exc}"}, {}
        else:
            values = {}
            judgement, fields = workload.judge(item, result), flatten(result, values=values)
        records.append({"kind": item_kind(workload, item), "judgement": judgement, "fields": fields, "values": values})
    return records


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _label(judgement):
    return "pass" if judgement is None else judgement


def compare(parent, change):
    """Summary of one seed: failure totals, judgement and field changes,
    and the largest value move of each float field that moved."""
    if len(parent) != len(change):
        raise ValueError(f"pools differ in size: {len(parent)} against {len(change)} items")
    judgements = Counter()
    fields = Counter()
    moves = {}
    regressions = 0
    for old, new in zip(parent, change):
        if old["judgement"] != new["judgement"]:
            judgements[f"{old['kind']} {_label(old['judgement'])} -> {_label(new['judgement'])}"] += 1
            regressions += old["judgement"] is None
        for key in sorted(set(old["fields"]) | set(new["fields"])):
            if old["fields"].get(key) != new["fields"].get(key):
                fields[f"{old['kind']} {key}"] += 1
                a, b = old.get("values", {}).get(key), new.get("values", {}).get(key)
                if a is not None and b is not None and len(a) == len(b):
                    name = f"{old['kind']} {key}"
                    moves[name] = max(moves.get(name, 0.0), value_move(a, b))
    return {
        "items": len(parent),
        "failed": [sum(r["judgement"] is not None for r in side) for side in (parent, change)],
        "judgement_changes": dict(sorted(judgements.items())),
        "field_changes": dict(sorted(fields.items())),
        "value_moves": {key: move for key, move in sorted(moves.items()) if move > 0.0},
        "pass_to_fail": regressions,
    }


def start_worker(tree, workload, seed, seconds):
    """A process that runs one checkout's pool; ``-B`` writes no bytecode there."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    cmd = [sys.executable, "-B", __file__, "--worker", str(tree), workload, str(seed), str(seconds)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--worker":
        tree, workload, seed, seconds = argv[1:5]
        json.dump(run_tree(tree, workload, int(seed), float(seconds)), sys.stdout)
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range like 11-60")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    per_seed = {}
    totals_j, totals_f, moves = Counter(), Counter(), {}
    for seed in parse_seeds(args.seeds):
        procs = [start_worker(tree.resolve(), args.workload, seed, args.seconds) for tree in (args.parent, args.change)]
        outputs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode for proc in procs):
            print(f"seed {seed}: a worker failed", file=sys.stderr)
            return 2
        try:
            summary = compare(*(json.loads(text) for text in outputs))
        except ValueError as exc:
            print(f"seed {seed}: {exc}", file=sys.stderr)
            return 2
        per_seed[seed] = summary
        totals_j.update(summary["judgement_changes"])
        totals_f.update(summary["field_changes"])
        for key, move in summary["value_moves"].items():
            moves[key] = max(moves.get(key, 0.0), move)
        print(f"seed {seed}: items {summary['items']}, failed {summary['failed'][0]} -> {summary['failed'][1]}")

    rises = [seed for seed, s in per_seed.items() if s["failed"][1] > s["failed"][0]]
    pass_to_fail = sum(s["pass_to_fail"] for s in per_seed.values())
    print(f"judgement changes: {sum(totals_j.values())}")
    for key, count in sorted(totals_j.items()):
        print(f"  {key}: {count}")
    print(f"items with a changed field, per kind and field: {len(totals_f)} fields")
    for key, count in sorted(totals_f.items()):
        print(f"  {key}: {count}")
    print(f"largest relative value move, per kind and float field: {len(moves)} fields")
    for key, move in sorted(moves.items()):
        print(f"  {key}: {move:.3e}")
    print(f"seeds whose failure total rose: {rises or 'none'}; pass -> fail: {pass_to_fail}")
    if args.json is not None:
        doc = {
            "workload": args.workload,
            "seconds": args.seconds,
            "seeds": per_seed,
            "judgement_changes": dict(sorted(totals_j.items())),
            "field_changes": dict(sorted(totals_f.items())),
            "value_moves": dict(sorted(moves.items())),
            "seeds_where_failures_rose": rises,
            "pass_to_fail": pass_to_fail,
        }
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if rises or pass_to_fail else 0


if __name__ == "__main__":
    sys.exit(main())
