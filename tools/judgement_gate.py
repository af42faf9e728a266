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
judgement changes by item kind (``kind old -> new``) and, per item kind,
how many items changed each output field.  ``--json PATH`` writes the same
summary.  The exit status is 1 when a judgement moves from passing to
failing or a seed's failure total rises, 2 when the pools differ in size,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
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


def flatten(value, path="", out=None):
    """``{field path: canonical string}`` for the leaves of an output."""
    out = {} if out is None else out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            flatten(getattr(value, f.name), f"{path}.{f.name}", out)
    elif isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
        out[path] = f"{value.dtype}{value.shape}:{digest}"
    elif isinstance(value, (list, tuple)):
        out[path] = f"{type(value).__name__}[{len(value)}]"
        for i, v in enumerate(value):
            flatten(v, f"{path}[{i}]", out)
    elif isinstance(value, dict):
        for key in sorted(value):
            flatten(value[key], f"{path}[{key!r}]", out)
    elif isinstance(value, (float, np.floating)):
        out[path] = float(value).hex()
    else:
        out[path] = repr(value)
    return out


def item_kind(workload, item):
    if isinstance(item, tuple) and item and isinstance(item[0], str):
        return item[0]
    return workload.name


def run_tree(tree, workload_name, seed, seconds):
    """Execute and judge every pool item in this process; returns records."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import bench
    from workloads import FAILURE_FAMILIES, WORKLOADS, pool_size

    cd = bench.load_package(tree)
    workload = WORKLOADS[workload_name]
    families = tuple(getattr(cd.errors, name) for name in FAILURE_FAMILIES)
    records = []
    for item in workload.make_items(cd, seed, pool_size(workload, seconds)):
        try:
            result = workload.execute(cd, item)
        except families as exc:
            judgement, fields = type(exc).__name__, {"raised": f"{type(exc).__name__}: {exc}"}
        else:
            judgement, fields = workload.judge(item, result), flatten(result)
        records.append({"kind": item_kind(workload, item), "judgement": judgement, "fields": fields})
    return records


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _label(judgement):
    return "pass" if judgement is None else judgement


def compare(parent, change):
    """Summary of one seed: failure totals, judgement and field changes."""
    if len(parent) != len(change):
        raise ValueError(f"pools differ in size: {len(parent)} against {len(change)} items")
    judgements = Counter()
    fields = Counter()
    regressions = 0
    for old, new in zip(parent, change):
        if old["judgement"] != new["judgement"]:
            judgements[f"{old['kind']} {_label(old['judgement'])} -> {_label(new['judgement'])}"] += 1
            regressions += old["judgement"] is None
        for key in sorted(set(old["fields"]) | set(new["fields"])):
            if old["fields"].get(key) != new["fields"].get(key):
                fields[f"{old['kind']} {key}"] += 1
    return {
        "items": len(parent),
        "failed": [sum(r["judgement"] is not None for r in side) for side in (parent, change)],
        "judgement_changes": dict(sorted(judgements.items())),
        "field_changes": dict(sorted(fields.items())),
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
    totals_j, totals_f = Counter(), Counter()
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
        print(f"seed {seed}: items {summary['items']}, failed {summary['failed'][0]} -> {summary['failed'][1]}")

    rises = [seed for seed, s in per_seed.items() if s["failed"][1] > s["failed"][0]]
    pass_to_fail = sum(s["pass_to_fail"] for s in per_seed.values())
    print(f"judgement changes: {sum(totals_j.values())}")
    for key, count in sorted(totals_j.items()):
        print(f"  {key}: {count}")
    print(f"items with a changed field, per kind and field: {len(totals_f)} fields")
    for key, count in sorted(totals_f.items()):
        print(f"  {key}: {count}")
    print(f"seeds whose failure total rose: {rises or 'none'}; pass -> fail: {pass_to_fail}")
    if args.json is not None:
        doc = {
            "workload": args.workload,
            "seconds": args.seconds,
            "seeds": per_seed,
            "judgement_changes": dict(sorted(totals_j.items())),
            "field_changes": dict(sorted(totals_f.items())),
            "seeds_where_failures_rose": rises,
            "pass_to_fail": pass_to_fail,
        }
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if rises or pass_to_fail else 0


if __name__ == "__main__":
    sys.exit(main())
