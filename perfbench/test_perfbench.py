"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, backward_substitution_value  # noqa: E402

# Small pools: whole cycles where a workload's cycle is cheap.
SMALL = {"farkas_batch": 70, "pipelines": 12, "clp_grid": 4}


@pytest.fixture(scope="module")
def cd():
    return bench.load_package(ROOT)


def traced_pass(cd, workload, items):
    tracer = Tracer(len(items))
    tracer.install()
    try:
        times, outcomes = bench.run_pass(cd, workload, items, bench.SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
    return tracer, times, outcomes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outcomes_match(cd, name):
    workload = WORKLOADS[name]
    items = workload.make_items(cd, 5, SMALL[name])
    _, plain = bench.run_pass(cd, workload, items, bench.SpeedProbe())
    _, _, seen = traced_pass(cd, workload, items)
    assert plain == seen
    assert "wrong" not in plain


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(cd, name):
    workload = WORKLOADS[name]
    items = workload.make_items(cd, 7, SMALL[name])
    first = traced_pass(cd, workload, items)[0].metrics(len(items))
    second = traced_pass(cd, workload, items)[0].metrics(len(items))
    counts = [k for k in first if bench.per_layer_unit(k) in ("count/item", "B/item", "ratio")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_are_nonnegative_and_within_wall_time(cd, name):
    workload = WORKLOADS[name]
    items = workload.make_items(cd, 9, SMALL[name])
    tracer, times, _ = traced_pass(cd, workload, items)
    # A sum of child durations may round past its parent's by an ulp.
    assert min(tracer.self_time) >= -1e-12
    assert sum(tracer.self_time) <= sum(times)
    start = np.frombuffer(tracer.rec_start)
    end = np.frombuffer(tracer.rec_end)
    parent = np.frombuffer(tracer.rec_parent, dtype=np.int64)
    assert len(start) > 0 and np.all(end >= start)
    nested = parent >= 0
    assert np.all(start[nested] >= start[parent[nested]])
    assert np.all(end[nested] <= end[parent[nested]])


def _fingerprint(name, items):
    if name == "farkas_batch":
        return [b.tolist() for _, b, _ in items]
    if name == "pipelines":
        return [data.b.tolist() for _, data in items]
    return [item.b_vec.tolist() + item.k0.ravel().tolist() for item in items]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(cd, name):
    workload = WORKLOADS[name]
    first = _fingerprint(name, workload.make_items(cd, 1, SMALL[name]))
    again = _fingerprint(name, workload.make_items(cd, 1, SMALL[name]))
    other = _fingerprint(name, workload.make_items(cd, 2, SMALL[name]))
    assert first == again
    assert first != other


def test_oracle_matches_solver_on_scalar_programs(cd):
    workload = WORKLOADS["clp_grid"]
    items = [i for i in workload.make_items(cd, 4, 8) if i.spec.m == i.spec.n == 1]
    assert len(items) == 2
    for item in items:
        report = cd.duality.solve(cd.continuous_lp.discretize_clp(item.spec))
        assert report.v_primal == pytest.approx(backward_substitution_value(item), rel=1e-9)


def test_tail_keeps_ten_samples_beyond():
    ordered = list(range(100))
    assert len(ordered) - 1 - bench.tail_rank(len(ordered)) == bench.TAIL_EXCESS
    with pytest.raises(bench.BenchError):
        bench.tail_rank(bench.TAIL_EXCESS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "clp_grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
