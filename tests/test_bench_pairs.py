"""The tool that times two checkouts on the benchmark in alternating pairs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool(monkeypatch):
    # The tool imports judgement_gate from its own directory.
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def written():
    """The files under the checkout's ``perfbench/`` and ``.bench_out/``."""
    return sorted(path for folder in ("perfbench", ".bench_out") for path in (ROOT / folder).rglob("*"))


def test_repo_against_itself_for_one_pair(tmp_path):
    out = tmp_path / "pairs.json"
    before = written()
    cmd = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seed", "11", "--pairs", "1", "--seconds", "0.5"]
    run = subprocess.run(cmd + ["--json", str(out)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # The runs write nothing into the checkout.
    assert written() == before
    doc = json.loads(out.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workload_order"] == [w["name"] for w in benchmark["workloads"]] == list(doc["workloads"])
    assert doc["first_side"] == ["parent"] and set(doc["environment"]) == {"parent", "change"}
    for name, row in doc["workloads"].items():
        assert name in run.stdout
        for side in ("parent", "change"):
            (counts,) = row["runs"][side]
            assert counts["attempted"] > 0 and counts["failed"] == 0 and counts["correct"]
        assert list(row["metrics"]) == [m["name"] for m in benchmark["end_to_end"]]
        for metric in benchmark["end_to_end"]:
            summary = row["metrics"][metric["name"]]
            assert {k: summary[k] for k in ("unit", "better", "bound")} == {k: metric[k] for k in ("unit", "better", "bound")}
            for side in ("parent", "change"):
                (value,) = summary[side]["runs"]
                assert summary[side]["median"] == summary[side]["q1"] == summary[side]["q3"] == value
            assert summary["change_wins"] + summary["change_losses"] <= 1


def test_pairs_are_won_in_the_direction_of_the_metric(monkeypatch):
    tool = load_tool(monkeypatch)
    metrics = [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ]

    def result(rate, latency):
        return {"metrics": {"items_per_s": {"value": rate}, "latency_p50_ms": {"value": latency}}}

    results = {
        "parent": [result(10.0, 2.0), result(10.0, 2.0), result(10.0, 2.0), result(14.0, 1.0)],
        "change": [result(12.0, 1.0), result(12.0, 3.0), result(10.0, 2.0), result(11.0, 1.0)],
    }
    summary = tool.summarize(metrics, results)
    assert (summary["items_per_s"]["change_wins"], summary["items_per_s"]["change_losses"]) == (2, 1)
    assert (summary["latency_p50_ms"]["change_wins"], summary["latency_p50_ms"]["change_losses"]) == (1, 1)
    parent = summary["items_per_s"]["parent"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (10.0, 10.0, 11.0)
