"""The tool that replays a workload's NNLS calls on two checkouts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "nnls_replay.py"


def load_tool(monkeypatch):
    # The tool imports judgement_gate from its own directory.
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("nnls_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_against_itself_on_a_tiny_clp_grid_pool(tmp_path):
    out = tmp_path / "replay.json"
    cmd = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "clp_grid", "--seed", "11"]
    run = subprocess.run(cmd + ["--seconds", "0.1", "--json", str(out)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    shapes = json.loads(out.read_text())["shapes"]
    assert set(shapes) == {"(64, 64)", "(128, 64)", "(64, 128)", "(128, 128)", "all"}
    assert shapes["all"]["calls"] == sum(row["calls"] for key, row in shapes.items() if key != "all")
    for key, row in shapes.items():
        assert key in run.stdout
        assert row["iterations"][0] == row["iterations"][1]
        assert row["support_changes"] == 0 and row["outcome_changes"] == 0 and row["u_move"] == 0.0
        assert all(t > 0.0 for t in row["time_ms"])


def test_summarize_counts_outcome_changes_apart_from_support_changes(monkeypatch):
    tool = load_tool(monkeypatch)
    shapes = [(2, 2), (2, 2), (2, 2), (3, 2), (3, 2), (3, 2)]
    parent = [
        {"time": 1e-3, "iterations": 2, "u": [1.0, 0.0]},
        {"time": 1e-3, "iterations": 2, "u": [1.0, 2.0]},
        {"time": 1e-3, "failure": "NNLS iteration cap exceeded"},
        {"time": 2e-3, "iterations": 1, "u": [0.0, 4.0]},
        {"time": 2e-3, "failure": "NNLS iteration cap exceeded"},
        {"time": 2e-3, "failure": "NNLS iteration cap exceeded"},
    ]
    change = [
        {"time": 3e-3, "iterations": 4, "u": [1.0, 1e-3]},  # support moved
        {"time": 3e-3, "iterations": 2, "u": [1.0, 2.5]},  # same support
        {"time": 3e-3, "iterations": 3, "u": [1.0, 1.0]},  # raised on the parent only
        {"time": 2e-3, "iterations": 1, "u": [0.0, 4.0]},
        {"time": 2e-3, "iterations": 5, "u": [2.0, 0.0]},  # raised on the parent only
        {"time": 2e-3, "failure": "NNLS iteration cap exceeded"},  # raised on both sides alike
    ]
    summary = tool.summarize(shapes, parent, change)
    assert list(summary) == ["(2, 2)", "(3, 2)", "all"]
    counts = {key: (row["calls"], row["support_changes"], row["outcome_changes"]) for key, row in summary.items()}
    assert counts == {"(2, 2)": (3, 1, 1), "(3, 2)": (3, 0, 1), "all": (6, 1, 2)}
    assert summary["(2, 2)"]["iterations"] == [2.0, 3.0]
    assert summary["(2, 2)"]["time_ms"] == pytest.approx([1.0, 3.0])
    assert summary["(2, 2)"]["u_move"] == pytest.approx(0.2)
    assert summary["(3, 2)"]["u_move"] == 0.0


@pytest.mark.parametrize("failure, status", [(None, 0), ("NNLS iteration cap exceeded", 1)])
def test_an_outcome_change_fails_the_run(monkeypatch, tmp_path, capsys, failure, status):
    tool = load_tool(monkeypatch)
    old = {"time": 1e-3, "iterations": 2, "u": [1.0, 0.0]}
    new = dict(old, u=[0.5, 0.5]) if failure is None else {"time": 1e-3, "failure": failure}
    run = {"shapes": [[2, 2]], "parent": [old], "change": [new]}

    def fake_worker(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(run))

    monkeypatch.setattr(tool.subprocess, "run", fake_worker)
    out = tmp_path / "replay.json"
    argv = [str(tmp_path), str(tmp_path), "--workload", "clp_grid", "--seed", "1", "--json", str(out)]
    assert tool.main(argv) == status
    row = json.loads(out.read_text())["shapes"]["all"]
    assert (row["support_changes"], row["outcome_changes"]) == (1 - status, status)
    assert "outcome changes" in capsys.readouterr().out
