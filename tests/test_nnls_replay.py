"""The tool that replays a workload's NNLS calls on two checkouts."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "nnls_replay.py"


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
        assert row["support_changes"] == 0 and row["u_move"] == 0.0
        assert all(t > 0.0 for t in row["time_ms"])
