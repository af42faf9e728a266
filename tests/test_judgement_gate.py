"""The judgement gate that compares two checkouts on a benchmark workload."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "judgement_gate.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("judgement_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_against_itself_changes_nothing(tmp_path):
    out = tmp_path / "gate.json"
    cmd = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "pipelines", "--seeds", "11"]
    run = subprocess.run(cmd + ["--seconds", "1", "--json", str(out)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    doc = json.loads(out.read_text())
    seed = doc["seeds"]["11"]
    assert seed["items"] == 24
    assert seed["failed"][0] == seed["failed"][1]
    assert doc["judgement_changes"] == {} and doc["field_changes"] == {}
    assert doc["pass_to_fail"] == 0 and doc["seeds_where_failures_rose"] == []


def test_compare_counts_changes_by_kind_and_field():
    gate = load_tool()
    parent = [
        {"kind": "interior", "judgement": None, "fields": {".a": "1", ".b": "2"}},
        {"kind": "strict", "judgement": "inconclusive", "fields": {".a": "1"}},
    ]
    change = [
        {"kind": "interior", "judgement": "TheoremViolation", "fields": {".a": "1"}},
        {"kind": "strict", "judgement": None, "fields": {".a": "3"}},
    ]
    summary = gate.compare(parent, change)
    assert summary["failed"] == [1, 1]
    assert summary["judgement_changes"] == {"interior pass -> TheoremViolation": 1, "strict inconclusive -> pass": 1}
    assert summary["field_changes"] == {"interior .b": 1, "strict .a": 1}
    assert summary["pass_to_fail"] == 1


def test_flatten_keys_floats_by_bits():
    gate = load_tool()
    fields = gate.flatten((0.1, [None, "x"]))
    assert fields == {"": "tuple[2]", "[0]": (0.1).hex(), "[1]": "list[2]", "[1][0]": "None", "[1][1]": "'x'"}
