"""The judgement gate that compares two checkouts on a benchmark workload."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    assert doc["judgement_changes"] == {} and doc["field_changes"] == {} and doc["value_moves"] == {}
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


def test_largest_value_move_per_kind_and_field():
    gate = load_tool()
    fields_old = gate.flatten((2.0, np.array([1.0, -3.0]), "x"), values=(old := {}))
    fields_new = gate.flatten((2.0 + 3e-15, np.array([1.0, -3.0 + 4e-15]), "y"), values=(new := {}))
    assert old == {"[0]": [2.0], "[1]": [1.0, -3.0]} and set(new) == set(old)
    assert gate.flatten(np.array([1.0 + 2.0j]), values=(parts := {})) and parts == {"": [1.0, 2.0]}
    parent = [
        {"kind": "interior", "judgement": None, "fields": fields_old, "values": old},
        {"kind": "interior", "judgement": None, "fields": fields_old, "values": old},
    ]
    change = [
        {"kind": "interior", "judgement": None, "fields": fields_new, "values": new},
        {"kind": "interior", "judgement": None, "fields": fields_old, "values": old},
    ]
    summary = gate.compare(parent, change)
    # Each float field reports its move over 1 + the largest magnitude; the
    # string field changed but has no value, and unmoved fields are left out.
    assert summary["field_changes"] == {"interior [0]": 1, "interior [1]": 1, "interior [2]": 1}
    moves = summary["value_moves"]
    assert set(moves) == {"interior [0]", "interior [1]"}
    assert moves["interior [0]"] == abs((2.0 + 3e-15) - 2.0) / (1.0 + (2.0 + 3e-15))
    assert moves["interior [1]"] == abs((-3.0 + 4e-15) + 3.0) / 4.0


def test_value_move_of_non_finite_entries():
    gate = load_tool()
    assert gate.value_move([math.inf, math.nan, 1.0], [math.inf, math.nan, 1.0]) == 0.0
    assert gate.value_move([math.inf, 0.0], [1.0, 0.0]) == math.inf
    assert gate.value_move([1e-20, 5.0], [3e-20, 5.0]) == (3e-20 - 1e-20) / (1.0 + 3e-20)
