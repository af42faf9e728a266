"""Command-line interface: parsing, dispatch, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from test_pipeline_shortcuts import gate_pairs

from conedual import cli, continuous_lp, duality
from conedual.cli import EXIT_INDETERMINATE, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main, parse_problem


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def identity_doc(b=(1.0, 1.0), c=(1.0, 1.0)):
    return {
        "type": "conic",
        "A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]},
        "b": list(b),
        "c": list(c),
        "S": {"kind": "orthant", "dim": 2},
        "T": {"kind": "orthant", "dim": 2},
    }


def test_parse_minimal_problem(tmp_path):
    pb = parse_problem(write(tmp_path, "id.json", identity_doc()))
    np.testing.assert_allclose(pb.A.matrix, np.eye(2))


def test_solve_subcommand(tmp_path, capsys):
    path = write(tmp_path, "id.json", identity_doc())
    assert main(["--output", "json", "solve", "--input", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_primal"] == pytest.approx(2.0)
    assert abs(doc["gap"]) <= 1e-9


def test_farkas_subcommand_certificate(tmp_path, capsys):
    path = write(tmp_path, "inf.json", identity_doc(b=(-1.0, 0.0)))
    assert main(["--output", "json", "farkas", "--input", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "certificate"
    assert doc["residuals"]["strict_margin"] > 0


def test_wedge_angle_load_error(tmp_path, capsys):
    doc = identity_doc()
    doc["S"] = {"kind": "wedge", "dim": 2, "half_angles": [1.6]}
    path = write(tmp_path, "bad.json", doc)
    assert main(["solve", "--input", path]) == EXIT_USAGE
    assert "half_angles[0]" in capsys.readouterr().err


def test_kernel_causality_load_error(tmp_path, capsys):
    grid = np.zeros((4, 4))
    grid[2, 0] = 1.0
    doc = {
        "type": "clp",
        "m": 1,
        "n": 1,
        "T": 1.0,
        "n_grid": 4,
        "B": {"kind": "constant", "data": 1.0},
        "K": {"kind": "grid", "data": grid.tolist()},
        "b": {"kind": "constant", "data": 1.0},
        "c": {"kind": "constant", "data": 1.0},
    }
    path = write(tmp_path, "clp.json", doc)
    assert main(["clp", "--input", path]) == EXIT_USAGE
    assert "causality" in capsys.readouterr().err


def test_verify_interior_vacuous_note(tmp_path, capsys):
    path = write(tmp_path, "bd.json", identity_doc(c=(1.0, 0.0)))
    assert main(["--output", "json", "verify-interior", "--input", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert any("precondition not met" in note for note in doc["notes"])


def test_verify_strict_violation_exit_code(tmp_path, capsys, monkeypatch):
    # The zero operator with c != 0 meets every strict precondition while
    # A^T y = c has no solution; that is reported, not a violation.
    doc = identity_doc(b=(0.0, 0.0), c=(1.0, 1.0))
    doc["A"]["data"] = [0.0, 0.0, 0.0, 0.0]
    path = write(tmp_path, "zero.json", doc)
    assert main(["--output", "json", "verify-strict", "--input", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["flags"]["systems_solved"] == [True, False]
    # A conclusion that does fail exits 3: interior optima on both sides
    # with the equality-system solver made to find nothing.
    monkeypatch.setattr(duality, "verified_solution", lambda *args, **kwargs: None)
    path = write(tmp_path, "id.json", identity_doc())
    assert main(["verify-interior", "--input", path]) == EXIT_VIOLATION
    assert "theorem-violation" in capsys.readouterr().err


def test_indeterminate_exit_code(tmp_path, capsys):
    # A residual value of 3 tol^2 decides nothing by itself; the certificate
    # (-1, 0) verifies with margin sqrt(3) tol, so it is reported.
    eps = math.sqrt(3.0) * 1e-8
    path = write(tmp_path, "border.json", identity_doc(b=(-eps, 1.0)))
    assert main(["--output", "json", "farkas", "--input", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "certificate" and doc["cert"] == [-1.0, 0.0]
    assert doc["residuals"]["strict_margin"] == pytest.approx(eps, rel=1e-12)
    # A 4x5 orthant system with b of order 1e7 where neither candidate
    # verifies: the certificate has cone residual 0.46 and margin -7.7e6.
    doc = {
        "type": "conic",
        "A": {"rows": 4, "cols": 5, "data": [
            -0.7357898022911213, -0.39047573050070006, -0.4692412360683207, -0.8064462359105107, 0.655373382763752,
            0.7056997759973083, -0.08063842745201555, 0.41437855105433363, 0.5897147447018636, -0.7456884961073831,
            0.318943551587751, -0.778094232183743, 0.39109473075602663, -0.7968564784849477, 0.680308686431341,
            0.536120305625378, 0.06891190334680664, -0.396450269115886, 0.4919824626884366, -0.06465336959142176,
        ]},
        "b": [-66854255.671135634, 32780064.257796086, -15200350.392286662, 21700068.049451657],
        "c": [1.0] * 5,
        "S": {"kind": "orthant", "dim": 5},
        "T": {"kind": "orthant", "dim": 4},
    }
    path = write(tmp_path, "neither.json", doc)
    assert main(["farkas", "--input", path]) == EXIT_INDETERMINATE
    assert "neither branch verifies" in capsys.readouterr().err


def test_complex_subcommand(tmp_path, capsys):
    doc = {
        "type": "complex_lp",
        "A": [[[1.0, 0.0]]],
        "b": [[0.0, 1.0]],
        "c": [[math.cos(math.pi / 5), math.sin(math.pi / 5)]],
        "alpha": [math.pi / 4],
        "beta": [math.pi / 6],
    }
    path = write(tmp_path, "cx.json", doc)
    assert main(["--output", "json", "complex", "--input", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["characterization_applies"]
    assert out["v_primal"] == pytest.approx(out["v_dual"], abs=1e-8)


def test_complex_subcommand_on_a_coordinate_inside_its_wedge(tmp_path, capsys):
    # Both systems unsolvable, finite values, and an optimizer coordinate
    # strictly inside its wedge: no claim of the theorem fails.
    fixture = Path(__file__).parent / "fixtures" / "complex_boundary_items.json"
    (case,) = [c for c in json.loads(fixture.read_text()) if c["source"] == "pipelines seed 11 item 238"]
    path = write(tmp_path, "cx.json", case["spec"])
    assert main(["--output", "json", "complex", "--input", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["characterization_applies"]
    assert not out["primal_system_solvable"] and not out["dual_system_solvable"]


def test_verify_interior_on_a_slice_pair(tmp_path, capsys):
    # Optimizers in the relative interiors of two slices: a slice has no
    # interior, so the precondition is not met.
    _, pb = list(gate_pairs("slice", 0))[14]
    path = write(tmp_path, "slice.json", duality.problem_to_dict(pb))
    assert main(["--output", "json", "verify-interior", "--input", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"]["systems_solved"] == [False, False]
    assert all("precondition not met" in note for note in doc["notes"])


def test_clp_subcommand(tmp_path, capsys):
    doc = {
        "type": "clp",
        "m": 1,
        "n": 1,
        "T": 1.0,
        "n_grid": 8,
        "B": {"kind": "constant", "data": 1.0},
        "K": {"kind": "constant", "data": 0.5},
        "b": {"kind": "constant", "data": 1.0},
        "c": {"kind": "constant", "data": 1.0},
    }
    path = write(tmp_path, "clp.json", doc)
    assert main(["--output", "json", "clp", "--input", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["adjoint_identity_max_residual"] <= 1e-12
    assert abs(out["gap"]) <= 1e-9


def test_clp_subcommand_samples_once(tmp_path, capsys, monkeypatch):
    doc = {
        "type": "clp",
        "m": 1,
        "n": 1,
        "T": 1.0,
        "n_grid": 5,
        "B": {"kind": "constant", "data": -1.0},
        "K": {"kind": "grid", "data": np.triu(np.full((5, 5), 0.5)).tolist()},
        "b": {"kind": "constant", "data": 1.0},
        "c": {"kind": "constant", "data": 1.0},
    }
    calls = []
    sample_grid = continuous_lp._sample_grid

    def counting_sample_grid(spec):
        calls.append(spec)
        return sample_grid(spec)

    monkeypatch.setattr(continuous_lp, "_sample_grid", counting_sample_grid)
    path = write(tmp_path, "clp.json", doc)
    assert main(["--output", "json", "clp", "--input", path]) == EXIT_OK
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["sign_condition"] == "condition_i"
    assert main(["clp", "--input", path]) == EXIT_OK
    assert len(calls) == 2
    assert "sign_condition: condition_i" in capsys.readouterr().out


def test_batch_deterministic_output(tmp_path, capsys):
    assert main(["--output", "json", "--seed", "5", "batch", "--count", "40"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["--output", "json", "--seed", "5", "batch", "--count", "40"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["instances"] == 40
    # Exactly one of the three counts holds each instance.
    assert doc["solutions"] + doc["certificates"] + doc["indeterminate"] == 40


def test_batch_parallel_matches_serial(capsys):
    assert main(["--output", "json", "--seed", "9", "batch", "--count", "30"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(["--output", "json", "--seed", "9", "--jobs", "2", "batch", "--count", "30"]) == EXIT_OK
    parallel = capsys.readouterr().out
    assert json.loads(serial) == json.loads(parallel)


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count it is
    asked for and maps in this process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, count, started", [(64, 3, [3]), (8, 1, []), (4, 0, []), (2, 30, [2])])
def test_batch_starts_at_most_one_worker_per_instance(monkeypatch, capsys, jobs, count, started):
    assert main(["--output", "json", "--seed", "9", "batch", "--count", str(count)]) == EXIT_OK
    serial = capsys.readouterr().out
    recorded = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: RecordingPool(recorded, max_workers))
    assert main(["--output", "json", "--seed", "9", "--jobs", str(jobs), "batch", "--count", str(count)]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert recorded == started


@pytest.mark.parametrize("suite", ["farkas", "interior"])
def test_batch_negative_count_is_a_usage_error(capsys, suite):
    assert main(["batch", "--suite", suite, "--count", "-3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --count must be nonnegative\n"


def test_report_json_round_trip_bit_exact(tmp_path, capsys):
    path = write(tmp_path, "id.json", identity_doc())
    main(["--output", "json", "solve", "--input", path])
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True) == text.strip()


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    import conedual.cli as cli
    from conedual.errors import SolverFailure

    def boom(pb):
        raise SolverFailure("simplex iteration cap exceeded (cycling guard)")

    monkeypatch.setattr(cli, "solve", boom)
    path = write(tmp_path, "id.json", identity_doc())
    assert main(["solve", "--input", path]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_usage_errors():
    assert main(["--tol", "-1", "solve", "--input", "x.json"]) == EXIT_USAGE
    assert main(["solve", "--input", "/nonexistent/path.json"]) == EXIT_USAGE


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8"])
@pytest.mark.parametrize("subcommand", ["farkas", "batch"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, subcommand, tol):
    # b = (-1, 0) is outside the orthant: at --tol inf the point (0, 0) would pass.
    args = ["--input", write(tmp_path, "inf.json", identity_doc(b=(-1.0, 0.0)))] if subcommand == "farkas" else []
    # "--tol=-1e-8": argparse reads a separate "-1e-8" as an option.
    assert main([f"--tol={tol}", subcommand, *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --tol must be a positive finite number\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["farkas"],
        ["farkas", "--input", "{path}", "--bogus"],
        ["--tol", "-1e-8", "farkas", "--input", "{path}"],
        ["--output", "yaml", "farkas", "--input", "{path}"],
        ["bogus", "--input", "{path}"],
    ],
    ids=["missing-input", "unknown-flag", "negative-tol-token", "bad-output-choice", "unknown-subcommand"],
)
def test_argparse_errors_exit_with_one_error_line(tmp_path, capsys, argv):
    path = write(tmp_path, "id.json", identity_doc())
    assert main([arg.format(path=path) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: conedual" in capsys.readouterr().out


def test_missing_type_field(tmp_path):
    path = write(tmp_path, "bad.json", {"foo": 1})
    assert main(["solve", "--input", path]) == EXIT_USAGE


def clp_doc(**sizes):
    doc = {
        "type": "clp",
        "m": 1,
        "n": 1,
        "T": 1.0,
        "n_grid": 4,
        "B": {"kind": "constant", "data": 1.0},
        "K": {"kind": "constant", "data": 0.5},
        "b": {"kind": "constant", "data": 1.0},
        "c": {"kind": "constant", "data": 1.0},
    }
    doc.update(sizes)
    return doc


def complex_doc(**fields):
    doc = {
        "type": "complex_lp",
        "A": [[[1.0, 0.0]]],
        "b": [[0.0, 1.0]],
        "c": [[1.0, 1.0]],
        "alpha": [math.pi / 4],
        "beta": [math.pi / 6],
    }
    doc.update(fields)
    return doc


def conic_doc(rows=2, cols=1, **fields):
    doc = {
        "type": "conic",
        "A": {"rows": rows, "cols": cols, "data": [1.0, 1.0]},
        "b": [1.0, 1.0],
        "c": [1.0],
        "S": {"kind": "orthant", "dim": 1},
        "T": {"kind": "orthant", "dim": 2},
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "subcommand, doc",
    [
        ("solve", conic_doc(rows=2.7, cols=1.5)),
        ("solve", conic_doc(rows=2.5)),
        ("solve", conic_doc(rows="2")),
        ("solve", conic_doc(cols=None)),
        ("solve", conic_doc(S={"kind": "orthant", "dim": 1.9}, T={"kind": "orthant", "dim": 2.2})),
        ("solve", conic_doc(T={"kind": "orthant", "dim": "2"})),
        ("solve", conic_doc(S={"kind": "orthant", "dim": None})),
        ("solve", conic_doc(b=[[1.0], [1.0]])),
        ("solve", conic_doc(b=None)),
        ("solve", conic_doc(c=None)),
        ("solve", [conic_doc()]),
        ("solve", conic_doc(A=None)),
        ("solve", conic_doc(A=[1.0, 1.0])),
        ("solve", conic_doc(S=[1])),
        ("solve", conic_doc(T=None)),
        ("solve", conic_doc(pairing_X=[1])),
        ("solve", conic_doc(pairing_Y="euclidean_dot")),
        ("solve", conic_doc(S={"kind": "product", "factors": [1]})),
        ("solve", conic_doc(S={"kind": "product", "factors": 3})),
        ("clp", clp_doc(m=1.5, n_grid=4.9)),
        ("clp", clp_doc(n="1")),
        ("clp", clp_doc(n_grid=None)),
        ("clp", clp_doc(B=[1])),
        ("complex", complex_doc(A=None)),
        ("complex", complex_doc(b=[0.0, 1.0])),
        ("complex", complex_doc(c=[[1.0, {}]])),
        ("clp", clp_doc(T=None)),
        ("clp", clp_doc(bound="1e6")),
        ("complex", complex_doc(alpha=None)),
        ("clp", clp_doc(T=math.inf)),
        ("clp", clp_doc(bound=math.nan)),
        ("clp", clp_doc(T=True)),
        ("solve", conic_doc(A={"rows": 2, "cols": 1, "data": {}})),
        ("solve", conic_doc(b=["1", "2"])),
        ("solve", conic_doc(b=[1.0, True])),
        ("solve", conic_doc(T={"kind": "slice", "base": {"kind": "orthant", "dim": 2}, "slice_normals": None})),
        ("solve", conic_doc(T={"kind": "wedge", "half_angles": [None]})),
        ("solve", conic_doc(T={"kind": "wedge", "half_angles": [True]})),
        ("solve", conic_doc(S={"kind": "generated", "generators": [[{}]]})),
        ("clp", clp_doc(K={"kind": "grid", "data": [{}]})),
        ("solve", conic_doc(pairing_Y={"kind": "weighted_quadrature", "weights": [{}, 1]})),
        ("solve", conic_doc(pairing_Y={"kind": "weighted_quadrature", "weights": [True, True]})),
        ("complex", complex_doc(game_slice="false")),
    ],
)
def test_malformed_problem_file_is_an_input_error(tmp_path, capsys, subcommand, doc):
    path = write(tmp_path, "bad.json", doc)
    assert main([subcommand, "--input", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_integral_sizes_may_be_floats(tmp_path):
    pb = parse_problem(write(tmp_path, "conic.json", conic_doc(rows=2.0, cols=1.0, S={"kind": "orthant", "dim": 1.0})))
    assert (pb.A.matrix.shape, pb.S.dim, pb.T.dim) == ((2, 1), 1, 2)
    spec = parse_problem(write(tmp_path, "clp.json", clp_doc(m=1.0, n=1.0, n_grid=4.0)))
    assert (spec.m, spec.n, spec.n_grid) == (1, 1, 4)


def test_integers_beyond_int64_read_as_floats(tmp_path):
    pb = parse_problem(write(tmp_path, "big.json", conic_doc(A={"rows": 2, "cols": 1, "data": [10**30, 1.0]})))
    assert pb.A.matrix[:, 0].tolist() == [1e30, 1.0]
