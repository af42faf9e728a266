"""The README's library tour runs and shows the values its comments state,
and its problem file is one that the CLI reads and solves."""

import ast
import re
from pathlib import Path

from conedual.cli import EXIT_OK, main, parse_problem
from conedual.duality import ConicProblem

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_blocks():
    """The ``python`` blocks of the "Library tour" section, in order."""
    text = README.read_text()
    section = text[text.index("## Library tour") :]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def run_tour():
    """Run every block in one namespace.

    Returns the final namespace, the values of each expression statement
    (source text -> values in order of execution) and the namespace as it
    stood when each expression was first evaluated."""
    namespace, values, scopes = {}, {}, {}
    for block in tour_blocks():
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                source = ast.get_source_segment(block, stmt)
                scopes.setdefault(source, dict(namespace))
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                values.setdefault(source, []).append(value)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values, scopes


def test_library_tour_values():
    assert len(tour_blocks()) == 2
    namespace, values, scopes = run_tour()
    assert values["out.branch"] == ["certificate"]
    primal, dual = values["out.certificate"]
    assert primal.tolist() == [-1.0, 0.0] and dual.tolist() == [0.0, 1.0]
    verified = [v for source, vs in values.items() if source.startswith("cd.verify_outcome(") for v in vs]
    assert verified == [True, True]
    assert values["report.v_primal, report.v_dual, report.gap"] == [(2.0, 2.0, 0.0)]
    assert values["cd.solve(pt).v_primal"] == [-2.0]
    (back,) = values["pt.transpose()"]
    pb = scopes["pt.transpose()"]["pb"]
    for name in ("b", "c"):
        assert getattr(back, name).tobytes() == getattr(pb, name).tobytes()
    assert back.A.matrix.tobytes() == pb.A.matrix.tobytes()
    assert (back.S, back.T, back.A.pairing_domain, back.A.pairing_codomain) == (
        pb.S, pb.T, pb.A.pairing_domain, pb.A.pairing_codomain
    )
    (interior,) = values["cd.verify_interior_optima(pb)"]
    assert interior.flags.systems_solved == (True, True)
    (strict,) = values["cd.verify_strict_feasibility(pb)"]
    assert (strict.flags.strict_primal_nonempty, strict.flags.strict_dual_nonempty) == (None, None)
    (angles,) = values["classify_boundary_optima(spec)"]
    assert (angles.primal_system_solvable, angles.dual_system_solvable) == (False, False)
    assert angles.characterization_applies
    assert namespace["pb"].A.matrix.shape == (64, 64)


def test_conic_problem_file_example(tmp_path):
    text = README.read_text()
    (example,) = re.findall(r"A conic problem file:\n\n```json\n(.*?)```", text, flags=re.S)
    path = tmp_path / "problem.json"
    path.write_text(example)
    assert isinstance(parse_problem(str(path)), ConicProblem)
    assert main(["solve", "--input", str(path)]) == EXIT_OK
