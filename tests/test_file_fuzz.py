"""A seeded mutation fuzzer over problem files: whatever a file holds, the
CLI answers with an exit code, never with an escaped exception.

Each node of a few valid files (a conic pair over orthants with weighted
pairings, one over a wedge and a product, one over a generated cone and a
slice, a complex program with ``game_slice``, and continuous programs with
constant and grid data) is replaced by one of the values below or deleted.
A seeded sample of those mutants runs through a subcommand that takes its
type.

Finite entries near 1e308 make numpy warn of overflow inside the solvers.
A CLI run prints those warnings and goes on, so they are recorded here, not
raised as the suite's warning filter would.  Every nonzero exit prints one
stderr line that names its kind.  Fixed rows pin the exit code of files
that once ended with the wrong one.
"""

import copy
import json
import math
import random
import warnings

from conedual.cli import main

VALUES = [None, True, False, "1", "x", {}, [], [[]], [None], [{}], [1.0, True], [1.0, 2.0, 3.0],
          [[1.0], [1.0, 2.0]], 1e308, -1e308, 10**30, math.nan, math.inf, -math.inf]
DELETE = object()
CONIC = (["solve"], ["farkas"], ["farkas", "--side", "dual"], ["verify-interior"], ["verify-strict"])
CLP = {"type": "clp", "m": 1, "n": 1, "T": 1.0, "n_grid": 3, "bound": 1e6,
       "B": {"kind": "constant", "data": [[-1.0]]}, "K": {"kind": "constant", "data": 0.5},
       "b": {"kind": "constant", "data": [1.0]}, "c": {"kind": "constant", "data": 1.0}}
FILES = [
    ({"type": "conic", "A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}, "b": [1.0, 1.0], "c": [1.0, 1.0],
      "S": {"kind": "orthant", "dim": 2}, "T": {"kind": "orthant", "dim": 2},
      "pairing_X": {"kind": "weighted_quadrature", "weights": [1.0, 1.0]}, "pairing_Y": {"kind": "euclidean_dot"}},
     CONIC),
    ({"type": "conic", "A": {"rows": 4, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.0]},
      "b": [1.0, 0.5, 1.0, 0.2], "c": [1.0, 0.1],
      "S": {"kind": "wedge", "dim": 2, "half_angles": [0.6]},
      "T": {"kind": "product", "factors": [{"kind": "orthant", "dim": 2},
                                           {"kind": "wedge", "dim": 2, "half_angles": [0.7]}]}},
     CONIC),
    ({"type": "conic", "A": {"rows": 3, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]},
      "b": [1.0, 1.0, 2.0], "c": [1.0, 1.0],
      "S": {"kind": "generated", "generators": [[1.0, 0.0], [1.0, 1.0]]},
      "T": {"kind": "slice", "base": {"kind": "orthant", "dim": 3}, "slice_normals": [[1.0, -1.0, 0.0]]}},
     CONIC),
    ({"type": "complex_lp", "A": [[[1.0, 0.0]], [[0.1, -0.3]]], "b": [[0.0, 1.0], [1.0, 0.5]], "c": [[1.0, 1.0]],
      "alpha": [0.6], "beta": [0.5, 0.9], "game_slice": True},
     (["complex"],)),
    (CLP, (["clp"],)),
    ({**CLP, "K": {"kind": "grid", "data": [[0.5, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]]}}, (["clp"],)),
]


# The first file with A = [[1, 1e308], [0, 1]]: its least-squares
# coefficients overflow in both Farkas solves.
OVERFLOWING = {**FILES[0][0], "A": {"rows": 2, "cols": 2, "data": [1.0, 1e308, 0.0, 1.0]}}
FIXED = [(f"conic A.data = [1, 1e308, 0, 1], {' '.join(argv)}", OVERFLOWING, argv, 2)
         for argv in (["farkas"], ["farkas", "--side", "dual"])]
STDERR_PREFIX = {1: "error:", 2: "solver failure:", 3: "theorem-violation:", 4: "indeterminate:"}


def paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def sample(count, seed=0):
    """``count`` mutants, each as ``(description, mutated file, argv)``."""
    mutants = [(doc, path, value, subcommands) for doc, subcommands in FILES
               for path in paths(doc) for value in VALUES + ([DELETE] if path else [])]
    rng = random.Random(seed)
    for doc, path, value, subcommands in rng.sample(mutants, count):
        argv = rng.choice(subcommands)
        shown = "deleted" if value is DELETE else repr(value)
        yield f"{doc['type']} {list(path)} = {shown}, {' '.join(argv)}", mutated(doc, path, value), argv


def test_mutated_files_end_with_an_exit_code(tmp_path, capsys):
    path = tmp_path / "mutant.json"
    failures = []
    cases = [(*mutant, None) for mutant in sample(400)] + FIXED
    for description, doc, argv, expected in cases:
        path.write_text(json.dumps(doc))
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                code = main([argv[0], "--input", str(path), *argv[1:]])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            code = exc
        err = capsys.readouterr().err
        if code not in range(5) or expected not in (None, code):
            failures.append(f"{description}: {code!r}")
        elif code and not (err.count("\n") == 1 and err.startswith(STDERR_PREFIX[code])):
            failures.append(f"{description}: exit {code} with stderr {err!r}")
    assert not failures, "\n".join(failures)
