"""Command-line front end.

Subcommands
-----------
solve            solve a conic pair and report values, optimizers, gap
farkas           decide one equality system, print the branch and residuals
verify-interior  run the interior-optima duality pipeline
verify-strict    run the strict-feasibility duality pipeline
complex          solve a complex argument-cone program (with angle table)
clp              discretize and solve a continuous program
batch            seeded randomized suites with aggregate counts

Exit codes: 0 success, 1 usage or input error, 2 solver failure,
3 verified precondition with failed conclusion, 4 neither branch of the
alternative verifies.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .complex_lp import ComplexLPSpec, classify_boundary_optima, complex_spec_from_dict
from .continuous_lp import (
    ContinuousLPSpec,
    clp_spec_from_dict,
    discretize_clp,
    kernel_sign_condition,
)
from .duality import (
    ConicProblem,
    problem_from_dict,
    report_to_dict,
    solve,
    verify_interior_optima,
    verify_strict_feasibility,
)
from .errors import IndeterminateAlternative, SolverFailure, TheoremViolation
from .farkas import farkas_dual, farkas_primal, outcome_to_dict
from .instances import farkas_batch, interior_batch, summarize_batch
from .linops import adjoint_identity_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VIOLATION = 3
EXIT_INDETERMINATE = 4


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def parse_problem(path):
    """Load a problem file; the top-level ``type`` field selects the schema
    (``conic``, ``complex_lp``, or ``clp``)."""
    doc = _load(path)
    kind = doc.get("type")
    if kind == "conic":
        return problem_from_dict(doc)
    if kind == "complex_lp":
        return complex_spec_from_dict(doc)
    if kind == "clp":
        return clp_spec_from_dict(doc)
    raise ValueError(f"unknown problem type {kind!r}")


def _emit(doc, args):
    if args.output == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        _print_text(doc)


def _print_text(doc, indent=0):
    pad = "  " * indent
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}: {json.dumps(value)}")
        else:
            print(f"{pad}{key}: {value}")


def _require(problem, cls, subcommand):
    if not isinstance(problem, cls):
        raise ValueError(f"subcommand {subcommand!r} needs a {cls.__name__} input file")


def _cmd_report(args):
    pb = parse_problem(args.input)
    _require(pb, ConicProblem, args.subcommand)
    if args.subcommand == "solve":
        report = solve(pb)
    else:
        verify = verify_interior_optima if args.subcommand == "verify-interior" else verify_strict_feasibility
        report = verify(pb, tol=args.tol)
    _emit(report_to_dict(report), args)
    return EXIT_OK


def _cmd_farkas(args):
    pb = parse_problem(args.input)
    _require(pb, ConicProblem, "farkas")
    op = pb.operator()
    if args.side == "primal":
        outcome = farkas_primal(op, pb.b, pb.S, tol=args.tol)
    else:
        outcome = farkas_dual(op, pb.c, pb.T, tol=args.tol)
    _emit(outcome_to_dict(outcome), args)
    return EXIT_OK


def _cmd_complex(args):
    spec = parse_problem(args.input)
    _require(spec, ComplexLPSpec, "complex")
    report = classify_boundary_optima(spec, tol=max(args.tol, 1e-6))
    doc = {
        "v_primal": report.v_primal,
        "v_dual": report.v_dual,
        "primal_system_solvable": report.primal_system_solvable,
        "dual_system_solvable": report.dual_system_solvable,
        "characterization_applies": report.characterization_applies,
        "primal_angles": [list(r) for r in report.primal_angles],
        "dual_angles": [list(r) for r in report.dual_angles],
        "note": report.note,
    }
    _emit(doc, args)
    return EXIT_OK


def _cmd_clp(args):
    spec = parse_problem(args.input)
    _require(spec, ContinuousLPSpec, "clp")
    pb = discretize_clp(spec)
    check = adjoint_identity_check(pb.operator(), seed=args.seed)
    report = solve(pb)
    doc = report_to_dict(report)
    doc["adjoint_identity_max_residual"] = check.max_residual
    doc["sign_condition"] = kernel_sign_condition(spec)
    doc.pop("x_star", None)
    doc.pop("y_star", None)
    _emit(doc, args)
    return EXIT_OK


def _cmd_batch(args):
    if args.suite == "interior":
        passes, violations, gaps = interior_batch(args.seed, args.count, tol=args.tol)
        doc = {
            "suite": "interior",
            "count": args.count,
            "passes": passes,
            "violations": violations,
            "max_gap": max(gaps) if gaps else 0.0,
        }
        _emit(doc, args)
        return EXIT_VIOLATION if violations else EXIT_OK

    if args.jobs <= 1:
        rows = farkas_batch(args.seed, range(args.count), tol=args.tol)
    else:
        bounds = np.linspace(0, args.count, args.jobs + 1).astype(int)
        ranges = [range(bounds[i], bounds[i + 1]) for i in range(args.jobs)]
        rows = []
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for chunk in pool.map(farkas_batch, [args.seed] * args.jobs, ranges, [args.tol] * args.jobs):
                rows.extend(chunk)
    summary = summarize_batch(rows)
    doc = {"suite": "farkas", "seed": args.seed, **summary}
    _emit(doc, args)
    return EXIT_OK


_GLOBAL_DEFAULTS = {"tol": 1e-8, "seed": 0, "jobs": 1, "output": "text"}


def _add_global_flags(parser):
    # SUPPRESS keeps a subcommand-position flag from clobbering one given
    # before the subcommand; defaults are filled in after parsing.
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="decision tolerance")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized suites")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS, help="parallel workers for batch")
    parser.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(prog="conedual", description="Conic duality toolkit")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, fn, needs_input in (
        ("solve", _cmd_report, True),
        ("farkas", _cmd_farkas, True),
        ("verify-interior", _cmd_report, True),
        ("verify-strict", _cmd_report, True),
        ("complex", _cmd_complex, True),
        ("clp", _cmd_clp, True),
        ("batch", _cmd_batch, False),
    ):
        p = sub.add_parser(name)
        p.set_defaults(handler=fn)
        _add_global_flags(p)
        if needs_input:
            p.add_argument("--input", required=True, help="path to a problem JSON file")
        if name == "farkas":
            p.add_argument("--side", choices=("primal", "dual"), default="primal")
        if name == "batch":
            p.add_argument("--count", type=int, default=100)
            p.add_argument("--suite", choices=("farkas", "interior"), default="farkas")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except TheoremViolation as exc:
        print(f"theorem-violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except IndeterminateAlternative as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
