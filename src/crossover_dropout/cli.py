"""Command-line interface.

Subcommands: solve (certificate), design (integer search), evaluate
(report bundle), compare (ratios of two designs), sweep (theta grid CSV).
Exit codes: 0 success, 1 runtime/search failure, 2 validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import evaluation
from .design_io import design_to_dict, load_design
from .design_search import ExactDesign, exact_search
from .dropout_model import load_mechanism
from .errors import CrossoverError, ValidationError
from .fixtures import FIXTURES, get_fixture
from .q_solver import closed_form, solve_minimax
from .sequences import DEFAULT_ENUM_BUDGET

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _one_source(args, *flags: str) -> str:
    """The one flag of ``flags`` the command line gave; none or several is a validation error."""
    given = [f for f in flags if getattr(args, f.replace("-", "_")) not in (None, False)]
    if len(given) != 1:
        names = " or ".join(f"--{f}" for f in flags)
        raise ValidationError(f"give exactly one of {names}, got {len(given)}")
    return given[0]


def _load_design_source(args, design_flag: str = "design", fixture_flag: str = "fixture"):
    """(design, its fixture's mechanism or None) from exactly one of the two flags."""
    flag = _one_source(args, design_flag, fixture_flag)
    value = getattr(args, flag.replace("-", "_"))
    if flag == fixture_flag:
        fixture = get_fixture(value)
        return fixture.design, fixture.mechanism
    return load_design(value), None


def _cmd_solve(args) -> int:
    mech = load_mechanism(args.mech)
    if args.closed_form_only:
        cert = closed_form(mech, args.t, budget=args.budget)
        if cert is None:
            print("no closed-form regime applies to this mechanism", file=sys.stderr)
            return EXIT_RUNTIME
    else:
        cert = solve_minimax(mech, args.t, budget=args.budget)
    cert.dump(sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_design(args) -> int:
    mech = load_mechanism(args.mech)
    cert = solve_minimax(mech, args.t, budget=args.budget)
    design, report = exact_search(args.n, cert, mech, seed=args.seed, restarts=args.restarts)
    _print_json({"design": design_to_dict(design), "report": report.to_dict()})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    design, mech = _load_design_source(args)
    if args.mech is not None:
        mech = load_mechanism(args.mech)
    if mech is None:
        raise ValidationError("a mechanism file is required (--mech) for non-fixture designs")
    cert = solve_minimax(mech, design.t)
    reports = evaluation.evaluate_reports(
        design,
        mech,
        args.criterion,
        cert,
        args.method,
        seed=args.seed,
        reps=args.reps,
        exact_budget=args.exact_budget,
    )
    _print_json(
        {
            "design": design_to_dict(design),
            "mechanism": mech.to_dict(),
            "reports": [r.to_dict() for r in reports],
        }
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    design, _ = _load_design_source(args)
    baseline, _ = _load_design_source(args, "baseline", "baseline-fixture")
    mech = load_mechanism(args.mech)
    result = evaluation.compare(
        design,
        baseline,
        mech,
        args.criterion,
        args.method,
        seed=args.seed,
        reps=args.reps,
        exact_budget=args.exact_budget,
    )
    _print_json(
        {
            "criterion": args.criterion.upper(),
            "phi0_ratio": result.phi0_ratio if result.phi0_ratio is not None else "undefined",
            "v_ratio": result.v_ratio if result.v_ratio is not None else "undefined",
        }
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if _one_source(args, "design", "fixture", "search") == "search":
        source: ExactDesign | str = "search"
    elif any(getattr(args, f) is not None for f in ("p", "t", "n")):
        raise ValidationError("--p, --t and --n size a searched design; give them with --search")
    else:
        source, _ = _load_design_source(args)
    rows = evaluation.sweep_theta(
        source,
        evaluation.parse_theta_grid(args.theta_grid),
        args.criterion,
        p=args.p,
        t=args.t,
        n=args.n,
        method=args.method,
        seed=args.seed,
        reps=args.reps,
        exact_budget=args.exact_budget,
        restarts=args.restarts,
    )
    sys.stdout.write(evaluation.sweep_rows_to_csv(rows))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover-dropout",
        description="Crossover designs under subject dropout: certificates, search, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eval_opts(cmd):
        cmd.add_argument("--criterion", default="all", help="a|d|e|t|all")
        cmd.add_argument("--method", default="exact", choices=["exact", "mc"])
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--reps", type=int, default=evaluation.DEFAULT_REPS)
        cmd.add_argument(
            "--exact-budget", type=int, default=evaluation.DEFAULT_EXACT_BUDGET
        )

    solve = sub.add_parser("solve", help="optimality certificate for a mechanism")
    solve.add_argument("--mech", required=True)
    solve.add_argument("--t", type=int, required=True)
    solve.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    solve.add_argument("--closed-form-only", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    design = sub.add_parser("design", help="search an exact design of size n")
    design.add_argument("--mech", required=True)
    design.add_argument("--t", type=int, required=True)
    design.add_argument("--n", type=int, required=True)
    design.add_argument("--seed", type=int, default=0)
    design.add_argument("--restarts", type=int, default=8)
    design.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    design.set_defaults(func=_cmd_design)

    ev = sub.add_parser("evaluate", help="expected-criterion report for a design")
    ev.add_argument("--design")
    ev.add_argument("--fixture", choices=sorted(FIXTURES))
    ev.add_argument("--mech")
    add_eval_opts(ev)
    ev.set_defaults(func=_cmd_evaluate)

    cmp_cmd = sub.add_parser("compare", help="phi0 and variance ratios of two designs")
    cmp_cmd.add_argument("--design")
    cmp_cmd.add_argument("--fixture", choices=sorted(FIXTURES))
    cmp_cmd.add_argument("--baseline")
    cmp_cmd.add_argument("--baseline-fixture", choices=sorted(FIXTURES))
    cmp_cmd.add_argument("--mech", required=True)
    add_eval_opts(cmp_cmd)
    cmp_cmd.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="CSV sweep over two-point mechanisms")
    sweep.add_argument("--design")
    sweep.add_argument("--fixture", choices=sorted(FIXTURES))
    sweep.add_argument("--search", action="store_true")
    sweep.add_argument("--p", type=int)
    sweep.add_argument("--t", type=int)
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--theta-grid", default="0.05:0.95:0.05")
    sweep.add_argument("--restarts", type=int, default=8)
    add_eval_opts(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CrossoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
