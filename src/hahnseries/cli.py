"""Command-line front end.

Subcommands: eval, invert, support, vmin, trunc, check-family, classify,
suite.  ``COMMANDS`` lists each one with its handler and the arguments it
reads; a flag a subcommand does not read is a usage error.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 term budget
exceeded, an expression nesting too deeply to parse or evaluate, or
memory running out.  Errors and usage messages go to stderr, ``--help``
to stdout: to the ``err`` and ``out`` streams given to ``main``.
Repeated runs print the same bytes; for ``suite``, runs with the same
``--seed`` do.
Expressions, exponents and family descriptors are all read by
``parser``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from .classify import FLAG_NAMES, classify_khull
from .conditions import CONDITION_NAMES, check_conditions
from .errors import HahnSeriesError, ParseError, TermBudgetExceeded
from .fields import FieldDescriptor, prime_field, rational_functions
from .groups import INTEGERS, RATIONALS, TRIVIAL, GroupDescriptor, lex_product
from .parser import default_bound, parse_expression, parse_exponent_text, parse_family_text
from .series import (
    DEFAULT_TERM_BOUND,
    EvaluationContext,
    Horizon,
    Inverse,
    Truncation,
    least_exponent,
    render_terms,
    terms_to_json,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_group_name(text: str) -> GroupDescriptor:
    if text == "Z":
        return INTEGERS
    if text == "Q":
        return RATIONALS
    if text == "trivial":
        return TRIVIAL
    m = re.fullmatch(r"Z\^(\d+)", text)
    if m:
        try:
            return lex_product(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown group {text!r} (expected Z, Q, Z^n or trivial)")


def parse_field_name(text: str) -> FieldDescriptor:
    try:
        if text == "Q":
            return FieldDescriptor("Q")
        m = re.fullmatch(r"F(\d+)\(x\)", text)
        if m:
            return rational_functions(int(m.group(1)))
        m = re.fullmatch(r"F(\d+)", text)
        if m:
            return prime_field(int(m.group(1)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field {text!r} (expected Q, Fp or Fp(x))")


# ---------------------------------------------------------------------------
# subcommands

def _evaluate(args):
    """The TermList of an evaluation command and the bound it used.  Only
    these outlive the call, so the expression tree and the memo are freed
    before the output is built."""
    group = parse_group_name(args.group)
    fld = parse_field_name(args.field)
    exp_bound = None
    if args.exp_bound is not None:
        exp_bound = parse_exponent_text(args.exp_bound, group)
    if args.term_bound < 1:
        raise ParseError("--term-bound must be positive")
    parsed = series = parse_expression(args.expression, group, fld)
    if args.command == "invert":
        witness = parse_exponent_text(args.g0, group) if args.g0 is not None else None
        series = Inverse(series, witness)
        if witness is None and exp_bound is None:
            raise ParseError("--exp-bound is required for invert without --g0")
    if args.command == "trunc":
        cutoff = parse_exponent_text(args.at, group)
        series = Truncation(series, cutoff, args.inclusive)
    bound = exp_bound if exp_bound is not None else default_bound(parsed)
    if bound is None:
        raise ParseError("--exp-bound is required for inv(...) without a g0 witness")
    return EvaluationContext(Horizon(bound, args.term_bound)).coefficients(series), bound


def _run_eval(args, out) -> int:
    tl, bound = _evaluate(args)
    if args.command == "support":
        if args.json:
            payload = {
                "support": [str(g) for g in tl.support()],
                "complete": tl.complete,
            }
            print(json.dumps(payload), file=out)
        else:
            # an incomplete enumeration ends in ",...", as a truncated SupportSet prints
            text = "{" + ",".join(str(g) for g in tl.support()) + "}"
            print(text if tl.complete else text + ",...", file=out)
        return EXIT_OK
    if args.command == "vmin":
        v = least_exponent(tl, bound)
        print(json.dumps({"vmin": str(v)}) if args.json else str(v), file=out)
        return EXIT_OK
    print(terms_to_json(tl) if args.json else render_terms(tl), file=out)
    return EXIT_OK


def _run_check_family(args, out) -> int:
    group = parse_group_name(args.group)
    parse_field_name(args.field)  # rejected when malformed, though no condition reads it
    family = parse_family_text(args.family, group)
    if args.condition != "all" and args.condition not in CONDITION_NAMES:
        raise ParseError(f"unknown condition {args.condition!r}")
    names = CONDITION_NAMES if args.condition == "all" else (args.condition,)
    verdicts = check_conditions(family, names)
    if args.json:
        payload = {
            "family": str(family),
            "conditions": {
                n: {
                    "outcome": v.outcome,
                    **({"rule": v.rule} if v.rule else {}),
                    **({"witness": str(v.witness)} if v.witness is not None else {}),
                    **({"note": v.note} if v.note else {}),
                }
                for n, v in verdicts.items()
            },
        }
        print(json.dumps(payload), file=out)
    else:
        for n, v in verdicts.items():
            print(f"{n}: {v}", file=out)
    return EXIT_OK


def _run_classify(args, out) -> int:
    group = parse_group_name(args.group)
    fld = parse_field_name(args.field)
    family = parse_family_text(args.family, group)
    c = classify_khull(fld, family)
    if args.json:
        print(json.dumps(c.to_json_dict()), file=out)
    else:
        print(f"classification of {fld}(({family}))", file=out)
        for name in FLAG_NAMES:
            print(f"  {name}: {c.flags[name].render()}", file=out)
    return EXIT_OK


def _run_suite(args, out) -> int:
    reports = run_suite(seed=args.seed, name_filter=args.name_filter)
    failed = [r for r in reports if r.status == "fail"]
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports]), file=out)
    else:
        for r in reports:
            params = ", ".join(f"{k}={v}" for k, v in r.parameters.items())
            line = f"{r.status.upper():16} {r.procedure} [{params}]"
            if r.status == "fail" and r.witness is not None:
                line += f" witness: {r.witness}"
            print(line, file=out)
        print(
            f"{len(reports)} reports, {len(failed)} failures",
            file=out,
        )
    return EXIT_VERIFICATION if failed else EXIT_OK


# every argument a subcommand may take; argparse reads the key as its name
ARGUMENTS = {
    "expression": {},
    "at": {"help": "cutoff exponent"},
    "family": {},
    "--family": {"required": True},
    "--g0": {"help": "witness leading exponent"},
    "--inclusive": {"action": "store_true", "help": "keep the cutoff exponent too"},
    "--condition": {"default": "all", "help": "one of S1..S6, A1..A5, or 'all'"},
    "--filter": {"dest": "name_filter"},
    "--group": {"default": "Z", "help": "Z, Q, Z^n or trivial"},
    "--field": {"default": "Q", "help": "Q, Fp or Fp(x)"},
    "--exp-bound": {"help": "exponent bound for evaluation"},
    "--term-bound": {"type": int, "default": DEFAULT_TERM_BOUND,
                     "help": "max support points enumerated per node"},
    "--json": {"action": "store_true", "help": "JSON output"},
    "--seed": {"type": int, "default": 0, "help": "seed for the randomized batches"},
}

_EVAL_FLAGS = "--group --field --exp-bound --term-bound --json"

# name, help, handler, and the arguments it reads in the order --help lists them
COMMANDS = (
    ("eval", "evaluate an expression up to the exponent bound", _run_eval,
     f"expression {_EVAL_FLAGS}"),
    ("invert", "evaluate the multiplicative inverse of an expression", _run_eval,
     f"expression --g0 {_EVAL_FLAGS}"),
    ("support", "list the enumerated support of an expression", _run_eval,
     f"expression {_EVAL_FLAGS}"),
    ("vmin", "least support exponent of an expression", _run_eval,
     f"expression {_EVAL_FLAGS}"),
    ("trunc", "truncate an expression below an exponent", _run_eval,
     f"expression at --inclusive {_EVAL_FLAGS}"),
    ("check-family", "check family conditions S1..A5", _run_check_family,
     "family --condition --group --field --json"),
    ("classify", "classify the k-hull of a family", _run_classify,
     "--family --group --field --json"),
    ("suite", "run the verification suite", _run_suite, "--filter --json --seed"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main() call shares it."""
    ap = argparse.ArgumentParser(
        prog="hahnseries",
        description="exact generalised power series arithmetic, family "
        "condition checking and k-hull classification",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for name, helptext, handler, arguments in COMMANDS:
        sub = subs.add_parser(name, help=helptext)
        for arg in arguments.split():
            sub.add_argument(arg, **ARGUMENTS[arg])
        sub.set_defaults(handler=handler)
        # argparse's negative-number test, widened: an argument that names no
        # option and starts with one '-', such as "-2*t^(1)", is a value
        sub._negative_number_matcher = re.compile(r"-[^-]")
    return ap


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except TermBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=err)
        return EXIT_BUDGET
    except RecursionError:
        print("budget exceeded: expression nests too deeply to evaluate", file=err)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=err)
        return EXIT_BUDGET
    except (HahnSeriesError, ZeroDivisionError, ValueError) as exc:
        print(f"verification failure: {exc}", file=err)
        return EXIT_VERIFICATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
