"""Command-line front end.

Subcommands: eval, invert, support, vmin, trunc, check-family, classify,
suite.  ``COMMANDS`` lists each one with its handler and the arguments it
reads; a flag a subcommand does not read is a usage error.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 term budget
exceeded, membership undecided within budget, or an expression nesting
too deeply to parse or evaluate.  Errors go to stderr.  Repeated runs
print the same bytes; for ``suite``, runs with the same ``--seed`` do.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .classify import FLAG_NAMES, classify_khull
from .conditions import CONDITION_NAMES, check_condition
from .errors import (
    HahnSeriesError,
    ParseError,
    TermBudgetExceeded,
    UnknownWithinBudget,
    ZeroUpToHorizon,
)
from .fields import FieldDescriptor, prime_field, rational_functions
from .groups import (
    GroupDescriptor,
    GroupElement,
    INTEGERS,
    RATIONALS,
    TRIVIAL,
    lex_product,
)
from .parser import default_bound, parse_expression, parse_exponent_text
from .series import (
    DEFAULT_TERM_BOUND,
    EvaluationContext,
    Horizon,
    Inverse,
    Truncation,
    render_terms,
    terms_to_json,
)
from .supports import (
    Family,
    Region,
    explicit_family,
    finite_region,
    finite_subsets_family,
    nonneg_cone,
    pos_cone,
    submonoid,
    subgroup,
    well_ordered_family,
    whole_group,
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


_WHOLE_NAMES = ("Z", "Q", "G")


def _parse_region(text: str, group: GroupDescriptor) -> Region:
    text = text.strip()
    m = re.fullmatch(r"(mon|grp|set)\{(.*)\}", text)
    if m:
        kind, body = m.group(1), m.group(2)
        elems = []
        if body.strip():
            elems = [parse_exponent_text(e, group) for e in _split_top(body)]
        if kind == "mon":
            return submonoid(group, elems)
        if kind == "grp":
            return subgroup(group, elems)
        return finite_region(group, elems)
    base = text
    suffix = None
    for s in (">=0", ">0"):
        if text.endswith(s):
            base, suffix = text[: -len(s)], s
            break
    if base in _WHOLE_NAMES or base == str(group):
        if suffix == ">=0":
            return nonneg_cone(group)
        if suffix == ">0":
            return pos_cone(group)
        return whole_group(group)
    raise ParseError(f"unknown region {text!r}")


def _split_top(body: str) -> list[str]:
    """Split on commas not nested in parentheses or braces."""
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_family_text(text: str, group: GroupDescriptor) -> Family:
    text = text.strip()
    m = re.fullmatch(r"W\((.*)\)", text)
    if m:
        return well_ordered_family(_parse_region(m.group(1), group))
    m = re.fullmatch(r"FIN\((.*)\)", text)
    if m:
        return finite_subsets_family(_parse_region(m.group(1), group))
    m = re.fullmatch(r"explicit\{(.*)\}", text)
    if m:
        members = []
        points: dict[str, GroupElement] = {}  # each distinct point text is parsed once
        for part in _split_top(m.group(1)):
            inner = part.strip()
            if not (inner.startswith("{") and inner.endswith("}")):
                raise ParseError(f"explicit member {part!r} must be braced")
            body = inner[1:-1].strip()
            texts = _split_top(body) if body else []
            points.update((e, parse_exponent_text(e, group)) for e in texts if e not in points)
            members.append([points[e] for e in texts])
        return explicit_family(group, members)
    raise ParseError(
        f"unknown family {text!r} (expected W(...), FIN(...) or explicit{{...}})"
    )


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
        if not tl.terms:
            if tl.complete:
                raise ZeroUpToHorizon(f"no nonzero coefficient at or below {bound}")
            raise TermBudgetExceeded("support enumeration hit the term budget")
        v = tl.terms[0][0]
        print(json.dumps({"vmin": str(v)}) if args.json else str(v), file=out)
        return EXIT_OK
    print(terms_to_json(tl) if args.json else render_terms(tl), file=out)
    return EXIT_OK


def _run_check_family(args, out) -> int:
    group = parse_group_name(args.group)
    parse_field_name(args.field)  # rejected when malformed, though no condition reads it
    family = parse_family_text(args.family, group)
    names = CONDITION_NAMES if args.condition == "all" else (args.condition,)
    for name in names:
        if name not in CONDITION_NAMES:
            raise ParseError(f"unknown condition {args.condition!r}")
    verdicts = {name: check_condition(family, name) for name in names}
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
    return ap


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except (TermBudgetExceeded, UnknownWithinBudget) as exc:
        print(f"budget exceeded: {exc}", file=err)
        return EXIT_BUDGET
    except RecursionError:
        print("budget exceeded: expression nests too deeply to evaluate", file=err)
        return EXIT_BUDGET
    except (HahnSeriesError, ZeroDivisionError, ValueError) as exc:
        print(f"verification failure: {exc}", file=err)
        return EXIT_VERIFICATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
