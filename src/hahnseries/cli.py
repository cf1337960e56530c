"""Command-line front end.

Subcommands: eval, invert, support, vmin, trunc, check-family, classify,
suite.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 term budget exceeded, membership undecided within budget, or an
expression nesting too deeply to parse or evaluate.  Errors go to
stderr; with a fixed seed every run is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

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
    terms_to_json_dict,
)
from .supports import (
    Family,
    Region,
    SearchBudget,
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


@dataclass(frozen=True)
class SessionConfig:
    group: GroupDescriptor
    field: FieldDescriptor
    exp_bound: GroupElement | None
    term_bound: int = DEFAULT_TERM_BOUND
    json_output: bool = False
    seed: int = 0


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
# argument plumbing

def _common_flags(sub):
    sub.add_argument("--group", default="Z", help="Z, Q, Z^n or trivial")
    sub.add_argument("--field", default="Q", help="Q, Fp or Fp(x)")
    sub.add_argument("--exp-bound", help="exponent bound for evaluation")
    sub.add_argument(
        "--term-bound", type=int, default=DEFAULT_TERM_BOUND,
        help="max support points enumerated per node",
    )
    sub.add_argument("--json", action="store_true", help="JSON output")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized searches")


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

    for name, helptext in (
        ("eval", "evaluate an expression up to the exponent bound"),
        ("invert", "evaluate the multiplicative inverse of an expression"),
        ("support", "list the enumerated support of an expression"),
        ("vmin", "least support exponent of an expression"),
    ):
        sub = subs.add_parser(name, help=helptext)
        sub.add_argument("expression")
        if name == "invert":
            sub.add_argument("--g0", help="witness leading exponent")
        _common_flags(sub)

    sub = subs.add_parser("trunc", help="truncate an expression below an exponent")
    sub.add_argument("expression")
    sub.add_argument("at", help="cutoff exponent")
    sub.add_argument(
        "--inclusive", action="store_true", help="keep the cutoff exponent too"
    )
    _common_flags(sub)

    sub = subs.add_parser("check-family", help="check family conditions S1..A5")
    sub.add_argument("family")
    sub.add_argument(
        "--condition", default="all",
        help="one of S1..S6, A1..A5, or 'all'",
    )
    _common_flags(sub)

    sub = subs.add_parser("classify", help="classify the k-hull of a family")
    sub.add_argument("--family", required=True)
    _common_flags(sub)

    sub = subs.add_parser("suite", help="run the verification suite")
    sub.add_argument("--filter", dest="name_filter", default=None)
    _common_flags(sub)
    return ap


def _session(args) -> SessionConfig:
    group = parse_group_name(args.group)
    fld = parse_field_name(args.field)
    bound = None
    if args.exp_bound is not None:
        bound = parse_exponent_text(args.exp_bound, group)
    if args.term_bound < 1:
        raise ParseError("--term-bound must be positive")
    return SessionConfig(group, fld, bound, args.term_bound, args.json, args.seed)


def _emit_terms(cfg: SessionConfig, tl, out):
    if cfg.json_output:
        print(json.dumps(terms_to_json_dict(tl)), file=out)
    else:
        print(render_terms(tl), file=out)


def _evaluate(args, cfg: SessionConfig):
    """The TermList of an evaluation command and the bound it used.  Only
    these outlive the call, so the expression tree and the memo are freed
    before the output is built."""
    parsed = series = parse_expression(args.expression, cfg.group, cfg.field)
    if args.command == "invert":
        witness = (
            parse_exponent_text(args.g0, cfg.group) if args.g0 is not None else None
        )
        series = Inverse(series, witness)
        if witness is None and cfg.exp_bound is None:
            raise ParseError("--exp-bound is required for invert without --g0")
    if args.command == "trunc":
        cutoff = parse_exponent_text(args.at, cfg.group)
        series = Truncation(series, cutoff, args.inclusive)
    bound = cfg.exp_bound if cfg.exp_bound is not None else default_bound(parsed)
    if bound is None:
        raise ParseError("--exp-bound is required for inv(...) without a g0 witness")
    return EvaluationContext(Horizon(bound, cfg.term_bound)).coefficients(series), bound


def _run_eval(args, out) -> int:
    cfg = _session(args)
    tl, bound = _evaluate(args, cfg)
    if args.command == "support":
        if cfg.json_output:
            payload = {
                "support": [str(g) for g in tl.support()],
                "complete": tl.complete,
            }
            print(json.dumps(payload), file=out)
        else:
            print("{" + ",".join(str(g) for g in tl.support()) + "}", file=out)
        return EXIT_OK
    if args.command == "vmin":
        if not tl.terms:
            if tl.complete:
                raise ZeroUpToHorizon(f"no nonzero coefficient at or below {bound}")
            raise TermBudgetExceeded("support enumeration hit the term budget")
        v = tl.terms[0][0]
        print(json.dumps({"vmin": str(v)}) if cfg.json_output else str(v), file=out)
        return EXIT_OK
    _emit_terms(cfg, tl, out)
    return EXIT_OK


def _run_check_family(args, out) -> int:
    cfg = _session(args)
    family = parse_family_text(args.family, cfg.group)
    budget = SearchBudget(seed=cfg.seed)
    names = CONDITION_NAMES if args.condition == "all" else (args.condition,)
    for name in names:
        if name not in CONDITION_NAMES:
            raise ParseError(f"unknown condition {args.condition!r}")
    verdicts = {name: check_condition(family, name, budget) for name in names}
    if cfg.json_output:
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
    cfg = _session(args)
    family = parse_family_text(args.family, cfg.group)
    budget = SearchBudget(seed=cfg.seed)
    c = classify_khull(cfg.field, family, budget)
    if cfg.json_output:
        print(json.dumps(c.to_json_dict()), file=out)
    else:
        print(f"classification of {cfg.field}(({family}))", file=out)
        for name in FLAG_NAMES:
            print(f"  {name}: {c.flags[name].render()}", file=out)
    return EXIT_OK


def _run_suite(args, out) -> int:
    cfg = _session(args)
    budget = SearchBudget(seed=cfg.seed)
    reports = run_suite(seed=cfg.seed, budget=budget, name_filter=args.name_filter)
    failed = [r for r in reports if r.status == "fail"]
    if cfg.json_output:
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


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command in ("eval", "invert", "support", "vmin", "trunc"):
            return _run_eval(args, out)
        if args.command == "check-family":
            return _run_check_family(args, out)
        if args.command == "classify":
            return _run_classify(args, out)
        return _run_suite(args, out)
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
