"""Correctness checks, run after the timed loop.

Each check takes a job, the value its call returned and the package (for
the witness and catalog references).  It returns ``None`` when the value
is right and a one-line reason when it is not, and raises ``Unconfirmed``
when the reference cannot decide.  CLI values are compared through
``--json``, never through re-parsed rendered text.

References:
- Z exponents over Q and F_p: the dense oracle of ``tests/oracle.py``;
  Q exponents are scaled to Z first.
- F_p(x) and Z^n: the identity b * b^-1 = 1 on the listed prefix, computed
  here on raw polynomials and tuples.
- Dense F_p(x) products: a convolution over F_p[x] computed here.
- Conditions: ``witness_refutes`` on every Fails verdict (with the sign
  rule for monoids of nonpositive generators where it is undecided), and
  the CLI's verdicts must match the library's.
- Classifications: the flag implication chain and ``CATALOG_EXPECTED``.
- Verification procedures: the report status each call must return.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb

from execute import ROOT

sys.path.insert(0, str(ROOT / "tests"))
import oracle  # noqa: E402  (the dense reference lives with the tests)


class Unconfirmed(Exception):
    """The reference could not decide within its own search budget whether
    the value is right.  The job counts as failed, not as a wrong value."""


def check(job, value, pkg) -> str | None:
    try:
        return _CHECKS[job.check[0]](job, value, pkg)
    except Unconfirmed:
        raise
    except Exception as exc:  # an unreadable value is a wrong value
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# reading values

def _parse_exp(text: str):
    if text.startswith("("):
        return tuple(int(v) for v in text[1:-1].split(","))
    return Fraction(text)


def _parse_poly(text: str, p: int) -> tuple[int, ...]:
    """Inverse of the package's descending ``x^2+2*x+1`` rendering."""
    text = text.strip("()")
    coeffs: dict[int, int] = {}
    for part in text.split("+"):
        if "x" not in part:
            deg, c = 0, int(part)
        else:
            c_text, _, x_text = part.partition("x")
            c = int(c_text.rstrip("*")) if c_text else 1
            deg = int(x_text[1:]) if x_text.startswith("^") else 1
        coeffs[deg] = (coeffs.get(deg, 0) + c) % p
    return _trim([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def _parse_ratfunc(text: str, p: int):
    num, _, den = text.partition("/")
    return _parse_poly(num, p), _parse_poly(den, p) if den else (1,)


def _json_terms(value):
    """(terms as (exp text, coef text), complete) from a CLI result."""
    payload = json.loads(value[1])
    return [(t["exp"], t["coef"]) for t in payload["terms"]], payload["complete"]


def _coef(text: str, p):
    return Fraction(text) if p is None else int(text)


# ---------------------------------------------------------------------------
# F_p[x] on coefficient lists (ascending degree)

def _trim(a) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pneg(a, p):
    return tuple((-x) % p for x in a)


# ---------------------------------------------------------------------------
# checks

def _dense(job, value, pkg):
    p, tree, size, shift, scale, out = job.check[1:]
    fld = oracle.DenseField(p)
    ref = oracle.eval_dense(tree, size, fld)

    def index(exp):
        r = exp * scale - shift
        if r.denominator != 1 or not 0 <= r < size:
            raise ValueError(f"exponent {exp} outside the reference window")
        return int(r)

    if job.kind == "memo":
        got = [(index(Fraction(g.value)), c.value) for g, c in value.terms]
        complete = value.complete
    elif out == "terms":
        terms, complete = _json_terms(value)
        got = [(index(_parse_exp(e)), _coef(c, p)) for e, c in terms]
    else:
        payload = json.loads(value[1])
        if out == "vmin":
            got, want = index(_parse_exp(payload["vmin"])), oracle.dense_vmin(ref, fld)
            return None if got == want else f"vmin {got}, expected {want}"
        got = [index(_parse_exp(e)) for e in payload["support"]]
        want = oracle.dense_support(ref, fld)
        if not payload["complete"]:
            return "support enumeration incomplete"
        return None if got == want else f"support {got}, expected {want}"
    if not complete:
        return "result marked incomplete"
    want = oracle.dense_pairs(ref, fld)
    if got != want:
        diff = sorted(set(got) ^ set(want))
        return f"{len(diff)} terms differ from the dense oracle, first {diff[0]}"
    return None


def _ratfunc_product(job, value, pkg):
    p, a, b, n = job.check[1:]
    want = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n - i]):
            want[i + j] = _padd(want.get(i + j, ()), _pmul(x, y, p), p)
    terms, complete = _json_terms(value)
    got = {}
    for e, c in terms:
        num, den = _parse_ratfunc(c, p)
        if den != (1,):
            return f"coefficient {c} of a polynomial product has a denominator"
        got[int(_parse_exp(e))] = num
    want = {k: v for k, v in want.items() if v}
    if not complete:
        return "result marked incomplete"
    return None if got == want else "product differs from the F_p[x] convolution"


def _ratfunc_inverse(job, value, pkg):
    """b * c = 1 at every exponent up to the bound over F_p(x)."""
    p, b, bound = job.check[1:]
    terms, complete = _json_terms(value)
    c = {int(_parse_exp(e)): _parse_ratfunc(t, p) for e, t in terms}
    if not complete:
        return "result marked incomplete"
    for g in range(bound + 1):
        num, den = (), (1,)
        for h, bh in b:
            if g - h in c:
                cn, cd = c[g - h]  # num/den + bh*cn/cd
                num = _padd(_pmul(num, cd, p), _pmul(_pmul(bh, cn, p), den, p), p)
                den = _pmul(den, cd, p)
        target = _padd(num, _pneg(den, p), p) if g == 0 else num
        if target:
            return f"(b * b^-1) at t^{g} is not {int(g == 0)}"
    return None


def _lex_inverse(job, value, pkg):
    """b * c = 1 on the listed prefix of a truncated Z^n inverse: every
    support point below the frontier is listed, so exponents up to the
    largest listed one are exact."""
    (b,) = job.check[1:]
    terms, _ = _json_terms(value)
    if not terms:
        return "empty inverse"
    c = {_parse_exp(e): Fraction(t) for e, t in terms}
    top = max(c)
    zero = tuple(0 for _ in top)
    candidates = {tuple(x + y for x, y in zip(g, h)) for g in c for h, _ in b} | {zero}
    for g in sorted(x for x in candidates if x <= top):
        total = sum(bh * c.get(tuple(x - y for x, y in zip(g, h)), 0) for h, bh in b)
        if total != (1 if g == zero else 0):
            return f"(b * b^-1) at {g} is {total}"
    return None


def _no_output(job, value, pkg):
    return None if value[1] == "" else "output printed by a call that should fail"


def _suite(job, value, pkg):
    lines = value[1].splitlines()
    name = job.args[2]
    if not lines or not lines[-1].endswith(" reports, 0 failures") or len(lines) < 2:
        return f"suite summary {lines[-1:]!r}"
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        if status not in ("PASS", "BOUNDED-PASS", "HYPOTHESIS-UNMET") or name not in rest:
            return f"suite line {line!r}"
    return None


def _family_and_budget(job, pkg):
    argv = list(job.args)
    group = pkg.cli.parse_group_name(argv[argv.index("--group") + 1] if "--group" in argv else "Z")
    text = argv[argv.index("--family") + 1] if argv[0] == "classify" else argv[1]
    return pkg.cli.parse_family_text(text, group), pkg.SearchBudget(seed=0)


def _verdicts(job, pkg):
    """The library's verdicts, each Fails one confirmed by witness_refutes
    (a witness that does not refute raises ValueError)."""
    family, budget = _family_and_budget(job, pkg)
    verdicts = {}
    for name in pkg.CONDITION_NAMES:
        v = pkg.check_condition(family, name, budget)
        if v.fails:
            try:
                refuted = pkg.witness_refutes(family, name, v, budget)
            except (pkg.UnknownWithinBudget, pkg.TermBudgetExceeded) as exc:
                refuted = _negative_monoid_refutes(family, name, v.witness, pkg)
                if refuted is None:
                    raise Unconfirmed(f"{name} witness {v.witness}: {exc}") from None
            if not refuted:
                raise ValueError(f"{name} witness {v.witness} does not refute")
        verdicts[name] = v
    return family, verdicts


def _negative_monoid_refutes(family, name, witness, pkg):
    """Decide an S1, S4, A3 or A5 witness of a ``mon{...}`` family with the
    sign rule ``region_contains`` lacks: in an ordered group, sums of
    generators that are all <= 0 are <= 0, so a point > 0 lies outside the
    monoid.  A region family holds a set exactly when the region holds
    each of its points.  S1 and S4 witnesses refute when they are not in
    the family; an A3 witness is a translate of 0 (which every monoid
    holds) and refutes when it is one point outside; an A5 witness w
    refutes when w is in the region and -w is not.  None when the rule
    does not decide."""
    supports = pkg.supports
    if family.kind == supports.EXPLICIT_FAMILY or family.region.kind != supports.SUBMONOID:
        return None
    zero = pkg.groups.group_zero(family.group)
    if any(zero < g for g in family.region.elements):
        return None
    if name in ("S1", "S4", "A3") and any(zero < p for p in witness.points):
        return name != "A3" or len(witness.points) == 1
    if name == "A5" and zero < -witness:
        return supports.region_contains(family.region, witness)
    return None


CHAIN = ("rayner_field", "hahn_field", "subfield", "subring", "additive_subgroup")


def _classify(job, value, pkg):
    payload = json.loads(value[1])
    flags = {name: entry["value"] for name, entry in payload["flags"].items()}
    for stronger, weaker in zip(CHAIN, CHAIN[1:]):
        if flags[stronger] == "yes" and flags[weaker] != "yes":
            return f"{stronger}=yes but {weaker}={flags[weaker]}"
        if flags[weaker] == "no" and flags[stronger] != "no":
            return f"{weaker}=no but {stronger}={flags[stronger]}"
    if flags["has_identity"] == "yes" and flags["subring"] != "yes":
        return "has_identity=yes outside a subring"
    for fld, fam, expected in pkg.verify.CATALOG_EXPECTED:
        if (str(fld), str(fam)) == (payload["field"], payload["family"]):
            wrong = {k: flags[k] for k, v in expected.items() if flags[k] != v}
            if wrong:
                return f"catalog entry {fam} differs: {wrong}"
    family, verdicts = _verdicts(job, pkg)
    if payload["family"] != str(family):
        return f"family echoed as {payload['family']}"
    for name, v in verdicts.items():
        if payload["conditions"][name] != str(v):
            return f"{name} reported {payload['conditions'][name]!r}, library says {v}"
    return None


def _check_family(job, value, pkg):
    payload = json.loads(value[1])
    _, verdicts = _verdicts(job, pkg)
    for name, v in verdicts.items():
        entry = payload["conditions"][name]
        if entry["outcome"] != v.outcome:
            return f"{name} reported {entry['outcome']}, library says {v.outcome}"
        if v.witness is not None and entry.get("witness") != str(v.witness):
            return f"{name} witness {entry.get('witness')}, library says {v.witness}"
    return None


def _binomial(job, value, pkg):
    """(1 + t)^(2^k) has coefficient C(2^k, j) at t^j."""
    p, k, bound = job.check[1:]
    want = []
    for j in range(bound + 1):
        c = comb(1 << k, j)
        c = Fraction(c) if p is None else c % p
        if c:
            want.append((j, c))
    got = [(g.value, c.value) for g, c in value.terms]
    if not value.complete:
        return "result marked incomplete"
    return None if got == want else f"coefficients {got[:3]}..., expected {want[:3]}..."


def _is_true(job, value, pkg):
    return None if value is True else f"returned {value!r}"


def _report(job, value, pkg):
    want = job.check[1]
    return None if value.status == want else f"status {value.status} ({value.witness}), expected {want}"


_CHECKS = {
    "dense": _dense,
    "ratfunc_product": _ratfunc_product,
    "ratfunc_inverse": _ratfunc_inverse,
    "lex_inverse": _lex_inverse,
    "no_output": _no_output,
    "suite": _suite,
    "classify": _classify,
    "check_family": _check_family,
    "binomial": _binomial,
    "is_true": _is_true,
    "report": _report,
}
