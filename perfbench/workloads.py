"""Seeded job generators for the three workloads.

A job is plain data: the argv of a CLI call or the name and parameters of
a library call, the exit code the call should return, and a reference
spec that ``checks.py`` uses to judge the output.  Nothing here imports
the package under test, so generating inputs costs the measured program
nothing.

Every round of a workload holds the same job kinds and ladder sizes; the
seed only changes coefficients, exponents and order.  A run measures whole
rounds, so every run sees the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("eval", "session", "families")


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``kind`` is ``"cli"`` (``args`` is the argv of ``hahnseries.cli.main``)
    or the name of a library call in ``execute.py``.  ``check`` is the
    reference spec, ``(check_name, *params)``.  ``ladder`` tags jobs on a
    size ladder as ``(operation, series, size)`` for the doubling ratios.
    """

    kind: str
    args: tuple
    check: tuple
    expect_code: int = 0
    ladder: tuple | None = None


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    """The index-th round of a workload: its jobs in seeded order, except
    that memo queries keep their order, so the first query on a shared
    context is always the cold one at the top bound."""
    rng = random.Random(f"{seed}:{index}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    slots = [i for i, job in enumerate(jobs) if job.kind == "memo"]
    ordered = sorted((jobs[i] for i in slots), key=lambda job: job.args[:1] + (-job.args[4],))
    for i, job in zip(slots, ordered):
        jobs[i] = job
    return jobs


# ---------------------------------------------------------------------------
# expression text; trees use the neutral form of tests/oracle.py

FIELD_P = {"Q": None, "F2": 2, "F5": 5, "F7": 7}


def _coef(rng, p):
    """A nonzero coefficient, small over Q, a nonzero residue over F_p."""
    if p is None:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    return rng.randint(1, p - 1)


def term_text(c: int, e) -> str:
    return f"{c}*t^({e})"


def poly_text(pairs) -> str:
    """``c0*t^(e0) + c1*t^(e1) - ...`` for integer coefficients."""
    out = []
    for e, c in pairs:
        body = term_text(abs(c), e)
        if not out:
            out.append(body if c >= 0 else "-" + body)
        else:
            out.append((" + " if c >= 0 else " - ") + body)
    return "".join(out)


def render(tree) -> str:
    """CLI text of a neutral expression tree with integer coefficients."""
    kind = tree[0]
    if kind == "lit":
        return "(" + poly_text(tree[1]) + ")"
    if kind == "add":
        return f"({render(tree[1])} + {render(tree[2])})"
    if kind == "neg":
        return f"(-{render(tree[1])})"
    if kind == "mul":
        return f"{render(tree[1])}*{render(tree[2])}"
    if kind == "trunc":
        return f"trunc({render(tree[1])}, {tree[2]})"
    if kind == "inv":
        return f"inv({render(tree[1])})"
    raise ValueError(f"unknown tree node {kind}")


def _lit(rng, p, count, lo, hi, distinct=False):
    exps = rng.sample(range(lo, hi + 1), count) if distinct else [
        rng.randint(lo, hi) for _ in range(count)
    ]
    return ("lit", [(e, _coef(rng, p)) for e in sorted(exps)])


def poly_x_text(coeffs) -> str:
    """An F_p[x] polynomial (ascending coefficients) as a CLI coefficient."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        x = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        parts.append(str(c) if not x else (x if c == 1 else f"{c}*{x}"))
    return "(" + "+".join(parts) + ")"


def _poly_x(rng, p):
    coeffs = [rng.randint(0, p - 1) for _ in range(rng.randint(0, 2))]
    return tuple(coeffs + [rng.randint(1, p - 1)])


# ---------------------------------------------------------------------------
# eval: one-shot CLI evaluations

PRODUCT_SIZES = (19, 38, 75, 150)
INVERSE_BOUNDS = (25, 50, 100, 200)
SUM_SIZES = (100, 200, 400, 800, 1600)
OMEGA = "inv(1 + t^((0,1)) + t^((1,-3)))"
OMEGA_B = (((0, 0), 1), ((0, 1), 1), ((1, -3), 1))
RATFUNC_INVERSE = "inv(1 - x*t^(1) - t^(3))"
RATFUNC_B = ((0, (1,)), (1, (0, 2)), (3, (2,)))  # 1 - x*t - t^3 over F_3


def _dense_check(p, tree, size, shift=0, scale=1, out="terms"):
    return ("dense", p, tree, size, shift, scale, out)


def product_job(rng, field, n):
    if field == "F3(x)":
        a = [_poly_x(rng, 3) for _ in range(n)]
        b = [_poly_x(rng, 3) for _ in range(n)]
        text = "*".join(
            "(" + " + ".join(f"{poly_x_text(c)}*t^({e})" for e, c in enumerate(f)) + ")"
            for f in (a, b)
        )
        check = ("ratfunc_product", 3, tuple(a), tuple(b), n)
    else:
        p = FIELD_P[field]
        a = ("lit", [(e, _coef(rng, p)) for e in range(n)])
        b = ("lit", [(e, _coef(rng, p)) for e in range(n)])
        text = f"{render(a)}*{render(b)}"
        check = _dense_check(p, ("mul", a, b), n)
    return Job("cli", ("eval", text, "--field", field, "--json"), check,
               ladder=("mul", field, n))


def inverse_job(rng, field, bound):
    p = FIELD_P[field]
    if p is None:
        pairs = [(0, rng.choice((-1, 1))), (1, rng.choice((-1, 1))), (2, rng.choice((-1, 1)))]
    else:
        pairs = [(0, _coef(rng, p)), (1, _coef(rng, p)), (2, _coef(rng, p))]
    tree = ("inv", ("lit", pairs))
    argv = ("eval", render(tree), "--field", field, "--exp-bound", str(bound), "--json")
    return Job("cli", argv, _dense_check(p, tree, bound + 1),
               ladder=("inv", field, bound))


def rational_exponent_inverse_job(rng, bound):
    d = rng.choice((2, 3))
    a = rng.randint(1, d)
    b = rng.randint(a + 1, 2 * d + 1)
    signs = [rng.choice((-1, 1)) for _ in range(2)]
    text = (f"inv(1 {'+' if signs[0] > 0 else '-'} t^({a}/{d})"
            f" {'+' if signs[1] > 0 else '-'} t^({b}/{d}))")
    tree = ("inv", ("lit", [(0, 1), (a, signs[0]), (b, signs[1])]))
    argv = ("eval", text, "--group", "Q", "--exp-bound", str(bound), "--json")
    return Job("cli", argv, _dense_check(None, tree, bound * d + 1, scale=d))


def ratfunc_inverse_job(bound):
    argv = ("eval", RATFUNC_INVERSE, "--field", "F3(x)", "--exp-bound", str(bound), "--json")
    return Job("cli", argv, ("ratfunc_inverse", 3, RATFUNC_B, bound))


def omega_job(term_bound):
    argv = ("eval", OMEGA, "--group", "Z^2", "--exp-bound", "(3,0)",
            "--term-bound", str(term_bound), "--json")
    return Job("cli", argv, ("lex_inverse", OMEGA_B))


def trunc_job(rng, field):
    p = FIELD_P[field]
    prod = ("mul", _lit(rng, p, 6, 0, 12), _lit(rng, p, 6, 0, 12))
    cut = rng.randint(3, 20)
    argv = ("trunc", render(prod), str(cut), "--field", field, "--exp-bound", "24", "--json")
    return Job("cli", argv, _dense_check(p, ("trunc", prod, cut), 25))


def support_job(rng, field):
    p = FIELD_P[field]
    tree = ("add", ("mul", _lit(rng, p, 5, 0, 10), _lit(rng, p, 5, 0, 10)),
            ("neg", _lit(rng, p, 5, 0, 10)))
    argv = ("support", render(tree), "--field", field, "--exp-bound", "20", "--json")
    return Job("cli", argv, _dense_check(p, tree, 21, out="support"))


def vmin_job(rng, field):
    p = FIELD_P[field]
    unit = ("add", ("lit", [(0, 1)]), _lit(rng, p, 3, 1, 6))
    tree = ("mul", _lit(rng, p, 4, 1, 10, distinct=True), ("inv", unit))
    argv = ("vmin", render(tree), "--field", field, "--exp-bound", "20", "--json")
    return Job("cli", argv, _dense_check(p, tree, 21, out="vmin"))


def invert_witness_job(rng, field):
    p = FIELD_P[field]
    k = rng.randint(1, 5)
    unit = ("lit", [(0, _coef(rng, p))] + _lit(rng, p, 3, 1, 6)[1])
    argv = ("invert", f"t^({k})*{render(unit)}", "--g0", str(k), "--field", field,
            "--exp-bound", "15", "--json")
    return Job("cli", argv, _dense_check(p, ("inv", unit), 15 + k + 1, shift=-k))


def sum_job(rng, n):
    tree = ("lit", [(e, _coef(rng, None)) for e in range(n)])
    return Job("cli", ("eval", poly_text(tree[1]), "--json"), _dense_check(None, tree, n))


def budget_job(rng):
    c = rng.randint(1, 9)
    text = f"{c}*inv(1 + t^((0,1))) - {c}*inv(1 + t^((0,1)))"
    argv = ("vmin", text, "--group", "Z^2", "--exp-bound", "(1,0)",
            "--term-bound", str(rng.randint(30, 60)))
    return Job("cli", argv, ("no_output",), expect_code=3)


def eval_round(rng) -> list[Job]:
    # Three top products per field, and 31 cheap jobs of each kind, put the
    # p95 (about 8.5 jobs from the top of a round, behind the failed deep
    # sums and the Q inverse at 200) in the middle of the nine top products
    # instead of on an edge between tiers or fields, where it would jump.
    jobs = []
    for field in ("Q", "F7", "F3(x)"):
        jobs += [product_job(rng, field, n) for n in PRODUCT_SIZES + PRODUCT_SIZES[-1:] * 2]
    for field in ("Q", "F5", "F7"):
        jobs += [inverse_job(rng, field, n) for n in INVERSE_BOUNDS]
    jobs += [rational_exponent_inverse_job(rng, n) for n in (10, 20, 10, 20)]
    jobs += [ratfunc_inverse_job(n) for n in (40, 80)]
    jobs += [omega_job(n) for n in (100, 200)]
    for i in range(31):
        field = ("Q", "F7")[i % 2]
        jobs += [trunc_job(rng, field), support_job(rng, field),
                 vmin_job(rng, field), invert_witness_job(rng, field)]
    jobs += [sum_job(rng, n) for n in SUM_SIZES]
    jobs += [budget_job(rng) for _ in range(3)]
    return jobs


# ---------------------------------------------------------------------------
# session: library calls sharing one process

SUITE_PROCEDURES = (
    "catalog-classification", "closure-probe", "equivalence-lemma", "fp-gap",
    "neumann-support", "product-support", "truncation-refutation-f2",
)


def _positive_terms(rng, group):
    if group == "Q":
        pool = [(1, 2), (1, 1), (3, 2), (2, 1), (5, 2)]
    else:
        pool = [(e, 1) for e in range(1, 7)]
    pts = rng.sample(pool, rng.randint(1, 4))
    return tuple((e, (rng.randint(1, 9), rng.randint(1, 4))) for e in pts)


def _small_family(rng):
    universe = list(range(-2, 3))
    return tuple(
        tuple(sorted(rng.sample(universe, rng.randint(0, 3))))
        for _ in range(rng.randint(1, 4))
    )


def session_round(rng) -> list[Job]:
    # Five 14-squaring jobs per field put the p95 (about 8 jobs from the
    # top of a round, behind the suite run) inside one tier, and 98 memo
    # hits, two thirds of the round, put the p50 in the middle of theirs.
    jobs = []
    for field in ("Q", "F7"):
        jobs += [Job("square", (field, k, 5), ("binomial", FIELD_P[field], k, 5))
                 for k in (8, 9, 10, 11, 12, 13, 14, 14, 14, 14, 14)]
    # The memo series is fixed, 1 - t - t^2, so the seed cannot change how
    # many cached terms a memo hit filters.
    for index, field in enumerate(("Q", "F5")):
        p = FIELD_P[field]
        pairs = ((0, 1), (1, -1), (2, -1))
        top = 120
        bounds = [top] + [10 + (top - 10) * i // 48 for i in range(49)]
        jobs += [
            Job("memo", (index, field, pairs, top, b),
                _dense_check(p, ("inv", ("lit", list(pairs))), b + 1))
            for b in bounds
        ]
    for field in ("Q", "F2", "F5"):
        p = FIELD_P[field]
        for bound in (20, 27, 33, 40):
            pairs = ((0, _coef(rng, p)),) + tuple(_lit(rng, p, 3, 1, 8)[1])
            jobs.append(Job("roundtrip", (field, pairs, bound), ("is_true",)))
    jobs += [Job("fp_gap", (p,), ("report", "bounded-pass")) for p in (2, 3, 5, 7, 11, 13)]
    for group in ("Z", "Z", "Q", "Q"):
        jobs.append(Job("neumann", (group, _positive_terms(rng, group), 20), ("report", "pass")))
    pos = tuple((e, (rng.randint(1, 9), 1)) for e in sorted(rng.sample(range(0, 5), 2)))
    jobs.append(Job("product", ("positive", pos, ((0, (1, 1)), (1, (1, 1))), 10),
                    ("report", "pass")))
    jobs.append(Job("product", ("x-powers", rng.randint(1, 4), rng.randint(1, 4), 10),
                    ("report", "pass")))
    jobs.append(Job("product", ("cancel", rng.randint(1, 4), 0, 10),
                    ("report", "hypothesis-unmet")))
    jobs += [Job("refute", (rng.randint(6, 8), 30), ("report", "bounded-pass")) for _ in range(2)]
    for op in ("add", "mul", "add", "mul"):
        jobs.append(Job("probe", (_small_family(rng), op), ("report", "pass")))
    jobs.append(Job("cli", ("suite", "--filter", rng.choice(SUITE_PROCEDURES)), ("suite",)))
    return jobs


# ---------------------------------------------------------------------------
# families: classify and check-family through the CLI

FIELDS = ("Q", "F2", "F5", "F3(x)")


def _exponent(rng, group, lo=-6, hi=15):
    if group == "Q":
        d = rng.choice((1, 2, 3))
        n = 0
        while n == 0:
            n = rng.randint(lo, hi)
        return f"{n}/{d}" if d > 1 else str(n)
    if group.startswith("Z^"):
        rank = int(group[2:])
        return "(" + ",".join(str(rng.randint(-3, 5)) for _ in range(rank)) + ")"
    if group == "trivial":
        return "0"
    n = 0
    while n == 0:
        n = rng.randint(lo, hi)
    return str(n)


def region_text(rng, group, kind) -> str:
    whole = {"Z": "Z", "Q": "Q"}.get(group, "G")
    if kind == "whole":
        return whole
    if kind == "nonneg":
        return whole + ">=0"
    if kind == "pos":
        return whole + ">0"
    if kind == "mon6":
        return "mon{6,10,15}"
    count = rng.randint(1, 3)
    elems = ",".join(_exponent(rng, group) for _ in range(count))
    return f"{kind}{{{elems}}}"


def _family_job(family, group, field, classify):
    if classify:
        argv = ("classify", "--family", family)
        check = ("classify",)
    else:
        argv = ("check-family", family, "--condition", "all")
        check = ("check_family",)
    return Job("cli", argv + ("--group", group, "--field", field, "--json"), check)


def _explicit_text(sets) -> str:
    return "explicit{" + ",".join("{" + ",".join(str(x) for x in s) + "}" for s in sets) + "}"


def closed_family(rng, k):
    """All subsets of a k-point set: closed under subsets and unions."""
    base = sorted(rng.sample(range(-5, 9), k))
    return [[x for i, x in enumerate(base) if mask >> i & 1] for mask in range(1 << k)]


def open_family(rng, n):
    seen = set()
    while len(seen) < n:
        seen.add(tuple(sorted(rng.sample(range(-4, 7), rng.randint(0, 4)))))
    return sorted(seen)


REGION_SLOTS = [(g, k) for g in ("Z", "Q", "Z^2", "Z^3", "trivial")
                for k in ("whole", "nonneg", "pos", "mon", "mon", "grp", "set")]
REGION_SLOTS += [("Z", "mon6"), ("Z", "mon"), ("Z", "grp"), ("Z", "set"), ("Q", "mon")]


def _balanced(rng, n):
    """n booleans, half of them True, in seeded order."""
    flags = [i % 2 == 0 for i in range(n)]
    rng.shuffle(flags)
    return flags


def families_round(rng) -> list[Job]:
    # Every round has the same region kinds on the same groups, half
    # classify and half check-family, so the seed cannot shift the mix.
    jobs = [Job("cli", ("classify", "--family", catalog, "--json"), ("classify",))
            for catalog in ("W(Z)", "W(Z>=0)", "FIN(Z)")]
    whole_kind = _balanced(rng, len(REGION_SLOTS))
    classify = _balanced(rng, len(REGION_SLOTS) + 17)
    for i, (group, kind) in enumerate(REGION_SLOTS):
        family = f"{'W' if whole_kind[i] else 'FIN'}({region_text(rng, group, kind)})"
        jobs.append(_family_job(family, group, rng.choice(FIELDS), classify.pop()))
    # Four 128-member closed families put the p95 (about 3 jobs from the
    # top of a round) inside their tier.
    for k in (1, 2, 3, 4, 5, 6, 7, 7, 7, 7):
        jobs.append(_family_job(_explicit_text(closed_family(rng, k)), "Z",
                                rng.choice(FIELDS), classify.pop()))
    for k in range(1, 8):
        jobs.append(_family_job(_explicit_text(open_family(rng, 1 << k)), "Z",
                                rng.choice(FIELDS), classify.pop()))
    return jobs


_GENERATORS = {"eval": eval_round, "session": session_round, "families": families_round}


def warmup_jobs(workload: str) -> list[Job]:
    """A fixed, seed-independent handful of small jobs run before timing."""
    rng = random.Random("warmup")
    if workload == "eval":
        return [product_job(rng, "Q", 19), inverse_job(rng, "F7", 25),
                trunc_job(rng, "Q"), support_job(rng, "F7"), vmin_job(rng, "Q"),
                invert_witness_job(rng, "F7"), omega_job(50), sum_job(rng, 50)]
    if workload == "session":
        return [Job("square", ("Q", 8, 5), ("binomial", None, 8, 5)),
                Job("roundtrip", ("F5", ((0, 1), (1, 2)), 20), ("is_true",)),
                Job("fp_gap", (3,), ("report", "bounded-pass")),
                Job("neumann", ("Z", (((1, 1), (1, 1)),), 10), ("report", "pass")),
                Job("refute", (4, 20), ("report", "bounded-pass")),
                Job("probe", (((), (0,)), "add"), ("report", "pass"))]
    return [Job("cli", ("classify", "--family", "W(Z)", "--json"), ("classify",)),
            Job("cli", ("check-family", "W(mon{6,10,15})", "--json"), ("check_family",)),
            _family_job(_explicit_text(closed_family(rng, 3)), "Z", "F5", True)]
