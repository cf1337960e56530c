"""Executable verification procedures with JSON-ready reports.

Each procedure checks one structural claim at a horizon: support of
products under positivity or independence hypotheses, support of
geometric inverses, the vanishing coefficient that separates the two
over F_p, the bounded refutation that the field generated by t^2 + t^3
over F_2 is not truncation closed, the equivalence of the four
nonemptiness-flavoured conditions, and closure probing of explicit
families against the classifier's predictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .classify import classify_khull
from .conditions import check_conditions
from .errors import FieldTooSmall, TermBudgetExceeded
from .fields import QQ, FieldDescriptor, is_strictly_positive, prime_field
from .groups import INTEGERS, RATIONALS, TRIVIAL, group_zero, unit_sample
from .series import (
    EvaluationContext,
    Horizon,
    coefficients_up_to,
    from_terms,
    invert,
    one_series,
)
from .supports import (
    DEFAULT_BUDGET,
    EXPLICIT_FAMILY,
    Family,
    SearchBudget,
    SupportSet,
    explicit_family,
    explicit_support,
    family_contains,
    finite_subsets_family,
    finite_sums_closure,
    minkowski_sum,
    nonneg_cone,
    ones_series,
    support_of_terms,
    well_ordered_family,
    whole_group,
)

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
BOUNDED_PASS = "bounded-pass"


@dataclass(frozen=True)
class Report:
    procedure: str
    parameters: dict
    status: str
    citation: str
    witness: object = None
    details: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json_dict(self) -> dict:
        out = {
            "procedure": self.procedure,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "status": self.status,
            "citation": self.citation,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.details:
            out["details"] = {k: str(v) for k, v in self.details.items()}
        return out


# ---------------------------------------------------------------------------
# product support

def _x_power_degree(c) -> int | None:
    """Degree when c is a monic power of x in F_p(x), else None."""
    num, den = c.value
    if den != (1,) or not num:
        return None
    if any(v != 0 for v in num[:-1]) or num[-1] != 1:
        return None
    return len(num) - 1


def _degree_collision(ta, tb) -> str | None:
    """The first convolution fiber on which two x-degree sums coincide."""
    fibers: dict = {}
    for ga, ca in ta.terms:
        da = _x_power_degree(ca)
        for gb, cb in tb.terms:
            fibers.setdefault(ga + gb, []).append(da + _x_power_degree(cb))
    for target, sums in fibers.items():
        if len(sums) != len(set(sums)):
            return f"colliding x-degrees on the fiber over {target}"
    return None


# field kind -> (route, what every coefficient must be, its test)
_PRODUCT_ROUTES = {
    "Q": ("positive-coefficients", "strictly positive", is_strictly_positive),
    "Fp(x)": ("independent-coefficients", "a power of x",
              lambda c: _x_power_degree(c) is not None),
}


def verify_product_support(a, b, h: Horizon) -> Report:
    """Enumerated supp(a*b) against ``minkowski_sum`` of supp(a) and
    supp(b), up to the lower of the sum's limit and the product's.

    Equal under either hypothesis route: all coefficients strictly
    positive rationals, or monomial powers of x over F_p(x) whose degree
    sums are distinct on every convolution fiber (so no cancellation mod
    p can occur).  Without a route the report is hypothesis-unmet but
    still shows the comparison.
    """
    fld, group = a.field, a.group
    ta = coefficients_up_to(a, h)
    tb = coefficients_up_to(b, h)
    if not (ta.complete and tb.complete):
        raise TermBudgetExceeded("operand enumeration incomplete")
    params = {"field": fld, "exp_bound": h.exp_bound}
    expected = minkowski_sum(support_of_terms(group, ta, h.exp_bound),
                             support_of_terms(group, tb, h.exp_bound), h)
    got = support_of_terms(group, coefficients_up_to(a * b, h), h.exp_bound)
    # an exclusive (budget-hit) limit lies below an inclusive one at the same point
    limit, inclusive = min((s.bound, not s.budget_hit) for s in (expected, got))
    lhs, sum_set = ([g for g in s.points if g < limit or inclusive and g == limit]
                    for s in (got, expected))
    lhs_set, sums = set(lhs), set(sum_set)
    missing = [g for g in sum_set if g not in lhs_set]
    extra = [g for g in lhs if g not in sums]
    details = {
        "product_support": "{" + ",".join(map(str, lhs)) + "}",
        "support_sum_set": "{" + ",".join(map(str, sum_set)) + "}",
    }
    if (limit, inclusive) != (h.exp_bound, True):
        details["compared_up_to"] = f"{'<=' if inclusive else '<'} {limit}"
    if missing:
        details["missing"] = "{" + ",".join(map(str, missing)) + "}"

    route, demand, admissible = _PRODUCT_ROUTES.get(fld.kind, ("none", "", None))
    params["route"] = route
    if route == "none":
        hypothesis_fail = f"{fld} offers neither order nor an independence supply"
    elif bad := next(((g, c) for g, c in ta.terms + tb.terms if not admissible(c)), None):
        hypothesis_fail = f"coefficient {bad[1]} at {bad[0]} is not {demand}"
    elif route == "independent-coefficients":
        hypothesis_fail = _degree_collision(ta, tb)
    else:
        hypothesis_fail = None

    citation = "product-support-equality"
    if hypothesis_fail:
        return Report(
            "product-support", params, HYPOTHESIS_UNMET, citation,
            witness=hypothesis_fail, details=details,
        )
    if missing or extra:
        return Report(
            "product-support", params, FAIL, citation,
            witness=(missing + extra)[0], details=details,
        )
    return Report("product-support", params, PASS, citation, details=details)


# ---------------------------------------------------------------------------
# geometric inverse support

def verify_neumann_support(a, h: Horizon) -> Report:
    """Enumerated supp((1-a)^-1) against the finite-sums closure of
    supp(a), for a with strictly positive support and strictly positive
    rational coefficients."""
    fld = a.field
    params = {"field": fld, "exp_bound": h.exp_bound}
    citation = "geometric-inverse-support-equality"
    if fld.kind != "Q":
        return Report(
            "neumann-support", params, HYPOTHESIS_UNMET, citation,
            witness=f"{fld} has no ordered subfield of positive coefficients",
        )
    ctx = EvaluationContext(h)
    ta = ctx.coefficients(a)
    if not ta.complete:
        raise TermBudgetExceeded("operand enumeration incomplete")
    zero = group_zero(a.group)
    for g, c in ta.terms:
        if not zero < g:
            return Report(
                "neumann-support", params, HYPOTHESIS_UNMET, citation,
                witness=f"support point {g} is not strictly positive",
            )
        if not is_strictly_positive(c):
            return Report(
                "neumann-support", params, HYPOTHESIS_UNMET, citation,
                witness=f"coefficient {c} at {g} is not strictly positive",
            )
    inv_support = ctx.coefficients(invert(one_series(a.group, fld) - a)).support()
    closure = finite_sums_closure(support_of_terms(a.group, ta, h.exp_bound), h)
    if closure.budget_hit:
        raise TermBudgetExceeded("sum closure enumeration incomplete")
    details = {
        "inverse_support": "{" + ",".join(map(str, inv_support)) + "}",
        "sum_closure": "{" + ",".join(map(str, closure.points)) + "}",
    }
    if inv_support == closure.points:
        return Report("neumann-support", params, PASS, citation, details=details)
    return Report("neumann-support", params, FAIL, citation, details=details,
                  witness=min(set(closure.points).symmetric_difference(inv_support)))


def verify_fp_gap(p: int, h: Horizon | None = None) -> Report:
    """Over F_p the inverse of 1 - t + t^p has coefficient 0 at exponent
    p, while p lies in the sum closure of {1, p}: the support inclusion
    for geometric inverses is strict in positive characteristic."""
    fld = prime_field(p)
    if h is None:
        h = Horizon(INTEGERS.element(p + 2))
    params = {"p": p, "exp_bound": h.exp_bound}
    citation = "inverse-support-gap-mod-p"
    one = fld.one
    z = INTEGERS.element
    b = from_terms(INTEGERS, fld, [(z(0), one), (z(1), -one), (z(p), one)])  # 1 - t + t^p
    # the inverse and the closure both reach p when the horizon stops short of it
    reach = max(h.exp_bound, z(p))
    tl = EvaluationContext(h).coefficients(invert(b), reach)
    if not tl.complete and not z(p) < tl.frontier:
        raise TermBudgetExceeded(f"coefficient at {p} not certain within budget")
    coeff = tl.coefficient_at(z(p)) or fld.zero
    closure = finite_sums_closure(explicit_support(INTEGERS, [z(1), z(p)]),
                                  Horizon(reach, h.term_bound))
    in_closure = z(p) in closure.points
    prefix = ",".join(str(g) for g in tl.support() if not g > h.exp_bound)
    details = {
        "coefficient_at_p": coeff,
        "p_in_sum_closure": in_closure,
        "inverse_support_prefix": "{" + prefix + "}",
    }
    if coeff.is_zero and in_closure:
        return Report("fp-gap", params, BOUNDED_PASS, citation, details=details)
    return Report(
        "fp-gap", params, FAIL, citation,
        witness=f"coefficient {coeff} at {p}", details=details,
    )


# ---------------------------------------------------------------------------
# truncation closure refutation over F_2

def _f2_mask(tl, bound: int) -> int:
    mask = 0
    for g, c in tl.terms:
        if 0 <= g.value <= bound and c.value == 1:
            mask |= 1 << g.value
    return mask


def refute_truncation_closure_f2(max_degree: int, h: Horizon) -> Report:
    """Exhaustively check that t^2 * q(s) differs from p(s) as expansions
    up to the horizon, for s = t^2 + t^3 over F_2 and all polynomial
    pairs with deg <= max_degree and q != 0.

    A bounded confirmation that the field generated by s does not contain
    t^2 (hence is not truncation closed); consistent with the claim, not
    a proof for unbounded degrees.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    fld = prime_field(2)
    bound = h.exp_bound.value
    params = {"max_degree": max_degree, "exp_bound": h.exp_bound}
    citation = "generated-field-misses-t2"
    z = INTEGERS.element
    s = from_terms(INTEGERS, fld, [(z(2), fld.one), (z(3), fld.one)])
    ctx = EvaluationContext(h)
    power = one_series(INTEGERS, fld)
    power_masks = []
    for _ in range(max_degree + 1):
        power_masks.append(_f2_mask(ctx.coefficients(power), bound))
        power = power * s
    n_vectors = 1 << (max_degree + 1)
    values = [0] * n_vectors
    for mask in range(1, n_vectors):
        low = mask & -mask
        values[mask] = values[mask ^ low] ^ power_masks[low.bit_length() - 1]
    window = (1 << (bound + 1)) - 1
    shifted = {}
    for qmask in range(1, n_vectors):
        shifted.setdefault((values[qmask] << 2) & window, qmask)
    pairs_checked = 0
    for pmask in range(n_vectors):
        pairs_checked += n_vectors - 1
        qmask = shifted.get(values[pmask] & window)
        if qmask is not None:
            return Report(
                "truncation-refutation-f2", params, FAIL, citation,
                witness=f"p mask {pmask:b}, q mask {qmask:b}",
                details={"pairs_checked": pairs_checked},
            )
    return Report(
        "truncation-refutation-f2", params, BOUNDED_PASS, citation,
        details={
            "pairs_checked": pairs_checked,
            "note": f"no collision for degrees <= {max_degree}; not a proof",
        },
    )


# ---------------------------------------------------------------------------
# equivalence of the nonemptiness-flavoured conditions

def check_equivalence_lemma(F: Family) -> Report:
    """Under S2, A4, A3 and a nontrivial group, the conditions S5, S4,
    S1 and A1 stand or fall together."""
    params = {"family": F}
    citation = "nonempty-zero-singletons-generation-equivalence"
    verdicts = check_conditions(F, ("S2", "A4", "A3", "S5", "S4", "S1", "A1"))
    hypotheses = {name: verdicts[name] for name in ("S2", "A4", "A3")}
    four = {name: verdicts[name] for name in ("S5", "S4", "S1", "A1")}
    details = {name: str(v) for name, v in verdicts.items()}
    nontrivial = F.group.kind != "trivial"
    details["group_nontrivial"] = nontrivial
    unmet = [n for n, v in hypotheses.items() if not v.holds]
    if unmet or not nontrivial:
        which = ", ".join(unmet) if unmet else "nontrivial group"
        return Report(
            "equivalence-lemma", params, HYPOTHESIS_UNMET, citation,
            witness=f"hypothesis not established: {which}", details=details,
        )
    outcomes = {v.holds for v in four.values()}
    if len(outcomes) == 1:
        return Report("equivalence-lemma", params, PASS, citation, details=details)
    return Report(
        "equivalence-lemma", params, FAIL, citation,
        witness={n: v.outcome for n, v in four.items()}, details=details,
    )


# ---------------------------------------------------------------------------
# closure probing of explicit families

def _probe_horizon(F: Family) -> Horizon:
    pts = [p for m in F.members for p in m]
    if not pts:
        return Horizon(group_zero(F.group))
    top = max(max(pts), -min(pts))
    return Horizon(top + top + (unit_sample(F.group) or group_zero(F.group)))


def _additive_probes(fld: FieldDescriptor, members):
    """(A, B, a + c) for every ordered pair of members: a is all ones on
    A and c on B, negated on the part of the overlap a + c is to cancel,
    so a + c has support (A xor B) plus each subset of the overlap."""
    for A in members:
        a = ones_series(A, fld)
        for B in members:
            overlap = sorted(set(A.points) & set(B.points))
            for mask in range(1 << len(overlap)):
                negated = {p for i, p in enumerate(overlap) if not mask >> i & 1}
                yield A, B, a + ones_series(B, fld, negated)


def _multiplicative_probes(fld: FieldDescriptor, members):
    """(A, B, a * b) for every ordered pair of members, with a and b the
    all-ones series on them."""
    for A in members:
        for B in members:
            yield A, B, ones_series(A, fld) * ones_series(B, fld)


# op -> (conditions that predict closure, citation, probe generator)
_CLOSURE_PROBES = {
    "add": (("S2", "S3", "S5"), "additive-closure-matches-S2-S3-S5", _additive_probes),
    "mul": (("A2",), "multiplicative-closure-matches-A2", _multiplicative_probes),
}


def brute_force_closure_probe(fld: FieldDescriptor, F: Family, op: str,
                              budget: SearchBudget = DEFAULT_BUDGET) -> Report:
    """Construct series with supports in the family, apply the operation,
    and check that the resulting supports stay in the family; the verdict
    is cross-checked against the condition-based prediction."""
    if F.kind != EXPLICIT_FAMILY:
        raise ValueError("closure probing needs an explicit family")
    if op not in _CLOSURE_PROBES:
        raise ValueError("op must be 'add' or 'mul'")
    if fld.kind == "Fp" and fld.p == 2:
        raise FieldTooSmall("closure probing constructions need a field beyond F_2")
    params = {"field": fld, "family": F, "op": op}
    names, citation, probe_series = _CLOSURE_PROBES[op]
    prediction = all(v.holds for v in check_conditions(F, names).values())
    h = _probe_horizon(F)
    members = [SupportSet(F.group, m) for m in F.members]
    # the empty hull is not a group, so no members means not add-closed
    closed = bool(members) or op == "mul"
    probes = 0
    violation = None
    for A, B, s in probe_series(fld, members):
        got = support_of_terms(F.group, coefficients_up_to(s, h), h.exp_bound)
        probes += 1
        if probes > budget.enumeration_cap:
            raise TermBudgetExceeded("probe budget exhausted")
        if not family_contains(F, got):
            closed = False
            violation = (A, B, got)
            break
    details = {
        "closed_under_probes": closed,
        "predicted_closed": prediction,
        "probes": probes,
    }
    if violation:
        details["violation"] = (
            f"supp({violation[0]} op {violation[1]}) = {violation[2]}"
        )
    status = PASS if closed == prediction else FAIL
    return Report(
        "closure-probe", params, status, citation,
        witness=None if status == PASS else details.get("violation"),
        details=details,
    )


# ---------------------------------------------------------------------------
# the default verification suite

CATALOG_EXPECTED = [
    # (field, family, {flag: value}) frozen from the classification rules
    (
        QQ,
        well_ordered_family(whole_group(INTEGERS)),
        {name: "yes" for name in (
            "additive_subgroup", "subring", "has_identity", "subfield",
            "hahn_field", "rayner_field", "restriction_closed",
            "truncation_closed",
        )},
    ),
    (
        QQ,
        well_ordered_family(nonneg_cone(INTEGERS)),
        {
            "additive_subgroup": "yes",
            "subring": "yes",
            "has_identity": "yes",
            "subfield": "no",
            "hahn_field": "no",
            "rayner_field": "no",
            "restriction_closed": "yes",
            "truncation_closed": "yes",
        },
    ),
    (
        QQ,
        finite_subsets_family(whole_group(INTEGERS)),
        {
            "additive_subgroup": "yes",
            "subring": "yes",
            "has_identity": "yes",
            "subfield": "no",
            "hahn_field": "no",
            "rayner_field": "no",
            "restriction_closed": "yes",
            "truncation_closed": "yes",
        },
    ),
]


def _trivial_rayner_reports() -> list[tuple[str, bool]]:
    z = group_zero(TRIVIAL)
    rows = []
    for members, expected in (
        ([[], [z]], "yes"),
        ([[]], "no"),
        ([[z]], "no"),
        ([], "no"),
    ):
        F = explicit_family(TRIVIAL, members)
        got = classify_khull(prime_field(2), F).flag("rayner_field").value
        rows.append((f"{F} -> {got}", got == expected))
    return rows


def catalog_classification_report() -> Report:
    """Golden classification table for the descriptor catalog, including
    the trivial-group picture where only {{},{0}} is a Rayner family."""
    mismatches = []
    rows = []
    for fld, fam, expected in CATALOG_EXPECTED:
        c = classify_khull(fld, fam)
        for name, want in expected.items():
            got = c.flag(name).value
            rows.append(f"{fld}/{fam}: {name}={got}")
            if got != want:
                mismatches.append(f"{fld}/{fam}: {name}={got}, expected {want}")
    for row, ok in _trivial_rayner_reports():
        rows.append(f"trivial {row}")
        if not ok:
            mismatches.append(row)
    status = PASS if not mismatches else FAIL
    return Report(
        "catalog-classification",
        {"entries": len(rows)},
        status,
        "classification-rule-table",
        witness=mismatches[0] if mismatches else None,
        details={"rows": len(rows)},
    )


def _random_positive_series(rng, group_kind: str):
    if group_kind == "Q":
        pool = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        pts = rng.sample(pool, rng.randint(1, 4))
        group = RATIONALS
    else:
        pts = rng.sample(range(1, 7), rng.randint(1, 5))
        group = INTEGERS
    terms = [
        (group.element(p), QQ.element(Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        for p in pts
    ]
    return from_terms(group, QQ, terms)


def neumann_support_batch(count: int, seed: int, group_kind: str,
                          exp_bound) -> Report:
    """Seeded batch of geometric-inverse support checks."""
    rng = random.Random(seed)
    group = RATIONALS if group_kind == "Q" else INTEGERS
    h = Horizon(group.element(exp_bound))
    failures = []
    for i in range(count):
        a = _random_positive_series(rng, group_kind)
        r = verify_neumann_support(a, h)
        if r.status != PASS:
            failures.append((i, r.witness))
    status = PASS if not failures else FAIL
    return Report(
        "neumann-support-batch",
        {"count": count, "seed": seed, "group": group_kind, "exp_bound": exp_bound},
        status,
        "geometric-inverse-support-equality",
        witness=failures[0] if failures else None,
        details={"instances": count, "failures": len(failures)},
    )


def closure_probe_agreement_batch(count: int, seed: int,
                                  budget: SearchBudget = DEFAULT_BUDGET) -> Report:
    """Seeded random explicit families: the additive-closure probe verdict
    must match the condition-based prediction every time."""
    rng = random.Random(seed)
    disagreements = 0
    first = None
    for i in range(count):
        if rng.random() < 0.3:
            # closed-up family over a small universe, so closure holds
            # sometimes and the full probe enumeration stays cheap
            universe = rng.sample(range(-3, 4), 4)
            members = [
                [INTEGERS.element(v) for v in rng.sample(universe, rng.randint(0, 3))]
                for _ in range(rng.randint(0, 4))
            ]
            F = _close_family(explicit_family(INTEGERS, members))
        else:
            members = [
                [INTEGERS.element(v) for v in rng.sample(range(-3, 4), rng.randint(0, 4))]
                for _ in range(rng.randint(0, 6))
            ]
            F = explicit_family(INTEGERS, members)
        r = brute_force_closure_probe(QQ, F, "add", budget)
        if r.status != PASS:
            disagreements += 1
            if first is None:
                first = str(F)
    status = PASS if disagreements == 0 else FAIL
    return Report(
        "closure-probe-agreement",
        {"count": count, "seed": seed},
        status,
        "additive-closure-matches-S2-S3-S5",
        witness=first,
        details={"families": count, "disagreements": disagreements},
    )


def _close_family(F: Family) -> Family:
    """Close a small explicit family under subsets and pairwise unions."""
    sets = {frozenset(m) for m in F.members}
    changed = True
    while changed and len(sets) < 128:
        changed = False
        for a in list(sets):
            for b in list(sets):
                u = a | b
                if u not in sets:
                    sets.add(u)
                    changed = True
        for a in list(sets):
            for point in a:
                sub = a - {point}
                if sub not in sets:
                    sets.add(sub)
                    changed = True
    return explicit_family(F.group, [sorted(s) for s in sets])


def run_suite(seed: int = 0, budget: SearchBudget = DEFAULT_BUDGET,
              name_filter: str | None = None) -> list[Report]:
    """Every verifier with default parameters, in name order."""
    z = INTEGERS.element
    reports: list[Report] = []

    reports.append(catalog_classification_report())

    for p in (2, 3, 5, 7, 11, 13):
        reports.append(verify_fp_gap(p))

    reports.append(
        refute_truncation_closure_f2(6, Horizon(z(30)))
    )

    h20 = Horizon(z(20))
    t2_t3 = from_terms(INTEGERS, QQ, [(z(2), QQ.one), (z(3), QQ.one)])
    reports.append(verify_neumann_support(t2_t3, Horizon(z(7))))
    reports.append(verify_neumann_support(from_terms(INTEGERS, QQ, [(z(1), QQ.one)]), h20))
    reports.append(neumann_support_batch(25, seed + 1, "Z", 20))
    reports.append(neumann_support_batch(25, seed + 2, "Q", Fraction(20)))

    one_t = from_terms(INTEGERS, QQ, [(z(0), QQ.one), (z(1), QQ.one)])
    reports.append(verify_product_support(t2_t3, one_t, Horizon(z(10))))
    from .fields import rational_functions

    f2x = rational_functions(2)
    x = f2x.element(((0, 1), (1,)))
    x2 = f2x.element(((0, 0, 1), (1,)))
    pa = from_terms(INTEGERS, f2x, [(z(0), f2x.one), (z(1), x)])
    pb = from_terms(INTEGERS, f2x, [(z(0), f2x.one), (z(1), x2)])
    reports.append(verify_product_support(pa, pb, Horizon(z(10))))
    one_minus_t = from_terms(INTEGERS, QQ, [(z(0), QQ.one), (z(1), -QQ.one)])
    reports.append(verify_product_support(one_t, one_minus_t, Horizon(z(10))))

    for fam in (
        well_ordered_family(whole_group(INTEGERS)),
        well_ordered_family(nonneg_cone(INTEGERS)),
        explicit_family(INTEGERS, [[], [z(0)]]),
    ):
        reports.append(check_equivalence_lemma(fam))

    reports.append(closure_probe_agreement_batch(100, seed + 3, budget))
    reports.append(
        brute_force_closure_probe(
            QQ, explicit_family(INTEGERS, [[], [z(0)], [z(1)]]), "mul", budget
        )
    )

    reports.sort(key=lambda r: (r.procedure, str(r.parameters)))
    if name_filter:
        reports = [r for r in reports if name_filter in r.procedure]
    return reports
