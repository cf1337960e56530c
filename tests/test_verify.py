import random
from fractions import Fraction

import pytest

from hahnseries.errors import FieldTooSmall
from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, RATIONALS
from hahnseries.series import Horizon, from_terms
from hahnseries.supports import (
    explicit_family,
    nonneg_cone,
    well_ordered_family,
    whole_group,
)
from hahnseries.verify import (
    brute_force_closure_probe,
    catalog_classification_report,
    check_equivalence_lemma,
    closure_probe_agreement_batch,
    neumann_support_batch,
    refute_truncation_closure_f2,
    run_suite,
    verify_fp_gap,
    verify_neumann_support,
    verify_product_support,
)

F2X = rational_functions(2)


def zq(n):
    return INTEGERS.element(n)


def qpoly(*pairs):
    return from_terms(INTEGERS, QQ, [(zq(g), QQ.element(Fraction(c))) for g, c in pairs])


def H(bound):
    return Horizon(zq(bound))


def test_product_support_positive():
    r = verify_product_support(qpoly((2, 1), (3, 1)), qpoly((0, 1), (1, 1)), H(10))
    assert r.status == "pass"
    assert r.parameters["route"] == "positive-coefficients"
    assert "{2,3,4}" == r.details["product_support"]


def test_product_support_cancellation_demo():
    r = verify_product_support(qpoly((0, 1), (1, 1)), qpoly((0, 1), (1, -1)), H(10))
    assert r.status == "hypothesis-unmet"
    # the demo shows why the hypothesis matters: exponent 1 goes missing
    assert "missing" in r.details
    assert "1" in r.details["missing"]


def test_product_support_independent_route():
    x = F2X.element(((0, 1), (1,)))
    x2 = F2X.element(((0, 0, 1), (1,)))
    a = from_terms(INTEGERS, F2X, [(zq(0), F2X.one), (zq(1), x)])
    b = from_terms(INTEGERS, F2X, [(zq(0), F2X.one), (zq(1), x2)])
    r = verify_product_support(a, b, H(10))
    assert r.status == "pass"
    assert r.parameters["route"] == "independent-coefficients"


def test_product_support_colliding_powers():
    x = F2X.element(((0, 1), (1,)))
    a = from_terms(INTEGERS, F2X, [(zq(0), F2X.one), (zq(1), x)])
    r = verify_product_support(a, a, H(10))
    assert r.status == "hypothesis-unmet"
    assert "fiber" in str(r.witness)


def test_product_support_no_route():
    f5 = prime_field(5)
    a = from_terms(INTEGERS, f5, [(zq(0), f5.one)])
    r = verify_product_support(a, a, H(5))
    assert r.status == "hypothesis-unmet"


def test_neumann_support_examples():
    r = verify_neumann_support(qpoly((2, 1), (3, 1)), H(7))
    assert r.status == "pass"
    assert r.details["sum_closure"] == "{0,2,3,4,5,6,7}"
    r = verify_neumann_support(qpoly((1, 1)), H(6))
    assert r.status == "pass"
    assert r.details["inverse_support"] == "{0,1,2,3,4,5,6}"


def test_neumann_support_hypothesis_unmet():
    f3 = prime_field(3)
    a = from_terms(INTEGERS, f3, [(zq(1), f3.one), (zq(3), f3.element(-1))])
    assert verify_neumann_support(a, H(6)).status == "hypothesis-unmet"
    assert verify_neumann_support(qpoly((1, -1)), H(6)).status == "hypothesis-unmet"
    assert verify_neumann_support(qpoly((0, 1), (1, 1)), H(6)).status == "hypothesis-unmet"


def test_neumann_support_rational_exponents():
    half = RATIONALS.element(Fraction(1, 2))
    a = from_terms(RATIONALS, QQ, [(half, QQ.element(Fraction(1, 3)))])
    r = verify_neumann_support(a, Horizon(RATIONALS.element(Fraction(3))))
    assert r.status == "pass"
    assert r.details["sum_closure"] == "{0,1/2,1,3/2,2,5/2,3}"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fp_gap(p):
    r = verify_fp_gap(p)
    assert r.status == "bounded-pass"
    assert r.details["coefficient_at_p"].is_zero
    assert r.details["p_in_sum_closure"] is True


@pytest.mark.parametrize("p,bound", [(5, 3), (7, 2), (3, 1), (2, 0)])
def test_fp_gap_passes_with_a_horizon_below_p(p, bound):
    # the sum closure of {1, p} is enumerated as far as the coefficient
    # at p is evaluated, so it holds p although the horizon stops short
    r = verify_fp_gap(p, Horizon(zq(bound)))
    assert r.status == "bounded-pass"
    assert r.details["coefficient_at_p"].is_zero
    assert r.details["p_in_sum_closure"] is True
    # below p the inverse of 1 - t + t^p is 1 + t + t^2 + ...
    assert r.details["inverse_support_prefix"] == "{" + ",".join(map(str, range(bound + 1))) + "}"


def test_fp_gap_f2_expansion_matches_rational_function():
    # over F_2 the inverse of 1 + t + t^2 equals (1+t)/(1+t^3):
    # support {0,1} + 3N, so exponent 2 is missing
    r = verify_fp_gap(2, Horizon(zq(9)))
    expected = {e for e in range(10) if e % 3 != 2}
    got = set(
        int(v) for v in r.details["inverse_support_prefix"].strip("{}").split(",")
    )
    assert got == expected


@pytest.mark.parametrize("deg,bound", [(0, 10), (2, 15), (6, 30)])
def test_truncation_refutation(deg, bound):
    r = refute_truncation_closure_f2(deg, H(bound))
    assert r.status == "bounded-pass"
    assert "not a proof" in r.details["note"]


def test_equivalence_lemma_reports():
    r = check_equivalence_lemma(well_ordered_family(whole_group(INTEGERS)))
    assert r.status == "pass"
    r = check_equivalence_lemma(well_ordered_family(nonneg_cone(INTEGERS)))
    assert r.status == "hypothesis-unmet"
    assert "A3" in str(r.witness)
    F = explicit_family(INTEGERS, [[], [zq(0)]])
    r = check_equivalence_lemma(F)
    assert r.status == "hypothesis-unmet"
    # the four conditions still fall together on this family
    assert r.details["S1"].startswith("fails")
    assert r.details["A1"].startswith("fails")
    assert r.details["S5"].startswith("holds")


def test_closure_probe_add():
    F = explicit_family(INTEGERS, [[zq(v) for v in s] for s in
                                   [(), (0,), (1,), (0, 1)]])
    r = brute_force_closure_probe(QQ, F, "add")
    assert r.status == "pass"
    assert r.details["closed_under_probes"] is True

    F = explicit_family(INTEGERS, [[], [zq(0)], [zq(1)]])
    r = brute_force_closure_probe(QQ, F, "add")
    assert r.status == "pass"
    assert r.details["closed_under_probes"] is False
    assert "{0,1}" in r.details["violation"]


def test_closure_probe_mul():
    F = explicit_family(INTEGERS, [[], [zq(0)], [zq(1)]])
    r = brute_force_closure_probe(QQ, F, "mul")
    assert r.status == "pass"
    assert r.details["closed_under_probes"] is False
    assert "{2}" in r.details["violation"]


def test_closure_probe_f2_rejected():
    F = explicit_family(INTEGERS, [[], [zq(0)]])
    with pytest.raises(FieldTooSmall):
        brute_force_closure_probe(prime_field(2), F, "add")


def test_closure_probe_agreement_batch():
    r = closure_probe_agreement_batch(60, seed=5)
    assert r.status == "pass"
    assert r.details["disagreements"] == 0


def test_neumann_batch():
    r = neumann_support_batch(10, seed=3, group_kind="Z", exp_bound=15)
    assert r.status == "pass"
    r = neumann_support_batch(10, seed=4, group_kind="Q", exp_bound=Fraction(10))
    assert r.status == "pass"


def test_catalog_classification_report():
    r = catalog_classification_report()
    assert r.status == "pass"


def test_run_suite_all_green_and_deterministic():
    reports = run_suite(seed=0)
    assert all(r.status != "fail" for r in reports), [
        (r.procedure, r.status, str(r.witness)) for r in reports if r.status == "fail"
    ]
    names = [r.procedure for r in reports]
    assert names == sorted(names)
    again = run_suite(seed=0)
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in reports]
    filtered = run_suite(seed=0, name_filter="fp-gap")
    assert len(filtered) == 6
    assert all(r.status == "bounded-pass" for r in filtered)


def test_product_support_independent_against_all_ones():
    # the countable positive-characteristic construction: one factor with
    # F_p-independent coefficients (powers of x), the other all ones
    from hahnseries.fields import poly_pow_x

    a = from_terms(
        INTEGERS,
        F2X,
        [(zq(g), F2X.element((poly_pow_x(i), (1,)))) for i, g in enumerate((0, 2, 5))],
    )
    b = from_terms(INTEGERS, F2X, [(zq(0), F2X.one), (zq(1), F2X.one), (zq(3), F2X.one)])
    r = verify_product_support(a, b, H(10))
    assert r.status == "pass"
    assert r.details["product_support"] == r.details["support_sum_set"]


def test_product_support_compares_below_the_limits_of_both_sides():
    # t^(12) lies above the bound, so the sum set is known only up to
    # 10 + (-5); the product's t^(7) lies beyond that
    r = verify_product_support(qpoly((0, 1), (12, 1)), qpoly((-5, 1), (0, 1)), H(10))
    assert r.status == "pass"
    assert r.details == {"product_support": "{-5,0}", "support_sum_set": "{-5,0}",
                         "compared_up_to": "<= 5"}
    # the term budget cuts the product short at its 51st point
    a = qpoly(*((i, 1) for i in range(40)))
    r = verify_product_support(a, a, Horizon(zq(200), 50))
    assert r.status == "pass"
    assert r.details["compared_up_to"] == "< 50"
    assert r.details["product_support"] == "{" + ",".join(map(str, range(50))) + "}"


def _compared_limit(A, B, bound, term_bound):
    """Where the product-support check may compare, from the exponent
    lists alone: below every sum with an operand point above the bound,
    and below the product's first point beyond the term budget."""
    limit, inclusive = bound, True
    for Y in (A, B):
        listed = [e for e in Y if e <= bound]
        limit = min(limit, bound + (listed[0] if listed else bound))
    visible = sorted({x + y for x in A for y in B if x + y <= bound})
    if len(visible) > term_bound and visible[term_bound] <= limit:
        limit, inclusive = visible[term_bound], False
    return limit, inclusive


def test_random_positive_products_match_the_pairwise_sum_set():
    rng = random.Random(20040323)
    lowered = 0
    for _ in range(300):
        term_bound = rng.randint(5, 50)
        bound = rng.randint(-6, 24)
        A, B = (sorted(rng.sample(range(-8, 16), rng.randint(1, 5))) for _ in range(2))
        a, b = (qpoly(*((e, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for e in X))
                for X in (A, B))
        r = verify_product_support(a, b, Horizon(zq(bound), term_bound))
        assert r.status == "pass", (A, B, bound, term_bound, r.details)
        limit, inclusive = _compared_limit(A, B, bound, term_bound)
        want = sorted(s for s in {x + y for x in A for y in B}
                      if s < limit or inclusive and s == limit)
        text = "{" + ",".join(map(str, want)) + "}"
        assert r.details["product_support"] == text == r.details["support_sum_set"]
        if (limit, inclusive) == (bound, True):
            assert "compared_up_to" not in r.details
        else:
            lowered += 1
            assert r.details["compared_up_to"] == f"{'<=' if inclusive else '<'} {limit}"
    assert lowered > 50
