import json
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from hahnseries.errors import (
    DescriptorMismatch,
    InvalidWitness,
    TermBudgetExceeded,
    ZeroUpToHorizon,
)
from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, TRIVIAL, lex_product
from hahnseries.series import (
    EvaluationContext,
    Horizon,
    Neg,
    Sum,
    TermList,
    children,
    coefficient_at,
    coefficients_up_to,
    equal_up_to,
    factorize_for_inversion,
    from_terms,
    invert,
    monomial,
    one_series,
    render_terms,
    support_up_to,
    terms_to_json,
    terms_to_json_dict,
    truncate,
    vmin,
    zero_series,
)

F2 = prime_field(2)
F5 = prime_field(5)
LEX2 = lex_product(2)


def zq(n):
    return INTEGERS.element(n)


def qq(v):
    return QQ.element(Fraction(v))


def H(bound, terms=10000):
    return Horizon(zq(bound), terms)


def poly(*pairs, fld=QQ):
    return from_terms(INTEGERS, fld, [(zq(g), fld.element(c)) for g, c in pairs])


def as_pairs(tl):
    return [(g.value, c.value) for g, c in tl.terms]


def test_product_cancellation():
    # (1 + t)(1 - t) = 1 - t^2: support is a proper subset of the sum-set
    s = poly((0, 1), (1, 1)) * poly((0, 1), (1, -1))
    tl = coefficients_up_to(s, H(5))
    assert tl.complete
    assert as_pairs(tl) == [(0, 1), (2, -1)]


def test_product_dense_oracle():
    # (t^2 + t^3)(1 + t) = t^2 + 2t^3 + t^4
    s = poly((2, 1), (3, 1)) * poly((0, 1), (1, 1))
    tl = coefficients_up_to(s, H(5))
    assert as_pairs(tl) == [(2, 1), (3, 2), (4, 1)]


def test_one_is_multiplicative_identity():
    import random

    rng = random.Random(7)
    one = one_series(INTEGERS, QQ)
    for _ in range(50):
        pairs = [(rng.randint(-3, 8), rng.randint(-5, 5)) for _ in range(4)]
        s = poly(*pairs)
        assert equal_up_to(one * s, s, H(12))


def test_sum_cancellation_and_f2():
    s = poly((2, 1)) + (-poly((2, 1)))
    assert coefficients_up_to(s, H(9)).is_zero

    a = from_terms(INTEGERS, F2, [(zq(2), F2.one), (zq(3), F2.one)])
    b = from_terms(INTEGERS, F2, [(zq(2), F2.one)])
    tl = coefficients_up_to(a + b, H(9))
    assert [(g.value, c.value) for g, c in tl.terms] == [(3, 1)]


def test_literal_assembly_from_monomials():
    s = monomial(qq(1), zq(0)) + (-monomial(qq(1), zq(1))) + (-monomial(qq(1), zq(2)))
    tl = coefficients_up_to(s, H(5))
    assert as_pairs(tl) == [(0, 1), (1, -1), (2, -1)]


def test_vmin():
    s = poly((2, 3), (5, 1))
    assert vmin(s, H(10)) == zq(2)
    with pytest.raises(ZeroUpToHorizon):
        vmin(zero_series(INTEGERS, QQ), H(10))
    # (1+t)(1-t) - 1 + t^2 is identically zero
    s = poly((0, 1), (1, 1)) * poly((0, 1), (1, -1)) - poly((0, 1)) + poly((2, 1))
    with pytest.raises(ZeroUpToHorizon):
        vmin(s, H(10))


def test_truncate():
    s = poly((0, 1), (1, 2), (2, 3))
    assert as_pairs(coefficients_up_to(truncate(s, zq(2)), H(9))) == [(0, 1), (1, 2)]
    assert as_pairs(coefficients_up_to(truncate(s, zq(2), inclusive=True), H(9))) == [
        (0, 1),
        (1, 2),
        (2, 3),
    ]
    # cutoff at or below vmin empties the series
    assert coefficients_up_to(truncate(s, zq(0)), H(9)).is_zero
    assert coefficients_up_to(truncate(s, zq(-3)), H(9)).is_zero


def test_truncate_idempotent():
    import random

    rng = random.Random(11)
    for _ in range(50):
        pairs = [(rng.randint(-4, 9), rng.randint(-5, 5)) for _ in range(5)]
        s = poly(*pairs)
        g = zq(rng.randint(-4, 9))
        assert equal_up_to(truncate(truncate(s, g), g), truncate(s, g), H(12))


def test_factorize_examples():
    # b = 2t^3 + t^4 -> (3, 2, -(1/2) t)
    b = poly((3, 2), (4, 1))
    fact = factorize_for_inversion(b, H(10))
    assert fact.g0 == zq(3)
    assert fact.lead == qq(2)
    eps = coefficients_up_to(fact.epsilon, H(10))
    assert as_pairs(eps) == [(1, Fraction(-1, 2))]

    fact = factorize_for_inversion(monomial(qq(7), zq(4)), H(10))
    assert fact.g0 == zq(4)
    assert fact.lead == qq(7)
    assert coefficients_up_to(fact.epsilon, H(10)).is_zero

    fact = factorize_for_inversion(poly((0, 1), (1, -1)), H(10))
    assert fact.g0 == zq(0)
    assert fact.lead == qq(1)
    assert as_pairs(coefficients_up_to(fact.epsilon, H(10))) == [(1, 1)]


def test_invert_monomial():
    inv = invert(monomial(qq(2), zq(3)), H(10))
    tl = coefficients_up_to(inv, H(10))
    assert as_pairs(tl) == [(-3, Fraction(1, 2))]


def test_invert_fibonacci():
    inv = invert(poly((0, 1), (1, -1), (2, -1)), H(6))
    tl = coefficients_up_to(inv, H(6))
    assert as_pairs(tl) == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 8), (6, 13)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_invert_fp_gap_coefficient(p):
    fp = prime_field(p)
    b = from_terms(
        INTEGERS, fp, [(zq(0), fp.one), (zq(1), fp.element(-1)), (zq(p), fp.one)]
    )
    inv = invert(b, H(p + 2))
    assert coefficient_at(inv, zq(p), H(p + 2)).is_zero


def test_invert_zero_and_witness():
    with pytest.raises(ZeroUpToHorizon):
        invert(zero_series(INTEGERS, QQ), H(10))
    # witness skips the search entirely
    s = poly((5, 1), (6, 2))
    inv = invert(s, witness=zq(5))
    tl = coefficients_up_to(inv, H(0))
    assert tl.terms[0][0] == zq(-5)
    with pytest.raises(InvalidWitness):
        coefficients_up_to(invert(s, witness=zq(6)), H(8))
    with pytest.raises(InvalidWitness):
        coefficients_up_to(invert(s, witness=zq(4)), H(8))


def test_invert_multiplies_back_to_one():
    b = poly((-2, 3), (0, 1), (1, 4))
    prod = b * invert(b)
    assert equal_up_to(prod, one_series(INTEGERS, QQ), H(20))


def test_geometric_series_coefficient():
    inv = invert(poly((0, 1), (1, -1)))
    assert coefficient_at(inv, zq(7), H(10)) == qq(1)


def test_support_and_projections():
    s = poly((2, 1), (3, 1))
    assert [g.value for g in support_up_to(s, H(10))] == [2, 3]
    assert coefficient_at(s, zq(5), H(10)).is_zero
    assert coefficient_at(s, zq(3), H(10)) == qq(1)


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        poly((0, 1)) + from_terms(INTEGERS, F5, [(zq(0), F5.one)])
    with pytest.raises(DescriptorMismatch):
        from_terms(LEX2, QQ, [(LEX2.element((0, 1)), qq(1))]) * poly((0, 1))


def test_trivial_group_series():
    z = TRIVIAL.zero
    s = from_terms(TRIVIAL, QQ, [(z, qq(3))])
    inv = invert(s, Horizon(z))
    assert coefficients_up_to(inv, Horizon(z)).terms == ((z, qq(Fraction(1, 3))),)


def test_term_budget_truncation_is_sound():
    # geometric series with 21 support points below 20 but only 5 allowed
    inv = invert(poly((0, 1), (1, -1)), witness=zq(0))
    tl = coefficients_up_to(inv, Horizon(zq(20), 5))
    assert not tl.complete
    assert tl.status == "TruncatedByTermBound"
    assert len(tl.terms) <= 5
    assert tl.frontier is not None
    # every listed term is exact and below the frontier
    for g, c in tl.terms:
        assert g < tl.frontier
        assert c == qq(1)
    # the frontier is None exactly when the result is complete
    full = coefficients_up_to(inv, Horizon(zq(20), 21))
    assert full.complete and full.frontier is None
    assert coefficients_up_to(inv, Horizon(zq(20), 20)).frontier == zq(20)


def test_flat_sum_takes_the_least_summand_frontier():
    # with a 4-term budget 1/(1 - t^5) is cut at 20 and 1/(1 - t) at 4;
    # below 4 the latter cancels against the polynomial, leaving 1
    slow = invert(poly((0, 1), (5, -1)), witness=zq(0))
    fast = invert(poly((0, 1), (1, -1)), witness=zq(0))
    s = Sum(slow, fast, Neg(poly((0, 1), (1, 1), (2, 1), (3, 1), (6, 1))))
    tl = coefficients_up_to(s, H(30, 4))
    assert (tl.complete, tl.frontier) == (False, zq(4))
    assert as_pairs(tl) == [(0, 1)]
    full = coefficients_up_to(s, H(30))
    assert full.complete
    assert [t for t in full.terms if t[0] < tl.frontier] == list(tl.terms)


def test_binary_sum_chain_of_320_evaluates():
    # s = s + x in a loop nests one binary Sum per step, and the evaluator
    # recurses once per level.  A chain of 320 evaluates within the default
    # recursion limit from the top of a stack, so it is evaluated in a new
    # thread, below none of the test runner's frames.
    s = monomial(qq(1), zq(0))
    for k in range(1, 321):
        s = s + monomial(qq(k + 1), zq(k))
    with ThreadPoolExecutor(1) as pool:
        tl = pool.submit(coefficients_up_to, s, H(400)).result()
    assert tl.complete
    assert as_pairs(tl) == [(k, k + 1) for k in range(321)]


def test_lex_inverse_has_omega_support_below_bound():
    # 1/(1 - t^(0,1)) has support (0,0),(0,1),(0,2),... all below (1,0)
    one_f = QQ.one
    s = from_terms(
        LEX2,
        QQ,
        [(LEX2.element((0, 0)), one_f), (LEX2.element((0, 1)), -one_f)],
    )
    inv = invert(s, witness=LEX2.element((0, 0)))
    tl = coefficients_up_to(inv, Horizon(LEX2.element((1, 0)), 40))
    assert not tl.complete
    assert len(tl.terms) == 40
    assert [g.value for g, _ in tl.terms] == [(0, k) for k in range(40)]


def test_budget_exhaustion_raises_when_nothing_certain():
    # true support is {3,...,29}, but with a 3-term budget the cancelled
    # prefix swallows everything certain, so zero search must not conclude
    wide = poly(*[(g, 1) for g in range(30)])
    small = poly((0, 1), (1, 1), (2, 1))
    s = wide - small
    h = Horizon(zq(40), 3)
    with pytest.raises(TermBudgetExceeded):
        vmin(s, h)
    with pytest.raises(TermBudgetExceeded):
        coefficients_up_to(invert(s), h)


def test_render_text():
    tl = coefficients_up_to(
        poly((0, 1), (1, -1), (3, Fraction(2, 3))),
        H(5),
    )
    assert render_terms(tl) == "1 - 1*t^(1) + 2/3*t^(3)"
    assert render_terms(TermList(())) == "0"
    # unordered fields never use the minus form
    a = from_terms(INTEGERS, F5, [(zq(0), F5.element(4)), (zq(2), F5.element(3))])
    assert render_terms(coefficients_up_to(a, H(5))) == "4 + 3*t^(2)"


def test_render_json():
    tl = coefficients_up_to(poly((0, 1), (2, -1)), H(5))
    assert terms_to_json_dict(tl) == {
        "terms": [{"exp": "0", "coef": "1"}, {"exp": "2", "coef": "-1"}],
        "complete": True,
    }


def test_render_text_marks_an_unlisted_tail():
    tl = coefficients_up_to(poly((0, 1), (1, -2), (4, 3)), Horizon(zq(9), 2))
    assert (tl.complete, tl.frontier) == (False, zq(4))
    assert render_terms(tl) == "1 - 2*t^(1) + O(t^(4))"
    assert render_terms(TermList((), False, zq(-2))) == "O(t^(-2))"


def test_json_text_equals_the_dumped_dict():
    cases = [
        coefficients_up_to(poly((0, 1), (2, -1), (5, Fraction(-7, 3))), H(9)),
        coefficients_up_to(poly((0, 1), (2, -1), (5, 2)), Horizon(zq(9), 2)),
        TermList(()),
        TermList((), False, zq(3)),
        coefficients_up_to(from_terms(INTEGERS, F5, [(zq(1), F5.element(3))]), H(2)),
    ]
    f3x = rational_functions(3)
    cases.append(TermList(((zq(0), f3x.element(((1, 2, 1), (0, 1)))),)))
    lex = lex_product(2)
    cases.append(TermList(((lex.element((1, -3)), QQ.element(Fraction(1, 2))),), False,
                          lex.element((2, 0))))
    for tl in cases:
        assert terms_to_json(tl) == json.dumps(terms_to_json_dict(tl))


def test_memo_reuse_across_bounds():
    ctx = EvaluationContext(H(20))
    b = poly((0, 1), (1, -1), (2, -1))
    inv = invert(b, witness=zq(0))
    full = ctx.coefficients(inv)
    small = ctx.coefficients(inv, zq(3))
    assert small.complete
    assert as_pairs(small) == [(0, 1), (1, 1), (2, 2), (3, 3)]
    assert full.terms[:4] == small.terms


def _memo_cases():
    f3x = rational_functions(3)
    x = f3x.element(((0, 1), (1,)))
    ratfunc = from_terms(INTEGERS, f3x, [(zq(0), f3x.one), (zq(1), -x), (zq(3), -f3x.one)])
    omega = from_terms(LEX2, QQ, [(LEX2.element(g), QQ.one) for g in ((0, 0), (0, 1), (1, -3))])
    return [
        pytest.param(invert(poly((0, 1), (1, -1), (2, -1))), H(40),
                     [zq(b) for b in (40, 40, 25, 7, 0, -1)], id="Q"),
        pytest.param(invert(poly((0, 2), (1, 3), (3, 1), fld=F5)) * poly((0, 1), (2, 4), fld=F5),
                     H(30), [zq(b) for b in (30, 18, 18, 2)], id="F5"),
        pytest.param(invert(ratfunc), H(12), [zq(b) for b in (12, 9, 9, 4, 0)], id="F3(x)"),
        # the top bound is truncated by the term bound and memoised in the
        # exact cache; the lower ones are complete
        pytest.param(invert(omega), Horizon(LEX2.element((3, 0)), 60),
                     [LEX2.element(g) for g in ((3, 0), (3, 0), (1, 0), (0, 70), (0, 59), (0, 10))],
                     id="Z^2 omega-block"),
    ]


@pytest.mark.parametrize("node, horizon, bounds", _memo_cases())
def test_memo_hits_equal_fresh_evaluations(node, horizon, bounds):
    shared = EvaluationContext(horizon)
    for bound in bounds:
        tl = shared.coefficients(node, bound)
        fresh = EvaluationContext(horizon).coefficients(node, bound)
        assert tl == fresh
        assert (tl.complete, tl.frontier) == (fresh.complete, fresh.frontier)


def test_omega_block_memo_case_is_truncated_at_the_top():
    node, horizon, bounds = _memo_cases()[-1].values
    ctx = EvaluationContext(horizon)
    assert [ctx.coefficients(node, b).complete for b in bounds] == [
        False, False, False, False, True, True]


def test_inverse_composition_laws():
    import random

    rng = random.Random(515)
    h = H(15)
    for _ in range(40):
        a = poly(*[(rng.randint(-2, 5), rng.randint(-4, 4)) for _ in range(3)],
                 (rng.randint(-2, 5), 1))
        b = poly(*[(rng.randint(-2, 5), rng.randint(-4, 4)) for _ in range(3)],
                 (rng.randint(-2, 5), 2))
        assert equal_up_to(invert(invert(a, h), h), a, h)
        assert equal_up_to(invert(a, h) * invert(b, h), invert(a * b, h), h)


def test_truncate_composes_with_inverse_lazily():
    inv = invert(poly((0, 1), (1, -1)), witness=zq(0))
    cut = truncate(inv, zq(3))
    tl = coefficients_up_to(cut, H(10))
    assert tl.complete
    assert as_pairs(tl) == [(0, 1), (1, 1), (2, 1)]


def test_vmin_bound_computed_once_per_node_of_a_shared_dag():
    base = one_series(INTEGERS, QQ) + monomial(QQ.one, INTEGERS.element(1))
    s = base
    for _ in range(20):
        s = s * s  # each product shares one child twice: 2^20 paths
    nodes, stack = {}, [s]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(children(node))
    ctx = EvaluationContext(Horizon(INTEGERS.element(5), 64))
    computed = []
    compute = ctx._compute_vmin_bound

    def counting(node):
        computed.append(id(node))
        return compute(node)

    ctx._compute_vmin_bound = counting
    tl = ctx.coefficients(s)
    # one computation for every node below the root (the root's own bound
    # is never asked for): 19 products, the sum and its two monomials
    assert len(computed) == len(set(computed)) == 22
    assert set(computed) == set(nodes) - {id(s)}
    n = 1 << 20
    assert [int(str(c)) for _, c in tl.terms] == [
        1, n, n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6,
        n * (n - 1) * (n - 2) * (n - 3) // 24,
        n * (n - 1) * (n - 2) * (n - 3) * (n - 4) // 120,
    ]


def test_a_truncated_result_is_expanded_once_per_node():
    # each square is truncated by the term bound, so only the exact cache
    # keeps the shared child from being expanded once per path: 2^16 paths
    s = one_series(INTEGERS, QQ) + monomial(QQ.one, INTEGERS.element(1))
    for _ in range(16):
        s = s * s
    ctx = EvaluationContext(Horizon(INTEGERS.element(40), term_bound=5))
    expanded = []
    expand = ctx._expand_product

    def counting(node, bound):
        expanded.append(node)
        return expand(node, bound)

    ctx._expand_product = counting
    tl = ctx.coefficients(s)
    assert len(expanded) == len(set(map(id, expanded))) == 16
    assert not tl.complete
    assert render_terms(tl).endswith(" + O(t^(5))")
