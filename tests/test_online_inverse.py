"""Inverses from online division over the Neumann closure, checked
against independent references: the dense oracle for gapped supports and
rational exponents, b*b^-1 = 1 for F_3(x), and closed forms on lex
omega-blocks where the closure walk runs into the term budget."""

import random
from fractions import Fraction

import pytest

from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, RATIONALS, lex_product
from hahnseries.errors import TermBudgetExceeded
from hahnseries.series import (
    EvaluationContext,
    Horizon,
    Inverse,
    children,
    coefficients_up_to,
    equal_up_to,
    from_terms,
    invert,
    one_series,
)

from oracle import DenseField, dense, dense_inv, dense_pairs

F3 = prime_field(3)
F5 = prime_field(5)
F3X = rational_functions(3)
LEX2 = lex_product(2)


def _coef(rng, p):
    if p is None:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 3))
    return rng.randint(1, p - 1)


@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("gaps", [(2, 3), (3, 5)])
def test_gapped_inverse_matches_the_dense_oracle(p, gaps):
    fld = QQ if p is None else F5
    dense_fld = DenseField(p)
    rng = random.Random(f"{p}:{gaps}")
    bound = 60
    for _ in range(20):
        pairs = [(0, _coef(rng, p))] + [(e, _coef(rng, p)) for e in gaps]
        b = from_terms(INTEGERS, fld, [(INTEGERS.element(e), fld.element(c)) for e, c in pairs])
        tl = coefficients_up_to(invert(b), Horizon(INTEGERS.element(bound)))
        expected = dense_pairs(dense_inv(dense(pairs, bound + 1, dense_fld), dense_fld), dense_fld)
        assert tl.complete
        assert [(g.value, c.value) for g, c in tl.terms] == expected


def test_rational_exponent_inverse_matches_the_scaled_oracle():
    # exponents in (1/2)Z, scaled by 2 onto the dense Z oracle
    dense_fld = DenseField()
    rng = random.Random(12)
    bound = 10
    for _ in range(20):
        pairs = [(Fraction(0), _coef(rng, None))] + [
            (Fraction(k, 2), _coef(rng, None)) for k in rng.sample(range(1, 7), 2)
        ]
        b = from_terms(RATIONALS, QQ, [(RATIONALS.element(e), QQ.element(c)) for e, c in pairs])
        tl = coefficients_up_to(invert(b), Horizon(RATIONALS.element(bound)))
        scaled = [(int(2 * e), c) for e, c in pairs]
        expected = dense_pairs(dense_inv(dense(scaled, 2 * bound + 1, dense_fld), dense_fld), dense_fld)
        assert tl.complete
        assert [(2 * g.value, c.value) for g, c in tl.terms] == expected


def test_ratfunc_inverse_times_its_series_is_one():
    x = F3X.element(((0, 1), (1,)))
    x_plus_1 = F3X.element(((1, 1), (1,)))
    inv_x = F3X.element(((1,), (0, 1)))
    z = INTEGERS.element
    h = Horizon(z(30))
    for terms in (
        [(z(0), F3X.one), (z(1), x_plus_1), (z(3), x)],
        [(z(-2), x), (z(0), inv_x), (z(2), x_plus_1), (z(5), F3X.one)],
    ):
        b = from_terms(INTEGERS, F3X, terms)
        assert equal_up_to(b * invert(b), one_series(INTEGERS, F3X), h)


def _lex(a, b):
    return LEX2.element((a, b))


def test_omega_block_that_exhausts_the_term_budget():
    # supp(eps) = {(0,1), (1,-3)}: below (3,0) the closure starts with the
    # omega-block (0,n), which alone outruns a budget of 200 terms
    b = from_terms(LEX2, QQ, [(_lex(0, 0), QQ.one), (_lex(0, 1), QQ.one), (_lex(1, -3), QQ.one)])
    inv = invert(b)
    h = Horizon(_lex(3, 0), 200)
    tl = coefficients_up_to(inv, h)
    assert not tl.complete
    assert tl.frontier == _lex(0, 200)
    # on the block, b^-1 = 1/(1 + t^(0,1)) exactly
    assert [(g.value, c.value) for g, c in tl.terms] == [((0, n), (-1) ** n) for n in range(200)]
    product = coefficients_up_to(b * inv, h)
    assert product.terms == ((_lex(0, 0), QQ.one),)
    assert not product.complete and product.frontier == _lex(0, 200)


def test_omega_block_with_fp_gaps_stops_at_the_budget():
    # over F_3, 1/(1 - t + t^3) vanishes at some exponents of the block;
    # the walk skips them and stops at the 51st nonzero coefficient
    one = F3.one
    b = from_terms(LEX2, F3, [(_lex(0, 0), one), (_lex(0, 1), -one), (_lex(0, 3), one),
                              (_lex(1, -2), one)])
    tl = coefficients_up_to(invert(b), Horizon(_lex(2, 0), 50))
    dense_fld = DenseField(3)
    block = dense_pairs(dense_inv(dense([(0, 1), (1, -1), (3, 1)], 200, dense_fld), dense_fld),
                        dense_fld)
    assert len(block) > 51 and any(n not in dict(block) for n in range(block[50][0]))
    assert [(g.value, c.value) for g, c in tl.terms] == [((0, n), c) for n, c in block[:50]]
    assert not tl.complete and tl.frontier == _lex(0, block[50][0])


@pytest.mark.parametrize("term_bound", [4, 10, 25])
def test_inverse_of_a_truncated_eps_lists_only_exact_terms(term_bound):
    # b has 31 terms, so with a small budget eps itself is truncated; the
    # inverse may list only what is certain below eps's frontier
    pairs = [(0, 1)] + [(k, -(k % 3 + 1)) for k in range(1, 31)]
    b = from_terms(INTEGERS, QQ, [(INTEGERS.element(e), QQ.element(c)) for e, c in pairs])
    tl = coefficients_up_to(invert(b), Horizon(INTEGERS.element(40), term_bound))
    assert not tl.complete
    assert all(g < tl.frontier for g, _ in tl.terms)
    dense_fld = DenseField()
    exact = dense_pairs(dense_inv(dense(pairs, 41, dense_fld), dense_fld), dense_fld)
    frontier = tl.frontier.value
    assert [(g.value, c.value) for g, c in tl.terms] == [(e, c) for e, c in exact if e < frontier]
    assert frontier <= term_bound


def test_tail_stays_below_the_frontier_of_its_base():
    # base = t^2 - t^8 exactly, but with a budget of 5 terms the two long
    # literals whose difference is -t^8 are cut at 8, so the base is known
    # only below 8; (1 - base)^-1 = sum(base^n) has coefficient 0 at 8,
    # which the walk must not claim
    z = INTEGERS.element
    long_lit = from_terms(INTEGERS, QQ, [(z(k), QQ.one) for k in range(3, 51)])
    other = from_terms(INTEGERS, QQ, [(z(k), QQ.element(2 if k == 8 else 1)) for k in range(3, 51)])
    base = from_terms(INTEGERS, QQ, [(z(2), QQ.one)]) + (long_lit - other)
    tl = coefficients_up_to(invert(one_series(INTEGERS, QQ) - base), Horizon(z(20), 5))
    assert not tl.complete and tl.frontier == z(8)
    assert [(g.value, c.value) for g, c in tl.terms] == [(0, 1), (2, 1), (4, 1), (6, 1)]


@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("g0", [-3, 2])
@pytest.mark.parametrize("term_bound", range(1, 7))
def test_a_truncated_shifted_inverse_matches_the_shifted_oracle(p, g0, term_bound):
    # b = t^g0 * (lead + c_1 t + ... + c_12 t^12) with lead != 1: with a
    # budget below 13 terms eps is known only below t^term_bound, so the
    # inverse is exact below t^(term_bound - g0) and nothing is claimed on
    fld = QQ if p is None else F5
    dense_fld = DenseField(p)
    rng = random.Random(f"{p}:{g0}:{term_bound}")
    lead = Fraction(-2, 3) if p is None else 3
    pairs = [(0, lead)] + [(k, _coef(rng, p)) for k in range(1, 13)]
    b = from_terms(INTEGERS, fld, [(INTEGERS.element(e + g0), fld.element(c)) for e, c in pairs])
    h = Horizon(INTEGERS.element(20), term_bound)
    if term_bound == 1:
        # only the lead is listed, so eps is empty but truncated
        with pytest.raises(TermBudgetExceeded):
            coefficients_up_to(invert(b), h)
        return
    tl = coefficients_up_to(invert(b), h)
    assert not tl.complete and tl.frontier == INTEGERS.element(term_bound - g0)
    exact = dense_pairs(dense_inv(dense(pairs, 21, dense_fld), dense_fld), dense_fld)
    assert [(g.value, c.value) for g, c in tl.terms] == [
        (e - g0, c) for e, c in exact if e < term_bound
    ]


def test_an_inverse_leaves_memo_entries_only_for_itself_and_its_subexpressions():
    z = INTEGERS.element
    x = from_terms(INTEGERS, QQ, [(z(-1), QQ.element(2)), (z(1), QQ.one)])
    b = x * x + x * from_terms(INTEGERS, QQ, [(z(2), QQ.one)])
    node = Inverse(b)
    reachable, stack = {node}, [b]
    while stack:
        n = stack.pop()
        if n not in reachable:
            reachable.add(n)
            stack.extend(children(n))
    ctx = EvaluationContext(Horizon(z(12), 6))
    ctx.coefficients(node)
    ctx.coefficients(node, z(3))
    assert node in ctx._complete_cache or any(k[0] is node for k in ctx._exact_cache)
    assert set(ctx._complete_cache) <= reachable
    assert set(ctx._vmin_bounds) <= reachable
    assert {k[0] for k in ctx._exact_cache} <= reachable
    assert ctx._inversions == {node: (-2, Fraction(4))}
