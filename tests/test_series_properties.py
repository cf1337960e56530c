"""Batch properties of the series engine: ring laws up to horizon,
support bounds, valuation multiplicativity, inversion round trips, and
exact agreement with the independent dense oracle."""

import random
from fractions import Fraction

import pytest

from hahnseries.fields import QQ, prime_field
from hahnseries.groups import INTEGERS
from hahnseries.series import (
    Horizon,
    coefficients_up_to,
    equal_up_to,
    factorize_for_inversion,
    from_terms,
    invert,
    one_series,
    support_up_to,
    vmin,
)

from oracle import DenseField, eval_dense, dense_pairs, random_expression

F2 = prime_field(2)
F5 = prime_field(5)


def zq(n):
    return INTEGERS.element(n)


def H(bound, terms=10000):
    return Horizon(zq(bound), terms)


def random_literal(rng, fld, lo=-3, hi=10, max_terms=5, nonzero=False):
    while True:
        pairs = []
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            if fld.kind == "Q":
                c = fld.element(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            else:
                c = fld.element(rng.randint(0, fld.p - 1))
            pairs.append((zq(rng.randint(lo, hi)), c))
        s = from_terms(INTEGERS, fld, pairs)
        if not nonzero or s.terms:
            return s


@pytest.mark.parametrize("fld", [QQ, F5])
def test_ring_laws(fld):
    rng = random.Random(2024)
    h = H(20)
    for _ in range(200):
        a = random_literal(rng, fld)
        b = random_literal(rng, fld)
        c = random_literal(rng, fld)
        assert equal_up_to((a + b) + c, a + (b + c), h)
        assert equal_up_to(a * (b + c), a * b + a * c, h)
        assert equal_up_to(a * b, b * a, h)


@pytest.mark.parametrize("fld", [QQ, F5])
def test_support_bounds(fld):
    rng = random.Random(555)
    h = H(20)
    for _ in range(200):
        a = random_literal(rng, fld)
        b = random_literal(rng, fld)
        sa = set(support_up_to(a, h))
        sb = set(support_up_to(b, h))
        assert set(support_up_to(a + b, h)) <= sa | sb
        sum_set = {x + y for x in sa for y in sb}
        assert set(support_up_to(a * b, h)) <= sum_set


@pytest.mark.parametrize("fld", [QQ, F5])
def test_vmin_multiplicative(fld):
    rng = random.Random(77)
    h = H(25)
    for _ in range(200):
        a = random_literal(rng, fld, nonzero=True)
        b = random_literal(rng, fld, nonzero=True)
        assert vmin(a * b, h) == vmin(a, h) + vmin(b, h)


@pytest.mark.parametrize("fld", [QQ, F2, F5])
def test_inversion_round_trip(fld):
    rng = random.Random(909)
    h = H(20)
    one = one_series(INTEGERS, fld)
    for _ in range(200):
        b = random_literal(rng, fld, nonzero=True)
        assert equal_up_to(b * invert(b), one, h)


def _finite_sums_closure_ints(points, bound):
    """All finite sums of strictly positive integers from points, <= bound."""
    closure = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for base in frontier:
            for p in points:
                s = base + p
                if s <= bound and s not in closure:
                    closure.add(s)
                    nxt.add(s)
        frontier = nxt
    return closure


@pytest.mark.parametrize("fld", [QQ, F5])
def test_inverse_support_containment(fld):
    # supp(b^-1) lies in the shifted sum closure of (supp(b) - g0) \ {0}
    rng = random.Random(4242)
    h = H(18)
    for _ in range(100):
        b = random_literal(rng, fld, lo=-2, hi=6, nonzero=True)
        fact = factorize_for_inversion(b, h)
        g0 = fact.g0.value
        shifted = {g.value - g0 for g in support_up_to(b, h)} - {0}
        allowed = {s - g0 for s in _finite_sums_closure_ints(shifted, 18 + g0 + 30)}
        inv_supp = {g.value for g in support_up_to(invert(b), h)}
        assert inv_supp <= allowed


@pytest.mark.parametrize("p", [None, 5])
def test_oracle_equivalence_random_expressions(p):
    rng = random.Random(31415 if p is None else 27182)
    fld = QQ if p is None else prime_field(p)
    dense_fld = DenseField(p)
    h = H(40)
    for _ in range(150):
        expr = random_expression(rng)
        expected = dense_pairs(eval_dense(expr, 41, dense_fld), dense_fld)
        got = coefficients_up_to(_to_series(expr, fld), h)
        assert got.complete and got.frontier is None
        assert [(g.value, _raw(c)) for g, c in got.terms] == expected


def _raw(field_element):
    return field_element.value


def _to_series(expr, fld):
    kind = expr[0]
    if kind == "lit":
        return from_terms(
            INTEGERS, fld, [(zq(e), fld.element(c)) for e, c in expr[1]]
        )
    if kind == "add":
        return _to_series(expr[1], fld) + _to_series(expr[2], fld)
    if kind == "neg":
        return -_to_series(expr[1], fld)
    if kind == "mul":
        return _to_series(expr[1], fld) * _to_series(expr[2], fld)
    if kind == "trunc":
        from hahnseries.series import truncate

        return truncate(_to_series(expr[1], fld), zq(expr[2]))
    if kind == "inv":
        return invert(_to_series(expr[1], fld), witness=zq(0))
    raise ValueError(kind)
