"""Cross-representation oracle for the exponent groups and coefficient
fields that the dense oracle cannot represent directly.

An order-preserving embedding of exponent groups, or an embedding of
coefficient fields, induces an embedding of series that commutes with
+, -, *, the inverse and truncation at the image of a cutoff.  Each
random expression of ``oracle.random_expression`` is built in an
embedded representation, evaluated there, mapped back and compared
exactly with the dense Z oracle:

- Z -> Q scaled by 1/d, g -> g/d;
- Z -> Z^2 as (g, 0) and as (0, g), lexicographically ordered;
- Z -> Z^3 as (g, 0, 0), (0, g, 0) and (0, 0, g);
- F_p -> F_p(x), c -> the constant c.

The trivial group has one exponent, so a series over it is a constant:
there each expression is checked against plain field arithmetic.

Every inverse inv(u) is built as t^k * inv(t^k * u) for a small k, which
is the same series, so negated exponents and inverses with a nonzero
leading exponent are checked too.
"""

import random
from fractions import Fraction

import pytest

from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.errors import InvalidWitness, ZeroUpToHorizon
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, lex_product
from hahnseries.series import (
    Horizon,
    Monomial,
    coefficients_up_to,
    from_terms,
    invert,
    truncate,
)

from oracle import DenseField, dense_pairs, eval_dense, random_expression

TOP = 40  # random_expression writes exponents in [0, 40]
LEX2 = lex_product(2)
LEX3 = lex_product(3)


def _lex_in(axis, rank):
    def embed(e):
        return tuple(e if i == axis else 0 for i in range(rank))
    return embed


def _lex_back(axis):
    def back(v):
        assert all(x == 0 for i, x in enumerate(v) if i != axis)
        return v[axis]
    return back


def _q_back(d):
    def back(v):
        assert (v * d).denominator == 1
        return int(v * d)
    return back


def _constant(value):
    num, den = value
    assert den == (1,) and len(num) <= 1
    return num[0] if num else 0


# name -> (group, raw exponent of an int, int of a raw exponent)
EXPONENT_MAPS = {
    "Z->Q/1": (RATIONALS, Fraction, _q_back(1)),
    "Z->Q/3": (RATIONALS, lambda e: Fraction(e, 3), _q_back(3)),
    "Z->Z^2 (g,0)": (LEX2, _lex_in(0, 2), _lex_back(0)),
    "Z->Z^2 (0,g)": (LEX2, _lex_in(1, 2), _lex_back(1)),
    "Z->Z^3 (g,0,0)": (LEX3, _lex_in(0, 3), _lex_back(0)),
    "Z->Z^3 (0,g,0)": (LEX3, _lex_in(1, 3), _lex_back(1)),
    "Z->Z^3 (0,0,g)": (LEX3, _lex_in(2, 3), _lex_back(2)),
}


def _build(expr, group, exp_in, fld, rng):
    """The series of a neutral expression tree in an embedded form."""
    def t(e):
        return Monomial(fld.one, group.element(exp_in(e)))

    def build(node):
        kind = node[0]
        if kind == "lit":
            return from_terms(group, fld, [(group.element(exp_in(e)), fld.element(c))
                                           for e, c in node[1]])
        if kind == "add":
            return build(node[1]) + build(node[2])
        if kind == "neg":
            return -build(node[1])
        if kind == "mul":
            return build(node[1]) * build(node[2])
        if kind == "trunc":
            return truncate(build(node[1]), group.element(exp_in(node[2])))
        if kind == "inv":
            k = rng.randint(0, 3)
            witness = group.element(exp_in(k)) if rng.random() < 0.5 else None
            return t(k) * invert(t(k) * build(node[1]), witness=witness)
        raise ValueError(kind)

    return build(expr)


def _check(seed, group, exp_in, exp_out, fld, coef_out, p, count):
    rng = random.Random(seed)
    dense_fld = DenseField(p)
    h = Horizon(group.element(exp_in(TOP)))
    for _ in range(count):
        expr = random_expression(rng)
        expected = dense_pairs(eval_dense(expr, TOP + 1, dense_fld), dense_fld)
        got = coefficients_up_to(_build(expr, group, exp_in, fld, rng), h)
        assert got.complete
        assert [(exp_out(g.value), coef_out(c.value)) for g, c in got.terms] == expected


@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
@pytest.mark.parametrize("name", sorted(EXPONENT_MAPS))
def test_exponent_embeddings_agree_with_the_dense_oracle(name, p):
    group, exp_in, exp_out = EXPONENT_MAPS[name]
    fld = QQ if p is None else prime_field(p)
    _check(f"{name}:{p}", group, exp_in, exp_out, fld, lambda v: v, p, 100)


@pytest.mark.parametrize("p", [3, 7])
def test_prime_field_in_rational_functions_agrees_with_the_dense_oracle(p):
    _check(f"Fp(x):{p}", INTEGERS, int, int, rational_functions(p), _constant, p, 100)


def _constant_value(expr, fld):
    """The value of a neutral expression tree over the trivial group, in
    plain field arithmetic: every t^e is t^0 = 1, a truncation keeps the
    exponents below 0, of which there are none, and an inverse is the
    reciprocal (None when it does not exist)."""
    kind = expr[0]
    if kind == "lit":
        return fld.val(sum(c for _, c in expr[1]))
    values = [_constant_value(child, fld) for child in expr[1:] if isinstance(child, tuple)]
    if None in values:
        return None
    if kind == "trunc":
        return fld.zero()
    if kind == "add":
        return fld.add(*values)
    if kind == "mul":
        return fld.mul(*values)
    if kind == "neg":
        return fld.neg(values[0])
    return fld.inv(values[0]) if fld.nonzero(values[0]) else None


@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_trivial_group_series_are_field_arithmetic(p):
    rng = random.Random(f"trivial:{p}")
    dense_fld = DenseField(p)
    fld = QQ if p is None else prime_field(p)
    zero = TRIVIAL.element(0)
    h = Horizon(zero)
    checked = undefined = 0
    for _ in range(150):
        expr = random_expression(rng)
        want = _constant_value(expr, dense_fld)
        series = _build(expr, TRIVIAL, lambda e: 0, fld, rng)
        if want is None:
            # some inverse has a zero argument; the engine must say so,
            # or reject the witness exponent 0 such an argument cannot have
            with pytest.raises((ZeroUpToHorizon, InvalidWitness)):
                coefficients_up_to(series, h)
            undefined += 1
            continue
        got = coefficients_up_to(series, h)
        assert got.complete
        assert [(g, c.value) for g, c in got.terms] == (
            [(zero, want)] if dense_fld.nonzero(want) else [])
        checked += 1
    assert checked > 100 and undefined > 0
