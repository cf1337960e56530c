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
- F_p -> F_p(x), c -> the constant c.

Every inverse inv(u) is built as t^k * inv(t^k * u) for a small k, which
is the same series, so negated exponents and inverses with a nonzero
leading exponent are checked too.
"""

import random
from fractions import Fraction

import pytest

from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, RATIONALS, lex_product
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


def _lex_back(axis):
    def back(v):
        assert v[1 - axis] == 0
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
    "Z->Z^2 (g,0)": (LEX2, lambda e: (e, 0), _lex_back(0)),
    "Z->Z^2 (0,g)": (LEX2, lambda e: (0, e), _lex_back(1)),
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
