import random
from fractions import Fraction

import pytest

from hahnseries.errors import DescriptorMismatch, UnorderedField
from hahnseries.fields import (
    PRIMALITY_LIMIT,
    QQ,
    FieldDescriptor,
    FieldElement,
    independent_coefficients,
    is_prime,
    is_strictly_positive,
    poly_gcd,
    poly_mul,
    prime_field,
    rational_functions,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F2X = rational_functions(2)
F3X = rational_functions(3)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        FieldDescriptor("Q", 5)
    assert QQ.characteristic == 0
    assert F5.characteristic == 5
    assert F3X.characteristic == 3


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_20000():
    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if _trial_division(n)
    ]


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185,
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    3215031751, 3825123056546413051, 399165290221 * 798330580441,
    (1 << 61) + 1, (1 << 61) - 3,
])
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_large_prime_fields_are_built_and_too_large_ones_rejected():
    for p in ((1 << 31) - 1, (1 << 61) - 1, (1 << 64) - 59):
        assert is_prime(p)
    F = prime_field((1 << 61) - 1)
    assert F.element(2) * F.element(2).inverse() == F.one
    with pytest.raises(ValueError, match="too large"):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(ValueError, match="too large"):
        prime_field((1 << 89) - 1)  # a Mersenne prime above the limit
    assert not is_prime(PRIMALITY_LIMIT - 2)


def test_inverse_examples():
    assert QQ.element(Fraction(2, 3)).inverse() == QQ.element(Fraction(3, 2))
    assert F5.element(3) * F5.element(4) == F5.element(2)
    x = F2X.element(((0, 1), (1,)))
    assert x.inverse() == F2X.element(((1,), (0, 1)))
    assert str(x.inverse()) == "1/x"


def test_inverting_zero():
    for desc in (QQ, F5, F2X):
        with pytest.raises(ZeroDivisionError):
            desc.zero.inverse()


def test_canonical_forms():
    # reduced fraction
    assert QQ.element(Fraction(4, 6)).value == Fraction(2, 3)
    # residue in [0, p)
    assert F5.element(-3).value == 2
    assert F5.element(12).value == 2
    # monic denominator, coprime num/den: (2x+2)/(2x) over F3 -> (x+1)/x
    e = F3X.element(((2, 2), (0, 2)))
    assert e == F3X.element(((1, 1), (0, 1)))
    assert str(e) == "(x+1)/x"
    # renormalizing a canonical value is the identity
    again = FieldElement(e.descriptor, e.value)
    assert again.value == e.value


def test_ratfunc_cancellation():
    # (x^2-1)/(x-1) = x+1 over F3
    e = F3X.element(((2, 0, 1), (2, 1)))
    assert e == F3X.element(((1, 1), (1,)))
    assert str(e) == "x+1"


def test_mismatch():
    with pytest.raises(DescriptorMismatch):
        F2.element(1) + F3.element(1)
    with pytest.raises(DescriptorMismatch):
        QQ.element(1) * F5.element(1)


def test_strictly_positive():
    assert is_strictly_positive(QQ.element(Fraction(5, 6))) is True
    assert is_strictly_positive(QQ.zero) is False
    assert is_strictly_positive(QQ.element(-2)) is False
    with pytest.raises(UnorderedField):
        is_strictly_positive(F3.element(2))
    with pytest.raises(UnorderedField):
        is_strictly_positive(F3X.element(1))


def test_independent_coefficients():
    supply = independent_coefficients(3, F2X)
    assert supply.independent is True
    assert [str(v) for v in supply.values] == ["1", "x", "x^2"]

    supply = independent_coefficients(3, QQ)
    assert supply.independent is False
    assert [v.value for v in supply.values] == [1, 2, 3]
    assert all(is_strictly_positive(v) for v in supply.values)
    assert len(set(supply.values)) == 3

    supply = independent_coefficients(2, F3)
    assert supply.independent is False
    assert supply.note
    assert all(not v.is_zero for v in supply.values)


def _random_element(rng, desc):
    if desc.kind == "Q":
        return desc.element(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
    if desc.kind == "Fp":
        return desc.element(rng.randint(0, desc.p - 1))
    num = tuple(rng.randint(0, desc.p - 1) for _ in range(rng.randint(0, 3)))
    den = ()
    while not any(den):
        den = tuple(rng.randint(0, desc.p - 1) for _ in range(rng.randint(1, 3)))
    return desc.element((num, den))


@pytest.mark.parametrize("desc", [QQ, F2, F5, F2X, F3X])
def test_field_axioms_random(desc):
    rng = random.Random(31337)
    zero, one = desc.zero, desc.one
    for _ in range(1000):
        a = _random_element(rng, desc)
        b = _random_element(rng, desc)
        c = _random_element(rng, desc)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero:
            assert a * a.inverse() == one


@pytest.mark.parametrize("desc", [F2, F5, F2X, F3X])
def test_characteristic_positive(desc):
    total = desc.zero
    for _ in range(desc.characteristic):
        total = total + desc.one
    assert total.is_zero


def test_characteristic_zero():
    total = QQ.zero
    for n in range(1, 101):
        total = total + QQ.one
        assert not total.is_zero


def test_poly_gcd_is_monic():
    # gcd((x+1)^2, (x+1)*x) over F5 is x+1
    p = 5
    a = poly_mul((1, 1), (1, 1), p)
    b = poly_mul((1, 1), (0, 1), p)
    assert poly_gcd(a, b, p) == (1, 1)
