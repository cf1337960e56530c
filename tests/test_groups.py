import itertools
import random
from fractions import Fraction

import pytest

from hahnseries.errors import DescriptorMismatch
from hahnseries.groups import (
    INTEGERS,
    RATIONALS,
    TRIVIAL,
    generates_whole_group,
    group_zero,
    lex_product,
    subgroup_contains,
    unit_sample,
)

LEX2 = lex_product(2)


def Z(v):
    return INTEGERS.element(v)


def Q(v):
    return RATIONALS.element(Fraction(v))


def L2(v):
    return LEX2.element(v)


def test_add_examples():
    assert Z(2) + Z(3) == Z(5)
    assert Q("1/2") + Q("1/3") == Q("5/6")
    assert L2((1, 5)) + L2((0, -5)) == L2((1, 0))


def test_neg_cmp_zero_examples():
    assert L2((0, 7)) < L2((1, 0)) and not L2((1, 0)) < L2((0, 7))
    assert -Q("5/3") == Q("-5/3")
    g = Q("7/4")
    assert g + (-g) == group_zero(RATIONALS)


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        Z(1) + Q(1)
    with pytest.raises(DescriptorMismatch):
        Z(1) < L2((1, 0))


def test_trivial_group():
    z = group_zero(TRIVIAL)
    assert z + z == z
    assert -z == z
    with pytest.raises(ValueError):
        TRIVIAL.element(1)
    assert unit_sample(TRIVIAL) is None


def test_integers_reject_fraction():
    with pytest.raises(ValueError):
        INTEGERS.element(Fraction(1, 2))


def test_lex_rank_cap():
    with pytest.raises(ValueError):
        lex_product(9)
    with pytest.raises(ValueError):
        lex_product(0)


def test_subgroup_contains_integers():
    gens = [Z(4), Z(6)]
    assert subgroup_contains(gens, Z(2)) is True
    assert subgroup_contains(gens, Z(1)) is False
    assert subgroup_contains([], Z(0)) is True
    assert subgroup_contains([], Z(1)) is False


def test_subgroup_contains_lex_brute_force_example():
    # frozen from enumerating a*(1,0)+b*(0,2) over |a|,|b| <= 10
    gens = [L2((1, 0)), L2((0, 2))]
    found = any(
        (a * 1 + b * 0, a * 0 + b * 2) == (3, 4)
        for a in range(-10, 11)
        for b in range(-10, 11)
    )
    assert found is True
    assert subgroup_contains(gens, L2((3, 4))) is True
    assert subgroup_contains(gens, L2((3, 5))) is False


def test_subgroup_contains_rationals():
    gens = [Q("1/2"), Q("1/3")]
    assert subgroup_contains(gens, Q("1/6")) is True
    assert subgroup_contains(gens, Q("1/12")) is False
    assert subgroup_contains([Q("2/3")], Q(2)) is True


def _random_element(rng, descriptor):
    if descriptor.kind == "Z":
        return descriptor.element(rng.randint(-50, 50))
    if descriptor.kind == "Q":
        return descriptor.element(
            Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        )
    if descriptor.kind == "Z^n":
        return descriptor.element(
            tuple(rng.randint(-20, 20) for _ in range(descriptor.rank))
        )
    return group_zero(descriptor)


@pytest.mark.parametrize("descriptor", [INTEGERS, RATIONALS, LEX2, lex_product(3), TRIVIAL])
def test_group_laws_random(descriptor):
    rng = random.Random(1234)
    zero = group_zero(descriptor)
    for _ in range(1000):
        a = _random_element(rng, descriptor)
        b = _random_element(rng, descriptor)
        c = _random_element(rng, descriptor)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + (-a) == zero
        assert a + zero == a
        # order is translation invariant
        if a < b:
            assert a + c < b + c


def test_order_is_total_and_lexicographic():
    assert L2((0, 100)) < L2((1, -100))
    assert L2((1, -1)) < L2((1, 0))
    vals = [L2((1, 0)), L2((0, 7)), L2((0, -3)), L2((-2, 50))]
    ordered = sorted(vals)
    assert [v.value for v in ordered] == [(-2, 50), (0, -3), (0, 7), (1, 0)]


def _brute_force_membership(gens, g, bound=10):
    """Enumerate integer combinations with |coeff| <= bound."""
    if not gens:
        return g.is_zero
    zero = group_zero(g.descriptor)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        total = zero
        for c, gen in zip(coeffs, gens):
            total = total + gen.scale(c)
        if total == g:
            return True
    return False


@pytest.mark.parametrize("descriptor", [INTEGERS, LEX2])
def test_subgroup_contains_agrees_with_brute_force(descriptor):
    rng = random.Random(99)
    for trial in range(50):
        n_gens = rng.randint(1, 3)
        if descriptor.kind == "Z":
            gens = [descriptor.element(2 * rng.randint(-3, 3)) for _ in range(n_gens)]
            inside = group_zero(descriptor)
            for gen in gens:
                inside = inside + gen.scale(rng.randint(-3, 3))
            outside = inside + descriptor.element(1)  # odd, gens all even
        else:
            gens = [
                descriptor.element((2 * rng.randint(-2, 2), rng.randint(-2, 2)))
                for _ in range(n_gens)
            ]
            inside = group_zero(descriptor)
            for gen in gens:
                inside = inside + gen.scale(rng.randint(-2, 2))
            outside = inside + descriptor.element((1, 0))
        assert _brute_force_membership(gens, inside) is True
        assert subgroup_contains(gens, inside) is True
        assert _brute_force_membership(gens, outside) is False
        assert subgroup_contains(gens, outside) is False


def test_generates_whole_group():
    ok, witness = generates_whole_group([Z(2), Z(3)], INTEGERS)
    assert ok and witness is None
    ok, witness = generates_whole_group([Z(4), Z(6)], INTEGERS)
    assert not ok and subgroup_contains([Z(4), Z(6)], witness) is False
    ok, witness = generates_whole_group([Q("1/2"), Q("1/3")], RATIONALS)
    assert not ok and subgroup_contains([Q("1/2"), Q("1/3")], witness) is False
    ok, _ = generates_whole_group([L2((1, 0)), L2((0, 1))], LEX2)
    assert ok
    ok, witness = generates_whole_group([L2((1, 0)), L2((0, 2))], LEX2)
    assert not ok and witness == L2((0, 1))
    ok, _ = generates_whole_group([], TRIVIAL)
    assert ok


def test_scale_and_str():
    assert Z(3).scale(-4) == Z(-12)
    assert str(Q("-5/6")) == "-5/6"
    assert str(L2((1, -2))) == "(1,-2)"
    assert str(group_zero(TRIVIAL)) == "0"
