"""Submonoid decisions against an independent reference.

The reference uses no decision code of ``hahnseries``: it works on
plain vectors of Fractions (Z and Q are Z^1) and decides only what a
small certificate proves.

- M = mon(g_1, ..., g_k) is a group when each -g_i is a sum of at most
  ``sum_length`` generators: 60 over Z and Q, 12 over Z^n.  It is not a group when an integer
  functional y with coordinates in -3..3 has y.g_i >= 0 for every i and
  y.g_j > 0 for some j: every element of M has y >= 0, so -g_j is
  outside.
- g is in M when it is a sum of at most ``sum_length`` generators.  It
  is outside when some functional y >= 0 on the generators has y.g < 0,
  or when some y is > 0 on every generator and g is no sum of at most
  y.g / min(y.g_i) of them, the most summands any sum equal to g has.

Generators are drawn as the ``families`` benchmark draws them: one to
three per set, -6..15 over Z, the same numerators over 1, 2 or 3 over
Q, and coordinates in -3..5 over Z^2 and Z^3.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hahnseries.conditions import check_condition, witness_refutes
from hahnseries.groups import INTEGERS, RATIONALS, lex_product
from hahnseries.parser import parse_family_text
from hahnseries.supports import monoid_is_group, region_contains, submonoid

GROUPS = (INTEGERS, RATIONALS, lex_product(2), lex_product(3))


def _vector(e):
    return tuple(Fraction(x) for x in (e.value if isinstance(e.value, tuple) else (e.value,)))


def _element(group, vector):
    if group.kind == "Z^n":
        return group.element(tuple(int(x) for x in vector))
    return group.element(vector[0])


def _dot(y, v):
    return sum(a * b for a, b in zip(y, v))


def _functionals(rank):
    return [y for y in itertools.product(range(-3, 4), repeat=rank) if any(y)]


def _sum_length(rank):
    return 60 if rank == 1 else 12


def _sums(vectors):
    """Every sum of at most ``_sum_length`` of the vectors."""
    zero = tuple(Fraction(0) for _ in vectors[0])
    level, seen = {zero}, {zero}
    for _ in range(_sum_length(len(zero))):
        level = {tuple(a + b for a, b in zip(s, v)) for s in level for v in vectors} - seen
        seen |= level
    return seen


def reference_is_group(vectors):
    sums = _sums(vectors)
    if all(tuple(-x for x in v) in sums for v in vectors):
        return True
    for y in _functionals(len(vectors[0])):
        values = [_dot(y, v) for v in vectors]
        if min(values) >= 0 and max(values) > 0:
            return False
    return None


def reference_contains(vectors, target, sums):
    if target in sums:
        return True
    for y in _functionals(len(target)):
        values = [_dot(y, v) for v in vectors]
        if min(values) >= 0 and _dot(y, target) < 0:
            return False
        if min(values) > 0:
            most = _dot(y, target) // min(values)
            if most <= _sum_length(len(target)):
                return False  # a sum of more summands would exceed y.target
    return None


def _random_element(rng, group):
    if group.kind == "Z^n":
        return group.element(tuple(rng.randint(-3, 5) for _ in range(group.rank)))
    n = rng.choice([v for v in range(-6, 16) if v])
    return group.element(Fraction(n, rng.choice((1, 2, 3))) if group == RATIONALS else n)


def _random_generators(rng, group, closed=False):
    """One to three generators, not all zero.  A ``closed`` set ends in
    the negated sum of the others, so it generates a group."""
    while True:
        gens = [_random_element(rng, group) for _ in range(rng.randint(1, 2 if closed else 3))]
        if closed:
            gens.append(-sum(gens[1:], gens[0]))
        if any(any(_vector(e)) for e in gens):
            return gens


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_group_decisions_agree_with_the_reference(group):
    rng = random.Random(f"group:{group}")
    decided = 0
    for i in range(150):
        gens = _random_generators(rng, group, closed=i % 5 == 0)
        want = reference_is_group([_vector(e) for e in gens])
        got = monoid_is_group(gens)
        assert got in (True, False)
        if want is not None:
            decided += 1
            assert got is want, [str(e) for e in gens]
    assert decided >= 0.9 * 150


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_membership_agrees_with_enumerated_sums(group):
    rng = random.Random(f"member:{group}")
    decided = answers = 0
    for i in range(20):
        gens = _random_generators(rng, group, closed=i % 5 == 0)
        vectors = [_vector(e) for e in gens]
        sums = _sums(vectors)
        region = submonoid(group, gens)
        for _ in range(10):
            # half the targets are sums of the generators, half anything
            if rng.random() < 0.5:
                g = _element(group, rng.choice(sorted(sums)))
            else:
                g = _random_element(rng, group)
            want = reference_contains(vectors, _vector(g), sums)
            got = region_contains(region, g)
            assert got in (True, False)
            if want is not None:
                decided += 1
                assert got is want, ([str(e) for e in gens], str(g))
            answers += 1
    assert decided >= 0.8 * answers


def test_membership_far_from_zero():
    z = INTEGERS.element
    assert region_contains(submonoid(INTEGERS, [z(2)]), z(100)) is True
    assert region_contains(submonoid(INTEGERS, [z(2), z(3)]), z(100)) is True
    assert region_contains(submonoid(INTEGERS, [z(2), z(3)]), z(1)) is False
    assert region_contains(submonoid(INTEGERS, [z(2)]), z(101)) is False


def test_membership_with_a_line_in_the_monoid():
    # the x-axis is a group inside M, and M has sums of (0,2) and (1,3)
    # above it; (0,1) is in the cone and the lattice of M but no element,
    # and the walk must not run along the axis to find that out
    Z2 = lex_product(2)
    gens = [Z2.element(v) for v in ((1, 0), (-1, 0), (0, 2), (1, 3))]
    region = submonoid(Z2, gens)
    assert monoid_is_group(gens) is False
    assert region_contains(region, Z2.element((0, 1))) is False
    assert region_contains(region, Z2.element((-7, 5))) is True
    assert region_contains(region, Z2.element((4, -1))) is False


@pytest.mark.parametrize("text, group", [
    ("W(mon{-1,14,11})", INTEGERS),
    ("W(mon{8/2,-5/3})", RATIONALS),
    ("W(mon{(2,-3),(-1,3),(1,-2)})", lex_product(2)),
])
def test_mixed_sign_monoids_are_decided_with_confirmed_witnesses(text, group):
    family = parse_family_text(text, group)
    for name in ("S1", "A3", "A4", "A5"):
        v = check_condition(family, name)
        assert v.holds or v.fails, (name, str(v))
        if v.fails:
            assert witness_refutes(family, name, v), (name, str(v))
