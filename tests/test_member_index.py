"""The raw member index of explicit families against the boxed brute force.

``reference_conditions.check_explicit_family`` is the member-by-member
check over boxed ``GroupElement`` tuples; the package decides the same
conditions on raw exponent values.  Every verdict must agree exactly:
outcome, rule, witness and note.
"""

import random
from fractions import Fraction

import pytest
from reference_conditions import check_explicit_family

from hahnseries.conditions import CONDITION_NAMES, check_condition, witness_refutes
from hahnseries.errors import DescriptorMismatch
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, group_zero, lex_product
from hahnseries.supports import (
    EXPLICIT_FAMILY,
    Family,
    SupportSet,
    explicit_family,
    family_contains,
)

GROUPS = (INTEGERS, RATIONALS, lex_product(2), lex_product(3), TRIVIAL)


def _point(rng, group):
    if group is TRIVIAL:
        return group.element(0)
    if group is INTEGERS:
        return group.element(rng.randint(-4, 6))
    if group is RATIONALS:
        return group.element(Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3))))
    return group.element(tuple(rng.randint(-2, 3) for _ in range(group.rank)))


def _random_members(rng, group):
    shape = rng.random()
    if shape < 0.35:
        # all subsets of a small base: closed under subsets and unions
        base = sorted({_point(rng, group) for _ in range(rng.randint(0, 4))})
        members = [[p for i, p in enumerate(base) if mask >> i & 1]
                   for mask in range(1 << len(base))]
        if members and rng.random() < 0.5:
            members.pop(rng.randrange(len(members)))
        return members
    if shape < 0.5:
        # {0}, singletons and their negatives
        points = [_point(rng, group) for _ in range(rng.randint(0, 3))]
        members = [[group_zero(group)], []]
        members += [[p] for p in points] + [[-p] for p in points]
        return members
    return [[_point(rng, group) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 8))]


def _families():
    rng = random.Random(20200407)
    fixed = []
    for group in GROUPS:
        fixed.append(explicit_family(group, []))
        fixed.append(explicit_family(group, [[]]))
        fixed.append(explicit_family(group, [[], [group_zero(group)]]))
    fixed.append(explicit_family(INTEGERS, [[INTEGERS.element(v)] for v in (-3, 3, 0)]))
    fixed.append(explicit_family(RATIONALS, [[RATIONALS.element(Fraction(-1, 2))],
                                             [RATIONALS.element(Fraction(1, 2))]]))
    # built directly: duplicate and unsorted members keep their order
    z = INTEGERS.element
    fixed.append(Family(INTEGERS, EXPLICIT_FAMILY,
                        members=((z(2),), (), (z(-1), z(2)), (z(2),))))
    random_ones = []
    for _ in range(240):
        group = rng.choice(GROUPS)
        random_ones.append(explicit_family(group, _random_members(rng, group)))
    return fixed + random_ones


FAMILIES = _families()


def test_enough_families_over_every_group():
    assert len(FAMILIES) >= 200
    for group in GROUPS:
        assert sum(F.group == group for F in FAMILIES) >= 20


def test_verdicts_equal_the_boxed_reference():
    outcomes = set()
    for F in FAMILIES:
        for name in CONDITION_NAMES:
            got = check_condition(F, name)
            want = check_explicit_family(F, name)
            assert got == want, (str(F), name)
            assert str(got) == str(want)
            outcomes.add((name, got.outcome))
    # the corpus reaches both outcomes of every condition
    for name in CONDITION_NAMES:
        assert (name, "fails") in outcomes, name
        if name != "S1":
            assert (name, "holds") in outcomes, name


def test_every_witness_refutes():
    for F in FAMILIES:
        for name in CONDITION_NAMES:
            v = check_condition(F, name)
            if v.fails:
                assert witness_refutes(F, name, v), (str(F), name)


def test_membership_agrees_with_a_linear_scan():
    rng = random.Random(7)
    for F in FAMILIES:
        candidates = [SupportSet(F.group, m) for m in F.members]
        candidates.append(SupportSet(F.group, ()))
        for m in F.members:
            if m:
                candidates.append(SupportSet(F.group, m[1:]))
        for _ in range(4):
            pts = sorted({_point(rng, F.group) for _ in range(rng.randint(0, 3))})
            candidates.append(SupportSet(F.group, tuple(pts)))
        for A in candidates:
            assert family_contains(F, A) == (tuple(A.points) in F.members)


def test_canonical_order_is_the_boxed_sort():
    rng = random.Random(11)
    for _ in range(200):
        group = rng.choice(GROUPS)
        members = _random_members(rng, group)
        rng.shuffle(members)
        boxed = tuple(sorted({tuple(sorted(set(m))) for m in members}))
        assert explicit_family(group, members).members == boxed


def test_index_follows_member_order():
    z = INTEGERS.element
    F = Family(INTEGERS, EXPLICIT_FAMILY, members=((z(2),), (), (z(-1), z(2))))
    assert F.raw_members == ((2,), (), (-1, 2))
    assert F.raw_member_set == {(2,), (), (-1, 2)}
    G = explicit_family(lex_product(2), [[lex_product(2).element((1, -1)),
                                          lex_product(2).element((0, 5))]])
    assert G.raw_members == (((0, 5), (1, -1)),)


def test_the_index_explicit_family_passes_is_the_one_family_builds():
    for F in FAMILIES:
        rebuilt = Family(F.group, EXPLICIT_FAMILY, members=F.members)
        assert rebuilt.raw_members == F.raw_members
        assert rebuilt.raw_member_set == F.raw_member_set


@pytest.mark.parametrize("members", [
    [[INTEGERS.element(1), RATIONALS.element(1)]],
    [[RATIONALS.element(1)], [INTEGERS.element(1)]],
    [[INTEGERS.element(1)], [RATIONALS.element(1)]],
    [[], [RATIONALS.element(Fraction(1, 2))]],
])
def test_a_foreign_point_is_rejected_both_ways(members):
    # Q's 1 has the raw value of Z's 1, yet it is never deduplicated away
    with pytest.raises(DescriptorMismatch):
        explicit_family(INTEGERS, members)
    with pytest.raises(DescriptorMismatch):
        Family(INTEGERS, EXPLICIT_FAMILY, members=tuple(tuple(m) for m in members))
