import itertools
import random

import pytest

from hahnseries.errors import (
    FieldTooSmall,
    NotInNonNegCone,
    TermBudgetExceeded,
)
from hahnseries.fields import QQ, prime_field
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, group_zero, lex_product
from hahnseries.series import Horizon, coefficients_up_to
from hahnseries.supports import (
    build_group_witnesses,
    enumerated_support,
    explicit_family,
    explicit_support,
    family_contains,
    finite_region,
    finite_subsets_family,
    finite_sums_closure,
    is_initial_segment,
    minkowski_sum,
    monoid_is_group,
    nonneg_cone,
    ones_series,
    pos_cone,
    region_contains,
    submonoid,
    subgroup,
    subset_sum_witness,
    support_of_terms,
    translate,
    union_sum_witness,
    well_ordered_family,
    whole_group,
)

F2 = prime_field(2)


def zq(n):
    return INTEGERS.element(n)


def zset(*vals):
    return explicit_support(INTEGERS, [zq(v) for v in vals])


def H(bound, terms=10000):
    return Horizon(zq(bound), terms)


def vals(ss):
    return [p.value for p in ss.points]


def test_minkowski_examples():
    assert vals(minkowski_sum(zset(2, 3), zset(0, 1), H(10))) == [2, 3, 4]
    A = zset(1, 4)
    assert vals(minkowski_sum(A, zset(0), H(10))) == [1, 4]
    assert vals(minkowski_sum(zset(), zset(1, 2), H(10))) == []
    assert minkowski_sum(zset(), zset(1), H(10)).is_entire


def test_minkowski_brute_force_agreement():
    rng = random.Random(13)
    for _ in range(100):
        a = [rng.randint(-10, 10) for _ in range(rng.randint(0, 8))]
        b = [rng.randint(-10, 10) for _ in range(rng.randint(0, 8))]
        expected = sorted({x + y for x in a for y in b if x + y <= 25})
        got = minkowski_sum(
            explicit_support(INTEGERS, map(zq, a)),
            explicit_support(INTEGERS, map(zq, b)),
            H(25),
        )
        assert vals(got) == expected



def _prefix(rng, points):
    """The full set itself, or an enumerated prefix of it that lists at
    least its least point: inclusive of the cut, or exclusive when the
    enumeration hit its budget."""
    kind = rng.choice(("entire", "bounded", "budget_hit"))
    if kind == "entire":
        return explicit_support(INTEGERS, map(zq, points))
    hit = kind == "budget_hit"
    cut = rng.randint(points[0] + 1 if hit else points[0], 30)
    listed = [zq(p) for p in points if (p < cut if hit else p <= cut)]
    return enumerated_support(INTEGERS, listed, zq(cut), hit)


def test_minkowski_sum_of_prefixes_matches_the_full_sets():
    rng = random.Random(31)
    for _ in range(300):
        a, b = (sorted(rng.sample(range(-10, 30), rng.randint(1, 8))) for _ in range(2))
        A, B = _prefix(rng, a), _prefix(rng, b)
        got = minkowski_sum(A, B, H(25, rng.choice((3, 10000))))
        sums = sorted({x + y for x in a for y in b})
        if got.is_entire:
            assert A.is_entire and B.is_entire
            assert vals(got) == [s for s in sums if s <= 25]
            continue
        # every sum up to the bound is listed, exclusive of it on a budget
        # hit; a listed point past the bound must still be a sum
        assert got.bound.value <= 25
        assert set(vals(got)) <= set(sums)
        cut = got.bound.value
        known = [s for s in vals(got) if (s < cut if got.budget_hit else s <= cut)]
        assert known == [s for s in sums if (s < cut if got.budget_hit else s <= cut)]
    # a prefix bounded at 2 against {0, 10}: sums are known up to 2 + 0
    N = enumerated_support(INTEGERS, [zq(0), zq(1), zq(2)], zq(2))
    got = minkowski_sum(N, zset(0, 10), H(25))
    assert (vals(got), got.bound, got.budget_hit) == ([0, 1, 2], zq(2), False)
    hit = enumerated_support(INTEGERS, [zq(0), zq(1)], zq(2), True)
    got = minkowski_sum(zset(0, 10), hit, H(25))
    assert (vals(got), got.bound, got.budget_hit) == ([0, 1], zq(2), True)


def _any_prefix(rng, points):
    """The full set itself, or its enumerated prefix at any cut, which may
    list no point at all."""
    kind = rng.choice(("entire", "bounded", "budget_hit"))
    if kind == "entire":
        return explicit_support(INTEGERS, map(zq, points))
    hit = kind == "budget_hit"
    cut = rng.randint(-12, 30)
    listed = [zq(p) for p in points if (p < cut if hit else p <= cut)]
    return enumerated_support(INTEGERS, listed, zq(cut), hit)


def test_minkowski_sum_of_any_prefixes_lists_what_its_bound_claims():
    rng = random.Random(47)
    for _ in range(600):
        a, b = (sorted(rng.sample(range(-10, 30), rng.randint(0, 6))) for _ in range(2))
        A, B = _any_prefix(rng, a), _any_prefix(rng, b)
        got = minkowski_sum(A, B, H(25, rng.choice((3, 10000))))
        sums = sorted({x + y for x in a for y in b})
        if got.is_entire:
            assert vals(got) == [s for s in sums if s <= 25], (str(A), str(B))
            continue
        # the listed points are exactly the sums inside the bound
        cut = got.bound.value
        inside = [s for s in sums if (s < cut if got.budget_hit else s <= cut)]
        assert vals(got) == inside, (str(A), str(B), str(got))


def test_minkowski_sum_of_an_empty_prefix_is_a_prefix():
    empty5 = enumerated_support(INTEGERS, [], zq(5))
    got = minkowski_sum(empty5, zset(0), H(20))
    assert (vals(got), got.bound, got.budget_hit) == ([], zq(5), False)
    got = minkowski_sum(zset(2, 9), empty5, H(20))
    assert (vals(got), got.bound, got.budget_hit) == ([], zq(7), False)
    # both empty: unlisted points lie above both bounds
    got = minkowski_sum(empty5, enumerated_support(INTEGERS, [], zq(3), True), H(20))
    assert (vals(got), got.bound, got.budget_hit) == ([], zq(8), False)
    hit = enumerated_support(INTEGERS, [], zq(3), True)
    got = minkowski_sum(hit, hit, H(20))
    assert (vals(got), got.bound, got.budget_hit) == ([], zq(6), True)


def test_minkowski_sum_bound_kind_follows_the_chosen_limit():
    A = enumerated_support(INTEGERS, [zq(-5), zq(-4), zq(1)], zq(1))
    B = enumerated_support(INTEGERS, [zq(-9), zq(2)], zq(17), True)
    got = minkowski_sum(A, B, H(20))
    # A's inclusive edge 1 + (-9) is tighter than B's exclusive 17 + (-5)
    assert (vals(got), got.bound, got.budget_hit) == ([-14, -13, -8], zq(-8), False)
    assert str(got) == "{-14,-13,-8} (<= -8)"


def test_translate():
    assert vals(translate(zset(2, 3), zq(-2))) == [0, 1]
    assert vals(translate(zset(), zq(5))) == []
    A = zset(1, 3, 7)
    assert translate(translate(A, zq(4)), zq(-4)).points == A.points


def test_finite_sums_closure_examples():
    assert vals(finite_sums_closure(zset(2, 3), H(7))) == [0, 2, 3, 4, 5, 6, 7]
    empty = finite_sums_closure(zset(), H(5))
    assert vals(empty) == [0]
    assert empty.is_entire
    assert vals(finite_sums_closure(zset(1), H(5))) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(NotInNonNegCone):
        finite_sums_closure(zset(-1, 2), H(5))


def test_finite_sums_closure_brute_force():
    rng = random.Random(29)
    for _ in range(60):
        pts = sorted({rng.randint(1, 9) for _ in range(rng.randint(1, 4))})
        bound = rng.randint(5, 20)
        expected = {0}
        for reps in range(1, bound + 1):
            for combo in itertools.combinations_with_replacement(pts, reps):
                if sum(combo) <= bound:
                    expected.add(sum(combo))
        got = finite_sums_closure(
            explicit_support(INTEGERS, map(zq, pts)), H(bound)
        )
        assert vals(got) == sorted(expected)


def test_finite_sums_closure_term_budget():
    got = finite_sums_closure(zset(1), Horizon(zq(100), 10))
    assert got.budget_hit
    assert vals(got) == list(range(10))
    assert got.bound == zq(10)


def test_initial_segment():
    assert is_initial_segment(zset(2), zset(2, 3)) is True
    assert is_initial_segment(zset(3), zset(2, 3)) is False
    assert is_initial_segment(zset(), zset(2, 3)) is True
    assert is_initial_segment(zset(2, 3), zset(2, 3)) is True
    assert is_initial_segment(zset(2, 4), zset(2, 3, 4)) is False


def test_region_membership():
    assert region_contains(nonneg_cone(INTEGERS), zq(0)) is True
    assert region_contains(nonneg_cone(INTEGERS), zq(-1)) is False
    assert region_contains(pos_cone(INTEGERS), zq(0)) is False
    assert region_contains(whole_group(INTEGERS), zq(-7)) is True
    assert region_contains(finite_region(INTEGERS, [zq(1), zq(4)]), zq(4)) is True
    assert region_contains(subgroup(INTEGERS, [zq(4), zq(6)]), zq(2)) is True
    assert region_contains(subgroup(INTEGERS, [zq(4), zq(6)]), zq(3)) is False


def test_submonoid_membership():
    mon = submonoid(INTEGERS, [zq(2), zq(3)])
    assert region_contains(mon, zq(7)) is True
    assert region_contains(mon, zq(1)) is False
    assert region_contains(mon, zq(-2)) is False
    assert region_contains(mon, zq(0)) is True
    # mixed signs that form a group: 1 = 3 + (-2)
    grp_like = submonoid(INTEGERS, [zq(3), zq(-2)])
    assert monoid_is_group([zq(3), zq(-2)]) is True
    assert region_contains(grp_like, zq(-1)) is True



def test_negative_monoid_membership_mirrors_the_positive_one():
    pos = submonoid(INTEGERS, [zq(2), zq(5)])
    neg = submonoid(INTEGERS, [zq(-2), zq(-5)])
    for g in range(-30, 31):
        assert region_contains(pos, zq(g)) is not None
        assert region_contains(neg, zq(-g)) is region_contains(pos, zq(g)), g
    assert region_contains(neg, zq(-3)) is False
    assert family_contains(well_ordered_family(neg), zset(-3)) is False

@pytest.mark.parametrize("gens", [(2, 3), (-3,), (-2, -5), (0, 4)])
def test_one_signed_monoid_is_not_a_group(gens):
    # sums of positive generators stay positive, so no inverse is reachable
    assert monoid_is_group([zq(v) for v in gens]) is False


def test_monoid_is_group_on_mixed_signs_and_no_generators():
    assert monoid_is_group([]) is True
    assert monoid_is_group([zq(0)]) is True
    assert monoid_is_group([zq(2), zq(-3)]) is True
    assert monoid_is_group([zq(4), zq(-6)]) is True
    # lex Z^2: y = (1,-1) is positive on both generators, so no negation
    # of one is a sum of them, although their signs differ
    Z2 = lex_product(2)
    assert monoid_is_group([Z2.element((1, 0)), Z2.element((0, -1))]) is False


def test_family_contains_examples():
    W = well_ordered_family(nonneg_cone(INTEGERS))
    assert family_contains(W, zset(0, 2, 5)) is True
    assert family_contains(W, zset(-1)) is False

    FIN = finite_subsets_family(whole_group(INTEGERS))
    # a truncated enumeration of N is not finite within budget
    big = enumerated_support(INTEGERS, [zq(k) for k in range(10)], zq(10), True)
    assert family_contains(FIN, big) is False
    assert family_contains(FIN, zset(1, 2, 3)) is True
    with pytest.raises(TermBudgetExceeded):
        family_contains(W, big)


def test_family_contains_explicit():
    F = explicit_family(INTEGERS, [[], [zq(0)], [zq(0), zq(1)]])
    assert family_contains(F, zset(0, 1)) is True
    assert family_contains(F, zset(1)) is False
    assert family_contains(F, zset()) is True


def test_support_of_terms_roundtrip():
    s = ones_series(zset(2, 3), QQ)
    tl = coefficients_up_to(s, H(10))
    ss = support_of_terms(INTEGERS, tl, zq(10))
    assert vals(ss) == [2, 3]
    assert not ss.budget_hit



def test_support_of_a_truncated_prefix_ends_at_its_frontier():
    tl = coefficients_up_to(ones_series(zset(*range(20)), QQ), H(30, 5))
    assert not tl.complete
    ss = support_of_terms(INTEGERS, tl, zq(30))
    assert vals(ss) == [0, 1, 2, 3, 4]
    assert (ss.bound, ss.budget_hit) == (tl.frontier, True)

def test_subset_sum_witness():
    A = zset(0, 1)
    B = zset(0)
    a, c = subset_sum_witness(A, B, QQ)
    h = H(10)
    assert [g.value for g in coefficients_up_to(a, h).support()] == [0, 1]
    assert [g.value for g in coefficients_up_to(c, h).support()] == [0, 1]
    assert [g.value for g in coefficients_up_to(a + c, h).support()] == [0]
    # c0 avoids {0, -a0}
    c0 = coefficients_up_to(c, h).coefficient_at(zq(0))
    a0 = coefficients_up_to(a, h).coefficient_at(zq(0))
    assert not c0.is_zero and c0 != -a0


def test_union_sum_witness_disjoint():
    a, b = union_sum_witness(zset(1), zset(2), QQ)
    assert [g.value for g in coefficients_up_to(a + b, H(10)).support()] == [1, 2]


def test_union_sum_witness_overlap():
    a, b = union_sum_witness(zset(0, 1, 3), zset(1, 2), QQ)
    assert [g.value for g in coefficients_up_to(a + b, H(10)).support()] == [0, 1, 2, 3]


def test_build_group_witnesses_dispatch_and_f2():
    a, c = build_group_witnesses(zset(0, 1), zset(0), QQ)
    assert [g.value for g in coefficients_up_to(a + c, H(5)).support()] == [0]
    a, b = build_group_witnesses(zset(1), zset(2), QQ)
    assert [g.value for g in coefficients_up_to(a + b, H(5)).support()] == [1, 2]
    with pytest.raises(FieldTooSmall):
        build_group_witnesses(zset(0, 1), zset(0), F2)


def test_witness_pairs_random():
    rng = random.Random(4)
    F5 = prime_field(5)
    for fld in (QQ, F5):
        for _ in range(50):
            a_pts = sorted({rng.randint(-4, 6) for _ in range(rng.randint(1, 5))})
            b_pts = sorted(rng.sample(a_pts, rng.randint(0, len(a_pts))))
            A = explicit_support(INTEGERS, map(zq, a_pts))
            B = explicit_support(INTEGERS, map(zq, b_pts))
            a, c = subset_sum_witness(A, B, fld)
            got = coefficients_up_to(a + c, H(10)).support()
            assert [g.value for g in got] == b_pts
            u, v = union_sum_witness(A, B, fld)
            got = coefficients_up_to(u + v, H(10)).support()
            assert [g.value for g in got] == sorted(set(a_pts) | set(b_pts))


def test_trivial_and_rational_groups():
    z = group_zero(TRIVIAL)
    W = well_ordered_family(whole_group(TRIVIAL))
    assert family_contains(W, explicit_support(TRIVIAL, [z])) is True

    from fractions import Fraction

    half = RATIONALS.element(Fraction(1, 2))
    A = explicit_support(RATIONALS, [half, RATIONALS.element(1)])
    closure = finite_sums_closure(A, Horizon(RATIONALS.element(2)))
    assert [str(p) for p in closure.points] == ["0", "1/2", "1", "3/2", "2"]


def test_lex_closure_budget():
    L2 = lex_product(2)
    A = explicit_support(L2, [L2.element((0, 1)), L2.element((1, 0))])
    got = finite_sums_closure(A, Horizon(L2.element((1, 0)), 12))
    assert got.budget_hit
    assert [p.value for p in got.points] == [(0, k) for k in range(12)]


def test_family_str_forms():
    assert str(well_ordered_family(nonneg_cone(INTEGERS))) == "W(Z>=0)"
    assert str(finite_subsets_family(whole_group(INTEGERS))) == "FIN(Z)"
    assert str(well_ordered_family(submonoid(INTEGERS, [zq(2), zq(3)]))) == "W(mon{2,3})"
    F = explicit_family(INTEGERS, [[], [zq(0)]])
    assert str(F) == "explicit{{},{0}}"


def test_submonoid_membership_nonpositive_generators():
    mon = submonoid(INTEGERS, [zq(-3)])
    assert region_contains(mon, zq(3)) is False  # sums of negatives stay negative
    assert region_contains(mon, zq(-1)) is False  # outside the subgroup 3Z
    assert region_contains(mon, zq(-6)) is True
    two = submonoid(INTEGERS, [zq(-4), zq(-6)])
    assert region_contains(two, zq(-2)) is False  # above the largest generator
    assert region_contains(two, zq(-4)) is True
    assert region_contains(two, zq(-10)) is True


def _monoid_sums(gens, window):
    """Every sum of the generators within [-window, window], by closure
    inside the window: a multiset summing to g can be added in an order
    whose partial sums stay within max |gen| of the range from 0 to g."""
    reach, todo = {0}, [0]
    while todo:
        base = todo.pop()
        for v in gens:
            s = base + v
            if abs(s) <= window and s not in reach:
                reach.add(s)
                todo.append(s)
    return reach


def test_submonoid_membership_agrees_with_enumerated_sums():
    rng = random.Random(1873)
    answers = set()
    for _ in range(120):
        gens = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        sums = _monoid_sums(gens, 60)
        region = submonoid(INTEGERS, [zq(v) for v in gens])
        for g in range(-40, 41):
            got = region_contains(region, zq(g))
            answers.add(got)
            assert got == (g in sums), (gens, g)
    assert answers == {True, False}
