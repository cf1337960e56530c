import random
from fractions import Fraction

import pytest

from hahnseries import conditions, supports
from hahnseries.classify import classify_khull
from hahnseries.conditions import (
    CONDITION_NAMES,
    check_condition,
    check_conditions,
    witness_refutes,
)
from hahnseries.fields import QQ
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, group_zero, lex_product
from hahnseries.supports import (
    explicit_family,
    finite_region,
    finite_subsets_family,
    nonneg_cone,
    pos_cone,
    submonoid,
    subgroup,
    well_ordered_family,
    whole_group,
)


def zq(n):
    return INTEGERS.element(n)


def W(region):
    return well_ordered_family(region)


def FIN(region):
    return finite_subsets_family(region)


def expl(*sets):
    return explicit_family(INTEGERS, [[zq(v) for v in s] for s in sets])


def test_w_whole_group_satisfies_everything():
    F = W(whole_group(INTEGERS))
    for cond in CONDITION_NAMES:
        assert check_condition(F, cond).holds, cond


def test_w_nonneg_cone():
    F = W(nonneg_cone(INTEGERS))
    verdict = check_condition(F, "S1")
    assert verdict.fails
    assert [p.value for p in verdict.witness.points] == [-1]
    assert witness_refutes(F, "S1", verdict)
    for cond in ("S2", "S3", "S4", "S5", "S6", "A1", "A2", "A4"):
        assert check_condition(F, cond).holds, cond
    for cond in ("A3", "A5"):
        verdict = check_condition(F, cond)
        assert verdict.fails, cond
        assert witness_refutes(F, cond, verdict), cond


def test_w_pos_cone_fails_s4_and_a4():
    F = W(pos_cone(INTEGERS))
    assert check_condition(F, "S4").fails
    v = check_condition(F, "A4")
    assert v.fails
    assert v.witness.is_empty  # the empty set's sum closure {0} escapes
    assert witness_refutes(F, "A4", v)
    assert check_condition(F, "A1").holds


def test_fin_whole_group():
    F = FIN(whole_group(INTEGERS))
    v = check_condition(F, "A4")
    assert v.fails
    assert [p.value for p in v.witness.points] == [1]
    assert witness_refutes(F, "A4", v)
    for cond in ("S1", "S2", "S3", "S4", "S5", "S6", "A1", "A2", "A3", "A5"):
        assert check_condition(F, cond).holds, cond


def test_w_submonoid():
    F = W(submonoid(INTEGERS, [zq(2), zq(3)]))
    for cond in ("S2", "S3", "S4", "S5", "S6", "A1", "A2", "A4"):
        assert check_condition(F, cond).holds, cond
    for cond in ("S1", "A3", "A5"):
        v = check_condition(F, cond)
        assert v.fails, cond
        assert witness_refutes(F, cond, v), cond


def test_w_group_like_submonoid():
    F = W(submonoid(INTEGERS, [zq(3), zq(-2)]))
    for cond in CONDITION_NAMES:
        assert check_condition(F, cond).holds, cond


def test_w_subgroup():
    F = W(subgroup(INTEGERS, [zq(4), zq(6)]))
    v = check_condition(F, "A1")
    assert v.fails
    assert v.witness.value == 1
    assert witness_refutes(F, "A1", v)
    assert check_condition(F, "A5").holds
    v = check_condition(F, "S1")
    assert v.fails and witness_refutes(F, "S1", v)


def test_w_subgroup_rationals_never_generates():
    from fractions import Fraction

    half = RATIONALS.element(Fraction(1, 2))
    F = well_ordered_family(subgroup(RATIONALS, [half]))
    v = check_condition(F, "A1")
    assert v.fails
    assert witness_refutes(F, "A1", v)


def test_w_finite_region():
    F = W(finite_region(INTEGERS, [zq(0), zq(1)]))
    v = check_condition(F, "A2")
    assert v.fails
    assert [p.value for p in v.witness.points] == [2]
    assert witness_refutes(F, "A2", v)
    v = check_condition(F, "A4")
    assert v.fails and witness_refutes(F, "A4", v)
    assert check_condition(F, "S4").holds


def test_explicit_examples():
    F = expl((), (0,))
    assert check_condition(F, "S5").holds
    assert check_condition(F, "S4").holds
    v = check_condition(F, "S1")
    assert v.fails and witness_refutes(F, "S1", v)
    v = check_condition(F, "A1")
    assert v.fails and witness_refutes(F, "A1", v)

    F = expl((), (0,), (1,))
    v = check_condition(F, "S3")
    assert v.fails
    assert [p.value for p in v.witness.points] == [0, 1]
    assert witness_refutes(F, "S3", v)
    v = check_condition(F, "A2")
    assert v.fails
    assert [p.value for p in v.witness.points] == [2]
    assert witness_refutes(F, "A2", v)

    F = expl((0, 1), (0,), ())
    v = check_condition(F, "S2")
    assert v.fails  # {1} is missing
    assert [p.value for p in v.witness.points] == [1]
    assert witness_refutes(F, "S2", v)

    F = expl((0, 1), (0,), (1,), ())
    assert check_condition(F, "S2").holds
    assert check_condition(F, "S6").holds


def test_explicit_a3_a4_a5():
    F = expl((1,), (-1,))
    assert check_condition(F, "A5").holds
    v = check_condition(F, "A3")
    assert v.fails and witness_refutes(F, "A3", v)

    F = expl((1,))
    v = check_condition(F, "A5")
    assert v.fails and v.witness.value == 1
    assert witness_refutes(F, "A5", v)
    v = check_condition(F, "A4")
    assert v.fails  # sum closure of {1} is infinite
    assert witness_refutes(F, "A4", v)

    F = expl(())
    assert check_condition(F, "A3").holds
    v = check_condition(F, "A4")
    assert v.fails  # closure of the empty set is {0}, not a member
    assert witness_refutes(F, "A4", v)


def test_empty_family():
    F = expl()
    assert check_condition(F, "S5").fails
    assert check_condition(F, "S2").holds
    assert check_condition(F, "A3").holds
    assert check_condition(F, "A1").fails


def test_trivial_group_families():
    z = group_zero(TRIVIAL)
    full = explicit_family(TRIVIAL, [[], [z]])
    for cond in CONDITION_NAMES:
        assert check_condition(full, cond).holds, cond
    only_zero = explicit_family(TRIVIAL, [[z]])
    assert check_condition(only_zero, "S2").fails
    only_empty = explicit_family(TRIVIAL, [[]])
    assert check_condition(only_empty, "A4").fails
    assert check_condition(only_empty, "S1").fails


def test_lex_group_region_families():
    L2 = lex_product(2)
    F = well_ordered_family(nonneg_cone(L2))
    assert check_condition(F, "A2").holds
    v = check_condition(F, "S1")
    assert v.fails
    assert v.witness.points[0].value == (-1, 0)


def _random_explicit_family(rng, trivial=False):
    if trivial:
        members = []
        for s in ([], [0]):
            if rng.random() < 0.6:
                members.append([group_zero(TRIVIAL)] if s else [])
        return explicit_family(TRIVIAL, members)
    members = []
    for _ in range(rng.randint(0, 6)):
        members.append([zq(v) for v in rng.sample(range(-3, 4), rng.randint(0, 4))])
    return explicit_family(INTEGERS, members)


def test_implication_graph_on_random_families():
    # S1 => S4 => S5, S2 => S6, S1 => A1, S1 => A5: whenever the premise
    # holds the conclusion never fails
    rng = random.Random(321)
    implications = [("S1", "S4"), ("S4", "S5"), ("S2", "S6"), ("S1", "A1"), ("S1", "A5")]
    for i in range(1000):
        F = _random_explicit_family(rng, trivial=(i % 5 == 0))
        verdicts = {c: check_condition(F, c) for c in
                    {c for pair in implications for c in pair}}
        for premise, conclusion in implications:
            if verdicts[premise].holds:
                assert not verdicts[conclusion].fails, (str(F), premise, conclusion)


def test_every_fails_witness_rechecks():
    rng = random.Random(654)
    region_families = [
        W(whole_group(INTEGERS)),
        W(nonneg_cone(INTEGERS)),
        W(pos_cone(INTEGERS)),
        FIN(whole_group(INTEGERS)),
        FIN(nonneg_cone(INTEGERS)),
        W(subgroup(INTEGERS, [zq(4), zq(6)])),
        W(submonoid(INTEGERS, [zq(2), zq(3)])),
        W(finite_region(INTEGERS, [zq(0), zq(1)])),
        FIN(finite_region(INTEGERS, [zq(-1), zq(0), zq(1)])),
    ]
    families = region_families + [_random_explicit_family(rng) for _ in range(200)]
    checked = 0
    for F in families:
        for cond in CONDITION_NAMES:
            v = check_condition(F, cond)
            if v.fails and not (cond == "S5" and v.witness is None):
                assert witness_refutes(F, cond, v), (str(F), cond, str(v))
                checked += 1
    assert checked > 100


def _random_element(rng, group):
    if group == RATIONALS:
        return group.element(Fraction(rng.choice((-1, 1)) * rng.randint(1, 15),
                                      rng.choice((1, 2, 3))))
    if group == TRIVIAL:
        return group_zero(group)
    if group == INTEGERS:
        return zq(rng.randint(-6, 15))
    return group.element(tuple(rng.randint(-3, 5) for _ in range(group.rank)))


def _random_region_families(rng, group, count):
    """W and FIN over every region kind, with ``count`` seeded random
    generator sets for each of mon, grp and set."""
    regions = [whole_group(group), nonneg_cone(group), pos_cone(group)]
    for make in (submonoid, subgroup, finite_region):
        for _ in range(count):
            regions.append(make(group, [_random_element(rng, group)
                                        for _ in range(rng.randint(1, 3))]))
    return [fam(region) for region in regions for fam in (W, FIN)]


def test_every_fails_witness_rechecks_over_every_group():
    rng = random.Random(987)
    checked = 0
    for group in (RATIONALS, lex_product(2), lex_product(3), TRIVIAL):
        for F in _random_region_families(rng, group, 40):
            for cond in CONDITION_NAMES:
                v = check_condition(F, cond)
                if v.fails:
                    assert witness_refutes(F, cond, v) is True, (str(F), cond, str(v))
                    checked += 1
    assert checked > 2000


def test_explicit_families_decide_s1_and_a3():
    # S1 probes 2n + 3 singletons and A3 n + 1 translates against n members
    rng = random.Random(246)
    for group in (INTEGERS, RATIONALS, lex_product(2)):
        for _ in range(200):
            points = [_random_element(rng, group) if group != INTEGERS
                      else zq(rng.randint(-3, 3)) for _ in range(6)]
            members = [rng.sample(points, rng.randint(0, 3)) for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.3:
                members += [[p] for p in points]
            F = explicit_family(group, members)
            for cond in ("S1", "A3"):
                assert not check_condition(F, cond).unknown, (str(F), cond)


def test_submonoid_beyond_twelve_summands_is_decided():
    # -7 = 99*7 + 7*(-100) and 100 = 100*7 + 6*(-100): the inverses need
    # over 100 summands, yet the monoid is the group Z
    F = W(submonoid(INTEGERS, [zq(7), zq(-100)]))
    for cond in ("S1", "A3", "A5"):
        assert check_condition(F, cond).holds, cond
    assert check_condition(F, "A1").holds  # gcd(7,100) = 1, decided exactly
    assert check_condition(F, "A2").holds
    assert check_condition(F, "A4").holds


def test_negative_monoid_witnesses_are_confirmed():
    F = W(submonoid(INTEGERS, [zq(-3)]))
    for cond in ("S1", "A3", "A5"):
        v = check_condition(F, cond)
        assert v.fails, cond
        assert witness_refutes(F, cond, v) is True, cond


@pytest.mark.parametrize("family", [
    W(submonoid(INTEGERS, [zq(2), zq(3)])),
    FIN(submonoid(lex_product(3), [lex_product(3).element(v)
                                   for v in ((1, 2, -3), (0, 1, 1), (3, -1, 2))])),
], ids=str)
def test_one_region_analysis_per_family(family, monkeypatch):
    calls = []
    real = supports.lineality_generators

    def counted(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(supports, "lineality_generators", counted)
    monkeypatch.setattr(conditions, "lineality_generators", counted)
    for run in (lambda: classify_khull(QQ, family), lambda: check_conditions(family)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_check_conditions_agrees_with_check_condition():
    rng = random.Random(135)
    families = [F for group in (INTEGERS, RATIONALS, lex_product(2), TRIVIAL)
                for F in _random_region_families(rng, group, 8)]
    families += [_random_explicit_family(rng, trivial=(i % 5 == 0)) for i in range(40)]
    names = ("A5", "S1", "A2", "S4", "A3")
    for F in families:
        verdicts = check_conditions(F)
        assert list(verdicts) == list(CONDITION_NAMES)
        assert verdicts == {n: check_condition(F, n) for n in CONDITION_NAMES}, str(F)
        some = check_conditions(F, names)
        assert list(some) == list(names)
        assert some == {n: verdicts[n] for n in names}, str(F)
        with pytest.raises(ValueError, match="unknown condition 'S7'"):
            check_conditions(F, ("S1", "S7"))
