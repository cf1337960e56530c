import io
import random

from hahnseries.cli import main
from hahnseries.classify import FLAG_NAMES, classify_khull
from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, TRIVIAL, group_zero
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

F2 = prime_field(2)
F5 = prime_field(5)
F3X = rational_functions(3)


def zq(n):
    return INTEGERS.element(n)


def test_full_family_is_everything():
    c = classify_khull(QQ, well_ordered_family(whole_group(INTEGERS)))
    for name in FLAG_NAMES:
        assert c.flag(name).yes, name
    assert c.flag("rayner_field").yes == c.flag("hahn_field").yes


def test_valuation_ring_family():
    c = classify_khull(QQ, well_ordered_family(nonneg_cone(INTEGERS)))
    assert c.flag("additive_subgroup").yes
    assert c.flag("subring").yes
    assert c.flag("has_identity").yes
    assert c.flag("subfield").no
    assert c.flag("subfield").witness[0] == "A5"
    assert c.flag("hahn_field").no
    assert c.flag("rayner_field").no
    assert c.flag("rayner_field").witness[0] == "A3"
    assert c.flag("restriction_closed").yes
    assert c.flag("truncation_closed").yes


def test_finite_subsets_family():
    c = classify_khull(QQ, finite_subsets_family(whole_group(INTEGERS)))
    assert c.flag("subring").yes
    assert c.flag("has_identity").yes
    assert c.flag("subfield").no
    cond, witness = c.flag("subfield").witness
    assert cond == "A4"
    assert [p.value for p in witness.points] == [1]
    assert c.flag("hahn_field").no
    assert c.flag("rayner_field").no


def test_maximal_ideal_family():
    c = classify_khull(QQ, well_ordered_family(pos_cone(INTEGERS)))
    assert c.flag("additive_subgroup").yes
    assert c.flag("subring").yes
    assert c.flag("has_identity").no  # {0} is not a member
    assert c.flag("subfield").no
    assert c.flag("restriction_closed").yes


def test_f2_unknowns_on_failed_conditions():
    F = explicit_family(INTEGERS, [[zq(0)], [zq(1)]])
    over_q = classify_khull(QQ, F)
    assert over_q.flag("additive_subgroup").no
    over_f2 = classify_khull(F2, F)
    assert over_f2.flag("additive_subgroup").value == "unknown"
    assert "F_2" in over_f2.flag("additive_subgroup").reason
    assert over_f2.flag("subring").value == "unknown"
    # definitional and set-theoretic flags stay decided even over F_2
    assert over_f2.flag("rayner_field").no
    assert over_f2.flag("restriction_closed").no


def test_f5_small_field_ring_converse_unavailable():
    # additive conditions hold, A2 fails: over a small positive
    # characteristic field the ring converse may not be applied
    F = explicit_family(
        INTEGERS, [[], [zq(0)], [zq(1)], [zq(0), zq(1)]]
    )
    c = classify_khull(F5, F)
    assert c.flag("additive_subgroup").yes  # F_5 is not F_2
    assert c.flag("subring").value == "unknown"
    # over the large field F_3(x) the converse applies
    c = classify_khull(F3X, F)
    assert c.flag("subring").no
    # and over Q by characteristic zero
    c = classify_khull(QQ, F)
    assert c.flag("subring").no


def test_ring_without_identity():
    # multiples of 2 inside Z: closed under subsets, unions, sums; has
    # translations fail and {0} present? 0 is in the subgroup, so the
    # hull does contain 1; use the positive cone for a ring without 1
    c = classify_khull(QQ, well_ordered_family(pos_cone(INTEGERS)))
    assert c.flag("subring").yes
    assert c.flag("has_identity").no


def test_submonoid_family_classification():
    c = classify_khull(QQ, well_ordered_family(submonoid(INTEGERS, [zq(2), zq(3)])))
    assert c.flag("subring").yes
    assert c.flag("has_identity").yes
    assert c.flag("subfield").no
    assert c.flag("rayner_field").no


def test_subgroup_region_gives_field_but_not_hahn():
    c = classify_khull(QQ, well_ordered_family(subgroup(INTEGERS, [zq(2)])))
    assert c.flag("subfield").yes
    assert c.flag("hahn_field").no  # S1 fails: {1} is not a member
    assert c.flag("rayner_field").no  # A1 fails: 2Z is not Z
    assert c.flag("additive_subgroup").yes


def test_trivial_group_rayner_catalog():
    z = group_zero(TRIVIAL)
    both = explicit_family(TRIVIAL, [[], [z]])
    for fld in (QQ, F2, F5):
        c = classify_khull(fld, both)
        assert c.flag("rayner_field").yes
        assert c.flag("hahn_field").yes
    for members in ([], [[]], [[z]]):
        c = classify_khull(QQ, explicit_family(TRIVIAL, members))
        assert c.flag("rayner_field").no, members
    # W and FIN over the whole trivial group are exactly {{}, {0}}
    for fam in (well_ordered_family(whole_group(TRIVIAL)),
                finite_subsets_family(whole_group(TRIVIAL))):
        c = classify_khull(F2, fam)
        assert c.flag("rayner_field").yes


CATALOG = [
    well_ordered_family(whole_group(INTEGERS)),
    well_ordered_family(nonneg_cone(INTEGERS)),
    well_ordered_family(pos_cone(INTEGERS)),
    finite_subsets_family(whole_group(INTEGERS)),
    finite_subsets_family(nonneg_cone(INTEGERS)),
    well_ordered_family(subgroup(INTEGERS, [zq(2)])),
    well_ordered_family(submonoid(INTEGERS, [zq(2), zq(3)])),
    well_ordered_family(finite_region(INTEGERS, [zq(0), zq(1)])),
    well_ordered_family(whole_group(TRIVIAL)),
    finite_subsets_family(pos_cone(TRIVIAL)),
]


def test_rayner_iff_hahn_over_char_zero_catalog():
    for fam in CATALOG:
        c = classify_khull(QQ, fam)
        r, h = c.flag("rayner_field"), c.flag("hahn_field")
        assert r.value == h.value, str(fam)


def test_rayner_implies_hahn_any_field():
    for fld in (QQ, F2, F5, F3X):
        for fam in CATALOG:
            c = classify_khull(fld, fam)
            if c.flag("rayner_field").yes:
                assert c.flag("hahn_field").yes, (str(fld), str(fam))


def test_flag_implication_chain():
    rng = random.Random(8)
    families = list(CATALOG)
    for _ in range(120):
        members = [
            [zq(v) for v in rng.sample(range(-3, 4), rng.randint(0, 3))]
            for _ in range(rng.randint(0, 5))
        ]
        families.append(explicit_family(INTEGERS, members))
    for fld in (QQ, F2, F5):
        for fam in families:
            c = classify_khull(fld, fam)
            if c.flag("subfield").yes:
                assert c.flag("subring").yes
            if c.flag("subring").yes:
                assert c.flag("additive_subgroup").yes
            if c.flag("rayner_field").yes:
                assert c.flag("hahn_field").yes
            if c.flag("hahn_field").yes and fld.characteristic == 0:
                assert c.flag("restriction_closed").yes
                assert c.flag("truncation_closed").yes


def test_json_rendering():
    c = classify_khull(QQ, well_ordered_family(nonneg_cone(INTEGERS)))
    d = c.to_json_dict()
    assert d["field"] == "Q"
    assert d["family"] == "W(Z>=0)"
    assert d["flags"]["subring"]["value"] == "yes"
    assert d["flags"]["subfield"]["value"] == "no"
    assert d["assumptions"]["char_k"] == 0


def test_char_zero_rayner_hahn_equivalence_on_random_families():
    # over a characteristic-zero field the definitional Rayner conditions
    # and the Hahn condition set decide identically, and a Rayner verdict
    # coincides with all eleven conditions holding
    from hahnseries.conditions import CONDITION_NAMES, check_condition

    rng = random.Random(99)
    families = list(CATALOG)
    for _ in range(150):
        members = [
            [zq(v) for v in rng.sample(range(-3, 4), rng.randint(0, 3))]
            for _ in range(rng.randint(0, 5))
        ]
        families.append(explicit_family(INTEGERS, members))
    from hahnseries.groups import group_zero as gz

    z = gz(TRIVIAL)
    families.append(explicit_family(TRIVIAL, [[], [z]]))
    families.append(explicit_family(TRIVIAL, [[z]]))
    for fam in families:
        c = classify_khull(QQ, fam)
        r, h = c.flag("rayner_field"), c.flag("hahn_field")
        if "unknown" not in (r.value, h.value):
            assert r.value == h.value, str(fam)
        if r.yes:
            verdicts = [check_condition(fam, n) for n in CONDITION_NAMES]
            assert all(v.holds for v in verdicts), str(fam)


def test_has_identity_reads_the_subring_flag_after_the_implications():
    # over F3 the ring converse is unavailable, yet S3 fails, so subring
    # is no through the additive-subgroup implication
    out, err = io.StringIO(), io.StringIO()
    assert main(["classify", "--family", "explicit{{1}}", "--field", "F3"], out, err) == 0
    lines = out.getvalue().splitlines()
    assert "  subring: no [subring-is-an-additive-subgroup] witness S2:{}" in lines
    assert "  has_identity: no [not-a-subring]" in lines

    rng = random.Random(2022)
    families = []
    for _ in range(80):
        members = [
            [zq(v) for v in rng.sample(range(-3, 4), rng.randint(0, 3))]
            for _ in range(rng.randint(0, 6))
        ]
        families.append(explicit_family(INTEGERS, members))
    for _ in range(15):
        gens = [zq(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        for region in (whole_group(INTEGERS), nonneg_cone(INTEGERS), pos_cone(INTEGERS),
                       submonoid(INTEGERS, gens), subgroup(INTEGERS, gens),
                       finite_region(INTEGERS, gens + [zq(0)] * rng.randint(0, 1))):
            families += [well_ordered_family(region), finite_subsets_family(region)]
    for fld in (QQ, F2, prime_field(3), F5, F3X):
        for fam in families:
            c = classify_khull(fld, fam)
            if c.flag("subring").no:
                assert c.flag("has_identity").no, (str(fld), str(fam))
            if c.flag("has_identity").yes:
                assert c.flag("subring").yes, (str(fld), str(fam))
