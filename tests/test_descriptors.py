"""Family descriptors: ``W(S)``, ``FIN(S)`` and ``explicit{...}``, read by
the expression parser's tokenizer and exponent rule."""

import io
from fractions import Fraction

import pytest

import hahnseries.cli
from hahnseries.cli import main
from hahnseries.errors import ParseError
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, lex_product
from hahnseries.parser import parse_family_text
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

LEX2 = lex_product(2)

# a few points of each group, in no particular order
POINTS = {
    INTEGERS: [2, -3],
    RATIONALS: [Fraction(1, 2), -3],
    LEX2: [(0, 1), (1, -2)],
    TRIVIAL: [0],
}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _regions(group):
    points = [group.element(v) for v in POINTS[group]]
    yield whole_group(group)
    yield nonneg_cone(group)
    yield pos_cone(group)
    for make in (submonoid, subgroup, finite_region):
        yield make(group, points)
        yield make(group, points[:1])
    yield submonoid(group, [])


@pytest.mark.parametrize("group", list(POINTS), ids=str)
def test_region_families_round_trip(group):
    for region in _regions(group):
        for family in (well_ordered_family(region), finite_subsets_family(region)):
            assert parse_family_text(str(family), group) == family, str(family)


@pytest.mark.parametrize("group, members", [
    (INTEGERS, [[], [0], [0, 1], [5, -2]]),
    (RATIONALS, [[Fraction(1, 2), -3], [], [Fraction(1, 2)]]),
    (LEX2, [[], [(0, 0)], [(0, 1), (1, -2)]]),
    (TRIVIAL, [[], [0]]),
], ids=str)
def test_explicit_families_round_trip(group, members):
    family = explicit_family(group, [[group.element(v) for v in m] for m in members])
    assert parse_family_text(str(family), group) == family


def test_the_cli_reads_descriptors_with_the_parser():
    assert hahnseries.cli.parse_family_text is parse_family_text


def test_whitespace_separates_descriptor_tokens():
    assert parse_family_text(" W( mon {1} ) ", INTEGERS) == parse_family_text("W(mon{1})", INTEGERS)
    assert parse_family_text("explicit{ {1/2, -3},\n{} }", RATIONALS) == explicit_family(
        RATIONALS, [[RATIONALS.element(Fraction(1, 2)), RATIONALS.element(-3)], []])
    assert run_cli("check-family", "W(mon {1})", "--condition", "S1")[0] == 0


def test_the_whole_group_is_g_or_the_name_of_the_group():
    for text in ("W(G>=0)", "W(Z^2>=0)", "W(Z^2 >= 0)"):
        assert parse_family_text(text, LEX2) == well_ordered_family(nonneg_cone(LEX2))
        code, out, err = run_cli("check-family", text, "--group", "Z^2", "--condition", "S1")
        assert (code, err) == (0, "")
        assert out == "S1: fails witness {(-1,0)} ((-1,0) is outside the region)\n"
    assert parse_family_text("FIN(trivial>0)", TRIVIAL) == finite_subsets_family(pos_cone(TRIVIAL))
    # another group's name is not the whole group
    for argv, name, column in (
        (("check-family", "W(Q)", "--group", "Z"), "Q", 3),
        (("check-family", "W(Q>=0)", "--group", "Z", "--condition", "S4"), "Q", 3),
        (("classify", "--family", "W(Z)", "--group", "Q"), "Z", 3),
        (("check-family", "FIN(Z^3>0)", "--group", "Z^2"), "Z^3", 5),
    ):
        assert run_cli(*argv) == (
            2, "", f"error: unknown region {name!r} (line 1, column {column})\n")


@pytest.mark.parametrize("text, message", [
    ("V(Z)", "unknown family 'V' (expected W(...), FIN(...) or explicit{...}) (line 1, column 1)"),
    ("", "unknown family 'end of input' (expected W(...), FIN(...) or explicit{...})"
         " (line 1, column 1)"),
    ("W(R)", "unknown region 'R' (line 1, column 3)"),
    ("explicit{{1},2}", "expected '{', found '2' (line 1, column 14)"),
    ("explicit{{1},{2}", "expected '}', found 'end of input' (line 1, column 17)"),
    ("explicit{{1}}}", "unexpected '}' after family (line 1, column 14)"),
    ("W(mon{1,2)", "expected '}', found ')' (line 1, column 10)"),
    ("W(Z))", "unexpected ')' after family (line 1, column 5)"),
    ("W(Z>=1)", "expected '0', found '1' (line 1, column 6)"),
    ("FIN(set{1/2})", "expected '}', found '/' (line 1, column 10)"),
    ("explicit{{1},\n{x}}", "expected an integer (line 2, column 2)"),
])
def test_a_malformed_descriptor_exits_2_with_its_position(text, message):
    assert run_cli("check-family", text) == (2, "", f"error: {message}\n")
    with pytest.raises(ParseError):
        parse_family_text(text, INTEGERS)
