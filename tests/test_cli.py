import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hahnseries import cli
from hahnseries.cli import build_parser, main
from oracle import DenseField, dense, dense_pairs

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_eval_fibonacci_golden():
    code, out, err = run_cli(
        "eval", "inv(1 - t^(1) - t^(2))", "--group", "Z", "--field", "Q",
        "--exp-bound", "6",
    )
    assert code == 0, err
    assert out == "1 + 1*t^(1) + 2*t^(2) + 3*t^(3) + 5*t^(4) + 8*t^(5) + 13*t^(6)\n"


def test_eval_json():
    code, out, _ = run_cli(
        "eval", "1 - t^(2)", "--exp-bound", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "terms": [{"exp": "0", "coef": "1"}, {"exp": "2", "coef": "-1"}],
        "complete": True,
    }


def test_eval_defaults_bound_to_literals():
    code, out, _ = run_cli("eval", "1 + 2*t^(1) + 3*t^(2)")
    assert code == 0
    assert out.strip() == "1 + 2*t^(1) + 3*t^(2)"


def test_eval_requires_bound_for_inv():
    code, out, err = run_cli("eval", "inv(1 - t^(1))")
    assert code == 2
    assert "exp-bound" in err
    code, out, err = run_cli("eval", "inv(t^(2); g0=2)")
    assert code == 0
    assert out.strip() == "1*t^(-2)"
    # the default bound comes from the expression, not from --g0
    code, out, err = run_cli("invert", "t^(2)*(1 + t^(1))", "--g0", "2")
    assert code == 0, err
    assert out.strip() == "1*t^(-2) - 1*t^(-1) + 1 - 1*t^(1) + 1*t^(2)"
    # -g0 of a witnessed inv counts towards it
    code, out, err = run_cli("eval", "t^(-3)*inv(t^(-3) + t^(2); g0=-3)")
    assert code == 0, err
    assert out.strip() == "1"
    # invert without --g0 needs a bound before the expression is looked at
    code, out, err = run_cli("invert", "inv(1 - t^(1))")
    assert code == 2
    assert err == "error: --exp-bound is required for invert without --g0\n"


def test_invert_command():
    code, out, _ = run_cli("invert", "1 - t^(1)", "--exp-bound", "4")
    assert code == 0
    assert out.strip() == "1 + 1*t^(1) + 1*t^(2) + 1*t^(3) + 1*t^(4)"
    code, out, _ = run_cli("invert", "2*t^(3) + t^(4)", "--g0", "3", "--exp-bound", "-1")
    assert code == 0
    assert out.strip().startswith("1/2*t^(-3)")


def test_support_and_vmin():
    code, out, _ = run_cli("support", "t^(2) + t^(3)", "--exp-bound", "10")
    assert code == 0
    assert out.strip() == "{2,3}"
    code, out, _ = run_cli("vmin", "3*t^(2) + t^(5)", "--exp-bound", "10")
    assert code == 0
    assert out.strip() == "2"



def test_support_json():
    code, out, _ = run_cli("support", "t^(2) + t^(3)", "--exp-bound", "10", "--json")
    assert (code, json.loads(out)) == (0, {"support": ["2", "3"], "complete": True})
    # the one written sum spends the term budget on its two least points
    code, out, _ = run_cli("support", "t^(1) + t^(2) + t^(3)", "--term-bound", "2", "--json")
    assert (code, json.loads(out)) == (0, {"support": ["1", "2"], "complete": False})


def test_support_text_marks_a_truncated_enumeration():
    code, out, _ = run_cli("support", "t^(1) + t^(2) + t^(3)", "--term-bound", "2")
    assert (code, out) == (0, "{1,2},...\n")
    code, out, _ = run_cli("support", "t^(1) + t^(2) + t^(3)", "--term-bound", "3")
    assert (code, out) == (0, "{1,2,3}\n")


def test_eval_text_marks_an_unlisted_tail():
    code, out, _ = run_cli("eval", "t^(1) + t^(2) + t^(3)", "--term-bound", "2")
    assert (code, out) == (0, "1*t^(1) + 1*t^(2) + O(t^(3))\n")
    code, out, _ = run_cli("eval", "t^(1) + t^(2) + t^(3)", "--term-bound", "3")
    assert (code, out) == (0, "1*t^(1) + 1*t^(2) + 1*t^(3)\n")
    # the JSON form is unchanged: it says "complete": false
    code, out, _ = run_cli("eval", "t^(1) + t^(2) + t^(3)", "--term-bound", "2", "--json")
    assert (code, json.loads(out)) == (0, {
        "terms": [{"exp": "1", "coef": "1"}, {"exp": "2", "coef": "1"}], "complete": False})


def test_invert_and_trunc_text_mark_an_unlisted_tail():
    code, out, _ = run_cli("invert", "1 - t^(1)", "--exp-bound", "9", "--term-bound", "3")
    assert (code, out) == (0, "1 + 1*t^(1) + 1*t^(2) + O(t^(3))\n")
    code, out, _ = run_cli("trunc", "1 + 2*t^(1) + 3*t^(2) + 4*t^(3)", "3",
                           "--exp-bound", "5", "--term-bound", "2")
    assert (code, out) == (0, "1 + 2*t^(1) + O(t^(2))\n")
    # a truncated result without a listed term is its tail alone
    code, out, _ = run_cli("eval", "inv(1 + t^((0,1))) - inv(1 + t^((0,1)))",
                           "--group", "Z^2", "--exp-bound", "(1,0)", "--term-bound", "5")
    assert (code, out) == (0, "O(t^((0,5)))\n")


def test_a_tail_marker_does_not_read_back():
    _, out, _ = run_cli("eval", "t^(1) + t^(2) + t^(3)", "--term-bound", "2")
    code, out, err = run_cli("eval", out.strip())
    assert (code, out) == (2, "")
    assert err.startswith("error: O(...) marks terms a truncated result left unlisted")
    assert err.endswith("(line 1, column 21)\n")


def test_vmin_exits_on_the_term_budget_before_any_support_point():
    # the series is -t^(6), but the product spends its one term on t^(1),
    # which the sum cancels
    code, out, err = run_cli(
        "vmin", "t^(1) - t^(1)*(1 + t^(5))", "--exp-bound", "10", "--term-bound", "1"
    )
    assert (code, out, err) == (3, "", "budget exceeded: support enumeration hit the term budget\n")

def test_vmin_zero_series_exit_code():
    code, _, err = run_cli("vmin", "t^(1) - t^(1)", "--exp-bound", "10")
    assert code == 1
    assert "no nonzero coefficient" in err


def test_trunc_command():
    code, out, _ = run_cli("trunc", "1 + 2*t^(1) + 3*t^(2)", "2", "--exp-bound", "5")
    assert code == 0
    assert out.strip() == "1 + 2*t^(1)"
    code, out, _ = run_cli(
        "trunc", "1 + 2*t^(1) + 3*t^(2)", "2", "--inclusive", "--exp-bound", "5"
    )
    assert out.strip() == "1 + 2*t^(1) + 3*t^(2)"


def test_syntax_error_exit_code():
    code, _, err = run_cli("eval", "t^(1/2", "--group", "Q", "--exp-bound", "3")
    assert code == 2
    assert "column 7" in err


def test_large_prime_fields():
    code, out, err = run_cli("eval", "1 + t^(1)", "--field", "F2305843009213693951")
    assert (code, out, err) == (0, "1 + 1*t^(1)\n", "")
    code, out, err = run_cli("eval", "2*t^(1)", "--field", f"F{(1 << 89) - 1}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {(1 << 89) - 1} is too large: primality is decided below")


def test_rational_group_and_field_flags():
    code, out, _ = run_cli(
        "eval", "2/3*t^(5/2) + 1", "--group", "Q", "--field", "Q",
        "--exp-bound", "3",
    )
    assert code == 0
    assert out.strip() == "1 + 2/3*t^(5/2)"
    code, out, _ = run_cli(
        "eval", "t^((1,-2))", "--group", "Z^2", "--exp-bound", "(2,0)"
    )
    assert code == 0
    assert out.strip() == "1*t^((1,-2))"
    code, out, _ = run_cli(
        "eval", "2*t^(1) + 3*t^(1)", "--field", "F5", "--exp-bound", "2"
    )
    assert code == 0
    assert out.strip() == "0"


def test_unknown_selectors():
    code, _, err = run_cli("eval", "1", "--group", "R", "--exp-bound", "1")
    assert code == 2
    code, _, err = run_cli("eval", "1", "--field", "F4", "--exp-bound", "1")
    assert code == 2
    assert "F4" in err or "prime" in err


def test_check_family():
    code, out, _ = run_cli("check-family", "W(Z>=0)", "--condition", "S1")
    assert code == 0
    assert "fails" in out
    code, out, _ = run_cli("check-family", "W(Z)", "--json")
    payload = json.loads(out)
    assert all(v["outcome"] == "holds" for v in payload["conditions"].values())
    code, out, _ = run_cli("check-family", "W(mon{2,3})", "--condition", "A2")
    assert "holds" in out
    code, out, _ = run_cli("check-family", "explicit{{},{0},{0,1}}", "--condition", "S2")
    assert "fails" in out


def test_classify_command():
    code, out, _ = run_cli("classify", "--field", "Q", "--family", "W(Z>=0)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"]["subring"]["value"] == "yes"
    assert payload["flags"]["has_identity"]["value"] == "yes"
    assert payload["flags"]["subfield"]["value"] == "no"
    code, out, _ = run_cli("classify", "--field", "F2", "--family", "explicit{{0},{1}}")
    assert code == 0
    assert "unknown" in out


def test_classify_whole_group_all_yes():
    code, out, _ = run_cli("classify", "--field", "Q", "--family", "W(Z)", "--json")
    payload = json.loads(out)
    assert all(f["value"] == "yes" for f in payload["flags"].values())


def test_suite_filter_and_determinism():
    code1, out1, _ = run_cli("suite", "--filter", "fp-gap", "--json", "--seed", "3")
    assert code1 == 0
    reports = json.loads(out1)
    assert len(reports) == 6
    assert all(r["status"] == "bounded-pass" for r in reports)
    code2, out2, _ = run_cli("suite", "--filter", "fp-gap", "--json", "--seed", "3")
    assert out1 == out2


def test_suite_text_mode():
    code, out, _ = run_cli("suite", "--filter", "truncation")
    assert code == 0
    assert "BOUNDED-PASS" in out.upper().replace("_", "-")


def test_usage_error_exit():
    code, _, _ = run_cli("nonsense")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2



# each subcommand with the flags it accepted at one time but never read
DROPPED_FLAGS = {
    ("eval", "1"): ("--seed",),
    ("invert", "1"): ("--seed",),
    ("support", "1"): ("--seed",),
    ("vmin", "1"): ("--seed",),
    ("trunc", "1", "0"): ("--seed",),
    ("check-family", "W(Z)"): ("--exp-bound", "--term-bound", "--seed"),
    ("classify", "--family", "W(Z)"): ("--exp-bound", "--term-bound", "--seed"),
    ("suite", "--filter", "fp-gap"): ("--group", "--field", "--exp-bound", "--term-bound"),
}
FLAG_VALUES = {"--seed": "1", "--exp-bound": "3", "--term-bound": "3", "--group": "Z", "--field": "Q"}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag}")
    for argv, flags in DROPPED_FLAGS.items() for flag in flags
])
def test_a_subcommand_rejects_the_flags_it_does_not_read(argv, flag, capsys):
    code, out, err = run_cli(*argv, flag, FLAG_VALUES[flag])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command, values, flags", [
    ("eval", ("-2*t^(1)",), ()),
    ("eval", ("-2*t^(1) + t^(3)",), ()),
    ("eval", ("-(x+1)*t^(1)",), ("--field", "F3(x)")),
    ("eval", ("-t^(1/2)",), ("--group", "Q", "--exp-bound", "-1/2")),
    ("vmin", ("-t^(2) + t^(5)",), ("--json",)),
    ("trunc", ("-t^(1) - 2*t^(2)", "-1/2"), ("--group", "Q", "--inclusive")),
    ("invert", ("-2*t^(3) + t^(4)",), ("--g0", "3", "--exp-bound", "4")),
    ("eval", ("-2*t^(1)/",), ()),
    ("eval", ("-t^(2)+-(t^(1)*5)",), ()),
])
def test_a_leading_minus_needs_no_double_dash(command, values, flags):
    """An argument that starts with one '-' and names no option is a value,
    read exactly as it is after '--', error positions included."""
    assert run_cli(command, *values, *flags) == run_cli(command, *flags, "--", *values)


def test_a_leading_minus_expression_prints_the_series():
    assert run_cli("eval", "-2*t^(1)") == (0, "-2*t^(1)\n", "")
    # an argument that names an option is still read as one
    assert run_cli("eval", "-h")[0] == 0
    code, out, err = run_cli("eval", "--json")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: expression\n")


def test_repeated_main_calls_match_single_calls():
    """main() shares one parser across calls; alternating subcommands,
    usage errors included, print exactly what a lone call prints."""
    calls = [
        ("eval", "1 - t^(2)", "--exp-bound", "5"),
        ("classify", "--family", "W(Z>=0)", "--json"),
        ("check-family", "explicit{{},{0},{1}}", "--json"),
        ("eval",),
        ("vmin", "t^(3) + t^(1)", "--json"),
        ("no-such-command",),
        ("check-family", "FIN(Z)", "--condition", "A4"),
    ]
    single = {}
    for argv in calls:
        build_parser.cache_clear()  # a fresh parser, as in a new process
        single[argv] = run_cli(*argv)[:2]
    assert single[("eval",)][0] == 2
    assert single[("no-such-command",)][0] == 2
    for _ in range(3):
        for argv in calls:
            assert run_cli(*argv)[:2] == single[argv], argv


def test_malformed_family_point_keeps_its_parse_error():
    # points repeat before the bad one; the first malformed point decides
    # the error, and its column counts from the start of the descriptor
    code, out, err = run_cli("check-family", "explicit{{0,1},{1,2},{1,x}}", "--condition", "S2")
    assert (code, out, err) == (2, "", "error: expected an integer (line 1, column 25)\n")
    code, out, err = run_cli(
        "check-family", "explicit{{(0,1)},{(0,1),(1,2,3)}}", "--group", "Z^2", "--condition", "S2",
    )
    assert (code, out, err) == (2, "", "error: expected 2 coordinates (line 1, column 25)\n")


def test_exponent_flags_end_where_expressions_and_descriptors_do():
    code, out, err = run_cli("eval", "t^(1)", "--exp-bound", "3x")
    assert (code, out, err) == (2, "", "error: unexpected 'x' after exponent (line 1, column 2)\n")
    code, out, err = run_cli("invert", "1 + t^(1)", "--g0", "0)", "--exp-bound", "2")
    assert (code, out, err) == (2, "", "error: unexpected ')' after exponent (line 1, column 2)\n")


def test_ratfunc_text_output_reparses():
    code, out, err = run_cli("eval", "(x+1)*t^(1)", "--field", "F3(x)", "--exp-bound", "2")
    assert (code, out, err) == (0, "(x+1)*t^(1)\n", "")
    assert run_cli("eval", out.strip(), "--field", "F3(x)", "--exp-bound", "2")[1] == out
    # JSON coefficients are unambiguous and stay bare
    code, out, _ = run_cli("eval", "(x+1)*t^(1)", "--field", "F3(x)", "--exp-bound", "2", "--json")
    assert json.loads(out)["terms"] == [{"exp": "1", "coef": "x+1"}]


def test_eval_of_a_1500_term_sum_matches_the_oracle():
    rng = random.Random(1500)
    pairs = [(e, Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for e in range(1500)]
    text = f"{pairs[0][1]}" + "".join(
        f" {'-' if c < 0 else '+'} {abs(c)}*t^({e})" for e, c in pairs[1:]
    )
    code, out, err = run_cli("eval", text, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["complete"]
    fld = DenseField()
    got = [(int(t["exp"]), Fraction(t["coef"])) for t in payload["terms"]]
    assert got == dense_pairs(dense(pairs, 1500, fld), fld)


def test_a_flat_sum_spends_the_term_budget_once():
    # the partial sums t + t^2 + t^3 and t + t^2 + t^3 - t would each
    # exceed two terms, but the written sum is one node
    code, out, err = run_cli(
        "eval", "t^(1) + t^(2) + t^(3) - t^(1) - t^(2)", "--term-bound", "2", "--json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"terms": [{"exp": "3", "coef": "1"}], "complete": True}


@pytest.mark.parametrize("expression", [
    "(" * 600 + "1" + ")" * 600,  # too deep for the parser
    "*".join(["t^(1)"] * 1500),  # too deep for the evaluator
])
def test_too_deep_an_expression_exits_with_the_budget_code(expression):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hahnseries.cli", "eval", expression],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "budget exceeded: expression nests too deeply to evaluate\n"
    assert "Traceback" not in proc.stderr


def test_usage_errors_and_help_go_to_the_streams_main_is_given(capsys):
    code, out, err = run_cli("eval")
    assert (code, out) == (2, "")
    assert err.startswith("usage: hahnseries eval")
    assert err.endswith("error: the following arguments are required: expression\n")
    code, out, err = run_cli("check-family", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: hahnseries check-family")
    assert capsys.readouterr() == ("", "")


def test_running_out_of_memory_exits_with_the_budget_code(monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(cli, "parse_expression", exhausted)
    assert run_cli("eval", "t^(1)") == (3, "", "budget exceeded: out of memory\n")
