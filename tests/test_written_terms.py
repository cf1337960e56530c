"""Written terms ``c*t^(g)``: pinned CLI outputs and evaluation bookkeeping.

``golden_written_terms.json`` holds the stdout, stderr and exit code of
CLI calls on written terms, recorded before written terms were evaluated
as leaves: sums with cancellation and repeated exponents, the forms
``t^(g)*c``, ``-(c*t^(g))`` and ``0*t^(g)``, coefficient-only terms, Q,
Z^2 and trivial exponents, F_7 and F_3(x) coefficients, term and exponent
bounds below the written terms, trunc/support/vmin, witnessed inverses
and their default bounds, and parse errors with their positions.
"""

import io
import json
from pathlib import Path

import pytest

from hahnseries.cli import main
from hahnseries.fields import QQ, rational_functions
from hahnseries.groups import INTEGERS
from hahnseries.parser import default_bound, parse_expression
from hahnseries.series import EvaluationContext, Horizon, Monomial, Sum

GOLDEN = json.loads((Path(__file__).parent / "golden_written_terms.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_the_recorded_one(case):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(case["argv"]), out, err)
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"], case["stderr"])


def _written_sum(n):
    return " ".join(f"{'-' if k % 3 else '+'} {k + 1}*t^({k})" for k in range(n)).lstrip("+ ")


def test_a_written_sum_leaves_one_memo_entry_and_no_vmin_bounds():
    s = parse_expression(_written_sum(100), INTEGERS, QQ)
    assert isinstance(s, Sum) and len(s.summands) == 100
    assert all(isinstance(x, Monomial) for x in s.summands)
    ctx = EvaluationContext(Horizon(default_bound(s)))
    tl = ctx.coefficients(s)
    assert [(int(str(g)), str(c)) for g, c in tl.terms] == [
        (k, str(-(k + 1) if k % 3 else k + 1)) for k in range(100)
    ]
    assert list(ctx._complete_cache) == [s]
    assert not ctx._vmin_bounds and not ctx._exact_cache


def test_a_product_of_written_sums_keeps_bounds_only_for_the_sums():
    s = parse_expression(f"({_written_sum(30)})*({_written_sum(40)})", INTEGERS, QQ)
    ctx = EvaluationContext(Horizon(default_bound(s)))
    ctx.coefficients(s)
    assert set(ctx._complete_cache) == {s, s.left, s.right}
    assert set(ctx._vmin_bounds) == {s.left, s.right}


def test_a_written_sum_over_rational_functions_leaves_no_vmin_bounds():
    text = " + ".join(f"(x^{k}+{k % 2 + 1})*t^({k})" for k in range(20)) + " - x*t^(3)"
    s = parse_expression(text, INTEGERS, rational_functions(3))
    assert all(isinstance(x, Monomial) for x in s.summands)
    ctx = EvaluationContext(Horizon(default_bound(s)))
    tl = ctx.coefficients(s)
    assert len(tl.terms) == 20 and str(tl.coefficient_at(INTEGERS.element(3))) == "x^3+2*x+2"
    assert list(ctx._complete_cache) == [s]
    assert not ctx._vmin_bounds and not ctx._exact_cache
