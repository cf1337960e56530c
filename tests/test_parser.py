import random
from fractions import Fraction

import pytest

from hahnseries.errors import ParseError
from hahnseries.fields import QQ, prime_field, rational_functions
from hahnseries.groups import INTEGERS, RATIONALS, TRIVIAL, lex_product
from hahnseries.parser import (
    _tokenize,
    default_bound,
    parse_exponent_text,
    parse_expression,
    render_expression,
)
from hahnseries.series import (
    GeometricTail,
    Horizon,
    Inverse,
    Literal,
    Monomial,
    Neg,
    Product,
    Sum,
    Truncation,
    children,
    coefficients_up_to,
    from_terms,
    render_terms,
)

F5 = prime_field(5)
F3X = rational_functions(3)
LEX2 = lex_product(2)


def parse_q(text):
    return parse_expression(text, INTEGERS, QQ)


def is_sub(node):
    return isinstance(node, Sum) and isinstance(node.summands[-1], Neg)


def shape(node):
    """Structure and leaf data of a tree; Series nodes compare by
    identity, so round trips compare shapes."""
    data = None
    if isinstance(node, Monomial):
        data = (node.coefficient, node.exponent)
    elif isinstance(node, Inverse):
        data = node.witness
    elif isinstance(node, Truncation):
        data = (node.cutoff, node.inclusive)
    return (type(node).__name__, data, tuple(shape(c) for c in children(node)))


def test_inverse_with_sum():
    s = parse_q("inv(1 - t^(1) - t^(2))")
    assert isinstance(s, Inverse)
    assert is_sub(s.child)
    assert s.witness is None


def test_trunc_node():
    s = parse_q("trunc(1 + 2*t^(1) + 3*t^(2), 2)")
    assert isinstance(s, Truncation)
    assert s.cutoff == INTEGERS.element(2)
    assert not s.inclusive


def test_syntax_error_column():
    with pytest.raises(ParseError) as info:
        parse_expression("t^(1/2", RATIONALS, QQ)
    assert info.value.column == 7
    with pytest.raises(ParseError) as info:
        parse_q("1 + * 2")
    assert info.value.column == 5


def test_tokens_carry_their_line_and_column():
    text = "1 +\t t^(2)\n  * inv(x)\r\n- 3\u3000+ 4\n"
    assert [tuple(t) for t in _tokenize(text)] == [
        ("NUM", "1", 1, 1), ("OP", "+", 1, 3), ("NAME", "t", 1, 6), ("OP", "^", 1, 7),
        ("OP", "(", 1, 8), ("NUM", "2", 1, 9), ("OP", ")", 1, 10), ("OP", "*", 2, 3),
        ("NAME", "inv", 2, 5), ("OP", "(", 2, 8), ("NAME", "x", 2, 9), ("OP", ")", 2, 10),
        ("OP", "-", 3, 1), ("NUM", "3", 3, 3), ("OP", "+", 3, 5), ("NUM", "4", 3, 7),
        ("EOF", "", 4, 1),
    ]
    with pytest.raises(ParseError) as info:
        parse_q("1 +\n  * 2")
    assert (info.value.line, info.value.column) == (2, 3)


@pytest.mark.parametrize("fld", [QQ, F3X], ids=str)
def test_a_tail_marker_is_rejected_where_it_stands(fld):
    with pytest.raises(ParseError, match=r"O\(\.\.\.\) marks") as info:
        parse_expression("1 + 1*t^(1) + O(t^(2))", INTEGERS, fld)
    assert info.value.column == 15


def test_witness_syntax():
    s = parse_q("inv(t^(3); g0=3)")
    assert s.witness == INTEGERS.element(3)


def test_exponent_forms():
    assert parse_exponent_text("-3", INTEGERS) == INTEGERS.element(-3)
    assert parse_exponent_text("5/2", RATIONALS) == RATIONALS.element(Fraction(5, 2))
    assert parse_exponent_text("-5/2", RATIONALS) == RATIONALS.element(Fraction(-5, 2))
    assert parse_exponent_text("(1,-2)", LEX2) == LEX2.element((1, -2))
    assert parse_exponent_text("0", TRIVIAL) == TRIVIAL.zero
    with pytest.raises(ParseError):
        parse_exponent_text("1", TRIVIAL)
    with pytest.raises(ParseError):
        parse_exponent_text("(1,2,3)", LEX2)
    with pytest.raises(ParseError):
        parse_exponent_text("1/2", INTEGERS)


def test_lex_monomial():
    s = parse_expression("t^((1,-2))", LEX2, QQ)
    assert isinstance(s, Monomial)
    assert s.exponent == LEX2.element((1, -2))
    assert s.coefficient == QQ.one
    assert render_expression(s) == "t^((1,-2))"


def test_fp_coefficient_division():
    s = parse_expression("2/3", INTEGERS, F5)
    assert isinstance(s, Monomial) and s.exponent.is_zero
    # 2 * 3^-1 = 2 * 2 = 4 mod 5
    assert s.coefficient == F5.element(4)


def test_ratfunc_coefficients():
    s = parse_expression("(x^2+1)/x", INTEGERS, F3X)
    assert isinstance(s, Monomial) and s.exponent.is_zero
    assert str(s.coefficient) == "(x^2+1)/x"
    s = parse_expression("x*t^(1) + 2*x^2*t^(2)", INTEGERS, F3X)
    tl = coefficients_up_to(s, Horizon(INTEGERS.element(3)))
    assert [str(c) for _, c in tl.terms] == ["x", "2*x^2"]


def test_paren_disambiguation():
    # series grouping when the content is not a coefficient
    s = parse_expression("(1 + t^(1))*(1 - t^(1))", INTEGERS, F3X)
    assert isinstance(s, Product)
    # coefficient when it is
    s = parse_expression("(x+1)*t^(1)", INTEGERS, F3X)
    assert isinstance(s, Product)
    assert isinstance(s.left, Monomial) and s.left.exponent.is_zero


def test_a_written_sum_is_one_flat_node():
    s = parse_q("1 - t^(1) + 2*t^(2) - t^(3)")
    assert isinstance(s, Sum)
    assert [type(x).__name__ for x in s.summands] == ["Monomial", "Neg", "Product", "Neg"]
    assert not hasattr(s, "left") and not hasattr(s, "right")
    # a parenthesised sum stays one summand, and renders with its parentheses
    s = parse_q("(1 + t^(1)) + t^(2)")
    assert len(s.summands) == 2 and isinstance(s.summands[0], Sum)
    assert render_expression(s) == "(1 + t^(1)) + t^(2)"


def test_unary_minus():
    s = parse_q("-t^(1) + 1")
    assert isinstance(s, Sum) and not is_sub(s)
    assert isinstance(s.summands[0], Neg)


def test_render_roundtrip_examples():
    for text in (
        "inv(1 - t^(1) - t^(2))",
        "trunc(1 + 2*t^(1) + 3*t^(2), 2)",
        "inv(t^(3); g0=3)",
        "1 - 1*t^(1) + 2/3*t^(3)",
        "-1/2 + 3*t^(2)*t^(4)",
        "(1 + t^(1))*(1 - t^(2))",
    ):
        s = parse_q(text)
        assert shape(parse_q(render_expression(s))) == shape(s)


def _random_series(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        if rng.random() < 0.5:
            c = QQ.element(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            return Monomial(c, INTEGERS.zero)
        return Monomial(QQ.one, INTEGERS.element(rng.randint(-9, 9)))
    kind = rng.choice(["add", "sub", "mul", "neg", "inv", "trunc"])
    if kind in ("add", "sub", "mul"):
        left, right = _random_series(rng, depth + 1), _random_series(rng, depth + 1)
        if kind == "mul":
            return Product(left, right)
        return Sum(left, right if kind == "add" else Neg(right))
    if kind == "neg":
        return Neg(_random_series(rng, depth + 1))
    if kind == "inv":
        witness = INTEGERS.element(rng.randint(-3, 3)) if rng.random() < 0.4 else None
        return Inverse(_random_series(rng, depth + 1), witness)
    child = _random_series(rng, depth + 1)
    return Truncation(child, INTEGERS.element(rng.randint(-5, 5)))


def test_render_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(300):
        s = _random_series(rng)
        text = render_expression(s)
        assert shape(parse_q(text)) == shape(s), text


def test_render_rejects_nodes_the_grammar_cannot_write():
    one = Monomial(QQ.one, INTEGERS.element(1))
    for node in (
        Literal(INTEGERS, QQ, [(INTEGERS.element(1), QQ.one)]),
        GeometricTail(one),
        Truncation(one, INTEGERS.element(2), inclusive=True),
    ):
        with pytest.raises(TypeError):
            render_expression(node)


def test_rendered_termlist_reparses_and_reevaluates():
    rng = random.Random(7)
    h = Horizon(INTEGERS.element(12))
    for _ in range(50):
        pairs = [
            (INTEGERS.element(rng.randint(0, 9)),
             QQ.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
            for _ in range(4)
        ]
        s = from_terms(INTEGERS, QQ, pairs)
        tl = coefficients_up_to(s, h)
        text = render_terms(tl)
        assert coefficients_up_to(parse_q(text), h) == tl


def test_default_bound():
    assert default_bound(parse_q("1 + 2*t^(3) + t^(7)*t^(2)")) == INTEGERS.element(7)
    assert default_bound(parse_q("2 - t^(-4)")) == INTEGERS.zero
    # -g0 of a witnessed inverse counts; a trunc cutoff does not
    s = parse_q("t^(1)*inv(t^(-3) + t^(2); g0=-3)")
    assert default_bound(s) == INTEGERS.element(3)
    assert default_bound(parse_q("trunc(t^(1), 9)")) == INTEGERS.element(1)
    # an inverse without a witness leaves the bound to the caller
    assert default_bound(parse_q("t^(5) + inv(1 - t^(1))")) is None
    assert default_bound(parse_q("inv(inv(1 - t^(1)); g0=0)")) is None


def test_default_bound_of_a_deep_sum():
    text = " + ".join(f"{k % 7 + 1}*t^({k})" for k in range(5000))
    s = parse_q(text)
    assert default_bound(s) == INTEGERS.element(4999)
    tl = coefficients_up_to(s, Horizon(default_bound(s)))
    assert tl.complete
    assert [(g.value, c.value) for g, c in tl.terms] == [(k, k % 7 + 1) for k in range(5000)]


def test_render_of_a_deep_sum_reparses():
    text = " + ".join(f"{k % 7 + 1}*t^({k})" for k in range(1, 2500))
    text += "".join(f" - {k % 5 + 1}*t^({k})" for k in range(2500, 5000))
    rendered = render_expression(parse_q(text))
    assert rendered == text
    assert render_expression(parse_q(rendered)) == text


def test_ratfunc_text_reparses_to_the_same_terms():
    x_plus_1 = F3X.element(((1, 1), (1,)))
    assert render_expression(Monomial(x_plus_1, INTEGERS.zero)) == "(x+1)"
    h = Horizon(INTEGERS.element(6))
    rng = random.Random(33)
    for _ in range(60):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            num = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
            den = rng.choice([(1,), (0, 1), (1, 1), (2, 0, 1)])
            if any(num):
                pairs.append((INTEGERS.element(rng.randint(0, 5)), F3X.element((num, den))))
        tl = coefficients_up_to(from_terms(INTEGERS, F3X, pairs), h)
        text = render_terms(tl)
        assert coefficients_up_to(parse_expression(text, INTEGERS, F3X), h) == tl, text
        s = parse_expression(text, INTEGERS, F3X)
        assert coefficients_up_to(
            parse_expression(render_expression(s), INTEGERS, F3X), h
        ) == tl, text


def test_render_writes_library_monomials():
    assert render_expression(Monomial(QQ.element(2), INTEGERS.element(3))) == "2*t^(3)"
    half = Monomial(QQ.element(Fraction(-1, 2)), INTEGERS.zero)
    s = Sum(Monomial(QQ.one, INTEGERS.element(1)), half)
    assert render_expression(s) == "t^(1) - 1/2"
    h = Horizon(INTEGERS.element(4))
    for node in (Monomial(QQ.element(2), INTEGERS.element(3)), s):
        assert coefficients_up_to(parse_q(render_expression(node)), h) == \
            coefficients_up_to(node, h)


def _random_monomial_tree(rng, fld, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        if fld.is_ordered:
            c = fld.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            c = fld.element(rng.randint(0, fld.p - 1))
        return Monomial(c, INTEGERS.element(rng.choice((0, rng.randint(-4, 6)))))
    kind = rng.choice(["add", "sub", "mul", "neg", "many"])
    if kind == "neg":
        return Neg(_random_monomial_tree(rng, fld, depth + 1))
    if kind == "many":
        return Sum(*(_random_monomial_tree(rng, fld, depth + 1) for _ in range(rng.randint(2, 4))))
    left, right = (_random_monomial_tree(rng, fld, depth + 1) for _ in range(2))
    if kind == "mul":
        return Product(left, right)
    return Sum(left, right if kind == "add" else Neg(right))


@pytest.mark.parametrize("fld", [QQ, prime_field(7)], ids=str)
def test_rendered_library_monomials_reparse_to_the_same_value(fld):
    rng = random.Random(4711)
    h = Horizon(INTEGERS.element(8))
    for _ in range(200):
        s = _random_monomial_tree(rng, fld)
        text = render_expression(s)
        assert coefficients_up_to(parse_expression(text, INTEGERS, fld), h) == \
            coefficients_up_to(s, h), text


def test_long_inputs_parse_with_backtracking():
    # each group is tried as an F_p(x) coefficient first, then reparsed as
    # a series, across 2000 tokens
    text = " + ".join(f"(1 + {k % 2 + 1}*t^({k + 1}))" for k in range(200))
    tl = coefficients_up_to(parse_expression(text, INTEGERS, F3X), Horizon(INTEGERS.element(200)))
    assert [(g.value, str(c)) for g, c in tl.terms] == [(0, "2")] + [
        (k + 1, str(k % 2 + 1)) for k in range(200)
    ]
    with pytest.raises(ParseError) as info:
        parse_q("t^(1) + " * 300 + "* 2")
    assert info.value.column == len("t^(1) + ") * 300 + 1
