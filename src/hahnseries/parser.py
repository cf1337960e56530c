"""Recursive-descent parser for series expressions and descriptor text.

The parser builds ``Series`` nodes directly, one node per grammar rule:
a coefficient is ``Monomial(c, 0)``, ``t^(g)`` is ``Monomial(1, g)``,
the terms of an ``expr`` make one ``Sum`` with a summand per term, a
subtracted term being ``Neg`` of it (``a - b + c`` is
``Sum(a, Neg(b), c)``), a leading ``-`` is ``Neg``, ``*`` is ``Product``,
and ``inv`` and ``trunc`` are ``Inverse`` and ``Truncation``.

Grammar (exponents always parenthesised to keep lookahead trivial):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := 't' '^' '(' exponent ')'
              | 'inv' '(' expr (';' 'g0' '=' exponent)? ')'
              | 'trunc' '(' expr ',' exponent ')'
              | '(' expr ')'
              | coefficient
    exponent := integer | rational | '(' int (',' int)* ')'   per group

Coefficient literals follow the field: ``2/3`` and ``4`` for Q and F_p,
polynomial fractions like ``(x^2+1)/x`` for F_p(x); for the latter a
parenthesis is tried as a coefficient first and reparsed as a grouped
subexpression when that fails.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .fields import FieldDescriptor, FieldElement, poly_add, poly_mul, poly_neg
from .groups import GroupDescriptor, GroupElement, group_zero
from .series import (
    Inverse, Monomial, Neg, Product, Series, Sum, Truncation, children, coefficient_text,
)


# ---------------------------------------------------------------------------
# lexer

# one alternative per token kind, in the order they are tried; a newline
# and a run of other whitespace are matched so the scan can skip them
_SCAN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\n)|[^\S\n]+|(\S)")
_KINDS = (None, "NUM", "NAME", None, "OP")


class Token(NamedTuple):
    kind: str  # NUM | NAME | OP | EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    """The tokens of the text in one scan, each with its 1-based line and
    column, ending in an EOF token after the last character."""
    tokens = []
    line = 1
    line_start = 0
    for m in _SCAN.finditer(text):
        group = m.lastindex
        if group == 3:
            line += 1
            line_start = m.end()
        elif group is not None:
            tokens.append(Token(_KINDS[group], m[group], line, m.start() - line_start + 1))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, group: GroupDescriptor, fld: FieldDescriptor):
        self.tokens = _tokenize(text)
        self.i = 0
        self.group = group
        self.field = fld

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            self.error(f"expected {text!r}, found {shown!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- expression grammar ----------------------------------------------

    def parse(self) -> Series:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"unexpected {tok.text!r} after expression")
        return node

    def expr(self) -> Series:
        if self.at("-"):
            self.advance()
            summands: list[Series] = [Neg(self.term())]
        else:
            summands = [self.term()]
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            summands.append(rhs if op == "+" else Neg(rhs))
        return Sum(*summands) if len(summands) > 1 else summands[0]

    def term(self) -> Series:
        node = self.factor()
        while self.at("*"):
            self.advance()
            node = Product(node, self.factor())
        return node

    def factor(self) -> Series:
        tok = self.peek()
        if tok.text == "t":
            self.advance()
            self.expect("^")
            self.expect("(")
            g = self.exponent()
            self.expect(")")
            return Monomial(self.field.one, g)
        if tok.text == "inv":
            self.advance()
            self.expect("(")
            child = self.expr()
            witness = None
            if self.at(";"):
                self.advance()
                self.expect("g0")
                self.expect("=")
                witness = self.exponent()
            self.expect(")")
            return Inverse(child, witness)
        if tok.text == "trunc":
            self.advance()
            self.expect("(")
            child = self.expr()
            self.expect(",")
            g = self.exponent()
            self.expect(")")
            return Truncation(child, g)
        if tok.text == "(":
            if self.field.kind == "Fp(x)":
                mark = self.i
                try:
                    return Monomial(self.ratfunc(), group_zero(self.group))
                except ParseError:
                    self.i = mark
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.text == "O" and self.tokens[self.i + 1].text == "(":
            self.error("O(...) marks terms a truncated result left unlisted;"
                       " it is not a series and cannot be read back")
        return Monomial(self.coefficient(), group_zero(self.group))

    # -- exponents ---------------------------------------------------------

    def signed_int(self) -> int:
        negative = False
        if self.at("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "NUM":
            self.error("expected an integer")
        self.advance()
        value = int(tok.text)
        return -value if negative else value

    def exponent(self) -> GroupElement:
        kind = self.group.kind
        if kind == "Z^n":
            self.expect("(")
            coords = [self.signed_int()]
            while self.at(","):
                self.advance()
                coords.append(self.signed_int())
            self.expect(")")
            if len(coords) != self.group.rank:
                self.error(f"expected {self.group.rank} coordinates")
            return self.group.element(tuple(coords))
        if kind == "trivial":
            tok = self.peek()
            if self.signed_int() != 0:
                self.error("the trivial group has only the exponent 0", tok)
            return group_zero(self.group)
        n = self.signed_int()
        if kind == "Q":
            if self.at("/"):
                self.advance()
                tok = self.peek()
                d = self.signed_int()
                if d == 0:
                    self.error("zero denominator", tok)
                return self.group.element(Fraction(n, d))
            return self.group.element(Fraction(n))
        return self.group.element(n)

    # -- coefficients -------------------------------------------------------

    def coefficient(self) -> FieldElement:
        kind = self.field.kind
        if kind == "Fp(x)":
            return self.ratfunc()
        tok = self.peek()
        if tok.kind != "NUM":
            shown = tok.text or "end of input"
            self.error(f"expected a coefficient, found {shown!r}")
        self.advance()
        n = int(tok.text)
        if self.at("/"):
            self.advance()
            dtok = self.peek()
            if dtok.kind != "NUM":
                self.error("expected a denominator")
            self.advance()
            d = int(dtok.text)
            if kind == "Q":
                if d == 0:
                    self.error("zero denominator", dtok)
                return self.field.element(Fraction(n, d))
            den = self.field.element(d)
            if den.is_zero:
                self.error("zero denominator in the coefficient field", dtok)
            return self.field.element(n) * den.inverse()
        return self.field.element(n)

    def ratfunc(self) -> FieldElement:
        num = self.ppoly()
        if self.at("/"):
            self.advance()
            den = self.ppoly()
            if not any(den):
                self.error("zero denominator in rational function")
            return self.field.element((num, den))
        return self.field.element((num, (1,)))

    def ppoly(self) -> tuple[int, ...]:
        if self.at("("):
            self.advance()
            coeffs = self.poly()
            self.expect(")")
            return coeffs
        return self.mono()

    def poly(self) -> tuple[int, ...]:
        p = self.field.p
        total = self.mono()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            nxt = self.mono()
            if op == "-":
                nxt = poly_neg(nxt, p)
            total = poly_add(total, nxt, p)
        return total

    def mono(self) -> tuple[int, ...]:
        p = self.field.p
        tok = self.peek()
        coeff = 1
        have_num = False
        if tok.kind == "NUM":
            self.advance()
            coeff = int(tok.text) % p
            have_num = True
            if self.at("*"):
                nxt = self.tokens[self.i + 1]
                if nxt.text != "x":
                    return ((coeff,) if coeff else ())
                self.advance()
        if self.at("x"):
            self.advance()
            deg = 1
            if self.at("^"):
                self.advance()
                dtok = self.peek()
                if dtok.kind != "NUM":
                    self.error("expected a power of x")
                self.advance()
                deg = int(dtok.text)
            if coeff == 0:
                return ()
            return poly_mul((coeff,), (0,) * deg + (1,), p)
        if have_num:
            return ((coeff,) if coeff else ())
        shown = tok.text or "end of input"
        self.error(f"expected a polynomial term, found {shown!r}")


def parse_expression(text: str, group: GroupDescriptor,
                     fld: FieldDescriptor) -> Series:
    return _Parser(text, group, fld).parse()


def parse_exponent_text(text: str, group: GroupDescriptor) -> GroupElement:
    p = _Parser(text, group, FieldDescriptor("Q"))
    g = p.exponent()
    if p.peek().kind != "EOF":
        p.error("trailing input after exponent")
    return g




# ---------------------------------------------------------------------------
# rendering and the default evaluation bound

def render_expression(node: Series) -> str:
    """Expression text for a node tree.  A tree the parser built reparses
    to the same tree; a monomial c*t^(g) the library built, or one with a
    negative coefficient, reparses to the same value.  Raises TypeError
    for nodes the grammar cannot write."""
    if isinstance(node, Monomial):
        sign, body = _monomial_text(node)
        return sign + body
    if isinstance(node, Sum):
        first, *rest = node.summands
        head = render_expression(first)
        return (f"({head})" if isinstance(first, Sum) else head) + "".join(
            f" {sign} {body}" for sign, body in map(_summand_text, rest)
        )
    if isinstance(node, Product):
        right = _wrap_additive(node.right)
        if isinstance(node.right, Product):
            right = f"({right})"
        return f"{_wrap_additive(node.left)}*{right}"
    if isinstance(node, Neg):
        return f"-{_wrap_additive(node.child)}"
    if isinstance(node, Inverse):
        if node.witness is not None:
            return f"inv({render_expression(node.child)}; g0={node.witness})"
        return f"inv({render_expression(node.child)})"
    if isinstance(node, Truncation) and not node.inclusive:
        return f"trunc({render_expression(node.child)}, {node.cutoff})"
    raise TypeError(f"the grammar cannot write this {type(node).__name__} node")


def _monomial_text(node: Monomial) -> tuple[str, str]:
    """The sign ("" or "-") and the unsigned text of a monomial."""
    c, g = node.coefficient, node.exponent
    sign = ""
    if node.field.is_ordered and c.value < 0:
        sign, c = "-", -c
    if g.is_zero:
        return sign, coefficient_text(c)
    if c == node.field.one:
        return sign, f"t^({g})"
    return sign, f"{coefficient_text(c)}*t^({g})"


def _summand_text(node: Series) -> tuple[str, str]:
    """The operator and text of a summand after the first."""
    if isinstance(node, Neg):
        return "-", _wrap_additive(node.child)
    if isinstance(node, Monomial):
        sign, body = _monomial_text(node)
        return sign or "+", body
    return "+", _wrap_additive(node)


def _wrap_additive(node: Series) -> str:
    """The text of an operand, parenthesised when it is a sum or starts
    with a sign."""
    text = render_expression(node)
    if isinstance(node, Sum) or text.startswith("-"):
        return f"({text})"
    return text


def default_bound(series: Series) -> GroupElement | None:
    """The evaluation bound of an expression given without one: the
    largest exponent written in it, counting -g0 of each witnessed
    inverse, or None when some inverse has no witness.  The walk visits
    each node once per parent, which suits parsed trees: they share no
    nodes."""
    best = group_zero(series.group)
    stack = [series]
    while stack:
        node = stack.pop()
        if isinstance(node, Monomial) and best < node.exponent:
            best = node.exponent
        elif isinstance(node, Inverse):
            if node.witness is None:
                return None
            if best < -node.witness:
                best = -node.witness
        stack.extend(children(node))
    return best
