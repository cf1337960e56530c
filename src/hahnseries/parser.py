"""Recursive-descent parser for series expressions and family descriptors.

The parser builds ``Series`` nodes directly, one node per grammar rule:
the terms of an ``expr`` make one ``Sum`` with a summand per term, ``*``
is ``Product``, ``inv`` and ``trunc`` are ``Inverse`` and
``Truncation``, and a subtracted or negated term is ``Neg`` of it.  A
written term is one ``Monomial``: a coefficient, ``t^(g)``, and a run of
such factors of which all but one have exponent 0 (``c*t^(g)``,
``t^(g)*c``, ``2*3``), negated in its coefficient, so ``a - c*t^(g)`` is
``Sum(a, Monomial(-c, g))``.  Two factors with nonzero exponents stay a
``Product``.

A token is kept as its text alone; its line and column are found again
from the input only when a ``ParseError`` reports them.  Exponents and
coefficients are built in canonical form and boxed without
renormalising.

Grammar (exponents always parenthesised to keep lookahead trivial):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['/' atom]              both atoms coefficients
    atom     := 't' '^' '(' exponent ')'
              | 'inv' '(' expr (';' 'g0' '=' exponent)? ')'
              | 'trunc' '(' expr ',' exponent ')'
              | '(' expr ')'
              | 'x' ['^' natural]            over F_p(x) only
              | natural
    exponent := integer | rational | '(' int (',' int)* ')'   per group

    family   := ('W'|'FIN') '(' region ')'
              | 'explicit' '{' [points (',' points)*] '}'
    region   := ('mon'|'grp'|'set') points | NAME ['>' ['='] '0']
    points   := '{' [exponent (',' exponent)*] '}'

A region's NAME is the whole group, written ``G`` or as the group itself
prints (``Z``, ``Q``, ``Z^n``, ``trivial``); ``>=0`` and ``>0`` make it
the nonnegative or the positive cone.  Every comma-separated list in
braces, and the coordinates of a ``Z^n`` exponent, are read by one rule.
Whitespace separates the tokens of a descriptor as it does in an
expression, and an error's line and column point into the descriptor.

A coefficient is a factor of exponent 0, read with the same rules in
every field: a natural number taken in the field, ``x`` or ``x^n`` over
F_p(x), a quotient of two coefficient atoms, and a parenthesised
expression whose summands are all coefficients, which folds into one
coefficient with the field's ``+``.  ``/`` binds tighter than ``*``, so
``2/3*t^(1)`` and ``x^2/x*t^(1)`` are written terms, and ``t^(1)/2`` is
an error at the ``/``.  An error inside a coefficient, such as a zero
divisor, reports its own position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .fields import QQ, FieldDescriptor, FieldElement, box_coefficient, raw_ops
from .groups import GroupDescriptor, GroupElement, box_exponent, group_zero
from .groups import raw_ops as group_ops
from .series import (
    Inverse, Monomial, Neg, Product, Series, Sum, Truncation, children, coefficient_text,
)
from .supports import (
    Family, Region, explicit_family, finite_region, finite_subsets_family, nonneg_cone,
    pos_cone, submonoid, subgroup, well_ordered_family, whole_group,
)


# ---------------------------------------------------------------------------
# lexer

# a token is a run of decimal digits (a number), a name, or any other
# single non-space character; whitespace only separates tokens
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens in one scan, ending in "" for the end of
    input.  A token is a number exactly when ``str.isdecimal`` holds."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _token_starts(text: str) -> list[int]:
    """The offset where each token of the text starts, and the length of
    the text for the end-of-input token."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    starts.append(len(text))
    return starts


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset in the text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, text: str, group: GroupDescriptor, fld: FieldDescriptor):
        self.text = text
        self.tokens = _tokenize(text)
        self.starts = None  # token offsets, found once the first error needs them
        self.i = 0
        self.group = group
        self.field = fld
        # shared by every monomial the parse builds; elements are immutable
        self.one = fld.one
        self.zero = group_zero(group)
        # build the field's cached arithmetic now, not in the first Monomial
        # of a deeply nested parse, at its deepest frame
        raw_ops(fld)

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.i]

    def advance(self) -> str:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, index: int | None = None):
        """Raise a ParseError at the index-th token, by default the next."""
        if self.starts is None:
            self.starts = _token_starts(self.text)
        line, column = _line_column(self.text, self.starts[self.i if index is None else index])
        raise ParseError(message, line, column)

    def expect(self, text: str) -> str:
        tok = self.tokens[self.i]
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.i] == text

    def listed(self, opening: str, closing: str, item) -> list:
        """The items read by ``item`` between the brackets, comma
        separated; there may be none."""
        self.expect(opening)
        items = []
        if not self.at(closing):
            items.append(item())
            while self.tokens[self.i] == ",":
                self.i += 1
                items.append(item())
        self.expect(closing)
        return items

    def ended(self, node, what: str):
        """The node read from the whole input; a token after it is an
        error."""
        tok = self.peek()
        if tok:
            self.error(f"unexpected {tok!r} after {what}")
        return node

    # -- expression grammar ----------------------------------------------

    def expr(self) -> Series:
        negate = self.at("-")
        if negate:
            self.advance()
        summands = [self.term(negate)]
        while self.peek() in ("+", "-"):
            summands.append(self.term(self.advance() == "-"))
        return Sum(*summands) if len(summands) > 1 else summands[0]

    def term(self, negate: bool = False) -> Series:
        """A term, negated when asked.  Its leading written factors fold
        while one of each two has exponent 0, and their Monomial is built
        once, when the term ends."""
        node = self.factor()
        zero = self.zero.value
        while self.at("*"):
            self.advance()
            right = self.factor()
            if type(node) is tuple and type(right) is tuple and (
                    node[1].value == zero or right[1].value == zero):
                (a, g), (b, h) = node, right
                # the one of t^(g) is shared by the parse, so never multiplied
                c = b if a is self.one else a if b is self.one else a * b
                node = c, h if g.value == zero else g
            else:
                node = Product(_node(node), _node(right))
        if type(node) is tuple:
            c, g = node
            return Monomial(-c if negate else c, g)
        return Neg(node) if negate else node

    def factor(self, divisor: bool = False) -> Series | tuple[FieldElement, GroupElement]:
        """A factor: an atom, or the quotient of two coefficient atoms; a
        divisor is read with ``divisor`` set and takes no ``/`` of its
        own.  A written factor (a number, ``x^n``, ``t^(g)``, a quotient,
        or a parenthesised Monomial or sum of coefficients) comes back as
        its (coefficient, exponent) pair.  The atom is read here, not by a
        rule of its own, so each level of parentheses costs the three
        frames expr, term and factor."""
        tok = self.tokens[self.i]
        zero = self.zero.value
        if tok == "t":
            self.advance()
            self.expect("^")
            self.expect("(")
            g = self.exponent()
            self.expect(")")
            node = self.one, g
        elif tok == "inv":
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
        elif tok == "trunc":
            self.advance()
            self.expect("(")
            child = self.expr()
            self.expect(",")
            g = self.exponent()
            self.expect(")")
            return Truncation(child, g)
        elif tok == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            summands = node.summands if type(node) is Sum else ()
            if type(node) is Monomial:
                node = node.coefficient, node.exponent
            elif summands and all(type(x) is Monomial and x.exponent.value == zero
                                  for x in summands):
                # a sum of coefficients is one coefficient
                first, *rest = summands
                node = sum((x.coefficient for x in rest), first.coefficient), self.zero
            else:
                return node
        elif tok.isdecimal():
            self.advance()
            node = self.field.element(int(tok)), self.zero
        elif tok == "x" and self.field.kind == "Fp(x)":
            self.advance()
            n = 1
            if self.at("^"):
                self.advance()
                if not self.peek().isdecimal():
                    self.error("expected a power of x")
                n = int(self.advance())
            node = box_coefficient(self.field, ((0,) * n + (1,), (1,))), self.zero
        else:
            if tok == "O" and self.tokens[self.i + 1] == "(":
                self.error("O(...) marks terms a truncated result left unlisted;"
                           " it is not a series and cannot be read back")
            self.error(f"expected a coefficient, found {tok or 'end of input'!r}")
        if divisor or node[1].value != zero or not self.at("/"):
            return node
        self.advance()
        mark = self.i
        d = self.factor(True)
        if type(d) is not tuple or d[1].value != zero:
            self.error("expected a coefficient after '/'", mark)
        if d[0].is_zero:
            self.error(_ZERO_DENOMINATOR[self.field.kind], mark)
        return node[0] * d[0].inverse(), self.zero

    # -- exponents ---------------------------------------------------------

    def signed_int(self) -> int:
        tok = self.tokens[self.i]
        negative = tok == "-"
        if negative:
            self.i += 1
            tok = self.tokens[self.i]
        if not tok.isdecimal():
            self.error("expected an integer")
        self.i += 1
        return -int(tok) if negative else int(tok)

    def exponent(self) -> GroupElement:
        kind = self.group.kind
        if kind == "Z^n":
            mark = self.i
            coords = self.listed("(", ")", self.signed_int)
            if len(coords) != self.group.rank:
                self.error(f"expected {self.group.rank} coordinates", mark)
            return box_exponent(self.group, tuple(coords))
        if kind == "trivial":
            mark = self.i
            if self.signed_int() != 0:
                self.error("the trivial group has only the exponent 0", mark)
            return self.zero
        n = self.signed_int()
        if kind == "Q":
            if self.at("/"):
                self.advance()
                mark = self.i
                d = self.signed_int()
                if d == 0:
                    self.error("zero denominator", mark)
                return box_exponent(self.group, Fraction(n, d))
            return box_exponent(self.group, Fraction(n))
        return box_exponent(self.group, n)

    # -- family descriptors -------------------------------------------------

    def family(self) -> Family:
        tok = self.peek()
        if tok in ("W", "FIN"):
            self.advance()
            self.expect("(")
            region = self.region()
            self.expect(")")
            return (well_ordered_family if tok == "W" else finite_subsets_family)(region)
        if tok == "explicit":
            self.advance()
            return explicit_family(self.group, self.listed("{", "}", self.points))
        self.error(f"unknown family {tok or 'end of input'!r}"
                   " (expected W(...), FIN(...) or explicit{...})")

    def region(self) -> Region:
        tok = self.peek()
        if tok in _GENERATED_REGIONS:
            self.advance()
            return _GENERATED_REGIONS[tok](self.group, self.points())
        name = tok
        if tok == "Z" and self.tokens[self.i + 1] == "^":  # Z^n is three tokens
            name = "".join(self.tokens[self.i:self.i + 3])
        if name not in ("G", str(self.group)):
            self.error(f"unknown region {name or 'end of input'!r}")
        self.i += 3 if name != tok else 1
        if not self.at(">"):
            return whole_group(self.group)
        self.advance()
        nonneg = self.at("=")
        if nonneg:
            self.advance()
        self.expect("0")
        return (nonneg_cone if nonneg else pos_cone)(self.group)

    def points(self) -> list[GroupElement]:
        return self.listed("{", "}", self.exponent)

_GENERATED_REGIONS = {"mon": submonoid, "grp": subgroup, "set": finite_region}

_ZERO_DENOMINATOR = {
    "Q": "zero denominator",
    "Fp": "zero denominator in the coefficient field",
    "Fp(x)": "zero denominator in rational function",
}


def _node(factor) -> Series:
    return Monomial(*factor) if type(factor) is tuple else factor


def parse_expression(text: str, group: GroupDescriptor,
                     fld: FieldDescriptor) -> Series:
    p = _Parser(text, group, fld)
    return p.ended(p.expr(), "expression")


def parse_exponent_text(text: str, group: GroupDescriptor) -> GroupElement:
    p = _Parser(text, group, QQ)
    return p.ended(p.exponent(), "exponent")


def parse_family_text(text: str, group: GroupDescriptor) -> Family:
    p = _Parser(text, group, QQ)
    return p.ended(p.family(), "family")


# ---------------------------------------------------------------------------
# rendering and the default evaluation bound

def render_expression(node: Series) -> str:
    """Expression text for a node tree.  A tree the parser built reparses
    to the same tree; any other tree reparses to the same value.  Raises
    TypeError for nodes the grammar cannot write."""
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
        # the right operand must read back as one factor, so a sum, a
        # product, a signed text and a monomial written with a '*' (c*t^(g),
        # or an F_p(x) coefficient like 2*x) are parenthesised
        right = render_expression(node.right)
        if (isinstance(node.right, (Sum, Product)) or right.startswith("-")
                or isinstance(node.right, Monomial) and "*" in right):
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
    inverse, or None when some inverse has no witness.  The walk compares
    raw values and visits each node once per parent, which suits parsed
    trees: they share no nodes."""
    group = series.group
    neg = group_ops(group)[1]
    best = group_zero(group).value
    stack = [series]
    while stack:
        node = stack.pop()
        if isinstance(node, Monomial):
            if best < node.exponent.value:
                best = node.exponent.value
            continue
        if isinstance(node, Inverse):
            if node.witness is None:
                return None
            if best < neg(node.witness.value):
                best = neg(node.witness.value)
        stack.extend(children(node))
    return box_exponent(group, best)
