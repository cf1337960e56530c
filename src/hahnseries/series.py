"""Lazy generalised power series with exact, horizon-bounded evaluation.

A ``Series`` is an immutable expression DAG over a fixed exponent group
and coefficient field.  Nothing is computed at construction time; an
``EvaluationContext`` expands a node into a ``TermList``, the exact
coefficients of every support point up to an exponent bound.

Two bounds make every evaluation finite.  The exponent bound cuts the
well-ordered support at a group element; the term bound caps how many
support points a single node may enumerate, which matters because a
well-ordered set can have infinitely many points below a bound (order
type omega already occurs below (1,0) in lexicographic Z^2).  A result
that hits the term bound is still sound: it carries a frontier exponent
and lists exactly the support points strictly below it.

Inversion follows the leading-term factorisation b = c*t^g0*(1 - eps)
with supp(eps) > 0.  The support of (1 - eps)^-1 lies in the finite-sums
closure of supp(eps) (Neumann), so the tail is solved by online division
over that closure: one walk of the closure in increasing order computes
c_0 = 1 and c_g = sum of eps_h * c_(g-h) over h in supp(eps).  The walk
stays below the frontier of eps and stops at the (term_bound+1)-th
nonzero coefficient, which then becomes the frontier.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DescriptorMismatch,
    InvalidWitness,
    PreconditionViolation,
    TermBudgetExceeded,
    ZeroUpToHorizon,
)
from .fields import RATFUNC_KIND, FieldDescriptor, FieldElement, box_coefficient
from .fields import raw_ops as field_ops
from .groups import INTEGERS_KIND, GroupDescriptor, GroupElement, box_exponent, group_zero
from .groups import raw_ops as group_ops

DEFAULT_TERM_BOUND = 10000


@dataclass(frozen=True)
class Horizon:
    """Evaluation window: exponents up to exp_bound, at most term_bound
    support points per node."""

    exp_bound: GroupElement
    term_bound: int = DEFAULT_TERM_BOUND

    def __post_init__(self):
        if self.term_bound < 1:
            raise ValueError("term_bound must be positive")


COMPLETE = "CompleteUpToBound"
TRUNCATED = "TruncatedByTermBound"


@dataclass(frozen=True)
class TermList:
    """Enumerated prefix of a series.

    ``terms`` is strictly increasing in the exponent with nonzero
    coefficients.  If ``complete``, the list holds every support point up
    to the bound it was evaluated at.  Otherwise ``frontier`` is the
    guarantee boundary: every support point strictly below it is listed
    with its exact coefficient, and nothing is claimed beyond.
    ``frontier`` is None exactly when ``complete``.
    """

    terms: tuple[tuple[GroupElement, FieldElement], ...]
    complete: bool = True
    frontier: GroupElement | None = None

    @property
    def status(self) -> str:
        return COMPLETE if self.complete else TRUNCATED

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.terms)

    def coefficient_at(self, g: GroupElement) -> FieldElement | None:
        for h, c in self.terms:
            if h == g:
                return c
            if g < h:
                break
        return None


def coefficient_text(c: FieldElement) -> str:
    """The text of a coefficient that reads back as one coefficient: an
    F_p(x) numerator of several terms without a denominator, the one
    form ``str`` leaves bare, is parenthesised."""
    text = str(c)
    return f"({text})" if "+" in text and "/" not in text else text


def render_terms(tl: TermList) -> str:
    """Canonical text form, e.g. ``1 - 1*t^(1) + 2/3*t^(5/2)``.  A
    truncated list ends in ``O(t^(g))`` at its frontier g, as in
    ``1 + 1*t^(1) + O(t^(2))``: the terms from g on are not listed."""
    if not tl.complete:
        listed = render_terms(TermList(tl.terms))
        tail = f"O(t^({tl.frontier}))"
        return f"{listed} + {tail}" if tl.terms else tail
    if not tl.terms:
        return "0"
    ordered = tl.terms[0][1].descriptor.is_ordered
    pieces = []
    for g, c in tl.terms:
        sign = "+"
        if ordered and c.value < 0:
            sign = "-"
            c = -c
        body = coefficient_text(c) if g.is_zero else f"{coefficient_text(c)}*t^({g})"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def terms_to_json_dict(tl: TermList) -> dict:
    return {
        "terms": [{"exp": str(g), "coef": str(c)} for g, c in tl.terms],
        "complete": tl.complete,
    }


def terms_to_json(tl: TermList) -> str:
    """``json.dumps(terms_to_json_dict(tl))``, written without a dict per
    term.  Exponent and coefficient texts hold only ASCII digits, letters
    and ``/-()^*+,``, which JSON strings take unescaped."""
    body = ", ".join([f'{{"exp": "{g}", "coef": "{c}"}}' for g, c in tl.terms])
    return f'{{"terms": [{body}], "complete": {"true" if tl.complete else "false"}}}'


class Series:
    """Immutable node of a series expression DAG."""

    __slots__ = ("group", "field")

    def __init__(self, group: GroupDescriptor, fld: FieldDescriptor):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "field", fld)

    def __setattr__(self, *_):
        raise AttributeError("Series nodes are immutable")

    def _match(self, other: Series) -> Series:
        if not isinstance(other, Series):
            raise TypeError(f"expected Series, got {type(other).__name__}")
        if other.group != self.group or other.field != self.field:
            raise DescriptorMismatch(
                f"series descriptors differ: ({self.group}, {self.field})"
                f" vs ({other.group}, {other.field})"
            )
        return other

    def __add__(self, other):
        return Sum(self, self._match(other))

    def __sub__(self, other):
        return Sum(self, Neg(self._match(other)))

    def __neg__(self):
        return Neg(self)

    def __mul__(self, other):
        return Product(self, self._match(other))


class Monomial(Series):
    """c * t^g, the coefficient-scaled characteristic function of g."""

    __slots__ = ("coefficient", "exponent")

    def __init__(self, coefficient: FieldElement, exponent: GroupElement):
        super().__init__(exponent.descriptor, coefficient.descriptor)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "exponent", exponent)


class Literal(Series):
    """An explicit finite series, exact everywhere.  ``raw_terms`` holds
    the raw values of ``terms``, which the evaluator reads."""

    __slots__ = ("terms", "raw_terms")

    def __init__(self, group, fld, terms):
        super().__init__(group, fld)
        combined: dict[GroupElement, FieldElement] = {}
        for g, c in terms:
            if g.descriptor != group or c.descriptor != fld:
                raise DescriptorMismatch("literal term descriptors do not match")
            combined[g] = combined[g] + c if g in combined else c
        cleaned = tuple(
            (g, combined[g]) for g in sorted(combined) if not combined[g].is_zero
        )
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "raw_terms", tuple((g.value, c.value) for g, c in cleaned))


class Sum(Series):
    """A finite sum of two or more summands, in written order."""

    __slots__ = ("summands",)

    def __init__(self, first: Series, second: Series, *rest: Series):
        super().__init__(first.group, first.field)
        summands = (first, second, *rest)
        for s in summands[1:]:
            first._match(s)
        object.__setattr__(self, "summands", summands)


class Neg(Series):
    __slots__ = ("child",)

    def __init__(self, child: Series):
        super().__init__(child.group, child.field)
        object.__setattr__(self, "child", child)


class Product(Series):
    __slots__ = ("left", "right")

    def __init__(self, left: Series, right: Series):
        super().__init__(left.group, left.field)
        left._match(right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Inverse(Series):
    """Multiplicative inverse; resolved per context via the leading-term
    factorisation.  ``witness`` optionally names the leading exponent so
    no zero search is needed."""

    __slots__ = ("child", "witness")

    def __init__(self, child: Series, witness: GroupElement | None = None):
        super().__init__(child.group, child.field)
        if witness is not None and witness.descriptor != child.group:
            raise DescriptorMismatch("witness exponent uses a different group")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "witness", witness)


class GeometricTail(Series):
    """sum of base^n over n >= 0; requires vmin(base) > 0 at evaluation."""

    __slots__ = ("base",)

    def __init__(self, base: Series):
        super().__init__(base.group, base.field)
        object.__setattr__(self, "base", base)


class Truncation(Series):
    """Keep exponents strictly below the cutoff (or <= with inclusive)."""

    __slots__ = ("child", "cutoff", "inclusive")

    def __init__(self, child: Series, cutoff: GroupElement, inclusive: bool = False):
        super().__init__(child.group, child.field)
        if cutoff.descriptor != child.group:
            raise DescriptorMismatch("cutoff uses a different group")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "inclusive", inclusive)


def children(node: Series) -> tuple[Series, ...]:
    """The direct subexpressions of a node, left to right."""
    if isinstance(node, Sum):
        return node.summands
    if isinstance(node, Product):
        return (node.left, node.right)
    if isinstance(node, (Neg, Inverse, Truncation)):
        return (node.child,)
    if isinstance(node, GeometricTail):
        return (node.base,)
    if isinstance(node, (Monomial, Literal)):
        return ()
    raise TypeError(f"unknown series node {type(node).__name__}")


@dataclass(frozen=True)
class InversionFactorization:
    """b = lead * t^g0 * (1 - epsilon) with supp(epsilon) > 0."""

    g0: GroupElement
    lead: FieldElement
    epsilon: Series


# ---------------------------------------------------------------------------
# evaluation core.  Inside a context exponents are raw group values and
# coefficients raw field values (``groups.raw_ops``, ``fields.raw_ops``):
# a node evaluates to the pair (terms, frontier) of a TermList, with raw
# (g, c) terms and a raw frontier that is None exactly when complete.
# Values are boxed only where they leave the context.
#
# A product multiplies its operands' terms pairwise, except that two
# dense operands with Z exponents over Q or F_p take the Kronecker path
# below (``_dense`` decides from the operands alone).  Q and Z^n
# exponents could take it through a common denominator or a packed box,
# and F_p(x) numerators could be packed the same way; they keep the loop
# for now.  No benchmark workload multiplies dense operands with Q or Z^n
# exponents, and faster F_p(x) products would raise the benchmark's peak
# memory through the jobs its harness keeps per round (see ROADMAP.md).

def _fmin(a, b):
    """The lesser of two frontiers, where None means no limit."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


_exponent = operator.itemgetter(0)


def _prefix(terms, bound):
    """The terms with exponent <= bound."""
    return terms[:bisect_right(terms, bound, key=_exponent)]


def _collect(acc, frontier, ops):
    """The nonzero entries of an exponent -> coefficient dict below the
    frontier, as a (terms, frontier) result."""
    is_zero = ops.is_zero
    terms = tuple(
        (g, acc[g])
        for g in sorted(acc)
        if not is_zero(acc[g]) and (frontier is None or g < frontier)
    )
    return terms, frontier


# A product of two dense Z-exponent operands over Q or F_p is one integer
# multiplication (Kronecker substitution): each operand becomes an
# integer with one fixed-width slot per exponent of its span, and the
# slots of the product of the two integers hold the product's
# coefficients.  The pairwise loop costs one multiply per pair of terms,
# the packed product a few byte operations per slot of the two spans; a
# sweep of both over term counts and gap ratios (CHANGES.md) puts the
# break-even near two pairs per slot over F_7, with Q far below it, and
# near 8 terms a side.  The path asks for twice that margin.
_DENSE_MIN_TERMS = 16
_DENSE_PAIRS_PER_SLOT = 4


def _dense(a, b) -> bool:
    """Whether the Kronecker product of two raw term lists of Z-exponent
    series beats the pairwise loop: each has at least _DENSE_MIN_TERMS
    terms, and their pairs number at least _DENSE_PAIRS_PER_SLOT per
    slot of the two spans."""
    if len(a) < _DENSE_MIN_TERMS or len(b) < _DENSE_MIN_TERMS:
        return False
    slots = a[-1][0] - a[0][0] + b[-1][0] - b[0][0] + 2
    return len(a) * len(b) >= _DENSE_PAIRS_PER_SLOT * slots


def _slot_bias(slots: int, width: int) -> int:
    """The integer whose ``slots`` slots of ``width`` bytes each hold
    half the slot range."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(terms, values, width: int) -> int:
    """The sum of v * 2^(8*width*(g - g0)) over the exponents g of the
    terms and their values v, g0 the first exponent.  Each value is biased
    by half the slot range, so every slot is written as unsigned bytes;
    the bias is then taken off all slots at once."""
    g0 = terms[0][0]
    half = 1 << (8 * width - 1)
    slots = [half] * (terms[-1][0] - g0 + 1)
    for (g, _), v in zip(terms, values):
        slots[g - g0] = v + half
    packed = int.from_bytes(b"".join([s.to_bytes(width, "little") for s in slots]), "little")
    return packed - _slot_bias(len(slots), width)


def _kronecker_product(a, b, top, p):
    """The nonzero terms of a*b with exponent <= top, from the nonempty raw
    terms of two Z-exponent series over F_p, or over Q when p is None."""
    a = _prefix(a, top - b[0][0])
    if not a:
        return ()
    b = _prefix(b, top - a[0][0])
    if p is None:
        # integer slots: each operand's coefficients times the LCM of
        # their denominators, which the product's coefficients divide out
        da = lcm(*[c.denominator for _, c in a])
        db = lcm(*[c.denominator for _, c in b])
        va = [c.numerator * (da // c.denominator) for _, c in a]
        vb = [c.numerator * (db // c.denominator) for _, c in b]
    else:
        va = [c for _, c in a]
        vb = [c for _, c in b]
    # a slot of the product sums at most min(len) products, plus a sign bit
    limit = min(len(va), len(vb)) * max(map(abs, va)) * max(map(abs, vb))
    width = limit.bit_length() // 8 + 1
    g0 = a[0][0] + b[0][0]
    n = a[-1][0] + b[-1][0] - g0 + 1
    # biased again, every slot of the product reads as unsigned bytes
    product = _pack(a, va, width) * _pack(b, vb, width) + _slot_bias(n, width)
    raw = product.to_bytes(n * width, "little")
    half = 1 << (8 * width - 1)
    stop = min(n, top - g0 + 1) * width
    terms = []
    if p is None:
        d = da * db
        for j in range(0, stop, width):
            c = int.from_bytes(raw[j:j + width], "little") - half
            if c:
                terms.append((g0 + j // width, Fraction(c, d)))
    else:
        for j in range(0, stop, width):
            c = (int.from_bytes(raw[j:j + width], "little") - half) % p
            if c:
                terms.append((g0 + j // width, c))
    return tuple(terms)


# A leaf holds its own terms, so evaluating one again costs no more than
# a memo hit: leaves are not memoised.
_LEAVES = (Monomial, Literal)


def _box_terms(node: Series, terms) -> tuple:
    group, fld = node.group, node.field
    return tuple((box_exponent(group, g), box_coefficient(fld, c)) for g, c in terms)


class EvaluationContext:
    """Holds the horizon and the per-node memo of evaluated prefixes.

    One context is single threaded.  TermLists are immutable and freely
    shareable.
    The complete result of each node but a leaf is memoised once, at the
    largest bound asked, with its boxed terms beside the raw ones once a
    caller has asked for them; a query below that bound is a bisect and a
    slice.
    """

    def __init__(self, horizon: Horizon):
        self.horizon = horizon
        # Series nodes hash by identity, so each memo is keyed by the node.
        # node -> (raw bound, raw terms, boxed terms or None)
        self._complete_cache: dict[Series, tuple] = {}
        # (node, raw bound) -> (raw terms, raw frontier) when truncated
        self._exact_cache: dict[tuple, tuple] = {}
        self._inversions: dict[Series, tuple[InversionFactorization, Series]] = {}
        # node -> raw lower bound for min supp, None for the zero series
        self._vmin_bounds: dict[Series, object] = {}

    # -- public ---------------------------------------------------------

    def coefficients(self, s: Series, exp_bound: GroupElement | None = None) -> TermList:
        bound = self.horizon.exp_bound if exp_bound is None else exp_bound
        if bound.descriptor != s.group:
            raise DescriptorMismatch("exponent bound uses a different group")
        terms, frontier = self._eval(s, bound.value)
        if frontier is not None:
            return TermList(_box_terms(s, terms), False, box_exponent(s.group, frontier))
        # a complete result is a prefix of the memoised one
        hit = self._complete_cache.get(s)
        if hit is None:  # a leaf
            return TermList(_box_terms(s, terms))
        top, raw, boxed = hit
        if boxed is None:
            boxed = _box_terms(s, raw)
            self._complete_cache[s] = (top, raw, boxed)
        return TermList(boxed[:len(terms)], True, None)

    def resolve_inversion(self, s: Series) -> InversionFactorization:
        if isinstance(s, Inverse):
            return self._resolve(s)[0]
        raise TypeError("resolve_inversion expects an Inverse node")

    # -- evaluation core --------------------------------------------------

    def _eval(self, node: Series, bound):
        if isinstance(node, _LEAVES):
            return self._cap(self._expand(node, bound))
        hit = self._complete_cache.get(node)
        if hit is not None and not bound > hit[0]:
            return _prefix(hit[1], bound), None
        exact = self._exact_cache.get((node, bound))
        if exact is not None:
            return exact
        result = self._cap(self._expand(node, bound))
        if result[1] is None:
            if hit is None or hit[0] < bound:
                self._complete_cache[node] = (bound, result[0], None)
        else:
            self._exact_cache[(node, bound)] = result
        return result

    def _cap(self, result):
        # every listed term lies below the frontier, so the first cap
        # terms lie below the new one
        terms, frontier = result
        cap = self.horizon.term_bound
        if len(terms) <= cap:
            return result
        return terms[:cap], _fmin(frontier, terms[cap][0])

    def _expand(self, node: Series, bound):
        if isinstance(node, Monomial):
            g, c = node.exponent.value, node.coefficient.value
            if g > bound or field_ops(node.field).is_zero(c):
                return (), None
            return ((g, c),), None
        if isinstance(node, Literal):
            return _prefix(node.raw_terms, bound), None
        if isinstance(node, Neg):
            terms, frontier = self._eval(node.child, bound)
            neg = field_ops(node.field).neg
            return tuple((g, neg(c)) for g, c in terms), frontier
        if isinstance(node, Sum):
            return self._expand_sum(node, bound)
        if isinstance(node, Product):
            return self._expand_product(node, bound)
        if isinstance(node, Truncation):
            return self._expand_truncation(node, bound)
        if isinstance(node, Inverse):
            _, expansion = self._resolve(node)
            return self._eval(expansion, bound)
        if isinstance(node, GeometricTail):
            return self._expand_tail(node, bound)
        raise TypeError(f"unknown series node {type(node).__name__}")

    def _expand_sum(self, node: Sum, bound):
        ops = field_ops(node.field)
        add = ops.add
        frontier = None
        merged = {}
        for summand in node.summands:
            terms, f = self._eval(summand, bound)
            frontier = _fmin(frontier, f)
            for g, c in terms:
                merged[g] = add(merged[g], c) if g in merged else c
        return _collect(merged, frontier, ops)

    def _vmin_bound(self, node: Series):
        """A guaranteed lower bound for min supp, or None when the node is
        provably the zero series.  Memoised per node but a leaf, so a DAG
        with sharing computes each bound once."""
        if isinstance(node, _LEAVES):
            return self._compute_vmin_bound(node)
        if node not in self._vmin_bounds:
            self._vmin_bounds[node] = self._compute_vmin_bound(node)
        return self._vmin_bounds[node]

    def _compute_vmin_bound(self, node: Series):
        if isinstance(node, Monomial):
            return None if node.coefficient.is_zero else node.exponent.value
        if isinstance(node, Literal):
            return node.terms[0][0].value if node.terms else None
        if isinstance(node, (Neg, Truncation)):
            return self._vmin_bound(node.child)
        if isinstance(node, Sum):
            bounds = (self._vmin_bound(s) for s in node.summands)
            return min((v for v in bounds if v is not None), default=None)
        if isinstance(node, Product):
            a = self._vmin_bound(node.left)
            b = self._vmin_bound(node.right)
            if a is None or b is None:
                return None
            return group_ops(node.group)[0](a, b)
        if isinstance(node, GeometricTail):
            return group_zero(node.group).value
        if isinstance(node, Inverse):
            return (-self._resolve(node)[0].g0).value
        raise TypeError(f"unknown series node {type(node).__name__}")

    def _expand_product(self, node: Product, bound):
        va = self._vmin_bound(node.left)
        vb = self._vmin_bound(node.right)
        if va is None or vb is None:
            return (), None
        gadd, gneg, _ = group_ops(node.group)
        a, fa = self._eval(node.left, gadd(bound, gneg(vb)))
        b, fb = self._eval(node.right, gadd(bound, gneg(va)))
        frontier = _fmin(None if fa is None else gadd(fa, vb),
                         None if fb is None else gadd(fb, va))
        if (node.group.kind == INTEGERS_KIND and node.field.kind != RATFUNC_KIND
                and _dense(a, b)):
            top = bound if frontier is None or frontier > bound else frontier - 1
            return _kronecker_product(a, b, top, node.field.p), frontier
        ops = field_ops(node.field)
        add, mul = ops.add, ops.mul
        acc = {}
        for ga, ca in a:
            for gb, cb in b:
                g = gadd(ga, gb)
                if g > bound:
                    break
                acc[g] = add(acc[g], mul(ca, cb)) if g in acc else mul(ca, cb)
        return _collect(acc, frontier, ops)

    def _expand_truncation(self, node: Truncation, bound):
        cutoff = node.cutoff.value
        terms, frontier = self._eval(node.child, bound if bound < cutoff else cutoff)
        # the child was evaluated up to the cutoff at most
        if node.inclusive:
            covered = frontier is None or cutoff < frontier
        else:
            if terms and not terms[-1][0] < cutoff:
                terms = terms[:-1]
            covered = frontier is None or not frontier < cutoff
        return terms, None if covered else frontier

    def _resolve(self, node: Inverse) -> tuple[InversionFactorization, Series]:
        hit = self._inversions.get(node)
        if hit is not None:
            return hit
        child = node.child
        if node.witness is not None:
            g0 = node.witness.value
            terms, frontier = self._eval(child, g0)
            if frontier is not None and not g0 < frontier:
                raise TermBudgetExceeded(
                    "cannot verify inversion witness within the term budget"
                )
            # the prefix ends at g0, so g0 leads exactly when it comes first
            if not terms or terms[0][0] != g0:
                raise InvalidWitness(
                    f"witness exponent {node.witness} is not the leading support point"
                )
        else:
            search_bound = self.horizon.exp_bound
            if search_bound.descriptor != node.group:
                raise DescriptorMismatch("horizon bound uses a different group")
            terms, frontier = self._eval(child, search_bound.value)
            if not terms:
                if frontier is None:
                    raise ZeroUpToHorizon(
                        f"no nonzero coefficient at or below {search_bound}"
                    )
                raise TermBudgetExceeded(
                    "zero search exhausted the term budget before any support point"
                )
        g0 = box_exponent(node.group, terms[0][0])
        lead = box_coefficient(node.field, terms[0][1])
        neg_inv_lead = (-lead).inverse()
        tail = Sum(child, Neg(Monomial(lead, g0)))
        epsilon = Product(Monomial(neg_inv_lead, -g0), tail)
        expansion = Product(Monomial(lead.inverse(), -g0), GeometricTail(epsilon))
        fact = InversionFactorization(g0, lead, epsilon)
        self._inversions[node] = (fact, expansion)
        return fact, expansion

    def _expand_tail(self, node: GeometricTail, bound):
        """(1 - base)^-1 by online division over the closure of supp(base),
        with the frontier rule of the module docstring."""
        zero = group_zero(node.group).value
        ops = field_ops(node.field)
        base, frontier = self._eval(node.base, bound if zero < bound else zero)
        if not base:
            if frontier is None:
                return ((zero, ops.one),) if not zero > bound else (), None
            raise TermBudgetExceeded(
                "geometric tail base could not be enumerated within the term budget"
            )
        m = base[0][0]
        if not zero < m:
            raise PreconditionViolation(
                f"geometric tail base has leading exponent {box_exponent(node.group, m)} <= 0"
            )
        strict = frontier is not None and not bound < frontier
        limit = frontier if strict else bound
        gens = [g for g, _ in base]
        eps = [c for _, c in base]
        add, mul, is_zero = ops.add, ops.mul, ops.is_zero
        cap = self.horizon.term_bound
        values = []
        terms = []
        for g, preds in closure_walk(node.group, gens, limit, strict):
            if not preds:
                c = ops.one  # the empty sum, g = 0
            else:
                (i, k), *rest = preds
                c = mul(eps[i], values[k])
                for i, k in rest:
                    c = add(c, mul(eps[i], values[k]))
            values.append(c)
            if not is_zero(c):
                if len(terms) == cap:
                    return tuple(terms), g
                terms.append((g, c))
        return tuple(terms), frontier


def closure_walk(group: GroupDescriptor, gens, limit, strict: bool):
    """The finite sums of ``gens`` (raw values of the group, positive,
    increasing) up to the raw ``limit``, or strictly below it, in
    increasing order by a heap walk.  Each sum s comes with its
    predecessors, the pairs (i, k) with s = gens[i] + the k-th sum
    yielded, so a recurrence over the closure can be solved as it is
    walked."""
    def out(s):
        return not s < limit if strict else limit < s
    add = group_ops(group)[0]
    zero = group_zero(group).value
    preds = {zero: []}
    heap = [] if out(zero) else [zero]
    k = 0
    while heap:
        x = heapq.heappop(heap)
        yield x, preds.pop(x)
        for i, h in enumerate(gens):
            s = add(x, h)
            if out(s):
                break  # gens increase, so every later sum is out too
            if s not in preds:
                preds[s] = []
                heapq.heappush(heap, s)
            preds[s].append((i, k))
        k += 1


# ---------------------------------------------------------------------------
# constructors

def monomial(coefficient: FieldElement, exponent: GroupElement) -> Series:
    return Monomial(coefficient, exponent)


def t_power(exponent: GroupElement, fld: FieldDescriptor) -> Series:
    return Monomial(fld.one, exponent)


def constant(value: FieldElement, group: GroupDescriptor) -> Series:
    return Monomial(value, group_zero(group))


def zero_series(group: GroupDescriptor, fld: FieldDescriptor) -> Series:
    return Literal(group, fld, ())


def one_series(group: GroupDescriptor, fld: FieldDescriptor) -> Series:
    return Monomial(fld.one, group_zero(group))


def from_terms(group: GroupDescriptor, fld: FieldDescriptor, terms) -> Series:
    return Literal(group, fld, tuple(terms))


# ---------------------------------------------------------------------------
# operations

def truncate(s: Series, g: GroupElement, inclusive: bool = False) -> Series:
    """The initial segment of s strictly below g (or through g when
    inclusive)."""
    return Truncation(s, g, inclusive)


def invert(b: Series, horizon: Horizon | None = None,
           witness: GroupElement | None = None) -> Series:
    """Lazy multiplicative inverse.

    With a horizon the factorisation is resolved eagerly so a zero-up-to-
    horizon series is rejected here instead of at first evaluation.
    """
    node = Inverse(b, witness)
    if horizon is not None:
        EvaluationContext(horizon).resolve_inversion(node)
    return node


def coefficients_up_to(s: Series, horizon: Horizon) -> TermList:
    return EvaluationContext(horizon).coefficients(s)


def support_up_to(s: Series, horizon: Horizon) -> list[GroupElement]:
    return list(coefficients_up_to(s, horizon).support())


def vmin(s: Series, horizon: Horizon) -> GroupElement:
    """Least support exponent found at or below the horizon bound."""
    tl = coefficients_up_to(s, horizon)
    if tl.terms:
        return tl.terms[0][0]
    if tl.complete:
        raise ZeroUpToHorizon(
            f"no nonzero coefficient at or below {horizon.exp_bound}"
        )
    raise TermBudgetExceeded("support enumeration hit the term budget")


def coefficient_at(s: Series, g: GroupElement, horizon: Horizon) -> FieldElement:
    tl = EvaluationContext(horizon).coefficients(s, g)
    if not tl.complete and not g < tl.frontier:
        raise TermBudgetExceeded(f"coefficient at {g} not certain within budget")
    c = tl.coefficient_at(g)
    return s.field.zero if c is None else c


def equal_up_to(a: Series, b: Series, horizon: Horizon) -> bool:
    """Coefficientwise equality of the enumerated prefixes.

    When a side is truncated the comparison covers only the certain
    region below both frontiers.
    """
    ta = coefficients_up_to(a, horizon)
    tb = coefficients_up_to(b, horizon)
    limit = _fmin(ta.frontier, tb.frontier)
    fa = ta.terms if limit is None else tuple(t for t in ta.terms if t[0] < limit)
    fb = tb.terms if limit is None else tuple(t for t in tb.terms if t[0] < limit)
    return fa == fb


def factorize_for_inversion(b: Series, horizon: Horizon,
                            witness: GroupElement | None = None) -> InversionFactorization:
    """Leading-term factorisation (g0, lead, epsilon) of a nonzero series."""
    return EvaluationContext(horizon).resolve_inversion(Inverse(b, witness))
