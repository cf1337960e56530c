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
from dataclasses import dataclass

from .errors import (
    DescriptorMismatch,
    InvalidWitness,
    PreconditionViolation,
    TermBudgetExceeded,
    ZeroUpToHorizon,
)
from .fields import FieldDescriptor, FieldElement
from .groups import GroupDescriptor, GroupElement, group_zero

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
    """Canonical text form, e.g. ``1 - 1*t^(1) + 2/3*t^(5/2)``."""
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
    """An explicit finite series, exact everywhere."""

    __slots__ = ("terms",)

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
# frontier helpers; None means "no limit" (+infinity)

def _fmin(a: GroupElement | None, b: GroupElement | None):
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


def _fshift(f: GroupElement | None, v: GroupElement):
    return None if f is None else f + v


class EvaluationContext:
    """Holds the horizon and the per-node memo of evaluated prefixes.

    One context is single threaded; clones share nothing mutable, so they
    can run in parallel.  TermLists are immutable and freely shareable.
    """

    def __init__(self, horizon: Horizon):
        self.horizon = horizon
        self._complete_cache: dict[int, tuple[Series, GroupElement, TermList]] = {}
        self._exact_cache: dict[tuple[int, GroupElement], tuple[Series, TermList]] = {}
        self._inversions: dict[int, tuple[Series, InversionFactorization, Series]] = {}
        self._vmin_bounds: dict[int, tuple[Series, GroupElement | None]] = {}

    def clone(self) -> EvaluationContext:
        other = EvaluationContext(self.horizon)
        other._complete_cache = dict(self._complete_cache)
        other._exact_cache = dict(self._exact_cache)
        other._inversions = dict(self._inversions)
        other._vmin_bounds = dict(self._vmin_bounds)
        return other

    # -- public ---------------------------------------------------------

    def coefficients(self, s: Series, exp_bound: GroupElement | None = None) -> TermList:
        bound = self.horizon.exp_bound if exp_bound is None else exp_bound
        if bound.descriptor != s.group:
            raise DescriptorMismatch("exponent bound uses a different group")
        return self._eval(s, bound)

    def resolve_inversion(self, s: Series) -> InversionFactorization:
        if isinstance(s, Inverse):
            return self._resolve(s)[0]
        raise TypeError("resolve_inversion expects an Inverse node")

    # -- evaluation core --------------------------------------------------

    def _eval(self, node: Series, bound: GroupElement) -> TermList:
        key = id(node)
        hit = self._complete_cache.get(key)
        if hit is not None and not bound > hit[1]:
            terms = tuple(t for t in hit[2].terms if not t[0] > bound)
            return TermList(terms, True, None)
        exact = self._exact_cache.get((key, bound))
        if exact is not None:
            return exact[1]
        result = self._cap(self._expand(node, bound))
        if result.complete:
            if hit is None or hit[1] < bound:
                self._complete_cache[key] = (node, bound, result)
        else:
            self._exact_cache[(key, bound)] = (node, result)
        return result

    def _cap(self, tl: TermList) -> TermList:
        cap = self.horizon.term_bound
        if len(tl.terms) <= cap:
            return tl
        frontier = _fmin(tl.frontier, tl.terms[cap][0])
        kept = tuple(t for t in tl.terms[:cap] if t[0] < frontier)
        return TermList(kept, False, frontier)

    def _expand(self, node: Series, bound: GroupElement) -> TermList:
        if isinstance(node, Monomial):
            if node.coefficient.is_zero or node.exponent > bound:
                return TermList(())
            return TermList(((node.exponent, node.coefficient),))
        if isinstance(node, Literal):
            return TermList(tuple(t for t in node.terms if not t[0] > bound))
        if isinstance(node, Neg):
            tl = self._eval(node.child, bound)
            return TermList(
                tuple((g, -c) for g, c in tl.terms), tl.complete, tl.frontier
            )
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

    def _expand_sum(self, node: Sum, bound: GroupElement) -> TermList:
        frontier = None
        merged: dict[GroupElement, FieldElement] = {}
        for summand in node.summands:
            tl = self._eval(summand, bound)
            frontier = _fmin(frontier, tl.frontier)
            for g, c in tl.terms:
                merged[g] = merged[g] + c if g in merged else c
        terms = tuple(
            (g, merged[g])
            for g in sorted(merged)
            if not merged[g].is_zero and (frontier is None or g < frontier)
        )
        return TermList(terms, frontier is None, frontier)

    def _vmin_bound(self, node: Series) -> GroupElement | None:
        """A guaranteed lower bound for min supp, or None when the node is
        provably the zero series.  Memoised per node, so a DAG with sharing
        computes each bound once."""
        key = id(node)
        hit = self._vmin_bounds.get(key)
        if hit is not None:
            return hit[1]
        value = self._compute_vmin_bound(node)
        self._vmin_bounds[key] = (node, value)
        return value

    def _compute_vmin_bound(self, node: Series) -> GroupElement | None:
        if isinstance(node, Monomial):
            return None if node.coefficient.is_zero else node.exponent
        if isinstance(node, Literal):
            return node.terms[0][0] if node.terms else None
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
            return a + b
        if isinstance(node, GeometricTail):
            return group_zero(node.group)
        if isinstance(node, Inverse):
            return -self._resolve(node)[0].g0
        raise TypeError(f"unknown series node {type(node).__name__}")

    def _expand_product(self, node: Product, bound: GroupElement) -> TermList:
        va = self._vmin_bound(node.left)
        vb = self._vmin_bound(node.right)
        if va is None or vb is None:
            return TermList(())
        a = self._eval(node.left, bound - vb)
        b = self._eval(node.right, bound - va)
        acc: dict[GroupElement, FieldElement] = {}
        for ga, ca in a.terms:
            for gb, cb in b.terms:
                g = ga + gb
                if g > bound:
                    break
                acc[g] = acc[g] + ca * cb if g in acc else ca * cb
        frontier = _fmin(_fshift(a.frontier, vb), _fshift(b.frontier, va))
        terms = tuple(
            (g, acc[g])
            for g in sorted(acc)
            if not acc[g].is_zero and (frontier is None or g < frontier)
        )
        return TermList(terms, frontier is None, frontier)

    def _expand_truncation(self, node: Truncation, bound: GroupElement) -> TermList:
        cutoff = node.cutoff
        inner_bound = bound if bound < cutoff else cutoff
        tl = self._eval(node.child, inner_bound)
        if node.inclusive:
            terms = tuple(t for t in tl.terms if not t[0] > cutoff)
            covered = tl.complete or cutoff < tl.frontier
        else:
            terms = tuple(t for t in tl.terms if t[0] < cutoff)
            covered = tl.complete or not tl.frontier < cutoff
        if covered:
            return TermList(terms, True, None)
        return TermList(terms, False, tl.frontier)

    def _resolve(self, node: Inverse) -> tuple[InversionFactorization, Series]:
        key = id(node)
        hit = self._inversions.get(key)
        if hit is not None:
            return hit[1], hit[2]
        child = node.child
        if node.witness is not None:
            g0 = node.witness
            prefix = self._eval(child, g0)
            if not prefix.complete and not g0 < prefix.frontier:
                raise TermBudgetExceeded(
                    "cannot verify inversion witness within the term budget"
                )
            lead = prefix.coefficient_at(g0)
            if lead is None or (prefix.terms and prefix.terms[0][0] < g0):
                raise InvalidWitness(
                    f"witness exponent {g0} is not the leading support point"
                )
        else:
            search_bound = self.horizon.exp_bound
            prefix = self._eval(child, search_bound)
            if not prefix.terms:
                if prefix.complete:
                    raise ZeroUpToHorizon(
                        f"no nonzero coefficient at or below {search_bound}"
                    )
                raise TermBudgetExceeded(
                    "zero search exhausted the term budget before any support point"
                )
            g0, lead = prefix.terms[0]
        neg_inv_lead = (-lead).inverse()
        tail = Sum(child, Neg(Monomial(lead, g0)))
        epsilon = Product(Monomial(neg_inv_lead, -g0), tail)
        expansion = Product(Monomial(lead.inverse(), -g0), GeometricTail(epsilon))
        fact = InversionFactorization(g0, lead, epsilon)
        self._inversions[key] = (node, fact, expansion)
        return fact, expansion

    def _expand_tail(self, node: GeometricTail, bound: GroupElement) -> TermList:
        """(1 - base)^-1 by online division over the closure of supp(base),
        with the frontier rule of the module docstring."""
        zero = group_zero(node.group)
        one = node.field.one
        base = self._eval(node.base, bound if zero < bound else zero)
        if not base.terms:
            if base.complete:
                return TermList(((zero, one),) if not zero > bound else ())
            raise TermBudgetExceeded(
                "geometric tail base could not be enumerated within the term budget"
            )
        m = base.terms[0][0]
        if not zero < m:
            raise PreconditionViolation(
                f"geometric tail base has leading exponent {m} <= 0"
            )
        strict = not base.complete and not bound < base.frontier
        limit = base.frontier if strict else bound
        eps = [c for _, c in base.terms]
        cap = self.horizon.term_bound
        values: list[FieldElement] = []
        terms = []
        for g, preds in closure_walk(node.group, base.support(), limit, strict):
            c = sum((eps[i] * values[k] for i, k in preds), node.field.zero) if preds else one
            values.append(c)
            if not c.is_zero:
                if len(terms) == cap:
                    return TermList(tuple(terms), False, g)
                terms.append((g, c))
        return TermList(tuple(terms), base.complete, base.frontier)


def closure_walk(group: GroupDescriptor, gens, limit: GroupElement, strict: bool):
    """The finite sums of ``gens`` (positive, increasing) up to ``limit``,
    or strictly below it, in increasing order by a heap walk.  Each sum s
    comes with its predecessors, the pairs (i, k) with s = gens[i] + the
    k-th sum yielded, so a recurrence over the closure can be solved as
    it is walked."""
    def out(s):
        return not s < limit if strict else limit < s
    zero = group_zero(group)
    preds = {zero: []}
    heap = [] if out(zero) else [zero]
    k = 0
    while heap:
        x = heapq.heappop(heap)
        yield x, preds.pop(x)
        for i, h in enumerate(gens):
            s = x + h
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

def ser_add(a: Series, b: Series) -> Series:
    return a + b


def ser_neg(a: Series) -> Series:
    return -a


def ser_mul(a: Series, b: Series) -> Series:
    return a * b


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
