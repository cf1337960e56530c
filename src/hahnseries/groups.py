"""Ordered abelian groups of exponents.

Four group kinds are supported: the integers, the rationals, lexicographic
products of integers, and the trivial group.  Elements are exact (Python
ints, ``fractions.Fraction`` or integer tuples); the order is total and
translation invariant.  Floating point never appears.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DescriptorMismatch

INTEGERS_KIND = "Z"
RATIONALS_KIND = "Q"
LEX_KIND = "Z^n"
TRIVIAL_KIND = "trivial"

MAX_LEX_RANK = 8


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies which ordered abelian group the exponents live in."""

    kind: str
    rank: int = 1

    def __post_init__(self):
        if self.kind not in (INTEGERS_KIND, RATIONALS_KIND, LEX_KIND, TRIVIAL_KIND):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == LEX_KIND and not 1 <= self.rank <= MAX_LEX_RANK:
            raise ValueError(f"lexicographic rank must be in 1..{MAX_LEX_RANK}")

    @property
    def zero(self) -> GroupElement:
        return group_zero(self)

    def element(self, value) -> GroupElement:
        return GroupElement(self, value)

    def __str__(self):
        if self.kind == LEX_KIND:
            return f"Z^{self.rank}"
        return self.kind


INTEGERS = GroupDescriptor(INTEGERS_KIND)
RATIONALS = GroupDescriptor(RATIONALS_KIND)
TRIVIAL = GroupDescriptor(TRIVIAL_KIND)


def lex_product(rank: int) -> GroupDescriptor:
    """Z^rank ordered lexicographically (leftmost coordinate dominates)."""
    return GroupDescriptor(LEX_KIND, rank)


def _normalize(descriptor: GroupDescriptor, value):
    kind = descriptor.kind
    if kind == INTEGERS_KIND:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            return int(value)
        if isinstance(value, int):
            return value
    elif kind == RATIONALS_KIND:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
    elif kind == LEX_KIND:
        if isinstance(value, (tuple, list)) and len(value) == descriptor.rank:
            if all(isinstance(v, int) for v in value):
                return tuple(value)
    elif kind == TRIVIAL_KIND:
        if value == 0 or value == () or value is None:
            return 0
        raise ValueError("the trivial group has only the zero element")
    raise ValueError(f"invalid value {value!r} for group {descriptor}")


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class GroupElement:
    """An exact element of an ordered abelian group.

    Immutable; arithmetic and comparisons require matching descriptors.
    Tuples compare lexicographically, ints and Fractions naturally, so the
    order is translation invariant in every kind.
    """

    descriptor: GroupDescriptor
    value: object

    def __post_init__(self):
        object.__setattr__(self, "value", _normalize(self.descriptor, self.value))

    def _check(self, other) -> GroupElement:
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if other.descriptor != self.descriptor:
            raise DescriptorMismatch(
                f"group mismatch: {self.descriptor} vs {other.descriptor}"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        add = raw_ops(self.descriptor)[0]
        return box_exponent(self.descriptor, add(self.value, other.value))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __neg__(self):
        neg = raw_ops(self.descriptor)[1]
        return box_exponent(self.descriptor, neg(self.value))

    def __lt__(self, other):
        other = self._check(other)
        return self.value < other.value

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.descriptor == other.descriptor and self.value == other.value

    def __hash__(self):
        # equal elements have equal values; elements of different groups
        # with equal values merely collide
        return hash(self.value)

    @property
    def is_zero(self) -> bool:
        return self == group_zero(self.descriptor)

    def scale(self, n: int) -> GroupElement:
        """n-fold sum of self (n may be negative)."""
        scale = raw_ops(self.descriptor)[2]
        return box_exponent(self.descriptor, scale(self.value, n))

    def __str__(self):
        if self.descriptor.kind == LEX_KIND:
            return "(" + ",".join(str(a) for a in self.value) + ")"
        return str(self.value)

    def __repr__(self):
        return f"GroupElement({self.descriptor}, {self})"


def box_exponent(descriptor: GroupDescriptor, value) -> GroupElement:
    """The element of a raw value that is already normalised (an int, a
    Fraction or an int tuple, as ``GroupElement.value`` holds it), built
    without normalising it again."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "descriptor", descriptor)
    object.__setattr__(g, "value", value)
    return g


def group_zero(descriptor: GroupDescriptor) -> GroupElement:
    if descriptor.kind == LEX_KIND:
        return GroupElement(descriptor, (0,) * descriptor.rank)
    if descriptor.kind == RATIONALS_KIND:
        return GroupElement(descriptor, Fraction(0))
    return GroupElement(descriptor, 0)


def _lex_add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _lex_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _lex_scale(a: tuple, n: int) -> tuple:
    return tuple(n * x for x in a)


def raw_ops(descriptor: GroupDescriptor):
    """(add, neg, scale) on the raw values of the group's elements.

    Raw values are what ``GroupElement.value`` holds: ints, Fractions,
    int tuples for Z^n, 0 for the trivial group.  Python's native order on
    them is the group order (tuples compare lexicographically), so loops
    that only add, negate, compare and hash can skip the boxing.
    ``scale(v, n)`` is the n-fold sum of v.
    """
    if descriptor.kind == LEX_KIND:
        return _lex_add, _lex_neg, _lex_scale
    return operator.add, operator.neg, operator.mul


def _echelon_basis(rows: list[list[int]]) -> list[tuple[int, list[int]]]:
    """Row-echelon lattice basis via unimodular row operations.

    Returns (pivot column, row) pairs with strictly increasing pivot
    columns and positive pivots; the rows span the same lattice as the
    input rows.
    """
    basis = [list(r) for r in rows if any(r)]
    if not basis:
        return []
    width = len(basis[0])
    echelon = []
    col = 0
    while col < width and basis:
        active = [r for r in basis if r[col] != 0]
        if not active:
            col += 1
            continue
        # gcd out the column: repeatedly reduce larger entries by the smallest
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            head = active[0]
            for r in active[1:]:
                q = r[col] // head[col]
                for j in range(width):
                    r[j] -= q * head[j]
            basis = [r for r in basis if any(r)]
            active = [r for r in basis if r[col] != 0]
        pivot_row = active[0]
        if pivot_row[col] < 0:
            for j in range(width):
                pivot_row[j] = -pivot_row[j]
        basis.remove(pivot_row)
        echelon.append((col, pivot_row))
        col += 1
    return echelon


def _lattice_contains(rows: list[list[int]], target: list[int]) -> bool:
    echelon = _echelon_basis(rows)
    v = list(target)
    for col, row in echelon:
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        for j in range(len(v)):
            v[j] -= q * row[j]
    return not any(v)


def _cyclic_generator(generators: list[GroupElement]) -> tuple[int, int]:
    """(d, L) with the subgroup of Z or Q the elements generate equal to
    (d/L)Z: L is the LCM of their denominators (an int's is 1) and d the
    GCD of the integers they become times L."""
    scale = lcm(*[gen.value.denominator for gen in generators])
    d = 0
    for gen in generators:
        d = gcd(d, int(gen.value * scale))
    return d, scale


def subgroup_contains(generators: list[GroupElement], g: GroupElement) -> bool:
    """Membership of g in the subgroup generated by the given elements.

    The empty generator list generates {0}.  Exact in every group kind:
    gcd analysis over Z and Q, integer lattice elimination over Z^n.
    """
    descriptor = g.descriptor
    for gen in generators:
        if gen.descriptor != descriptor:
            raise DescriptorMismatch("generators and element use different groups")
    kind = descriptor.kind
    if kind == TRIVIAL_KIND:
        return True
    if kind in (INTEGERS_KIND, RATIONALS_KIND):
        # g is in (d/L)Z exactly when g*L/d is an integer
        d, scale = _cyclic_generator(generators)
        n = g.value.numerator * scale
        return n == 0 if d == 0 else n % (d * g.value.denominator) == 0
    rows = [list(gen.value) for gen in generators]
    return _lattice_contains(rows, list(g.value))


def generates_whole_group(generators: list[GroupElement],
                          descriptor: GroupDescriptor):
    """Whether the generated subgroup is all of G.

    Returns (True, None) or (False, witness) where witness is a concrete
    element outside the subgroup.  Exact: over Z and Z^n the subgroup is
    the whole group iff it contains the unit element(s); over Q a finitely
    generated subgroup is cyclic and therefore always proper.
    """
    kind = descriptor.kind
    if kind == TRIVIAL_KIND:
        return True, None
    if kind == INTEGERS_KIND:
        one = descriptor.element(1)
        if subgroup_contains(generators, one):
            return True, None
        return False, one
    if kind == RATIONALS_KIND:
        # the subgroup is (d/L)Z; half of its generator lies outside, and 1 outside {0}
        d, scale = _cyclic_generator(generators)
        return False, descriptor.element(Fraction(d, 2 * scale) if d else 1)
    for i in range(descriptor.rank):
        unit = descriptor.element(tuple(int(i == j) for j in range(descriptor.rank)))
        if not subgroup_contains(generators, unit):
            return False, unit
    return True, None


def unit_sample(descriptor: GroupDescriptor) -> GroupElement | None:
    """A canonical strictly positive element, or None for the trivial group."""
    if descriptor.kind == TRIVIAL_KIND:
        return None
    if descriptor.kind == LEX_KIND:
        return descriptor.element((1,) + (0,) * (descriptor.rank - 1))
    return descriptor.element(1)
