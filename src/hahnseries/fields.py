"""Exact coefficient fields: Q, F_p, and the rational functions F_p(x).

Every element is kept in canonical form (reduced fraction, residue in
[0, p), monic denominator with coprime numerator) so equality is plain
structural equality.  F_p[x] polynomials are coefficient tuples in
ascending degree with a nonzero leading entry; () is the zero polynomial.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DescriptorMismatch, UnorderedField

RATIONALS_KIND = "Q"
PRIME_KIND = "Fp"
RATFUNC_KIND = "Fp(x)"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies the coefficient field."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS_KIND:
            if self.p is not None:
                raise ValueError("Q takes no characteristic parameter")
        elif self.kind in (PRIME_KIND, RATFUNC_KIND):
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS_KIND else self.p

    @property
    def is_ordered(self) -> bool:
        return self.kind == RATIONALS_KIND

    @property
    def is_large(self) -> bool:
        """Declared "at least as large as any well-ordered exponent set".

        Q and F_p(x) are infinite and count as large; F_p does not.
        Cardinals are not computed, this is an assumption flag.
        """
        return self.kind != PRIME_KIND

    def element(self, value) -> FieldElement:
        return FieldElement(self, value)

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    def __str__(self):
        if self.kind == RATIONALS_KIND:
            return "Q"
        if self.kind == PRIME_KIND:
            return f"F{self.p}"
        return f"F{self.p}(x)"


QQ = FieldDescriptor(RATIONALS_KIND)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(PRIME_KIND, p)


def rational_functions(p: int) -> FieldDescriptor:
    return FieldDescriptor(RATFUNC_KIND, p)


# ---------------------------------------------------------------------------
# F_p[x] polynomial helpers on coefficient tuples (ascending degree).

def poly_trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a, b, p) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out.append((ai + bi) % p)
    return poly_trim(out)


def poly_neg(a, p) -> tuple[int, ...]:
    return tuple((-ai) % p for ai in a)


def poly_mul(a, b, p) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        factor = (rem[shift + len(b) - 1] * inv_lead) % p
        if factor == 0:
            continue
        quot[shift] = factor
        for j, bj in enumerate(b):
            rem[shift + j] = (rem[shift + j] - factor * bj) % p
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(a, b, p) -> tuple[int, ...]:
    while b:
        _, r = poly_divmod(a, b, p)
        a, b = b, r
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def poly_pow_x(n: int) -> tuple[int, ...]:
    return (0,) * n + (1,)


def poly_str(coeffs) -> str:
    """Descending-degree rendering like 'x^2+2*x+1'; '0' for zero."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{c}*{x}")
    return "+".join(parts)


def _ratfunc_normalize(num, den, p):
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    if not num:
        return (), (1,)
    g = poly_gcd(num, den, p)
    if len(g) > 1 or g[0] != 1:
        num, _ = poly_divmod(num, g, p)
        den, _ = poly_divmod(den, g, p)
    inv_lead = pow(den[-1], -1, p)
    if inv_lead != 1:
        num = tuple((c * inv_lead) % p for c in num)
        den = tuple((c * inv_lead) % p for c in den)
    return num, den


def _coerce_value(descriptor, value):
    kind = descriptor.kind
    if kind == RATIONALS_KIND:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
    elif kind == PRIME_KIND:
        if isinstance(value, int):
            return value % descriptor.p
    else:
        p = descriptor.p
        if isinstance(value, int):
            v = value % p
            return ((v,) if v else (), (1,))
        if isinstance(value, tuple) and len(value) == 2:
            num, den = value
            return _ratfunc_normalize(poly_trim(num), poly_trim(den), p)
    raise ValueError(f"invalid value {value!r} for field {descriptor}")


class FieldOps(NamedTuple):
    """Arithmetic on the raw values of a field's elements, the canonical
    forms ``FieldElement.value`` holds: Fractions for Q, residues in
    [0, p) for F_p, (numerator, denominator) polynomial pairs for F_p(x).
    Every operation returns a canonical form again, so raw values can be
    compared, hashed and boxed without renormalising."""

    add: Callable
    mul: Callable
    neg: Callable
    inv: Callable  # of a nonzero value
    is_zero: Callable
    zero: object
    one: object


@functools.cache
def raw_ops(descriptor: FieldDescriptor) -> FieldOps:
    """The raw-value arithmetic of a field (see ``FieldOps``)."""
    if descriptor.kind == RATIONALS_KIND:
        return FieldOps(operator.add, operator.mul, operator.neg,
                        lambda a: 1 / a, operator.not_, Fraction(0), Fraction(1))
    p = descriptor.p
    if descriptor.kind == PRIME_KIND:
        return FieldOps(lambda a, b: (a + b) % p, lambda a, b: a * b % p,
                        lambda a: -a % p, lambda a: pow(a, -1, p),
                        operator.not_, 0, 1)

    def add(a, b):
        (an, ad), (bn, bd) = a, b
        num = poly_add(poly_mul(an, bd, p), poly_mul(bn, ad, p), p)
        return _ratfunc_normalize(num, poly_mul(ad, bd, p), p)

    def mul(a, b):
        (an, ad), (bn, bd) = a, b
        return _ratfunc_normalize(poly_mul(an, bn, p), poly_mul(ad, bd, p), p)

    return FieldOps(add, mul, lambda a: (poly_neg(a[0], p), a[1]),
                    lambda a: _ratfunc_normalize(a[1], a[0], p),
                    lambda a: not a[0], ((), (1,)), ((1,), (1,)))


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An exact element of Q, F_p or F_p(x), always in canonical form."""

    descriptor: FieldDescriptor
    value: object

    def __post_init__(self):
        object.__setattr__(self, "value", _coerce_value(self.descriptor, self.value))

    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.descriptor != self.descriptor:
            raise DescriptorMismatch(
                f"field mismatch: {self.descriptor} vs {other.descriptor}"
            )
        return other

    @property
    def is_zero(self) -> bool:
        return raw_ops(self.descriptor).is_zero(self.value)

    def __add__(self, other):
        other = self._check(other)
        value = raw_ops(self.descriptor).add(self.value, other.value)
        return box_coefficient(self.descriptor, value)

    def __neg__(self):
        return box_coefficient(self.descriptor, raw_ops(self.descriptor).neg(self.value))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        value = raw_ops(self.descriptor).mul(self.value, other.value)
        return box_coefficient(self.descriptor, value)

    def inverse(self) -> FieldElement:
        if self.is_zero:
            raise ZeroDivisionError(f"inverting zero in {self.descriptor}")
        return box_coefficient(self.descriptor, raw_ops(self.descriptor).inv(self.value))

    def __str__(self):
        kind = self.descriptor.kind
        if kind == RATFUNC_KIND:
            num, den = self.value
            num_s = poly_str(num)
            if den == (1,):
                return num_s
            if len([c for c in num if c != 0]) > 1:
                num_s = f"({num_s})"
            den_s = poly_str(den)
            if len([c for c in den if c != 0]) > 1:
                den_s = f"({den_s})"
            return f"{num_s}/{den_s}"
        return str(self.value)

    def __repr__(self):
        return f"FieldElement({self.descriptor}, {self})"


def box_coefficient(descriptor: FieldDescriptor, value) -> FieldElement:
    """The element of a raw value already in canonical form, built without
    normalising it again."""
    c = object.__new__(FieldElement)
    object.__setattr__(c, "descriptor", descriptor)
    object.__setattr__(c, "value", value)
    return c


def is_strictly_positive(a: FieldElement) -> bool:
    """a > 0 in the natural order of Q; other fields carry no order."""
    if not a.descriptor.is_ordered:
        raise UnorderedField(f"{a.descriptor} is not an ordered field")
    return a.value > 0


@dataclass(frozen=True)
class CoefficientSupply:
    """Result of independent_coefficients.

    ``independent`` records whether the returned values are genuinely
    linearly independent over the prime field; over F_p no supply of more
    than one element can be, so those come back flagged.
    """

    values: tuple[FieldElement, ...]
    independent: bool
    note: str = ""


def independent_coefficients(count: int, descriptor: FieldDescriptor) -> CoefficientSupply:
    """Supply ``count`` coefficients for support-preserving products.

    F_p(x) yields powers of x (linearly independent over F_p); Q yields
    distinct strictly positive values, which feed the positivity route
    rather than an independence argument.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    kind = descriptor.kind
    if kind == RATFUNC_KIND:
        values = tuple(
            FieldElement(descriptor, (poly_pow_x(i), (1,))) for i in range(count)
        )
        return CoefficientSupply(values, True, "powers of x")
    if kind == RATIONALS_KIND:
        values = tuple(FieldElement(descriptor, i + 1) for i in range(count))
        return CoefficientSupply(values, False, "distinct positive rationals")
    p = descriptor.p
    values = tuple(FieldElement(descriptor, 1 + (i % (p - 1))) for i in range(count))
    independent = count <= 1
    note = "" if independent else f"F{p} has no {count} independent elements"
    return CoefficientSupply(values, independent, note)
