"""Well-ordered support sets, regions, and symbolic families.

Families of well-ordered sets are uncountable, so they are never held
extensionally: a family is either all well-ordered subsets of a region,
all finite subsets of a region, or an explicit finite list of finite
sets.  Support sets themselves are enumerated prefixes with the same
bound discipline as series evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (
    DescriptorMismatch,
    FieldTooSmall,
    NotInNonNegCone,
    TermBudgetExceeded,
)
from .fields import FieldDescriptor
from .groups import (
    GroupDescriptor,
    GroupElement,
    box_exponent,
    group_zero,
    subgroup_contains,
)
from .series import Horizon, Literal, Series, TermList, closure_walk


@dataclass(frozen=True)
class SearchBudget:
    """The cap on the closure probes of ``verify``; membership and the
    conditions are decided exactly and take no budget."""

    enumeration_cap: int = 4096
    seed: int = 0


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SupportSet:
    """A well-ordered subset of G, or an enumerated prefix of one.

    ``bound is None`` means the listed points are the entire set.  With a
    bound, every support point up to it is listed; if ``budget_hit`` the
    enumeration stopped early and the bound is exclusive (all points
    strictly below it are listed).
    """

    group: GroupDescriptor
    points: tuple[GroupElement, ...]
    bound: GroupElement | None = None
    budget_hit: bool = False

    def __post_init__(self):
        prev = None
        for p in self.points:
            if p.descriptor != self.group:
                raise DescriptorMismatch("support point uses a different group")
            if prev is not None and not prev < p:
                raise ValueError("support points must be strictly increasing")
            prev = p

    @property
    def is_entire(self) -> bool:
        return self.bound is None

    @property
    def is_empty(self) -> bool:
        return not self.points

    def as_set(self) -> frozenset[GroupElement]:
        return frozenset(self.points)

    def __str__(self):
        body = ",".join(str(p) for p in self.points)
        suffix = "" if self.is_entire else (",..." if self.budget_hit else f" (<= {self.bound})")
        return "{" + body + "}" + suffix


def explicit_support(group: GroupDescriptor, points) -> SupportSet:
    pts = tuple(sorted(set(points)))
    return SupportSet(group, pts)


def enumerated_support(group, points, bound, budget_hit=False) -> SupportSet:
    return SupportSet(group, tuple(points), bound, budget_hit)


def support_of_terms(group: GroupDescriptor, tl: TermList,
                     bound: GroupElement) -> SupportSet:
    """The enumerated support of an evaluated series prefix."""
    if tl.complete:
        return SupportSet(group, tl.support(), bound)
    return SupportSet(group, tl.support(), tl.frontier, True)


# ---------------------------------------------------------------------------
# regions

WHOLE = "whole"
NONNEG = "nonneg"
POS = "pos"
SUBMONOID = "submonoid"
SUBGROUP = "subgroup"
FINITE = "finite"


@dataclass(frozen=True)
class Region:
    """A subset of G that a family can quantify over."""

    group: GroupDescriptor
    kind: str
    elements: tuple[GroupElement, ...] = ()

    def __post_init__(self):
        if self.kind not in (WHOLE, NONNEG, POS, SUBMONOID, SUBGROUP, FINITE):
            raise ValueError(f"unknown region kind {self.kind!r}")
        for e in self.elements:
            if e.descriptor != self.group:
                raise DescriptorMismatch("region element uses a different group")

    def __str__(self):
        if self.kind == WHOLE:
            return str(self.group)
        if self.kind == NONNEG:
            return f"{self.group}>=0"
        if self.kind == POS:
            return f"{self.group}>0"
        inner = ",".join(str(e) for e in self.elements)
        label = {SUBMONOID: "mon", SUBGROUP: "grp", FINITE: "set"}[self.kind]
        return label + "{" + inner + "}"


def whole_group(group) -> Region:
    return Region(group, WHOLE)


def nonneg_cone(group) -> Region:
    return Region(group, NONNEG)


def pos_cone(group) -> Region:
    return Region(group, POS)


def submonoid(group, gens) -> Region:
    return Region(group, SUBMONOID, tuple(gens))


def subgroup(group, gens) -> Region:
    return Region(group, SUBGROUP, tuple(gens))


def finite_region(group, elems) -> Region:
    return Region(group, FINITE, tuple(sorted(set(elems))))


def _cone_vector(e: GroupElement) -> tuple:
    """The raw value of e as a vector: Z, Q and the trivial group are Z^1."""
    return e.value if isinstance(e.value, tuple) else (e.value,)


def _in_cone(columns, target) -> bool:
    """Whether the vector target is a nonnegative rational combination of
    the column vectors: phase one of the simplex method.

    Each row is kept as a positive integer multiple of its tableau row,
    which changes no sign and no ratio within a row.  Rows start on
    artificial variables; Bland's rule picks the entering column and the
    leaving row, and an artificial that leaves never re-enters, so the
    loop ends.  ``objective`` is the sum of the artificials, zero exactly
    when target is in the cone.
    """
    k = len(columns)
    rows = []
    for i, b in enumerate(target):
        row = [c[i] for c in columns] + [b]
        scale = lcm(*(x.denominator for x in row)) * (-1 if b < 0 else 1)
        rows.append([int(x * scale) for x in row])
    objective = [sum(column) for column in zip(*rows)]
    basis = [k + i for i in range(len(rows))]
    while objective[k]:
        entering = next((j for j in range(k) if objective[j] > 0), None)
        if entering is None:
            return False
        _, _, i = min((Fraction(row[k], row[entering]), basis[i], i)
                      for i, row in enumerate(rows) if row[entering] > 0)
        pivot = rows[i]
        a = pivot[entering]
        for row in (*rows, objective):
            f = row[entering]
            if row is not pivot and f:
                row[:] = [a * x - f * y for x, y in zip(row, pivot)]
        basis[i] = entering
    return True


def lineality_generators(gens) -> list:
    """The generators whose negation lies in the rational cone of gens.

    They span the cone's lineality space, a face of it, so the monoid
    they generate is a group: -e = sum q_j g_j with rational q_j >= 0
    uses only them, and clearing denominators writes -e as a
    nonnegative integer sum.
    """
    columns = [_cone_vector(e) for e in gens]
    return [e for e in gens if _in_cone(columns, _cone_vector(-e))]


def monoid_is_group(gens) -> bool:
    """Whether the submonoid generated by gens is a group: exactly when
    every generator's negation is a nonnegative rational combination of
    the generators.  Otherwise, by Gordan's theorem of the alternative, a
    functional is >= 0 on every generator and > 0 on one."""
    return len(lineality_generators(gens)) == len(gens)


def region_contains(region: Region, g: GroupElement) -> bool:
    """Membership of g in the region; exact for every region kind.

    For a submonoid M, g = s + l with s a sum of the generators outside
    the lineality space and l in the group the others generate.  A
    breadth-first walk lists the sums s with g - s in the cone of M;
    there are finitely many, since the cone is pointed once the
    lineality space is factored out, but their number grows with the
    distance of g from 0.
    """
    if g.descriptor != region.group:
        raise DescriptorMismatch("element uses a different group")
    zero = group_zero(region.group)
    if region.kind == WHOLE:
        return True
    if region.kind == NONNEG:
        return not g < zero
    if region.kind == POS:
        return zero < g
    if region.kind == FINITE:
        return g in region.elements
    if region.kind == SUBGROUP:
        return subgroup_contains(list(region.elements), g)
    gens = [e for e in region.elements if not e.is_zero]
    if not subgroup_contains(gens, g):
        return False
    columns = [_cone_vector(e) for e in gens]
    lineality = lineality_generators(gens)
    pointed = [e for e in gens if e not in lineality]
    seen = {zero}
    queue = [zero]
    for s in queue:
        if subgroup_contains(lineality, g - s):
            return True
        for e in pointed:
            t = s + e
            if t not in seen and _in_cone(columns, _cone_vector(g - t)):
                seen.add(t)
                queue.append(t)
    return False


# ---------------------------------------------------------------------------
# set operations

def translate(A: SupportSet, g: GroupElement) -> SupportSet:
    if g.descriptor != A.group:
        raise DescriptorMismatch("translation amount uses a different group")
    return SupportSet(
        A.group,
        tuple(p + g for p in A.points),
        None if A.bound is None else A.bound + g,
        A.budget_hit,
    )


def minkowski_sum(A: SupportSet, B: SupportSet, h: Horizon) -> SupportSet:
    if A.group != B.group:
        raise DescriptorMismatch("summand sets use different groups")
    bound = h.exp_bound
    if (A.is_entire and A.is_empty) or (B.is_entire and B.is_empty):
        return SupportSet(A.group, ())
    sums = sorted({a + b for a in A.points for b in B.points})
    # sums with unenumerated points of X exceed X's bound plus the least
    # point of Y, or plus Y's bound when Y lists none; budget-hit bounds
    # are exclusive, so such a sum can reach the edge only when every
    # bound it is built from is
    limit, strict = bound, False
    for X, Y in ((A, B), (B, A)):
        if X.bound is not None:
            if Y.points:
                edge, hit = X.bound + Y.points[0], X.budget_hit
            else:
                edge, hit = X.bound + Y.bound, X.budget_hit and Y.budget_hit
            if edge < limit or (edge == limit and hit):
                limit, strict = edge, hit
    kept = [s for s in sums if (s < limit if strict else not s > limit)]
    if A.is_entire and B.is_entire and not sums[-1] > bound:
        return SupportSet(A.group, tuple(kept))
    if len(kept) > h.term_bound:
        frontier = kept[h.term_bound]
        kept = kept[: h.term_bound]
        return SupportSet(A.group, tuple(kept), frontier, True)
    return SupportSet(A.group, tuple(kept), limit, strict)


def finite_sums_closure(A: SupportSet, h: Horizon) -> SupportSet:
    """All finite sums of elements of A up to the horizon, in increasing
    order; the empty sum contributes 0, so the closure of the empty set
    is {0}."""
    zero = group_zero(A.group)
    for p in A.points:
        if p < zero:
            raise NotInNonNegCone(f"element {p} is negative")
    bound = h.exp_bound
    exclusive = False
    if A.bound is not None and not bound < A.bound:
        bound = A.bound
        exclusive = A.budget_hit
    gens = [p.value for p in A.points if not p.is_zero]
    emitted = []
    for x, _ in closure_walk(A.group, gens, bound.value, exclusive):
        x = box_exponent(A.group, x)
        if len(emitted) >= h.term_bound:
            return SupportSet(A.group, tuple(emitted), x, True)
        emitted.append(x)
    if not gens and A.is_entire:
        return SupportSet(A.group, tuple(emitted))
    return SupportSet(A.group, tuple(emitted), bound, A.budget_hit)


def is_initial_segment(B: SupportSet, A: SupportSet) -> bool:
    """B is a subset of A and no element of A outside B precedes one of B."""
    aset = A.as_set()
    bset = B.as_set()
    if not bset <= aset:
        return False
    if not bset:
        return True
    top = B.points[-1]
    return all(a in bset for a in A.points if not a > top)


# ---------------------------------------------------------------------------
# families

W_FAMILY = "W"
FIN_FAMILY = "FIN"
EXPLICIT_FAMILY = "explicit"


@dataclass(frozen=True)
class Family:
    """A symbolic family of well-ordered subsets of G.

    An explicit family also carries its member index: ``raw_members``
    holds each member as a tuple of raw exponent values, in the order of
    ``members``, and ``raw_member_set`` holds the same tuples for
    membership tests.  ``explicit_family`` checks the points and passes
    the index in; for a family built without it, both are done here.
    """

    group: GroupDescriptor
    kind: str
    region: Region | None = None
    members: tuple[tuple[GroupElement, ...], ...] = ()
    raw_members: tuple[tuple, ...] | None = field(default=None, repr=False,
                                                  compare=False)
    raw_member_set: frozenset = field(default=frozenset(), init=False,
                                      repr=False, compare=False)

    def __post_init__(self):
        if self.kind in (W_FAMILY, FIN_FAMILY):
            if self.region is None or self.region.group != self.group:
                raise ValueError("region family needs a region over the same group")
        elif self.kind == EXPLICIT_FAMILY:
            if self.raw_members is None:
                if any(p.descriptor != self.group for m in self.members for p in m):
                    raise DescriptorMismatch("member point uses a different group")
                object.__setattr__(self, "raw_members",
                                   tuple(tuple(p.value for p in m) for m in self.members))
            object.__setattr__(self, "raw_member_set", frozenset(self.raw_members))
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self):
        if self.kind == W_FAMILY:
            return f"W({self.region})"
        if self.kind == FIN_FAMILY:
            return f"FIN({self.region})"
        body = ",".join(
            "{" + ",".join(str(p) for p in m) + "}" for m in self.members
        )
        return "explicit{" + body + "}"


def well_ordered_family(region: Region) -> Family:
    return Family(region.group, W_FAMILY, region)


def finite_subsets_family(region: Region) -> Family:
    return Family(region.group, FIN_FAMILY, region)


def explicit_family(group: GroupDescriptor, members) -> Family:
    """The family of the given finite sets, deduplicated and sorted.

    The canonical sort runs on raw values, whose native order is the
    group order.
    """
    boxed = {}
    canonical = set()
    for m in members:
        values = set()
        for p in m:
            # the parser's points share the group object, so identity decides fast
            if p.descriptor is not group and p.descriptor != group:
                raise DescriptorMismatch("member point uses a different group")
            boxed.setdefault(p.value, p)
            values.add(p.value)
        canonical.add(tuple(sorted(values)))
    raw = tuple(sorted(canonical))
    return Family(group, EXPLICIT_FAMILY, members=tuple(
        tuple(boxed[v] for v in m) for m in raw
    ), raw_members=raw)


def family_contains(F: Family, A: SupportSet) -> bool:
    """Membership of a support set in the family.

    For region families every enumerated point is tested against the
    region; a point outside refutes membership soundly even for truncated
    enumerations.  A truncated enumeration cannot *confirm* membership in
    a W-family (TermBudgetExceeded) and counts as not-finite for a
    FIN-family.  Explicit families compare enumerated content.
    """
    if A.group != F.group:
        raise DescriptorMismatch("support set uses a different group")
    if F.kind == EXPLICIT_FAMILY:
        if A.budget_hit:
            raise TermBudgetExceeded("cannot compare a truncated enumeration")
        return tuple(p.value for p in A.points) in F.raw_member_set
    if not all(region_contains(F.region, p) for p in A.points):
        return False
    if F.kind == W_FAMILY:
        if A.budget_hit:
            raise TermBudgetExceeded(
                "enumeration truncated; cannot confirm every point is in the region"
            )
        return True
    return A.is_entire


# ---------------------------------------------------------------------------
# witness series (field must have a third element, i.e. not F_2)

def _require_not_f2(fld: FieldDescriptor):
    if fld.characteristic == 2 and fld.kind == "Fp":
        raise FieldTooSmall("witness construction needs a field other than F_2")


def ones_series(A: SupportSet, fld: FieldDescriptor, negated=frozenset()) -> Series:
    """sum of t^g over the points of A, with coefficient -1 on the points
    in ``negated`` and 1 on the rest."""
    one = fld.one
    return Literal(A.group, fld, [(g, -one if g in negated else one) for g in A.points])


def subset_sum_witness(A: SupportSet, B: SupportSet,
                       fld: FieldDescriptor) -> tuple[Series, Series]:
    """(a, c) with supp(a) = supp(c) = A and supp(a + c) = B, for B a
    subset of A: coefficients of c avoid {0, -a_g} on B and cancel a
    elsewhere."""
    _require_not_f2(fld)
    aset, bset = A.as_set(), B.as_set()
    if not bset <= aset:
        raise ValueError("subset witness needs B contained in A")
    return ones_series(A, fld), ones_series(A, fld, aset - bset)


def union_sum_witness(A: SupportSet, B: SupportSet,
                      fld: FieldDescriptor) -> tuple[Series, Series]:
    """(a, b) with supp(a) = A, supp(b) = B and supp(a + b) = A union B."""
    _require_not_f2(fld)
    return ones_series(A, fld), ones_series(B, fld)


def build_group_witnesses(A: SupportSet, B: SupportSet,
                          fld: FieldDescriptor) -> tuple[Series, Series]:
    """The additive-closure probes: a subset witness pair when B is
    contained in A, otherwise a union witness pair."""
    if B.as_set() <= A.as_set():
        return subset_sum_witness(A, B, fld)
    return union_sum_witness(A, B, fld)
