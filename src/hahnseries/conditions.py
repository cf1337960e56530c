"""Decision and refutation procedures for the family conditions S1-A5.

On a W- or FIN-family over a region S each condition reduces to one
property of S: S4 asks whether 0 is in S, S1 and A3 whether S = G, A5
whether S = -S, A4 whether S has a positive element and A2 whether
S + S lies in S.  One facts record (``_RegionFacts``), filled in one pass
over the region kinds, holds them all, exactly for every kind: a
submonoid is a group, or has a generator whose negation lies outside
it, by one rational cone test per generator.  ``check_conditions``
analyses the region once for any list of conditions, and
``check_condition`` asks it for one.  Explicit finite families are
decided by brute force over their members.  Every verdict either holds
with a named rule or fails with a concrete re-checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    GroupElement,
    box_exponent,
    generates_whole_group,
    group_zero,
    raw_ops,
    subgroup_contains,
    unit_sample,
)
from .series import Horizon
from .supports import (
    DEFAULT_BUDGET,
    EXPLICIT_FAMILY,
    FIN_FAMILY,
    FINITE,
    NONNEG,
    POS,
    SUBGROUP,
    SUBMONOID,
    WHOLE,
    Family,
    Region,
    SearchBudget,
    SupportSet,
    family_contains,
    finite_sums_closure,
    lineality_generators,
    region_contains,
)

CONDITION_NAMES = ("S1", "S2", "S3", "S4", "S5", "S6", "A1", "A2", "A3", "A4", "A5")

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    rule: str | None = None
    witness: object = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome == FAILS

    @property
    def unknown(self) -> bool:
        return self.outcome == UNKNOWN

    def __str__(self):
        if self.holds:
            return f"holds [{self.rule}]"
        if self.fails:
            w = f" witness {self.witness}" if self.witness is not None else ""
            return f"fails{w}" + (f" ({self.note})" if self.note else "")
        return f"unknown ({self.note})"


def _holds(rule, note=""):
    return Verdict(HOLDS, rule=rule, note=note)


def _fails(witness, note=""):
    return Verdict(FAILS, witness=witness, note=note)


def _singleton(group, g) -> SupportSet:
    return SupportSet(group, (g,))


# ---------------------------------------------------------------------------
# region analysis, with witnesses

@dataclass(frozen=True)
class _RegionFacts:
    """The properties of a region S that S1-A5 reduce to.  Each witness
    field is None when its property holds: ``outside`` lies outside S
    (S = G), ``asymmetric`` lies in S while its negation does not
    (S = -S), and ``unclosed`` is a pair (s, t) of S with s + t outside S
    (S + S in S).  ``positive`` is a strictly positive element of S and
    ``sample`` any element, each None when S has none."""
    has_zero: bool
    outside: GroupElement | None
    asymmetric: GroupElement | None
    positive: GroupElement | None
    sample: GroupElement | None
    unclosed: tuple | None


def _region_facts(region: Region) -> _RegionFacts:
    """All the facts of the region, in one pass over its kind."""
    group = region.group
    zero = group_zero(group)
    unit = unit_sample(group)
    kind = region.kind
    if kind == WHOLE:
        return _RegionFacts(True, None, None, unit, zero, None)
    if kind == NONNEG:
        return _RegionFacts(True, None if unit is None else -unit, unit, unit, zero, None)
    if kind == POS:
        return _RegionFacts(False, zero, unit, unit, unit, None)
    if kind == FINITE:
        elements = region.elements
        probe = (box_exponent(group, v) for v in _probe_values(group, len(elements) + 1))
        return _RegionFacts(
            zero in elements,
            next((g for g in probe if g not in elements), None),
            next((e for e in elements if -e not in elements), None),
            next((e for e in reversed(elements) if zero < e), None),
            elements[0] if elements else None,
            next(((s, t) for s in elements for t in elements if s + t not in elements), None),
        )
    gens = [e for e in region.elements if not e.is_zero]
    # a monoid is a group unless some generator's negation lies outside
    # its cone, and so outside it
    lineality = gens if kind == SUBGROUP else lineality_generators(gens)
    asymmetric = next((e for e in gens if e not in lineality), None)
    if asymmetric is None:
        _, outside = generates_whole_group(gens, group)
        positive = max(gens[0], -gens[0]) if gens else None
    else:
        outside = -asymmetric
        positive = next((e for e in gens if zero < e), None)
    return _RegionFacts(True, outside, asymmetric, positive, zero, None)


# ---------------------------------------------------------------------------
# the checker

def check_conditions(family: Family, names=CONDITION_NAMES) -> dict[str, Verdict]:
    """The verdicts of the named conditions on the family, in the order
    of ``names``.  A region family's region is analysed once for all of
    them."""
    for name in names:
        if name not in CONDITION_NAMES:
            raise ValueError(f"unknown condition {name!r}")
    if family.kind == EXPLICIT_FAMILY:
        return {name: _check_explicit_family(family, name) for name in names}
    facts = _region_facts(family.region)
    return {name: _check_region_family(family, facts, name) for name in names}


def check_condition(family: Family, condition: str,
                    budget: SearchBudget = DEFAULT_BUDGET) -> Verdict:
    """The verdict of one condition on the family.  Every condition is
    decided exactly, so ``budget`` is unused; it stays for callers that
    pass one."""
    return check_conditions(family, (condition,))[condition]


def _check_region_family(family: Family, facts: _RegionFacts, condition: str) -> Verdict:
    region = family.region
    group = family.group
    finite_only = family.kind == FIN_FAMILY

    if condition == "S2":
        return _holds("members-closed-under-subsets")
    if condition == "S3":
        return _holds("members-closed-under-unions")
    if condition == "S5":
        return _holds("empty-set-is-a-member")
    if condition == "S6":
        return _holds("initial-segments-are-subsets")

    if condition == "S4":
        if facts.has_zero:
            return _holds("zero-in-region")
        return _fails(_singleton(group, group_zero(group)), "zero is outside the region")

    outside = facts.outside
    if condition == "S1":
        if outside is None:
            return _holds("region-is-whole-group")
        return _fails(_singleton(group, outside), f"{outside} is outside the region")

    if condition == "A1":
        if region.kind in (WHOLE, NONNEG, POS):
            # a cone generates the group; over the trivial group <empty> = G
            return _holds("cone-generates-group")
        ok, witness = generates_whole_group(list(region.elements), group)
        if ok:
            return _holds("region-generators-span-group")
        return _fails(witness, "outside the subgroup generated by the region")

    if condition == "A2":
        if facts.unclosed is None:
            return _holds("region-closed-under-addition")
        s, t = facts.unclosed
        return _fails(
            _singleton(group, s + t),
            f"{{{s}}} (+) {{{t}}} leaves the region",
        )

    if condition == "A3":
        sample = facts.sample
        if sample is None:
            return _holds("empty-region-family-is-translation-stable")
        if outside is None:
            return _holds("whole-group-is-translation-stable")
        return _fails(
            _singleton(group, outside),
            f"translate {{{sample}}} by {outside - sample}",
        )

    if condition == "A4":
        if not facts.has_zero:
            return _fails(
                SupportSet(group, ()),
                "sum closure of the empty set is {0}, which is not a member",
            )
        if finite_only or region.kind == FINITE:
            positive = facts.positive
            if positive is None:
                return _holds("no-positive-elements-to-sum")
            escape = "is infinite" if finite_only else "escapes the finite region"
            return _fails(
                _singleton(group, positive),
                f"sum closure of {{{positive}}} {escape}",
            )
        return _holds("region-closed-under-nonnegative-sums")

    # A5
    witness = facts.asymmetric
    if witness is None:
        return _holds("region-symmetric-on-singletons")
    return _fails(witness, f"{{{witness}}} is a member but {{{-witness}}} is not")


def _probe_values(group, count):
    """Raw values of 0, u, -u, 2u, -2u, ..., count*u, -count*u for the
    unit sample u."""
    yield group_zero(group).value
    unit = unit_sample(group)
    if unit is not None:
        _, neg, scale = raw_ops(group)
        for k in range(1, count + 1):
            g = scale(unit.value, k)
            yield g
            yield neg(g)


def _member_union_generators(family: Family) -> list[GroupElement]:
    return list(dict.fromkeys(p for m in family.members for p in m))


def _check_explicit_family(family: Family, condition: str) -> Verdict:
    """Brute force over the members, on the family's raw member index.

    Members are visited in the order of ``family.members``; only the
    witness that is returned gets boxed.  S3 and A2 build symmetric
    results from a pair of members, so they visit each unordered pair
    once: the first missing result in row order always comes from a pair
    (a, b) with a no later than b.
    """
    group = family.group
    zero = group_zero(group).value
    members = family.raw_member_set
    raw_members = family.raw_members
    indexed = tuple(zip(family.members, raw_members))
    add, neg, scale = raw_ops(group)
    rule = "brute-force-over-members"

    def boxed(values) -> SupportSet:
        return SupportSet(group, tuple(GroupElement(group, v) for v in values))

    if condition == "S5":
        if members:
            return _holds(rule)
        return _fails(None, "the family is empty")

    if condition == "S4":
        if (zero,) in members:
            return _holds(rule)
        return _fails(boxed((zero,)), "{0} is not a member")

    if condition == "S1":
        # a nontrivial group gives 2n + 3 distinct probes, so one of them
        # is missing from the n members
        for g in _probe_values(group, len(members) + 1):
            if (g,) not in members:
                g = GroupElement(group, g)
                return _fails(_singleton(group, g), f"{{{g}}} is not a member")
        return _holds(rule)

    if condition == "S2":
        for m, raw in indexed:
            for mask in range(1 << len(raw)):
                if tuple(p for i, p in enumerate(raw) if mask >> i & 1) not in members:
                    return _fails(
                        SupportSet(group, tuple(p for i, p in enumerate(m) if mask >> i & 1)),
                        f"subset of {{{','.join(map(str, m))}}} missing",
                    )
        return _holds(rule)

    if condition == "S6":
        for m, raw in indexed:
            for k in range(len(raw) + 1):
                if raw[:k] not in members:
                    return _fails(
                        SupportSet(group, m[:k]),
                        f"initial segment of {{{','.join(map(str, m))}}} missing",
                    )
        return _holds(rule)

    if condition == "S3":
        sets = [frozenset(a) for a in raw_members]
        for i, a in enumerate(sets):
            for b in sets[i:]:
                union = tuple(sorted(a | b))
                if union not in members:
                    return _fails(boxed(union), "union of members missing")
        return _holds(rule)

    if condition == "A1":
        ok, witness = generates_whole_group(_member_union_generators(family), group)
        if ok:
            return _holds("member-union-generates-group")
        return _fails(witness, "outside the subgroup generated by the member union")

    if condition == "A2":
        for i, a in enumerate(raw_members):
            for b in raw_members[i:]:
                if not a or not b:
                    total = ()
                else:
                    total = tuple(sorted({add(x, y) for x in a for y in b}))
                if total not in members:
                    return _fails(boxed(total), "pairwise sum set missing")
        return _holds(rule)

    if condition == "A3":
        first = next((raw for raw in raw_members if raw), None)
        if first is None:
            return _holds("only-the-empty-set-to-translate")
        unit = unit_sample(group)
        if unit is None:
            return _holds("trivial-group-translations")
        # n members cannot hold all n + 1 distinct translates of first
        for k in range(1, len(members) + 2):
            shift = scale(unit.value, k)
            shifted = tuple(add(p, shift) for p in first)
            if shifted not in members:
                break
        return _fails(
            boxed(shifted),
            f"member translated by {GroupElement(group, shift)} is missing",
        )

    if condition == "A4":
        for m, raw in indexed:
            if any(p < zero for p in raw):
                continue
            if all(p == zero for p in raw):
                if (zero,) not in members:
                    return _fails(
                        SupportSet(group, m),
                        "sum closure {0} is not a member",
                    )
            else:
                return _fails(
                    SupportSet(group, m),
                    "sum closure is infinite, no finite member matches",
                )
        return _holds(rule)

    # A5
    for m, raw in indexed:
        if len(raw) == 1 and (neg(raw[0]),) not in members:
            return _fails(m[0], f"{{{m[0]}}} is a member but {{{-m[0]}}} is not")
    return _holds(rule)


# ---------------------------------------------------------------------------
# witness re-checking (soundness of Fails verdicts)

def witness_refutes(family: Family, condition: str, verdict: Verdict,
                    budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Confirm that a Fails witness is a genuine violation of the
    condition, using family_contains and the condition's definition.
    ``budget`` is unused, as in ``check_condition``."""
    if not verdict.fails:
        raise ValueError("only Fails verdicts carry witnesses")
    group = family.group
    zero = group_zero(group)
    unit = unit_sample(group)
    probe_horizon = Horizon(
        unit.scale(64) if unit is not None else zero, 256
    )

    def contains(ss: SupportSet) -> bool:
        return family_contains(family, ss)

    w = verdict.witness
    raw_members = family.raw_members  # () for region families
    add, neg, _ = raw_ops(group)
    wraw = tuple(p.value for p in w.points) if isinstance(w, SupportSet) else None
    if condition == "S5":
        return not family.members if family.kind == EXPLICIT_FAMILY else False
    if condition in ("S1", "S4"):
        return not contains(w)
    if condition == "S2":
        if contains(w):
            return False
        return any(set(wraw).issubset(m) for m in raw_members)
    if condition == "S6":
        if contains(w):
            return False
        return any(wraw == m[: len(wraw)] for m in raw_members)
    if condition == "S3":
        if contains(w):
            return False
        wset = set(wraw)
        return any(wset == set(a).union(b) for a in raw_members for b in raw_members)
    if condition == "A1":
        if family.kind == EXPLICIT_FAMILY:
            gens = _member_union_generators(family)
        elif family.region.kind in (SUBGROUP, SUBMONOID, FINITE):
            gens = list(family.region.elements)
        else:
            return False  # cones never fail A1
        return not subgroup_contains(gens, w)
    if condition == "A2":
        if contains(w):
            return False
        if family.kind == EXPLICIT_FAMILY:
            wset = set(wraw)
            return any(
                a and b and {add(x, y) for x in a for y in b} == wset
                for a in raw_members for b in raw_members
            )
        wset = w.as_set()
        return any(
            {s + t} == wset
            for s in family.region.elements
            for t in family.region.elements
        )
    if condition == "A3":
        if contains(w):
            return False
        if family.kind == EXPLICIT_FAMILY:
            for m in raw_members:
                if len(m) == len(wraw) and m:
                    shift = add(wraw[0], neg(m[0]))
                    if tuple(add(p, shift) for p in m) == wraw:
                        return True
            return False
        return _region_facts(family.region).sample is not None and len(w.points) == 1
    if condition == "A4":
        if not contains(w):
            return False
        if any(p < zero for p in w.points):
            return False
        closure = finite_sums_closure(w, probe_horizon)
        if closure.is_entire:
            return not contains(closure)
        if family.kind == EXPLICIT_FAMILY:
            # a positive point makes the closure infinite; members are finite
            return any(zero < p for p in w.points)
        if family.kind == FIN_FAMILY:
            return True  # a non-entire closure is not a finite set
        return not all(region_contains(family.region, p) for p in closure.points)
    # A5
    return contains(_singleton(group, w)) and not contains(_singleton(group, -w))
