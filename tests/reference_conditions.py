"""Reference for the explicit-family conditions: the member-by-member
brute force over boxed ``GroupElement`` members and a ``set`` of member
tuples, as the package decided them before it used the raw member index.

``tests/test_member_index.py`` checks that the package's verdicts equal
these for every condition.  Not collected by pytest (no ``test_`` prefix).
"""

from hahnseries.conditions import FAILS, HOLDS, UNKNOWN, Verdict
from hahnseries.groups import generates_whole_group, group_zero, unit_sample
from hahnseries.supports import Family, SupportSet


def _holds(rule, note=""):
    return Verdict(HOLDS, rule=rule, note=note)


def _fails(witness, note=""):
    return Verdict(FAILS, witness=witness, note=note)


def _unknown(note):
    return Verdict(UNKNOWN, note=note)


def _singleton(group, g) -> SupportSet:
    return SupportSet(group, (g,))


def _probe_elements(group, count):
    zero = group_zero(group)
    unit = unit_sample(group)
    probe = [zero]
    if unit is not None:
        for k in range(1, count + 1):
            probe.extend([unit.scale(k), -unit.scale(k)])
    return probe


def _member_union_generators(family: Family) -> list:
    gens = []
    for m in family.members:
        gens.extend(m)
    return gens


def check_explicit_family(family: Family, condition: str) -> Verdict:
    group = family.group
    zero = group_zero(group)
    members = set(family.members)
    rule = "brute-force-over-members"

    if condition == "S5":
        if members:
            return _holds(rule)
        return _fails(None, "the family is empty")

    if condition == "S4":
        if (zero,) in members:
            return _holds(rule)
        return _fails(_singleton(group, zero), "{0} is not a member")

    if condition == "S1":
        for g in _probe_elements(group, len(members) + 1):
            if (g,) not in members:
                return _fails(_singleton(group, g), f"{{{g}}} is not a member")
        if unit_sample(group) is None:
            return _holds(rule)
        return _unknown("probe set exhausted without refutation")

    if condition == "S2":
        for m in family.members:
            for mask in range(1 << len(m)):
                sub = tuple(p for i, p in enumerate(m) if mask >> i & 1)
                if sub not in members:
                    return _fails(
                        SupportSet(group, sub),
                        f"subset of {{{','.join(map(str, m))}}} missing",
                    )
        return _holds(rule)

    if condition == "S6":
        for m in family.members:
            for k in range(len(m) + 1):
                if m[:k] not in members:
                    return _fails(
                        SupportSet(group, m[:k]),
                        f"initial segment of {{{','.join(map(str, m))}}} missing",
                    )
        return _holds(rule)

    if condition == "S3":
        for a in family.members:
            for b in family.members:
                union = tuple(sorted(set(a) | set(b)))
                if union not in members:
                    return _fails(SupportSet(group, union), "union of members missing")
        return _holds(rule)

    if condition == "A1":
        ok, witness = generates_whole_group(_member_union_generators(family), group)
        if ok:
            return _holds("member-union-generates-group")
        return _fails(witness, "outside the subgroup generated by the member union")

    if condition == "A2":
        for a in family.members:
            for b in family.members:
                if not a or not b:
                    total = ()
                else:
                    total = tuple(sorted({x + y for x in a for y in b}))
                if total not in members:
                    return _fails(
                        SupportSet(group, total), "pairwise sum set missing"
                    )
        return _holds(rule)

    if condition == "A3":
        nonempty = [m for m in family.members if m]
        if not nonempty:
            return _holds("only-the-empty-set-to-translate")
        unit = unit_sample(group)
        if unit is None:
            return _holds("trivial-group-translations")
        for m in nonempty:
            for k in range(1, len(members) + 2):
                shifted = tuple(p + unit.scale(k) for p in m)
                if shifted not in members:
                    return _fails(
                        SupportSet(group, shifted),
                        f"member translated by {unit.scale(k)} is missing",
                    )
        return _unknown("translation probes exhausted without refutation")

    if condition == "A4":
        for m in family.members:
            if any(p < zero for p in m):
                continue
            if all(p.is_zero for p in m):
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
    for m in family.members:
        if len(m) == 1:
            neg = (-m[0],)
            if neg not in members:
                return _fails(m[0], f"{{{m[0]}}} is a member but {{{-m[0]}}} is not")
    return _holds(rule)
