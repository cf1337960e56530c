"""Classification of k-hulls: which algebraic structure the series with
support in a given family form.

Sufficient directions are unconditional; converse directions are applied
only under their hypotheses (coefficient field other than F_2 for the
group characterization, characteristic zero or a large coefficient field
for the ring characterization, characteristic zero for the field and
Hahn characterizations).  Outside the hypotheses a failed condition set
yields Unknown with the missing assumption named, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditions import check_conditions
from .fields import FieldDescriptor
from .supports import Family

YES = "yes"
NO = "no"
UNDECIDED = "unknown"

FLAG_NAMES = (
    "additive_subgroup",
    "subring",
    "has_identity",
    "subfield",
    "hahn_field",
    "rayner_field",
    "restriction_closed",
    "truncation_closed",
)

GROUP_SET = ("S2", "S3", "S5")
RING_SET = ("S2", "S3", "S5", "A2")
FIELD_SET = ("S2", "S3", "S4", "A2", "A4", "A5")
HAHN_SET = ("S1", "S2", "S3", "A2", "A4")
RAYNER_SET = ("S2", "S3", "S5", "A1", "A3", "A4")


@dataclass(frozen=True)
class Flag:
    value: str
    rule: str = ""
    witness: object = None
    reason: str = ""

    @property
    def yes(self) -> bool:
        return self.value == YES

    @property
    def no(self) -> bool:
        return self.value == NO

    def render(self) -> str:
        if self.value == YES:
            return f"yes [{self.rule}]"
        if self.value == NO:
            w = f" witness {self.witness[0]}:{self.witness[1]}" if self.witness else ""
            return f"no [{self.rule}]{w}"
        return f"unknown ({self.reason})"


@dataclass(frozen=True)
class Classification:
    field: FieldDescriptor
    family: Family
    flags: dict
    conditions: dict
    assumptions: dict

    def flag(self, name: str) -> Flag:
        return self.flags[name]

    def to_json_dict(self) -> dict:
        flags = {}
        for name in FLAG_NAMES:
            f = self.flags[name]
            entry = {"value": f.value}
            if f.rule:
                entry["rule"] = f.rule
            if f.witness is not None:
                entry["witness"] = f"{f.witness[0]}:{f.witness[1]}"
            if f.reason:
                entry["reason"] = f.reason
            flags[name] = entry
        return {
            "field": str(self.field),
            "family": str(self.family),
            "flags": flags,
            "conditions": {n: str(v) for n, v in self.conditions.items()},
            "assumptions": dict(self.assumptions),
        }


def classify_khull(fld: FieldDescriptor, family: Family) -> Classification:
    conds = check_conditions(family)
    char = fld.characteristic
    k_is_f2 = fld.kind == "Fp" and fld.p == 2
    assumptions = {
        "char_k": char,
        "k_is_F2": k_is_f2,
        "k_large": fld.is_large,
    }
    flags: dict[str, Flag] = {}

    def conditional_flag(names, yes_rule, no_rule, converse_ok, converse_blocker):
        which = next((n for n in names if conds[n].fails), None)
        if which is None:
            return Flag(YES, rule=yes_rule)
        if converse_ok:
            return Flag(NO, rule=no_rule, witness=(which, conds[which].witness))
        return Flag(UNDECIDED, reason=converse_blocker)

    flags["additive_subgroup"] = conditional_flag(
        GROUP_SET,
        "closure-conditions-S2-S3-S5",
        "group-characterization",
        not k_is_f2,
        "coefficient field F_2: converse of the group characterization unavailable",
    )
    flags["subring"] = conditional_flag(
        RING_SET,
        "ring-closure-conditions-S2-S3-S5-A2",
        "ring-characterization",
        char == 0 or fld.is_large,
        "small positive-characteristic field: ring converse unavailable",
    )
    flags["subfield"] = conditional_flag(
        FIELD_SET,
        "field-closure-conditions-S2-S3-S4-A2-A4-A5",
        "char-zero-field-characterization",
        char == 0,
        "positive characteristic: field converse unavailable",
    )
    flags["hahn_field"] = conditional_flag(
        HAHN_SET,
        "hahn-conditions-S1-S2-S3-A2-A4",
        "char-zero-hahn-characterization",
        char == 0,
        "positive characteristic: Hahn converse unavailable",
    )

    # Rayner family membership is definitional, no field hypothesis at all
    flags["rayner_field"] = conditional_flag(
        RAYNER_SET, "rayner-family-definition", "rayner-family-definition", True, None
    )

    flags["restriction_closed"] = conditional_flag(
        ("S2",), "subset-closed-family", "subset-closed-family", True, None
    )
    flags["truncation_closed"] = conditional_flag(
        ("S6",), "initial-segment-closed-family", "initial-segment-closed-family", True, None
    )

    _propagate(flags)
    # identity: the hull contains the coefficient field iff {} and {0} are
    # members; a subring of a field can only have 1 itself as identity.
    # A subring has {} through S2 and S5, and {0} is a member iff S4 holds.
    # The subring flag is read after the implications, which may decide it.
    ring = flags["subring"]
    if ring.no:
        flags["has_identity"] = Flag(NO, rule="not-a-subring")
    elif ring.value == UNDECIDED:
        flags["has_identity"] = Flag(UNDECIDED, reason=ring.reason)
    elif conds["S4"].holds:
        flags["has_identity"] = Flag(YES, rule="coefficient-field-membership")
    else:
        flags["has_identity"] = Flag(
            NO, rule="coefficient-field-membership",
            witness=("membership", "{0}"),
        )
    return Classification(fld, family, flags, conds, assumptions)


_UPWARD = (
    ("rayner_field", "hahn_field", "rayner-field-is-hahn-field"),
    ("hahn_field", "subfield", "hahn-field-is-a-subfield"),
    ("subfield", "subring", "subfield-is-a-subring"),
    ("subring", "additive_subgroup", "subring-is-an-additive-subgroup"),
)


def _propagate(flags: dict):
    """Close the flag set under the unconditional implications: yes flows
    up the chain, then no flows back down it.  Only undecided flags are
    filled; decided flags are never overridden."""
    for stronger, weaker, rule in _UPWARD:
        if flags[stronger].yes and flags[weaker].value == UNDECIDED:
            flags[weaker] = Flag(YES, rule=rule)
    for stronger, weaker, rule in reversed(_UPWARD):
        if flags[weaker].no and flags[stronger].value == UNDECIDED:
            flags[stronger] = Flag(NO, rule=rule, witness=flags[weaker].witness)
