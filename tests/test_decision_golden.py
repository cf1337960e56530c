"""Golden outputs of the region rules and the closure probes.

The condition verdicts on submonoid regions and the probe counts of
``brute_force_closure_probe`` are pinned exactly, so a refactor of the
sign analysis or of the probe loop that changes a witness, an outcome or
the number of probes is caught here.
"""

import pytest

from hahnseries.conditions import CONDITION_NAMES, check_condition
from hahnseries.fields import QQ
from hahnseries.groups import INTEGERS
from hahnseries.supports import (
    explicit_family,
    finite_subsets_family,
    submonoid,
    well_ordered_family,
)
from hahnseries.verify import brute_force_closure_probe

z = INTEGERS.element

HOLDS = "holds None"

# family -> "outcome witness" for S1..S6 (first line) and A1..A5 (second line)
CONDITION_GOLDEN = {
    "W(mon{})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                 "fails 1", HOLDS, "fails {1}", HOLDS, HOLDS),
    "FIN(mon{})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                   "fails 1", HOLDS, "fails {1}", HOLDS, HOLDS),
    "W(mon{0})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                  "fails 1", HOLDS, "fails {1}", HOLDS, HOLDS),
    "FIN(mon{0})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                    "fails 1", HOLDS, "fails {1}", HOLDS, HOLDS),
    "W(mon{-3})": ("fails {3}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                   "fails 1", HOLDS, "fails {3}", HOLDS, "fails -3"),
    "FIN(mon{-3})": ("fails {3}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                     "fails 1", HOLDS, "fails {3}", HOLDS, "fails -3"),
    "W(mon{-2,-5})": ("fails {2}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                      HOLDS, HOLDS, "fails {2}", HOLDS, "fails -2"),
    "FIN(mon{-2,-5})": ("fails {2}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                        HOLDS, HOLDS, "fails {2}", HOLDS, "fails -2"),
    "W(mon{2,-3})": (HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                     HOLDS, HOLDS, HOLDS, HOLDS, HOLDS),
    "FIN(mon{2,-3})": (HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                       HOLDS, HOLDS, HOLDS, "fails {2}", HOLDS),
    "W(mon{4,-6})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                     "fails 1", HOLDS, "fails {1}", HOLDS, HOLDS),
    "FIN(mon{4,-6})": ("fails {1}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                       "fails 1", HOLDS, "fails {1}", "fails {4}", HOLDS),
    "W(mon{6,10,15})": ("fails {-6}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                        HOLDS, HOLDS, "fails {-6}", HOLDS, "fails 6"),
    "FIN(mon{6,10,15})": ("fails {-6}", HOLDS, HOLDS, HOLDS, HOLDS, HOLDS,
                          HOLDS, HOLDS, "fails {-6}", "fails {6}", "fails 6"),
}

GENERATORS = ((), (0,), (-3,), (-2, -5), (2, -3), (4, -6), (6, 10, 15))


def _region_families():
    for gens in GENERATORS:
        region = submonoid(INTEGERS, [z(v) for v in gens])
        yield well_ordered_family(region)
        yield finite_subsets_family(region)


@pytest.mark.parametrize("family", list(_region_families()), ids=str)
@pytest.mark.parametrize("condition", CONDITION_NAMES)
def test_submonoid_condition_golden(family, condition):
    verdict = check_condition(family, condition)
    want = CONDITION_GOLDEN[str(family)][CONDITION_NAMES.index(condition)]
    assert f"{verdict.outcome} {verdict.witness}" == want


# (members, op) -> (status, probes, closed_under_probes, violation)
PROBE_GOLDEN = [
    ((), "add", ("pass", 0, False, None)),
    ((), "mul", ("pass", 0, True, None)),
    (((), (0,)), "add", ("pass", 5, True, None)),
    (((), (0,)), "mul", ("pass", 4, True, None)),
    (((), (0,), (1,)), "add", ("pass", 7, False, "supp({0} op {1}) = {0,1} (<= 3)")),
    (((), (0,), (1,)), "mul", ("pass", 9, False, "supp({1} op {1}) = {2} (<= 3)")),
    (((1,), (2,)), "add", ("pass", 1, False, "supp({1} op {1}) = {} (<= 5)")),
    (((1,), (2,)), "mul", ("pass", 2, False, "supp({1} op {2}) = {3} (<= 5)")),
]


@pytest.mark.parametrize("members,op,want", PROBE_GOLDEN)
def test_closure_probe_golden(members, op, want):
    F = explicit_family(INTEGERS, [[z(v) for v in m] for m in members])
    report = brute_force_closure_probe(QQ, F, op)
    d = report.details
    got = (report.status, d["probes"], d["closed_under_probes"], d.get("violation"))
    assert got == want
