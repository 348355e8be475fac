"""Every result of the six benchmark checkers, pinned by digest.

The calls are the benchmark rotation's (``bench/gen.py``): the battery on
the strategy rules, the multiset rule and the four fixtures; the two fuzzers
and strict responsiveness on the strategy rules; separability on those and
the multiset rule; the extent search on three position vectors at n = 5.
Each seed's digest is the sha256 of the ``repr`` of every result in that
order.  A checker that draws, evaluates or returns anything else, in any
trial, changes a digest.
"""

import hashlib
from fractions import Fraction as F

import pytest

from vocagg import (
    Domain,
    ExtendedMedianRule,
    MeanRule,
    MultisetRule,
    PhantomMatrix,
    PositionVector,
    PRule,
    boundary_phantoms,
    check_separability_on_deviations,
    check_strict_responsiveness,
    fixture_rule,
    median_positions,
    run_axiom_battery,
    search_extent_violation,
    sp_fuzz,
    uncompromising_fuzz,
)

UNIT = Domain(F(0), F(1))
STRATEGY_RULES = {
    "median": PRule(median_positions(3, 3)),
    "p-1,2,3": PRule(PositionVector((1, 2, 3))),
    "emed-corner": ExtendedMedianRule(boundary_phantoms(PositionVector((1, 2, 3)), 3, UNIT)),
    "emed-interior": ExtendedMedianRule(
        PhantomMatrix(UNIT, ((F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))))
    ),
    "mean": MeanRule(),
}
BATTERY_RULES = {
    **STRATEGY_RULES,
    "multiset": MultisetRule(),
    **{f"fixture:{name}": fixture_rule(name) for name in ("inf-rule", "dictator", "mean", "discontinuous-rule")},
}
EXTENT_POSITIONS = [(3, 3, 3), (2, 3, 4), (3, 3, 5)]
TRIALS = 24
DIGESTS = {
    7: "c16097b8ac870b04c44772cd2d9799c8cd2e8bb7292c99760878f710def37ba3",
    11: "6e22ba3b694a10d11eb765fe5690c1b523a2fb1dadcb7b495d711bb4e71928c2",
    16001: "8845be155d5b506143e313a30ee22e6b29ac02ace777909300987e0d6d65bdf9",
}


def results(seed):
    shape = {"domain": UNIT, "n": 3, "m": 3}
    for rule in BATTERY_RULES.values():
        yield run_axiom_battery(rule, TRIALS, seed, **shape)
    for checker in (sp_fuzz, uncompromising_fuzz, check_strict_responsiveness):
        for rule in STRATEGY_RULES.values():
            yield checker(rule, TRIALS, seed, **shape)
    for rule in (*STRATEGY_RULES.values(), MultisetRule()):
        yield check_separability_on_deviations(rule, TRIALS, seed, **shape)
    for positions in EXTENT_POSITIONS:
        yield search_extent_violation(positions, 5, TRIALS, seed, domain=UNIT)


def digest(seed):
    return hashlib.sha256("\n".join(map(repr, results(seed))).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_checker_results_are_pinned(seed):
    assert digest(seed) == DIGESTS[seed]
