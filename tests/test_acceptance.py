"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them).  Values are
asserted bit-exactly; the timed criteria assert their stated wall-clock
budgets.
"""

import functools
import time
from fractions import Fraction as F

from conftest import shared_endpoint_profile

from vocagg import (
    Domain,
    DictatorRule,
    ExtendedMedianRule,
    GapSequence,
    LabeledExemplars,
    MeanRule,
    MultisetRule,
    PhantomMatrix,
    PositionVector,
    PRule,
    Profile,
    VIOLATED,
    aggregate_gaps,
    apply_rule,
    build_result,
    check_incremental_consistency,
    check_majoritarian_words,
    check_strict_responsiveness,
    collective_incomplete,
    decode_endpoints,
    fixture_rule,
    gaps_of,
    induce,
    is_symmetric,
    median_positions,
    run_axiom_battery,
    search_extent_violation,
    serialize_result,
    sp_fuzz,
    uncompromising_fuzz,
)
from vocagg.rules import apply_p_rule_reversed


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {summary}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {summary}")

        return wrapper

    return decorate


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


ALL_P_VECTORS_3x2 = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


@criterion(1, "grading example: all four rules exact, each under 1 ms")
def test_golden_rules(grading_profile):
    expected = {
        PRule(median_positions(3, 4)): (F(20), F(40), F(55), F(70)),
        MeanRule(): (F(20), F(35), F(145, 3), F(200, 3)),
        DictatorRule(2): (F(10), F(20), F(30), F(50)),
        MultisetRule(): (F(20), F(30), F(50), F(70)),
    }
    for rule, values in expected.items():
        apply_rule(grading_profile, rule)  # warm any caches before timing
        out, elapsed = timed(apply_rule, grading_profile, rule)
        assert out.values == values
        assert all(isinstance(v, F) for v in out.values)
        assert elapsed < 0.001, f"{rule} took {elapsed * 1000:.3f} ms"


@criterion(2, "position rules commute with order reversal exactly when symmetric")
def test_order_reversal():
    profile = Profile.from_rows(
        Domain(F(0), F(11)),
        [(1, 4, 9), (2, 6, 7), (3, 4, 10), (4, 5, 6), (5, 6, 8)],
    )
    positions = PositionVector((2, 3, 4))
    assert apply_rule(profile, PRule(positions)).values == (F(2), F(5), F(9))
    assert apply_p_rule_reversed(profile, positions) == (F(9), F(5), F(2))
    assert is_symmetric(positions, 5)


@criterion(3, "heterogeneous profile: median endpoints and active words exact")
def test_heterogeneous_median(mixed_profile, letters):
    a, b, e, f, i = (letters[x] for x in "abefi")
    assert mixed_profile.rows[0].values == (
        letters["c"], letters["h"], F(1), F(1), F(1), F(1), F(1)
    )
    for row in mixed_profile.rows:
        assert decode_endpoints(row) is not None
    median = apply_rule(mixed_profile, PRule(median_positions(3, 7)))
    assert median.values == (a, b, e, e, f, i, F(1))
    vocabulary = decode_endpoints(median)
    active = tuple(j for j, extent in enumerate(vocabulary.extents) if extent)
    assert active == (0, 1, 2, 4, 5, 6)
    assert vocabulary.extents == (
        (F(0), a), (a, b), (b, e), None, (e, f), (f, i), (i, F(1)), None
    )


@criterion(4, "majority-covered extents: banded positions safe, others refuted in <10s")
def test_majoritarian_search():
    start = time.perf_counter()
    profile = shared_endpoint_profile(F(9, 20))
    for entries in ALL_P_VECTORS_3x2:
        report = check_majoritarian_words(PRule(PositionVector(entries)), profile)
        assert report.verdict == VIOLATED, entries
    mean_report = check_majoritarian_words(MeanRule(), profile)
    assert mean_report.verdict != VIOLATED
    mean_out = apply_rule(profile, MeanRule())
    assert mean_out.values == (F(3, 10), F(19, 30))
    assert all(decode_endpoints(mean_out).extents)

    trials = 0
    out_of_band = [((1, 1), 3), ((1, 2), 3), ((1, 3), 3), ((2, 3), 3),
                   ((3, 3), 3), ((2, 4), 5), ((1, 2, 3), 3)]
    for entries, n in out_of_band:
        witness = search_extent_violation(PositionVector(entries), n, 600, 17)
        trials += 600
        assert witness is not None, entries
    assert search_extent_violation(median_positions(3, 2), 3, 6000, 11) is None
    assert search_extent_violation(median_positions(5, 3), 5, 4000, 11) is None
    trials += 10000
    elapsed = time.perf_counter() - start
    assert trials >= 10_000
    assert elapsed < 10, f"{elapsed:.1f}s"


@criterion(5, "exemplar walkthrough: gap rows, median gaps, and attribution exact")
def test_exemplar_pipeline():
    unit = Domain(F(0), F(1))
    a, b, c = F(1, 5), F(2, 5), F(3, 5)
    agents = (
        LabeledExemplars(unit, ((a, 0), (b, 2), (c, 3))),
        LabeledExemplars(unit, ((a, 1), (b, 1), (c, 2))),
        LabeledExemplars(unit, ((a, 0), (b, 2), (c, 2))),
    )
    gap_rows = [gaps_of(induce(agent, 3)) for agent in agents]
    assert gap_rows[0].gaps == ((a, b), (a, b), (b, c))
    assert gap_rows[1].gaps == ((F(0), a), (b, c), (c, F(1)))
    assert gap_rows[2].gaps == ((a, b), (a, b), (c, F(1)))
    collective_gaps = aggregate_gaps(gap_rows, median_positions(3, 3))
    assert collective_gaps.gaps == ((a, b), (a, b), (c, F(1)))
    collective = collective_incomplete(collective_gaps)
    assert collective.extents == ((F(0), a), None, (b, c), None)

    extended = tuple(
        agent.extended_by(((F(7, 10), label),))
        for agent, label in zip(agents, (3, 2, 3))
    )
    report = check_incremental_consistency(agents, extended, median_positions(3, 3))
    assert report.holds, report.failures


@criterion(6, "axiom battery: each fixture breaks only its axiom; position rules clean (<30s)")
def test_axiom_independence():
    start = time.perf_counter()
    targets = {
        "inf-rule": "unanimity",
        "dictator": "anonymity",
        "mean": "stability",
        "discontinuous-rule": "continuity",
    }
    for name, broken in targets.items():
        battery = run_axiom_battery(fixture_rule(name), 1000, 5)
        verdicts = {axiom: report.verdict for axiom, report in battery.items()}
        assert verdicts[broken] == VIOLATED, (name, verdicts)
        for axiom, verdict in verdicts.items():
            if axiom != broken:
                assert verdict != VIOLATED, (name, axiom)
        assert battery[broken].witness is not None
    clean = [
        PRule(median_positions(3, 3)),
        PRule(PositionVector((1, 1, 2))),
        PRule(PositionVector((1, 2, 3))),
        PRule(PositionVector((3, 3, 3))),
    ]
    for rule in clean:
        battery = run_axiom_battery(rule, 1000, 5)
        assert all(report.verdict != VIOLATED for report in battery.values()), rule
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"{elapsed:.1f}s"


@criterion(7, "manipulation fuzz: order rules resist, mean caught, phantom tie exact (<60s)")
def test_strategic_guarantees():
    start = time.perf_counter()
    unit = Domain(F(0), F(1))
    interior = ExtendedMedianRule(
        PhantomMatrix(unit, ((F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))))
    )
    from vocagg import boundary_phantoms

    corner = ExtendedMedianRule(boundary_phantoms(median_positions(3, 3), 3, unit))
    trials = 0
    for rule, budget in (
        (PRule(median_positions(3, 3)), 4000),
        (PRule(PositionVector((1, 2, 3))), 2000),
        (interior, 2000),
        (corner, 2000),
    ):
        assert sp_fuzz(rule, budget, 9) is None, rule
        trials += budget
    witness = sp_fuzz(MeanRule(), 400, 9)
    trials += 400
    assert witness is not None
    witness.replay(MeanRule())
    assert witness.gain > 0
    assert trials >= 10_000

    assert uncompromising_fuzz(interior, 1000, 9) is None
    assert uncompromising_fuzz(corner, 1000, 9) is None

    half = (F(1, 2),)
    tie_rule = ExtendedMedianRule(PhantomMatrix(unit, (half,)))
    for reports in (((F(1, 5),), (F(7, 10),)), ((F(3, 10),), (F(4, 5),))):
        assert tie_rule(Profile.from_rows(unit, reports)).values == half
    report = check_strict_responsiveness(tie_rule, 50, 0, n=2, m=1)
    assert report.verdict == VIOLATED
    assert report.witness["before"] == report.witness["after"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"{elapsed:.1f}s"


@criterion(8, "fixed seeds reproduce every report and document byte for byte")
def test_determinism(grading_profile):
    battery = run_axiom_battery(PRule(median_positions(3, 3)), 150, 123)
    again = run_axiom_battery(PRule(median_positions(3, 3)), 150, 123)
    assert battery == again

    first = sp_fuzz(MeanRule(), 300, 7)
    second = sp_fuzz(MeanRule(), 300, 7)
    assert first == second and first is not None

    assert search_extent_violation(
        PositionVector((1, 2)), 3, 200, 99
    ) == search_extent_violation(PositionVector((1, 2)), 3, 200, 99)

    rule = PRule(median_positions(3, 4))
    document = build_result(
        rule, ("F", "D", "C", "B", "A"), apply_rule(grading_profile, rule)
    )
    text = serialize_result(document)
    assert text == serialize_result(
        build_result(rule, ("F", "D", "C", "B", "A"), apply_rule(grading_profile, rule))
    )
    assert "." not in "".join(text.split('"domain"')[0])  # no float leakage
