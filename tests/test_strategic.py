from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from vocagg import (
    Domain,
    DomainMismatch,
    EndpointMultiset,
    ExtendedMedianRule,
    ManipulationWitness,
    MeanRule,
    MultisetRule,
    PhantomMatrix,
    Profile,
    PRule,
    ShapeMismatch,
    SinglePeakedPreference,
    VocaggError,
    check_separability_on_deviations,
    check_uncompromising,
    median_positions,
    sp_fuzz,
    uncompromising_fuzz,
    utility,
)
from vocagg.rules import DictatorRule, Rule, apply_rule

UNIT = Domain(F(0), F(1))
MEDIAN = PRule(median_positions(3, 2))
INTERIOR_EMED = ExtendedMedianRule(
    PhantomMatrix(UNIT, ((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4))))
)


def peaked(values, weights=None):
    peak = EndpointMultiset(UNIT, tuple(F(v) for v in values))
    if weights is None:
        weights = (F(1),) * peak.m
    return SinglePeakedPreference(peak, tuple(F(w) for w in weights))


class TestPreferences:
    def test_weights_must_match_and_be_positive(self):
        with pytest.raises(ShapeMismatch):
            peaked((F(1, 2),), weights=(1, 1))
        with pytest.raises(ValueError):
            peaked((F(1, 2),), weights=(0,))
        with pytest.raises(ValueError):
            peaked((F(1, 4), F(1, 2)), weights=(1, -2))

    def test_utility_is_weighted_l1_from_the_peak(self):
        preference = peaked((F(1, 4), F(1, 2)), weights=(2, 3))
        other = EndpointMultiset(UNIT, (F(1, 2), F(1, 2)))
        assert utility(preference, preference.peak) == 0
        assert utility(preference, other) == -(2 * F(1, 4))

    def test_peak_is_the_unique_maximum(self):
        preference = peaked((F(1, 4), F(1, 2)))
        for values in [(F(0), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 3), F(2, 3))]:
            assert utility(preference, EndpointMultiset(UNIT, values)) < 0

    def test_shape_and_domain_guards(self):
        preference = peaked((F(1, 2),))
        with pytest.raises(ShapeMismatch):
            utility(preference, EndpointMultiset(UNIT, (F(1, 4), F(1, 2))))
        wide = EndpointMultiset(Domain(F(0), F(2)), (F(1, 2),))
        with pytest.raises(DomainMismatch):
            utility(preference, wide)


class TestUncompromising:
    @pytest.fixture
    def pair(self):
        return Profile.from_rows(Domain(F(0), F(100)), [(0,), (10,)])

    def test_mean_can_still_bracket(self, pair):
        deviation = EndpointMultiset(pair.domain, (F(20),))
        verdict = check_uncompromising(MeanRule(), pair, 1, deviation, 1)
        assert verdict.case == "bracketed"
        assert verdict.outcome.values == (F(5),)
        assert verdict.deviated_outcome.values == (F(15),)

    def test_mean_overshoots_a_small_step(self, pair):
        # Moving from 0 to the old output at 5 drags the mean past the
        # mover's new position: 15/2 is not between 5 and 5.
        deviation = EndpointMultiset(pair.domain, (F(5),))
        verdict = check_uncompromising(MeanRule(), pair, 1, deviation, 1)
        assert verdict.case == "violated"
        assert verdict.deviated_outcome.values == (F(15, 2),)

    def test_median_ignores_an_outside_move(self):
        profile = Profile.from_rows(UNIT, [(F(1, 4),), (F(1, 2),), (F(3, 4),)])
        deviation = EndpointMultiset(UNIT, (F(1, 8),))
        verdict = check_uncompromising(MEDIAN_1D(), profile, 1, deviation, 1)
        assert verdict.case == "unchanged"

    def test_median_moves_are_bracketed(self):
        profile = Profile.from_rows(UNIT, [(F(1, 4),), (F(1, 2),), (F(3, 4),)])
        deviation = EndpointMultiset(UNIT, (F(7, 8),))
        verdict = check_uncompromising(MEDIAN_1D(), profile, 2, deviation, 1)
        assert verdict.case == "bracketed"
        assert verdict.deviated_outcome.values == (F(3, 4),)

    def test_boundary_index_is_validated(self, pair):
        deviation = EndpointMultiset(pair.domain, (F(20),))
        with pytest.raises(ShapeMismatch):
            check_uncompromising(MeanRule(), pair, 1, deviation, 2)


def MEDIAN_1D() -> PRule:
    return PRule(median_positions(3, 1))


class TestManipulationSearch:
    def test_mean_is_manipulable(self):
        witness = sp_fuzz(MeanRule(), 400, seed=1, n=3, m=2)
        assert witness is not None
        assert witness.gain > 0
        assert witness.replay(MeanRule()) == witness.gain

    def test_multiset_is_manipulable(self):
        witness = sp_fuzz(MultisetRule(), 400, seed=1, n=3, m=2)
        assert witness is not None
        assert witness.replay(MultisetRule()) == witness.gain

    def test_median_resists(self):
        assert sp_fuzz(MEDIAN, 400, seed=1, n=3, m=2) is None

    def test_extended_median_resists(self):
        assert sp_fuzz(INTERIOR_EMED, 400, seed=1) is None

    def test_dictatorship_resists(self):
        assert sp_fuzz(DictatorRule(1), 400, seed=1, n=3, m=2) is None

    def test_a_phantom_outside_the_domain_is_refused_as_a_misreport(self):
        """A rule's own phantom hook may name a value outside the domain; a
        misreport that takes it is refused, as any such report is."""

        @dataclass(frozen=True)
        class OutsidePhantoms(DictatorRule):
            def phantom_columns(self, n, m, domain):
                return ((domain.upper + 1,) * (n - 1),) * m

        with pytest.raises(VocaggError, match=r"endpoint 2 outside \[0, 1\]"):
            sp_fuzz(OutsidePhantoms(1), 400, seed=1, n=3, m=2)

    @pytest.mark.parametrize(
        "reshape, error, message",
        [
            (lambda out: EndpointMultiset(UNIT, out.values[:-1]), ShapeMismatch, "utility of 2 boundaries under a peak with 3"),
            (lambda out: EndpointMultiset(Domain(F(0), F(2)), out.values), DomainMismatch, "utility across different domains"),
        ],
        ids=["drops-last-boundary", "other-domain"],
    )
    def test_an_outcome_utility_refuses_is_refused_at_the_first_evaluated_trial(self, reshape, error, message):
        """An outcome that ``utility`` cannot weigh is refused with its error,
        at the first trial that evaluates the rule, even for a rule whose
        outcome never moves closer to the peak."""
        median = PRule(median_positions(3, 3))
        calls = []

        @dataclass(frozen=True)
        class Reshaped(Rule):
            def __call__(self, profile):
                calls.append(profile)
                return reshape(median(profile))

        with pytest.raises(error) as info:
            sp_fuzz(Reshaped(), 400, seed=1, n=3, m=3)
        assert str(info.value) == message
        assert len(calls) == 2  # the truthful and the manipulated outcome of one trial

    def test_search_is_deterministic(self):
        first = sp_fuzz(MeanRule(), 400, seed=1, n=3, m=2)
        second = sp_fuzz(MeanRule(), 400, seed=1, n=3, m=2)
        assert first == second

    def test_tampered_witness_fails_replay(self):
        witness = sp_fuzz(MeanRule(), 400, seed=1, n=3, m=2)
        tampered = ManipulationWitness(
            witness.agent,
            witness.preference,
            witness.profile,
            witness.misreport,
            witness.truthful_outcome,
            witness.truthful_outcome,  # wrong manipulated outcome
            witness.gain,
        )
        with pytest.raises(AssertionError):
            tampered.replay(MeanRule())


class TestUncompromisingFuzz:
    def test_mean_fails(self):
        verdict = uncompromising_fuzz(MeanRule(), 400, seed=1, n=3, m=2)
        assert verdict is not None and verdict.case == "violated"

    def test_median_and_extended_median_pass(self):
        assert uncompromising_fuzz(MEDIAN, 300, seed=1, n=3, m=2) is None
        assert uncompromising_fuzz(INTERIOR_EMED, 300, seed=1) is None


class TestSeparability:
    def test_columnwise_rules_hold(self):
        assert check_separability_on_deviations(MEDIAN, 60, seed=1, n=3, m=2).holds
        assert check_separability_on_deviations(
            MeanRule(), 60, seed=1, n=3, m=2
        ).holds

    def test_multiset_couples_columns(self):
        report = check_separability_on_deviations(
            MultisetRule(), 60, seed=1, n=3, m=2
        )
        assert report.verdict == "violated"
        witness = report.witness
        k = witness["column"]
        before = apply_rule(
            Profile.from_rows(UNIT, witness["profile"]), MultisetRule()
        ).values[k - 1]
        after = apply_rule(
            Profile.from_rows(UNIT, witness["resampled"]), MultisetRule()
        ).values[k - 1]
        assert (before, after) == (witness["before"], witness["after"])
        assert before != after
        # the fixed column itself is identical in both profiles
        for old, new in zip(witness["profile"], witness["resampled"]):
            assert old[k - 1] == new[k - 1]
