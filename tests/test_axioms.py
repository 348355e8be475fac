import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from vocagg import (
    AxiomReport,
    DictatorRule,
    Domain,
    EndpointMultiset,
    FIXTURE_TARGETS,
    HOLDS,
    MeanRule,
    MultisetRule,
    PiecewiseLinearMap,
    PositionVector,
    Profile,
    PRule,
    ParseError,
    ShapeMismatch,
    SinglePeakedPreference,
    UnknownFixture,
    VIOLATED,
    apply_rule,
    check_lipschitz,
    check_majoritarian_extents,
    check_majoritarian_words,
    check_separability_on_deviations,
    check_stability,
    check_strict_responsiveness,
    check_unanimity,
    fixture_rule,
    majoritarian_band,
    median_positions,
    run_axiom_battery,
    search_extent_violation,
    sp_fuzz,
    uncompromising_fuzz,
)
from vocagg.axioms import (
    check_anonymity,
    check_stability_sampled,
    majority_extent_agents,
    majority_word_sets,
    random_monotone_map,
)
from vocagg.core import order_key
from vocagg.rules import ExtendedMedianRule, InfRule, PhantomMatrix
from vocagg.sampling import sampling_shape

from conftest import shared_endpoint_profile

UNIT = Domain(F(0), F(1))
MEDIAN_3x3 = PRule(median_positions(3, 3))
KEY_TIED_DOMAINS = [
    UNIT,
    Domain(F(1, 3), F(2, 3)),  # corners whose keys are floors, not exact
    Domain(F(-1), F(1, 2**64)),  # an upper corner one key step above zero
    Domain(F(0), F(1, 2**66)),  # the whole domain inside one key step
]


def open_unit_points(count):
    """``count`` distinct rationals strictly inside (0, 1)."""
    inside = st.fractions(0, 1, max_denominator=10**6).filter(lambda t: 0 < t < 1)
    return st.lists(inside, min_size=count, max_size=count, unique=True)


class TestPiecewiseLinearMap:
    def test_identity_and_reversal(self):
        identity = PiecewiseLinearMap.identity(UNIT)
        reversal = PiecewiseLinearMap.reversal(UNIT)
        assert identity.direction == "increasing"
        assert reversal.direction == "decreasing"
        assert identity(F(1, 3)) == F(1, 3)
        assert reversal(F(1, 3)) == F(2, 3)

    def test_exact_interpolation(self):
        phi = PiecewiseLinearMap(
            UNIT, ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1)))
        )
        assert phi(F(1, 4)) == F(1, 8)
        assert phi(F(3, 4)) == F(5, 8)
        assert phi(F(1, 2)) == F(1, 4)

    def test_corner_and_monotonicity_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap(UNIT, ((F(0), F(0)),))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(UNIT, ((F(0), F(1, 4)), (F(1), F(1))))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(
                UNIT, ((F(0), F(0)), (F(1, 2), F(3, 4)), (F(1, 2), F(7, 8)), (F(1), F(1)))
            )
        with pytest.raises(ValueError):
            PiecewiseLinearMap(
                UNIT, ((F(0), F(0)), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (F(1), F(1)))
            )

    @given(
        st.fractions(-3, 3),
        st.fractions(0, 3).filter(bool),
        st.booleans(),
        st.integers(0, 5).flatmap(
            lambda count: st.tuples(*[open_unit_points(count)] * 2)
        ),
    )
    def test_evaluation_matches_the_interpolation_formula(self, lo, width, increasing, inner):
        def to_domain(ts):
            return [lo + width * t for t in ts]

        xs = to_domain([0, *sorted(inner[0]), 1])
        ys = to_domain([0, *sorted(inner[1]), 1])
        points = tuple(zip(xs, ys if increasing else ys[::-1]))
        phi = PiecewiseLinearMap(Domain(xs[0], xs[-1]), points)

        def oracle(x):
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                if x <= x1:
                    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

        midpoints = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for x in xs + midpoints + [xs[0] + width / 3, xs[-1] - width / 7]:
            assert type(phi(x)) is F and phi(x) == oracle(x)

    def test_segments_stay_outside_equality(self):
        phi = PiecewiseLinearMap(UNIT, ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))
        assert len(phi.segments) == 2
        same = PiecewiseLinearMap(UNIT, ((0, 0), ("1/2", "1/4"), (1, 1)))
        object.__setattr__(same, "segments", ())
        assert phi == same and hash(phi) == hash(same) and repr(phi) == repr(same)
        assert "segments" not in repr(phi)

    def test_decreasing_map_resorts_reports(self):
        reversal = PiecewiseLinearMap.reversal(UNIT)
        row = EndpointMultiset(UNIT, (F(1, 8), F(1, 4)))
        assert reversal.map_endpoints(row).values == (F(3, 4), F(7, 8))

    @given(st.data())
    def test_mapped_reports_are_the_exactly_sorted_image(self, data):
        # map_endpoints reverses a decreasing map's image instead of sorting it;
        # the result must be the sorted image, keyed, on domains whose corners
        # share keys with their neighbours and on rows holding ties and corners
        domain = data.draw(st.sampled_from(KEY_TIED_DOMAINS))
        direction = data.draw(st.sampled_from(["increasing", "decreasing"]))
        phi = random_monotone_map(domain, data.draw(st.integers(0, 10**6)), direction)
        lower, upper = domain.lower, domain.upper
        tiny = F(1, 2**70)
        pool = [lower, upper, lower + tiny, upper - tiny, *(x for x, _ in phi.points[1:-1])]
        pool += [(a + b) / 2 for a, b in zip(pool, pool[1:])]
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        rows = [sorted(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))) for _ in range(n)]
        profile = Profile.from_rows(domain, rows)
        for row, image in zip(profile.rows, phi.map_profile(profile).rows):
            expected = tuple(sorted(map(phi, row.values)))
            assert phi.map_endpoints(row) == image
            assert image.values == expected and image.keys == tuple(map(order_key, expected))

    @pytest.mark.parametrize("domain", [UNIT, Domain(F(-1), F(1, 3)), Domain(F(0), F(100))])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_random_map_is_the_validated_map(self, domain, direction):
        # random_monotone_map skips the checks; the validating constructor must agree on every map
        for seed in range(200):
            phi = random_monotone_map(domain, seed, direction)
            checked = PiecewiseLinearMap(domain, phi.points)
            assert phi == checked and phi.segments == checked.segments
            assert phi.direction == checked.direction == direction

    def test_random_map_is_seed_deterministic(self):
        a = random_monotone_map(UNIT, 7)
        b = random_monotone_map(UNIT, 7)
        c = random_monotone_map(UNIT, 8)
        assert a == b
        assert a != c
        assert random_monotone_map(UNIT, 7, "decreasing").direction == "decreasing"

    @pytest.mark.parametrize(
        "domain,direction,digest",
        [
            (UNIT, "increasing", "cebec47fb462bb8732ce15f497ccd396ad09e8d5811a3b06e315414cda94a46c"),
            (UNIT, "decreasing", "0128a9933f83712480cf0b4adf7447d96cbe30923a67c3c2cb835c1596632ca6"),
            (Domain(F(-1, 3), F(5, 2)), "increasing",
             "875958db818780fea06028a7033c72dc25e7b73f96469b2a6c53bc1ffa3b0980"),
            (Domain(F(-1, 3), F(5, 2)), "decreasing",
             "b1d13b12b590adc2d87d8d52e1ef190fc2cc58f0c396434534c75a4f8f926cf9"),
        ],
    )
    def test_random_map_points_are_pinned(self, domain, direction, digest):
        # digests of the points drawn when the corners came from identity/reversal maps
        maps = [random_monotone_map(domain, seed, direction) for seed in range(200)]
        ends = PiecewiseLinearMap.identity if direction == "increasing" else PiecewiseLinearMap.reversal
        corners = ends(domain).points
        assert all((phi.points[0], phi.points[-1]) == corners for phi in maps)
        points = repr(tuple(phi.points for phi in maps)).encode()
        assert hashlib.sha256(points).hexdigest() == digest


@pytest.mark.parametrize(
    "build",
    [
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), (0.1, 0.3), (1, 1))),
        lambda: SinglePeakedPreference(EndpointMultiset(UNIT, (F(1, 4),)), (0.5,)),
        lambda: check_lipschitz(MEDIAN_3x3, Profile.from_rows(UNIT, [(F(1, 2),) * 3] * 3), 0.1, 1),
    ],
    ids=["map-points", "preference-weights", "lipschitz-eps"],
)
def test_binary_floats_are_refused(build):
    with pytest.raises(ParseError, match="float"):
        build()


class TestAxiomReport:
    def test_verdict_vocabulary_is_closed(self):
        with pytest.raises(ValueError):
            AxiomReport("unanimity", "maybe")

    def test_violation_requires_a_witness(self):
        with pytest.raises(ValueError):
            AxiomReport("unanimity", VIOLATED)
        report = AxiomReport("unanimity", VIOLATED, witness={"column": 1})
        assert not report.holds
        assert AxiomReport("unanimity", HOLDS).holds


class TestUnanimity:
    def test_median_mean_multiset_hold(self):
        for rule in (MEDIAN_3x3, MeanRule(), MultisetRule()):
            assert check_unanimity(rule, 60, seed=5).holds

    def test_pinned_first_boundary_is_never_unanimous(self):
        report = check_unanimity(fixture_rule("inf-rule"), 60, seed=5)
        assert report.verdict == VIOLATED
        witness = report.witness
        assert witness["column"] == 1
        assert witness["actual"] == F(0)
        assert witness["expected"] != F(0)
        profile = Profile.from_rows(UNIT, witness["profile"])
        assert all(
            row.values[witness["column"] - 1] == witness["expected"]
            for row in profile.rows
        )


class TestAnonymity:
    def test_symmetric_rules_hold(self):
        assert check_anonymity(MEDIAN_3x3, 60, seed=5).holds
        assert check_anonymity(MeanRule(), 60, seed=5).holds

    def test_dictatorship_fails_on_the_first_swap(self):
        report = check_anonymity(fixture_rule("dictator"), 60, seed=5)
        assert report.verdict == VIOLATED
        assert report.trials == 1
        assert report.witness["permutation"] == (2, 1, 3)

    def test_one_agent_holds_without_a_trial(self):
        report = check_anonymity(PRule(PositionVector((1, 1))), 60, seed=5, n=1)
        assert report.verdict == HOLDS
        assert (report.seed, report.trials, report.witness) == (5, 0, None)


class TestStability:
    def test_mean_breaks_under_a_kinked_relabeling(self):
        profile = Profile.from_rows(UNIT, [(F(1, 4),), (F(1, 2),), (F(3, 4),)])
        phi = PiecewiseLinearMap(
            UNIT, ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1)))
        )
        report = check_stability(MeanRule(), profile, phi)
        assert report.verdict == VIOLATED
        assert report.witness["transformed_output"] == (F(1, 4),)
        assert report.witness["output_of_transformed"] == (F(1, 3),)

    def test_position_rules_commute_with_increasing_maps(self):
        profile = Profile.from_rows(UNIT, [(F(1, 4),), (F(1, 2),), (F(3, 4),)])
        phi = PiecewiseLinearMap(
            UNIT, ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1)))
        )
        assert check_stability(PRule(PositionVector((2,))), profile, phi).holds
        assert check_stability_sampled(MEDIAN_3x3, 40, seed=5).holds

    def test_symmetric_rules_survive_reversal(self):
        profile = Profile.from_rows(
            UNIT, [(F(1, 8), F(2, 8)), (F(3, 8), F(5, 8)), (F(4, 8), F(7, 8))]
        )
        reversal = PiecewiseLinearMap.reversal(UNIT)
        symmetric = PRule(median_positions(3, 2))
        report = check_stability(symmetric, profile, reversal)
        assert report.axiom == "strong-stability" and report.holds

    def test_asymmetric_rules_fail_reversal(self):
        profile = Profile.from_rows(
            UNIT, [(F(1, 8), F(2, 8)), (F(3, 8), F(5, 8)), (F(4, 8), F(7, 8))]
        )
        reversal = PiecewiseLinearMap.reversal(UNIT)
        report = check_stability(PRule(PositionVector((1, 1))), profile, reversal)
        assert report.verdict == VIOLATED
        assert report.witness["transformed_output"] == (F(3, 4), F(7, 8))
        assert report.witness["output_of_transformed"] == (F(1, 8), F(1, 2))

    def test_sampled_check_is_deterministic(self):
        first = check_stability_sampled(MeanRule(), 40, seed=9)
        second = check_stability_sampled(MeanRule(), 40, seed=9)
        assert first == second
        assert first.verdict == VIOLATED


class TestContinuitySurrogate:
    def test_median_is_one_lipschitz(self):
        profile = Profile.from_rows(
            UNIT, [(F(1, 8), F(2, 8)), (F(3, 8), F(5, 8)), (F(4, 8), F(7, 8))]
        )
        rule = PRule(median_positions(3, 2))
        assert check_lipschitz(rule, profile, F(1, 16), trials=8).holds

    def test_jump_rule_breaks_the_bound(self):
        # A tie in column 1 puts the jump rule at the maximum; almost any
        # perturbation breaks the tie and drops the output to the minimum.
        profile = Profile.from_rows(
            UNIT,
            [
                (F(1, 2), F(3, 4)),
                (F(1, 2), F(3, 4)),
                (F(7, 8), F(15, 16)),
            ],
        )
        report = check_lipschitz(
            fixture_rule("discontinuous-rule"), profile, F(1, 16), trials=40
        )
        assert report.verdict == VIOLATED
        assert report.witness["output_distance"] > report.witness["input_distance"]

    @pytest.mark.parametrize(
        "rule",
        [MeanRule(), DictatorRule(1), InfRule(), MultisetRule()],
        ids=["mean", "dictator", "inf", "multiset"],
    )
    @pytest.mark.parametrize("trials", [0, 1, 5, 40])
    def test_rows_without_boundaries_hold(self, rule, trials):
        # no value to perturb: both sup distances are over empty columns, so 0 <= 0
        profile = Profile((EndpointMultiset(UNIT, ()),) * 3)
        report = check_lipschitz(rule, profile, F(1, 16), trials=trials)
        assert report.verdict == HOLDS and report.trials == trials and report.witness is None


class TestMajoritarianWords:
    def test_supporter_sets(self, mixed_profile):
        sets = majority_word_sets(mixed_profile)
        assert sets == (
            frozenset({1, 3}),
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2}),
            frozenset({3}),
            frozenset({2, 3}),
            frozenset({3}),
            frozenset({2}),
        )

    def test_median_keeps_majority_words_here(self, mixed_profile):
        assert check_majoritarian_words(MEDIAN_3x3_wide(), mixed_profile).holds

    def test_every_position_rule_fails_on_a_shared_endpoint(self):
        profile = shared_endpoint_profile(F(9, 20))
        vectors = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        for p in vectors:
            report = check_majoritarian_words(PRule(PositionVector(p)), profile)
            assert report.verdict == VIOLATED, p
            assert report.witness["supporters"]
        mean_report = check_majoritarian_words(MeanRule(), profile)
        assert mean_report.holds

    def test_mean_output_on_the_shared_endpoint_profile(self):
        a = F(9, 20)
        profile = shared_endpoint_profile(a)
        out = apply_rule(profile, MeanRule())
        assert out.values == (2 * a / 3, (1 + 2 * a) / 3)
        assert out.values == (F(3, 10), F(19, 30))
        assert out.active_words() == (0, 1, 2)


def MEDIAN_3x3_wide() -> PRule:
    return PRule(median_positions(3, 7))


class TestMajoritarianExtents:
    def test_supporting_agents(self, grading_profile):
        agents = majority_extent_agents(grading_profile, 2, F(45), F(55))
        assert agents == frozenset({1, 3})
        report = check_majoritarian_extents(
            PRule(median_positions(3, 4)), grading_profile, 2, F(45), F(55)
        )
        assert report.holds

    def test_below_threshold_is_vacuous(self, grading_profile):
        # Only agent 1's word-2 extent [40, 60) covers (56, 59); one agent
        # out of three is no majority, so the all-minima rule may ignore it.
        assert majority_extent_agents(grading_profile, 2, F(56), F(59)) == frozenset(
            {1}
        )
        report = check_majoritarian_extents(
            PRule(PositionVector((1, 1, 1, 1))), grading_profile, 2, F(56), F(59)
        )
        assert report.holds

    def test_band_values(self):
        assert majoritarian_band(3) == (2, 2)
        assert majoritarian_band(5) == (3, 3)
        assert majoritarian_band(7) == (4, 4)
        assert majoritarian_band(4) == (2, 3)
        assert majoritarian_band(2) == (1, 2)
        assert majoritarian_band(3, weak=True) == (2, 2)
        assert majoritarian_band(5, weak=True) == (3, 3)
        lo, hi = majoritarian_band(4, weak=True)
        assert lo > hi  # no rank serves an exact half on both sides
        lo, hi = majoritarian_band(2, weak=True)
        assert lo > hi

    def test_no_rank_serves_a_weak_half_with_two_agents(self):
        domain = UNIT
        low_profile = Profile.from_rows(domain, [(F(3, 4),), (F(1, 4),)])
        report = check_majoritarian_extents(
            PRule(PositionVector((1,))), low_profile, 0, F(1, 2), F(5, 8), weak=True
        )
        assert report.verdict == VIOLATED
        high_profile = Profile.from_rows(domain, [(F(1, 4),), (F(3, 4),)])
        report = check_majoritarian_extents(
            PRule(PositionVector((2,))), high_profile, 1, F(3, 8), F(1, 2), weak=True
        )
        assert report.verdict == VIOLATED

    def test_search_finds_out_of_band_ranks(self):
        for p in [(1, 2), (2, 3), (1, 1), (3, 3)]:
            witness = search_extent_violation(
                PositionVector(p), n=3, trials=50, seed=3
            )
            assert witness is not None, p
            profile = Profile.from_rows(UNIT, witness["profile"])
            output = apply_rule(profile, PRule(PositionVector(p)))
            assert output.values == witness["output"]
            word, a, b = witness["word"], witness["a"], witness["b"]
            supporters = majority_extent_agents(profile, word, a, b)
            assert 2 * len(supporters) >= 4
            assert not (output.bound(word) <= a and b <= output.bound(word + 1))

    def test_search_clears_the_median(self):
        assert (
            search_extent_violation(PositionVector((2, 2)), n=3, trials=300, seed=3)
            is None
        )
        assert (
            search_extent_violation(PositionVector((3, 3)), n=5, trials=150, seed=3)
            is None
        )


class TestStrictResponsiveness:
    def test_position_rules_respond(self):
        report = check_strict_responsiveness(MEDIAN_3x3, trials=40, seed=2)
        assert report.holds

    def test_interior_phantom_blocks_a_raise(self):
        matrix = PhantomMatrix(UNIT, ((F(1, 2),),))
        report = check_strict_responsiveness(
            ExtendedMedianRule(matrix), trials=0, seed=2
        )
        assert report.verdict == VIOLATED
        assert report.witness["before"] == report.witness["after"] == F(1, 2)

    def test_the_phantom_probe_judges_the_rule(self):
        class PlainMedian(ExtendedMedianRule):
            """Carries interior phantoms but ignores them: the median of the reports."""

            def __call__(self, profile):
                return PRule(median_positions(profile.n, profile.m))(profile)

        matrix = PhantomMatrix(UNIT, ((F(1, 2), F(1, 2)), (F(1, 2), F(3, 4))))
        stuck = check_strict_responsiveness(ExtendedMedianRule(matrix), 0, 2)
        assert stuck.verdict == VIOLATED
        assert set(stuck.witness) == {"column_index", "phantom", "column", "shifted_column", "before", "after"}
        assert stuck.witness["before"] == stuck.witness["after"] == F(1, 2)
        assert check_strict_responsiveness(PlainMedian(matrix), 40, 2).holds

    def test_corner_phantoms_do_respond(self):
        from vocagg import boundary_phantoms

        matrix = boundary_phantoms(median_positions(3, 2), 3, UNIT)
        report = check_strict_responsiveness(
            ExtendedMedianRule(matrix), trials=40, seed=2
        )
        assert report.holds

    def test_random_trial_witness_replays(self):
        rule = InfRule()
        report = check_strict_responsiveness(rule, 10, 0, n=3, m=3)
        assert (report.verdict, report.seed, report.trials) == (VIOLATED, 0, 2)
        witness = report.witness
        assert witness["column"] == 1
        before = rule(Profile.from_rows(UNIT, witness["profile"]))
        after = rule(Profile.from_rows(UNIT, witness["raised"]))
        assert (before.values, after.values) == (witness["before"], witness["after"])
        assert not before.values[0] < after.values[0]
        for old, new in zip(witness["profile"], witness["raised"]):
            assert old[0] < new[0] and old[1:] == new[1:]

    def test_default_shape_matches_the_strategic_checkers(self):
        dictator = DictatorRule(5)
        assert sampling_shape(dictator, None, None, None) == (5, 2, UNIT)
        assert check_strict_responsiveness(dictator, 10, 1).holds
        assert sp_fuzz(dictator, 10, 1) is None


class TestTrialCounts:
    @pytest.mark.parametrize(
        "checker",
        [
            check_unanimity,
            check_anonymity,
            check_stability_sampled,
            check_strict_responsiveness,
            run_axiom_battery,
            sp_fuzz,
            uncompromising_fuzz,
            check_separability_on_deviations,
        ],
    )
    def test_negative_trials_are_refused(self, checker):
        with pytest.raises(ValueError, match="trials"):
            checker(MEDIAN_3x3, -1, 0)

    def test_negative_trials_are_refused_by_the_shape_specific_checkers(self, grading_profile):
        with pytest.raises(ValueError, match="trials"):
            check_lipschitz(MEDIAN_3x3, grading_profile, F(1, 16), trials=-1)
        with pytest.raises(ValueError, match="trials"):
            search_extent_violation(PositionVector((2, 2, 2)), 3, -1, 0)


GRADES = Domain(F(0), F(100))

# rules whose own shape is not 3x3
OFF_SQUARE_RULES = {
    "p-rule-1-2": PRule(PositionVector((1, 2))),
    "dictator-5": DictatorRule(5),
    "two-column-emed": ExtendedMedianRule(
        PhantomMatrix(UNIT, ((F(1, 4), F(1, 3)), (F(1, 2), F(3, 4))))
    ),
}

# every sampled checker that takes the caller's n and m
COUNTED_CHECKERS = [
    check_unanimity,
    check_anonymity,
    check_stability_sampled,
    check_strict_responsiveness,
    check_separability_on_deviations,
    run_axiom_battery,
    sp_fuzz,
    uncompromising_fuzz,
]


class TestShapePolicy:
    """A checker given no domain samples the rule's own, like sp_fuzz does."""

    @pytest.fixture
    def graded_median(self):
        from vocagg import boundary_phantoms

        return ExtendedMedianRule(boundary_phantoms(median_positions(3, 3), 3, GRADES))

    @pytest.mark.parametrize(
        "checker",
        [
            check_unanimity,
            check_anonymity,
            check_stability_sampled,
            check_strict_responsiveness,
            check_separability_on_deviations,
        ],
    )
    def test_checkers_sample_the_rule_domain(self, graded_median, checker):
        report = checker(graded_median, 40, 3)
        assert report.holds and report.trials == 40
        assert report == checker(graded_median, 40, 3, domain=GRADES)

    def test_battery_samples_the_rule_domain(self, graded_median):
        battery = run_axiom_battery(graded_median, 40, 3)
        assert all(report.holds for report in battery.values())
        assert battery == run_axiom_battery(graded_median, 40, 3, domain=GRADES)

    @pytest.mark.parametrize("rule", OFF_SQUARE_RULES.values(), ids=OFF_SQUARE_RULES)
    @pytest.mark.parametrize(
        "checker",
        [check_unanimity, check_anonymity, check_stability_sampled, run_axiom_battery],
    )
    def test_checkers_sample_the_rule_shape(self, rule, checker):
        n, m, domain = rule.default_shape()
        assert checker(rule, 40, 3) == checker(rule, 40, 3, n=n, m=m, domain=domain)

    def test_fuzzers_sample_the_rule_domain(self, graded_median):
        assert sp_fuzz(graded_median, 200, 3) is None
        assert uncompromising_fuzz(graded_median, 200, 3) is None

    @pytest.mark.parametrize("checker", COUNTED_CHECKERS)
    def test_an_explicit_count_is_kept(self, checker):
        # zero agents is the caller's choice, refused, not replaced by a default
        with pytest.raises(ShapeMismatch, match="at least one agent"):
            checker(MEDIAN_3x3, 5, 0, n=0)

    @pytest.mark.parametrize("checker", COUNTED_CHECKERS)
    def test_an_explicit_boundary_count_is_kept(self, checker):
        with pytest.raises(ShapeMismatch, match="at least one boundary"):
            checker(MEDIAN_3x3, 5, 0, m=0)

    def test_zero_agents_never_reach_the_phantom_probe(self):
        interior = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(1, 3), F(1, 2)),)))
        with pytest.raises(ShapeMismatch, match="at least one agent"):
            check_strict_responsiveness(interior, 5, 0, n=0)


class TestFixtures:
    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            fixture_rule("nonesuch")

    def test_a_fixture_name_that_is_no_string_is_unknown(self):
        with pytest.raises(UnknownFixture):
            fixture_rule(["inf-rule"])

    @pytest.mark.parametrize("name,target", sorted(FIXTURE_TARGETS.items()))
    def test_each_fixture_breaks_exactly_its_axiom(self, name, target):
        battery = run_axiom_battery(fixture_rule(name), trials=120, seed=11)
        for axiom, report in battery.items():
            if axiom == target:
                assert report.verdict == VIOLATED, axiom
            else:
                assert report.holds, (axiom, report.witness)

    def test_median_passes_the_battery(self):
        battery = run_axiom_battery(MEDIAN_3x3, trials=120, seed=11)
        assert all(report.holds for report in battery.values())

    def test_battery_is_deterministic(self):
        one = run_axiom_battery(fixture_rule("mean"), trials=60, seed=4)
        two = run_axiom_battery(fixture_rule("mean"), trials=60, seed=4)
        assert one == two
