import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from vocagg import (
    DictatorRule,
    Domain,
    DomainMismatch,
    EndpointMultiset,
    EvenAgentCount,
    ExtendedMedianRule,
    IndexOutOfRange,
    MeanRule,
    MultisetRule,
    ParityViolation,
    PhantomMatrix,
    PositionVector,
    Profile,
    PRule,
    ShapeMismatch,
    apply_rule,
    boundary_phantoms,
    check_separability_on_deviations,
    check_strict_responsiveness,
    is_symmetric,
    median_positions,
    run_axiom_battery,
    sp_fuzz,
    uncompromising_fuzz,
)
from vocagg.core import order_key, select
from vocagg.exemplars import GAP_ORDERS
from vocagg.rules import apply_p_rule_reversed
from vocagg.sampling import (
    _draw, _draws, _lattice_points, _lattice_table, first_hit, lattice_rows, random_picks, random_profile, random_weights, refine, spawn,
    strict_picks,
)

UNIT = Domain(F(0), F(1))
THIRDS = Domain(F(1, 3), F(2, 3))
TINY = F(1, 2**80)  # below the 2**-64 resolution of the order keys


def reference(values, ranks):
    """The selection every rule is defined by: sort the fractions, index."""
    ordered = sorted(values)
    return [ordered[k - 1] for k in ranks]


class TestPositionVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PositionVector((0, 1))
        with pytest.raises(ValueError):
            PositionVector((3, 2))
        with pytest.raises(ShapeMismatch):
            PositionVector(())
        PositionVector((2, 2, 4)).validate_for(5)
        with pytest.raises(IndexOutOfRange):
            PositionVector((2, 2, 4)).validate_for(3)

    def test_median_positions_split_the_middle_ranks(self):
        assert median_positions(3, 4).positions == (2, 2, 2, 2)
        assert median_positions(4, 2).positions == (2, 3)
        assert median_positions(5, 3).positions == (3, 3, 3)
        assert median_positions(5, 4).positions == (3, 3, 3, 3)
        assert median_positions(1, 3).positions == (1, 1, 1)
        assert median_positions(2, 4).positions == (1, 1, 2, 2)

    def test_median_needs_the_parity_condition(self):
        with pytest.raises(ParityViolation):
            median_positions(4, 3)
        with pytest.raises(ParityViolation):
            median_positions(2, 1)
        with pytest.raises(ShapeMismatch):
            median_positions(0, 3)

    def test_is_symmetric(self):
        assert is_symmetric(PositionVector((2, 3, 4)), n=5)
        assert is_symmetric(PositionVector((2, 3)), n=4)
        assert is_symmetric(PositionVector((2, 2)), n=3)
        assert not is_symmetric(PositionVector((2, 2, 4)), n=5)
        assert not is_symmetric(PositionVector((1, 1)), n=3)
        with pytest.raises(IndexOutOfRange):
            is_symmetric(PositionVector((2, 3, 4)), n=3)

    def test_median_vector_is_symmetric_whenever_defined(self):
        for n in (1, 3, 5, 7):
            for m in (1, 2, 3, 4, 5):
                assert is_symmetric(median_positions(n, m), n)
        for n in (2, 4):
            for m in (2, 4):
                assert is_symmetric(median_positions(n, m), n)


class TestGoldenExample:
    """The three-grader profile and its four collective scales."""

    def test_median(self, grading_profile):
        out = PRule(median_positions(3, 4))(grading_profile)
        assert out.values == (F(20), F(40), F(55), F(70))

    def test_mean_is_exact(self, grading_profile):
        out = MeanRule()(grading_profile)
        assert out.values == (F(20), F(35), F(145, 3), F(200, 3))
        assert out.values[2] == F("48.33") + F(1, 300)

    def test_dictator(self, grading_profile):
        assert DictatorRule(2)(grading_profile).values == (10, 20, 30, 50)
        with pytest.raises(IndexOutOfRange):
            DictatorRule(4)(grading_profile)
        with pytest.raises(IndexOutOfRange):
            DictatorRule(0)(grading_profile)

    def test_multiset_pools_all_endpoints(self, grading_profile):
        pooled = sorted(v for row in grading_profile.values() for v in row)
        assert pooled == [10, 20, 20, 30, 30, 40, 45, 50, 55, 60, 70, 80]
        out = MultisetRule()(grading_profile)
        assert out.values == (F(20), F(30), F(50), F(70))

    def test_multiset_needs_an_odd_count(self, grades):
        profile = Profile.from_rows(grades, [(10, 20), (30, 40)])
        with pytest.raises(EvenAgentCount):
            MultisetRule()(profile)

    def test_dispatch_matches_direct_evaluation(self, grading_profile):
        cases = [
            (PRule(median_positions(3, 4)), (F(20), F(40), F(55), F(70))),
            (MeanRule(), (F(20), F(35), F(145, 3), F(200, 3))),
            (DictatorRule(2), (F(10), F(20), F(30), F(50))),
            (MultisetRule(), (F(20), F(30), F(50), F(70))),
        ]
        for rule, expected in cases:
            assert apply_rule(grading_profile, rule) == rule(grading_profile)
            assert apply_rule(grading_profile, rule).values == expected
        with pytest.raises(ShapeMismatch):
            apply_rule(grading_profile, "median")


class TestOrderReversal:
    """A symmetric vector reads the same from either end of the line."""

    @pytest.fixture
    def five_agents(self):
        return Profile.from_rows(
            Domain(F(0), F(11)),
            [(1, 4, 9), (2, 6, 7), (3, 4, 10), (4, 5, 6), (5, 6, 8)],
        )

    def test_direct_selection(self, five_agents):
        out = PRule(PositionVector((2, 3, 4)))(five_agents)
        assert out.values == (F(2), F(5), F(9))

    def test_reversed_selection(self, five_agents):
        out = apply_p_rule_reversed(five_agents, PositionVector((2, 3, 4)))
        assert out == (F(9), F(5), F(2))

    def test_symmetric_rules_commute_with_reversal(self, five_agents):
        for p in [(2, 3, 4), (1, 3, 5), (3, 3, 3)]:
            vector = PositionVector(p)
            assert is_symmetric(vector, 5)
            direct = PRule(vector)(five_agents).values
            reversed_read = apply_p_rule_reversed(five_agents, vector)
            assert tuple(reversed(reversed_read)) == direct

    def test_asymmetric_rules_generally_do_not(self, five_agents):
        vector = PositionVector((1, 1, 1))
        direct = PRule(vector)(five_agents).values
        reversed_read = apply_p_rule_reversed(five_agents, vector)
        assert tuple(reversed(reversed_read)) != direct

    def test_shape_validation(self, five_agents):
        with pytest.raises(ShapeMismatch):
            PRule(PositionVector((2, 3)))(five_agents)
        with pytest.raises(IndexOutOfRange):
            PRule(PositionVector((2, 3, 6)))(five_agents)


@st.composite
def sorted_rows(draw, n, m):
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=8),
            min_size=n * m,
            max_size=n * m,
        )
    )
    rows = []
    for i in range(n):
        rows.append(tuple(sorted(values[i * m : (i + 1) * m])))
    return Profile.from_rows(UNIT, rows)


def assert_born_valid(out):
    """``out``, built without validation, is what the validating constructor builds."""
    assert type(out.values) is tuple and all(type(v) is F for v in out.values)
    assert out == EndpointMultiset(out.domain, out.values)
    assert out.keys == tuple(map(order_key, out.values))


class TestOutputsStayConsistent:
    """Every rule's output is again a nondecreasing endpoint multiset.

    The rules build their outputs without validating them, so each output
    is compared with the validating constructor's.
    """

    @given(profile=sorted_rows(3, 4), data=st.data())
    def test_p_rules(self, profile, data):
        p = data.draw(
            st.lists(st.integers(1, 3), min_size=4, max_size=4).map(sorted)
        )
        out = PRule(PositionVector(tuple(p)))(profile)
        assert all(a <= b for a, b in zip(out.values, out.values[1:]))
        assert_born_valid(out)

    @given(profile=sorted_rows(3, 3))
    def test_mean_and_multiset(self, profile):
        assert_born_valid(MeanRule()(profile))
        assert_born_valid(MultisetRule()(profile))


class TestPhantomMatrix:
    def test_validation(self):
        PhantomMatrix(UNIT, ((F(0), F(1, 2)), (F(1, 4), F(1, 2))))
        with pytest.raises(ValueError):
            PhantomMatrix(UNIT, ((F(1, 2), F(1, 4)),))
        with pytest.raises(ValueError):
            PhantomMatrix(UNIT, ((F(1, 2),), (F(1, 4),)))
        with pytest.raises(ValueError):
            PhantomMatrix(UNIT, ((F(2),),))
        with pytest.raises(ShapeMismatch):
            PhantomMatrix(UNIT, ((F(0), F(1)), (F(0),)))
        with pytest.raises(ShapeMismatch):
            PhantomMatrix(UNIT, ())

    @pytest.mark.parametrize(
        "domain,columns",
        [
            (UNIT, ((F(0), F(0), F(1)), (F(0), F(1), F(1)))),
            (UNIT, ((TINY, F(1, 2)), (F(1, 2) + TINY, 1 - TINY))),
            (THIRDS, ((F(1, 3), F(1, 3) + TINY), (F(1, 3) + TINY, F(2, 3)))),
        ],
        ids=["corners", "unit-2^-80-inside", "thirds-2^-80-inside"],
    )
    def test_values_at_and_just_inside_the_corners_accepted(self, domain, columns):
        assert PhantomMatrix(domain, columns).columns == columns

    @pytest.mark.parametrize(
        "domain,columns,message",
        [
            (UNIT, ((-TINY,),), f"phantom {-TINY} outside the closed domain"),
            (UNIT, ((1 + TINY,),), f"phantom {1 + TINY} outside the closed domain"),
            (THIRDS, ((F(1, 3) - TINY,),), f"phantom {F(1, 3) - TINY} outside the closed domain"),
            (THIRDS, ((F(2, 3) + TINY,),), f"phantom {F(2, 3) + TINY} outside the closed domain"),
            (
                UNIT,
                ((F(1, 2) + TINY, F(1, 2)),),
                f"phantom column not sorted: {F(1, 2) + TINY} > 1/2",
            ),
            (
                THIRDS,
                ((F(1, 2) + TINY, F(1, 2) + TINY), (F(1, 2), F(2, 3))),
                f"phantoms decrease across columns: {F(1, 2) + TINY} > 1/2",
            ),
        ],
        ids=[
            "lower-minus-2^-80",
            "upper-plus-2^-80",
            "third-minus-2^-80",
            "two-thirds-plus-2^-80",
            "column-2^-80-unsorted",
            "columns-2^-80-decreasing",
        ],
    )
    def test_edge_values_rejected(self, domain, columns, message):
        with pytest.raises(ValueError) as caught:
            PhantomMatrix(domain, columns)
        assert str(caught.value) == message

    def test_shape_properties(self):
        matrix = PhantomMatrix(UNIT, ((F(0), F(1)), (F(0), F(1))))
        assert (matrix.n, matrix.m) == (3, 2)

    def test_keeps_its_order_keys_outside_equality(self):
        matrix = PhantomMatrix(UNIT, ((F(0), F(1, 3)), ("1/3", F(1))))
        assert matrix.keys == ((0, order_key(F(1, 3))), (order_key(F(1, 3)), 2**64))
        same = PhantomMatrix(UNIT, ((F(0), F(1, 3)), (F(1, 3), F(1))))
        assert matrix == same and hash(matrix) == hash(same)
        assert "keys" not in repr(matrix)


# Values that stress the order keys: near-ties closer than 2**-64 (which
# share a key), negative values and values past 2**64, coprime
# denominators, and plain small lattice points.
PRIMES = (1_000_003, 1_000_033, 1_000_037, 1_000_039, 2**61 - 1)
hard_values = st.one_of(
    st.integers(-4, 4).map(lambda k: F(1, 2) + k * TINY),
    st.integers(-4, 4).map(lambda k: F(-1, 3) + k * TINY),
    st.integers(-(2**70), 2**70).map(F),
    st.integers(-4, 4).map(lambda k: F(2**65, 3) + k * TINY),
    st.builds(F, st.integers(-(10**7), 10**7), st.sampled_from(PRIMES)),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
)
WIDE = Domain(F(-(2**71)), F(2**71))


def heavy_duplicates(min_size, max_size):
    """Lists drawn from a pool of at most five values: many exact repeats."""
    return st.lists(hard_values, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)
    )


@st.composite
def hard_profiles(draw, n=None, m=None):
    n = draw(st.integers(1, 7)) if n is None else n
    m = draw(st.integers(1, 4)) if m is None else m
    values = draw(heavy_duplicates(n * m, n * m))
    rows = [tuple(sorted(values[i * m : (i + 1) * m])) for i in range(n)]
    return Profile.from_rows(WIDE, rows)


class TestSelectionMatchesSortedFractions:
    """The key-ordered selection returns exactly what sorting fractions does."""

    @given(values=heavy_duplicates(1, 40), data=st.data())
    def test_order_statistics(self, values, data):
        ranks = data.draw(st.lists(st.integers(1, len(values)), max_size=6))
        keys = list(map(order_key, values))
        assert [select(values, keys, (k,))[0][0] for k in ranks] == reference(values, ranks)

    @given(profile=hard_profiles(), data=st.data())
    def test_p_rule_both_directions(self, profile, data):
        n, m = profile.n, profile.m
        positions = PositionVector(
            tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))))
        )
        columns = [profile.column(k) for k in range(1, m + 1)]
        expected = [reference(c, [p])[0] for c, p in zip(columns, positions.positions)]
        assert list(PRule(positions)(profile).values) == expected
        reversed_expected = [
            reference(columns[m - k], [n + 1 - p])[0]
            for k, p in enumerate(positions.positions, start=1)
        ]
        assert list(apply_p_rule_reversed(profile, positions)) == reversed_expected

    @given(profile=hard_profiles(), data=st.data())
    def test_extended_median(self, profile, data):
        n, m = profile.n, profile.m
        rows = [
            sorted(data.draw(heavy_duplicates(m, m))) for _ in range(n - 1)
        ]
        columns = tuple(tuple(sorted(column)) for column in zip(*rows)) or ((),) * m
        out = ExtendedMedianRule(PhantomMatrix(WIDE, columns))(profile)
        expected = [
            reference(list(profile.column(k)) + list(columns[k - 1]), [n])[0]
            for k in range(1, m + 1)
        ]
        assert list(out.values) == expected

    @given(profile=st.integers(0, 3).flatmap(lambda h: hard_profiles(n=2 * h + 1)))
    def test_multiset(self, profile):
        n, m = profile.n, profile.m
        pooled = [v for row in profile.values() for v in row]
        ranks = [(k - 1) * n + (n + 1) // 2 for k in range(1, m + 1)]
        assert list(MultisetRule()(profile).values) == reference(pooled, ranks)


    @given(data=st.data())
    def test_rules_on_columns_of_one_order_key(self, data):
        # column k holds base_k + j * 2**-80 for small j: one order key, distinct
        # values, so every selection rests on the exact tie-break
        n = data.draw(st.sampled_from([1, 3, 5]))
        m = data.draw(st.integers(1, 3))
        bases = [F(3 * k - 1, 3 * m + 3) for k in range(1, m + 1)]

        def near(base, count):
            offsets = data.draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
            return sorted(base + j * TINY for j in offsets)

        columns = [near(base, n) for base in bases]
        profile = Profile.from_rows(UNIT, zip(*columns))
        assert {order_key(v) for v in profile.column(1)} == {order_key(bases[0])}
        positions = sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
        assert list(PRule(PositionVector(tuple(positions)))(profile).values) == [
            reference(profile.column(k), [p])[0] for k, p in enumerate(positions, start=1)
        ]
        phantoms = [tuple(near(base, n - 1)) for base in bases]
        assert list(ExtendedMedianRule(PhantomMatrix(UNIT, tuple(phantoms)))(profile).values) == [
            reference(profile.column(k) + phantoms[k - 1], [n])[0] for k in range(1, m + 1)
        ]
        pooled = [v for row in profile.values() for v in row]
        ranks = [(k - 1) * n + (n + 1) // 2 for k in range(1, m + 1)]
        assert list(MultisetRule()(profile).values) == reference(pooled, ranks)


def reference_select(values, keys, ranks):
    """``core.select`` as it was before its one-rank path, kept verbatim: it
    sorts the indices by key for every call, whatever the number of ranks."""
    order = sorted(range(len(values)), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in order]
    out = []
    for k in ranks:
        key = sorted_keys[k - 1]
        lo = bisect_left(sorted_keys, key, 0, k - 1)
        hi = bisect_right(sorted_keys, key, k)
        if hi - lo == 1:
            out.append((values[order[lo]], key))
        else:
            run = [values[i] for i in order[lo:hi]]
            # ``count`` tests identity before equality: a run of one object or of
            # equal values is already sorted
            if run.count(run[0]) != len(run):
                run.sort()
            out.append((run[k - 1 - lo], key))
    return out


@st.composite
def repeated_values(draw, max_size=40):
    """Lists drawn from a pool of ``hard_values``, each pick either the pool's
    own object (a run of one object) or a fresh equal copy (a run of
    distinct but equal objects)."""
    picks = draw(heavy_duplicates(1, max_size))
    fresh = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    return [F(v.numerator, v.denominator) if copy else v for v, copy in zip(picks, fresh)]


def rank_lists(n):
    """One rank, as every caller but the pooled multiset asks, or several."""
    return st.one_of(
        st.integers(1, n).map(lambda k: (k,)),
        st.lists(st.integers(1, n), min_size=2, max_size=6),
    )


class TestSelectMatchesTheIndexSort:
    """``select`` hands back the very objects ``reference_select`` does."""

    @staticmethod
    def assert_same_objects(values, keys, ranks):
        got, expected = select(values, keys, ranks), reference_select(values, keys, ranks)
        assert got == expected
        assert all(g is e for (g, _), (e, _) in zip(got, expected))

    @given(values=repeated_values(), data=st.data())
    def test_values_by_order_key(self, values, data):
        ranks = data.draw(rank_lists(len(values)))
        self.assert_same_objects(values, list(map(order_key, values)), ranks)

    @given(values=repeated_values(), data=st.data())
    def test_values_by_a_coarser_key(self, values, data):
        # floor(v) never decreases as v grows, and ties unequal values
        ranks = data.draw(rank_lists(len(values)))
        self.assert_same_objects(values, [v.numerator // v.denominator for v in values], ranks)

    @given(ends=repeated_values(max_size=30), order=st.sampled_from(sorted(GAP_ORDERS)), data=st.data())
    def test_gap_items(self, ends, order, data):
        # keyed as ``aggregate_gaps`` keys them: by the first component of each pair
        gaps = [tuple(sorted(pair)) for pair in zip(ends, ends[1:] + ends[:1])]
        ranked = [(GAP_ORDERS[order](gap), gap) for gap in gaps]
        keys = [order_key(pair[0]) for pair, _ in ranked]
        self.assert_same_objects(ranked, keys, data.draw(rank_lists(len(ranked))))

    def test_named_runs(self):
        near = [F(1, 2) + j * TINY for j in (3, -2, 0, 3, -4)]
        equal = [F(1, 3) for _ in range(4)]
        one = F(-(2**70), 7)
        for values in (near, equal, [one] * 5, [one, *equal, F(2**65, 3), *near, one]):
            keys = list(map(order_key, values))
            for k in range(1, len(values) + 1):
                self.assert_same_objects(values, keys, (k,))
            self.assert_same_objects(values, keys, range(len(values), 0, -1))


class TestExtendedMedian:
    @staticmethod
    def on_column(rule, column):
        """``rule`` on the one-boundary profile whose agents report ``column``."""
        return rule(Profile.from_rows(UNIT, [(x,) for x in column])).values[0]

    def test_interior_phantom_can_absorb_a_shift(self):
        rule = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(1, 2),),)))
        assert self.on_column(rule, (F(2, 10), F(7, 10))) == F(1, 2)
        assert self.on_column(rule, (F(3, 10), F(8, 10))) == F(1, 2)

    def test_phantom_count_must_be_n_minus_one(self):
        rule = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(0), F(1)),)))
        with pytest.raises(ShapeMismatch, match="sized for n=3, profile has n=2"):
            self.on_column(rule, (F(1, 2), F(1, 2)))

    def test_all_lower_phantoms_take_the_minimum(self):
        column = (F(1, 4), F(1, 2), F(3, 4))
        lower = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(0), F(0)),)))
        upper = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(1), F(1)),)))
        assert self.on_column(lower, column) == F(1, 4)
        assert self.on_column(upper, column) == F(3, 4)

    def test_boundary_phantoms_replay_any_position_rule(self):
        lattice = [F(j, 4) for j in range(5)]
        columns = [
            (x, y, z) for x in lattice for y in lattice for z in lattice
        ]
        for p in (1, 2, 3):
            positions = PositionVector((p,))
            replay = ExtendedMedianRule(boundary_phantoms(positions, 3, UNIT))
            for column in columns:
                assert self.on_column(replay, column) == self.on_column(PRule(positions), column)

    @given(
        column=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=32),
            min_size=5,
            max_size=5,
        ),
        p=st.integers(1, 5),
    )
    def test_boundary_phantom_equivalence_property(self, column, p):
        positions = PositionVector((p,))
        replay = ExtendedMedianRule(boundary_phantoms(positions, 5, UNIT))
        assert self.on_column(replay, column) == self.on_column(PRule(positions), column)

    def test_apply_needs_the_phantoms_domain(self):
        profile = Profile.from_rows(THIRDS, [(F(1, 2),)] * 3)
        rule = ExtendedMedianRule(PhantomMatrix(UNIT, ((F(0), F(1)),)))
        with pytest.raises(DomainMismatch, match="phantom matrix over a different domain"):
            rule(profile)

    def test_apply_validates_shapes(self):
        profile = Profile.from_rows(UNIT, [(F(1, 4), F(1, 2))] * 3)
        good = PhantomMatrix(UNIT, ((F(0), F(1)), (F(0), F(1))))
        assert apply_rule(profile, ExtendedMedianRule(good)).values == (
            F(1, 4),
            F(1, 2),
        )
        wrong_m = PhantomMatrix(UNIT, ((F(0), F(1)),))
        with pytest.raises(ShapeMismatch):
            apply_rule(profile, ExtendedMedianRule(wrong_m))
        wrong_n = PhantomMatrix(UNIT, ((F(0),), (F(0),)))
        with pytest.raises(ShapeMismatch):
            apply_rule(profile, ExtendedMedianRule(wrong_n))

    def test_median_is_the_all_interior_free_case(self):
        profile = Profile.from_rows(
            UNIT, [(F(1, 8), F(5, 8)), (F(2, 8), F(6, 8)), (F(3, 8), F(7, 8))]
        )
        matrix = boundary_phantoms(median_positions(3, 2), 3, UNIT)
        assert apply_rule(profile, ExtendedMedianRule(matrix)) == apply_rule(
            profile, PRule(median_positions(3, 2))
        )


# ---------------------------------------------------------------------------
# born-valid outputs and sampled rows

BORN_DOMAINS = [UNIT, Domain(F(0), F(100)), Domain(F(-1), F(1)), Domain(F(1, 3), F(7, 5))]


@st.composite
def born_valid_profiles(draw, n=None):
    """Profiles whose columns tie often, over a pool of corners, values with
    coprime denominators, and distinct values within 2**-64 of each other,
    which share an order key."""
    domain = draw(st.sampled_from(BORN_DOMAINS))
    lower, upper = domain.lower, domain.upper
    span = upper - lower
    value = st.one_of(
        st.sampled_from([lower, upper]),
        st.integers(0, 4).map(lambda k: lower + k * TINY),
        st.integers(0, 4).map(lambda k: upper - k * TINY),
        st.integers(-4, 4).map(lambda k: lower + span / 2 + k * TINY),
        st.builds(
            lambda j, prime: lower + span * F(j % prime, prime),
            st.integers(0, 10**7),
            st.sampled_from(PRIMES),
        ),
        st.integers(0, 16).map(lambda j: lower + span * F(j, 16)),
    )
    pool = draw(st.lists(value, min_size=1, max_size=5))
    n = draw(st.integers(1, 7)) if n is None else n
    m = draw(st.integers(1, 4))
    rows = [sorted(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))) for _ in range(n)]
    return Profile.from_rows(domain, rows), pool


class TestBornValid:
    """Rule outputs and sampled rows are built without validation; each equals,
    keys included, what the validating constructor builds from its values."""

    @given(case=born_valid_profiles(), data=st.data())
    def test_rule_outputs(self, case, data):
        profile, pool = case
        n, m = profile.n, profile.m
        ranks = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))))
        rows = [sorted(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))) for _ in range(n - 1)]
        interior = tuple(tuple(sorted(column)) for column in zip(*rows)) or ((),) * m
        rules = [
            PRule(PositionVector(ranks)),
            ExtendedMedianRule(boundary_phantoms(ranks, n, profile.domain)),
            ExtendedMedianRule(PhantomMatrix(profile.domain, interior)),
            MeanRule(),
        ]
        if n % 2:
            rules.append(MultisetRule())
        for rule in rules:
            assert_born_valid(rule(profile))

    # 1000 lies past the finest tabled lattice, so only its drawn points are built
    @pytest.mark.parametrize("denominator", [4, 16, 32, 64, 97, 1000])
    @pytest.mark.parametrize("domain", BORN_DOMAINS, ids=["unit", "hundred", "signed", "thirds"])
    def test_random_profile_rows_are_the_sorted_draws(self, domain, denominator):
        lower, span = domain.lower, domain.upper - domain.lower
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            profile = random_profile(ours, domain, 3, 3, denominator=denominator)
            draws = [lower + span * F(theirs.randint(1, denominator - 1), denominator) for _ in range(9)]
            expected = tuple(tuple(sorted(draws[i : i + 3])) for i in (0, 3, 6))
            assert profile.values() == expected and ours.getstate() == theirs.getstate()
            for row in profile.rows:
                assert_born_valid(row)
                assert row.domain is domain

    @pytest.mark.parametrize("denominator", [4, 16, 32, 64, 97, 1000])
    @pytest.mark.parametrize("domain", BORN_DOMAINS, ids=["unit", "hundred", "signed", "thirds"])
    def test_strict_rows_are_the_sorted_draws(self, domain, denominator):
        lower, span = domain.lower, domain.upper - domain.lower
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            m = seed % 4
            (report,) = lattice_rows(domain, denominator, [strict_picks(ours, m, denominator)])
            picks = sorted(theirs.sample(range(1, denominator), m))
            row = report.values
            assert row == tuple(lower + span * F(j, denominator) for j in picks)
            assert ours.getstate() == theirs.getstate()
            assert all(a < b for a, b in zip(row, row[1:]))
            assert_born_valid(report)

    @pytest.mark.parametrize("denominator", [2, 16, 1000])
    @pytest.mark.parametrize("domain", BORN_DOMAINS, ids=["unit", "hundred", "signed", "thirds"])
    def test_rows_with_ends_are_the_sorted_draws(self, domain, denominator):
        """The fuzzers' fresh rows: the corners are drawn too."""
        lower, span = domain.lower, domain.upper - domain.lower
        corners = 0
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            (report,) = lattice_rows(domain, denominator, random_picks(ours, 1, 4, denominator, ends=True))
            draws = [lower + span * F(theirs.randint(0, denominator), denominator) for _ in range(4)]
            assert report.values == tuple(sorted(draws)) and ours.getstate() == theirs.getstate()
            assert_born_valid(report)
            corners += sum(v in (domain.lower, domain.upper) for v in report.values)
        assert corners or denominator == 1000

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        domain=st.sampled_from(BORN_DOMAINS),
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        grid=st.sampled_from([2, 4, 16, 1000]),
        mean=st.booleans(),
    )
    def test_checker_profiles(self, seed, domain, n, m, grid, mean):
        """Every profile a checker hands its rule: sampled, spliced (unanimity),
        relabeled (stability), perturbed (continuity), strict and raised
        (responsiveness), resampled (separability), and with a misreport or a
        deviation in it (the fuzzers)."""
        rule = MeanRule() if mean else PRule(PositionVector((1 + n // 2,) * m))
        seen = []

        def recording(profile):
            seen.append(profile)
            return rule(profile)

        shape = {"domain": domain, "n": n, "m": m}
        run_axiom_battery(recording, 2, seed, **shape)
        check_strict_responsiveness(recording, 2, seed, **shape)
        check_separability_on_deviations(recording, 2, seed, **shape)
        sp_fuzz(recording, 2, seed, grid, **shape)
        uncompromising_fuzz(recording, 2, seed, **shape)
        assert seen
        for profile in seen:
            assert profile == Profile.from_rows(domain, profile.values())
            for row in profile.rows:
                assert_born_valid(row)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "domain", [UNIT, Domain(F(-1), F(1, 3)), Domain(F(0), F(100))], ids=["unit", "signed", "hundred"]
    )
    def test_raised_rows_are_the_fraction_formula(self, domain, m):
        """Responsiveness raises column k of each strict row x by r/8 of its
        slack, x_k + (bound(k + 1) - x_k) * r / 8 with r drawn in 1..7, read
        off the 512-step lattice; replayed here from the trials' generators
        with that formula, for every k, k = m included."""
        rule = PRule(median_positions(3, m))
        seen = []

        def recording(profile):
            seen.append(profile)
            return rule(profile)

        trials = 12 * m
        assert check_strict_responsiveness(recording, trials, 5, domain=domain, n=3, m=m).holds
        columns = set()
        for t in range(trials):
            rng = spawn(5, "responsiveness", t)
            profile = Profile._from_valid(lattice_rows(domain, 64, [strict_picks(rng, m, 64) for _ in range(3)]))
            k = rng.randint(1, m)
            expected = []
            for row in profile.rows:
                shifted = list(row.values)
                shifted[k - 1] += (row.bound(k + 1) - row.values[k - 1]) * F(rng.randint(1, 7), 8)
                expected.append(tuple(shifted))
            before, raised = seen[2 * t : 2 * t + 2]
            assert before == profile and raised.values() == tuple(expected)
            for row in raised.rows:
                assert_born_valid(row)
            columns.add(k)
        assert columns == set(range(1, m + 1))


def reference_rule(rule, profile):
    """``PRule`` and ``ExtendedMedianRule`` as they were before ``select_columns``,
    kept verbatim: one ``select`` call per column, whose (value, key) pairs
    ``_collective`` unzips."""

    def _columns(profile):
        rows = profile.rows
        return zip(*(row.values for row in rows)), zip(*(row.keys for row in rows))

    def _collective(domain, picked):
        values, keys = zip(*picked) if picked else ((), ())
        return EndpointMultiset._from_valid(domain, values, keys)

    if isinstance(rule, PRule):
        rule.positions.check_profile(profile)
        picked = [
            select(column, keys, (p,))[0]
            for column, keys, p in zip(*_columns(profile), rule.positions.positions)
        ]
        return _collective(profile.domain, picked)
    columns = rule.phantom_columns(profile.n, profile.m, profile.domain)
    picked = [
        select(column + phantom, keys + phantom_keys, (profile.n,))[0]
        for column, keys, phantom, phantom_keys in zip(
            *_columns(profile), columns, rule.phantoms.keys
        )
    ]
    return _collective(profile.domain, picked)


def reference_lattice_rows(domain, denominator, picks):
    """``lattice_rows`` as it was before it built its rows inline, kept verbatim."""
    lower, upper = domain.lower, domain.upper
    if denominator <= 512:
        points, keys = _lattice_table(
            lower.numerator, lower.denominator, upper.numerator, upper.denominator, denominator
        )
    else:
        drawn = list({j for row in picks for j in row})
        points = dict(zip(drawn, _lattice_points(lower, upper, denominator, drawn)))
        keys = {j: order_key(q) for j, q in points.items()}
    return tuple(
        EndpointMultiset._from_valid(
            domain, tuple([points[j] for j in row]), tuple([keys[j] for j in row])
        )
        for row in picks
    )


@st.composite
def repeated_profiles(draw):
    """Profiles over ``repeated_values``: runs of one object and runs of
    distinct but equal objects, kept as they are by ``Profile.from_rows``."""
    values = draw(repeated_values())
    n = draw(st.integers(1, min(7, len(values))))
    m = min(4, len(values) // n)
    return Profile.from_rows(WIDE, [sorted(values[i * m : (i + 1) * m]) for i in range(n)])


@st.composite
def one_key_profiles(draw):
    """Profiles whose column k holds base_k + j * 2**-80 for small j: one
    order key per column, distinct values, so every pick rests on the exact
    tie-break."""
    n = draw(st.sampled_from([1, 2, 3, 5]))
    m = draw(st.integers(1, 3))
    bases = [F(3 * k - 1, 3 * m + 3) for k in range(1, m + 1)]
    columns = [
        sorted(base + j * TINY for j in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        for base in bases
    ]
    return Profile.from_rows(UNIT, zip(*columns))


class TestColumnKernelMatchesSelect:
    """``PRule`` and ``ExtendedMedianRule`` hand back, through
    ``core.select_columns``, the very objects and keys that one ``select``
    call per column does (``reference_rule``); ``lattice_rows`` builds what
    ``_from_valid`` did (``reference_lattice_rows``)."""

    @staticmethod
    def assert_same_report(got, expected):
        assert got.domain is expected.domain
        assert type(got.values) is tuple and type(got.keys) is tuple
        assert got.values == expected.values and got.keys == expected.keys
        assert all(g is e for g, e in zip(got.values, expected.values))

    def assert_rules_match(self, profile, data, phantom_pool=None):
        n, m = profile.n, profile.m
        ranks = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))))
        rules = [PRule(PositionVector(ranks)), ExtendedMedianRule(boundary_phantoms(ranks, n, profile.domain))]
        if phantom_pool is not None:
            rows = [sorted(data.draw(phantom_pool(m))) for _ in range(n - 1)]
            columns = tuple(tuple(sorted(column)) for column in zip(*rows)) or ((),) * m
            rules.append(ExtendedMedianRule(PhantomMatrix(profile.domain, columns)))
        for rule in rules:
            self.assert_same_report(rule(profile), reference_rule(rule, profile))

    @given(profile=hard_profiles(), data=st.data())
    def test_hard_profiles(self, profile, data):
        self.assert_rules_match(profile, data, lambda m: heavy_duplicates(m, m))

    @given(profile=repeated_profiles(), data=st.data())
    def test_repeated_values(self, profile, data):
        pool = [v for row in profile.values() for v in row]
        self.assert_rules_match(
            profile, data, lambda m: st.lists(st.sampled_from(pool), min_size=m, max_size=m)
        )

    @given(profile=one_key_profiles(), data=st.data())
    def test_columns_of_one_order_key(self, profile, data):
        assert len({order_key(v) for v in profile.column(1)}) == 1
        m = profile.m
        bases = [F(3 * k - 1, 3 * m + 3) for k in range(1, m + 1)]
        self.assert_rules_match(
            profile,
            data,
            lambda _: st.tuples(*(st.integers(-4, 4).map(lambda j, b=b: b + j * TINY) for b in bases)),
        )

    @given(case=born_valid_profiles(), data=st.data())
    def test_corner_phantoms(self, case, data):
        # reports drawn from a pool that holds the domain's own corner objects,
        # so corner phantoms tie with reports at the corners
        profile, pool = case
        self.assert_rules_match(
            profile, data, lambda m: st.lists(st.sampled_from(pool), min_size=m, max_size=m)
        )
        n, m = profile.n, profile.m
        ranks = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))))
        corners = ExtendedMedianRule(boundary_phantoms(ranks, n, profile.domain))(profile)
        assert corners == PRule(ranks)(profile) and corners.keys == PRule(ranks)(profile).keys

    @pytest.mark.parametrize("denominator", [2, 16, 97, 512, 513, 1000])
    @pytest.mark.parametrize("domain", BORN_DOMAINS, ids=["unit", "hundred", "signed", "thirds"])
    def test_lattice_rows(self, domain, denominator):
        lower, span = domain.lower, domain.upper - domain.lower
        for seed in range(10):
            picks = random_picks(random.Random(seed), 4, seed % 4, denominator, ends=seed % 2 == 1)
            rows = lattice_rows(domain, denominator, picks)
            expected = reference_lattice_rows(domain, denominator, picks)
            assert type(rows) is tuple and len(rows) == len(picks)
            for row, old, row_picks in zip(rows, expected, picks):
                assert type(row) is EndpointMultiset and vars(row) == vars(old)
                built = EndpointMultiset(domain, tuple(lower + span * F(j, denominator) for j in row_picks))
                assert row == built and row.keys == built.keys
                if denominator <= 512:  # one table: the very objects
                    self.assert_same_report(row, old)
                else:
                    assert row.domain is domain and row.values == old.values and row.keys == old.keys


class TestDrawLoop:
    """``sampling._draws`` and ``_draw`` return the ``randint`` draws and leave
    the generator where ``randint`` leaves it, on the running interpreter's
    ``random``, as ``strict_picks`` does for ``sample``; the lattice-index
    samplers, read through ``lattice_rows``, give the rows of sorting one
    ``Fraction`` per draw, born valid; ``first_hit``'s one reseeded generator
    is in each trial the generator ``spawn`` builds for it."""

    @given(
        seed=st.integers(0, 2**32),
        lo=st.fractions(-3, 3),
        width=st.fractions(0, 3).filter(bool),
        n=st.integers(1, 3),
        count=st.integers(0, 6),
        denominator=st.one_of(st.integers(2, 64), st.sampled_from([257, 1000])),
        ends=st.booleans(),
    )
    def test_random_picks_match_per_draw_fractions(self, seed, lo, width, n, count, denominator, ends):
        domain = Domain(lo, lo + width)
        first, last = (0, denominator) if ends else (1, denominator - 1)

        def oracle(rng):
            return tuple(
                tuple(sorted(lo + width * F(rng.randint(first, last), denominator) for _ in range(count)))
                for _ in range(n)
            )

        ours, theirs = random.Random(seed), random.Random(seed)
        rows = lattice_rows(domain, denominator, random_picks(ours, n, count, denominator, ends))
        assert tuple(row.values for row in rows) == oracle(theirs)
        assert ours.getstate() == theirs.getstate()
        for row in rows:
            assert_born_valid(row)

    @given(
        seed=st.integers(0, 2**32),
        lo=st.fractions(-3, 3),
        width=st.fractions(0, 3).filter(bool),
        m=st.integers(0, 7),
        denominator=st.integers(8, 97),
    )
    def test_strict_picks_match_per_draw_fractions(self, seed, lo, width, m, denominator):
        domain = Domain(lo, lo + width)

        def oracle(rng):
            picks = sorted(rng.sample(range(1, denominator), m))
            return tuple(lo + width * F(j, denominator) for j in picks)

        ours, theirs = random.Random(seed), random.Random(seed)
        (row,) = lattice_rows(domain, denominator, [strict_picks(ours, m, denominator)])
        assert row.values == oracle(theirs) and repr(row.values) == repr(oracle(random.Random(seed)))
        assert ours.getstate() == theirs.getstate()
        assert_born_valid(row)

    @pytest.mark.parametrize("m", range(8))
    def test_strict_picks_at_sample_branch_thresholds(self, m):
        """``sample``'s two branches often pick the same indices, so each
        population on either side of ``setsize`` (22 for m <= 5, 86 for m = 6
        or 7) is checked over many seeds."""
        for denominator in (8, 22, 23, 24, 85, 86, 87, 88, 97, 129):
            for seed in range(150):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert strict_picks(ours, m, denominator) == sorted(theirs.sample(range(1, denominator), m))
                assert ours.getstate() == theirs.getstate()

    @given(
        seed=st.integers(0, 2**32),
        lo=st.fractions(-3, 3),
        width=st.fractions(0, 3).filter(bool),
        denominator=st.integers(1, 40),
        steps=st.integers(1, 20),
        count=st.integers(0, 6),
        data=st.data(),
    )
    def test_refine_matches_per_draw_fractions(self, seed, lo, width, denominator, steps, count, data):
        """Indices between lattice points i <= k on the ``steps`` times finer
        lattice: the values of drawing j in 0..steps per value on [x_i, x_k],
        and no draw at all when i == k."""
        i = data.draw(st.integers(0, denominator))
        k = data.draw(st.integers(i, denominator))
        domain = Domain(lo, lo + width)
        left, right = lo + width * F(i, denominator), lo + width * F(k, denominator)

        def oracle(rng):
            if i == k:
                return (left,) * count
            return tuple(sorted(left + (right - left) * F(rng.randint(0, steps), steps) for _ in range(count)))

        ours, theirs = random.Random(seed), random.Random(seed)
        (row,) = lattice_rows(domain, denominator * steps, [refine(ours, i, k, count, steps)])
        assert row.values == oracle(theirs)
        assert ours.getstate() == theirs.getstate()
        assert_born_valid(row)

    @pytest.mark.parametrize("denominator", [512, 513])  # the finest tabled lattice, and one step finer
    @pytest.mark.parametrize("domain", BORN_DOMAINS, ids=["unit", "hundred", "signed", "thirds"])
    def test_lattice_rows_are_the_lattice_points(self, domain, denominator):
        every = list(range(denominator + 1))
        picks = [every[i : i + 5] for i in range(0, denominator + 1, 5)]
        rows = lattice_rows(domain, denominator, picks)
        for row, indices in zip(rows, picks):
            assert row.values == _lattice_points(domain.lower, domain.upper, denominator, indices)
            assert row.values == tuple(domain.lower + (domain.upper - domain.lower) * F(j, denominator) for j in indices)
            assert row.domain is domain
            assert_born_valid(row)

    @given(
        seed=st.integers(0, 2**64),
        lo=st.one_of(st.integers(-20, 20), st.integers(-(2**80), 2**80)),
        width=st.one_of(
            st.integers(1, 70).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
            st.integers(1, 10**6),
        ),
        count=st.integers(0, 30),
    )
    def test_draws_are_the_randint_draws(self, seed, lo, width, count):
        ours, one_by_one, theirs = random.Random(seed), random.Random(seed), random.Random(seed)
        hi = lo + width - 1
        expected = [theirs.randint(lo, hi) for _ in range(count)]
        assert _draws(ours, lo, hi, count) == expected
        assert [_draw(one_by_one, lo, hi) for _ in range(count)] == expected
        assert ours.getstate() == one_by_one.getstate() == theirs.getstate()

    def test_widths_at_powers_of_two(self):
        widths = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65]
        widths += [2**k + d for k in (31, 32, 53, 64) for d in (-1, 0, 1)]
        for width in widths:
            for lo in (-8, -1, 0, 1):
                for count in (0, 1, 17):
                    ours, one_by_one, theirs = random.Random(width), random.Random(width), random.Random(width)
                    hi = lo + width - 1
                    expected = [theirs.randint(lo, hi) for _ in range(count)]
                    assert _draws(ours, lo, hi, count) == expected
                    assert [_draw(one_by_one, lo, hi) for _ in range(count)] == expected
                    assert ours.getstate() == one_by_one.getstate() == theirs.getstate()

    @pytest.mark.parametrize("lo,hi", [(5, 4), (0, -3)])
    def test_an_empty_range_is_refused_as_randint_refuses_it(self, lo, hi):
        assert _draws(random.Random(0), lo, hi, 0) == []
        with pytest.raises(ValueError) as ours:
            _draws(random.Random(0), lo, hi, 1)
        with pytest.raises(ValueError) as one:
            _draw(random.Random(0), lo, hi)
        with pytest.raises(ValueError) as theirs:
            random.Random(0).randint(lo, hi)
        assert str(ours.value) == str(one.value) == str(theirs.value)

    @given(seed=st.integers(0, 2**64), m=st.integers(0, 9))
    def test_weights_are_the_randint_fractions(self, seed, m):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_weights(ours, m) == tuple(map(F, [theirs.randint(1, 5) for _ in range(m)]))
        assert ours.getstate() == theirs.getstate()

    @given(
        seed=st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6)),
        stream=st.sampled_from(["sp-fuzz", "lipschitz", ""]),
        trials=st.one_of(st.sampled_from([0, 1]), st.integers(2, 6)),
        nested=st.integers(0, 3),
    )
    def test_each_trial_gets_the_spawned_generator(self, seed, stream, trials, nested):
        """Trial t's generator has the state of ``spawn(seed, stream, t)``,
        ``gauss_next`` included, for every t, also when the trial before it
        left a Gaussian pending and when a trial runs a nested engine (as the
        battery's continuity trial runs ``check_lipschitz``) before drawing."""
        seen = []

        def trial(rng, t):
            seen.append((t, None, rng.getstate() == spawn(seed, stream, t).getstate()))
            expected = spawn(seed, stream, t)

            def inner(inner_rng, u):
                seen.append((t, u, inner_rng.getstate() == spawn(f"{seed}:{t}", "inner", u).getstate()))

            assert first_hit(nested, f"{seed}:{t}", "inner", inner) is None
            assert rng.gauss(0, 1) == expected.gauss(0, 1)  # leaves gauss_next set for the next reseed to clear
            assert rng.getstate() == expected.getstate()

        assert first_hit(trials, seed, stream, trial) is None
        assert seen == [(t, u, True) for t in range(trials) for u in (None, *range(nested))]
