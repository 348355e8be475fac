import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from vocagg import (
    Domain,
    DomainMismatch,
    GapSequence,
    InconsistentLabels,
    InducedVocabulary,
    LabeledExemplars,
    MalformedGaps,
    ParseError,
    PositionVector,
    ShapeMismatch,
    aggregate_gaps,
    check_incremental_consistency,
    collective_incomplete,
    gaps_of,
    induce,
    median_positions,
)
from vocagg.exemplars import GAP_ORDERS

UNIT = Domain(F(0), F(1))
A, B, C, D = F(1, 5), F(2, 5), F(3, 5), F(7, 10)


def observer(*points) -> LabeledExemplars:
    return LabeledExemplars(UNIT, tuple((F(e), w) for e, w in points))


@pytest.fixture
def three_observers():
    """Three agents labeling the shared observations a < b < c."""
    return (
        observer((A, 0), (B, 2), (C, 3)),
        observer((A, 1), (B, 1), (C, 2)),
        observer((A, 0), (B, 2), (C, 2)),
    )


class TestLabeledExemplars:
    def test_accessors(self):
        ex = observer((A, 0), (B, 2))
        assert ex.values == (A, B)
        assert ex.labels == (0, 2)

    def test_labels_must_follow_the_line(self):
        with pytest.raises(InconsistentLabels):
            observer((A, 2), (B, 1))

    def test_values_must_strictly_increase(self):
        with pytest.raises(ValueError):
            observer((B, 0), (A, 1))
        with pytest.raises(ValueError):
            observer((A, 0), (A, 1))

    def test_values_must_be_interior(self):
        with pytest.raises(ValueError):
            observer((0, 0))
        with pytest.raises(ValueError):
            observer((1, 1))

    def test_word_indices_are_nonnegative(self):
        with pytest.raises(ValueError):
            observer((A, -1))

    def test_extended_by_merges_in_order(self):
        ex = observer((A, 0), (C, 2)).extended_by(((B, 1),))
        assert ex.points == ((A, 0), (B, 1), (C, 2))

    def test_extended_by_rejects_contradictions(self):
        with pytest.raises(InconsistentLabels):
            observer((A, 1), (C, 2)).extended_by(((B, 0),))

    def test_extended_by_reads_points_as_the_constructor_does(self):
        ex = observer((A, 0), (C, 2))
        expected = ex.extended_by([(F(1, 2), 1)])
        assert ex.extended_by([[F(1, 2), 1]]) == expected
        assert ex.extended_by([("1/2", 1)]) == expected
        with pytest.raises(ParseError):
            ex.extended_by([("x", 1)])


class TestInduce:
    def test_hulls_and_corner_extensions(self, three_observers):
        first, second, third = (induce(ex, 3) for ex in three_observers)
        assert first.extents == ((F(0), A), None, (B, B), (C, F(1)))
        assert second.extents == (None, (A, B), (C, C), None)
        assert third.extents == ((F(0), A), None, (B, C), None)

    def test_word_counts(self, three_observers):
        induced = induce(three_observers[0], 3)
        assert (induced.word_count, induced.m) == (4, 3)

    def test_interior_word_is_not_extended(self):
        v = induce(observer((A, 1), (C, 1)), 2)
        assert v.extents == (None, (A, C), None)

    def test_label_beyond_word_count(self):
        with pytest.raises(ShapeMismatch):
            induce(observer((A, 3)), 2)
        with pytest.raises(ShapeMismatch):
            induce(observer((A, 0)), 0)

    def test_induced_validation(self):
        with pytest.raises(ValueError):
            InducedVocabulary(UNIT, ((B, A),))
        with pytest.raises(ValueError):
            InducedVocabulary(UNIT, ((F(0), F(2)),))
        with pytest.raises(ValueError):
            InducedVocabulary(UNIT, ((B, C), (A, A)))
        with pytest.raises(ValueError):
            InducedVocabulary(UNIT, ((0, "1/2", 7), None))
        with pytest.raises(ShapeMismatch):
            InducedVocabulary(UNIT, ())


class TestGaps:
    def test_gap_rows(self, three_observers):
        rows = [gaps_of(induce(ex, 3)) for ex in three_observers]
        assert rows[0].gaps == ((A, B), (A, B), (B, C))
        assert rows[1].gaps == ((F(0), A), (B, C), (C, F(1)))
        assert rows[2].gaps == ((A, B), (A, B), (C, F(1)))

    def test_gap_sequence_validation(self):
        with pytest.raises(MalformedGaps):
            GapSequence(UNIT, ((B, A),))
        with pytest.raises(MalformedGaps):
            GapSequence(UNIT, ((F(0), F(2)),))
        with pytest.raises(MalformedGaps):
            GapSequence(UNIT, ((B, C), (A, C)))
        with pytest.raises(MalformedGaps):
            GapSequence(UNIT, ((A, C), (A, B)))
        assert GapSequence(UNIT, ((A, B), (A, B))).m == 2


class TestAggregateGaps:
    def test_median_selection(self, three_observers):
        rows = [gaps_of(induce(ex, 3)) for ex in three_observers]
        collective = aggregate_gaps(rows, median_positions(3, 3))
        assert collective.gaps == ((A, B), (A, B), (C, F(1)))

    def test_alternative_orders_can_differ(self):
        overlapping = ((F(0), F(3, 4)), (F(1, 4), F(3, 8)))
        # the left ends share one order key, and the right ends' keys run the
        # other way: ranking (key(left), key(right)) would pick the second gap
        left_tie = ((F(1, 3), F(2, 3)), (F(1, 3) + F(1, 2**70), F(1, 2)))
        expected = {
            overlapping: {"lex": overlapping[0], "right": overlapping[1], "midpoint": overlapping[1]},
            left_tie: {"lex": left_tie[0], "right": left_tie[1], "midpoint": left_tie[1]},
        }
        first = PositionVector((1,))
        for gaps, picks in expected.items():
            rows = [GapSequence(UNIT, (gap,)) for gap in gaps]
            for order, pick in picks.items():
                assert pick == sorted(gaps, key=GAP_ORDERS[order])[0]
                assert aggregate_gaps(rows, first, order=order).gaps == (pick,)

    def test_shape_validation(self, three_observers):
        rows = [gaps_of(induce(ex, 3)) for ex in three_observers]
        with pytest.raises(ShapeMismatch):
            aggregate_gaps(rows, median_positions(3, 2))
        with pytest.raises(ShapeMismatch):
            aggregate_gaps(rows, PositionVector((2, 2, 2)), order="nonesuch")
        with pytest.raises(ShapeMismatch):
            aggregate_gaps([], median_positions(3, 3))
        with pytest.raises(ShapeMismatch):
            aggregate_gaps(rows[:1] + [GapSequence(UNIT, ((A, B),))], PositionVector((1,)))
        wide = GapSequence(Domain(F(0), F(2)), ((A, B), (A, B), (B, C)))
        with pytest.raises(DomainMismatch):
            aggregate_gaps(rows[:1] + [wide], median_positions(3, 3))

    def test_incoherent_selections_surface_as_malformed_gaps(self):
        # Valid per-agent rows whose columnwise maxima cross: the second
        # selection ends before the first one does.
        rows = [
            GapSequence(UNIT, ((F(0), F(1, 20)), (F(1, 50), F(3, 50)))),
            GapSequence(UNIT, ((F(1, 100), F(1)), (F(1, 100), F(1)))),
        ]
        with pytest.raises(MalformedGaps):
            aggregate_gaps(rows, PositionVector((2, 2)))


class TestCollectiveIncomplete:
    def test_attribution(self, three_observers):
        rows = [gaps_of(induce(ex, 3)) for ex in three_observers]
        collective = collective_incomplete(aggregate_gaps(rows, median_positions(3, 3)))
        assert collective.extents == ((F(0), A), None, (B, C), None)

    def test_coincident_gaps_attribute_nothing(self):
        gaps = GapSequence(UNIT, ((A, B), (A, B)))
        assert collective_incomplete(gaps).extents == ((F(0), A), None, (B, F(1)))

    def test_overlapping_gaps_attribute_nothing_between_them(self):
        gaps = GapSequence(UNIT, ((A, C), (B, D)))
        assert collective_incomplete(gaps).extents == ((F(0), A), None, (D, F(1)))

    def test_corner_singletons_are_dropped(self):
        gaps = GapSequence(UNIT, ((F(0), F(0)), (F(0), F(1, 2))))
        assert collective_incomplete(gaps).extents == (
            None,
            None,
            (F(1, 2), F(1)),
        )

    def test_no_gaps_leave_one_word_over_the_whole_domain(self):
        assert collective_incomplete(GapSequence(UNIT, ())).extents == ((F(0), F(1)),)

    def test_interior_singletons_are_kept(self):
        gaps = GapSequence(UNIT, ((F(0), F(1, 4)), (F(1, 4), F(1))))
        assert collective_incomplete(gaps).extents == (
            None,
            (F(1, 4), F(1, 4)),
            None,
        )


class TestIncrementalConsistency:
    def test_consistent_extension_contracts_gaps(self, three_observers):
        first, second, third = three_observers
        after = (
            first.extended_by(((D, 3),)),
            second.extended_by(((D, 2),)),
            third.extended_by(((D, 3),)),
        )
        report = check_incremental_consistency(
            three_observers, after, median_positions(3, 3)
        )
        assert report.holds and report.failures == ()
        assert report.before_gaps.gaps == ((A, B), (A, B), (C, F(1)))
        assert report.after_gaps.gaps == ((A, B), (A, B), (C, D))
        assert report.after_vocabulary.extents == (
            (F(0), A),
            None,
            (B, C),
            (D, F(1)),
        )

    def test_preconditions(self, three_observers):
        first, second, third = three_observers
        with pytest.raises(ShapeMismatch):
            check_incremental_consistency(
                three_observers, three_observers[:2], median_positions(3, 3)
            )
        with pytest.raises(ShapeMismatch):
            check_incremental_consistency((), (), median_positions(3, 3))
        dropped = (observer((A, 0)), second, third)
        with pytest.raises(InconsistentLabels):
            check_incremental_consistency(
                three_observers, dropped, median_positions(3, 3)
            )
        relabeled = (
            observer((A, 0), (B, 2), (C, 2)),
            second,
            third,
        )
        with pytest.raises(InconsistentLabels):
            check_incremental_consistency(
                three_observers, relabeled, median_positions(3, 3)
            )
        moved = (
            LabeledExemplars(Domain(F(0), F(2)), ((A, 0),)),
            second,
            third,
        )
        with pytest.raises(DomainMismatch):
            check_incremental_consistency(three_observers, moved, median_positions(3, 3))

    def test_disjoint_observations_can_defeat_the_median(self):
        """Agents observing different exemplars may make a collective gap jump.

        Each agent's own gap still contracts, but the median can move from
        one agent's gap to a disjoint one.  The checker reports this as a
        failed verdict rather than an error.
        """
        wide = Domain(F(0), F(100))
        before = (
            LabeledExemplars(wide, ((F(10), 0), (F(90), 1))),
            LabeledExemplars(wide, ((F(20), 0), (F(30), 1))),
            LabeledExemplars(wide, ((F(50), 0), (F(60), 1))),
        )
        after = (
            before[0].extended_by(((F(50), 0), (F(60), 1))),
            before[1],
            before[2],
        )
        report = check_incremental_consistency(before, after, median_positions(3, 1))
        assert not report.holds
        assert report.before_gaps.gaps == ((F(20), F(30)),)
        assert report.after_gaps.gaps == ((F(50), F(60)),)
        assert any("gap 1 grew" in failure for failure in report.failures)
        assert any("word 1 shrank" in failure for failure in report.failures)

    def test_failures_print_values_as_numerals(self):
        before = (observer((F(1, 4), 0)), observer((F(7, 8), 1)), observer((F(1, 8), 0)))
        after = (*before[:2], before[2].extended_by(((F(5, 8), 1),)))
        report = check_incremental_consistency(before, after, (2,), "right")
        assert report.failures == (
            "gap 1 grew: (1/8, 1) to (0, 7/8)",
            "word 0 shrank: (0, 1/8) to inactive",
        )
        # an end past the interpreter's int-to-text limit prints in full
        huge = F(10**5000)
        wide = Domain(F(0), huge)
        before = [LabeledExemplars(wide, (point,)) for point in ((1, 0), (huge - 1, 1), (F(1, 8), 0))]
        after = (*before[:2], before[2].extended_by(((huge - 2, 1),)))
        failures = check_incremental_consistency(before, after, (2,), "right").failures
        assert failures[0] == f"gap 1 grew: (1/8, 1{'0' * 5000}) to (0, {'9' * 5000})"


@st.composite
def nested_shared_pools(draw):
    """A before/after pair where all agents label one shared, growing pool."""
    m = draw(st.integers(1, 3))
    pool_size = draw(st.integers(2, 6))
    numerators = draw(
        st.lists(st.integers(1, 63), min_size=pool_size, max_size=pool_size, unique=True)
    )
    values = sorted(F(v, 64) for v in numerators)
    keep = draw(
        st.lists(st.booleans(), min_size=pool_size, max_size=pool_size).filter(any)
    )
    agents_before, agents_after = [], []
    for _ in range(3):
        labels = sorted(
            draw(st.lists(st.integers(0, m), min_size=pool_size, max_size=pool_size))
        )
        full = tuple(zip(values, labels))
        restricted = tuple(p for p, keep_it in zip(full, keep) if keep_it)
        agents_before.append(LabeledExemplars(UNIT, restricted))
        agents_after.append(LabeledExemplars(UNIT, full))
    positions = tuple(
        sorted(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    )
    return agents_before, agents_after, PositionVector(positions)


@given(nested_shared_pools())
def test_shared_pool_extensions_are_always_incremental(family):
    """On a shared exemplar pool every position rule contracts gaps.

    Each agent's gap at boundary k is a pair of consecutive pool values, so
    positional selection happens over cut positions in the shared grid;
    refining the grid moves every cut within its old block, and order
    statistics preserve that confinement.
    """
    before, after, positions = family
    report = check_incremental_consistency(before, after, positions)
    assert report.holds, report.failures


# ---------------------------------------------------------------------------
# gaps and attribution against references written from their docstrings

DOMAINS = (UNIT, Domain(F(0), F(100)), Domain(F(-1), F(1)), Domain(F(1, 3), F(7, 5)))


def lattice(domain, denominator=8):
    """The corners and ``denominator - 1`` evenly spaced interior points of ``domain``."""
    step = (domain.upper - domain.lower) / denominator
    return [domain.lower + i * step for i in range(denominator + 1)]


@st.composite
def induced_vocabularies(draw, domain, m):
    """An ``InducedVocabulary`` over m+1 words: either induced from labeled
    exemplars, or hulls cut directly from the closed lattice, where words may
    be inactive, singletons, or reach either corner."""
    points = lattice(domain)
    if draw(st.booleans()):
        values = sorted(draw(st.sets(st.sampled_from(points[1:-1]), max_size=7)))
        size = len(values)
        labels = sorted(draw(st.lists(st.integers(0, m), min_size=size, max_size=size)))
        return induce(LabeledExemplars(domain, tuple(zip(values, labels))), m)
    ends = sorted(draw(st.lists(st.sampled_from(points), min_size=2 * m + 2, max_size=2 * m + 2)))
    keep = draw(st.lists(st.booleans(), min_size=m + 1, max_size=m + 1))
    hulls = [(ends[2 * j], ends[2 * j + 1]) if kept else None for j, kept in enumerate(keep)]
    return InducedVocabulary(domain, tuple(hulls))


def reference_gaps(vocabulary):
    """Gap k runs from the top of the last observation among words 0..k-1
    (else the lower corner) to the bottom of the first among words k..m
    (else the upper corner)."""
    domain, extents = vocabulary.domain, vocabulary.extents
    gaps = []
    for k in range(1, len(extents)):
        below = [e for e in extents[:k] if e is not None]
        above = [e for e in extents[k:] if e is not None]
        left = below[-1][1] if below else domain.lower
        right = above[0][0] if above else domain.upper
        gaps.append((left, right))
    return tuple(gaps)


def reference_attribution(gaps):
    """Word j between gaps j and j+1, the corner gaps standing for gaps 0 and
    m+1, read out case by case: the first word, the middle words, the last."""
    lower, upper = gaps.domain.lower, gaps.domain.upper
    if not gaps.gaps:
        return ((lower, upper),)

    def between(lo, hi):
        if lo > hi or (lo == hi and not lower < lo < upper):
            return None
        return (lo, hi)

    first, last = gaps.gaps[0], gaps.gaps[-1]
    extents = [between(lower, first[0]) if first != (lower, lower) else None]
    for left_gap, right_gap in zip(gaps.gaps, gaps.gaps[1:]):
        extents.append(None if left_gap == right_gap else between(left_gap[1], right_gap[0]))
    extents.append(between(last[1], upper) if last != (upper, upper) else None)
    return tuple(extents)


@given(st.data(), st.sampled_from(DOMAINS), st.integers(1, 6))
def test_gaps_and_attribution_match_their_references(data, domain, m):
    vocabulary = data.draw(induced_vocabularies(domain, m))
    gaps = gaps_of(vocabulary)
    assert gaps.gaps == reference_gaps(vocabulary)
    assert collective_incomplete(gaps).extents == reference_attribution(gaps)


@given(st.data(), st.sampled_from(DOMAINS), st.integers(1, 6), st.sampled_from(sorted(GAP_ORDERS)))
def test_attribution_of_aggregated_gaps_matches_its_reference(data, domain, m, order):
    n = data.draw(st.integers(1, 5))
    rows = [gaps_of(data.draw(induced_vocabularies(domain, m))) for _ in range(n)]
    positions = sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
    try:
        collective = aggregate_gaps(rows, positions, order)
    except MalformedGaps:
        assume(False)
    assert collective_incomplete(collective).extents == reference_attribution(collective)


def assert_born_valid(built):
    """``built``, made without validation, equals field for field what its
    validating constructor makes of the same fields, with exact pairs."""
    fields = [getattr(built, field.name) for field in dataclasses.fields(built)]
    rebuilt = type(built)(*fields)
    assert fields == [getattr(rebuilt, field.name) for field in dataclasses.fields(rebuilt)]
    pairs = fields[1]
    assert type(pairs) is tuple
    assert all(
        pair is None or (type(pair) is tuple and len(pair) == 2 and {type(v) for v in pair} == {F})
        for pair in pairs
    )


class TestBornValid:
    """``induce``, ``gaps_of`` and ``collective_incomplete`` build their rows
    without validating them; each equals the validating constructor's."""

    @given(st.data(), st.sampled_from(DOMAINS), st.integers(1, 6))
    def test_induced_gap_and_attributed_rows(self, data, domain, m):
        n = data.draw(st.integers(1, 4))
        points = lattice(domain, 16)[1:-1]
        observed = []
        for _ in range(n):
            values = sorted(data.draw(st.sets(st.sampled_from(points), max_size=7)))
            size = len(values)
            labels = sorted(data.draw(st.lists(st.integers(0, m), min_size=size, max_size=size)))
            observed.append(LabeledExemplars(domain, tuple(zip(values, labels))))
        vocabularies = [induce(exemplars, m) for exemplars in observed]
        rows = [gaps_of(vocabulary) for vocabulary in vocabularies]
        for built in (*vocabularies, *rows, *map(collective_incomplete, rows)):
            assert_born_valid(built)
        positions = sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
        try:
            collective = aggregate_gaps(rows, positions)
        except MalformedGaps:
            return
        assert_born_valid(collective_incomplete(collective))
