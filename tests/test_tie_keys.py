"""Keyed validators against plain-``Fraction`` references, on values at key ties.

``order_key`` is floor(q * 2**64), so values within 2**-64 of each other
(and of the domain corners) can share a key; these are the cases where a
keyed validator must fall back to an exact comparison.  Each reference
below is the validator written with ``Fraction`` comparisons only; the
keyed one must accept and refuse the same inputs with the same error.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from vocagg import (
    Domain,
    EndpointMultiset,
    ExtendedMedianRule,
    GapSequence,
    InconsistentLabels,
    InducedVocabulary,
    InvalidVocabulary,
    LabeledExemplars,
    MalformedGaps,
    MeanRule,
    PhantomMatrix,
    PositionVector,
    PRule,
    Profile,
    ShapeMismatch,
    SinglePeakedPreference,
    VocaggError,
    Vocabulary,
    aggregate_gaps,
    check_lipschitz,
    decode_endpoints,
    fixture_rule,
    median_positions,
    utility,
)
from vocagg.axioms import _unbacked_extents, majority_extent_agents
from vocagg.core import order_key, shown
from vocagg.exemplars import GAP_ORDERS
from vocagg.sampling import _draws, sampled_report
from vocagg.strategic import _closer_somewhere, _targeted_values

TINY = F(1, 2**70)
DOMAINS = [
    Domain(F(0), F(1)),
    Domain(F(1, 3), F(2, 3)),  # corners whose keys are floors, not exact
    Domain(F(-1), F(1, 2**64)),  # an upper corner one key step above zero
    Domain(F(0), F(1, 2**66)),  # the whole domain inside one key step
]
DELTAS = [F(0), TINY, -TINY, 2 * TINY, F(1, 2**64), -F(1, 2**64)]
# no per-example deadline, so that a loaded runner cannot fail a correct example
NO_DEADLINE = settings(deadline=None)


def anchors(domain):
    lower, upper = domain.lower, domain.upper
    return [lower, upper, (lower + upper) / 2, lower + (upper - lower) / 3]


@st.composite
def near(draw, domain):
    """A corner or an interior anchor, moved by 0, 2**-70, 2**-64 or a multiple."""
    return draw(st.sampled_from(anchors(domain))) + draw(st.sampled_from(DELTAS))


def outcome(build, *args):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return build(*args), None
    except VocaggError as exc:
        return None, (type(exc), str(exc))


def refused(kind, message):
    return None, (kind, message)


# ---------------------------------------------------------------------------
# references: the validators with Fraction comparisons only


def ref_endpoints(domain, values):
    for v in values:
        if not domain.lower <= v <= domain.upper:
            return refused(VocaggError, f"endpoint {shown(v)} outside [{shown(domain.lower)}, {shown(domain.upper)}]")
    for a, b in zip(values, values[1:]):
        if a > b:
            return refused(VocaggError, f"endpoints not sorted: {shown(a)} > {shown(b)}")
    return None


def ref_vocabulary(domain, extents):
    active = [e for e in extents if e is not None]
    if not active:
        return refused(InvalidVocabulary, "no active word")
    cursor = domain.lower
    for left, right in active:
        if left != cursor:
            return refused(
                InvalidVocabulary,
                f"extent [{shown(left)}, {shown(right)}) does not continue the tiling at {shown(cursor)}",
            )
        if not left < right:
            return refused(InvalidVocabulary, f"empty extent [{shown(left)}, {shown(right)})")
        cursor = right
    if cursor != domain.upper:
        return refused(InvalidVocabulary, f"tiling stops at {shown(cursor)}, not {shown(domain.upper)}")
    return None


def ref_exemplars(domain, points):
    for e, w in points:
        if not domain.lower < e < domain.upper:
            return refused(VocaggError, f"exemplar {shown(e)} outside the open domain")
        if w < 0:
            return refused(VocaggError, f"negative word index {shown(w)}")
    for (e1, w1), (e2, w2) in zip(points, points[1:]):
        if not e1 < e2:
            return refused(VocaggError, f"exemplars not strictly increasing: {shown(e1)}, {shown(e2)}")
        if w1 > w2:
            return refused(
                InconsistentLabels,
                f"exemplar {shown(e2)} labeled word {shown(w2)} after {shown(e1)} labeled word {shown(w1)}",
            )
    return None


def ref_induced(domain, extents):
    closed = lambda v: domain.lower <= v <= domain.upper  # noqa: E731
    hulls = [e for e in extents if e is not None]
    for lo, hi in hulls:
        if not lo <= hi:
            return refused(VocaggError, f"hull with {shown(lo)} > {shown(hi)}")
        if not (closed(lo) and closed(hi)):
            return refused(VocaggError, f"hull [{shown(lo)}, {shown(hi)}] outside the closed domain")
    if not extents:
        return refused(ShapeMismatch, "a vocabulary needs at least one word")
    for (_, previous), (start, _) in zip(hulls, hulls[1:]):
        if previous > start:
            return refused(VocaggError, f"known extents out of order: {shown(previous)} > {shown(start)}")
    return None


def ref_gaps(domain, gaps):
    closed = lambda v: domain.lower <= v <= domain.upper  # noqa: E731
    for left, right in gaps:
        if not (closed(left) and closed(right)):
            return refused(MalformedGaps, f"gap ({shown(left)}, {shown(right)}) outside the closed domain")
        if left > right:
            return refused(MalformedGaps, f"gap with {shown(left)} > {shown(right)}")
    for (l1, r1), (l2, r2) in zip(gaps, gaps[1:]):
        if l1 > l2 or r1 > r2:
            return refused(
                MalformedGaps, f"gap ends decrease: ({shown(l1)}, {shown(r1)}) before ({shown(l2)}, {shown(r2)})"
            )
    return None


# ---------------------------------------------------------------------------
# inputs


@st.composite
def domain_and_values(draw, min_size=0, max_size=5):
    domain = draw(st.sampled_from(DOMAINS))
    return domain, draw(st.lists(near(domain), min_size=min_size, max_size=max_size))


@st.composite
def tilings(draw):
    """Extents cut at near-tie values, in drawn order, some words inactive."""
    domain, cuts = draw(domain_and_values(max_size=4))
    bounds = [domain.lower, *cuts, domain.upper + draw(st.sampled_from([F(0), F(0), TINY, -TINY]))]
    extents = [(a, b) for a, b in zip(bounds, bounds[1:])]
    keep = draw(st.lists(st.booleans(), min_size=len(extents), max_size=len(extents)))
    return domain, tuple(e if k else None for e, k in zip(extents, keep))


@st.composite
def gap_sequences(draw, domain, m):
    """A valid row of m gaps at near-tie values, clamped into the closed domain."""
    values = [
        min(max(v, domain.lower), domain.upper)
        for v in draw(st.lists(near(domain), min_size=2 * m, max_size=2 * m))
    ]
    lefts, rights = sorted(values[:m]), sorted(values[m:])
    return GapSequence(domain, tuple((min(a, b), max(a, b)) for a, b in zip(lefts, rights)))


# ---------------------------------------------------------------------------
# the keyed validators


class TestDomain:
    @NO_DEADLINE
    @given(st.data())
    def test_membership_matches_fraction_comparison(self, data):
        domain = data.draw(st.sampled_from(DOMAINS))
        x = data.draw(near(domain))
        assert domain.contains(x) == (domain.lower < x < domain.upper)
        assert domain.contains_closed(x) == (domain.lower <= x <= domain.upper)

    def test_corner_keys_stay_out_of_equality_hash_and_repr(self):
        domain = Domain(F(1, 3), F(2, 3))
        assert domain.keys == (2**64 // 3, 2**65 // 3)
        assert "keys" not in repr(domain)
        assert domain == Domain("1/3", "2/3") and hash(domain) == hash(Domain("1/3", "2/3"))


class TestCoreValidators:
    @NO_DEADLINE
    @given(domain_and_values(max_size=4))
    def test_endpoint_multiset(self, case):
        # the validating constructor, and the keyed path that a document row
        # takes: ``_from_valid`` with the values' keys, then ``_check()``
        domain, values = case
        keys = tuple(map(order_key, values))
        built, error = outcome(EndpointMultiset, domain, tuple(values))
        keyed, keyed_error = outcome(lambda: EndpointMultiset._from_valid(domain, tuple(values), keys)._check())
        expected = ref_endpoints(domain, values)
        assert error == keyed_error == (None if expected is None else expected[1])
        if expected is None:
            assert keyed == built and keyed.keys == built.keys == keys

    @NO_DEADLINE
    @given(tilings())
    def test_vocabulary(self, case):
        domain, extents = case
        right_keys = tuple(order_key(e[1]) for e in extents if e is not None)
        built, error = outcome(Vocabulary, domain, extents)
        keyed, keyed_error = outcome(lambda: Vocabulary._from_valid(domain, extents, right_keys)._check())
        expected = ref_vocabulary(domain, extents)
        assert error == keyed_error == (None if expected is None else expected[1])
        if expected is None:
            assert keyed == built and keyed._right_keys == built._right_keys == right_keys

    @NO_DEADLINE
    @given(domain_and_values(max_size=4))
    def test_decode_endpoints(self, case):
        domain, values = case
        values = sorted(v for v in values if domain.lower <= v <= domain.upper)
        endpoints = EndpointMultiset(domain, tuple(values))
        bounds = [domain.lower, *values, domain.upper]
        expected = tuple((a, b) if a < b else None for a, b in zip(bounds, bounds[1:]))
        assert ref_vocabulary(domain, expected) is None
        assert decode_endpoints(endpoints).extents == expected
        assert endpoints.active_words() == tuple(j for j, e in enumerate(expected) if e is not None)


class TestExemplarValidators:
    @NO_DEADLINE
    @given(st.data())
    def test_labeled_exemplars(self, data):
        domain, values = data.draw(domain_and_values(max_size=4))
        words = data.draw(st.lists(st.integers(-1, 2), min_size=len(values), max_size=len(values)))
        points = tuple(zip(values, words))
        built, error = outcome(LabeledExemplars, domain, points)
        expected = ref_exemplars(domain, points)
        assert error == (None if expected is None else expected[1])

    @NO_DEADLINE
    @given(st.data())
    def test_induced_vocabulary(self, data):
        domain, values = data.draw(domain_and_values(max_size=6))
        pairs = [tuple(values[j:j + 2]) for j in range(0, len(values) - 1, 2)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        extents = tuple(p if k else None for p, k in zip(pairs, keep))
        built, error = outcome(InducedVocabulary, domain, extents)
        expected = ref_induced(domain, extents)
        assert error == (None if expected is None else expected[1])

    @NO_DEADLINE
    @given(st.data())
    def test_gap_sequence(self, data):
        domain, values = data.draw(domain_and_values(max_size=6))
        gaps = tuple(tuple(values[j:j + 2]) for j in range(0, len(values) - 1, 2))
        built, error = outcome(GapSequence, domain, gaps)
        expected = ref_gaps(domain, gaps)
        assert error == (None if expected is None else expected[1])

    @NO_DEADLINE
    @given(st.data(), st.sampled_from(sorted(GAP_ORDERS)))
    def test_aggregate_gaps(self, data, order):
        domain = data.draw(st.sampled_from(DOMAINS))
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        rows = [data.draw(gap_sequences(domain, m)) for _ in range(n)]
        positions = PositionVector(tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))))
        built, error = outcome(aggregate_gaps, rows, positions, order)
        selected = tuple(
            sorted(column, key=GAP_ORDERS[order])[p - 1]
            for column, p in zip(zip(*(row.gaps for row in rows)), positions.positions)
        )
        expected = ref_gaps(domain, selected)
        if expected is None:
            assert error is None and built.gaps == selected
        else:
            assert error == expected[1]


class TestMean:
    DENOMINATORS = [1, 2, 3, 7, 64, 100, 999_983, 1_000_003, 2**64, 3**41]

    @NO_DEADLINE
    @given(st.data())
    def test_mean_is_the_exact_column_mean(self, data):
        domain = data.draw(st.sampled_from([Domain(F(-5), F(5)), Domain(F(0), F(1)), Domain(F(-1), F(0))]))
        n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 3))
        value = st.builds(
            lambda d, t: domain.lower + (domain.upper - domain.lower) * F(t % (d + 1), d),
            st.sampled_from(self.DENOMINATORS),
            st.integers(0, 10**7),
        )
        rows = [sorted(data.draw(st.lists(value, min_size=m, max_size=m))) for _ in range(n)]
        profile = Profile.from_rows(domain, rows)
        expected = tuple(sum(column, F(0)) / n for column in zip(*rows))
        result = MeanRule()(profile).values
        assert result == expected and all(type(v) is F for v in result)

    def test_one_agent_with_negative_coprime_values(self):
        profile = Profile.from_rows(Domain(F(-1), F(1)), [(F(-2, 999_983), F(3, 1_000_003))])
        assert MeanRule()(profile).values == (F(-2, 999_983), F(3, 1_000_003))


# ---------------------------------------------------------------------------
# the checkers' keyed candidate sets


def clamped(domain, values):
    """``values`` moved into the closed domain, in increasing order."""
    return sorted(min(max(v, domain.lower), domain.upper) for v in values)


@st.composite
def near_profiles(draw, domain, n, m, inside=lambda v: True):
    """n sorted rows of m near-tie values in the closed domain that pass ``inside``."""
    values = near(domain).map(lambda v: min(max(v, domain.lower), domain.upper)).filter(inside)
    rows = [sorted(draw(st.lists(values, min_size=m, max_size=m))) for _ in range(n)]
    return Profile.from_rows(domain, rows)


class TestTargetedValues:
    @NO_DEADLINE
    @given(st.data())
    def test_the_sorted_distinct_pool(self, data):
        domain = data.draw(st.sampled_from(DOMAINS))
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        profile = data.draw(near_profiles(domain, n, m))
        size = (n - 1) * m
        phantoms = clamped(domain, data.draw(st.lists(near(domain), min_size=size, max_size=size)))
        columns = tuple(tuple(phantoms[i * m + k] for i in range(n - 1)) for k in range(m))
        rule = data.draw(st.sampled_from([MeanRule(), ExtendedMedianRule(PhantomMatrix(domain, columns))]))
        pool = [domain.lower, domain.upper, *(v for row in profile.values() for v in row)]
        pool += [q for column in rule.phantom_columns(n, m, domain) for q in column]
        assert _targeted_values(rule, profile) == tuple(sorted(set(pool)))

    def test_values_whose_keys_tie(self):
        domain = Domain(F(0), F(1))
        third = F(1, 3)
        profile = Profile.from_rows(domain, [(third + TINY,), (third,), (third + TINY,), (third - TINY,)])
        rule = ExtendedMedianRule(PhantomMatrix(domain, ((third, third + 2 * TINY, F(1)),)))
        expected = (F(0), third - TINY, third, third + TINY, third + 2 * TINY, F(1))
        assert _targeted_values(rule, profile) == expected


class TestExtentPretest:
    """The extent search's one-pass test on keys yields exactly the pairs that
    ``majority_extent_agents`` and the output's bounds refute."""

    @staticmethod
    def reference(profile, output, threshold):
        reports = [(), *(sorted(set(column)) for column in zip(*profile.values())), ()]
        return [
            (word, a, b)
            for word in range(profile.m + 1)
            for a in reports[word]
            for b in reports[word + 1]
            if a < b
            and 2 * len(majority_extent_agents(profile, word, a, b)) >= threshold
            and not (output.bound(word) <= a and b <= output.bound(word + 1))
        ]

    @NO_DEADLINE
    @given(st.data())
    def test_every_pair(self, data):
        domain = data.draw(st.sampled_from(DOMAINS))
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        profile = data.draw(near_profiles(domain, n, m, domain.contains))
        values = clamped(domain, data.draw(st.lists(near(domain), min_size=m, max_size=m)))
        output = EndpointMultiset(domain, tuple(values))
        threshold = n + data.draw(st.integers(0, 1))
        expected = self.reference(profile, output, threshold)
        assert list(_unbacked_extents(profile, output, threshold)) == expected

    def test_bounds_whose_keys_tie(self):
        domain = Domain(F(0), F(1))
        a = F(1, 3)
        rows = [(a, a + TINY), (a - TINY, a + TINY), (a, a + 2 * TINY)]
        profile = Profile.from_rows(domain, rows)
        for output in [(a, a + TINY), (a + TINY, a + TINY), (a - TINY, a + 2 * TINY), (a, a)]:
            report = EndpointMultiset(domain, output)
            for threshold in (3, 4):
                expected = self.reference(profile, report, threshold)
                assert list(_unbacked_extents(profile, report, threshold)) == expected


class TestCloserSomewhere:
    """``sp_fuzz``'s keyed pre-test is the ``Fraction`` test of whether some
    column of the manipulated outcome lies strictly closer to the peak, and
    when it holds, weights that favour one such column make the gain positive."""

    @staticmethod
    def reference(peak, truthful, manipulated):
        return any(
            abs(a - p) < abs(b - p) for p, b, a in zip(peak.values, truthful.values, manipulated.values)
        )

    @staticmethod
    def assert_matches(peak, truthful, manipulated):
        closer = _closer_somewhere(peak, truthful, manipulated)
        assert closer == TestCloserSomewhere.reference(peak, truthful, manipulated)
        if not closer:
            return
        distance = [
            (abs(b - p), abs(a - p)) for p, b, a in zip(peak.values, truthful.values, manipulated.values)
        ]
        j = next(j for j, (before, after) in enumerate(distance) if after < before)
        loss = sum(after - before for i, (before, after) in enumerate(distance) if i != j and after > before)
        weights = [F(1)] * peak.m
        weights[j] = loss // (distance[j][0] - distance[j][1]) + 1
        preference = SinglePeakedPreference(peak, tuple(weights))
        assert utility(preference, manipulated) - utility(preference, truthful) > 0

    @NO_DEADLINE
    @given(st.data())
    def test_every_triple(self, data):
        domain = data.draw(st.sampled_from(DOMAINS))
        m = data.draw(st.integers(1, 3))
        peak, truthful, manipulated = (
            EndpointMultiset(domain, tuple(clamped(domain, data.draw(st.lists(near(domain), min_size=m, max_size=m)))))
            for _ in range(3)
        )
        self.assert_matches(peak, truthful, manipulated)

    def test_values_whose_keys_tie(self):
        domain = Domain(F(0), F(1))
        third = F(1, 3)
        column = [third + k * TINY for k in range(-3, 4)]
        for p in column:
            for b in column:
                for a in column:
                    self.assert_matches(*(EndpointMultiset(domain, (v,)) for v in (p, b, a)))


class TestLipschitzReference:
    """``check_lipschitz``'s integer trial gives the report of the same trial in
    ``Fraction`` arithmetic, on profiles whose values and perturbations meet
    the corners' keys."""

    @staticmethod
    def reference(rule, profile, eps, trials, seed):
        base = rule(profile)
        domain = profile.domain

        def trial(rng, t):
            offsets = iter(_draws(rng, -8, 8, profile.n * profile.m))
            rows = []
            for row in profile.rows:
                moved = [min(max(v + eps * F(next(offsets), 8), domain.lower), domain.upper) for v in row.values]
                rows.append(EndpointMultiset(domain, tuple(sorted(moved))))
            perturbed = Profile(tuple(rows))
            input_distance = max(
                (abs(a - b) for old, new in zip(profile.values(), perturbed.values()) for a, b in zip(old, new)),
                default=F(0),
            )
            output = rule(perturbed)
            output_distance = max((abs(a - b) for a, b in zip(base.values, output.values)), default=F(0))
            if output_distance <= input_distance:
                return None
            return {
                "profile": profile.values(),
                "perturbed": perturbed.values(),
                "eps": eps,
                "input_distance": input_distance,
                "output_distance": output_distance,
                "output": base.values,
                "perturbed_output": output.values,
            }

        return sampled_report("continuity", trials, seed, "lipschitz", trial)

    @NO_DEADLINE
    @given(st.data())
    def test_every_report(self, data):
        domain = data.draw(st.sampled_from(DOMAINS))
        n, m = data.draw(st.sampled_from([1, 3, 5])), data.draw(st.integers(1, 3))
        profile = data.draw(near_profiles(domain, n, m))
        eps = data.draw(st.sampled_from([F(1, 16), TINY, F(1, 2**64), F(5)]))
        rule = data.draw(
            st.sampled_from([PRule(median_positions(n, m)), MeanRule(), fixture_rule("discontinuous-rule")])
        )
        trials, seed = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 3))
        expected = outcome(self.reference, rule, profile, eps, trials, seed)
        actual = outcome(check_lipschitz, rule, profile, eps, trials, seed)
        assert actual == expected and repr(actual) == repr(expected)
