"""One error family: every check on bad input raises a ``VocaggError``."""

import json
import random
from fractions import Fraction as F

import pytest

from vocagg import (
    VIOLATED,
    AxiomReport,
    DictatorRule,
    Domain,
    EndpointMultiset,
    ExtendedMedianRule,
    GapSequence,
    InducedVocabulary,
    LabeledExemplars,
    MeanRule,
    ParseError,
    PhantomMatrix,
    PiecewiseLinearMap,
    PositionVector,
    PRule,
    Profile,
    ResultDocument,
    SinglePeakedPreference,
    VocaggError,
    aggregate_gaps,
    between,
    boundary_phantoms,
    check_incremental_consistency,
    check_lipschitz,
    check_majoritarian_extents,
    check_stability,
    check_strict_responsiveness,
    check_uncompromising,
    decode_endpoints,
    induce,
    is_symmetric,
    majoritarian_band,
    median_positions,
    parse_profile,
    parse_result,
    rational_str,
    render_diagram,
    run_axiom_battery,
    search_extent_violation,
    sp_fuzz,
)
from vocagg.axioms import majority_extent_agents, random_monotone_map
from vocagg.rules import apply_p_rule_reversed
from vocagg.sampling import require_trials, strict_picks

UNIT = Domain(F(0), F(1))
HALF = EndpointMultiset(UNIT, (F(1, 2),))
PROFILE = Profile((HALF, HALF))
TWO_WORDS = decode_endpoints(HALF)
Q, H, T = F(1, 4), F(1, 2), F(3, 4)
TWO_COLUMN_MEDIAN = ExtendedMedianRule(PhantomMatrix(UNIT, ((Q, H), (H, T))))

OBSERVED = LabeledExemplars(UNIT, ((Q, 0), (T, 1)))
ONE_GAP = GapSequence(UNIT, ((Q, T),))


def exemplar_document(**fields) -> str:
    """An exemplar-form profile document with ``fields`` set, a ``None`` field left out."""
    doc = {
        "domain": {"lower": "0", "upper": "1"},
        "words": ["a", "b"],
        "exemplars": ["1/2"],
        "agents": [{"exemplar_labels": ["a"]}],
    }
    doc.update(fields)
    return json.dumps({key: value for key, value in doc.items() if value is not None})


# one bad input per check, with the message it gives
CASES = {
    # core
    "empty-domain": (lambda: Domain(F(1), F(0)), "empty domain: (1, 0)"),
    "boundary-index": (lambda: HALF.bound(5), "boundary index 5 outside 0..2"),
    "between-float": (
        lambda: between(0.1, 0.2, 0.3),
        "refusing float 0.1: pass a string or Fraction for exact input",
    ),
    "domain-contains-float": (
        lambda: UNIT.contains(0.5),
        "refusing float 0.5: pass a string or Fraction for exact input",
    ),
    "domain-contains-closed-text": (lambda: UNIT.contains_closed("x"), "not a rational numeral: 'x'"),
    "endpoint-outside": (lambda: EndpointMultiset(UNIT, (F(2),)), "endpoint 2 outside [0, 1]"),
    "endpoints-unsorted": (
        lambda: EndpointMultiset(UNIT, (H, Q)),
        "endpoints not sorted: 1/2 > 1/4",
    ),
    # rules
    "position-zero": (lambda: PositionVector((0, 1)), "positions are 1-based, got 0"),
    "positions-descend": (
        lambda: PositionVector((2, 1)),
        "positions not nondecreasing: 2 > 1",
    ),
    "phantom-outside": (
        lambda: PhantomMatrix(UNIT, ((F(2),),)),
        "phantom 2 outside the closed domain",
    ),
    "phantom-column-unsorted": (
        lambda: PhantomMatrix(UNIT, ((H, Q),)),
        "phantom column not sorted: 1/2 > 1/4",
    ),
    "phantoms-decrease": (
        lambda: PhantomMatrix(UNIT, ((H,), (Q,))),
        "phantoms decrease across columns: 1/2 > 1/4",
    ),
    # axioms
    "map-one-point": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0),)),
        "a piecewise-linear map needs at least the two corners",
    ),
    "map-short": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), (H, 1))),
        "breakpoints must span the closed domain",
    ),
    "map-abscissae": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), (H, Q), (H, H), (1, 1))),
        "breakpoint abscissae not increasing: 1/2, 1/2",
    ),
    "map-corners": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), (1, H))),
        "a bijection of the domain must map corners to corners",
    ),
    "map-not-increasing": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), (Q, H), (H, H), (1, 1))),
        "ordinates not increasing: 1/2, 1/2",
    ),
    "map-not-decreasing": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 1), (Q, H), (H, H), (1, 0))),
        "ordinates not decreasing: 1/2, 1/2",
    ),
    "map-argument-text": (
        lambda: PiecewiseLinearMap.identity(UNIT)("x"),
        "not a rational numeral: 'x'",
    ),
    "extents-text": (
        lambda: check_majoritarian_extents(PRule((1,)), PROFILE, 0, "x", "1/2"),
        "not a rational numeral: 'x'",
    ),
    "map-argument-outside": (
        lambda: PiecewiseLinearMap.identity(UNIT)(F(2)),
        "2 outside the closed domain",
    ),
    "map-other-domain": (
        lambda: check_stability(
            MeanRule(), PROFILE, PiecewiseLinearMap(Domain(0, 2), ((0, 0), (1, "1/10"), (2, 2)))
        ),
        "report over a different domain than the map",
    ),
    "lipschitz-eps-zero": (
        lambda: check_lipschitz(MeanRule(), PROFILE, 0, 5),
        "eps must be positive, got 0",
    ),
    "lipschitz-eps-negative": (
        lambda: check_lipschitz(MeanRule(), PROFILE, F(-1, 2), 5),
        "eps must be positive, got -1/2",
    ),
    "report-verdict": (lambda: AxiomReport("x", "maybe"), "unknown verdict 'maybe'"),
    "report-witness": (
        lambda: AxiomReport("x", VIOLATED),
        "a violation report needs a witness",
    ),
    "map-direction": (
        lambda: random_monotone_map(UNIT, 0, "sideways"),
        "unknown direction 'sideways'",
    ),
    "extent-interval": (
        lambda: majority_extent_agents(PROFILE, 0, H, Q),
        "need a < b, got 1/2 >= 1/4",
    ),
    "extent-interior": (
        lambda: majority_extent_agents(PROFILE, 0, F(0), H),
        "a and b must be interior points",
    ),
    "extent-word-index": (
        lambda: check_majoritarian_extents(PRule((1,)), PROFILE, 2, Q, T),
        "word index 2 outside 0..1",
    ),
    # a shape the rule refuses is refused before its phantoms are probed
    "responsiveness-more-columns": (
        lambda: check_strict_responsiveness(TWO_COLUMN_MEDIAN, 5, 0, m=3),
        "phantom matrix with 2 columns for m=3",
    ),
    "responsiveness-fewer-columns": (
        lambda: check_strict_responsiveness(TWO_COLUMN_MEDIAN, 5, 0, m=1),
        "phantom matrix with 2 columns for m=1",
    ),
    "responsiveness-corner-phantoms": (
        lambda: check_strict_responsiveness(
            ExtendedMedianRule(boundary_phantoms(PositionVector((1, 2)), 3, UNIT)), 5, 0, m=3
        ),
        "phantom matrix with 2 columns for m=3",
    ),
    # exemplars
    "exemplar-outside": (
        lambda: LabeledExemplars(UNIT, ((F(2), 0),)),
        "exemplar 2 outside the open domain",
    ),
    "exemplar-negative-label": (
        lambda: LabeledExemplars(UNIT, ((H, -1),)),
        "negative word index -1",
    ),
    "exemplars-unsorted": (
        lambda: LabeledExemplars(UNIT, ((H, 0), (Q, 0))),
        "exemplars not strictly increasing: 1/2, 1/4",
    ),
    "hull-reversed": (lambda: InducedVocabulary(UNIT, ((H, Q),)), "hull with 1/2 > 1/4"),
    "hull-outside": (
        lambda: InducedVocabulary(UNIT, ((F(0), F(2)),)),
        "hull [0, 2] outside the closed domain",
    ),
    "hulls-out-of-order": (
        lambda: InducedVocabulary(UNIT, ((0, H), (Q, 1))),
        "known extents out of order: 1/2 > 1/4",
    ),
    "induce-words-not-integer": (lambda: induce(OBSERVED, 1.5), "not an integer: 1.5"),
    "induce-words-text": (lambda: induce(OBSERVED, "2"), "not an integer: '2'"),
    "induce-words-bool": (lambda: induce(OBSERVED, True), "not an integer: True"),
    "gap-order-not-a-string": (
        lambda: aggregate_gaps([ONE_GAP], (1,), ["lex"]),
        "unknown gap order ['lex']; choose from ['lex', 'midpoint', 'right']",
    ),
    "incremental-gap-order-not-a-string": (
        lambda: check_incremental_consistency([OBSERVED], [OBSERVED], (1,), ["lex"]),
        "unknown gap order ['lex']; choose from ['lex', 'midpoint', 'right']",
    ),
    # io
    "profile-not-an-object": (
        lambda: parse_profile("[]"),
        "expected a JSON object at the top level",
    ),
    "exemplars-without-words": (
        lambda: parse_profile(exemplar_document(words=None)),
        "words: required for exemplar-form agents",
    ),
    "exemplars-missing": (
        lambda: parse_profile(exemplar_document(exemplars=None)),
        "exemplars: expected a nonempty list of values",
    ),
    "exemplars-empty": (
        lambda: parse_profile(exemplar_document(exemplars=[])),
        "exemplars: expected a nonempty list of values",
    ),
    "result-not-an-object": (lambda: parse_result("5"), "expected a JSON object at the top level"),
    "result-vocabulary-short": (
        lambda: ResultDocument({"kind": "mean"}, UNIT, ("a", "b"), (H,), ((0, H),)),
        "one extent slot per word required",
    ),
    # render
    "render-names": (lambda: render_diagram(TWO_WORDS, "ascii", ["a"]), "1 names for 2 words"),
    "render-style": (
        lambda: render_diagram(TWO_WORDS, "png"),
        "unknown render style 'png'; choose ascii or svg",
    ),
    # sampling
    "negative-trials": (lambda: require_trials(-1), "trials must be nonnegative, got -1"),
    # counts are integers: a float would reach ``range``, a bool would run
    "trials-not-integer": (lambda: sp_fuzz(MeanRule(), 2.5, 0), "not an integer: 2.5"),
    "agents-not-integer": (lambda: sp_fuzz(MeanRule(), 3, 0, n=2.5), "not an integer: 2.5"),
    "boundaries-not-integer": (lambda: sp_fuzz(MeanRule(), 3, 0, m=2.0), "not an integer: 2.0"),
    "lipschitz-trials-not-integer": (
        lambda: check_lipschitz(MeanRule(), PROFILE, F(1, 16), 1.5),
        "not an integer: 1.5",
    ),
    "battery-trials-bool": (lambda: run_axiom_battery(MeanRule(), True, 0), "not an integer: True"),
    "lattice-too-small": (
        lambda: strict_picks(random.Random(0), 4, 4),
        "lattice with 3 interior points cannot hold 4 distinct values",
    ),
    # strategic
    "weight-zero": (
        lambda: SinglePeakedPreference(HALF, (F(0),)),
        "weights must be positive, got 0",
    ),
    "deviation-grid-one": (
        lambda: sp_fuzz(MeanRule(), 5, 0, 1),
        "deviation grid must be at least 2, got 1",
    ),
    "deviation-grid-negative": (
        lambda: sp_fuzz(MeanRule(), 5, 0, -3),
        "deviation grid must be at least 2, got -3",
    ),
    "deviation-grid-not-integer": (lambda: sp_fuzz(MeanRule(), 5, 0, 2.5), "not an integer: 2.5"),
    # entries that are not pairs
    "extent-not-a-pair": (
        lambda: InducedVocabulary(UNIT, (5,)),
        "entry 0: expected a pair, got 5",
    ),
    "gap-not-a-pair": (
        lambda: GapSequence(UNIT, ((Q, Q), (0,))),
        "entry 1: expected a pair, got (0,)",
    ),
    "breakpoint-not-a-pair": (
        lambda: PiecewiseLinearMap(UNIT, ((0, 0), 1)),
        "entry 1: expected a pair, got 1",
    ),
    "exemplar-not-a-pair": (
        lambda: LabeledExemplars(UNIT, ("1/2",)),
        "entry 0: expected a pair, got '1/2'",
    ),
    # integer arguments are exact
    "position-not-integer": (lambda: PositionVector((1.9, 2.5)), "not an integer: 1.9"),
    "position-bool": (lambda: PositionVector((True,)), "not an integer: True"),
    "label-not-integer": (
        lambda: LabeledExemplars(UNIT, ((H, 1.7),)),
        "not an integer: 1.7",
    ),
    "dictator-not-integer": (lambda: DictatorRule(1.0), "not an integer: 1.0"),
    # a rank or count is read before any arithmetic: a float would index or
    # reach ``range``, a bool would pass as 0 or 1
    "median-positions-agents-text": (lambda: median_positions("3", 3), "not an integer: '3'"),
    "median-positions-agents-bool": (lambda: median_positions(True, 1), "not an integer: True"),
    "median-positions-agents-float": (lambda: median_positions(3.0, 3), "not an integer: 3.0"),
    "median-positions-boundaries-float": (lambda: median_positions(3, 3.0), "not an integer: 3.0"),
    "boundary-phantoms-agents-float": (
        lambda: boundary_phantoms((1, 2), 3.0, UNIT),
        "not an integer: 3.0",
    ),
    "is-symmetric-agents-float": (lambda: is_symmetric((1, 2), 2.0), "not an integer: 2.0"),
    "majoritarian-band-float": (lambda: majoritarian_band(3.0), "not an integer: 3.0"),
    "extent-search-agents-text": (
        lambda: search_extent_violation((1, 2), "3", 4, 0),
        "not an integer: '3'",
    ),
    # an index is read before it indexes: a float would raise a raw TypeError,
    # a bool would pass as 0 or 1
    "bound-index-float": (lambda: HALF.bound(1.0), "not an integer: 1.0"),
    "bound-index-bool": (lambda: HALF.bound(True), "not an integer: True"),
    "row-index-float": (lambda: PROFILE.row(1.0), "not an integer: 1.0"),
    "row-index-bool": (lambda: PROFILE.row(True), "not an integer: True"),
    "column-index-float": (lambda: PROFILE.column(1.0), "not an integer: 1.0"),
    "column-index-bool": (lambda: PROFILE.column(True), "not an integer: True"),
    "with-row-index-float": (lambda: PROFILE.with_row(1.0, HALF), "not an integer: 1.0"),
    "with-row-index-bool": (lambda: PROFILE.with_row(True, HALF), "not an integer: True"),
    "majoritarian-extents-word-float": (
        lambda: check_majoritarian_extents(MeanRule(), PROFILE, 1.0, Q, H),
        "not an integer: 1.0",
    ),
    "majoritarian-extents-word-bool": (
        lambda: check_majoritarian_extents(MeanRule(), PROFILE, True, Q, H),
        "not an integer: True",
    ),
    "uncompromising-boundary-float": (
        lambda: check_uncompromising(MeanRule(), PROFILE, 1, HALF, 1.0),
        "not an integer: 1.0",
    ),
    "uncompromising-boundary-bool": (
        lambda: check_uncompromising(MeanRule(), PROFILE, 1, HALF, True),
        "not an integer: True",
    ),
    # read before it is compared: a text word would raise a raw TypeError
    "extent-agents-word-text": (
        lambda: majority_extent_agents(PROFILE, "1", Q, H),
        "not an integer: '1'",
    ),
    "extent-agents-word-float": (
        lambda: majority_extent_agents(PROFILE, 1.0, Q, H),
        "not an integer: 1.0",
    ),
    "extent-agents-word-bool": (
        lambda: majority_extent_agents(PROFILE, True, Q, H),
        "not an integer: True",
    ),
}


def test_the_family_is_a_value_error():
    assert issubclass(VocaggError, ValueError)
    assert issubclass(ParseError, VocaggError)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_check_raises_the_family(name):
    call, message = CASES[name]
    with pytest.raises(VocaggError) as info:
        call()
    assert str(info.value) == message


def test_messages_show_values_of_any_size():
    huge = "7" * 5000  # past the interpreter's int-to-text limit
    with pytest.raises(VocaggError) as info:
        EndpointMultiset(UNIT, (huge,))
    assert str(info.value) == f"endpoint {huge} outside [0, 1]"
    with pytest.raises(VocaggError) as info:
        PositionVector((10**5000, 1))
    assert str(info.value) == f"positions not nondecreasing: 1{'0' * 5000} > 1"
    with pytest.raises(VocaggError) as info:
        LabeledExemplars(UNIT, ((H, [10**5000]),))
    assert str(info.value) == "not an integer: <list holding an integer too long to print>"


def test_integer_arguments_stay_integers():
    assert PositionVector((1, 2)).positions == (1, 2)
    assert LabeledExemplars(UNIT, ((H, 1),)).labels == (1,)
    assert DictatorRule(2)(Profile((HALF, EndpointMultiset(UNIT, (T,))))).values == (T,)


THREE = Profile.from_rows(UNIT, [(Q, H), (Q, T), (H, T)])
# every entry point that takes rational values, called with values read by ``q``
TAKES_RATIONALS = {
    "between": lambda q: between(q(10), q(9), q(8)),
    "Domain.contains": lambda q: UNIT.contains(q(H)),
    "Domain.contains_closed": lambda q: UNIT.contains_closed(q(1)),
    "check_majoritarian_extents": lambda q: check_majoritarian_extents(
        PRule((2, 2)), THREE, 1, q(F(1, 3)), q(H)
    ),
    "majority_extent_agents": lambda q: majority_extent_agents(THREE, 1, q(F(1, 3)), q(H)),
    "PiecewiseLinearMap": lambda q: PiecewiseLinearMap.reversal(UNIT)(q(Q)),
}


@pytest.mark.parametrize("name", sorted(TAKES_RATIONALS))
def test_rational_arguments_may_be_numeral_text(name):
    call = TAKES_RATIONALS[name]
    assert call(rational_str) == call(F)


GAP_ROWS = [GapSequence(UNIT, gaps) for gaps in [((F(0), Q), (H, T)), ((Q, H), (H, F(1)))] * 2]
EXEMPLARS = [LabeledExemplars(UNIT, ((Q, 0), (T, 2)))] * 3
# every entry point that takes a position vector, called with one for m = 2 boundaries
TAKES_POSITIONS = {
    "PRule": lambda positions: PRule(positions)(THREE),
    "boundary_phantoms": lambda positions: boundary_phantoms(positions, 3, UNIT),
    "is_symmetric": lambda positions: is_symmetric(positions, 3),
    "apply_p_rule_reversed": lambda positions: apply_p_rule_reversed(THREE, positions),
    "aggregate_gaps": lambda positions: aggregate_gaps(GAP_ROWS, positions),
    "search_extent_violation": lambda positions: search_extent_violation(positions, 3, 4, seed=0),
    "check_incremental_consistency": lambda positions: check_incremental_consistency(
        EXEMPLARS, EXEMPLARS, positions
    ),
}


@pytest.mark.parametrize("name", sorted(TAKES_POSITIONS))
def test_position_vectors_may_be_plain_rank_sequences(name):
    call = TAKES_POSITIONS[name]
    expected = call(PositionVector((1, 3)))
    assert call((1, 3)) == expected and call([1, 3]) == expected
    for bad, message in [
        (3, "not a sequence of ranks: 3"),
        (None, "not a sequence of ranks: None"),
        ((1.5, 3), "not an integer: 1.5"),
    ]:
        with pytest.raises(VocaggError) as info:
            call(bad)
        assert str(info.value) == message
