import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import vocagg

from vocagg import (
    Domain,
    DictatorRule,
    EndpointMultiset,
    ExtendedMedianRule,
    MeanRule,
    MultisetRule,
    ParseError,
    PhantomMatrix,
    PRule,
    Profile,
    ResultDocument,
    UnknownFixture,
    Vocabulary,
    apply_rule,
    as_rational,
    build_result,
    describe_rule,
    fixture_rule,
    jsonify,
    load_json,
    median_positions,
    parse_profile,
    parse_result,
    rational_str,
    render_diagram,
    report_to_json,
    rule_from_descriptor,
    run_axiom_battery,
    serialize_result,
)
from vocagg.cli import main
from vocagg.core import MAX_NUMERAL_DIGITS, decode_endpoints, default_words, encode_vocabulary, shown
from vocagg.exemplars import GapSequence, collective_incomplete
from vocagg.io import ParsedInput, _Numerals, _at, _indented, _read_int

UNIT = Domain(F(0), F(1))
# the interpreter's int-to-text limit (0 when switched off)
INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300

GRADING_DOC = {
    "domain": {"lower": "0", "upper": "100"},
    "words": ["F", "D", "C", "B", "A"],
    "agents": [
        {"endpoints": ["20", "40", "60", "80"]},
        {"endpoints": ["10", "20", "30", "50"]},
        {"endpoints": ["30", "45", "55", "70"]},
    ],
}

EXEMPLAR_DOC = {
    "domain": {"lower": "0", "upper": "1"},
    "words": ["A", "B", "C", "D"],
    "exemplars": ["1/5", "2/5", "3/5"],
    "agents": [
        {"exemplar_labels": ["A", "C", "D"]},
        {"exemplar_labels": ["B", "B", "C"]},
        {"exemplar_labels": ["A", "C", "C"]},
    ],
}

# numeral forms that Python 3.10 to 3.13 read differently with ``Fraction(str)``
NUMERAL_FORMS_DOC = {
    "domain": {"lower": "0", "upper": "1_000"},
    "agents": [{"endpoints": ["250"]}, {"endpoints": ["3 / 4"]}, {"endpoints": ["750"]}],
}

# phantom columns for GRADING_DOC: n - 1 = 2 values for each of its 4 boundaries
GRADING_PHANTOMS = [["0", "25"], ["10", "50"], ["50", "75"], ["60", "100"]]

TWO_AGENT_DOC = {
    "domain": {"lower": "0", "upper": "1"},
    "agents": [{"endpoints": ["1/4"]}, {"endpoints": ["1/2"]}],
}


def dumped_result(doc):
    """The text of a result document as ``json.dumps(indent=2)`` writes its fields."""
    payload = {
        "rule": doc.rule,
        "domain": {"lower": rational_str(doc.domain.lower), "upper": rational_str(doc.domain.upper)},
        "words": list(doc.words),
        "endpoints": [rational_str(q) for q in doc.endpoints],
        "vocabulary": {
            word: None if extent is None else [rational_str(q) for q in extent]
            for word, extent in zip(doc.words, doc.vocabulary)
        },
        "reports": list(doc.reports),
        "witnesses": list(doc.witnesses),
    }
    return json.dumps(payload, indent=2) + "\n"


class TestRationals:
    def test_rational_str_forms(self):
        assert rational_str(F(3, 4)) == "3/4"
        assert rational_str(F(-3, 4)) == "-3/4"
        assert rational_str(F(20)) == "20"

    def test_parse_rational_accepts_exact_forms(self):
        assert as_rational("3/4") == F(3, 4)
        assert as_rational("48.33") == F(4833, 100)
        assert as_rational(7) == F(7)
        assert as_rational(F(1, 3)) == F(1, 3)

    @pytest.mark.parametrize("bad", [0.5, True, None, [], "1/0", "abc", ""])
    def test_parse_rational_rejections(self, bad):
        with pytest.raises(ParseError):
            as_rational(bad)

    def test_error_message_names_the_site(self):
        doc = {"domain": {"lower": "0", "upper": "1"}, "agents": [{"endpoints": ["0", "1", "oops"]}]}
        with pytest.raises(ParseError, match="endpoints\\[2\\]"):
            parse_profile(json.dumps(doc))


class Text(str):
    pass


class Count(int):
    pass


# ``load_json`` against ``json.loads`` with its hooks: text, and what json.loads
# refuses or decodes itself before decoding
LOAD_CASES = {
    "numbers-and-literals": '{"x": [48.33, 7, -0, 1e5, "1/3", null, true]}',
    "str-subclass": Text('{"a": 1}'),
    "bom": "\ufeff{}",
    "bom-object": '\ufeff{"x": 1}',
    "bytes": b'{"x": 1.5}',
    "bytes-bom": b'\xef\xbb\xbf{"x": 2}',
    "bytearray": bytearray(b"[1]"),
    "bytes-not-utf8": b"\xff",
    "none": None,
    "int": 5,
    "list": ["{}"],
    "empty": "",
    "blank": " ",
    "open-object": "{",
    "missing-value": '{"a": }',
    "open-list": "[1, 2",
    "double-comma": "[1,,2]",
    "extra-data": '{"a": 1} x',
    "missing-colon-on-line-3": '\n\n  {"a" 1}',
    "bad-escape": '["\\x"]',
    "infinities": "[Infinity, -Infinity]",
    "integer-past-the-bound": "1" * (MAX_NUMERAL_DIGITS + 1),
    "negative-integer-past-the-bound": "[-" + "1" * (MAX_NUMERAL_DIGITS + 1) + "]",
    "integer-at-the-bound": "1" * MAX_NUMERAL_DIGITS,
}


class TestLoadJson:
    def test_float_literals_stay_textual(self):
        assert load_json('{"x": 48.33}') == {"x": "48.33"}

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 2, column"):
            load_json('{"x":\n }')

    @pytest.mark.parametrize("text", LOAD_CASES.values(), ids=LOAD_CASES.keys())
    def test_reads_what_json_loads_reads(self, text):
        def reference(text):
            try:
                return json.loads(text, parse_float=str, parse_int=_read_int)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None

        def outcome(load):
            try:
                return "value", load(text)
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(load_json) == outcome(reference)


class TestJsonify:
    def test_exact_values_become_strings(self):
        value = {"a": F(1, 3), "b": [F(2), None, True], "c": {F(1, 2), F(0)}}
        assert jsonify(value) == {"a": "1/3", "b": ["2", None, True], "c": ["0", "1/2"]}

    def test_endpoint_multisets_flatten(self):
        row = EndpointMultiset(UNIT, (F(1, 4), F(1, 2)))
        assert jsonify(row) == ["1/4", "1/2"]

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            jsonify({"x": 0.5})

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="^cannot serialize <object object at "):
            jsonify(object())


def written(write, value):
    """``write(value)``, or the type of the exception it raises."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc)


def same_as_json_dumps(value):
    expected = written(lambda v: json.dumps(v, indent=2), value)
    assert written(lambda v: _indented(v, "\n"), value) == expected
    return expected


# text that json must escape: quotes, backslashes, control characters, DEL,
# non-ASCII, astral characters and a lone surrogate
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é \ud800'), st.characters()),
    max_size=8,
)
JSON_INTS = st.one_of(
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    # past the interpreter's int-to-text limit: json.dumps raises ValueError
    st.builds(lambda digits, sign: sign * 10**digits, st.integers(INT_TEXT_LIMIT, INT_TEXT_LIMIT + 5), st.sampled_from([1, -1])),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=5), st.dictionaries(JSON_TEXT, children, max_size=5)),
    max_leaves=20,
)


class TestIndentedWriter:
    """``io._indented(value, "\\n")`` writes what ``json.dumps(value, indent=2)``
    writes, or raises an exception of the same type."""

    @settings(deadline=None)
    @given(JSON_VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        same_as_json_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "a", "b": [2]},
            {"a": {1: [True]}, "b": ["x", {None: 1.5, True: 2, 2.5: 3}]},
            [Text("a\"b"), "c"],
            {Text("k"): Text("v")},
            [Count(3), Count(-4)],
            {"n": Count(5)},
            [0.1, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
            {"x": float("nan")},
            ("a", (1, [2])),
            {"k": ("a", None)},
            [[], {}, [[]], [{}], ""],
        ],
    )
    def test_hands_every_other_value_to_json_dumps(self, value):
        assert isinstance(same_as_json_dumps(value), str)

    @pytest.mark.parametrize(
        "value",
        [object(), [1, object()], {"a": {1, 2}}, ["a", b"x"], {(1, 2): 3}, [10**(INT_TEXT_LIMIT + 1)]],
    )
    def test_refuses_what_json_dumps_refuses(self, value):
        assert same_as_json_dumps(value) in (TypeError, ValueError)

    def test_nests_after_the_newline_it_is_given(self):
        value = {"a": [1, {"b": ["c"]}], "d": {}}
        assert _indented(value, "\n    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


class TestParseProfile:
    def test_endpoint_form(self):
        parsed = parse_profile(json.dumps(GRADING_DOC))
        assert parsed.kind == "endpoints"
        assert parsed.words == ("F", "D", "C", "B", "A")
        assert parsed.profile.n == 3 and parsed.profile.m == 4
        assert parsed.profile.row(2).values == (F(10), F(20), F(30), F(50))

    def test_default_word_names(self):
        doc = dict(GRADING_DOC)
        del doc["words"]
        parsed = parse_profile(json.dumps(doc))
        assert parsed.words == ("w1", "w2", "w3", "w4", "w5")
        assert default_words(2) == ("w1", "w2")

    def test_decimal_float_literals_parse_exactly(self):
        text = json.dumps(TWO_AGENT_DOC).replace('"1/4"', "0.25")
        parsed = parse_profile(text)
        assert parsed.profile.row(1).values == (F(1, 4),)

    def test_extent_form_encodes_vocabularies(self):
        doc = {
            "domain": {"lower": "0", "upper": "1"},
            "words": ["w1", "w2", "w3", "w4"],
            "agents": [
                {
                    "extents": {
                        "w1": ["0", "1/4"],
                        "w2": ["1/4", "1/2"],
                        "w3": None,
                        "w4": ["1/2", "1"],
                    }
                }
            ],
        }
        parsed = parse_profile(json.dumps(doc))
        assert parsed.kind == "extents"
        assert parsed.profile.row(1).values == (F(1, 4), F(1, 2), F(1, 2))
        assert parsed.vocabularies[0].extents[2] is None

    def test_exemplar_form(self):
        parsed = parse_profile(json.dumps(EXEMPLAR_DOC))
        assert parsed.kind == "exemplars"
        assert parsed.profile is None
        assert parsed.exemplars[0].points == ((F(1, 5), 0), (F(2, 5), 2), (F(3, 5), 3))
        assert parsed.exemplars[1].labels == (1, 1, 2)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("domain"), "domain"),
            (lambda d: d.update(agents=[]), "agents"),
            (
                lambda d: d["agents"].append({"extents": {}}),
                "same form",
            ),
            (
                lambda d: d["agents"][0].update(extents={}),
                "exactly one",
            ),
            (
                lambda d: d["agents"][1].update(endpoints=["10", "20", "30"]),
                "expected 4",
            ),
            (
                lambda d: d.update(words=["only", "two"]),
                "5 words",
            ),
            (
                lambda d: d.update(words=["X", "X", "Y", "Z", "Q"]),
                "distinct",
            ),
            (
                lambda d: d["agents"][1].update(endpoints=["20", "40", "60", "101"]),
                "agents\\[1\\]",
            ),
            (lambda d: d.update(domain=5), "^domain: expected an object with lower and upper$"),
            (lambda d: d["agents"].append(5), "^agents\\[3\\]: expected an object$"),
            (
                lambda d: d["agents"][0].update(endpoints="20"),
                "^agents\\[0\\].endpoints: expected a list$",
            ),
            (
                lambda d: d.update(agents=[{"extents": 5}]),
                "^agents\\[0\\].extents: expected an object keyed by word name$",
            ),
            (lambda d: d["domain"].pop("upper"), "^domain.upper: missing$"),
        ],
    )
    def test_endpoint_document_errors(self, mutate, message):
        doc = json.loads(json.dumps(GRADING_DOC))
        mutate(doc)
        with pytest.raises(ParseError, match=message):
            parse_profile(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "agents": [
                        {"endpoints": ["1/4", "1/2"]},
                        {"endpoints": ["1/4", "x/2"]},
                        {"endpoints": ["x/2", "1/2"]},
                    ],
                },
                "agents[1].endpoints[1]: not a rational numeral: 'x/2'",
            ),
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "agents": [
                        {"endpoints": ["1/4", "1/2"]},
                        {"endpoints": ["1/2", "1/4"]},
                        {"endpoints": ["1/2", "3/2"]},
                    ],
                },
                "agents[1].endpoints: endpoints not sorted: 1/2 > 1/4",
            ),
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "agents": [
                        {"endpoints": ["1", "1/2"]},
                        {"endpoints": ["1/2", True]},
                    ],
                },
                "agents[0].endpoints: endpoints not sorted: 1 > 1/2",
            ),
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "words": ["a", "b"],
                    "agents": [
                        {"extents": {"a": ["0", "1/2"], "b": ["1/2", "1"]}},
                        {"extents": {"a": ["0", "1/2"], "b": ["1/2", "1/0"]}},
                        {"extents": {"a": ["0", "1/0"], "b": ["1/2", "1"]}},
                    ],
                },
                "agents[1].extents.b[1]: not a rational numeral: '1/0'",
            ),
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "words": ["a", "b", "c"],
                    "exemplars": ["1/4", "1/2", "1/4 4"],
                    "agents": [{"exemplar_labels": ["a", "b", "c"]}],
                },
                "exemplars[2]: not a rational numeral: '1/4 4'",
            ),
        ],
        ids=["bad-text-twice", "good-text-out-of-order", "bool-after-good", "extent", "exemplar"],
    )
    def test_first_bad_place_is_reported_when_numerals_repeat(self, doc, message):
        with pytest.raises(ParseError) as caught:
            parse_profile(json.dumps(doc))
        assert str(caught.value) == message

    @pytest.mark.parametrize("value", [True, None, [], {}])
    def test_a_non_numeral_value_is_refused_at_its_place(self, value):
        doc = {"domain": {"lower": "0", "upper": "1"}, "agents": [{"endpoints": ["1/2", value]}]}
        with pytest.raises(ParseError) as caught:
            parse_profile(json.dumps(doc))
        assert str(caught.value).startswith("agents[0].endpoints[1]: not a rational value: ")

    def test_each_document_reads_its_distinct_numerals_once(self, monkeypatch):
        reads = []

        def counting(value):
            reads.append(value)
            return as_rational(value)

        monkeypatch.setattr(vocagg.io, "as_rational", counting)
        text = json.dumps(GRADING_DOC)
        first = parse_profile(text)
        assert sorted(reads) == sorted(
            {"0", "100", "10", "20", "30", "40", "45", "50", "55", "60", "70", "80"}
        )
        # a second call shares no memo with the first: it reads them all again
        second = parse_profile(text)
        assert len(reads) == 24 and sorted(reads[:12]) == sorted(reads[12:])
        assert first == second

    def test_a_text_repeated_where_it_first_occurs_is_one_object(self):
        doc = {"domain": {"lower": "0", "upper": "1"}, "agents": [{"endpoints": ["1/8", "1/8", "1/8"]}]}
        first, second, third = parse_profile(json.dumps(doc)).profile.rows[0].values
        assert first is second is third
        descriptor = {"kind": "extended-median", "columns": [["1/4", "1/4"]]}
        low, high = rule_from_descriptor(descriptor, 3, 1, UNIT).phantoms.columns[0]
        assert low is high

    def test_extents_need_word_names(self):
        doc = {
            "domain": {"lower": "0", "upper": "1"},
            "agents": [{"extents": {"w1": ["0", "1"]}}],
        }
        with pytest.raises(ParseError, match="words: required"):
            parse_profile(json.dumps(doc))

    def test_extents_reject_unknown_words(self):
        doc = {
            "domain": {"lower": "0", "upper": "1"},
            "words": ["w1", "w2"],
            "agents": [{"extents": {"w1": ["0", "1/2"], "zz": ["1/2", "1"]}}],
        }
        with pytest.raises(ParseError, match="unknown words"):
            parse_profile(json.dumps(doc))

    def test_exemplar_label_errors(self):
        doc = json.loads(json.dumps(EXEMPLAR_DOC))
        doc["agents"][0]["exemplar_labels"] = ["A", "C", "Z"]
        with pytest.raises(ParseError, match="unknown word 'Z'"):
            parse_profile(json.dumps(doc))
        doc["agents"][0]["exemplar_labels"] = ["A", "C"]
        with pytest.raises(ParseError, match="one label per exemplar"):
            parse_profile(json.dumps(doc))
        doc["agents"][0]["exemplar_labels"] = [["A"], "C", "D"]
        with pytest.raises(ParseError, match="exemplar_labels\\[0\\]"):
            parse_profile(json.dumps(doc))

    def test_exemplar_labels_must_follow_the_line(self):
        doc = json.loads(json.dumps(EXEMPLAR_DOC))
        doc["agents"][2]["exemplar_labels"] = ["C", "B", "C"]
        with pytest.raises(ParseError, match="agents\\[2\\]"):
            parse_profile(json.dumps(doc))


class TestRuleDescriptors:
    @pytest.mark.parametrize(
        "rule",
        [
            PRule(median_positions(3, 4)),
            MeanRule(),
            MultisetRule(),
            DictatorRule(2),
            ExtendedMedianRule(
                PhantomMatrix(
                    Domain(F(0), F(100)),
                    ((0, 50), (F(100, 3), 50), (50, 100), (50, 100)),
                )
            ),
            fixture_rule("inf-rule"),
            fixture_rule("dictator"),
            fixture_rule("mean"),
            fixture_rule("discontinuous-rule"),
        ],
    )
    def test_describe_round_trips(self, rule):
        descriptor = describe_rule(rule)
        assert rule_from_descriptor(descriptor, 3, 4, Domain(F(0), F(100))) == rule

    def test_fixture_descriptor(self):
        rule = fixture_rule("inf-rule")
        descriptor = describe_rule(rule)
        assert descriptor == {"kind": "fixture", "name": "inf-rule"}
        rebuilt = rule_from_descriptor(descriptor, 3, 3, UNIT)
        assert rebuilt.name == "inf-rule"

    def test_extended_median_descriptor_round_trips(self):
        descriptor = {"kind": "extended-median", "columns": [["0", "1/2"], ["1/2", "1"]]}
        rule = rule_from_descriptor(descriptor, 3, 2, UNIT)
        assert describe_rule(rule) == descriptor

    def test_string_forms(self):
        assert rule_from_descriptor("median", 3, 3, UNIT) == PRule(
            median_positions(3, 3)
        )
        assert rule_from_descriptor("p:1,2,3", 3, 3, UNIT) == PRule(
            PRule(median_positions(3, 3)).positions.__class__((1, 2, 3))
        )
        assert rule_from_descriptor("dictator:2", 3, 3, UNIT) == DictatorRule(2)
        assert rule_from_descriptor("mean", 3, 3, UNIT) == MeanRule()
        assert rule_from_descriptor("multiset", 3, 3, UNIT) == MultisetRule()
        assert rule_from_descriptor({"kind": "median"}, 5, 2, UNIT) == PRule(
            median_positions(5, 2)
        )

    @pytest.mark.parametrize(
        "text, descriptor",
        [
            ("median", {"kind": "median"}),
            ("mean", {"kind": "mean"}),
            ("multiset", {"kind": "multiset"}),
            ("dictator:2", {"kind": "dictator", "agent": 2}),
            ("p:1,2,3", {"kind": "p-rule", "positions": [1, 2, 3]}),
            ("fixture:inf-rule", {"kind": "fixture", "name": "inf-rule"}),
            ("fixture:discontinuous-rule", {"kind": "fixture", "name": "discontinuous-rule"}),
            ("p: 1, 2, 3", {"kind": "p-rule", "positions": [1, 2, 3]}),
            ("dictator:0_2", {"kind": "dictator", "agent": 2}),
        ],
    )
    def test_string_form_builds_its_dict_form(self, text, descriptor):
        rule = rule_from_descriptor(text, 3, 3, UNIT)
        assert rule == rule_from_descriptor(descriptor, 3, 3, UNIT)
        assert rule_from_descriptor(describe_rule(rule), 3, 3, UNIT) == rule
        if descriptor["kind"] != "median":
            assert describe_rule(rule) == descriptor

    @pytest.mark.parametrize(
        "bad",
        [
            "nonesuch",
            "dictator:x",
            "p:one,two",
            "p:4,4,4",
            {"kind": "nonesuch"},
            {"positions": [1, 2]},
            {"kind": "extended-median"},
            {"kind": "dictator"},
            {"kind": "extended-median", "columns": [1, 2, 3, 4]},
            {"kind": "p-rule"},
            {"kind": "p-rule", "positions": [1.9, 2]},
            {"kind": "p-rule", "positions": [True, 2]},
            {"kind": "p-rule", "positions": ["1", "2"]},
            {"kind": "p-rule", "positions": {"1": 0, "2": 0}},
            {"kind": "p-rule", "positions": "12"},
            {"kind": "dictator", "agent": 1.9},
            {"kind": "dictator", "agent": "2"},
            {"kind": "dictator", "agent": True},
        ],
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(ParseError):
            rule_from_descriptor(bad, 3, 3, UNIT)

    @pytest.mark.parametrize(
        "name", [None, ["inf-rule"], {"inf-rule": 1}, 10**5000], ids=["null", "list", "object", "long-int"]
    )
    def test_a_fixture_name_must_be_a_string(self, name):
        with pytest.raises(UnknownFixture, match="no fixture"):
            rule_from_descriptor({"kind": "fixture", "name": name}, 3, 3, UNIT)


class TestResultDocuments:
    def build(self, grading_profile):
        rule = PRule(median_positions(3, 4))
        endpoints = apply_rule(grading_profile, rule)
        return build_result(rule, GRADING_DOC["words"], endpoints)

    def test_build_decodes_the_vocabulary(self, grading_profile):
        doc = self.build(grading_profile)
        assert doc.endpoints == (F(20), F(40), F(55), F(70))
        assert doc.vocabulary[0] == (F(0), F(20))
        assert doc.vocabulary[4] == (F(70), F(100))

    def test_serialization_round_trips(self, grading_profile):
        doc = self.build(grading_profile)
        text = serialize_result(doc)
        assert parse_result(text) == doc
        assert text.startswith('{\n  "rule"')
        assert text == serialize_result(parse_result(text))

    def test_serialized_values_are_rational_strings(self, grading_profile):
        payload = json.loads(serialize_result(self.build(grading_profile)))
        assert payload["endpoints"] == ["20", "40", "55", "70"]
        assert payload["vocabulary"]["A"] == ["70", "100"]

    def test_huge_values_round_trip(self):
        # a 5000-digit denominator, past the interpreter's int-to-text limit
        tiny = F(1, 10**4999 + 7)
        profile = Profile.from_rows(UNIT, [(tiny, F(1, 2))])
        rule = PRule(median_positions(1, 2))
        doc = build_result(rule, default_words(3), apply_rule(profile, rule))
        text = serialize_result(doc)
        assert json.loads(text)["endpoints"][0] == "1/1" + "0" * 4998 + "7"
        assert parse_result(text) == doc

    def test_a_rule_described_outside_the_package_has_its_descriptor_converted(self):
        class WeightedMean(MeanRule):
            def describe(self):
                return {"kind": "mean", "weights": (F(1, 2), F(1, 2)), "phantoms": [F(1, 3)]}

        rule = WeightedMean()
        profile = Profile.from_rows(UNIT, [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])
        endpoints = apply_rule(profile, rule)
        doc = build_result(rule, default_words(3), endpoints)
        assert doc.rule == {"kind": "mean", "weights": ["1/2", "1/2"], "phantoms": ["1/3"]}
        assert parse_result(serialize_result(doc)) == doc
        with pytest.raises(ParseError, match="^2 words for 2 endpoints$"):
            build_result(rule, default_words(2), endpoints)

    def test_values_past_the_int_text_limit_print_as_jsonify_prints_them(self):
        # a mean over 1001 distinct primes near 10**6: its denominator passes the
        # int-to-text limit, so every text goes through ``Decimal``
        sieve = bytearray([1]) * 1_020_000
        for p in range(2, 1010):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
        primes = [p for p in range(1_000_000, len(sieve)) if sieve[p]][:1001]
        assert len(primes) == 1001
        profile = Profile.from_rows(UNIT, [(F(1, p), F(p - 1, p)) for p in primes])
        built = build_result(MeanRule(), default_words(3), apply_rule(profile, MeanRule()))
        # the same extents, each value a distinct object equal to the one decoded
        copies = tuple(
            None if e is None else tuple(F(q.numerator, q.denominator) for q in e)
            for e in built.vocabulary
        )
        doc = ResultDocument(built.rule, built.domain, built.words, built.endpoints, copies)
        # more than INT_TEXT_LIMIT decimal digits
        assert doc.endpoints[0].denominator.bit_length() > 3.33 * INT_TEXT_LIMIT
        assert doc.vocabulary[1][0] == doc.endpoints[0]
        assert doc.vocabulary[1][0] is not doc.endpoints[0]
        # the payload as ``jsonify`` prints it, value by value
        payload = {
            "rule": doc.rule,
            "domain": jsonify({"lower": doc.domain.lower, "upper": doc.domain.upper}),
            "words": list(doc.words),
            "endpoints": jsonify(doc.endpoints),
            "vocabulary": dict(zip(doc.words, jsonify(doc.vocabulary))),
            "reports": list(doc.reports),
            "witnesses": list(doc.witnesses),
        }
        assert serialize_result(doc) == json.dumps(payload, indent=2) + "\n"
        assert serialize_result(built) == serialize_result(doc)

    @pytest.mark.parametrize(
        "rule",
        ["median", "p:1,2,2,3", "mean", "multiset", "dictator:2", "emed", "fixture:inf-rule",
         "fixture:discontinuous-rule"],
    )
    def test_the_text_is_json_dumps_of_the_fields(self, grading_profile, rule):
        if rule == "emed":
            rule = {"kind": "extended-median", "columns": GRADING_PHANTOMS}
        rule = rule_from_descriptor(rule, 3, 4, grading_profile.domain)
        doc = build_result(rule, GRADING_DOC["words"], apply_rule(grading_profile, rule))
        assert serialize_result(doc) == dumped_result(doc)

    @pytest.mark.parametrize("rule", [MeanRule(), MultisetRule()])
    def test_a_one_word_document_is_json_dumps_of_the_fields(self, rule):
        profile = Profile.from_rows(UNIT, [(), (), ()])
        doc = build_result(rule, ["all"], apply_rule(profile, rule))
        assert doc.endpoints == () and doc.vocabulary == ((F(0), F(1)),)
        assert serialize_result(doc) == dumped_result(doc)

    def test_foreign_descriptors_reports_and_witnesses_are_json_dumps_of_the_fields(self, grading_profile):
        class WeightedMean(MeanRule):
            def describe(self):
                return {"kind": "mean", "weights": (F(1, 2), F(1, 2)), 3: [True, None, -7]}

        rule = WeightedMean()
        built = build_result(rule, GRADING_DOC["words"], apply_rule(grading_profile, rule))
        assert serialize_result(built) == dumped_result(built)
        reports = [
            report_to_json(report)
            for report in run_axiom_battery(MeanRule(), 20, 7, n=3, m=2).values()
        ]
        assert any(report["witness"] is None for report in reports)
        assert any(report["witness"] is not None for report in reports)
        witness = {"agent": 2, "holds": False, "values": ["1/3", [], {}], "nested": [[{"a": None}]]}
        doc = ResultDocument(
            describe_rule(PRule(median_positions(3, 4))), built.domain, built.words,
            built.endpoints, built.vocabulary, reports=tuple(reports), witnesses=(witness, {}),
        )
        text = serialize_result(doc)
        assert text == dumped_result(doc)
        assert parse_result(text) == doc
        assert serialize_result(parse_result(text)) == text

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("words", 5, "words: expected a nonempty list of strings"),
            ("words", ["F", "D", 3, "B", "A"], "words: expected a nonempty list of strings"),
            ("endpoints", 3, "endpoints: expected a list"),
            ("vocabulary", {"F": ["0"]}, "vocabulary.F: expected \\[left, right\\] or null"),
            ("endpoints", ["20", "40", "55", "7/0"], "endpoints\\[3\\]"),
            ("reports", 5, "reports: expected a list"),
            ("witnesses", None, "witnesses: expected a list"),
            ("domain", {"lower": "0"}, "^domain.upper: missing$"),
            ("words", ["F", "D", "C", "B", "F"], "^words: names must be distinct$"),
        ],
    )
    def test_malformed_results_name_the_field(self, grading_profile, field, value, message):
        payload = json.loads(serialize_result(self.build(grading_profile)))
        payload[field] = value
        with pytest.raises(ParseError, match=message):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize(
        "words,message",
        [
            (["F", "F", "C", "B", "A"], "^words: names must be distinct$"),
            (["F", "D", "C", "B", 5], "^words: expected a nonempty list of strings$"),
            ([1, 2, 3, 4, 5], "^words: expected a nonempty list of strings$"),
            ("FDCBA", "^words: expected a nonempty list of strings$"),
        ],
        ids=["repeated", "one-not-a-string", "integers", "one-string"],
    )
    def test_results_are_built_only_from_words_that_parse(self, grading_profile, words, message):
        """``build_result``, on its born-valid branch and through
        ``ResultDocument``, refuses the word lists that ``parse_result``
        refuses, with the same message."""

        class SelfDescribedMedian(PRule):
            def describe(self):
                return {"kind": "p-rule", "positions": list(self.positions.positions)}

        doc = self.build(grading_profile)
        payload = json.loads(serialize_result(doc))
        payload["words"] = words
        builds = [
            lambda: parse_result(json.dumps(payload)),
            lambda: ResultDocument(doc.rule, doc.domain, words, doc.endpoints, doc.vocabulary),
        ]
        for rule in (PRule(median_positions(3, 4)), SelfDescribedMedian(median_positions(3, 4))):
            builds.append(lambda rule=rule: build_result(rule, words, apply_rule(grading_profile, rule)))
        for build in builds:
            with pytest.raises(ParseError, match=message):
                build()

    @pytest.mark.parametrize(
        "endpoints,vocabulary,message,rule",
        [
            (["3", "2"], {"a": ["5", "0"]}, "endpoints: endpoint 3 outside", {"kind": "mean"}),
            (["1/2"], {"a": ["0", "1/3"], "b": ["1/3", "1"]}, "vocabulary: does not match", {"kind": "mean"}),
            (["1/2"], {"a": ["0", "1/2"]}, "vocabulary: does not match", {"kind": "mean"}),
            (
                ["1/2"],
                {"a": ["0", "1/2"], "b": ["1/2", "1"], "z": None},
                "vocabulary: unknown words",
                {"kind": "mean"},
            ),
            (
                ["1/2"],
                {"a": ["0", "1/2"], "b": ["1/2", "1"]},
                "^rule: expected a descriptor object, got 5$",
                5,
            ),
            (
                ["1/2"],
                {"a": ["0", "1/2"], "b": ["1/2", "1"]},
                "^rule: unknown rule kind 'nonesuch'$",
                {"kind": "nonesuch"},
            ),
        ],
    )
    def test_inconsistent_results_name_the_field(self, endpoints, vocabulary, message, rule):
        words = ["a", "b", "c"][: len(endpoints) + 1]
        payload = {
            "rule": rule,
            "domain": {"lower": "0", "upper": "1"},
            "words": words,
            "endpoints": endpoints,
            "vocabulary": vocabulary,
        }
        with pytest.raises(ParseError, match=message):
            parse_result(json.dumps(payload))

    def test_huge_integer_literals_load(self):
        assert load_json("[1" + "0" * 5000 + "]") == [10**5000]

    def test_integer_literals_past_the_bound_are_refused(self):
        assert load_json("[-" + "9" * 20_000 + "]") == [1 - 10**20_000]
        with pytest.raises(ParseError, match="integer literal of 20001 digits, past 20,000"):
            load_json('{"agents": [1' + "0" * 20_000 + "]}")

    def test_shape_validation(self):
        with pytest.raises(ParseError):
            ResultDocument(
                rule={"kind": "mean"},
                domain=UNIT,
                words=("a", "b"),
                endpoints=(F(1, 2), F(3, 4)),
                vocabulary=(None, None),
            )
        with pytest.raises(ParseError):
            parse_result('{"rule": {"kind": "mean"}}')


class TestRender:
    def diagram(self):
        return decode_endpoints(
            EndpointMultiset(UNIT, (F(1, 4), F(1, 2), F(1, 2)))
        )

    def test_ascii_is_deterministic_and_structured(self):
        once = render_diagram(self.diagram(), "ascii", ("A", "B", "C", "D"))
        again = render_diagram(self.diagram(), "ascii", ("A", "B", "C", "D"))
        assert once == again
        labels, axis, values = once.rstrip("\n").split("\n")
        assert axis.startswith("(") and axis.endswith(")")
        assert axis.count("|") == 2
        for name in ("A", "B", "D"):
            assert name in labels
        assert "C" not in labels  # the empty word gets no label
        for text in ("0", "1/4", "1/2", "1"):
            assert text in values

    def test_ascii_renders_incomplete_vocabularies(self):
        gaps = GapSequence(UNIT, ((F(1, 5), F(2, 5)), (F(1, 5), F(2, 5)), (F(3, 5), F(1))))
        art = render_diagram(collective_incomplete(gaps), "ascii", ("A", "B", "C", "D"))
        assert "=" in art and "[" in art and "]" in art
        assert "." in art.split("\n")[1]

    def test_svg_output(self):
        svg = render_diagram(self.diagram(), "svg", ("A", "B", "C", "D"))
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 160"' in svg
        assert svg == render_diagram(self.diagram(), "svg", ("A", "B", "C", "D"))

    def test_bad_style_and_names(self):
        with pytest.raises(ValueError, match="unknown render style"):
            render_diagram(self.diagram(), "png")
        with pytest.raises(ValueError, match="names"):
            render_diagram(self.diagram(), "ascii", ("only", "two"))

    @pytest.mark.parametrize(
        "boundary,x",
        [(F(1, 16000), "40.04"), (F(1, 5760), "40.12"), (F(1, 2), "400.00"), (F(1, 3), "280.00")],
    )
    def test_svg_coordinates_round_half_to_even(self, boundary, x):
        svg = render_diagram(decode_endpoints(EndpointMultiset(UNIT, (boundary,))), "svg")
        assert f'<line x1="{x}" y1="72" x2="{x}" y2="88"' in svg

    def test_values_wider_than_the_row_print_whole(self):
        upper = F(1, 10**100)  # "1/1" and 100 zeros, wider than the 80-column row
        vocabulary = decode_endpoints(EndpointMultiset(Domain(F(0), upper), (upper / 2,)))
        values = render_diagram(vocabulary, "ascii").split("\n")[2]
        assert values == "1/1" + "0" * 100

    def test_degenerate_vocabulary_renders(self):
        flat = Vocabulary(UNIT, ((F(0), F(1)), None))
        art = render_diagram(flat, "ascii")
        assert "w1" in art


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


class TestCli:
    def test_aggregate_median(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        out = tmp_path / "result.json"
        assert main(["aggregate", "--rule", "median", "--input", doc, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["endpoints"] == ["20", "40", "55", "70"]
        assert payload["rule"] == {"kind": "p-rule", "positions": [2, 2, 2, 2]}
        assert payload["vocabulary"]["C"] == ["40", "55"]

    def test_aggregate_mean_exact(self, tmp_path):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        out = tmp_path / "result.json"
        assert main(["aggregate", "--rule", "mean", "--input", doc, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["endpoints"] == ["20", "35", "145/3", "200/3"]

    def test_aggregate_writes_stdout_by_default(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["aggregate", "--rule", "dictator:2", "--input", doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["endpoints"] == ["10", "20", "30", "50"]

    def test_aggregate_reads_stdin(self, tmp_path, capsys, monkeypatch):
        import io as stdio

        monkeypatch.setattr("sys.stdin", stdio.StringIO(json.dumps(GRADING_DOC)))
        assert main(["aggregate", "--rule", "median", "--input", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["endpoints"][2] == "55"

    def test_aggregate_rejects_even_multiset(self, tmp_path, capsys):
        doc = write(tmp_path, "two.json", TWO_AGENT_DOC)
        assert main(["aggregate", "--rule", "multiset", "--input", doc]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_aggregate_rejects_exemplar_documents(self, tmp_path, capsys):
        doc = write(tmp_path, "ex.json", EXEMPLAR_DOC)
        assert main(["aggregate", "--rule", "median", "--input", doc]) == 2
        assert "induce" in capsys.readouterr().err

    def test_aggregate_extended_median_file(self, tmp_path, capsys):
        profile = {
            "domain": {"lower": "0", "upper": "1"},
            "agents": [
                {"endpoints": ["1/4"]},
                {"endpoints": ["1/2"]},
                {"endpoints": ["3/4"]},
            ],
        }
        doc = write(tmp_path, "profile.json", profile)
        phantoms = write(tmp_path, "phantoms.json", [["0", "0"]])
        assert main(["aggregate", "--rule", f"emed:{phantoms}", "--input", doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["endpoints"] == ["1/4"]
        assert payload["rule"]["kind"] == "extended-median"

    def test_an_emed_file_cannot_name_another_rule(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        dictator = write(tmp_path, "dictator.json", {"kind": "dictator", "agent": 2})
        assert main(["aggregate", "--rule", f"emed:{dictator}", "--input", doc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "route", ["malformed-file", "stdin-twice", "phantom-outside", "columns-not-a-list"]
    )
    def test_an_emed_reading_error_names_its_source(self, route, tmp_path, capsys, monkeypatch):
        import io as stdio

        monkeypatch.setattr("sys.stdin", stdio.StringIO(json.dumps(GRADING_DOC)))
        bad = write(tmp_path, "bad.json", "BAD")
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        outside = write(tmp_path, "phantoms.json", [["0", "200"], ["10", "50"], ["50", "75"], ["60", "100"]])
        not_a_list = write(tmp_path, "columns.json", {"columns": 5})
        argv, message = {
            "malformed-file": (
                ["--rule", f"emed:{bad}", "--input", doc],
                f"error: emed:{bad}: malformed JSON at line 1, column 1",
            ),
            "phantom-outside": (
                ["--rule", f"emed:{outside}", "--input", doc],
                f"error: emed:{outside}: bad phantom matrix: phantom 200 outside the closed domain\n",
            ),
            "columns-not-a-list": (
                ["--rule", f"emed:{not_a_list}", "--input", doc],
                f"error: emed:{not_a_list}: extended-median descriptor needs a list of columns\n",
            ),
            "stdin-twice": (["--rule", "emed:-"], "error: emed:- cannot read stdin"),
        }[route]
        assert main(["aggregate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(message)

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["aggregate", "--rule", "median", "--input", missing]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["input", "stdin", "emed"])
    def test_non_utf8_input_is_an_input_error(self, route, tmp_path, capsys, monkeypatch):
        import io as stdio

        raw = b"\xff\xfe" + json.dumps(GRADING_DOC).encode()
        bad = tmp_path / "latin.json"
        bad.write_bytes(raw)
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(stdio.BytesIO(raw), encoding="utf-8"))
        argv = {
            "input": ["--rule", "median", "--input", str(bad)],
            "stdin": ["--rule", "median", "--input", "-"],
            "emed": ["--rule", f"emed:{bad}", "--input", doc],
        }[route]
        assert main(["aggregate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err
        assert ("stdin" if route == "stdin" else str(bad)) in err

    def test_non_utf8_stdin_bytes_are_an_input_error(self):
        raw = b"\xff\xfe" + json.dumps(GRADING_DOC).encode()
        env = dict(os.environ, PYTHONPATH=str(Path(vocagg.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "vocagg", "aggregate", "--rule", "median"],
            input=raw,
            capture_output=True,
            env=env,
        )
        assert done.returncode == 2
        assert done.stderr.decode().startswith("error: stdin: not UTF-8 text")

    def test_axioms_median_passes(self, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        code = main(
            ["axioms", "--rule", "median", "--trials", "40", "--seed", "3",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = [report["axiom"] for report in payload["reports"]]
        assert names == ["unanimity", "anonymity", "stability", "continuity"]
        assert all(r["verdict"] == "holds-on-sample" for r in payload["reports"])

    def test_axioms_mean_fails_stability(self, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        code = main(
            ["axioms", "--rule", "mean", "--trials", "40", "--seed", "3",
             "--output", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        verdicts = {r["axiom"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["stability"] == "violated"
        assert verdicts["unanimity"] == "holds-on-sample"

    def test_axioms_with_profile_adds_majority_check(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        out = tmp_path / "axioms.json"
        code = main(
            ["axioms", "--rule", "median", "--trials", "20", "--seed", "1",
             "--input", doc, "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][-1]["axiom"] == "majoritarian-words"

    def test_sp_check_median_resists(self, tmp_path, capsys):
        out = tmp_path / "sp.json"
        code = main(
            ["sp-check", "--rule", "median", "--trials", "150", "--seed", "2",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["manipulation"] is None
        assert payload["uncompromising"] is None

    def test_sp_check_mean_is_manipulable(self, tmp_path, capsys):
        out = tmp_path / "sp.json"
        code = main(
            ["sp-check", "--rule", "mean", "--trials", "400", "--seed", "2",
             "--output", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        gain = payload["manipulation"]["gain"]
        assert F(gain) > 0

    def test_induce_pipeline(self, tmp_path, capsys):
        doc = write(tmp_path, "exemplars.json", EXEMPLAR_DOC)
        out = tmp_path / "induced.json"
        assert main(["induce", "--input", doc, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["collective_gaps"] == [
            ["1/5", "2/5"],
            ["1/5", "2/5"],
            ["3/5", "1"],
        ]
        assert payload["vocabulary"] == {
            "A": ["0", "1/5"],
            "B": None,
            "C": ["2/5", "3/5"],
            "D": None,
        }
        assert payload["agents"][1]["gaps"][0] == ["0", "1/5"]

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["axioms", "--rule", "median"], EXEMPLAR_DOC, "axioms needs a complete profile document"),
            (
                ["aggregate", "--rule", "fixture:discontinuous-rule"],
                TWO_AGENT_DOC,
                "the jump fixture needs at least three agents",
            ),
        ],
    )
    def test_a_document_the_command_cannot_take_is_an_input_error(
        self, argv, doc, message, tmp_path, capsys
    ):
        assert main([*argv, "--input", write(tmp_path, "doc.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_induce_needs_exemplars(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["induce", "--input", doc]) == 2
        assert "exemplar" in capsys.readouterr().err

    def test_induce_rejects_non_positional_rules(self, tmp_path, capsys):
        doc = write(tmp_path, "exemplars.json", EXEMPLAR_DOC)
        assert main(["induce", "--rule", "mean", "--input", doc]) == 2
        assert "positional" in capsys.readouterr().err

    def test_render_all_agents(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["render", "--input", doc]) == 0
        art = capsys.readouterr().out
        assert "# agent 1" in art and "# agent 3" in art

    def test_render_single_agent_svg(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["render", "--input", doc, "--format", "svg", "--agent", "2"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_render_svg_needs_a_single_diagram(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["render", "--input", doc, "--format", "svg"]) == 2

    def test_render_collective_under_rule(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["render", "--input", doc, "--rule", "median"]) == 0
        art = capsys.readouterr().out
        assert "55" in art and "# agent" not in art

    def test_render_exemplar_collective(self, tmp_path, capsys):
        doc = write(tmp_path, "exemplars.json", EXEMPLAR_DOC)
        assert main(["render", "--input", doc, "--rule", "median"]) == 0
        assert "=" in capsys.readouterr().out

    def test_render_exemplar_agents_mark_singleton_hulls(self, tmp_path, capsys):
        doc = write(tmp_path, "exemplars.json", EXEMPLAR_DOC)
        assert main(["render", "--input", doc]) == 0
        art = capsys.readouterr().out
        assert "# agent 3" in art
        axis = art.split("\n")[2]  # agent 1: A reaches the left corner, C is seen once
        assert axis == "(" + "=" * 14 + "]" + "." * 15 + "*" + "." * 15 + "[" + "=" * 31 + ")"

    def test_render_exemplar_agent_svg_draws_a_singleton_as_a_circle(self, tmp_path, capsys):
        doc = write(tmp_path, "exemplars.json", EXEMPLAR_DOC)
        assert main(["render", "--input", doc, "--agent", "2", "--format", "svg"]) == 0
        svg = capsys.readouterr().out
        assert svg.count("<circle") == 1  # word C, seen once at 3/5
        assert '<circle cx="472.00" cy="80" r="4" fill="black"/>' in svg
        assert 'stroke-dasharray="4 4"' in svg

    def test_huge_values_in_messages_are_input_errors(self, tmp_path, capsys):
        huge = "7" * 5000  # past the interpreter's int-to-text limit
        doc = write(tmp_path, "profile.json", {"domain": {"lower": "0", "upper": "1"},
                                              "agents": [{"endpoints": [huge]}]})
        assert main(["aggregate", "--rule", "median", "--input", doc]) == 2
        assert capsys.readouterr().err == f"error: agents[0].endpoints: endpoint {huge} outside [0, 1]\n"

    def test_render_agent_out_of_range(self, tmp_path, capsys):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        assert main(["render", "--input", doc, "--agent", "9"]) == 2

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "axioms.json"
        monkeypatch.setenv("VOCAGG_SEED", "77")
        main(["axioms", "--rule", "median", "--trials", "5", "--seed", "3",
              "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 77

    def test_bad_seed_env_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VOCAGG_SEED", "not-a-number")
        assert main(["axioms", "--rule", "median", "--trials", "5"]) == 2
        assert "VOCAGG_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sp-check", "--rule", "median", "--grid", "0"],
            ["sp-check", "--rule", "median", "--grid", "1"],
            ["sp-check", "--rule", "median", "--trials", "-1"],
            ["axioms", "--rule", "median", "--trials", "-5"],
            ["axioms", "--rule", "median", "--trials", "0"],
            ["axioms", "--rule", "mean", "--n", "0"],
            ["axioms", "--rule", "mean", "--m", "0"],
            ["sp-check", "--rule", "mean", "--n", "0"],
            ["sp-check", "--rule", "dictator:1", "--m", "0"],
        ],
    )
    def test_count_flags_are_bounded(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_package_runs_as_a_module(self, tmp_path):
        doc = write(tmp_path, "profile.json", GRADING_DOC)
        env = dict(os.environ, PYTHONPATH=str(Path(vocagg.__file__).parents[1]))
        for module in ("vocagg", "vocagg.cli"):
            done = subprocess.run(
                [sys.executable, "-m", module, "aggregate", "--rule", "median", "--input", doc],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (done.returncode, done.stderr) == (0, "")
            assert json.loads(done.stdout)["endpoints"] == ["20", "40", "55", "70"]

    def test_bad_domain_flag(self, capsys):
        assert main(["axioms", "--rule", "median", "--domain", "zero-one",
                     "--trials", "1"]) == 2
        assert "LOWER:UPPER" in capsys.readouterr().err

    def test_empty_domain_flag(self, capsys):
        assert main(["axioms", "--rule", "median", "--domain", "1:0", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: bad domain '1:0': empty domain: (1, 0)\n"

    @pytest.mark.parametrize("command", ["axioms", "sp-check"])
    def test_a_negative_domain_reads_in_both_spellings(self, command, capsys):
        runs = []
        for flag in (["--domain", "-1:1"], ["--domain=-1:1"]):
            code = main([command, "--rule", "median", "--trials", "2", *flag])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        code, (out, err) = runs[0]
        assert (code, err) == (0, "")
        assert json.loads(out)["trials"] == 2

    @pytest.mark.parametrize(
        "domain",
        ["0:1e999999", "-1e-999999999:1", pytest.param("0:" + "7" * 20_001, id="0:20001-sevens")],
    )
    def test_oversized_domain_numerals_are_input_errors(self, domain, capsys):
        assert main(["axioms", "--rule", "mean", "--trials", "1", "--domain", domain]) == 2
        assert capsys.readouterr().err.startswith("error: numeral past 20,000 digits: ")

    def test_domain_flag_numeral_error_has_no_prefix(self, capsys):
        assert main(["sp-check", "--rule", "median", "--domain", "0:x", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: not a rational numeral: 'x'\n"

    def test_a_long_non_numeral_gives_a_short_error_line(self, tmp_path, capsys):
        doc = dict(GRADING_DOC, domain={"lower": "0", "upper": "1" * 100_000 + "x"})
        assert main(["aggregate", "--rule", "median", "--input", write(tmp_path, "doc.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200

    def test_an_internal_fault_is_not_a_finding(self, capsys, monkeypatch):
        from vocagg import strategic

        def replay_fails(*args, **kwargs):
            raise AssertionError("manipulation witness failed to replay")

        monkeypatch.setattr(strategic, "sp_fuzz", replay_fails)
        assert main(["sp-check", "--rule", "mean", "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: AssertionError: manipulation witness failed to replay\n"
        )


# stdout sha256 and exit code of README-style calls: any change to the CLI's
# output bytes, a checker's draws or a witness changes a digest, so update
# one only for an intended change of output.
PINNED_CALLS = {
    "aggregate-median": (
        ["aggregate", "--rule", "median", "--input", "{grades}"], 0,
        "6dab015e7860843a83da0ec2fdc2cf49ee05871033ff2341aad75337e54f3dff",
    ),
    "aggregate-median-numeral-forms": (
        ["aggregate", "--rule", "median", "--input", "{numerals}"], 0,
        "c65180703926c7256ee39c215c565fb8b54f81e5d46a03bde29a7fab99c96562",
    ),
    "aggregate-mean": (
        ["aggregate", "--rule", "mean", "--input", "{grades}"], 0,
        "34a63198b8163491d22a03483244a084166f19e775c94b84d5703a1951ac0ff7",
    ),
    "axioms-mean": (
        ["axioms", "--rule", "mean", "--trials", "60", "--seed", "7"], 1,
        "7155fb528be409677799f79c9ef5b4ea073532a9bf64d3163bf3cd63fd60c3c0",
    ),
    "axioms-median": (
        ["axioms", "--rule", "median", "--trials", "60", "--seed", "7"], 0,
        "766eff11ae460d0299997381789181376d0bcb38d8bb0daa3f6d927b1f6a4e0a",
    ),
    "sp-check-median": (
        ["sp-check", "--rule", "median", "--trials", "200", "--seed", "7"], 0,
        "cede70346a8834906f43738441f80d3de781215192359a12853560f7db2995a8",
    ),
    "sp-check-mean": (
        ["sp-check", "--rule", "mean", "--trials", "200", "--seed", "7"], 1,
        "9522a875de2a70c37cdc33ce81ac9ca24ff6f1ece63e915eec6d15815ac9325f",
    ),
    "induce": (
        ["induce", "--input", "{observations}"], 0,
        "fe9d4570a38e6fd2c5363b1f797022dece791a223fedaff4c6c61626bf286f36",
    ),
    "aggregate-p-shorthand": (
        ["aggregate", "--rule", "p:1,2,2,3", "--input", "{grades}"], 0,
        "cf01cac8fff964f744e8aa97408a9517fa3a504c2891fc40a7f31315502254a3",
    ),
    "aggregate-dictator-shorthand": (
        ["aggregate", "--rule", "dictator:2", "--input", "{grades}"], 0,
        "541fb4715e8c8e05f227583c3f1b430eefd39f0265f9fa1eeb49bbb0d1418e91",
    ),
    "aggregate-emed-shorthand": (
        ["aggregate", "--rule", "emed:{phantoms}", "--input", "{grades}"], 0,
        "7b282e7a3d52f039684913ac6f250c90ff7de7cb1c7ec00928f2a24fae9ca28d",
    ),
    "aggregate-fixture-shorthand": (
        ["aggregate", "--rule", "fixture:inf-rule", "--input", "{grades}"], 0,
        "e41212d166877718a4192444498911e3dcb08eeadebcae3bee0623555eb5433e",
    ),
    "render-ascii": (
        ["render", "--input", "{grades}"], 0,
        "9cdf799edb362a26b2d4976a5f2349ca968cb040dca47d4eac3f02ca041d8c44",
    ),
    "render-svg": (
        ["render", "--input", "{grades}", "--rule", "median", "--format", "svg"], 0,
        "e8710aa33c23ec22320c515701ed3706f2b913ecde1e68de44972b1c4409b0f2",
    ),
    "render-exemplar-agents": (
        ["render", "--input", "{observations}"], 0,
        "aab8b59380cfa89931bee35145cc7eaea9bba021c98cbc19d94ea6c462234282",
    ),
    "render-exemplar-median": (
        ["render", "--input", "{observations}", "--rule", "median"], 0,
        "6620d30b4b1f783ec9fe558eb31a43758f6ef0d43c121a291254309d9e91c035",
    ),
    "render-exemplar-agent-svg": (
        ["render", "--input", "{observations}", "--agent", "2", "--format", "svg"], 0,
        "7ef81ff384fad12889253495fe524394181499acda8a5be1c439fb79722cbeb8",
    ),
}


class TestPinnedCliOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_CALLS))
    def test_stdout_and_exit_code(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("VOCAGG_SEED", raising=False)
        paths = {
            "grades": write(tmp_path, "grades.json", GRADING_DOC),
            "observations": write(tmp_path, "observations.json", EXEMPLAR_DOC),
            "numerals": write(tmp_path, "numerals.json", NUMERAL_FORMS_DOC),
            "phantoms": write(tmp_path, "phantoms.json", GRADING_PHANTOMS),
        }
        argv, code, digest = PINNED_CALLS[name]
        assert main([arg.format(**paths) for arg in argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the row and extent readers against the per-row reader they replaced

# the texts of each value: HALF_UP lies within 2**-64 of 1/2, so both have
# one order key, and so do the corner 1 and ONE_UP, which lies outside (0, 1)
HALF_UP = F(2**69 + 1, 2**70)
ONE_UP_TEXT = f"{2**70 + 1}/{2**70}"
TEXTS = {
    F(0): ["0", "0/1", "0.0"],
    F(1, 8): ["1/8"],
    F(1, 4): ["1/4", "0.25"],
    F(1, 2): ["1/2", "2/4", "0.5"],
    HALF_UP: [f"{2**69 + 1}/{2**70}"],
    F(3, 4): ["3/4"],
    F(1): ["1", "1/1", "1.0"],
}
LATTICE = sorted(TEXTS)


def reference_endpoint_agents(domain, words, agents, numerals):
    """Each row read by ``read_list`` and validated by ``EndpointMultiset``."""
    rows, m = [], None
    for i, agent in enumerate(agents):
        where = f"agents[{i}].endpoints"
        entries = agent["endpoints"]
        if not isinstance(entries, list):
            raise ParseError(f"{where}: expected a list")
        values = numerals.read_list(entries, where)
        if m is None:
            m = len(values)
        elif len(values) != m:
            raise ParseError(f"{where}: {len(values)} endpoints, expected {m}")
        rows.append(_at(where, EndpointMultiset, domain, values))
    if words is not None and len(words) != m + 1:
        raise ParseError(f"words: {len(words)} names for {m + 1} words")
    return ParsedInput("endpoints", domain, words or default_words(m + 1), profile=Profile(tuple(rows)))


def reference_extents(payload, words, where, numerals):
    if not isinstance(payload, dict):
        raise ParseError(f"{where}: expected an object keyed by word name")
    unknown = set(payload) - set(words)
    if unknown:
        raise ParseError(f"{where}: unknown words {sorted(unknown)}")
    extents = []
    for name in words:
        entry = payload.get(name)
        if entry is not None and not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError(f"{where}.{name}: expected [left, right] or null")
        extents.append(None if entry is None else numerals.read_list(entry, f"{where}.{name}"))
    return tuple(extents)


def reference_extent_agents(domain, words, agents, numerals):
    """Each agent validated by ``Vocabulary``, and every one encoded once all are read."""
    if words is None:
        raise ParseError("words: required for extent-form agents")
    vocabularies = []
    for i, agent in enumerate(agents):
        where = f"agents[{i}].extents"
        extents = reference_extents(agent["extents"], words, where, numerals)
        vocabularies.append(_at(where, Vocabulary, domain, extents))
    profile = _at("agents", lambda: Profile(tuple(map(encode_vocabulary, vocabularies))))
    return ParsedInput("extents", domain, words, profile=profile, vocabularies=tuple(vocabularies))


def reference_parse(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vocagg.io, "_parse_endpoint_agents", reference_endpoint_agents)
        patch.setattr(vocagg.io, "_parse_extent_agents", reference_extent_agents)
        return parse_profile(text)


def parse_outcome(parse, doc):
    """What ``parse`` makes of ``doc``: the parsed input, its rows' keys, its
    vocabularies' right ends' keys and the pattern of shared value objects, or
    the text of its ``ParseError``."""
    try:
        parsed = parse(json.dumps(doc))
    except ParseError as exc:
        return "error", str(exc)
    values = [parsed.domain.lower, parsed.domain.upper]
    for row in parsed.profile.rows:
        values += row.values
    for vocabulary in parsed.vocabularies:
        values += [q for extent in vocabulary.extents if extent is not None for q in extent]
    first = {}
    sharing = [first.setdefault(id(q), len(first)) for q in values]
    right_keys = [vocabulary._right_keys for vocabulary in parsed.vocabularies]
    return parsed, [row.keys for row in parsed.profile.rows], right_keys, sharing


def reference_parse_result(text):
    """``parse_result`` with the vocabulary read extent by extent, each by ``read_list``."""
    payload = load_json(text)
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object at the top level")
    for key in ("rule", "domain", "words", "endpoints", "vocabulary"):
        if key not in payload:
            raise ParseError(f"{key}: missing")
    rule = payload["rule"]
    if not isinstance(rule, dict):
        raise ParseError(f"rule: expected a descriptor object, got {shown(rule)}")
    if rule.get("kind") not in vocagg.io._DESCRIBED_KINDS:
        raise ParseError(f"rule: unknown rule kind {shown(rule.get('kind'))}")
    numerals = _Numerals()
    domain = vocagg.io._parse_domain(payload["domain"], numerals)
    words = vocagg.io._parse_words(payload["words"])
    if not isinstance(payload["endpoints"], list):
        raise ParseError("endpoints: expected a list")
    endpoints = numerals.read_list(payload["endpoints"], "endpoints")
    vocabulary = reference_extents(payload["vocabulary"], words, "vocabulary", numerals)
    for key in ("reports", "witnesses"):
        if not isinstance(payload.get(key, []), list):
            raise ParseError(f"{key}: expected a list")
    doc = ResultDocument(
        rule=rule,
        domain=domain,
        words=words,
        endpoints=endpoints,
        vocabulary=vocabulary,
        reports=tuple(payload.get("reports", ())),
        witnesses=tuple(payload.get("witnesses", ())),
    )
    collective = _at("endpoints", EndpointMultiset, domain, doc.endpoints)
    if decode_endpoints(collective).extents != doc.vocabulary:
        raise ParseError("vocabulary: does not match the decoded endpoints")
    return doc


def result_outcome(parse, payload):
    """What ``parse`` makes of the result document ``payload``: the document and
    the pattern of shared value objects, or the text of its ``ParseError``."""
    try:
        doc = parse(json.dumps(payload))
    except ParseError as exc:
        return "error", str(exc)
    values = [doc.domain.lower, doc.domain.upper, *doc.endpoints]
    values += [q for extent in doc.vocabulary if extent is not None for q in extent]
    first = {}
    return doc, [first.setdefault(id(q), len(first)) for q in values]


@st.composite
def profile_docs(draw):
    """An endpoint or extent document over (0, 1) whose values repeat, come in
    several texts and meet the corners' and 1/2's keys.  Agents repeat rows
    from a small pool, so later rows are often read from the memo alone."""
    spelling = {q: draw(st.sampled_from(texts)) for q, texts in TEXTS.items()}
    if draw(st.booleans()):
        text = lambda q: spelling[q]
    else:
        text = lambda q: draw(st.sampled_from(TEXTS[q]))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    pool = [sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=m, max_size=m))) for _ in range(3)]
    rows = [draw(st.sampled_from(pool)) for _ in range(n)]
    words = [f"w{j}" for j in range(m + 1)]
    doc = {"domain": {"lower": text(F(0)), "upper": text(F(1))}, "words": words}
    if draw(st.booleans()):
        doc["agents"] = [{"endpoints": [text(q) for q in row]} for row in rows]
        return doc
    agents = []
    for row in rows:
        bounds = [F(0), *row, F(1)]
        extents = {}
        for word, left, right in zip(words, bounds, bounds[1:]):
            if left < right:
                extents[word] = [text(left), text(right)]
            elif draw(st.booleans()):
                extents[word] = None
        agents.append({"extents": extents})
    doc["agents"] = agents
    return doc


FAULTS = (
    "json-integer", "true", "nested-list", "ragged", "outside-at-a-corner-key",
    "unsorted-within-a-key", "empty-extent", "unknown-word", "broken-tiling",
    "degenerate-then-bad-numeral", "non-object-extents", "string-entry", "three-list",
    "bad-left-numeral", "json-integer-left", "respelled-left",
)
# a fault that leaves an extent document valid: each left end keeps its value
# in another text, so it must be a value object of its own
VALID_FAULTS = ("respelled-left",)
NOT_A_TEXT = {"json-integer": 1, "true": True, "nested-list": ["1/2"]}


def inject(doc, fault, i):
    """Put ``fault`` into agent i of ``doc``: into its endpoints, or into its
    active extents (an extent fault in an endpoint row is a bad numeral)."""
    agent = doc["agents"][i]
    if "endpoints" in agent:
        row = agent["endpoints"]
        if fault in NOT_A_TEXT:
            row[0] = NOT_A_TEXT[fault]
        elif fault == "ragged":
            row.pop()
        elif fault == "outside-at-a-corner-key":
            row[-1] = ONE_UP_TEXT
        elif fault == "unsorted-within-a-key" and len(row) > 1:
            row[:2] = [TEXTS[HALF_UP][0], "1/2"]
        else:
            doc["agents"][-1]["endpoints"][-1] = "x/2"
        return
    active = [extent for extent in agent["extents"].values() if extent is not None]
    if fault in NOT_A_TEXT:
        active[0][1] = NOT_A_TEXT[fault]
    elif fault == "ragged":
        active[0].pop()
    elif fault == "outside-at-a-corner-key":
        active[-1][1] = ONE_UP_TEXT
    elif fault == "unsorted-within-a-key":
        active[0][1] = TEXTS[HALF_UP][0]
        if len(active) > 1:
            active[1][0] = "1/2"
    elif fault == "empty-extent":
        active[0][1] = active[0][0]
        if len(active) > 1:
            active[1][0] = active[0][0]
    elif fault == "unknown-word":
        agent["extents"]["nonesuch"] = None
    elif fault == "broken-tiling":
        active[0][0] = "-1/8"
    elif fault == "non-object-extents":
        agent["extents"] = list(agent["extents"])
    elif fault == "string-entry":
        name = next(name for name, extent in agent["extents"].items() if extent is not None)
        agent["extents"][name] = "1/2"
    elif fault == "three-list":
        active[0].append(active[0][1])
    elif fault == "bad-left-numeral":
        active[0][0] = "x/2"
    elif fault == "json-integer-left":
        active[0][0] = 1
    elif fault == "respelled-left":
        # "0.25" after "1/4": equal ends, distinct texts
        for extent in active:
            texts = next(texts for texts in TEXTS.values() if extent[0] in texts)
            extent[0] = texts[(texts.index(extent[0]) + 1) % len(texts)]
    else:
        doc["agents"].insert(i, {"extents": {"w0": [doc["domain"]["lower"], doc["domain"]["upper"]]}})
        last = [extent for extent in doc["agents"][-1]["extents"].values() if extent is not None]
        last[0][1] = "x/2"


class TestRowReaderReference:
    """``parse_profile`` reads endpoint rows and extent agents through the keyed
    memo as the per-row reader, with ``EndpointMultiset`` and ``Vocabulary``
    validating every row, reads them: the same values, keys, shared objects,
    vocabularies with their right ends' keys, and error texts.  ``parse_result``
    reads a result's vocabulary as it did extent by extent."""

    @settings(deadline=None)
    @given(profile_docs())
    def test_documents(self, doc):
        expected = parse_outcome(reference_parse, doc)
        assert parse_outcome(parse_profile, doc) == expected

    @settings(deadline=None)
    @given(profile_docs(), st.sampled_from(FAULTS), st.data())
    def test_documents_with_a_fault(self, doc, fault, data):
        inject(doc, fault, data.draw(st.integers(0, len(doc["agents"]) - 1)))
        expected = parse_outcome(reference_parse, doc)
        assert parse_outcome(parse_profile, doc) == expected

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("form", ["endpoints", "extents"])
    def test_a_fault_in_an_agent_after_its_texts_are_keyed(self, form, fault):
        agents = {
            "endpoints": [{"endpoints": ["1/8", "1/4", "1/2", "1/2"]}, {"endpoints": ["1/4", "1/2", "1/2", "3/4"]}],
            "extents": [
                {"extents": {"w0": ["0", "1/8"], "w1": ["1/8", "1/2"], "w3": ["1/2", "3/4"], "w4": ["3/4", "1"]}},
                {"extents": {"w0": ["0", "1/4"], "w1": ["1/4", "1/2"], "w3": ["1/2", "3/4"], "w4": ["3/4", "1"]}},
            ],
        }[form]
        doc = {"domain": {"lower": "0", "upper": "1"}, "words": ["w0", "w1", "w2", "w3", "w4"]}
        doc["agents"] = json.loads(json.dumps(agents + agents[1:] * 2))
        inject(doc, fault, 3)
        expected = parse_outcome(reference_parse, doc)
        assert (expected[0] == "error") is (form == "endpoints" or fault not in VALID_FAULTS)
        assert parse_outcome(parse_profile, doc) == expected

    @settings(deadline=None)
    @given(profile_docs(), st.sampled_from((None,) + FAULTS))
    def test_result_vocabularies_with_a_fault(self, doc, fault):
        # the vocabulary of agent 1's report under the dictator rule, with the fault in it
        try:
            parsed = parse_profile(json.dumps(doc))
        except ParseError:
            return
        result = build_result(DictatorRule(1), parsed.words, parsed.profile.rows[0])
        payload = json.loads(serialize_result(result))
        if fault is not None:
            agents = {"domain": payload["domain"], "agents": [{"extents": payload["vocabulary"]}]}
            inject(agents, fault, 0)
            payload["vocabulary"] = agents["agents"][-1]["extents"]
        expected = result_outcome(reference_parse_result, payload)
        assert result_outcome(parse_result, payload) == expected
        if fault is None or fault in VALID_FAULTS:
            assert expected[0] != "error"

    def test_a_degenerate_vocabulary_yields_to_a_later_bad_numeral(self):
        doc = {
            "domain": {"lower": "0", "upper": "1"},
            "words": ["a", "b"],
            "agents": [{"extents": {"a": ["0", "1"]}}, {"extents": {"a": ["0", "x/2"], "b": ["1/2", "1"]}}],
        }
        message = "agents[1].extents.a[1]: not a rational numeral: 'x/2'"
        assert parse_outcome(reference_parse, doc) == parse_outcome(parse_profile, doc) == ("error", message)
        del doc["agents"][1]
        message = "agents: one active word carries no boundary information"
        assert parse_outcome(parse_profile, doc) == ("error", message)
