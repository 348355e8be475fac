import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

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
    Vocabulary,
    apply_rule,
    build_result,
    default_words,
    describe_rule,
    fixture_rule,
    jsonify,
    load_json,
    median_positions,
    parse_profile,
    parse_rational,
    parse_result,
    rational_str,
    render_diagram,
    rule_from_descriptor,
    serialize_result,
)
from vocagg.cli import main
from vocagg.core import decode_endpoints
from vocagg.exemplars import GapSequence, collective_incomplete

UNIT = Domain(F(0), F(1))

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

TWO_AGENT_DOC = {
    "domain": {"lower": "0", "upper": "1"},
    "agents": [{"endpoints": ["1/4"]}, {"endpoints": ["1/2"]}],
}


class TestRationals:
    def test_rational_str_forms(self):
        assert rational_str(F(3, 4)) == "3/4"
        assert rational_str(F(-3, 4)) == "-3/4"
        assert rational_str(F(20)) == "20"

    def test_parse_rational_accepts_exact_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("48.33") == F(4833, 100)
        assert parse_rational(7) == F(7)
        assert parse_rational(F(1, 3)) == F(1, 3)

    @pytest.mark.parametrize("bad", [0.5, True, None, [], "1/0", "abc", ""])
    def test_parse_rational_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_error_message_names_the_site(self):
        with pytest.raises(ParseError, match="endpoints\\[2\\]"):
            parse_rational("oops", "endpoints[2]")


class TestLoadJson:
    def test_float_literals_stay_textual(self):
        assert load_json('{"x": 48.33}') == {"x": "48.33"}

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 2, column"):
            load_json('{"x":\n }')


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
                lambda d: d["agents"][0].update(endpoints=["20", "40", "60", "101"]),
                "agents\\[1\\]",
            ),
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
                "agents[2].endpoints[1]: not a rational numeral: 'x/2'",
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
                "agents[2].endpoints: endpoints not sorted: 1/2 > 1/4",
            ),
            (
                {
                    "domain": {"lower": "0", "upper": "1"},
                    "agents": [
                        {"endpoints": ["1", "1/2"]},
                        {"endpoints": ["1/2", True]},
                    ],
                },
                "agents[1].endpoints: endpoints not sorted: 1 > 1/2",
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
                "agents[2].extents.b[1]: not a rational numeral: '1/0'",
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

    def test_each_document_reads_its_distinct_numerals_once(self, monkeypatch):
        reads = []

        def counting(value, where="value"):
            reads.append(value)
            return parse_rational(value, where)

        monkeypatch.setattr(vocagg.io, "parse_rational", counting)
        text = json.dumps(GRADING_DOC)
        first = parse_profile(text)
        assert sorted(reads) == sorted(
            {"0", "100", "10", "20", "30", "40", "45", "50", "55", "60", "70", "80"}
        )
        # a second call shares no memo with the first: it reads them all again
        second = parse_profile(text)
        assert len(reads) == 24 and sorted(reads[:12]) == sorted(reads[12:])
        assert first == second

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
        with pytest.raises(ParseError, match="agents\\[3\\]"):
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
        ],
    )
    def test_string_form_builds_its_dict_form(self, text, descriptor):
        rule = rule_from_descriptor(text, 3, 3, UNIT)
        assert rule == rule_from_descriptor(descriptor, 3, 3, UNIT)
        assert rule_from_descriptor(describe_rule(rule), 3, 3, UNIT) == rule

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
        ],
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(ParseError):
            rule_from_descriptor(bad, 3, 3, UNIT)


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
        ],
    )
    def test_malformed_results_name_the_field(self, grading_profile, field, value, message):
        payload = json.loads(serialize_result(self.build(grading_profile)))
        payload[field] = value
        with pytest.raises(ParseError, match=message):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize(
        "endpoints,vocabulary,message",
        [
            (["3", "2"], {"a": ["5", "0"]}, "endpoints: endpoint 3 outside"),
            (["1/2"], {"a": ["0", "1/3"], "b": ["1/3", "1"]}, "vocabulary: does not match"),
            (["1/2"], {"a": ["0", "1/2"]}, "vocabulary: does not match"),
            (["1/2"], {"a": ["0", "1/2"], "b": ["1/2", "1"], "z": None}, "vocabulary: unknown words"),
        ],
    )
    def test_inconsistent_results_name_the_field(self, endpoints, vocabulary, message):
        words = ["a", "b", "c"][: len(endpoints) + 1]
        payload = {
            "rule": {"kind": "mean"},
            "domain": {"lower": "0", "upper": "1"},
            "words": words,
            "endpoints": endpoints,
            "vocabulary": vocabulary,
        }
        with pytest.raises(ParseError, match=message):
            parse_result(json.dumps(payload))

    def test_huge_integer_literals_load(self):
        assert load_json("[1" + "0" * 5000 + "]") == [10**5000]

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


# stdout sha256 and exit code of README-style calls: any change to the CLI's
# output bytes, a checker's draws or a witness changes a digest, so update
# one only for an intended change of output.
PINNED_CALLS = {
    "aggregate-median": (
        ["aggregate", "--rule", "median", "--input", "{grades}"], 0,
        "6dab015e7860843a83da0ec2fdc2cf49ee05871033ff2341aad75337e54f3dff",
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
    "render-ascii": (
        ["render", "--input", "{grades}"], 0,
        "9cdf799edb362a26b2d4976a5f2349ca968cb040dca47d4eac3f02ca041d8c44",
    ),
    "render-svg": (
        ["render", "--input", "{grades}", "--rule", "median", "--format", "svg"], 0,
        "e8710aa33c23ec22320c515701ed3706f2b913ecde1e68de44972b1c4409b0f2",
    ),
}


class TestPinnedCliOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_CALLS))
    def test_stdout_and_exit_code(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("VOCAGG_SEED", raising=False)
        paths = {
            "grades": write(tmp_path, "grades.json", GRADING_DOC),
            "observations": write(tmp_path, "observations.json", EXEMPLAR_DOC),
        }
        argv, code, digest = PINNED_CALLS[name]
        assert main([arg.format(**paths) for arg in argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
