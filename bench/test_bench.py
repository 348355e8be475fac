"""Tests of the benchmark itself: ``python -m pytest bench``."""

import json
import re
from fractions import Fraction as F
from pathlib import Path

import gen
import oracle

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
GRADES = [(F(20), F(40), F(60), F(80)), (F(10), F(20), F(30), F(50)), (F(30), F(45), F(55), F(70))]


def test_generator_is_a_function_of_the_seed():
    for workload in ("aggregate-lattice", "aggregate-coprime"):
        first = gen.aggregate_block(5, workload, 1)
        again = gen.aggregate_block(5, workload, 1)
        assert [(d["text"], d["rule_text"]) for d in first] == [(d["text"], d["rule_text"]) for d in again]
        other = gen.aggregate_block(6, workload, 1)
        assert [d["text"] for d in first] != [d["text"] for d in other]
    assert gen.cli_rotation(5, 2) == gen.cli_rotation(5, 2)
    assert gen.cli_rotation(5, 2)[0] != gen.cli_rotation(6, 2)[0]
    assert gen.checker_calls(5, 3) == gen.checker_calls(5, 3)


def test_block_mix_does_not_depend_on_the_seed():
    shapes = [(d["n"], d["m"], d["form"], d["family"]) for d in gen.aggregate_block(1, "aggregate-lattice", 0)]
    assert shapes == [(d["n"], d["m"], d["form"], d["family"]) for d in gen.aggregate_block(2, "aggregate-lattice", 3)]
    assert sum(1 for s in shapes if s[0] == 1001) == len(gen.FAMILIES)


def test_oracle_reproduces_the_grading_walkthrough():
    assert oracle.rule_output(GRADES, ("p", oracle.median_positions(3, 4))) == [20, 40, 55, 70]
    assert oracle.rule_output(GRADES, ("mean", None)) == [20, 35, F(145, 3), F(200, 3)]
    assert oracle.rule_output(GRADES, ("multiset", None)) == [20, 30, 50, 70]
    assert oracle.rule_output(GRADES, ("dictator", 2)) == list(GRADES[1])


def test_oracle_reproduces_the_exemplar_walkthrough():
    a, b, c = F(1, 5), F(2, 5), F(3, 5)
    spec = {"lower": F(0), "upper": F(1), "m": 3, "exemplars": [a, b, c],
            "labels": [[0, 2, 3], [1, 1, 2], [0, 2, 2]], "rule": ("p", oracle.median_positions(3, 3))}
    _, agent_gaps, collective, words = oracle.exemplar_pipeline(spec)
    assert agent_gaps == [[(a, b), (a, b), (b, c)], [(0, a), (b, c), (c, 1)], [(a, b), (a, b), (c, 1)]]
    assert collective == [(a, b), (a, b), (c, 1)]
    assert words == [(0, a), None, (b, c), None]


def test_known_answers_name_every_pair_the_checkers_run():
    run = {(rule, checker) for checker, rule in gen.ROTATION}
    assert run == set(oracle.KNOWN_ANSWERS)
    for name, axiom in oracle.FIXTURE_TARGETS.items():
        verdicts = oracle.KNOWN_ANSWERS[(f"fixture:{name}", "run_axiom_battery")]
        assert [a for a, v in verdicts.items() if v == oracle.VIOLATED] == [axiom]


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
