"""The package's public names: one home module each, resolved on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vocagg

PUBLIC_NAMES = frozenset(
    """
    AxiomReport DictatorRule Domain DomainMismatch EndpointMultiset
    EvenAgentCount ExtendedMedianRule FIXTURE_TARGETS GapSequence HOLDS
    InconsistentLabels IndexOutOfRange InducedVocabulary IncrementalReport
    InvalidVocabulary LabeledExemplars MalformedGaps ManipulationWitness
    MeanRule MultisetRule PRule ParityViolation ParseError ParsedInput
    PhantomMatrix PiecewiseLinearMap PositionVector Profile ResultDocument
    ShapeMismatch SinglePeakedPreference UncompromisingVerdict UnknownFixture
    VIOLATED Vocabulary VocaggError aggregate_gaps apply_rule as_rational
    between boundary_phantoms build_result check_anonymity check_consistency
    check_incremental_consistency check_lipschitz check_majoritarian_extents
    check_majoritarian_words check_separability_on_deviations check_stability
    check_strict_responsiveness check_unanimity check_uncompromising
    collective_incomplete decode_endpoints default_words describe_rule
    encode_vocabulary extended_median fixture_rule gaps_of induce
    is_symmetric jsonify load_json majoritarian_band median_positions
    order_statistic parse_profile parse_rational parse_result profile_between
    rational_str render_ascii render_diagram render_svg report_to_json
    rule_from_descriptor run_axiom_battery search_extent_violation
    serialize_result sp_fuzz uncompromising_fuzz utility
    """.split()
)

SRC = Path(vocagg.__file__).parents[1]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 84
    assert set(vocagg.__all__) == PUBLIC_NAMES
    assert len(vocagg.__all__) == len(PUBLIC_NAMES)
    assert PUBLIC_NAMES <= set(dir(vocagg))


def test_each_name_is_its_home_modules_object():
    for name in sorted(PUBLIC_NAMES):
        home = importlib.import_module(f"vocagg.{vocagg._HOME[name]}")
        value = getattr(vocagg, name)
        assert value is getattr(home, name), name
        assert vars(vocagg)[name] is value, name  # bound: __getattr__ is not asked again
        if callable(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from vocagg import *", namespace)
    assert PUBLIC_NAMES <= namespace.keys()


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nonesuch"):
        vocagg.nonesuch
    assert not hasattr(vocagg, "InfRule")
    with pytest.raises(ImportError):
        exec("from vocagg import nonesuch", {})


def test_fixtures_live_in_rules():
    from vocagg import axioms, rules

    assert vocagg.fixture_rule is rules.fixture_rule
    for name in ("fixture_rule", "FIXTURE_TARGETS", "InfRule", "DiscontinuousRule"):
        assert hasattr(rules, name) and not hasattr(axioms, name)


def _loaded_after(code: str, tmp_path: Path) -> list:
    """Run ``code`` in a fresh interpreter without site packages; report what it loaded."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m == 'random' or m.startswith('vocagg'))))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module(tmp_path):
    assert _loaded_after("import vocagg", tmp_path) == ["vocagg"]


def test_aggregate_loads_only_what_it_runs(tmp_path):
    doc = tmp_path / "profile.json"
    doc.write_text(
        json.dumps(
            {
                "domain": {"lower": "0", "upper": "1"},
                "agents": [{"endpoints": ["1/4"]}, {"endpoints": ["1/2"]}, {"endpoints": ["3/4"]}],
            }
        )
    )
    code = (
        "from vocagg import cli\n"
        f"assert cli.main(['aggregate', '--rule', 'median', '--input', {str(doc)!r},"
        " '--output', 'result.json']) == 0"
    )
    assert _loaded_after(code, tmp_path) == [
        "vocagg",
        "vocagg.cli",
        "vocagg.core",
        "vocagg.errors",
        "vocagg.io",
        "vocagg.rules",
    ]
    assert json.loads((tmp_path / "result.json").read_text())["endpoints"] == ["1/2"]
