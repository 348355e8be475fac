"""Exact aggregation of interval vocabularies.

A vocabulary is a labeled partition of an interval into half-open word
extents; its boundary endpoints form a sorted multiset.  This package
aggregates many such vocabularies into a collective one through positional
endpoint rules and their relatives, and machine-checks the axioms and
strategic properties those rules are supposed to satisfy.  All arithmetic
is exact (:class:`fractions.Fraction` throughout).

Each public name has one home module, listed in ``_EXPORTS``.  Importing
the package loads none of them: the first access to a name imports its home
module and binds the name here, so ``vocagg.X is vocagg.<home>.X`` and later
accesses are plain attribute lookups (PEP 562).
"""

__version__ = "1.0.0"

_EXPORTS = {
    "core": (
        "Domain",
        "EndpointMultiset",
        "Profile",
        "Vocabulary",
        "as_rational",
        "between",
        "decode_endpoints",
        "encode_vocabulary",
        "rational_str",
    ),
    "errors": (
        "DomainMismatch",
        "EvenAgentCount",
        "InconsistentLabels",
        "IndexOutOfRange",
        "InvalidVocabulary",
        "MalformedGaps",
        "ParityViolation",
        "ParseError",
        "ShapeMismatch",
        "UnknownFixture",
        "VocaggError",
    ),
    "rules": (
        "DictatorRule",
        "ExtendedMedianRule",
        "FIXTURE_TARGETS",
        "MeanRule",
        "MultisetRule",
        "PhantomMatrix",
        "PositionVector",
        "PRule",
        "apply_rule",
        "boundary_phantoms",
        "fixture_rule",
        "is_symmetric",
        "median_positions",
    ),
    "sampling": ("HOLDS", "VIOLATED", "AxiomReport"),
    "axioms": (
        "PiecewiseLinearMap",
        "check_anonymity",
        "check_lipschitz",
        "check_majoritarian_extents",
        "check_majoritarian_words",
        "check_stability",
        "check_strict_responsiveness",
        "check_unanimity",
        "majoritarian_band",
        "run_axiom_battery",
        "search_extent_violation",
    ),
    "strategic": (
        "ManipulationWitness",
        "SinglePeakedPreference",
        "UncompromisingVerdict",
        "check_separability_on_deviations",
        "check_uncompromising",
        "sp_fuzz",
        "uncompromising_fuzz",
        "utility",
    ),
    "exemplars": (
        "GapSequence",
        "InducedVocabulary",
        "IncrementalReport",
        "LabeledExemplars",
        "aggregate_gaps",
        "check_incremental_consistency",
        "collective_incomplete",
        "gaps_of",
        "induce",
    ),
    "io": (
        "ParsedInput",
        "ResultDocument",
        "build_result",
        "describe_rule",
        "jsonify",
        "load_json",
        "parse_profile",
        "parse_result",
        "report_to_json",
        "rule_from_descriptor",
        "serialize_result",
    ),
    "render": ("render_diagram",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import ``name``'s home module on first access and bind the name here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
