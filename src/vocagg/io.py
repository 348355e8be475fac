"""JSON profile and result documents with exact rational values.

Rationals travel as strings: ``"p/q"``, an integer numeral, or a decimal
numeral that expands exactly (``"48.33"`` is 4833/100).  Numbers appearing
as JSON floats are intercepted before Python turns them into binary floats,
so nothing is ever rounded.  A profile document carries the domain, the
word names, and one entry per agent in exactly one of three forms::

    {"domain": {"lower": "0", "upper": "100"},
     "words": ["F", "D", "C", "B", "A"],
     "agents": [{"endpoints": ["20", "40", "60", "80"]}, ...]}

Agents may instead carry ``"extents"`` (word name to ``[left, right]`` or
``null``, passed through vocabulary encoding) or ``"exemplar_labels"``
(word names aligned with a shared top-level ``"exemplars"`` list).  Result
documents are canonical: parsing a serialized result reproduces it field
for field.

Numerals are read by ``core.as_rational``: the common forms (sign, ASCII
digits, ``/digits`` or ``.digits``) by a direct scan, everything else by the
interpreter's ``Fraction(str)``.  Each document (profile, rule descriptor or
result) is read with its own memo from numeral text to value, which lives
only for that one call: a numeral repeated anywhere in the document is read
once and then found by one dict lookup.  Only numerals that read correctly
are kept, so a bad one raises at each place it occurs and the first bad
place in the document is the one reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .core import (
    Domain,
    EndpointMultiset,
    Profile,
    Vocabulary,
    as_extents,
    as_rational,
    as_rationals,
    decode_endpoints,
    encode_vocabulary,
    rational_str,
)
from .errors import ParseError, VocaggError
from .rules import (
    DictatorRule,
    ExtendedMedianRule,
    MeanRule,
    MultisetRule,
    PhantomMatrix,
    PositionVector,
    PRule,
    Rule,
    fixture_rule,
    median_positions,
)

if TYPE_CHECKING:
    from .exemplars import LabeledExemplars


def parse_rational(value: object, where: str = "value") -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: expected an exact numeral, got {value!r}")
    if isinstance(value, (int, str, Fraction)):
        try:
            return as_rational(value)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: expected an exact numeral, got {value!r}")


class _Numerals:
    """The numeral reader of one document: each distinct text is read once."""

    def __init__(self) -> None:
        self.seen: dict[str, Fraction] = {}

    def read(self, value: object, where: str) -> Fraction:
        """``parse_rational(value, where)``, looked up if read before."""
        if type(value) is not str:
            return parse_rational(value, where)
        q = self.seen.get(value)
        if q is None:
            q = self.seen[value] = parse_rational(value, where)
        return q

    def read_list(self, values: list, where: str) -> tuple[Fraction, ...]:
        """Each ``values[j]`` read as ``f"{where}[{j}]"``, in order."""
        get = self.seen.get
        out = [get(v) if type(v) is str else None for v in values]
        for j, q in enumerate(out):
            if q is None:
                out[j] = self.read(values[j], f"{where}[{j}]")
        return tuple(out)


def load_json(text: str) -> object:
    """Parse JSON keeping float literals as their raw strings."""
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:
        # an integer literal past the interpreter's int-to-text limit
        return json.loads(text, parse_float=str, parse_int=lambda digits: int(Decimal(digits)))


def jsonify(value: object) -> object:
    """Recursively convert exact values into JSON-ready structures."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to serialize the float {value!r}")
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, EndpointMultiset):
        return [rational_str(v) for v in value.values]
    if isinstance(value, Profile):
        return [[rational_str(v) for v in row.values] for row in value.rows]
    raise TypeError(f"cannot serialize {value!r}")


def report_to_json(report) -> dict:
    """An ``axioms.AxiomReport`` as a JSON object."""
    return {
        "axiom": report.axiom,
        "verdict": report.verdict,
        "seed": jsonify(report.seed),
        "trials": report.trials,
        "witness": jsonify(report.witness),
    }


# ---------------------------------------------------------------------------
# profile documents


@dataclass(frozen=True)
class ParsedInput:
    """A decoded profile document, with the form it arrived in."""

    kind: str  # "endpoints" | "extents" | "exemplars"
    domain: Domain
    words: tuple[str, ...]
    profile: Optional[Profile] = None
    vocabularies: tuple[Vocabulary, ...] = ()
    exemplars: tuple[LabeledExemplars, ...] = ()


def default_words(count: int) -> tuple[str, ...]:
    return tuple(f"w{j}" for j in range(1, count + 1))


def _parse_domain(payload: object, numerals: _Numerals) -> Domain:
    if not isinstance(payload, dict):
        raise ParseError("domain: expected an object with lower and upper")
    for key in ("lower", "upper"):
        if key not in payload:
            raise ParseError(f"domain.{key}: missing")
    lower = numerals.read(payload["lower"], "domain.lower")
    upper = numerals.read(payload["upper"], "domain.upper")
    try:
        return Domain(lower, upper)
    except ValueError as exc:
        raise ParseError(f"domain: {exc}") from None


def _parse_words(payload: object) -> tuple[str, ...]:
    if not (
        isinstance(payload, list)
        and payload
        and all(isinstance(w, str) for w in payload)
    ):
        raise ParseError("words: expected a nonempty list of strings")
    return tuple(payload)


def parse_profile(text: str) -> ParsedInput:
    """Decode a profile document into exact objects.

    All agents must use the same form.  Extent-form agents are run through
    vocabulary encoding, so the result always carries a profile except for
    exemplar documents, which stay as labeled observations.
    """
    payload = load_json(text)
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object at the top level")
    if "domain" not in payload:
        raise ParseError("domain: missing")
    numerals = _Numerals()
    domain = _parse_domain(payload["domain"], numerals)
    agents = payload.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents: expected a nonempty list")
    words_payload = payload.get("words")
    words: Optional[tuple[str, ...]] = None
    if words_payload is not None:
        words = _parse_words(words_payload)
        if len(set(words)) != len(words):
            raise ParseError("words: names must be distinct")
    forms = set()
    for i, agent in enumerate(agents, start=1):
        if not isinstance(agent, dict):
            raise ParseError(f"agents[{i}]: expected an object")
        keys = {"endpoints", "extents", "exemplar_labels"} & agent.keys()
        if len(keys) != 1:
            raise ParseError(
                f"agents[{i}]: need exactly one of endpoints, extents, exemplar_labels"
            )
        forms.add(next(iter(keys)))
    if len(forms) != 1:
        raise ParseError("agents: all entries must use the same form")
    form = forms.pop()
    if form == "endpoints":
        return _parse_endpoint_agents(domain, words, agents, numerals)
    if form == "extents":
        return _parse_extent_agents(domain, words, agents, numerals)
    return _parse_exemplar_agents(domain, words, payload, agents, numerals)


def _parse_endpoint_agents(
    domain: Domain,
    words: Optional[tuple[str, ...]],
    agents: list,
    numerals: _Numerals,
) -> ParsedInput:
    rows = []
    m: Optional[int] = None
    for i, agent in enumerate(agents, start=1):
        where = f"agents[{i}].endpoints"
        entries = agent["endpoints"]
        if not isinstance(entries, list):
            raise ParseError(f"{where}: expected a list")
        values = numerals.read_list(entries, where)
        if m is None:
            m = len(values)
        elif len(values) != m:
            raise ParseError(f"{where}: {len(values)} endpoints, expected {m}")
        try:
            rows.append(EndpointMultiset(domain, values))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
    if words is not None and len(words) != m + 1:
        raise ParseError(f"words: {len(words)} names for {m + 1} words")
    profile = Profile(tuple(rows))
    return ParsedInput(
        "endpoints", domain, words or default_words(m + 1), profile=profile
    )


def _parse_extents(
    payload: object, words: tuple[str, ...], where: str, numerals: _Numerals
) -> tuple[Optional[tuple[Fraction, ...]], ...]:
    """One ``[left, right]`` or ``None`` per word, from an object keyed by word name."""
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


def _parse_extent_agents(
    domain: Domain,
    words: Optional[tuple[str, ...]],
    agents: list,
    numerals: _Numerals,
) -> ParsedInput:
    if words is None:
        raise ParseError("words: required for extent-form agents")
    vocabularies = []
    for i, agent in enumerate(agents, start=1):
        where = f"agents[{i}].extents"
        extents = _parse_extents(agent["extents"], words, where, numerals)
        try:
            vocabularies.append(Vocabulary(domain, extents))
        except (ValueError, VocaggError) as exc:
            raise ParseError(f"{where}: {exc}") from None
    try:
        profile = Profile(tuple(encode_vocabulary(v) for v in vocabularies))
    except (ValueError, VocaggError) as exc:
        raise ParseError(f"agents: {exc}") from None
    return ParsedInput(
        "extents", domain, words, profile=profile, vocabularies=tuple(vocabularies)
    )


def _parse_exemplar_agents(
    domain: Domain,
    words: Optional[tuple[str, ...]],
    payload: dict,
    agents: list,
    numerals: _Numerals,
) -> ParsedInput:
    from .exemplars import LabeledExemplars

    if words is None:
        raise ParseError("words: required for exemplar-form agents")
    shared = payload.get("exemplars")
    if not isinstance(shared, list) or not shared:
        raise ParseError("exemplars: expected a nonempty list of values")
    values = numerals.read_list(shared, "exemplars")
    index_of = {name: j for j, name in enumerate(words)}
    rows = []
    for i, agent in enumerate(agents, start=1):
        where = f"agents[{i}].exemplar_labels"
        labels = agent["exemplar_labels"]
        if not isinstance(labels, list) or len(labels) != len(values):
            raise ParseError(
                f"{where}: expected one label per exemplar ({len(values)})"
            )
        points = []
        for j, label in enumerate(labels):
            if not isinstance(label, str) or label not in index_of:
                raise ParseError(f"{where}[{j}]: unknown word {label!r}")
            points.append((values[j], index_of[label]))
        try:
            rows.append(LabeledExemplars(domain, tuple(points)))
        except (ValueError, VocaggError) as exc:
            raise ParseError(f"{where}: {exc}") from None
    return ParsedInput("exemplars", domain, words, exemplars=tuple(rows))


# ---------------------------------------------------------------------------
# rule descriptors


def describe_rule(rule: Rule) -> dict:
    """The canonical JSON descriptor that rebuilds a rule."""
    return rule.describe()


def _string_descriptor(text: str) -> dict:
    """The descriptor object a CLI string form stands for."""
    head, _, tail = text.strip().partition(":")
    if head in ("median", "mean", "multiset") and not tail:
        return {"kind": head}
    if head == "dictator":
        return {"kind": "dictator", "agent": tail}
    if head == "p":
        return {"kind": "p-rule", "positions": tail.split(",")}
    if head == "fixture":
        return {"kind": "fixture", "name": tail}
    raise ParseError(f"unknown rule {text!r}")


def rule_from_descriptor(
    descriptor: Union[dict, str], n: int, m: int, domain: Domain
) -> Rule:
    """Rebuild a rule from a descriptor object or CLI string.

    String forms: ``median``, ``mean``, ``multiset``, ``dictator:i``,
    ``p:2,3,4``, ``fixture:name``; each is read as its descriptor object.
    The ``median`` kind resolves the positions from the profile shape at
    hand.
    """
    if isinstance(descriptor, str):
        descriptor = _string_descriptor(descriptor)
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ParseError(f"rule descriptor needs a kind: {descriptor!r}")
    kind = descriptor["kind"]
    if kind == "median":
        return PRule(median_positions(n, m))
    if kind == "p-rule":
        try:
            positions = PositionVector(tuple(int(p) for p in descriptor["positions"]))
            positions.validate_for(n)
        except (KeyError, TypeError, ValueError, VocaggError) as exc:
            raise ParseError(f"bad p-rule descriptor: {exc}") from None
        return PRule(positions)
    if kind == "extended-median":
        columns = descriptor.get("columns")
        if not isinstance(columns, list) or not all(
            isinstance(column, list) for column in columns
        ):
            raise ParseError("extended-median descriptor needs a list of columns")
        numerals = _Numerals()
        parsed = tuple(
            numerals.read_list(column, f"columns[{k}]")
            for k, column in enumerate(columns)
        )
        try:
            return ExtendedMedianRule(PhantomMatrix(domain, parsed))
        except (ValueError, VocaggError) as exc:
            raise ParseError(f"bad phantom matrix: {exc}") from None
    if kind == "mean":
        return MeanRule()
    if kind == "multiset":
        return MultisetRule()
    if kind == "dictator":
        try:
            return DictatorRule(int(descriptor["agent"]))
        except (KeyError, TypeError, ValueError):
            raise ParseError(
                f"dictator needs an agent index, got {descriptor.get('agent')!r}"
            ) from None
    if kind == "fixture":
        return fixture_rule(str(descriptor.get("name")))
    raise ParseError(f"unknown rule kind {kind!r}")


# ---------------------------------------------------------------------------
# result documents


@dataclass(frozen=True)
class ResultDocument:
    """Canonical aggregation output: rule, collective endpoints, vocabulary.

    Everything inside is already JSON-pure except the exact values, so
    ``parse_result(serialize_result(doc)) == doc`` holds field for field.
    """

    rule: dict
    domain: Domain
    words: tuple[str, ...]
    endpoints: tuple[Fraction, ...]
    vocabulary: tuple[Optional[tuple[Fraction, Fraction]], ...]
    reports: tuple[dict, ...] = ()
    witnesses: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rule", jsonify(self.rule))
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "endpoints", as_rationals(self.endpoints))
        object.__setattr__(self, "vocabulary", as_extents(self.vocabulary))
        object.__setattr__(self, "reports", tuple(jsonify(r) for r in self.reports))
        object.__setattr__(self, "witnesses", tuple(jsonify(w) for w in self.witnesses))
        if len(self.words) != len(self.endpoints) + 1:
            raise ParseError(
                f"{len(self.words)} words for {len(self.endpoints)} endpoints"
            )
        if len(self.vocabulary) != len(self.words):
            raise ParseError("one extent slot per word required")


def build_result(
    rule: Rule, words: Sequence[str], endpoints: EndpointMultiset
) -> ResultDocument:
    return ResultDocument(
        rule=describe_rule(rule),
        domain=endpoints.domain,
        words=tuple(words),
        endpoints=endpoints.values,
        vocabulary=decode_endpoints(endpoints).extents,
    )


def serialize_result(doc: ResultDocument) -> str:
    payload = {
        "rule": doc.rule,
        "domain": jsonify({"lower": doc.domain.lower, "upper": doc.domain.upper}),
        "words": list(doc.words),
        "endpoints": jsonify(doc.endpoints),
        "vocabulary": dict(zip(doc.words, jsonify(doc.vocabulary))),
        "reports": list(doc.reports),
        "witnesses": list(doc.witnesses),
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_result(text: str) -> ResultDocument:
    payload = load_json(text)
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object at the top level")
    for key in ("rule", "domain", "words", "endpoints", "vocabulary"):
        if key not in payload:
            raise ParseError(f"{key}: missing")
    numerals = _Numerals()
    domain = _parse_domain(payload["domain"], numerals)
    words = _parse_words(payload["words"])
    if not isinstance(payload["endpoints"], list):
        raise ParseError("endpoints: expected a list")
    endpoints = numerals.read_list(payload["endpoints"], "endpoints")
    vocabulary = _parse_extents(payload["vocabulary"], words, "vocabulary", numerals)
    for key in ("reports", "witnesses"):
        if not isinstance(payload.get(key, []), list):
            raise ParseError(f"{key}: expected a list")
    doc = ResultDocument(
        rule=payload["rule"],
        domain=domain,
        words=words,
        endpoints=endpoints,
        vocabulary=vocabulary,
        reports=tuple(payload.get("reports", ())),
        witnesses=tuple(payload.get("witnesses", ())),
    )
    try:
        collective = EndpointMultiset(domain, doc.endpoints)
    except ValueError as exc:
        raise ParseError(f"endpoints: {exc}") from None
    if decode_endpoints(collective).extents != doc.vocabulary:
        raise ParseError("vocabulary: does not match the decoded endpoints")
    return doc
