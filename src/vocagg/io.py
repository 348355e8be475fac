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
for field, and its ``rule`` must be a descriptor object of a kind that
``Rule.describe`` writes.

Numerals are read by ``core.as_rational``, whose one grammar (stated in its
docstring) reads the same on every supported interpreter; JSON numbers reach
it as their text (RFC 8259 section 6).  Each document (profile, rule
descriptor or result) is read with its own memo from numeral text to value,
which lives only for that one call: a numeral read once is found again by one
dict lookup, and every place of one text in a document holds one value object
(a text repeated within the endpoint row or list where it first occurs is
still read by one ``as_rational`` call at each of those places, and the memo
keeps the first value and key).  Only numerals that read correctly are kept,
so a bad one raises at each place it occurs and the first bad place in the
document is the one reported.  A miss costs one ``as_rational`` call, and a
plain ASCII numeral (``p/q``, an integer or a decimal without exponent) is
read there by ``int`` of its parts, without the grammar's pattern; the
language read is the same.

Beside each value, the memo keeps the text's ``order_key`` once a row or a
right end has held it, so each distinct text is keyed once.  An extent object
(an agent's or a result's ``vocabulary``) is read in one pass by
``_Numerals.read_extents``, a place built only for a refusal.  As ``core``
states, each value type has one checked constructor, one ``_from_valid``
that takes every field and checks nothing, and one ``_check()``.  An
endpoint row and an extent agent are built by ``_from_valid`` with the keys
read and checked on them by ``_check()``, which refuses what the validating
constructors refuse, in the same words.  The vocabulary keeps its right
ends' keys, so ``encode_vocabulary`` keys nothing again.

Every JSON document the package writes (result documents here, the CLI's
``axioms``, ``sp-check`` and ``induce`` bundles) is the text of
``json.dumps(..., indent=2)``, written by one private writer, ``_indented``.
Any ``indent`` sends ``json.dumps`` to its pure-Python encoder; the writer
instead quotes strings and whole lists of strings with json's own C
``encode_basestring_ascii``, prints exact ints with ``int.__repr__``,
writes ``null``, ``true``, ``false``, lists and string-keyed dicts itself,
and hands every other value to ``json.dumps`` unchanged, so it writes the
same text and refuses nothing that ``json.dumps`` takes.  ``serialize_result``
writes the fixed top level of a result document and quotes each value once.

The objects built here raise a ``VocaggError`` on bad input; ``_at`` and the
numeral reader add the place in the document, re-raising it as
``ParseError("<where>: ...")``.
A place is a JSON path with 0-based list indices, as the document is written:
``agents[1].endpoints[0]`` is the first endpoint of the second agent, and
``agents[0].extents.b[1]`` the right end of word ``b`` of the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar, Union

from .core import (
    MAX_NUMERAL_DIGITS,
    Domain,
    EndpointMultiset,
    Profile,
    Vocabulary,
    as_extents,
    as_rational,
    as_rationals,
    decode_endpoints,
    default_words,
    encode_vocabulary,
    order_key,
    rational_str,
    shown,
)
from .errors import ParseError, VocaggError
from .rules import (
    DictatorRule,
    ExtendedMedianRule,
    InfRule,
    MeanRule,
    MultisetRule,
    PhantomMatrix,
    PRule,
    Rule,
    fixture_rule,
    median_positions,
)

if TYPE_CHECKING:
    from .exemplars import LabeledExemplars

_T = TypeVar("_T")


def _at(where: str, build: Callable[..., _T], *args: object) -> _T:
    """``build(*args)``, a ``VocaggError`` from it re-raised as ``ParseError`` at ``where``."""
    try:
        return build(*args)
    except VocaggError as exc:
        raise ParseError(f"{where}: {exc}") from None


class _Numerals:
    """The numeral reader of one document: the memo keeps the value of each text
    read, and its order key once a row has held it."""

    def __init__(self) -> None:
        self.seen: dict[str, Fraction] = {}
        # the ``order_key`` of each text of ``seen`` that a row held
        self.keys: dict[str, int] = {}

    def read(self, value: object, where: str) -> Fraction:
        """``value``, numeral text or an exact number, as a ``Fraction``: text is looked
        up in the memo, else read by one ``as_rational`` call.  A refusal raises
        ``ParseError`` at ``where``."""
        try:
            if type(value) is str:
                q = self.seen.get(value)
                if q is None:
                    q = self.seen[value] = as_rational(value)
                return q
            return as_rational(value)
        except VocaggError as exc:
            raise ParseError(f"{where}: {exc}") from None

    def read_list(self, values: list, where: str) -> tuple[Fraction, ...]:
        """Each ``values[j]`` read in order, a refusal placed at ``where[j]``: text
        is looked up in the memo, and each miss is read by one ``as_rational`` call."""
        seen = self.seen
        out = [seen.get(v) if type(v) is str else None for v in values]
        j = 0
        try:
            for j, q in enumerate(out):
                if q is None:
                    value = values[j]
                    q = as_rational(value)
                    out[j] = seen.setdefault(value, q) if type(value) is str else q
        except VocaggError as exc:
            raise ParseError(f"{where}[{j}]: {exc}") from None
        return tuple(out)

    def read_row(self, values: list, where: str) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """``read_list(values, where)``, the same objects, and the values' order
        keys: each text is keyed once, and its key kept beside its value."""
        seen, keys = self.seen, self.keys
        out = [seen.get(v) if type(v) is str else None for v in values]
        row_keys = []
        j = 0
        try:
            for j, q in enumerate(out):
                value = values[j]
                if q is None:
                    q = as_rational(value)
                    key = order_key(q)
                    if type(value) is str:
                        q = seen.setdefault(value, q)
                        key = keys.setdefault(value, key)
                    out[j] = q
                else:
                    key = keys.get(value)
                    if key is None:
                        key = keys[value] = order_key(q)
                row_keys.append(key)
        except VocaggError as exc:
            raise ParseError(f"{where}[{j}]: {exc}") from None
        return tuple(out), tuple(row_keys)

    def read_extents(self, payload: object, words: tuple, word_set: frozenset, where: str) -> tuple:
        """The extent (``(left, right)`` or ``None``) of each of ``words`` in the object
        ``payload``, and the active extents' right ends' keys: each end is read as
        ``read_row`` reads it, inline, and ``where.name[j]`` is built only to raise."""
        if not isinstance(payload, dict):
            raise ParseError(f"{where}: expected an object keyed by word name")
        if not payload.keys() <= word_set:
            raise ParseError(f"{where}: unknown words {sorted(payload.keys() - word_set)}")
        seen, keys, get = self.seen, self.keys, payload.get
        extents, right_keys = [], []
        for name in words:
            entry = get(name)
            if entry is None:
                extents.append(None)
                continue
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError(f"{where}.{name}: expected [left, right] or null")
            left, right = entry
            j = 0
            try:
                if type(left) is str:
                    q = seen.get(left)
                    left = seen.setdefault(left, as_rational(left)) if q is None else q
                else:
                    left = as_rational(left)
                j = 1
                if type(right) is not str:
                    right = as_rational(right)
                    key = order_key(right)
                elif (key := keys.get(right)) is not None:
                    right = seen[right]
                else:
                    q = seen.get(right)
                    q = seen.setdefault(right, as_rational(right)) if q is None else q
                    key = keys[right] = order_key(q)
                    right = q
            except VocaggError as exc:
                raise ParseError(f"{where}.{name}[{j}]: {exc}") from None
            extents.append((left, right))
            right_keys.append(key)
        return tuple(extents), tuple(right_keys)


def _read_int(literal: str) -> int:
    """A JSON integer literal of at most ``MAX_NUMERAL_DIGITS`` digits, read exactly."""
    digits = len(literal.lstrip("-"))
    if digits > MAX_NUMERAL_DIGITS:
        raise ParseError(f"integer literal of {digits} digits, past {MAX_NUMERAL_DIGITS:,}")
    return int(Decimal(literal))


# the decoder ``json.loads`` builds per call with these hooks, once it has refused a BOM or decoded bytes
_DECODER = json.JSONDecoder(parse_float=str, parse_int=_read_int)


def load_json(text: str) -> object:
    """Parse JSON keeping float literals as raw strings; integers up to
    ``MAX_NUMERAL_DIGITS`` digits read exactly, longer ones refused."""
    try:
        if isinstance(text, str) and not text.startswith("\ufeff"):
            return _DECODER.decode(text)
        return json.loads(text, parse_float=str, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def jsonify(value: object) -> object:
    """Recursively convert exact values into JSON-ready structures."""
    kind = type(value)
    if kind is Fraction:
        return rational_str(value)
    if kind is tuple or kind is list:
        return [jsonify(v) for v in value]
    if kind is str:
        return value
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


_quoted = json.encoder.encode_basestring_ascii


def _indented(value: object, newline: str) -> str:
    """``json.dumps(value, indent=2)``, each line after the first begun with
    ``newline`` (``"\\n"`` and the indentation of the place it is nested at).

    Strings, lists of strings, exact ints, ``None`` and exact bools are written
    by json's own C string quoting, ``int.__repr__`` and json's literals, lists
    and dicts keyed by strings recursively; any other value (floats, other
    keys, subclasses) is written by ``json.dumps`` itself, so nothing is
    written differently and nothing ``json.dumps`` takes is refused."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else ("true" if value else "false")
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        try:
            body = ("," + inner).join(map(_quoted, value))
        except TypeError:
            body = ("," + inner).join([_indented(v, inner) for v in value])
        return f"[{inner}{body}{newline}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        body = ("," + inner).join([f"{_quoted(k)}: {_indented(v, inner)}" for k, v in value.items()])
        return f"{{{inner}{body}{newline}}}"
    # json writes no raw line break inside a value, so each one it writes starts a line
    return json.dumps(value, indent=2).replace("\n", newline)


def report_to_json(report) -> dict:
    """A ``sampling.AxiomReport`` as a JSON object."""
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


def _parse_domain(payload: object, numerals: _Numerals) -> Domain:
    if not isinstance(payload, dict):
        raise ParseError("domain: expected an object with lower and upper")
    for key in ("lower", "upper"):
        if key not in payload:
            raise ParseError(f"domain.{key}: missing")
    lower = numerals.read(payload["lower"], "domain.lower")
    upper = numerals.read(payload["upper"], "domain.upper")
    return _at("domain", Domain, lower, upper)


def _parse_words(payload: object) -> tuple[str, ...]:
    """``payload``, a nonempty list or tuple of distinct strings, as a tuple."""
    if not (
        isinstance(payload, (list, tuple))
        and payload
        and all(isinstance(w, str) for w in payload)
    ):
        raise ParseError("words: expected a nonempty list of strings")
    if len(set(payload)) != len(payload):
        raise ParseError("words: names must be distinct")
    return tuple(payload)


_FORMS = frozenset(("endpoints", "extents", "exemplar_labels"))


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
    forms = set()
    for i, agent in enumerate(agents):
        if not isinstance(agent, dict):
            raise ParseError(f"agents[{i}]: expected an object")
        keys = _FORMS.intersection(agent)
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
    for i, agent in enumerate(agents):
        where = f"agents[{i}].endpoints"
        entries = agent["endpoints"]
        if not isinstance(entries, list):
            raise ParseError(f"{where}: expected a list")
        values, keys = numerals.read_row(entries, where)
        if m is None:
            m = len(values)
        elif len(values) != m:
            raise ParseError(f"{where}: {len(values)} endpoints, expected {m}")
        rows.append(_at(where, EndpointMultiset._from_valid(domain, values, keys)._check))
    if words is not None and len(words) != m + 1:
        raise ParseError(f"words: {len(words)} names for {m + 1} words")
    # every row is over ``domain`` and of length m
    profile = Profile._from_valid(tuple(rows))
    return ParsedInput(
        "endpoints", domain, words or default_words(m + 1), profile=profile
    )


def _parse_extent_agents(
    domain: Domain,
    words: Optional[tuple[str, ...]],
    agents: list,
    numerals: _Numerals,
) -> ParsedInput:
    if words is None:
        raise ParseError("words: required for extent-form agents")
    vocabularies, word_set = [], frozenset(words)
    for i, agent in enumerate(agents):
        where = f"agents[{i}].extents"
        extents, right_keys = numerals.read_extents(agent["extents"], words, word_set, where)
        vocabularies.append(_at(where, Vocabulary._from_valid(domain, extents, right_keys)._check))
    # every vocabulary is over ``domain`` and has one extent per word; a
    # degenerate one is refused only once every agent is read
    profile = _at("agents", lambda: Profile._from_valid(tuple(map(encode_vocabulary, vocabularies))))
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
    for i, agent in enumerate(agents):
        where = f"agents[{i}].exemplar_labels"
        labels = agent["exemplar_labels"]
        if not isinstance(labels, list) or len(labels) != len(values):
            raise ParseError(
                f"{where}: expected one label per exemplar ({len(values)})"
            )
        points = []
        for j, label in enumerate(labels):
            if not isinstance(label, str) or label not in index_of:
                raise ParseError(f"{where}[{j}]: unknown word {shown(label)}")
            points.append((values[j], index_of[label]))
        rows.append(_at(where, LabeledExemplars, domain, tuple(points)))
    return ParsedInput("exemplars", domain, words, exemplars=tuple(rows))


# ---------------------------------------------------------------------------
# rule descriptors


def describe_rule(rule: Rule) -> dict:
    """The canonical JSON descriptor that rebuilds a rule."""
    return rule.describe()


def _string_descriptor(text: str) -> dict:
    """The descriptor object a CLI string form stands for, as ``Rule.describe``
    writes it: the ranks of ``p:`` and the agent of ``dictator:`` are integers."""
    head, _, tail = text.strip().partition(":")
    if head in ("median", "mean", "multiset") and not tail:
        return {"kind": head}
    if head == "fixture":
        return {"kind": "fixture", "name": tail}
    try:
        if head == "dictator":
            return {"kind": "dictator", "agent": int(tail)}
        if head == "p":
            return {"kind": "p-rule", "positions": [int(p) for p in tail.split(",")]}
    except ValueError:
        raise ParseError(f"rule {text!r}: expected integers after {head}:") from None
    raise ParseError(f"unknown rule {text!r}")


# the kinds that ``Rule.describe`` writes; ``median`` is read but resolves to ``p-rule``
_DESCRIBED_KINDS = ("p-rule", "extended-median", "mean", "multiset", "dictator", "fixture")


def rule_from_descriptor(
    descriptor: Union[dict, str], n: int, m: int, domain: Domain
) -> Rule:
    """Rebuild a rule from a descriptor object or CLI string.

    String forms: ``median``, ``mean``, ``multiset``, ``dictator:i``,
    ``p:2,3,4``, ``fixture:name``; each is read as its descriptor object.
    The ``median`` kind resolves the positions from the profile shape at
    hand.  Each field goes to the constructor as the document holds it, so
    ranks and agents must be JSON integers.
    """
    if isinstance(descriptor, str):
        descriptor = _string_descriptor(descriptor)
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ParseError(f"rule descriptor needs a kind: {shown(descriptor)}")
    kind = descriptor["kind"]
    if kind == "median":
        return PRule(median_positions(n, m))
    if kind == "p-rule":
        rule = _at("positions", PRule, descriptor.get("positions"))
        _at("positions", rule.positions.validate_for, n)
        return rule
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
        return ExtendedMedianRule(_at("bad phantom matrix", PhantomMatrix, domain, parsed))
    if kind == "mean":
        return MeanRule()
    if kind == "multiset":
        return MultisetRule()
    if kind == "dictator":
        return _at("agent", DictatorRule, descriptor.get("agent"))
    if kind == "fixture":
        return fixture_rule(descriptor.get("name"))
    raise ParseError(f"unknown rule kind {shown(kind)}")


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
        object.__setattr__(self, "words", _parse_words(self.words))
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

    @classmethod
    def _from_valid(
        cls,
        rule: dict,
        domain: Domain,
        words: tuple[str, ...],
        endpoints: tuple[Fraction, ...],
        vocabulary: tuple[Optional[tuple[Fraction, Fraction]], ...],
    ) -> "ResultDocument":
        """``ResultDocument(rule, domain, words, endpoints, vocabulary)``, without
        reports or witnesses, built without converting or checking it again:
        the caller guarantees that ``rule`` is JSON already (objects, lists,
        strings and integers, as the package's rules describe themselves),
        that ``endpoints`` is a tuple of ``Fraction``s, ``words`` a tuple of
        one more name, each a distinct string, and ``vocabulary`` one
        ``None`` or ``(left, right)`` tuple of ``Fraction``s per word."""
        born = object.__new__(cls)
        for name, value in (
            ("rule", rule), ("domain", domain), ("words", words), ("endpoints", endpoints),
            ("vocabulary", vocabulary), ("reports", ()), ("witnesses", ()),
        ):
            object.__setattr__(born, name, value)
        return born


# the ``describe`` methods of the package's rules, each of which writes its
# descriptor as JSON already (objects, lists, strings and integers)
_JSON_DESCRIBERS = frozenset(
    cls.describe for cls in (PRule, ExtendedMedianRule, MeanRule, MultisetRule, DictatorRule, InfRule)
)


def build_result(
    rule: Rule, words: Sequence[str], endpoints: EndpointMultiset
) -> ResultDocument:
    """The result document of ``endpoints`` under ``rule``, its vocabulary
    decoded from ``endpoints``.  A rule described by one of the package's
    ``describe`` methods gives a document born valid, where only ``words``
    is checked, as ``ResultDocument`` checks it; any other rule's descriptor
    goes through ``ResultDocument``, which converts and checks it."""
    descriptor = describe_rule(rule)
    extents = decode_endpoints(endpoints).extents
    if type(rule).describe not in _JSON_DESCRIBERS:
        return ResultDocument(descriptor, endpoints.domain, words, endpoints.values, extents)
    words = _parse_words(words)
    if len(words) != endpoints.m + 1:
        raise ParseError(f"{len(words)} words for {endpoints.m} endpoints")
    return ResultDocument._from_valid(descriptor, endpoints.domain, words, endpoints.values, extents)


def serialize_result(doc: ResultDocument) -> str:
    """The canonical JSON text of ``doc``.

    The text is ``json.dumps`` of the document's fields with ``indent=2``.
    Its fixed top level is written here and each field inside it by
    ``_indented``.  Each value object is printed and quoted once: the
    extents of a decoded vocabulary are the corners and the endpoints
    themselves, so their texts are looked up by object, and only a value
    held nowhere else is printed on its own.
    """
    lower, upper = doc.domain.lower, doc.domain.upper
    objects = {id(q): q for q in (lower, upper, *doc.endpoints)}
    texts = {key: _quoted(rational_str(q)) for key, q in objects.items()}
    endpoints = ",\n    ".join([texts[id(q)] for q in doc.endpoints])
    text = texts.get
    vocabulary = ",\n    ".join([
        f"{_quoted(word)}: null" if extent is None else (
            f"{_quoted(word)}: [\n"
            f"      {text(id(extent[0])) or _quoted(rational_str(extent[0]))},\n"
            f"      {text(id(extent[1])) or _quoted(rational_str(extent[1]))}\n    ]"
        )
        for word, extent in zip(doc.words, doc.vocabulary)
    ])
    return (
        '{\n  "rule": ' + _indented(doc.rule, "\n  ")
        + ',\n  "domain": {\n    "lower": ' + texts[id(lower)] + ',\n    "upper": ' + texts[id(upper)]
        + '\n  },\n  "words": ' + _indented(list(doc.words), "\n  ")
        + ',\n  "endpoints": ' + ("[\n    " + endpoints + "\n  ]" if endpoints else "[]")
        + ',\n  "vocabulary": {\n    ' + vocabulary
        + '\n  },\n  "reports": ' + _indented(list(doc.reports), "\n  ")
        + ',\n  "witnesses": ' + _indented(list(doc.witnesses), "\n  ")
        + "\n}\n"
    )


def parse_result(text: str) -> ResultDocument:
    payload = load_json(text)
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object at the top level")
    for key in ("rule", "domain", "words", "endpoints", "vocabulary"):
        if key not in payload:
            raise ParseError(f"{key}: missing")
    rule = payload["rule"]
    if not isinstance(rule, dict):
        raise ParseError(f"rule: expected a descriptor object, got {shown(rule)}")
    if rule.get("kind") not in _DESCRIBED_KINDS:
        raise ParseError(f"rule: unknown rule kind {shown(rule.get('kind'))}")
    numerals = _Numerals()
    domain = _parse_domain(payload["domain"], numerals)
    words = _parse_words(payload["words"])
    if not isinstance(payload["endpoints"], list):
        raise ParseError("endpoints: expected a list")
    endpoints = numerals.read_list(payload["endpoints"], "endpoints")
    vocabulary, _ = numerals.read_extents(payload["vocabulary"], words, frozenset(words), "vocabulary")
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
