"""Exact domain model for vocabularies over a bounded open interval.

A vocabulary splits an interval X = (lower, upper) into consecutive word
extents.  With m+1 words there are m inner boundaries, and any vocabulary
with at least two active words is identified by the nondecreasing multiset
of those boundaries: a repeated value stands for a word with empty extent,
and the improper values ``lower``/``upper`` stand for inactive words at the
ends.  All values are `fractions.Fraction`, so comparisons and ties are
exact and runs are reproducible bit for bit.

Every order-key decision in the package is made here, one exact way, without
a ``Fraction`` comparison per pair: ``order_key`` maps q to the plain int
floor(q * 2**64), which never decreases as q grows.  Distinct keys thus
order their values exactly, and only values with equal keys (within 2**-64
of each other) are compared as fractions; no float is involved anywhere.
``less`` decides one pair so, and ``select`` picks order statistics so,
sorting exactly only the run of equal keys that holds a requested rank; on
the keys of pairs' first components it ranks the pairs lexicographically.
``select`` hands each selected value back with its key, and
``select_columns``, its one-rank form over the columns of a profile, builds
the report of the picks.  ``distinct_sorted`` sorts and deduplicates
(key, value) pairs so.  The rules and the exemplar pipeline compare no keys
themselves.  An ``EndpointMultiset`` keeps the keys it computes while
validating (its ``keys`` field, left out of ``==``, hashing and ``repr``),
so the rules order its values without computing them again.  A ``Domain`` keeps its corners' keys the same way
for its membership tests (``contains``, ``contains_closed``,
``first_outside``), which, like ``first_descent`` and ``Vocabulary._check``,
spell the decision out inline rather than call ``less`` per value.

Each value type has one checked constructor, one unchecked builder and one
check.  ``EndpointMultiset(domain, values)`` and ``Vocabulary(domain,
extents)`` coerce their input, key it and call ``_check()``, which checks
the object on the keys it holds and returns it.  ``_from_valid`` takes every
stored field, keys included, and checks nothing; its docstring states what
the caller guarantees.  Rows are born valid: a report that the package
builds from parts valid by construction (a rule's selected values with
their keys, a sampled lattice row, a relabeled, perturbed, spliced, raised
or resampled row, the report ``encode_vocabulary`` builds from a validated
tiling) and the vocabulary ``decode_endpoints`` reads off a report go
through ``_from_valid`` alone, or through its three assignments inline
(``sampling.lattice_rows``).  A document's endpoint row and extent agent,
which arrive with the order keys of their values, go through
``_from_valid(...)._check()``: the constructors' refusals, in the same
words, without keying a value again.  ``Profile._from_valid`` builds a
profile from such rows over one domain, all of one length: the checkers'
sampled profiles, a permutation of a valid profile's rows, and
``Profile.with_row``'s profile once it has checked the new row's agent
index, domain and length; ``Profile(rows)`` keeps its checks.

Conventions used throughout the package:

* word indices are 0-based: word ``j`` (j = 0..m) spans ``[s^j, s^(j+1))``
  where ``s^0 = lower`` and ``s^(m+1) = upper``;
* every extent contains its left boundary except the first active one,
  which is open at ``lower`` because the domain itself is open;
* agent indices and order-statistic ranks are 1-based.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidVocabulary,
    ParseError,
    ShapeMismatch,
    VocaggError,
)

RationalLike = Union[Fraction, int, str]

# Numeral text may write a numerator or denominator of at most this many
# decimal digits.  Reading and printing a rational costs time quadratic in its
# digits (20,000 digits take milliseconds, 200,000 over a second), and an
# exponent writes 10**exponent, so larger numerals are refused unread.
MAX_NUMERAL_DIGITS = 20_000
# The longest text that ``as_rational`` reads without the grammar: 640 is the
# smallest int-from-text limit that ``sys.set_int_max_str_digits`` accepts, so
# no ``int`` of a part of such a text can raise.
_PLAIN_NUMERAL_LENGTH = 640
# The numeral grammar of ``as_rational``; its groups are the sign, the whole
# digits, the denominator, the decimals and the exponent.  No part can start
# with a character that the part before it takes, so the first match is the
# longest: testing its end stands in for ``fullmatch`` without retrying every
# shorter digit run, which keeps a refusal linear in the length of the text.
_DIGITS = r"\d+(?:_\d+)*"
_NUMERAL = re.compile(
    rf"\s*([-+]?)(?=\.?\d)({_DIGITS})?"
    rf"(?:\s*/\s*({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)\s*"
)


def _excerpt(text: str) -> str:
    """``repr(text)``, cut to its first 20 characters and its length past 40."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def _digits_written(parts: tuple) -> int:
    """The digits of the numerator or the denominator that the ``_NUMERAL`` groups
    ``parts`` write, whichever is more, counted without leading zeros and before
    reduction.  An exponent of 10**7 or more counts as 10**7, so that no number
    longer than seven digits is converted to decide."""
    _, whole, denominator, decimals, exponent = ((part or "").replace("_", "") for part in parts)
    shift = int(max(-(10**7), min(Decimal(exponent or 0), 10**7)))
    numerator = _significant_digits(whole + decimals) + max(shift, 0)
    if denominator:
        return max(numerator, _significant_digits(denominator))
    return max(numerator, 1 + len(decimals) - min(shift, 0))


def _significant_digits(run: str) -> int:
    """The digits of ``run`` after its leading zeros, read by ``Decimal`` in linear
    time; unlike ``str.lstrip("0")``, it takes the zero of every script as a zero."""
    value = Decimal(run or 0)
    return value.adjusted() + 1 if value else 0


def _numeral_value(parts: tuple, read: Callable[[str], int] = int) -> Fraction:
    """The value that the ``_NUMERAL`` groups ``parts`` write, each digit run read by ``read``."""
    sign, whole, denominator, decimals, exponent = parts
    if denominator is not None:
        q = read(denominator)
        if q == 0:  # raised here: ``Fraction``'s own message would print the numerator
            raise ZeroDivisionError("zero denominator")
        return Fraction(read(sign + whole), q)
    numerator = read(sign + (whole or "") + (decimals or ""))
    places = len(decimals) - decimals.count("_") if decimals else 0
    if exponent is not None:
        places -= read(exponent)
    if places < 0:
        return Fraction(numerator * 10**-places)
    return Fraction(numerator, 10**places)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, and numeral text such as ``"3/7"`` or ``"48.33"``
    (decimal text expands exactly, e.g. 48.33 becomes 4833/100).  Binary
    floats are rejected: they would smuggle rounding into an exact model.

    Numeral text has one grammar on every supported interpreter: optional
    whitespace and sign; then ``p/q``, with optional whitespace around the
    ``/``, or a decimal with digits on at least one side of the point
    (``5``, ``.5``, ``5.``, ``5.25``) and an optional exponent (``e`` or
    ``E``, then an optional sign: ``1.5e-3``); then optional whitespace.
    Each digit run is ``\\d`` digits (any Unicode decimal digit) with single
    underscores between digits (``1_000``).  This is the language of
    ``Fraction(str)`` on Python 3.12 and later, read without it: each value
    is built from ``int`` of the matched digit runs, and through ``Decimal``
    for a run past the interpreter's int-from-text limit.  A zero
    denominator is refused, and so is a numerator or denominator of more
    than ``MAX_NUMERAL_DIGITS`` digits, counted without leading zeros (of
    any script) and before reduction; only an exponent or text longer than
    that bound can write one, so only then are the digits counted.  Every
    refusal raises ``ParseError`` and quotes text longer than 40 characters
    by its first 20.

    A plain ASCII numeral of at most ``_PLAIN_NUMERAL_LENGTH`` characters,
    ``[-+]?digits/digits`` with a nonzero denominator, ``[-+]?digits`` or
    ``[-+]?digits.digits``, is read by ``int`` of its parts without the
    grammar.  The language and every value are unchanged: any other text,
    a zero denominator included, is read by the grammar.
    """
    if isinstance(value, str):
        if len(value) <= _PLAIN_NUMERAL_LENGTH and value.isascii():
            head, slash, tail = value.partition("/")
            unsigned = head[1:] if head[:1] in "+-" else head
            if slash:
                if unsigned.isdigit() and tail.isdigit():
                    denominator = int(tail)
                    if denominator:
                        return Fraction(int(head), denominator)
            elif unsigned.isdigit():
                return Fraction(int(head))
            else:
                whole, point, decimals = unsigned.partition(".")
                if point and whole.isdigit() and decimals.isdigit():
                    return Fraction(int(head.replace(".", "", 1)), 10 ** len(decimals))
        match = _NUMERAL.match(value)
        if match is None or match.end() != len(value):
            raise ParseError(f"not a rational numeral: {_excerpt(value)}")
        parts = match.groups()
        if parts[4] is not None or len(value) > MAX_NUMERAL_DIGITS:
            if _digits_written(parts) > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral past {MAX_NUMERAL_DIGITS:,} digits: {_excerpt(value)}")
        try:
            try:
                return _numeral_value(parts)
            except ValueError:  # a digit run past the int-from-text limit
                return _numeral_value(parts, lambda digits: int(Decimal(digits)))
        except ZeroDivisionError:
            raise ParseError(f"not a rational numeral: {_excerpt(value)}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"refusing float {value!r}: pass a string or Fraction for exact input"
        )
    raise ParseError(f"not a rational value: {shown(value)}")


def as_rationals(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """``as_rational`` of each value, as a tuple.

    A tuple that holds only exact ``Fraction``s is returned as it is, so
    values read once are not coerced a second time.
    """
    if type(values) is tuple and {Fraction}.issuperset(map(type, values)):
        return values
    return tuple(map(as_rational, values))


def as_integer(value: object) -> int:
    """``value`` if it is an ``int`` but not a ``bool``: ``1.9`` is refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise VocaggError(f"not an integer: {shown(value)}")


def as_pair(entry: object, index: int, read_second: Callable = as_rational) -> tuple:
    """``entry`` as ``(as_rational(first), read_second(second))``; a non-pair
    raises ``VocaggError`` naming ``index``, its 0-based place in a sequence."""
    try:
        first, second = entry
    except (TypeError, ValueError):
        raise VocaggError(f"entry {index}: expected a pair, got {shown(entry)}") from None
    return as_rational(first), read_second(second)


def as_extents(
    extents: Iterable[Optional[Sequence[RationalLike]]],
) -> tuple[Optional[tuple[Fraction, Fraction]], ...]:
    """Each extent as an exact ``(left, right)`` pair; ``None`` and exact pairs pass as they are."""
    return tuple(
        e if e is None or (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is Fraction)
        else as_pair(e, j)
        for j, e in enumerate(extents)
    )


def rational_str(value: RationalLike) -> str:
    """Canonical string form: ``"p/q"``, or just ``"p"`` for integers."""
    if type(value) is not Fraction:
        value = Fraction(value)
    numerator, denominator = value.numerator, value.denominator
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:
        text = str(Decimal(numerator))
        return text if denominator == 1 else f"{text}/{Decimal(denominator)}"


def shown(value: object) -> str:
    """``value`` as an error message prints it, whatever its size: a number as
    ``rational_str`` writes it, anything else by ``repr``."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return rational_str(value)
    try:
        return repr(value)
    except ValueError:  # it holds an int past the interpreter's int-to-text limit
        return f"<{type(value).__name__} holding an integer too long to print>"


def order_key(q: Fraction) -> int:
    """floor(q * 2**64), an int that never decreases as q grows.

    ``order_key(a) < order_key(b)`` implies ``a < b``; equal keys only say
    that a and b lie within 2**-64 of each other, so callers settle them
    with an exact comparison.
    """
    return (q.numerator << 64) // q.denominator


def less(a: Fraction, b: Fraction, key_a: int, key_b: int) -> bool:
    """a < b, given their ``order_key``s: exact only at equal keys, and false
    at once when a and b are one object."""
    return key_a < key_b or (key_a == key_b and a is not b and a < b)


def select(values: Sequence, keys: Sequence[int], ranks: Sequence[int]) -> list[tuple]:
    """``(sorted(values)[k - 1], its key)`` for each k in ``ranks``, each already
    checked to lie in 1..len(values).

    ``keys[i] < keys[j]`` must imply ``values[i] < values[j]``, as it does for
    the values' ``order_key``s or for the keys of pairs' first components.
    The keys are plain ``int``s, so ``key.__eq__`` never returns
    ``NotImplemented``.  For each rank, the run of equal keys holding it is
    found by bisection and only that run is sorted exactly, unless it holds
    one object repeated or only equal values.  Every value in that run has
    the key at rank k, so it is handed back as it is.

    One rank sorts the keys themselves, with no key function.  A key held
    once names its value by ``keys.index``; a tied run is gathered in index
    order by ``compress``, as a stable sort of the indices would give it
    (``_in_run``).  ``select_columns`` takes this path once per column.
    Several ranks (the pooled multiset asks one per boundary) sort the
    indices by key once and cut every run from that order, since a
    ``keys.index`` or ``compress`` pass per rank would read all the keys
    once for each rank.
    """
    if len(ranks) == 1:
        k = ranks[0]
        sorted_keys = sorted(keys)
        key = sorted_keys[k - 1]
        lo = bisect_left(sorted_keys, key, 0, k - 1)
        if bisect_right(sorted_keys, key, k) - lo == 1:
            return [(values[keys.index(key)], key)]
        return [(_in_run(values, keys, key, k - 1 - lo), key)]
    order = sorted(range(len(values)), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in order]
    out = []
    for k in ranks:
        key = sorted_keys[k - 1]
        lo = bisect_left(sorted_keys, key, 0, k - 1)
        hi = bisect_right(sorted_keys, key, k)
        if hi - lo == 1:
            out.append((values[order[lo]], key))
        else:
            run = [values[i] for i in order[lo:hi]]
            # ``count`` tests identity before equality: a run of one object or of
            # equal values is already sorted
            if run.count(run[0]) != len(run):
                run.sort()
            out.append((run[k - 1 - lo], key))
    return out


def _in_run(values: Sequence, keys: Sequence[int], key: int, i: int):
    """The i-th smallest of the values whose key is ``key``, gathered in index
    order by ``compress``, as a stable sort of the indices would give them."""
    run = list(compress(values, map(key.__eq__, keys)))
    # ``count`` tests identity before equality: a run of one object or of
    # equal values is already sorted
    if run.count(run[0]) != len(run):
        run.sort()
    return run[i]


def select_columns(
    domain: Domain,
    columns: Iterable[Sequence[Fraction]],
    key_columns: Iterable[Sequence[int]],
    ranks: Iterable[int],
) -> EndpointMultiset:
    """The report whose j-th value is ``select(column, keys, (k,))`` for the
    j-th of ``columns``, ``key_columns`` and ``ranks``, with its key, born
    valid: ``select`` with one rank, once per column, in one pass.

    Each column's keys are sorted once.  A key held once at rank k names its
    value by ``keys.index``; a tied run goes through ``select``'s own
    one-rank run (``_in_run``), so every tie is settled in one place.  The
    caller guarantees what ``EndpointMultiset._from_valid`` asks: the picks
    never decrease from one column to the next and lie in the closure of
    ``domain``, as ranks that never fall do on the columns of sorted rows.
    """
    values, keys = [], []
    for column, column_keys, k in zip(columns, key_columns, ranks):
        sorted_keys = sorted(column_keys)
        key = sorted_keys[k - 1]
        if column_keys.count(key) == 1:
            values.append(column[column_keys.index(key)])
        else:
            lo = bisect_left(sorted_keys, key, 0, k - 1)
            values.append(_in_run(column, column_keys, key, k - 1 - lo))
        keys.append(key)
    return EndpointMultiset._from_valid(domain, tuple(values), tuple(keys))


def distinct_sorted(pairs: Iterable[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """The distinct ``(order_key(q), q)`` pairs of ``pairs``, in increasing order.

    Sorting the pairs compares keys first and values only at equal keys, so
    equal values end up next to each other, and only pairs with equal keys
    are compared exactly (at once when they hold one object); the first of
    each run of equal values is kept.
    """
    out: list[tuple[int, Fraction]] = []
    for pair in sorted(pairs):
        if not out or pair != out[-1]:
            out.append(pair)
    return out


def first_descent(
    left: Sequence[Fraction],
    right: Sequence[Fraction],
    left_keys: Sequence[int],
    right_keys: Sequence[int],
) -> Optional[tuple[Fraction, Fraction]]:
    """The first pair (a, b) of ``zip(left, right)`` with a > b, or None.

    The keys are the values' ``order_key``s: they decide every pair except
    those with equal keys, which are compared exactly unless they are one
    object.
    """
    for a, b, key_a, key_b in zip(left, right, left_keys, right_keys):
        if key_a > key_b or (key_a == key_b and a is not b and a > b):
            return a, b
    return None


@dataclass(frozen=True)
class Domain:
    """The open interval X = (lower, upper) that every vocabulary partitions."""

    lower: Fraction
    upper: Fraction
    # the corners' order keys, kept for every membership test
    keys: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower, upper = as_rational(self.lower), as_rational(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not lower < upper:
            raise VocaggError(f"empty domain: ({shown(lower)}, {shown(upper)})")
        object.__setattr__(self, "keys", (order_key(lower), order_key(upper)))

    @classmethod
    def unit(cls) -> "Domain":
        return cls(Fraction(0), Fraction(1))

    def contains(self, x: RationalLike) -> bool:
        """Membership in the open interval X."""
        x = as_rational(x)
        low, high = self.keys
        key = order_key(x)
        return low < key < high or (key in self.keys and self.lower < x < self.upper)

    def contains_closed(self, x: RationalLike) -> bool:
        """Membership in the closure of X, where improper endpoints live."""
        x = as_rational(x)
        low, high = self.keys
        key = order_key(x)
        return low < key < high or (key in self.keys and self.lower <= x <= self.upper)


def first_outside(
    domain: Domain, values: Sequence[Fraction], keys: Sequence[int]
) -> Optional[Fraction]:
    """The first of ``values`` outside the closure of ``domain``, or None.

    A key strictly between the corners' keys puts its value inside; a value
    whose key reaches a corner's key is compared with that corner exactly,
    unless it is that corner's own object.
    """
    low, high = domain.keys
    if keys and (min(keys) <= low or max(keys) >= high):
        lower, upper = domain.lower, domain.upper
        for v, key in zip(values, keys):
            if (key <= low and v is not lower and v < lower) or (
                key >= high and v is not upper and v > upper
            ):
                return v
    return None


@dataclass(frozen=True)
class EndpointMultiset:
    """A nondecreasing tuple of m word boundaries inside the closure of X.

    This is one agent's report: the boundary between word j-1 and word j
    sits at ``values[j-1]``.  ``bound(k)`` pads the tuple with the domain
    corners so that ``bound(0) = lower`` and ``bound(m+1) = upper``.
    """

    domain: Domain
    values: tuple[Fraction, ...]
    # the values' order keys, kept from validation for the rule kernel
    keys: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = as_rationals(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "keys", tuple(map(order_key, values)))
        self._check()

    def _check(self) -> "EndpointMultiset":
        """The report itself, once checked on the keys it holds: its values
        never decrease and lie in the closure of the domain."""
        values, keys = self.values, self.keys
        outside = first_outside(self.domain, values, keys)
        if outside is not None:
            raise VocaggError(
                f"endpoint {shown(outside)} outside"
                f" [{shown(self.domain.lower)}, {shown(self.domain.upper)}]"
            )
        descent = first_descent(values, values[1:], keys, keys[1:])
        if descent is not None:
            raise VocaggError(f"endpoints not sorted: {shown(descent[0])} > {shown(descent[1])}")
        return self

    @classmethod
    def _from_valid(
        cls, domain: Domain, values: tuple[Fraction, ...], keys: tuple[int, ...]
    ) -> "EndpointMultiset":
        """``EndpointMultiset(domain, values)`` built without checking it: the
        caller guarantees that ``values`` is a tuple of ``Fraction``s and
        ``keys`` is ``tuple(map(order_key, values))``, and, unless
        ``_check()`` follows, that the values never decrease and lie in the
        closure of ``domain``."""
        born = object.__new__(cls)
        object.__setattr__(born, "domain", domain)
        object.__setattr__(born, "values", values)
        object.__setattr__(born, "keys", keys)
        return born

    @property
    def m(self) -> int:
        return len(self.values)

    def bound(self, k: int) -> Fraction:
        """The k-th boundary for k in 0..m+1, with corners at both ends."""
        k = as_integer(k)
        if k == 0:
            return self.domain.lower
        if k == self.m + 1:
            return self.domain.upper
        if 1 <= k <= self.m:
            return self.values[k - 1]
        raise IndexOutOfRange(f"boundary index {k} outside 0..{self.m + 1}")

    def active_words(self) -> tuple[int, ...]:
        """0-based indices j with a nonempty extent [bound(j), bound(j+1)),
        as ``decode_endpoints`` decides them."""
        return decode_endpoints(self).active_words()


@dataclass(frozen=True)
class Vocabulary:
    """A labeled interval partition: one optional extent per word.

    ``extents[j]`` is ``(left, right)`` for an active word and ``None`` for
    an inactive one.  Active extents must tile X in word order.  A single
    active word is representable (``degenerate`` is then true) but cannot
    be encoded as an endpoint multiset.
    """

    domain: Domain
    extents: tuple[Optional[tuple[Fraction, Fraction]], ...]
    # the order keys of the active extents' right ends, in word order, kept
    # from validation for ``encode_vocabulary``
    _right_keys: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        extents = as_extents(self.extents)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "_right_keys", tuple([order_key(e[1]) for e in extents if e is not None]))
        self._check()

    def _check(self) -> "Vocabulary":
        """The vocabulary itself, once checked on the keys it holds: its
        active extents, at least one, tile the domain in word order, each
        nonempty."""
        active = [e for e in self.extents if e is not None]
        if not active:
            raise InvalidVocabulary("no active word")
        cursor, cursor_key = self.domain.lower, self.domain.keys[0]
        for (left, right), key in zip(active, self._right_keys):
            if left is not cursor and left != cursor:
                raise InvalidVocabulary(
                    f"extent [{shown(left)}, {shown(right)})"
                    f" does not continue the tiling at {shown(cursor)}"
                )
            # left equals the cursor, so it has the cursor's key; ``less``, inline
            if key <= cursor_key and (key < cursor_key or left is right or not left < right):
                raise InvalidVocabulary(f"empty extent [{shown(left)}, {shown(right)})")
            cursor, cursor_key = right, key
        if cursor is not self.domain.upper and cursor != self.domain.upper:
            raise InvalidVocabulary(
                f"tiling stops at {shown(cursor)}, not {shown(self.domain.upper)}"
            )
        return self

    @classmethod
    def _from_valid(
        cls,
        domain: Domain,
        extents: tuple[Optional[tuple[Fraction, Fraction]], ...],
        right_keys: tuple[int, ...],
    ) -> "Vocabulary":
        """``Vocabulary(domain, extents)`` built without checking it: the
        caller guarantees that ``extents`` is a tuple of ``None``s and
        ``(left, right)`` tuples of ``Fraction``s and that ``right_keys``
        holds the ``order_key`` of each active extent's right end, in word
        order, and, unless ``_check()`` follows, that the active extents, at
        least one, tile ``domain`` in word order with left < right."""
        born = object.__new__(cls)
        object.__setattr__(born, "domain", domain)
        object.__setattr__(born, "extents", extents)
        object.__setattr__(born, "_right_keys", right_keys)
        return born

    @property
    def word_count(self) -> int:
        return len(self.extents)

    @property
    def m(self) -> int:
        return len(self.extents) - 1

    def active_words(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.extents) if e is not None)

    @property
    def degenerate(self) -> bool:
        """True when only one word is active; such vocabularies carry no boundary."""
        return len(self._right_keys) < 2


@dataclass(frozen=True)
class Profile:
    """One endpoint multiset per agent, all over the same domain and word count."""

    rows: tuple[EndpointMultiset, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ShapeMismatch("a profile needs at least one agent")
        first = self.rows[0]
        for row in self.rows[1:]:
            if row.domain != first.domain:
                raise DomainMismatch("profile rows over different domains")
            if row.m != first.m:
                raise ShapeMismatch(f"profile rows of mixed length: {row.m} != {first.m}")

    @classmethod
    def from_rows(
        cls, domain: Domain, rows: Iterable[Sequence[RationalLike]]
    ) -> "Profile":
        return cls(tuple(EndpointMultiset(domain, tuple(row)) for row in rows))

    @classmethod
    def _from_valid(cls, rows: tuple[EndpointMultiset, ...]) -> "Profile":
        """``Profile(rows)`` built without checking it again: the caller
        guarantees that ``rows`` is a nonempty tuple of reports over one
        domain, all of one length."""
        born = object.__new__(cls)
        object.__setattr__(born, "rows", rows)
        return born

    @property
    def domain(self) -> Domain:
        return self.rows[0].domain

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return self.rows[0].m

    def row(self, i: int) -> EndpointMultiset:
        """Agent i's report, i in 1..n."""
        i = as_integer(i)
        if not 1 <= i <= self.n:
            raise ShapeMismatch(f"agent index {i} outside 1..{self.n}")
        return self.rows[i - 1]

    def column(self, k: int) -> tuple[Fraction, ...]:
        """All agents' k-th endpoints, k in 1..m, in agent order."""
        k = as_integer(k)
        if not 1 <= k <= self.m:
            raise ShapeMismatch(f"column index {k} outside 1..{self.m}")
        return tuple(row.values[k - 1] for row in self.rows)

    def with_row(self, i: int, row: EndpointMultiset) -> "Profile":
        """The profile with agent i's report replaced (a unilateral deviation).

        The checks are those of ``Profile(rows)`` on the one new row, so the
        profile is built by ``_from_valid``."""
        i = as_integer(i)
        if not 1 <= i <= self.n:
            raise ShapeMismatch(f"agent index {i} outside 1..{self.n}")
        if row.domain != self.domain:
            raise DomainMismatch("replacement row over a different domain")
        if row.m != self.m:
            raise ShapeMismatch(f"replacement row of length {row.m}, expected {self.m}")
        rows = list(self.rows)
        rows[i - 1] = row
        return Profile._from_valid(tuple(rows))

    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(row.values for row in self.rows)


def default_words(count: int) -> tuple[str, ...]:
    """The names ``w1``, ``w2``, ... of ``count`` words that a document leaves unnamed."""
    return tuple(f"w{j}" for j in range(1, count + 1))


def encode_vocabulary(vocabulary: Vocabulary) -> EndpointMultiset:
    """The endpoint multiset of a vocabulary with at least two active words.

    Boundary k (k = 1..m) separates words 0..k-1 from words k..m and equals
    the right end of the last active extent among words 0..k-1, or ``lower``
    when none of them is active.  Inactive words between active extents thus
    contribute an extra copy of the shared boundary, and inactive words at
    the ends contribute copies of the corners.
    """
    if vocabulary.degenerate:
        raise InvalidVocabulary("one active word carries no boundary information")
    domain = vocabulary.domain
    reach, reach_key = domain.lower, domain.keys[0]
    right_keys = iter(vocabulary._right_keys)
    values, keys = [], []
    for extent in vocabulary.extents[:-1]:
        if extent is not None:
            reach, reach_key = extent[1], next(right_keys)
        values.append(reach)
        keys.append(reach_key)
    # a validated tiling: the right ends never decrease and stay in the closed domain
    return EndpointMultiset._from_valid(domain, tuple(values), tuple(keys))


def decode_endpoints(endpoints: EndpointMultiset) -> Vocabulary:
    """The vocabulary whose word j spans [bound(j), bound(j+1)).

    Words with coinciding boundaries come back inactive.  A multiset all of
    whose values sit at one corner decodes to a single active word; the
    result is then flagged ``degenerate`` and cannot be re-encoded.
    """
    domain = endpoints.domain
    bounds = (domain.lower, *endpoints.values, domain.upper)
    low, high = domain.keys
    keys = (low, *endpoints.keys, high)
    active = list(map(less, bounds, bounds[1:], keys, keys[1:]))
    extents = tuple(
        (left, right) if nonempty else None
        for left, right, nonempty in zip(bounds, bounds[1:], active)
    )
    # consecutive bounds of a valid report: the active extents tile the domain
    return Vocabulary._from_valid(domain, extents, tuple(compress(keys[1:], active)))


def between(x: Fraction, y: Fraction, z: Fraction) -> bool:
    """True iff y lies weakly between x and z (in either order)."""
    x, y, z = as_rationals((x, y, z))
    return x <= y <= z or z <= y <= x

