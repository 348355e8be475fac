"""Exact domain model for vocabularies over a bounded open interval.

A vocabulary splits an interval X = (lower, upper) into consecutive word
extents.  With m+1 words there are m inner boundaries, and any vocabulary
with at least two active words is identified by the nondecreasing multiset
of those boundaries: a repeated value stands for a word with empty extent,
and the improper values ``lower``/``upper`` stand for inactive words at the
ends.  All values are `fractions.Fraction`, so comparisons and ties are
exact and runs are reproducible bit for bit.

Ordering stays exact without paying for a ``Fraction`` comparison per pair:
``order_key`` maps q to the plain int floor(q * 2**64), which never
decreases as q grows.  Distinct keys therefore order their values exactly,
and only values with equal keys (within 2**-64 of each other) are compared
as fractions.  No float is involved anywhere.

Conventions used throughout the package:

* word indices are 0-based: word ``j`` (j = 0..m) spans ``[s^j, s^(j+1))``
  where ``s^0 = lower`` and ``s^(m+1) = upper``;
* every extent contains its left boundary except the first active one,
  which is open at ``lower`` because the domain itself is open;
* agent indices and order-statistic ranks are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import DomainMismatch, InvalidVocabulary, ParseError, ShapeMismatch

RationalLike = Union[Fraction, int, str]

# The common numeral forms, read straight into ``Fraction(int, int)``: an
# optional sign, ASCII digits, then ``/digits`` or ``.digits``.  Anything
# else is left to ``Fraction(str)`` itself.
_SIMPLE_NUMERAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")
# Decimal text past the interpreter's int-to-text limit goes through
# ``Decimal``, which has no such limit, so values of any size convert without
# touching ``sys.set_int_max_str_digits``.
_PLAIN_NUMERAL = re.compile(r"[-+]?\d+(?:/\d+|\.\d*)?")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, and strings such as ``"3/7"`` or ``"48.33"``
    (decimal strings expand exactly, e.g. 48.33 becomes 4833/100).  Binary
    floats are rejected: they would smuggle rounding into an exact model.

    Numeral text is read in one of two ways.  The common forms (an optional
    sign, ASCII digits, then optionally ``/digits`` or ``.digits``) are
    scanned directly into ``Fraction(numerator, denominator)``.  Everything
    else goes to the running interpreter's ``Fraction(str)``: surrounding
    whitespace, exponents, underscores, ``.5`` and ``5.``, non-ASCII
    digits, a zero denominator, and digit runs past the interpreter's
    int-from-text limit (which are then read through ``Decimal``).  The
    accepted language and the values are therefore those of
    ``Fraction(str)`` on the interpreter at hand, and every rejection raises
    the same ``ParseError``.
    """
    if isinstance(value, str):
        match = _SIMPLE_NUMERAL.fullmatch(value)
        if match is not None:
            whole, denominator, decimals = match.groups()
            try:
                if decimals is not None:
                    return Fraction(int(whole + decimals), 10 ** len(decimals))
                return Fraction(int(whole), int(denominator or 1))
            except (ValueError, ZeroDivisionError):
                pass  # too many digits for int(), or "/0": read as below
        text = value.strip()
        try:
            try:
                return Fraction(text)
            except ValueError:
                if not _PLAIN_NUMERAL.fullmatch(text):
                    raise
                numerator, _, denominator = text.partition("/")
                return Fraction(Decimal(numerator)) / Fraction(Decimal(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational numeral: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"refusing float {value!r}: pass a string or Fraction for exact input"
        )
    raise ParseError(f"not a rational value: {value!r}")


def as_rationals(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """``as_rational`` of each value, as a tuple.

    A tuple that holds only exact ``Fraction``s is returned as it is, so
    values read once are not coerced a second time.
    """
    if type(values) is tuple and {Fraction}.issuperset(map(type, values)):
        return values
    return tuple(map(as_rational, values))


def as_extents(
    extents: Iterable[Optional[Sequence[RationalLike]]],
) -> tuple[Optional[tuple[Fraction, Fraction]], ...]:
    """Each extent as an exact ``(left, right)`` pair; ``None`` stays ``None``."""
    cleaned = []
    for extent in extents:
        if extent is not None:
            left, right = extent
            if type(left) is not Fraction or type(right) is not Fraction:
                left, right = as_rational(left), as_rational(right)
            extent = (left, right)
        cleaned.append(extent)
    return tuple(cleaned)


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


def order_key(q: Fraction) -> int:
    """floor(q * 2**64), an int that never decreases as q grows.

    ``order_key(a) < order_key(b)`` implies ``a < b``; equal keys only say
    that a and b lie within 2**-64 of each other, so callers settle them
    with an exact comparison.
    """
    return (q.numerator << 64) // q.denominator


def first_descent(
    left: Sequence[Fraction],
    right: Sequence[Fraction],
    left_keys: Sequence[int],
    right_keys: Sequence[int],
) -> Optional[tuple[Fraction, Fraction]]:
    """The first pair (a, b) of ``zip(left, right)`` with a > b, or None.

    The keys are the values' ``order_key``s: they decide every pair except
    those with equal keys, which are compared exactly.
    """
    for a, b, key_a, key_b in zip(left, right, left_keys, right_keys):
        if key_a > key_b or (key_a == key_b and a > b):
            return a, b
    return None


@dataclass(frozen=True)
class Domain:
    """The open interval X = (lower, upper) that every vocabulary partitions."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", as_rational(self.lower))
        object.__setattr__(self, "upper", as_rational(self.upper))
        if not self.lower < self.upper:
            raise ValueError(f"empty domain: ({self.lower}, {self.upper})")

    @classmethod
    def unit(cls) -> "Domain":
        return cls(Fraction(0), Fraction(1))

    def contains(self, x: Fraction) -> bool:
        """Membership in the open interval X."""
        return self.lower < x < self.upper

    def contains_closed(self, x: Fraction) -> bool:
        """Membership in the closure of X, where improper endpoints live."""
        return self.lower <= x <= self.upper

    def reflect(self, x: Fraction) -> Fraction:
        """The order-reversing bijection x -> lower + upper - x."""
        return self.lower + self.upper - x


def first_outside(
    domain: Domain, values: Sequence[Fraction], keys: Sequence[int]
) -> Optional[Fraction]:
    """The first of ``values`` outside the closure of ``domain``, or None.

    A key strictly between the corners' keys puts its value inside; a value
    whose key reaches a corner's key is compared with that corner exactly.
    """
    low, high = order_key(domain.lower), order_key(domain.upper)
    if keys and (min(keys) <= low or max(keys) >= high):
        for v, key in zip(values, keys):
            if (key <= low and v < domain.lower) or (key >= high and v > domain.upper):
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

    def __post_init__(self) -> None:
        coerced = as_rationals(self.values)
        object.__setattr__(self, "values", coerced)
        keys = list(map(order_key, coerced))
        outside = first_outside(self.domain, coerced, keys)
        if outside is not None:
            raise ValueError(
                f"endpoint {outside} outside [{self.domain.lower}, {self.domain.upper}]"
            )
        descent = first_descent(coerced, coerced[1:], keys, keys[1:])
        if descent is not None:
            raise ValueError(f"endpoints not sorted: {descent[0]} > {descent[1]}")

    @property
    def m(self) -> int:
        return len(self.values)

    def bound(self, k: int) -> Fraction:
        """The k-th boundary for k in 0..m+1, with corners at both ends."""
        if k == 0:
            return self.domain.lower
        if k == self.m + 1:
            return self.domain.upper
        if 1 <= k <= self.m:
            return self.values[k - 1]
        raise IndexError(f"boundary index {k} outside 0..{self.m + 1}")

    def active_words(self) -> tuple[int, ...]:
        """0-based indices j with a nonempty extent [bound(j), bound(j+1))."""
        return tuple(j for j in range(self.m + 1) if self.bound(j) < self.bound(j + 1))

    @property
    def strictly_increasing_interior(self) -> bool:
        """True iff all values are interior and strictly increasing.

        Equivalent to all m+1 words being active.
        """
        padded = (self.domain.lower,) + self.values + (self.domain.upper,)
        return all(a < b for a, b in zip(padded, padded[1:]))


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", as_extents(self.extents))
        active = [(j, e) for j, e in enumerate(self.extents) if e is not None]
        if not active:
            raise InvalidVocabulary("no active word")
        cursor = self.domain.lower
        for _, (left, right) in active:
            if left != cursor:
                raise InvalidVocabulary(
                    f"extent [{left}, {right}) does not continue the tiling at {cursor}"
                )
            if not left < right:
                raise InvalidVocabulary(f"empty extent [{left}, {right})")
            cursor = right
        if cursor != self.domain.upper:
            raise InvalidVocabulary(f"tiling stops at {cursor}, not {self.domain.upper}")

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
        return len(self.active_words()) < 2


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
        if not 1 <= i <= self.n:
            raise ShapeMismatch(f"agent index {i} outside 1..{self.n}")
        return self.rows[i - 1]

    def column(self, k: int) -> tuple[Fraction, ...]:
        """All agents' k-th endpoints, k in 1..m, in agent order."""
        if not 1 <= k <= self.m:
            raise ShapeMismatch(f"column index {k} outside 1..{self.m}")
        return tuple(row.values[k - 1] for row in self.rows)

    def with_row(self, i: int, row: EndpointMultiset) -> "Profile":
        """The profile with agent i's report replaced (a unilateral deviation)."""
        if not 1 <= i <= self.n:
            raise ShapeMismatch(f"agent index {i} outside 1..{self.n}")
        if row.domain != self.domain:
            raise DomainMismatch("replacement row over a different domain")
        if row.m != self.m:
            raise ShapeMismatch(f"replacement row of length {row.m}, expected {self.m}")
        rows = list(self.rows)
        rows[i - 1] = row
        return Profile(tuple(rows))

    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(row.values for row in self.rows)


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
    values = []
    reach = vocabulary.domain.lower
    for j in range(vocabulary.m):
        extent = vocabulary.extents[j]
        if extent is not None:
            reach = extent[1]
        values.append(reach)
    return EndpointMultiset(vocabulary.domain, tuple(values))


def decode_endpoints(endpoints: EndpointMultiset) -> Vocabulary:
    """The vocabulary whose word j spans [bound(j), bound(j+1)).

    Words with coinciding boundaries come back inactive.  A multiset all of
    whose values sit at one corner decodes to a single active word; the
    result is then flagged ``degenerate`` and cannot be re-encoded.
    """
    extents: list[Optional[tuple[Fraction, Fraction]]] = []
    for j in range(endpoints.m + 1):
        left, right = endpoints.bound(j), endpoints.bound(j + 1)
        extents.append((left, right) if left < right else None)
    return Vocabulary(endpoints.domain, tuple(extents))


def between(x: Fraction, y: Fraction, z: Fraction) -> bool:
    """True iff y lies weakly between x and z (in either order)."""
    return x <= y <= z or z <= y <= x


def profile_between(
    first: EndpointMultiset, middle: EndpointMultiset, last: EndpointMultiset
) -> bool:
    """Componentwise betweenness of three reports of equal shape."""
    if not (first.m == middle.m == last.m):
        raise ShapeMismatch(
            f"betweenness over mixed lengths: {first.m}, {middle.m}, {last.m}"
        )
    if not (first.domain == middle.domain == last.domain):
        raise DomainMismatch("betweenness over mixed domains")
    return all(
        between(a, b, c)
        for a, b, c in zip(first.values, middle.values, last.values)
    )
