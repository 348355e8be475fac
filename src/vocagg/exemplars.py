"""Partial vocabularies induced from labeled observations.

Agents observe a strictly increasing sequence of exemplars and tag each one
with a word.  What is known of each word is the closed hull of its tagged
observations, extended outward at the two boundary words; everything else
is undetermined and lives in the m "gaps" between consecutive known
extents, read in two passes: left ends from the left, right ends from the
right.  Gaps play the role endpoints play for complete vocabularies: they
are aggregated columnwise by a position rule, and one rule gives each word
the segment between its two bounding gaps in the collective sequence,
padded with a corner gap at each end.  As observations accumulate
consistently, gaps contract and attributed extents expand; the incremental
checker verifies exactly that on explicit before/after data.

Validation computes one order key per value and orders values, corners
included, with ``core.less``; exact pairs pass through unread, as in ``core``.
Rows are born valid, as in ``core``: what a caller passes to
``InducedVocabulary`` or ``GapSequence`` is validated, and so is the output
of ``aggregate_gaps``, while ``induce``, ``gaps_of`` and
``collective_incomplete`` build their rows, valid by construction from
validated inputs, through ``_from_valid``.
Every gap order maps each gap to a pair that it compares lexicographically,
and each column's rank is picked by ``core.select`` on the order keys of
the pairs' first components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    Domain, as_extents, as_integer, as_pair, as_rational, first_outside, less, order_key, select, shown
)
from .errors import (
    DomainMismatch,
    InconsistentLabels,
    MalformedGaps,
    ShapeMismatch,
    VocaggError,
)
from .rules import PositionVector, as_positions

GAP_ORDERS: dict[str, Callable[[tuple[Fraction, Fraction]], tuple]] = {
    "lex": lambda gap: (gap[0], gap[1]),
    "right": lambda gap: (gap[1], gap[0]),
    "midpoint": lambda gap: (gap[0] + gap[1], gap[0]),
}


def _pairs(entries: Sequence, read_second: Callable = as_rational, exact: type = Fraction) -> tuple:
    """Each entry as ``as_pair`` reads it; a tuple of a ``Fraction`` and an ``exact`` value passes as it is."""
    return tuple(
        e if type(e) is tuple and len(e) == 2 and type(e[0]) is Fraction and type(e[1]) is exact
        else as_pair(e, j, read_second)
        for j, e in enumerate(entries)
    )


@dataclass(frozen=True)
class LabeledExemplars:
    """One agent's word labels on strictly increasing interior observations.

    ``points`` holds (value, word-index) pairs with 0-based word indices.
    Labels must be nondecreasing along the observations: a larger exemplar
    carrying a smaller word contradicts the left-to-right word order.
    """

    domain: Domain
    points: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        cleaned = _pairs(self.points, as_integer, int)
        object.__setattr__(self, "points", cleaned)
        domain = self.domain
        low, high = domain.keys
        keys = [order_key(e) for e, _ in cleaned]
        for (e, w), key in zip(cleaned, keys):
            if not (less(domain.lower, e, low, key) and less(e, domain.upper, key, high)):
                raise VocaggError(f"exemplar {shown(e)} outside the open domain")
            if w < 0:
                raise VocaggError(f"negative word index {shown(w)}")
        for (e1, w1), (e2, w2), k1, k2 in zip(cleaned, cleaned[1:], keys, keys[1:]):
            if not less(e1, e2, k1, k2):
                raise VocaggError(f"exemplars not strictly increasing: {shown(e1)}, {shown(e2)}")
            if w1 > w2:
                raise InconsistentLabels(
                    f"exemplar {shown(e2)} labeled word {shown(w2)}"
                    f" after {shown(e1)} labeled word {shown(w1)}"
                )

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self.points)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.points)

    def extended_by(
        self, new_points: Sequence[tuple[Fraction, int]]
    ) -> "LabeledExemplars":
        merged = tuple(sorted(self.points + _pairs(new_points, as_integer, int)))
        return LabeledExemplars(self.domain, merged)


@dataclass(frozen=True)
class InducedVocabulary:
    """Closed known extents per word; ``None`` where nothing was observed.

    Known extents are hulls [lo, hi] (singletons allowed) and must appear
    in word order without overlapping.  Unlike a complete vocabulary they
    need not tile the domain: the gaps between them are simply unknown.
    """

    domain: Domain
    extents: tuple[Optional[tuple[Fraction, Fraction]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", as_extents(self.extents))
        domain = self.domain
        hulls = [e for e in self.extents if e is not None]
        keys = [(order_key(lo), order_key(hi)) for lo, hi in hulls]
        for (lo, hi), (lo_key, hi_key) in zip(hulls, keys):
            if less(hi, lo, hi_key, lo_key):
                raise VocaggError(f"hull with {shown(lo)} > {shown(hi)}")
            if first_outside(domain, (lo, hi), (lo_key, hi_key)) is not None:
                raise VocaggError(f"hull [{shown(lo)}, {shown(hi)}] outside the closed domain")
        if not self.extents:
            raise ShapeMismatch("a vocabulary needs at least one word")
        for (_, previous), (start, _), (_, previous_key), (start_key, _) in zip(
            hulls, hulls[1:], keys, keys[1:]
        ):
            if less(start, previous, start_key, previous_key):
                raise VocaggError(
                    f"known extents out of order: {shown(previous)} > {shown(start)}"
                )

    @classmethod
    def _from_valid(
        cls, domain: Domain, extents: tuple[Optional[tuple[Fraction, Fraction]], ...]
    ) -> "InducedVocabulary":
        """``InducedVocabulary(domain, extents)`` built without validating it
        again: the caller guarantees that ``extents`` is a nonempty tuple of
        ``None``s and ``(lo, hi)`` tuples of ``Fraction``s with lo <= hi in
        the closure of ``domain``, each hull starting at or after the end of
        the one before."""
        born = object.__new__(cls)
        object.__setattr__(born, "domain", domain)
        object.__setattr__(born, "extents", extents)
        return born

    @property
    def word_count(self) -> int:
        return len(self.extents)

    @property
    def m(self) -> int:
        return len(self.extents) - 1

    def known_words(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.extents) if e is not None)


@dataclass(frozen=True)
class GapSequence:
    """The m undetermined stretches of an incomplete vocabulary.

    Gap k (1-based) is the open interval between what is known of words
    0..k-1 and of words k..m.  Both the left and the right ends must be
    nondecreasing in k; consecutive gaps may coincide when the words
    between them were never observed.
    """

    domain: Domain
    gaps: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = _pairs(self.gaps)
        object.__setattr__(self, "gaps", cleaned)
        keys = [(order_key(left), order_key(right)) for left, right in cleaned]
        for (left, right), (left_key, right_key) in zip(cleaned, keys):
            if first_outside(self.domain, (left, right), (left_key, right_key)) is not None:
                raise MalformedGaps(
                    f"gap ({shown(left)}, {shown(right)}) outside the closed domain"
                )
            if less(right, left, right_key, left_key):
                raise MalformedGaps(f"gap with {shown(left)} > {shown(right)}")
        for (l1, r1), (l2, r2), (kl1, kr1), (kl2, kr2) in zip(cleaned, cleaned[1:], keys, keys[1:]):
            if less(l2, l1, kl2, kl1) or less(r2, r1, kr2, kr1):
                raise MalformedGaps(
                    f"gap ends decrease: ({shown(l1)}, {shown(r1)})"
                    f" before ({shown(l2)}, {shown(r2)})"
                )

    @classmethod
    def _from_valid(cls, domain: Domain, gaps: tuple[tuple[Fraction, Fraction], ...]) -> "GapSequence":
        """``GapSequence(domain, gaps)`` built without validating it again: the
        caller guarantees that ``gaps`` is a tuple of ``(left, right)`` tuples
        of ``Fraction``s with left <= right in the closure of ``domain``,
        both ends nondecreasing along the tuple."""
        born = object.__new__(cls)
        object.__setattr__(born, "domain", domain)
        object.__setattr__(born, "gaps", gaps)
        return born

    @property
    def m(self) -> int:
        return len(self.gaps)


def induce(exemplars: LabeledExemplars, m: int) -> InducedVocabulary:
    """Hulls of the labeled observations over m+1 words.

    Each observed word gets the closed hull of its exemplars.  The first
    and last word reach to the respective domain corner as soon as they are
    observed at all: nothing can sit before word 0 or after word m.  The
    exemplars are validated, so the hulls are born valid: each lies in the
    closed domain, and they follow the strictly increasing exemplars in
    word order.
    """
    m = as_integer(m)
    if m < 1:
        raise ShapeMismatch(f"need at least two words, got m={m}")
    extents: list[Optional[tuple[Fraction, Fraction]]] = [None] * (m + 1)
    for e, w in exemplars.points:
        if w > m:
            raise ShapeMismatch(f"label {w} outside 0..{m}")
        current = extents[w]
        extents[w] = (e, e) if current is None else (current[0], e)
    if extents[0] is not None:
        extents[0] = (exemplars.domain.lower, extents[0][1])
    if extents[m] is not None:
        extents[m] = (extents[m][0], exemplars.domain.upper)
    return InducedVocabulary._from_valid(exemplars.domain, tuple(extents))


def gaps_of(vocabulary: InducedVocabulary) -> GapSequence:
    """The m gaps of an induced vocabulary, one per word boundary.

    Gap k runs from the top of the last observation among words 0..k-1
    (the lower corner if there is none) to the bottom of the first
    observation among words k..m (the upper corner if there is none).
    The known extents are validated and in word order, so both ends
    nondecrease in k, each gap's left end is at most its right end, and the
    gaps are born valid.
    """
    domain = vocabulary.domain
    extents = vocabulary.extents
    lefts, top = [], domain.lower
    for extent in extents[:-1]:
        if extent is not None:
            top = extent[1]
        lefts.append(top)
    rights, bottom = [], domain.upper
    for extent in reversed(extents[1:]):
        if extent is not None:
            bottom = extent[0]
        rights.append(bottom)
    return GapSequence._from_valid(domain, tuple(zip(lefts, reversed(rights))))


def aggregate_gaps(
    rows: Sequence[GapSequence],
    positions: PositionVector | Sequence[int],
    order: str = "lex",
) -> GapSequence:
    """Columnwise positional selection of gaps under a total order.

    Within one agent, gaps are naturally ordered; across agents they may
    overlap, so a total order must be chosen.  The default compares
    (left, right) lexicographically, which reproduces the intermediate-gap
    reading of the worked examples; ``right`` and ``midpoint`` orders are
    available as alternatives.  If the columnwise selections fail to be
    nondecreasing, ``MalformedGaps`` surfaces with the offending pair.
    """
    positions = as_positions(positions)
    if not rows:
        raise ShapeMismatch("no gap rows to aggregate")
    if not (isinstance(order, str) and order in GAP_ORDERS):
        raise ShapeMismatch(
            f"unknown gap order {shown(order)}; choose from {sorted(GAP_ORDERS)}"
        )
    key = GAP_ORDERS[order]
    domain = rows[0].domain
    m = rows[0].m
    for row in rows[1:]:
        if row.domain != domain:
            raise DomainMismatch("gap rows over different domains")
        if row.m != m:
            raise ShapeMismatch(f"gap rows of mixed length: {row.m} != {m}")
    if positions.m != m:
        raise ShapeMismatch(f"{positions.m} positions for {m} gap columns")
    positions.validate_for(len(rows))
    selected = []
    for column, p in zip(zip(*(row.gaps for row in rows)), positions.positions):
        # each order's pair determines its gap, so ranking (pair, gap) ranks the pairs
        ranked = [(key(gap), gap) for gap in column]
        keys = [order_key(pair[0]) for pair, _ in ranked]
        (_, gap), _ = select(ranked, keys, (p,))[0]
        selected.append(gap)
    return GapSequence(domain, tuple(selected))


def collective_incomplete(gaps: GapSequence) -> InducedVocabulary:
    """Attribute to words the segments a gap sequence leaves determined.

    With the corner gaps (lower, lower) and (upper, upper) as gaps 0 and
    m+1, word j lies between gaps j and j+1.  It is inactive when those two
    gaps are equal, when the left one's right end lies past the right one's
    left end, or when the two ends meet outside the open domain; otherwise
    it gets the closed segment between those ends.  Without gaps, the one
    word gets the whole domain.  The gaps are validated, so the segments
    are born valid: word j ends at the left end of gap j+1, and a later
    word starts at a right end of a later gap, which is no smaller.
    """
    domain = gaps.domain
    bounding = ((domain.lower, domain.lower), *gaps.gaps, (domain.upper, domain.upper))
    extents: list[Optional[tuple[Fraction, Fraction]]] = []
    for left_gap, right_gap in zip(bounding, bounding[1:]):
        lo, hi = left_gap[1], right_gap[0]
        if left_gap == right_gap or lo > hi or (lo == hi and not domain.contains(lo)):
            extents.append(None)
        else:
            extents.append((lo, hi))
    return InducedVocabulary._from_valid(domain, tuple(extents))


@dataclass(frozen=True)
class IncrementalReport:
    """Outcome of one before/after monotonicity check of the gap pipeline."""

    holds: bool
    before_gaps: GapSequence
    after_gaps: GapSequence
    before_vocabulary: InducedVocabulary
    after_vocabulary: InducedVocabulary
    failures: tuple[str, ...]


def _shown_interval(interval: Optional[tuple[Fraction, Fraction]]) -> str:
    """A gap or an extent as a failure message prints it; ``None`` is an inactive word."""
    return "inactive" if interval is None else f"({shown(interval[0])}, {shown(interval[1])})"


def check_incremental_consistency(
    before: Sequence[LabeledExemplars],
    after: Sequence[LabeledExemplars],
    positions: PositionVector | Sequence[int],
    order: str = "lex",
) -> IncrementalReport:
    """New consistent observations may only contract gaps and extend words.

    Precondition: ``after`` extends ``before`` agent by agent, keeping every
    old observation with its old label; anything else (dropped points,
    relabelings) raises ``InconsistentLabels`` rather than producing a
    verdict.  The check then runs the whole pipeline on both stages and
    compares: each collective gap must be contained in its predecessor and
    each attributed extent must contain its predecessor.
    """
    positions = as_positions(positions)
    if len(before) != len(after):
        raise ShapeMismatch(
            f"{len(before)} agents before, {len(after)} after"
        )
    if not before:
        raise ShapeMismatch("no agents")
    for i, (old, new) in enumerate(zip(before, after), start=1):
        if old.domain != new.domain:
            raise DomainMismatch(f"agent {i} changed domain")
        if not set(old.points) <= set(new.points):
            raise InconsistentLabels(
                f"agent {i} dropped or relabeled an old exemplar"
            )
    before_gaps, after_gaps = (
        aggregate_gaps([gaps_of(induce(ex, positions.m)) for ex in stage], positions, order)
        for stage in (before, after)
    )
    before_vocabulary = collective_incomplete(before_gaps)
    after_vocabulary = collective_incomplete(after_gaps)
    failures = []
    for k, (old_gap, new_gap) in enumerate(zip(before_gaps.gaps, after_gaps.gaps), start=1):
        if not (old_gap[0] <= new_gap[0] and new_gap[1] <= old_gap[1]):
            failures.append(f"gap {k} grew: {_shown_interval(old_gap)} to {_shown_interval(new_gap)}")
    words = zip(before_vocabulary.extents, after_vocabulary.extents)
    for j, (old_extent, new_extent) in enumerate(words):
        if old_extent is None:
            continue
        if new_extent is None or not (
            new_extent[0] <= old_extent[0] and old_extent[1] <= new_extent[1]
        ):
            failures.append(
                f"word {j} shrank: {_shown_interval(old_extent)} to {_shown_interval(new_extent)}"
            )
    return IncrementalReport(
        holds=not failures,
        before_gaps=before_gaps,
        after_gaps=after_gaps,
        before_vocabulary=before_vocabulary,
        after_vocabulary=after_vocabulary,
        failures=tuple(failures),
    )
