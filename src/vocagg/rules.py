"""Aggregation rules mapping endpoint profiles to collective endpoints.

Every rule here works columnwise on exact rationals.  The workhorse family
selects a fixed order statistic per column (``PRule``); the extended-median
family pads each column with n-1 fixed phantom values before taking the
median and strictly generalizes it.  The mean, the one-agent dictatorship,
and the pooled-multiset rule are kept as contrasts: each fails at least one
of the properties the order-statistic families satisfy.  The four benchmark
fixtures (``fixture_rule``) live here too, each breaking exactly one of the
core axioms that ``axioms.run_axiom_battery`` checks.

Each rule is a frozen dataclass (see ``Rule``): calling it on a profile
evaluates it, ``describe`` gives its JSON descriptor, and ``default_shape``
gives the shape the randomized checkers sample it on.

Every selection is made in ``core``, which orders exactly as it
describes: ``PRule`` and ``ExtendedMedianRule`` pass their columns to
``core.select_columns``, one rank per column in one pass, and
``MultisetRule`` passes its pooled reports to ``core.select`` with one rank
per boundary.  The extended median pools each column with its phantoms
before the call.  The rules pass the keys that each ``EndpointMultiset``
and ``PhantomMatrix`` kept from validation, so no key is computed twice.
The results are exactly those of sorting the fractions.

``PRule``, ``ExtendedMedianRule``, ``MultisetRule`` and ``MeanRule`` build
their outputs born valid, through ``EndpointMultiset._from_valid``, the
unchecked builder, which takes every stored field and checks nothing: the
values and keys that ``select_columns`` builds the report from, or that
``select`` hands back (the mean keys its own values).  Nothing can fail
there: rows and phantom columns are nondecreasing, so a rank that never
falls with k, or a column mean, never decreases, and every output is a
report, a phantom or a mean of reports.  The fixtures, and rules written
outside this module, use the validating constructor, which coerces and keys
the values and checks them by ``_check()``.

The mean sums each column as integers: numerators are added per
denominator, the groups are added pairwise in a product tree without any
gcd, and the total is reduced once (Bernstein, "Fast multiplication and its
applications", 2008).  The result is exactly ``sum(column, Fraction(0)) / n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import ClassVar, Sequence

from .core import (
    Domain,
    EndpointMultiset,
    Profile,
    as_integer,
    as_rationals,
    first_descent,
    first_outside,
    order_key,
    rational_str,
    select,
    select_columns,
    shown,
)
from .errors import (
    DomainMismatch,
    EvenAgentCount,
    IndexOutOfRange,
    ParityViolation,
    ShapeMismatch,
    UnknownFixture,
    VocaggError,
)


def _columns(profile: Profile) -> tuple[zip, zip]:
    """The profile's columns and their kept order keys, as two tuple iterators."""
    rows = profile.rows
    return zip(*[row.values for row in rows]), zip(*[row.keys for row in rows])


@dataclass(frozen=True)
class PositionVector:
    """Nondecreasing 1-based ranks, one per word boundary.

    A vector p with 1 <= p_1 <= ... <= p_m picks the p_k-th smallest report
    in column k.  The upper bound p_m <= n depends on the profile and is
    checked by ``validate_for``.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            ranks = tuple(map(as_integer, self.positions))
        except TypeError:
            raise VocaggError(f"not a sequence of ranks: {shown(self.positions)}") from None
        object.__setattr__(self, "positions", ranks)
        if not self.positions:
            raise ShapeMismatch("a position vector needs at least one entry")
        if self.positions[0] < 1:
            raise VocaggError(f"positions are 1-based, got {shown(self.positions[0])}")
        for a, b in zip(self.positions, self.positions[1:]):
            if a > b:
                raise VocaggError(f"positions not nondecreasing: {shown(a)} > {shown(b)}")

    @property
    def m(self) -> int:
        return len(self.positions)

    def validate_for(self, n: int) -> None:
        if self.positions[-1] > n:
            raise IndexOutOfRange(
                f"position {shown(self.positions[-1])} exceeds agent count {n}"
            )

    def check_profile(self, profile: Profile) -> None:
        """One rank per boundary of ``profile``, none above its agent count."""
        if self.m != profile.m:
            raise ShapeMismatch(f"{self.m} positions for {profile.m} word boundaries")
        self.validate_for(profile.n)


def as_positions(positions: PositionVector | Sequence[int]) -> PositionVector:
    """``positions`` as a ``PositionVector``: one is returned as it is, and a
    plain sequence of ranks is read as one."""
    return positions if isinstance(positions, PositionVector) else PositionVector(positions)


@dataclass(frozen=True)
class PhantomMatrix:
    """n-1 fixed phantom values per column, nondecreasing in both directions.

    Column k is merged with the n agent reports for boundary k before taking
    the median of the 2n-1 values.  Within a column the phantoms are sorted;
    across columns they must not decrease, which keeps the collective output
    weakly consistent.  Phantoms may sit exactly on the domain corners.
    """

    domain: Domain
    columns: tuple[tuple[Fraction, ...], ...]
    # each column's order keys, kept from validation for the kernel
    keys: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coerced = tuple(as_rationals(column) for column in self.columns)
        object.__setattr__(self, "columns", coerced)
        if not coerced:
            raise ShapeMismatch("a phantom matrix needs at least one column")
        size = len(coerced[0])
        keys = []
        for column in coerced:
            if len(column) != size:
                raise ShapeMismatch("ragged phantom columns")
            column_keys = tuple(map(order_key, column))
            outside = first_outside(self.domain, column, column_keys)
            if outside is not None:
                raise VocaggError(f"phantom {shown(outside)} outside the closed domain")
            descent = first_descent(column, column[1:], column_keys, column_keys[1:])
            if descent is not None:
                raise VocaggError(
                    f"phantom column not sorted: {shown(descent[0])} > {shown(descent[1])}"
                )
            keys.append(column_keys)
        object.__setattr__(self, "keys", tuple(keys))
        for left, right, left_keys, right_keys in zip(coerced, coerced[1:], keys, keys[1:]):
            descent = first_descent(left, right, left_keys, right_keys)
            if descent is not None:
                raise VocaggError(
                    f"phantoms decrease across columns: {shown(descent[0])} > {shown(descent[1])}"
                )

    @property
    def m(self) -> int:
        return len(self.columns)

    @property
    def n(self) -> int:
        return len(self.columns[0]) + 1


def median_positions(n: int, m: int) -> PositionVector:
    """The self-dual position vector built from the two middle ranks.

    The first half of the boundaries takes the lower median rank
    floor((n+1)/2) and the second half the upper median rank ceil((n+1)/2).
    With an odd number of boundaries the middle one would need both, so
    that case is only defined when the two ranks coincide, i.e. for an odd
    number of agents; otherwise ``ParityViolation`` is raised.
    """
    n, m = as_integer(n), as_integer(m)
    if n < 1 or m < 1:
        raise ShapeMismatch(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if m % 2 == 1 and n % 2 == 0:
        raise ParityViolation(
            f"no median position vector for m={m} boundaries with n={n} agents"
        )
    low, high = (n + 1) // 2, n // 2 + 1
    return PositionVector(
        tuple(low if k <= (m + 1) // 2 else high for k in range(1, m + 1))
    )


def is_symmetric(positions: PositionVector | Sequence[int], n: int) -> bool:
    """True iff p_k + p_(m-k+1) = n + 1 for every k.

    Symmetric vectors treat the two reading directions of the line evenly;
    they are exactly the ones whose rule commutes with order reversal.
    """
    n, positions = as_integer(n), as_positions(positions)
    positions.validate_for(n)
    p = positions.positions
    return all(p[k] + p[len(p) - 1 - k] == n + 1 for k in range(len(p)))


def apply_p_rule_reversed(
    profile: Profile, positions: PositionVector | Sequence[int]
) -> tuple[Fraction, ...]:
    """Evaluate a position rule reading the line from above.

    Under the reversed order the k-th boundary is the old (m-k+1)-th one and
    "p_k-th smallest" means p_k-th largest.  The result is returned as the
    nonincreasing tuple seen from the reversed viewpoint.  For a symmetric
    vector, reading it back left-to-right recovers the ordinary evaluation.
    """
    positions = as_positions(positions)
    positions.check_profile(profile)
    mirrored = PositionVector(tuple(profile.n + 1 - p for p in reversed(positions.positions)))
    return PRule(mirrored)(profile).values[::-1]


def boundary_phantoms(
    positions: PositionVector | Sequence[int], n: int, domain: Domain
) -> PhantomMatrix:
    """The phantom matrix that replays a position rule.

    Column k holds n - p_k copies of the lower corner followed by p_k - 1
    copies of the upper corner, which forces the pooled median onto the
    p_k-th smallest report.
    """
    n, positions = as_integer(n), as_positions(positions)
    positions.validate_for(n)
    columns = tuple(
        (domain.lower,) * (n - p) + (domain.upper,) * (p - 1)
        for p in positions.positions
    )
    return PhantomMatrix(domain, columns)


class Rule:
    """An aggregation rule: a frozen description that evaluates itself.

    Every rule is a frozen dataclass.  Calling it on a profile checks the
    shapes and returns the collective endpoints; ``describe`` gives the JSON
    descriptor that ``io.rule_from_descriptor`` rebuilds it from;
    ``default_shape`` is the (n, m, domain) the randomized checkers sample
    when the caller fixes none; and ``phantom_columns`` gives the fixed
    values the rule pools with the reports, which the checkers probe.
    """

    def __call__(self, profile: Profile) -> EndpointMultiset:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def default_shape(self) -> tuple[int, int, Domain]:
        return 3, 2, Domain.unit()

    def phantom_columns(self, n: int, m: int, domain: Domain) -> tuple[tuple[Fraction, ...], ...]:
        """The phantoms pooled with each of the m columns of an n-agent profile
        over ``domain``, none by default.  A shape the rule refuses raises what
        calling it on such a profile raises."""
        return ()


@dataclass(frozen=True)
class PRule(Rule):
    """Select the p_k-th smallest report in column k."""

    positions: PositionVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", as_positions(self.positions))

    def __call__(self, profile: Profile) -> EndpointMultiset:
        self.positions.check_profile(profile)
        return select_columns(profile.domain, *_columns(profile), self.positions.positions)

    def describe(self) -> dict:
        return {"kind": "p-rule", "positions": list(self.positions.positions)}

    def default_shape(self) -> tuple[int, int, Domain]:
        positions = self.positions.positions
        return max(3, positions[-1]), len(positions), Domain.unit()


@dataclass(frozen=True)
class ExtendedMedianRule(Rule):
    """Columnwise median of the reports pooled with fixed phantoms."""

    phantoms: PhantomMatrix

    def __call__(self, profile: Profile) -> EndpointMultiset:
        phantoms = self.phantom_columns(profile.n, profile.m, profile.domain)
        columns, keys = _columns(profile)
        return select_columns(
            profile.domain,
            map(tuple.__add__, columns, phantoms),
            map(tuple.__add__, keys, self.phantoms.keys),
            repeat(profile.n),
        )

    def describe(self) -> dict:
        return {
            "kind": "extended-median",
            "columns": [
                [rational_str(q) for q in column] for column in self.phantoms.columns
            ],
        }

    def default_shape(self) -> tuple[int, int, Domain]:
        return self.phantoms.n, self.phantoms.m, self.phantoms.domain

    def phantom_columns(self, n: int, m: int, domain: Domain) -> tuple[tuple[Fraction, ...], ...]:
        phantoms = self.phantoms
        if phantoms.m != m:
            raise ShapeMismatch(f"phantom matrix with {phantoms.m} columns for m={m}")
        if phantoms.n != n:
            raise ShapeMismatch(f"phantom matrix sized for n={phantoms.n}, profile has n={n}")
        if phantoms.domain is not domain and phantoms.domain != domain:
            raise DomainMismatch("phantom matrix over a different domain")
        return phantoms.columns


@dataclass(frozen=True)
class MeanRule(Rule):
    """Columnwise arithmetic mean, kept exact as a rational."""

    def __call__(self, profile: Profile) -> EndpointMultiset:
        n = profile.n
        values = tuple([_mean(column, n) for column in zip(*[row.values for row in profile.rows])])
        return EndpointMultiset._from_valid(profile.domain, values, tuple(map(order_key, values)))

    def describe(self) -> dict:
        return {"kind": "mean"}


def _mean(column: Sequence[Fraction], n: int) -> Fraction:
    """``sum(column, Fraction(0)) / n`` with one gcd in place of one per term.

    Adding the groups pairwise, a level at a time, keeps the large products
    few and balanced.
    """
    groups: dict[int, int] = {}
    for q in column:
        groups[q.denominator] = groups.get(q.denominator, 0) + q.numerator
    terms = list(groups.items())
    while len(terms) > 1:
        paired = [
            (d1 * d2, p1 * d2 + p2 * d1)
            for (d1, p1), (d2, p2) in zip(terms[::2], terms[1::2])
        ]
        terms = paired + terms[len(paired) * 2:]
    denominator, numerator = terms[0]
    return Fraction(numerator, denominator * n)


@dataclass(frozen=True)
class MultisetRule(Rule):
    """Pool all n*m endpoints, split into m runs of n, take each run's median."""

    def __call__(self, profile: Profile) -> EndpointMultiset:
        n = profile.n
        if n % 2 == 0:
            raise EvenAgentCount(f"pooled-multiset rule needs odd n, got {n}")
        pooled = [v for row in profile.rows for v in row.values]
        keys = [key for row in profile.rows for key in row.keys]
        ranks = [(k - 1) * n + (n + 1) // 2 for k in range(1, profile.m + 1)]
        picked = select(pooled, keys, ranks)
        values, keys = zip(*picked) if picked else ((), ())
        return EndpointMultiset._from_valid(profile.domain, values, keys)

    def describe(self) -> dict:
        return {"kind": "multiset"}


@dataclass(frozen=True)
class DictatorRule(Rule):
    """Return agent i's report unchanged, i in 1..n."""

    agent: int

    def __post_init__(self) -> None:
        as_integer(self.agent)

    def __call__(self, profile: Profile) -> EndpointMultiset:
        if not 1 <= self.agent <= profile.n:
            raise IndexOutOfRange(
                f"dictator index {shown(self.agent)} outside 1..{profile.n}"
            )
        return profile.row(self.agent)

    def describe(self) -> dict:
        return {"kind": "dictator", "agent": self.agent}

    def default_shape(self) -> tuple[int, int, Domain]:
        return max(3, self.agent), 2, Domain.unit()


def apply_rule(profile: Profile, rule: Rule) -> EndpointMultiset:
    """Validate shapes, then evaluate ``rule`` on ``profile``."""
    if not isinstance(rule, Rule):
        raise ShapeMismatch(f"not an aggregation rule: {rule!r}")
    return rule(profile)


# ---------------------------------------------------------------------------
# benchmark fixtures: each one breaks exactly one of the four core axioms


class _Fixture(Rule):
    """A benchmark rule, described by its fixture name."""

    name: ClassVar[str]

    def describe(self) -> dict:
        return {"kind": "fixture", "name": self.name}


@dataclass(frozen=True)
class InfRule(_Fixture):
    """First boundary pinned at the lower corner, the rest the minimum report."""

    name: ClassVar[str] = "inf-rule"

    def __call__(self, profile: Profile) -> EndpointMultiset:
        values = (profile.domain.lower,) + tuple(
            min(profile.column(k)) for k in range(2, profile.m + 1)
        )
        return EndpointMultiset(profile.domain, values)


@dataclass(frozen=True)
class DiscontinuousRule(_Fixture):
    """Column 1 takes its minimum while all reports differ, its maximum on ties."""

    name: ClassVar[str] = "discontinuous-rule"

    def __call__(self, profile: Profile) -> EndpointMultiset:
        if profile.n < 3:
            raise ShapeMismatch("the jump fixture needs at least three agents")
        first = profile.column(1)
        head = min(first) if len(set(first)) == len(first) else max(first)
        values = (head,) + tuple(
            max(profile.column(k)) for k in range(2, profile.m + 1)
        )
        return EndpointMultiset(profile.domain, values)


FIXTURE_TARGETS = {
    "inf-rule": "unanimity",
    "dictator": "anonymity",
    "mean": "stability",
    "discontinuous-rule": "continuity",
}


def fixture_rule(name: str) -> Rule:
    """One of the four benchmark rules, each failing exactly one core axiom.

    * ``inf-rule``: first boundary pinned at the lower corner, the rest take
      the minimum report; never unanimous in its first component.
    * ``dictator``: agent 1's report verbatim; not anonymous.
    * ``mean``: columnwise mean; not stable under non-affine relabelings.
    * ``discontinuous-rule``: minimum of column 1 while its reports are all
      distinct, maximum on ties; the switch is a jump.

    Any other name, or one that is not a string, raises ``UnknownFixture``.
    """
    fixtures: dict[str, Rule] = {
        "inf-rule": InfRule(),
        "dictator": DictatorRule(1),
        "mean": MeanRule(),
        "discontinuous-rule": DiscontinuousRule(),
    }
    if isinstance(name, str) and name in fixtures:
        return fixtures[name]
    raise UnknownFixture(f"no fixture {shown(name)}; choose from {sorted(fixtures)}")
