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

Every selection goes through ``order_statistics``, which orders values by
their integer ``core.order_key`` (floor(q * 2**64)) and compares fractions
exactly only inside the run of equal keys that holds a requested rank.
Phantom matrices are validated the same way.  The results are exactly those
of sorting the fractions; no float is involved.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Sequence

from .core import (
    Domain,
    EndpointMultiset,
    Profile,
    as_rationals,
    first_descent,
    first_outside,
    order_key,
    rational_str,
)
from .errors import (
    DomainMismatch,
    EvenAgentCount,
    IndexOutOfRange,
    ParityViolation,
    ShapeMismatch,
    UnknownFixture,
)


def order_statistics(
    values: Sequence[Fraction], ranks: Sequence[int]
) -> list[Fraction]:
    """The k-th smallest element for each k in ``ranks``, each in 1..len.

    Indices are sorted by ``order_key``; for each rank, the run of equal
    keys holding it is cut out by bisection and only that run is sorted
    exactly, so the result equals ``sorted(values)[k - 1]``.
    """
    for k in ranks:
        if not 1 <= k <= len(values):
            raise IndexOutOfRange(f"rank {k} outside 1..{len(values)}")
    return _select(values, list(map(order_key, values)), ranks)


def _select(
    values: Sequence[Fraction], keys: Sequence[int], ranks: Sequence[int]
) -> list[Fraction]:
    """``order_statistics`` for ranks already checked, given the values' keys."""
    order = sorted(range(len(values)), key=keys.__getitem__)
    sorted_keys = [keys[i] for i in order]
    out = []
    for k in ranks:
        key = sorted_keys[k - 1]
        lo = bisect_left(sorted_keys, key, 0, k - 1)
        hi = bisect_right(sorted_keys, key, k)
        if hi - lo == 1:
            out.append(values[order[lo]])
        else:
            out.append(sorted([values[i] for i in order[lo:hi]])[k - 1 - lo])
    return out


def order_statistic(values: Sequence[Fraction], k: int) -> Fraction:
    """The k-th smallest element, counted with multiplicity, k in 1..len."""
    return order_statistics(values, (k,))[0]


@dataclass(frozen=True)
class PositionVector:
    """Nondecreasing 1-based ranks, one per word boundary.

    A vector p with 1 <= p_1 <= ... <= p_m picks the p_k-th smallest report
    in column k.  The upper bound p_m <= n depends on the profile and is
    checked by ``validate_for``.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        if not self.positions:
            raise ShapeMismatch("a position vector needs at least one entry")
        if self.positions[0] < 1:
            raise ValueError(f"positions are 1-based, got {self.positions[0]}")
        for a, b in zip(self.positions, self.positions[1:]):
            if a > b:
                raise ValueError(f"positions not nondecreasing: {a} > {b}")

    @property
    def m(self) -> int:
        return len(self.positions)

    def validate_for(self, n: int) -> None:
        if self.positions[-1] > n:
            raise IndexOutOfRange(
                f"position {self.positions[-1]} exceeds agent count {n}"
            )

    def check_profile(self, profile: Profile) -> None:
        """One rank per boundary of ``profile``, none above its agent count."""
        if self.m != profile.m:
            raise ShapeMismatch(f"{self.m} positions for {profile.m} word boundaries")
        self.validate_for(profile.n)


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
                raise ValueError(f"phantom {outside} outside the closed domain")
            descent = first_descent(column, column[1:], column_keys, column_keys[1:])
            if descent is not None:
                raise ValueError(f"phantom column not sorted: {descent[0]} > {descent[1]}")
            keys.append(column_keys)
        object.__setattr__(self, "keys", tuple(keys))
        for left, right, left_keys, right_keys in zip(coerced, coerced[1:], keys, keys[1:]):
            descent = first_descent(left, right, left_keys, right_keys)
            if descent is not None:
                raise ValueError(
                    f"phantoms decrease across columns: {descent[0]} > {descent[1]}"
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


def is_symmetric(positions: PositionVector, n: int) -> bool:
    """True iff p_k + p_(m-k+1) = n + 1 for every k.

    Symmetric vectors treat the two reading directions of the line evenly;
    they are exactly the ones whose rule commutes with order reversal.
    """
    positions.validate_for(n)
    p = positions.positions
    return all(p[k] + p[len(p) - 1 - k] == n + 1 for k in range(len(p)))


def apply_p_rule_reversed(
    profile: Profile, positions: PositionVector
) -> tuple[Fraction, ...]:
    """Evaluate a position rule reading the line from above.

    Under the reversed order the k-th boundary is the old (m-k+1)-th one and
    "p_k-th smallest" means p_k-th largest.  The result is returned as the
    nonincreasing tuple seen from the reversed viewpoint.  For a symmetric
    vector, reading it back left-to-right recovers the ordinary evaluation.
    """
    positions.check_profile(profile)
    m = profile.m
    out = []
    for k in range(1, m + 1):
        column = profile.column(m - k + 1)
        out.append(order_statistic(column, len(column) + 1 - positions.positions[k - 1]))
    return tuple(out)


def extended_median(
    column: Sequence[Fraction], phantoms: Sequence[Fraction]
) -> Fraction:
    """Median of n reports pooled with n-1 phantoms (always an odd count)."""
    if len(phantoms) != len(column) - 1:
        raise ShapeMismatch(
            f"{len(phantoms)} phantoms for {len(column)} reports; need n-1"
        )
    return order_statistic(list(column) + list(phantoms), len(column))


def boundary_phantoms(
    positions: PositionVector, n: int, domain: Domain
) -> PhantomMatrix:
    """The phantom matrix that replays a position rule.

    Column k holds n - p_k copies of the lower corner followed by p_k - 1
    copies of the upper corner, which forces the pooled median onto the
    p_k-th smallest report.
    """
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
    descriptor that ``io.rule_from_descriptor`` rebuilds it from; and
    ``default_shape`` is the (n, m, domain) the randomized checkers sample
    when the caller fixes none.
    """

    def __call__(self, profile: Profile) -> EndpointMultiset:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def default_shape(self) -> tuple[int, int, Domain]:
        return 3, 2, Domain.unit()


@dataclass(frozen=True)
class PRule(Rule):
    """Select the p_k-th smallest report in column k."""

    positions: PositionVector

    def __post_init__(self) -> None:
        if not isinstance(self.positions, PositionVector):
            object.__setattr__(self, "positions", PositionVector(tuple(self.positions)))

    def __call__(self, profile: Profile) -> EndpointMultiset:
        self.positions.check_profile(profile)
        values = tuple(
            order_statistic(profile.column(k), p)
            for k, p in enumerate(self.positions.positions, start=1)
        )
        return EndpointMultiset(profile.domain, values)

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
        phantoms = self.phantoms
        if phantoms.m != profile.m:
            raise ShapeMismatch(
                f"phantom matrix with {phantoms.m} columns for m={profile.m}"
            )
        if phantoms.n != profile.n:
            raise ShapeMismatch(
                f"phantom matrix sized for n={phantoms.n}, profile has n={profile.n}"
            )
        if phantoms.domain != profile.domain:
            raise DomainMismatch("phantom matrix over a different domain")
        values = []
        for k in range(1, profile.m + 1):
            reports = profile.column(k)
            keys = [*map(order_key, reports), *phantoms.keys[k - 1]]
            pooled = reports + phantoms.columns[k - 1]
            values.append(_select(pooled, keys, (profile.n,))[0])
        return EndpointMultiset(profile.domain, tuple(values))

    def describe(self) -> dict:
        return {
            "kind": "extended-median",
            "columns": [
                [rational_str(q) for q in column] for column in self.phantoms.columns
            ],
        }

    def default_shape(self) -> tuple[int, int, Domain]:
        return self.phantoms.n, self.phantoms.m, self.phantoms.domain


@dataclass(frozen=True)
class MeanRule(Rule):
    """Columnwise arithmetic mean, kept exact as a rational."""

    def __call__(self, profile: Profile) -> EndpointMultiset:
        values = tuple(
            sum(profile.column(k), Fraction(0)) / profile.n
            for k in range(1, profile.m + 1)
        )
        return EndpointMultiset(profile.domain, values)

    def describe(self) -> dict:
        return {"kind": "mean"}


@dataclass(frozen=True)
class MultisetRule(Rule):
    """Pool all n*m endpoints, split into m runs of n, take each run's median."""

    def __call__(self, profile: Profile) -> EndpointMultiset:
        n = profile.n
        if n % 2 == 0:
            raise EvenAgentCount(f"pooled-multiset rule needs odd n, got {n}")
        pooled = [v for row in profile.rows for v in row.values]
        ranks = [(k - 1) * n + (n + 1) // 2 for k in range(1, profile.m + 1)]
        return EndpointMultiset(profile.domain, tuple(order_statistics(pooled, ranks)))

    def describe(self) -> dict:
        return {"kind": "multiset"}


@dataclass(frozen=True)
class DictatorRule(Rule):
    """Return agent i's report unchanged, i in 1..n."""

    agent: int

    def __call__(self, profile: Profile) -> EndpointMultiset:
        if not 1 <= self.agent <= profile.n:
            raise IndexOutOfRange(
                f"dictator index {self.agent} outside 1..{profile.n}"
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
    """
    fixtures: dict[str, Rule] = {
        "inf-rule": InfRule(),
        "dictator": DictatorRule(1),
        "mean": MeanRule(),
        "discontinuous-rule": DiscontinuousRule(),
    }
    try:
        return fixtures[name]
    except KeyError:
        raise UnknownFixture(
            f"no fixture {name!r}; choose from {sorted(fixtures)}"
        ) from None
