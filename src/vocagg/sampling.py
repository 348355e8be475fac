"""Seed-driven samplers and the trial engine shared by the randomized checkers.

Every sampler draws from ``random.Random`` instances created via ``spawn``,
which hashes the seed together with a stream label.  String seeding keeps
the draws independent of ``PYTHONHASHSEED``, so a fixed seed reproduces the
exact same profiles, maps, and deviations on every run.  All sampled values
are rationals on a lattice, never floats.

Every sampled checker runs its trials through ``first_hit``: trial t draws
from ``spawn(seed, stream, t)`` alone, the run stops at the first violation,
and a violated report's ``trials`` is that trial's 1-based index.  Streams:
``unanimity``, ``anonymity``, ``stability-profile``, ``lipschitz``,
``continuity-profile``, ``responsiveness``, ``extents``, ``separability``,
``sp-fuzz``, ``uncompromising``.  A trial counts even when it evaluates no
rule, as when ``sp_fuzz`` draws a misreport equal to the peak.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .core import Domain, Profile
from .errors import ShapeMismatch
from .rules import Rule

_T = TypeVar("_T")


def spawn(seed: int, *stream: object) -> random.Random:
    """A generator that depends deterministically on the seed and stream tags."""
    tag = ":".join(str(part) for part in (seed,) + stream)
    return random.Random(tag)


def require_trials(trials: int) -> None:
    """Refuse a negative trial count, which would pass a check vacuously."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")


def first_hit(
    trials: int, seed: object, stream: str, trial: Callable[[random.Random, int], Optional[_T]]
) -> Optional[tuple[int, _T]]:
    """Run ``trial(spawn(seed, stream, t), t)`` for t < trials; ``(t, finding)`` on the first find."""
    require_trials(trials)
    for t in range(trials):
        found = trial(spawn(seed, stream, t), t)
        if found is not None:
            return t, found
    return None


def sampling_shape(
    rule: Callable,
    n: Optional[int],
    m: Optional[int],
    domain: Optional[Domain],
) -> tuple[int, int, Domain]:
    """The (n, m, domain) to sample: each the caller's, or the rule's default if ``None``.

    A bare callable standing in for a rule gets the default of ``Rule``.
    A count below one is refused: there would be no agent or no boundary to
    sample, and a check over it would hold vacuously or fail inside a sampler.
    """
    own = rule if isinstance(rule, Rule) else Rule()
    default_n, default_m, default_domain = own.default_shape()
    n = default_n if n is None else n
    m = default_m if m is None else m
    if n < 1:
        raise ShapeMismatch(f"a sampled profile needs at least one agent, got n={n}")
    if m < 1:
        raise ShapeMismatch(f"a sampled profile needs at least one boundary, got m={m}")
    return n, m, default_domain if domain is None else domain


def rational_between(
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    denominator: int = 64,
    include_ends: bool = False,
) -> Fraction:
    """A lattice point of [lo, hi], interior unless ``include_ends``."""
    if lo == hi:
        return lo
    if include_ends:
        j = rng.randint(0, denominator)
    else:
        j = rng.randint(1, denominator - 1)
    return lo + (hi - lo) * Fraction(j, denominator)


def sorted_between(
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    count: int,
    denominator: int = 64,
    include_ends: bool = True,
) -> tuple[Fraction, ...]:
    """``count`` nondecreasing lattice points of [lo, hi]."""
    draws = [
        rational_between(rng, lo, hi, denominator, include_ends)
        for _ in range(count)
    ]
    return tuple(sorted(draws))


def strict_row(
    rng: random.Random, domain: Domain, m: int, denominator: int = 64
) -> tuple[Fraction, ...]:
    """m strictly increasing interior lattice points (all words active)."""
    if m > denominator - 1:
        raise ValueError(f"lattice with {denominator - 1} interior points cannot hold {m} distinct values")
    picks = sorted(rng.sample(range(1, denominator), m))
    span = domain.upper - domain.lower
    return tuple(domain.lower + span * Fraction(j, denominator) for j in picks)


def random_profile(
    rng: random.Random,
    domain: Domain,
    n: int,
    m: int,
    *,
    strict: bool = False,
    denominator: int = 64,
    include_ends: bool = False,
) -> Profile:
    """n independent sorted rows of m endpoints each.

    A coarse ``denominator`` makes ties across agents likely, which matters
    for checkers hunting discontinuities at tied columns.
    """
    rows = []
    for _ in range(n):
        if strict:
            rows.append(strict_row(rng, domain, m, denominator))
        else:
            rows.append(
                sorted_between(
                    rng, domain.lower, domain.upper, m, denominator, include_ends
                )
            )
    return Profile.from_rows(domain, rows)


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """A permutation of the 1-based agent indices."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return tuple(order)


def random_weights(
    rng: random.Random, m: int, limit: int = 5
) -> tuple[Fraction, ...]:
    """m strictly positive integer weights for a separable preference."""
    return tuple(Fraction(rng.randint(1, limit)) for _ in range(m))
