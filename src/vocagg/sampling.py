"""Seed-driven samplers, the trial engine and the verdict of every checker.

Every sampler draws from a ``random.Random`` in the state ``spawn`` gives
it, which hashes the seed together with a stream label.  String seeding keeps
the draws independent of ``PYTHONHASHSEED``, so a fixed seed reproduces the
exact same profiles, maps, and deviations on every run.

Indices first, values from ``lattice_rows``.  A sampler draws integer
lattice indices and returns them as sorted lists: ``random_picks`` (rows
over the interior, or with ``ends`` over the closed domain), ``strict_picks``
(distinct interior indices) and ``refine`` (indices between two lattice
points, on a lattice ``steps`` times finer).  ``lattice_rows(domain, N,
picks)`` is the one place an index j becomes a value, the point
lower + (upper - lower) * j / N, exact and never a float.  It reads each
point and its ``order_key`` from one bounded ``lru_cache`` table per
(lower, upper, N), or, for a lattice finer than ``_MAX_TABLED`` = 512
steps, builds only the drawn points, and returns reports born valid through
``EndpointMultiset._from_valid``, the one unchecked builder, given the values
and their keys and checking nothing.  Sorting the indices sorts the values,
so a row holds the values of sorting one ``Fraction`` per draw.

Integer draws go through ``_draws(rng, lo, hi, count)``, which returns
exactly ``[rng.randint(lo, hi) for _ in range(count)]`` and leaves ``rng``
in the same state: it runs ``randint``'s own rejection loop on
``rng.getrandbits(width.bit_length())`` in one frame instead of three calls
per draw.  ``random_picks`` draws all its indices in one call, and
``refine``, ``random_weights`` and ``check_lipschitz``'s offsets draw
through it too; a single draw in a trial goes through its one-value form
``_draw(rng, lo, hi)``, which is ``rng.randint(lo, hi)`` the same way.
``strict_picks`` runs ``sample``'s set branch on ``getrandbits`` itself the
same way, and leaves its pool branch to ``sample``.  The profiles
``random_profile`` builds are born valid (``Profile._from_valid``), and so
are the profiles the checkers assemble from ``lattice_rows``.

``sampling_shape`` is the one shape policy: a sampled checker's ``n``, ``m``
or ``domain`` left ``None`` comes from ``rule.default_shape()``.  Trial
counts, ``n`` and ``m`` are read through ``core.as_integer``.

Every sampled checker runs its trials through ``first_hit``: trial t draws
from one generator per run, reseeded to the state ``spawn(seed, stream, t)``
gives, which a trial must not keep past its call; the run stops at the
first violation, and a violated report's ``trials`` is that trial's 1-based
index.  In two checkers the trial also draws from a generator seeded
``f"{seed}:{t}"``: sampled stability's map comes from
``spawn(f"{seed}:{t}", "monotone-map", direction)``, and the battery's
continuity perturbation from ``spawn(f"{seed}:{t}", "lipschitz", 0)``.
Streams: ``unanimity``, ``anonymity``, ``stability-profile``, ``lipschitz``,
``continuity-profile``, ``responsiveness``, ``extents``, ``separability``,
``sp-fuzz``, ``uncompromising``.  A trial counts even when it evaluates no
rule, as when ``sp_fuzz`` draws a misreport equal to the peak.

Every ``AxiomReport`` is built here, by ``axiom_report``: ``HOLDS``
without a witness, ``VIOLATED`` with one.  ``sampled_report`` turns a
``first_hit`` run into one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log
from typing import Callable, Iterable, Optional, TypeVar

from .core import Domain, EndpointMultiset, Profile, as_integer, order_key
from .errors import ShapeMismatch, VocaggError
from .rules import Rule

_T = TypeVar("_T")

HOLDS = "holds-on-sample"
VIOLATED = "violated"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one checker run, with a replayable witness when violated."""

    axiom: str
    verdict: str
    seed: Optional[int] = None
    trials: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.verdict != VIOLATED

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, VIOLATED):
            raise VocaggError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VIOLATED and self.witness is None:
            raise VocaggError("a violation report needs a witness")


def axiom_report(axiom: str, witness: Optional[dict], **run) -> AxiomReport:
    """The one report builder: ``HOLDS`` if ``witness`` is ``None``, else ``VIOLATED``."""
    return AxiomReport(axiom, HOLDS if witness is None else VIOLATED, witness=witness, **run)


def spawn(seed: int, *stream: object) -> random.Random:
    """A generator that depends deterministically on the seed and stream tags."""
    tag = ":".join(str(part) for part in (seed,) + stream)
    return random.Random(tag)


def require_trials(trials: int) -> None:
    """Refuse a trial count that is not an integer (``core.as_integer``), or a
    negative one, which would pass a check vacuously."""
    if as_integer(trials) < 0:
        raise VocaggError(f"trials must be nonnegative, got {trials}")


def first_hit(
    trials: int, seed: object, stream: str, trial: Callable[[random.Random, int], Optional[_T]]
) -> Optional[tuple[int, _T]]:
    """Run ``trial(rng, t)`` for t < trials; ``(t, finding)`` on the first find.

    One generator serves the whole run: trial 0 gets it as ``spawn(seed,
    stream, 0)`` builds it, and each later trial t gets it reseeded by
    ``rng.seed`` with the tag ``spawn(seed, stream, t)`` hashes, which gives
    exactly the state, ``gauss_next`` included, of that new generator.  A
    trial must not keep ``rng`` past its call.  The generator is built with
    trial 0's tag because a bare ``random.Random()`` seeds itself from
    ``os.urandom`` first.
    """
    require_trials(trials)
    head = f"{seed!s}:{stream!s}:"
    rng = random.Random(head + "0")
    for t in range(trials):
        if t:
            rng.seed(head + str(t))
        found = trial(rng, t)
        if found is not None:
            return t, found
    return None


def sampled_report(
    axiom: str, trials: int, seed: int, stream: str, trial: Callable[..., Optional[dict]]
) -> AxiomReport:
    """Run ``trial`` through ``first_hit``; the first witness it returns refutes ``axiom``."""
    hit = first_hit(trials, seed, stream, trial)
    if hit is None:
        return axiom_report(axiom, None, seed=seed, trials=trials)
    t, witness = hit
    return axiom_report(axiom, witness, seed=seed, trials=t + 1)


def rule_hooks(rule: Callable) -> Rule:
    """The object whose hooks describe ``rule``: the rule itself, or a plain
    ``Rule()`` standing in for a bare callable, which gets every default."""
    return rule if isinstance(rule, Rule) else Rule()


def sampling_shape(
    rule: Callable,
    n: Optional[int],
    m: Optional[int],
    domain: Optional[Domain],
) -> tuple[int, int, Domain]:
    """The (n, m, domain) to sample: each the caller's, or the rule's default if ``None``.

    A bare callable gets the default of ``Rule`` (see ``rule_hooks``).
    A count that is not an integer (``core.as_integer``) or is below one is
    refused: there would be no agent or no boundary to sample, and a check
    over it would hold vacuously or fail inside a sampler.
    """
    default_n, default_m, default_domain = rule_hooks(rule).default_shape()
    n = default_n if n is None else as_integer(n)
    m = default_m if m is None else as_integer(m)
    if n < 1:
        raise ShapeMismatch(f"a sampled profile needs at least one agent, got n={n}")
    if m < 1:
        raise ShapeMismatch(f"a sampled profile needs at least one boundary, got m={m}")
    return n, m, default_domain if domain is None else domain


def random_picks(
    rng: random.Random, n: int, m: int, denominator: int, ends: bool = False
) -> list[list[int]]:
    """n sorted lists of m lattice indices each, drawn in 1..denominator - 1,
    or in 0..denominator with ``ends``: all n * m in one ``_draws`` call."""
    first, last = (0, denominator) if ends else (1, denominator - 1)
    draws = _draws(rng, first, last, n * m)
    return [sorted(draws[i * m : i * m + m]) for i in range(n)]


def strict_picks(rng: random.Random, m: int, denominator: int) -> list[int]:
    """m distinct interior lattice indices, increasing (all words active):
    ``sorted(rng.sample(range(1, denominator), m))``, leaving ``rng`` in the
    same state.

    ``sample`` draws from a set, not a pool, when the population n =
    denominator - 1 exceeds ``setsize``: 21, plus 4 ** ceil(log(3m, 4)) when
    m > 5 (the same on CPython 3.10-3.13).  There it draws
    ``getrandbits(n.bit_length())`` until the result is below n and not yet
    picked, m times; this runs that loop on ``getrandbits`` in one frame.
    The pool branch and a negative m go to ``sample`` itself.
    """
    n = denominator - 1
    if m > n:
        raise VocaggError(f"lattice with {n} interior points cannot hold {m} distinct values")
    setsize = 21 if m <= 5 else 21 + 4 ** ceil(log(m * 3, 4))
    if m < 0 or n <= setsize:
        return sorted(rng.sample(range(1, denominator), m))
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    picked = set()
    for _ in range(m):
        j = getrandbits(bits)
        while j >= n or j in picked:
            j = getrandbits(bits)
        picked.add(j)
    return sorted([j + 1 for j in picked])


def refine(rng: random.Random, i: int, k: int, count: int, steps: int) -> list[int]:
    """``count`` sorted indices from lattice index i to k >= i, on the lattice
    ``steps`` times finer: steps*i + (k - i)*j for each j drawn in 0..steps.
    ``i == k`` draws nothing."""
    if i == k:
        return [steps * i] * count
    return [steps * i + (k - i) * j for j in sorted(_draws(rng, 0, steps, count))]


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, leaving ``rng`` in the same state: one draw of
    ``_draws``'s loop."""
    width = hi - lo + 1
    if width < 1:
        return rng.randint(lo, hi)
    bits = width.bit_length()
    r = rng.getrandbits(bits)
    while r >= width:
        r = rng.getrandbits(bits)
    return lo + r


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, leaving ``rng`` in the same state.

    ``randint`` draws ``getrandbits(width.bit_length())`` for the width
    hi - lo + 1 and draws again while the result is at least the width
    (``Random._randbelow_with_getrandbits``, the same on CPython 3.10-3.13);
    this runs that loop in one frame instead of three calls per draw.  An
    empty range goes to ``randint`` itself, which refuses it.
    """
    width = hi - lo + 1
    if width < 1:
        return [rng.randint(lo, hi) for _ in range(count)]
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(lo + r)
    return out


def _lattice_points(
    lo: Fraction, hi: Fraction, denominator: int, picks: Iterable[int]
) -> tuple[Fraction, ...]:
    """lo + (hi - lo) * j / denominator for each j in ``picks``, one ``Fraction`` each.

    With lo = a/b, hi = c/d and N = ``denominator``, the value is
    (a*d*N + (c*b - a*d)*j) / (b*d*N), reduced once by ``Fraction``.
    """
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    base, step, common = a * d * denominator, c * b - a * d, b * d * denominator
    return tuple(Fraction(base + step * j, common) for j in picks)


# the finest lattice that gets a table; a table holds denominator + 1 points
_MAX_TABLED = 512


@lru_cache(maxsize=32)
def _lattice_table(
    a: int, b: int, c: int, d: int, denominator: int
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Every lattice point j = 0..denominator of [a/b, c/d], and their order keys.

    The cache is keyed on the corners' integers: hashing them is cheaper
    than hashing two ``Fraction``s.
    """
    points = _lattice_points(Fraction(a, b), Fraction(c, d), denominator, range(denominator + 1))
    return points, tuple(map(order_key, points))


def lattice_rows(
    domain: Domain, denominator: int, picks: list[list[int]]
) -> tuple[EndpointMultiset, ...]:
    """One report per sorted index list in ``picks``: lattice point j of the
    closed domain for each index j, born valid with the table's keys."""
    lower, upper = domain.lower, domain.upper
    if denominator <= _MAX_TABLED:
        points, keys = _lattice_table(
            lower.numerator, lower.denominator, upper.numerator, upper.denominator, denominator
        )
    else:  # too fine to table (``sp-check --grid`` takes any size): build the drawn points only
        drawn = list({j for row in picks for j in row})
        points = dict(zip(drawn, _lattice_points(lower, upper, denominator, drawn)))
        keys = {j: order_key(q) for j, q in points.items()}
    return tuple(
        EndpointMultiset._from_valid(
            domain, tuple([points[j] for j in row]), tuple([keys[j] for j in row])
        )
        for row in picks
    )


def random_profile(
    rng: random.Random, domain: Domain, n: int, m: int, *, denominator: int = 64
) -> Profile:
    """n >= 1 independent sorted rows of m interior lattice points each, born
    valid.  A coarse ``denominator`` makes ties across agents likely, which
    matters for checkers hunting discontinuities at tied columns."""
    return Profile._from_valid(lattice_rows(domain, denominator, random_picks(rng, n, m, denominator)))


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """A permutation of the 1-based agent indices."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return tuple(order)


# weight j is _WEIGHTS[j]: the preferences share five Fractions instead of building one per draw
_WEIGHTS = tuple(map(Fraction, range(6)))


def random_weights(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    """m integer weights in 1..5 for a separable preference."""
    return tuple(map(_WEIGHTS.__getitem__, _draws(rng, 1, 5, m)))
