"""Machine checks for the axioms an aggregation rule may satisfy.

Each checker either verifies a property on explicitly supplied data or
samples seed-derived random instances and hunts for a counterexample.  The
outcome is an ``AxiomReport``: verdict ``"holds-on-sample"`` means no
violation was found in the sampled instances, never a proof; verdict
``"violated"`` always carries a replayable witness with every value exact.

Continuity has no finite test, so it is checked through its quantitative
surrogate: a 1-Lipschitz bound in the sup norm, which all the well-behaved
rules here satisfy and which a single jump breaks.  ``check_lipschitz``
perturbs, clamps, sorts and measures in exact integers, each value over its
own denominator, and builds one ``Fraction`` per perturbed value that stays
inside the domain; its docstring says why that is exact.

A checker only calls its rule on profiles, so any callable from a
``Profile`` to an ``EndpointMultiset`` can stand in for a ``Rule``; only the
default sampling shape and the phantom probes read the rule itself.

Every report is built by ``sampling.axiom_report``, and every sampled one
by ``sampling.sampled_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .core import (
    Domain, EndpointMultiset, Profile, as_integer, as_pair, as_rational, as_rationals, distinct_sorted, less,
    order_key, shown,
)
from .errors import DomainMismatch, ShapeMismatch, VocaggError
from .rules import (
    PRule,
    PositionVector,
    Rule,
    as_positions,
)
from .sampling import (
    AxiomReport,
    _draw,
    _draws,
    axiom_report,
    first_hit,
    lattice_rows,
    random_permutation,
    random_picks,
    random_profile,
    refine,
    require_trials,
    rule_hooks,
    sampled_report,
    sampling_shape,
    spawn,
    strict_picks,
)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """An increasing or decreasing piecewise-linear bijection of the domain.

    ``points`` lists the graph's breakpoints from the left corner to the
    right one; between breakpoints the map interpolates linearly with exact
    rational arithmetic.  Increasing maps fix both corners, decreasing maps
    exchange them.

    Each segment's line is kept as integers (the ``segments`` field, left
    out of ``==``, hashing and ``repr``), so evaluating the map at x = p/q
    finds the segment by integer comparisons and builds one ``Fraction``.
    For the segment from (x0, y0) = (a/b, e/f) to (x1, y1) = (c/d, g/h),
    y(p/q) = (A*q + B*p) / (C*q) with A = e*h*b*c - g*f*d*a,
    B = b*d*(g*f - e*h) and C = f*h*(c*b - a*d) > 0.
    """

    domain: Domain
    points: tuple[tuple[Fraction, Fraction], ...]
    # per segment: its right end c/d, and y = (A*q + B*p) / (C*q) at x = p/q, as (c, d, A, B, C)
    segments: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    # "increasing" or "decreasing", decided once from the corners' images
    direction: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(as_pair(point, j) for j, point in enumerate(self.points))
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise VocaggError("a piecewise-linear map needs at least the two corners")
        lower, upper = self.domain.lower, self.domain.upper
        if pts[0][0] != lower or pts[-1][0] != upper:
            raise VocaggError("breakpoints must span the closed domain")
        for (a, _), (b, _) in zip(pts, pts[1:]):
            if not a < b:
                raise VocaggError(f"breakpoint abscissae not increasing: {shown(a)}, {shown(b)}")
        increasing = pts[0][1] < pts[-1][1]
        object.__setattr__(self, "direction", "increasing" if increasing else "decreasing")
        if (pts[0][1], pts[-1][1]) != ((lower, upper) if increasing else (upper, lower)):
            raise VocaggError("a bijection of the domain must map corners to corners")
        for (_, y0), (_, y1) in zip(pts, pts[1:]):
            if not (y0 < y1 if increasing else y0 > y1):
                raise VocaggError(f"ordinates not {self.direction}: {shown(y0)}, {shown(y1)}")
        object.__setattr__(self, "segments", _segments(pts))

    @classmethod
    def _from_valid(
        cls, domain: Domain, points: tuple[tuple[Fraction, Fraction], ...], direction: str
    ) -> "PiecewiseLinearMap":
        """``PiecewiseLinearMap(domain, points)`` built without checking it
        again: the caller guarantees that ``points`` is a tuple of at least two
        pairs of ``Fraction``s (lattice-table points, say), whose abscissae
        increase strictly from ``domain.lower`` to ``domain.upper``, whose
        first and last ordinates are the corners (in order for an increasing
        map, exchanged for a decreasing one) and whose ordinates are strictly
        monotone in ``direction``, ``"increasing"`` or ``"decreasing"``.  Only
        the segments are computed."""
        born = object.__new__(cls)
        object.__setattr__(born, "domain", domain)
        object.__setattr__(born, "points", points)
        object.__setattr__(born, "segments", _segments(points))
        object.__setattr__(born, "direction", direction)
        return born

    @classmethod
    def identity(cls, domain: Domain) -> "PiecewiseLinearMap":
        return cls(domain, ((domain.lower, domain.lower), (domain.upper, domain.upper)))

    @classmethod
    def reversal(cls, domain: Domain) -> "PiecewiseLinearMap":
        return cls(domain, ((domain.lower, domain.upper), (domain.upper, domain.lower)))

    def __call__(self, x: Fraction) -> Fraction:
        x = as_rational(x)
        if not self.domain.contains_closed(x):
            raise VocaggError(f"{shown(x)} outside the closed domain")
        return self._at(x)

    def _at(self, x: Fraction) -> Fraction:
        """The map at x, a ``Fraction`` already known to lie in the closed domain."""
        p, q = x.numerator, x.denominator
        for c, d, A, B, C in self.segments:
            if p * d <= c * q:
                return Fraction(A * q + B * p, C * q)
        raise AssertionError("unreachable: corners span the domain")

    def map_endpoints(self, endpoints: EndpointMultiset) -> EndpointMultiset:
        """Transform a report; a decreasing map reverses its order.

        The map sends its closed domain onto itself monotonically, so each
        value of a report over that domain (any other is refused) is mapped
        without testing it again, and the image, reversed for a decreasing
        map, is a valid report, built without checking it again.
        """
        if endpoints.domain != self.domain:
            raise DomainMismatch("report over a different domain than the map")
        values = tuple(map(self._at, endpoints.values))
        if self.direction == "decreasing":
            values = values[::-1]
        return EndpointMultiset._from_valid(self.domain, values, tuple(map(order_key, values)))

    def map_profile(self, profile: Profile) -> Profile:
        return Profile._from_valid(tuple(self.map_endpoints(row) for row in profile.rows))


def _segments(
    points: tuple[tuple[Fraction, Fraction], ...]
) -> tuple[tuple[int, int, int, int, int], ...]:
    """The ``segments`` of a map through ``points``: (c, d, A, B, C) per segment."""
    segments = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        a, b, c, d = x0.numerator, x0.denominator, x1.numerator, x1.denominator
        e, f, g, h = y0.numerator, y0.denominator, y1.numerator, y1.denominator
        segments.append(
            (c, d, e * h * b * c - g * f * d * a, b * d * (g * f - e * h), f * h * (c * b - a * d))
        )
    return tuple(segments)


# ---------------------------------------------------------------------------
# consistency


def check_consistency(
    endpoints: Union[EndpointMultiset, Sequence[Fraction]],
    strict: bool = False,
    domain: Optional[Domain] = None,
) -> AxiomReport:
    """Weak mode: values nondecreasing.  Strict mode: interior and increasing.

    An empty sequence (a one-word vocabulary) holds vacuously.  The witness
    pinpoints the first offending index, 1-based.  Raw values are read
    through ``core.as_rationals``.
    """
    if isinstance(endpoints, EndpointMultiset):
        domain = endpoints.domain
        values = endpoints.values
    else:
        values = as_rationals(endpoints)
    axiom = "consistency-strict" if strict else "consistency-weak"
    if strict and domain is None:
        raise ShapeMismatch("strict consistency needs the domain to test interiority")
    previous: Optional[Fraction] = None
    for k, value in enumerate(values, start=1):
        if previous is not None and previous > value:
            witness = {"index": k, "kind": "order", "left": previous, "right": value}
        elif strict and previous == value:
            witness = {"index": k, "kind": "tie", "left": previous, "right": value}
        elif strict and not domain.contains(value):
            witness = {"index": k, "kind": "boundary", "value": value}
        else:
            previous = value
            continue
        return axiom_report(axiom, witness)
    return axiom_report(axiom, None)


# ---------------------------------------------------------------------------
# unanimity, anonymity


def check_unanimity(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> AxiomReport:
    """Columns on which all agents agree must come back unchanged.

    Each trial freezes a random nonempty set of columns at shared values and
    fills the remaining entries independently per agent, so unanimity is
    exercised both on fully unanimous profiles and column by column.  The
    shared values lie on the 32-step lattice and the free runs on the
    32 * 16-step one.
    """
    n, m, domain = sampling_shape(rule, n, m, domain)

    def trial(rng, t):
        frozen = sorted(rng.sample(range(1, m + 1), _draw(rng, 1, m)))
        (base,) = random_picks(rng, 1, m, 32)
        padded = (0, *base, 32)
        cuts = (0, *frozen, m + 1)  # the corners count as frozen columns 0 and m + 1
        free_runs = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1]  # columns a+1..b-1
        picks = []
        for _ in range(n):
            row = [16 * j for j in base]
            for a, b in free_runs:
                row[a : b - 1] = refine(rng, padded[a], padded[b], b - a - 1, 16)
            # frozen columns share the base indices and each free run lies between its frozen ends
            picks.append(row)
        profile = Profile._from_valid(lattice_rows(domain, 32 * 16, picks))
        shared = profile.rows[0].values
        output = rule(profile)
        for k in frozen:
            if output.values[k - 1] != shared[k - 1]:
                return {
                    "profile": profile.values(),
                    "column": k,
                    "expected": shared[k - 1],
                    "actual": output.values[k - 1],
                    "output": output.values,
                }
        return None

    return sampled_report("unanimity", trials, seed, "unanimity", trial)


def check_anonymity(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> AxiomReport:
    """Permuting the agents must not change the output.

    The first trial always swaps agents 1 and 2; later trials draw random
    permutations, skipping the identity.
    """
    require_trials(trials)
    n, m, domain = sampling_shape(rule, n, m, domain)
    if n < 2:
        return axiom_report("anonymity", None, seed=seed, trials=0)

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, denominator=32)
        if t == 0:
            perm = (2, 1) + tuple(range(3, n + 1))
        else:
            perm = random_permutation(rng, n)
            if perm == tuple(range(1, n + 1)):
                perm = (2, 1) + tuple(range(3, n + 1))
        permuted = Profile._from_valid(tuple([profile.rows[i - 1] for i in perm]))
        output = rule(profile)
        permuted_output = rule(permuted)
        if output == permuted_output:
            return None
        return {
            "profile": profile.values(),
            "permutation": perm,
            "output": output.values,
            "permuted_output": permuted_output.values,
        }

    return sampled_report("anonymity", trials, seed, "anonymity", trial)


# ---------------------------------------------------------------------------
# stability under monotone relabelings of the line


def random_monotone_map(
    domain: Domain, seed: Union[int, str], direction: str = "increasing"
) -> PiecewiseLinearMap:
    """A random piecewise-linear bijection with 1..6 interior breakpoints."""
    if direction not in ("increasing", "decreasing"):
        raise VocaggError(f"unknown direction {direction!r}")
    rng = spawn(seed, "monotone-map", direction)
    breaks = _draw(rng, 1, 6)
    picks = [[0, *strict_picks(rng, breaks, 97), 97] for _ in range(2)]  # abscissae, then ordinates
    xs, ys = (row.values for row in lattice_rows(domain, 97, picks))
    if direction == "decreasing":
        ys = ys[::-1]
    # table points: strictly increasing abscissae and ordinates from corner to corner
    return PiecewiseLinearMap._from_valid(domain, tuple(zip(xs, ys)), direction)


def check_stability(
    rule: Rule, profile: Profile, phi: PiecewiseLinearMap
) -> AxiomReport:
    """Relabeling the line and aggregating must commute.

    For an increasing map the outputs are compared directly; for a
    decreasing map the transformed output is re-sorted, since reversal
    flips the reading order of the boundaries.
    """
    axiom = "stability" if phi.direction == "increasing" else "strong-stability"
    output = rule(profile)
    transformed = phi.map_endpoints(output).values
    output_of_transformed = rule(phi.map_profile(profile))
    if transformed == output_of_transformed.values:
        return axiom_report(axiom, None)
    return axiom_report(
        axiom,
        {
            "profile": profile.values(),
            "map": phi.points,
            "direction": phi.direction,
            "output": output.values,
            "transformed_output": transformed,
            "output_of_transformed": output_of_transformed.values,
        },
    )


def check_stability_sampled(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
    direction: str = "increasing",
) -> AxiomReport:
    """Stability over random profiles and random monotone relabelings."""
    n, m, domain = sampling_shape(rule, n, m, domain)
    axiom = "stability" if direction == "increasing" else "strong-stability"

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, denominator=32)
        phi = random_monotone_map(domain, f"{seed}:{t}", direction)
        return check_stability(rule, profile, phi).witness

    return sampled_report(axiom, trials, seed, "stability-profile", trial)


# ---------------------------------------------------------------------------
# continuity surrogate


def check_lipschitz(
    rule: Rule,
    profile: Profile,
    eps: Fraction,
    trials: int,
    seed: int = 0,
) -> AxiomReport:
    """Perturb every endpoint by at most eps > 0 and bound the output movement.

    The rules studied here are all 1-Lipschitz in the sup norm when they are
    continuous at all, so any output movement beyond the exact input
    distance is reported as a continuity violation.

    Each trial moves every value v by eps * k / 8 for a drawn k in -8..8,
    clamps it into the closed domain, sorts each row and compares the sup
    distances, all in integers, each value over its own denominator: for
    v = a/b and eps = e/f the moved value is n/d with n = a*8f + e*k*b and
    d = b*8f.  Its order key (n << 64) // d is ``order_key(n/d)``, since
    floor(n * 2**64 / d) does not depend on reducing n/d, so the key decides
    a clamp against the corners' keys and the value is compared with a
    corner exactly only at that corner's key.  A clamped value is the corner
    itself; any other costs one ``Fraction``.  Rows sort as (key, value)
    pairs, which orders them exactly.  A distance |a/b - c/d| is kept as the
    pair (|a*d - c*b|, b*d), or as (e*|k|, 8f) when sorting left the moved
    value at its own place, and two such pairs are compared by
    cross-multiplication; the output distances compare their keys first,
    so that long denominators are multiplied out only at equal keys.  No
    distance is a ``Fraction`` until a witness reports it.
    """
    require_trials(trials)
    eps = as_rational(eps)
    if eps <= 0:
        raise VocaggError(f"eps must be positive, got {shown(eps)}")
    base = rule(profile)
    domain = profile.domain
    lower, upper = domain.lower, domain.upper
    low, high = domain.keys
    ln, ld, un, ud = lower.numerator, lower.denominator, upper.numerator, upper.denominator
    at_lower, at_upper = (low, lower, ln, ld, -1, 0), (high, upper, un, ud, -1, 0)  # clamped values
    e, f8 = eps.numerator, 8 * eps.denominator
    olds = [[(v.numerator, v.denominator) for v in row.values] for row in profile.rows]
    # per value a/b: (a*8f, e*b, b*8f), so that a/b + eps*k/8 = (a*8f + e*b*k) / (b*8f)
    moves = [[(a * f8, e * b, b * f8) for a, b in row] for row in olds]
    base_pairs = [(v.numerator, v.denominator) for v in base.values]

    def trial(rng, t):
        offsets = iter(_draws(rng, -8, 8, profile.n * profile.m))
        rows = []
        # the sup distances so far, each as a pair (numerator, denominator)
        input_n, input_d = 0, 1
        for old, row in zip(olds, moves):
            moved = []  # (key, value, n, d, its index in the row or -1 when clamped, k)
            for j, (start, step, d) in enumerate(row):
                k = next(offsets)
                n = start + step * k
                key = (n << 64) // d
                if key < low or (key == low and n * ld < ln * d):
                    moved.append(at_lower)
                elif key > high or (key == high and n * ud > un * d):
                    moved.append(at_upper)
                else:
                    moved.append((key, Fraction(n, d), n, d, j, k))
            moved.sort()
            for j, ((a, b), (_, _, c, d, source, k)) in enumerate(zip(old, moved)):
                if source == j:  # its own value moved by eps*k/8
                    gap, den = e * abs(k), f8
                else:
                    gap, den = abs(a * d - c * b), b * d
                if gap * input_d > input_n * den:
                    input_n, input_d = gap, den
            values, keys = tuple([p[1] for p in moved]), tuple([p[0] for p in moved])
            rows.append(EndpointMultiset._from_valid(domain, values, keys))
        perturbed = Profile._from_valid(tuple(rows))
        output = rule(perturbed)
        output_key, output_n, output_d = 0, 0, 1
        for (a, b), v in zip(base_pairs, output.values):
            c, d = v.numerator, v.denominator
            gap, den = abs(a * d - c * b), b * d
            key = (gap << 64) // den  # decides unless the keys tie, as order keys do
            if key > output_key or (key == output_key and gap * output_d > output_n * den):
                output_key, output_n, output_d = key, gap, den
        if output_n * input_d <= input_n * output_d:
            return None
        return {
            "profile": profile.values(),
            "perturbed": perturbed.values(),
            "eps": eps,
            "input_distance": Fraction(input_n, input_d),
            "output_distance": Fraction(output_n, output_d),
            "output": base.values,
            "perturbed_output": output.values,
        }

    return sampled_report("continuity", trials, seed, "lipschitz", trial)


# ---------------------------------------------------------------------------
# majority support


def majority_word_sets(profile: Profile) -> tuple[frozenset[int], ...]:
    """For each word j = 0..m, the 1-based agents whose word j is active."""
    sets = [set() for _ in range(profile.m + 1)]
    for i, row in enumerate(profile.rows, start=1):
        for j in row.active_words():
            sets[j].add(i)
    return tuple(map(frozenset, sets))


def majority_extent_agents(
    profile: Profile, word: int, a: Fraction, b: Fraction
) -> frozenset[int]:
    """Agents whose word ``word`` covers the whole interval (a, b)."""
    a, b = as_rational(a), as_rational(b)
    if not a < b:
        raise VocaggError(f"need a < b, got {shown(a)} >= {shown(b)}")
    if not (profile.domain.contains(a) and profile.domain.contains(b)):
        raise VocaggError("a and b must be interior points")
    if not 0 <= word <= profile.m:
        raise ShapeMismatch(f"word index {word} outside 0..{profile.m}")
    return frozenset(
        i
        for i in range(1, profile.n + 1)
        if profile.row(i).bound(word) <= a and b <= profile.row(i).bound(word + 1)
    )


def check_majoritarian_words(rule: Rule, profile: Profile) -> AxiomReport:
    """Words active for a strict majority of agents must stay active."""
    output = rule(profile)
    kept = output.active_words()
    for j, agents in enumerate(majority_word_sets(profile)):
        if 2 * len(agents) >= profile.n + 1 and j not in kept:
            witness = {
                "profile": profile.values(),
                "word": j,
                "supporters": tuple(sorted(agents)),
                "output": output.values,
            }
            return axiom_report("majoritarian-words", witness)
    return axiom_report("majoritarian-words", None)


def _extent_witness(
    profile: Profile, output: EndpointMultiset, word: int, a: Fraction, b: Fraction, threshold: int
) -> Optional[dict]:
    """The witness that ``output`` fails a word-``word`` extent (a, b) backed by
    2|N| >= ``threshold`` agents, or ``None``."""
    agents = majority_extent_agents(profile, word, a, b)
    if 2 * len(agents) < threshold or (output.bound(word) <= a and b <= output.bound(word + 1)):
        return None
    return {
        "profile": profile.values(),
        "word": word,
        "a": a,
        "b": b,
        "supporters": tuple(sorted(agents)),
        "output": output.values,
    }


def check_majoritarian_extents(
    rule: Rule,
    profile: Profile,
    word: int,
    a: Fraction,
    b: Fraction,
    weak: bool = False,
) -> AxiomReport:
    """If enough agents give word ``word`` the whole of (a, b), so must the rule.

    ``weak=False`` demands a strict majority (2|N| >= n+1), ``weak=True``
    also accepts an exact half (2|N| >= n).  Below the threshold the check
    holds vacuously.
    """
    axiom = "majoritarian-extents-weak" if weak else "majoritarian-extents"
    threshold = profile.n if weak else profile.n + 1
    word, a, b = as_integer(word), as_rational(a), as_rational(b)
    return axiom_report(axiom, _extent_witness(profile, rule(profile), word, a, b, threshold))


def majoritarian_band(n: int, weak: bool = False) -> tuple[int, int]:
    """The ranks (lo, hi) a position may take without ever breaking extents.

    With t the least number of agents clearing the majority threshold, a
    rank p guarantees "f^k <= a whenever t agents report s^k <= a" iff
    p <= t, and the mirrored guarantee iff p >= n - t + 1.  For odd n both
    modes pin p to the median rank (n+1)/2; for even n the strict band is
    {n/2, n/2 + 1} while the weak band is empty (lo > hi).
    """
    n = as_integer(n)
    t = (n + 2) // 2 if not weak else (n + 1) // 2
    return (n - t + 1, t)


def _unbacked_extents(
    profile: Profile, output: EndpointMultiset, threshold: int
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """The candidates (word, a, b) of the extent search that ``output`` fails.

    Word j spans boundary j to boundary j + 1, so a runs over the distinct
    reports at boundary j and b over those at boundary j + 1, with a < b;
    the corners (boundaries 0 and m + 1) are never interior, so words 0
    and m get no candidate.  A candidate is yielded, in that order, when
    ``output`` does not give word j the whole of (a, b) but 2|N| >=
    ``threshold`` agents do.  Every bound is compared on order keys, and
    exactly only at equal keys, in one pass over the corner-padded reports.
    """
    low, high = profile.domain.keys
    lower, upper = profile.domain.lower, profile.domain.upper
    padded = [((lower, *row.values, upper), (low, *row.keys, high)) for row in profile.rows]
    out, out_keys = (lower, *output.values, upper), (low, *output.keys, high)
    columns = [
        distinct_sorted((row.keys[k], row.values[k]) for row in profile.rows) for k in range(profile.m)
    ]
    for word in range(1, profile.m):
        for key_a, a in columns[word - 1]:
            for key_b, b in columns[word]:
                if not less(a, b, key_a, key_b) or _covers(out, out_keys, word, a, b, key_a, key_b):
                    continue
                backers = sum(_covers(values, keys, word, a, b, key_a, key_b) for values, keys in padded)
                if 2 * backers >= threshold:
                    yield word, a, b


def _covers(bounds, keys, word, a, b, key_a, key_b) -> bool:
    """bounds[word] <= a and b <= bounds[word + 1], given every value's order key."""
    return not less(a, bounds[word], key_a, keys[word]) and not less(
        bounds[word + 1], b, keys[word + 1], key_b
    )


def search_extent_violation(
    positions: PositionVector | Sequence[int],
    n: int,
    trials: int,
    seed: int,
    *,
    weak: bool = False,
    domain: Optional[Domain] = None,
) -> Optional[dict]:
    """Hunt for a majoritarian-extent violation of a position rule.

    The first trials replay deterministic constructions aimed at every rank
    outside the admissible band; the remaining budget samples random
    profiles and tests candidate intervals read off the sampled endpoints.
    Returns a witness dictionary or ``None`` after exhausting ``trials``.
    """
    require_trials(trials)
    positions = as_positions(positions)
    positions.validate_for(n)
    rule = PRule(positions)
    n, m, domain = sampling_shape(rule, n, positions.m, domain)
    lo, hi = majoritarian_band(n, weak)
    supporters = n - lo + 1  # majority size of the targeted constructions
    threshold = n if weak else n + 1
    span = domain.upper - domain.lower

    def at(fraction: Fraction) -> Fraction:
        return domain.lower + span * fraction

    def construction(split: int, minority: Fraction) -> tuple[Profile, list]:
        """Supporters put boundaries 1..split at 1/4 and the rest at 3/4."""
        majority = (at(Fraction(1, 4)),) * split + (at(Fraction(3, 4)),) * (m - split)
        rows = [majority] * supporters + [(at(minority),) * m] * (n - supporters)
        return Profile.from_rows(domain, rows), [(split, at(Fraction(1, 2)), at(Fraction(3, 4)))]

    targeted = []
    if 2 * supporters >= threshold:
        for k, p_k in enumerate(positions.positions, start=1):
            if p_k > hi:
                targeted.append(construction(k, Fraction(5, 8)))
            if p_k < lo:
                targeted.append(construction(k - 1, Fraction(3, 8)))

    def trial(rng, t):
        if t < len(targeted):
            profile, pairs = targeted[t]
            output = rule(profile)
        else:
            profile = random_profile(rng, domain, n, m, denominator=16)
            output = rule(profile)
            pairs = _unbacked_extents(profile, output, threshold)
        for word, a, b in pairs:
            w = _extent_witness(profile, output, word, a, b, threshold)
            if w is not None:
                return {"positions": positions.positions, "weak": weak, **w, "trial": t, "seed": seed}
        return None

    hit = first_hit(trials, seed, "extents", trial)
    return None if hit is None else hit[1]


# ---------------------------------------------------------------------------
# strict responsiveness


def _pinned(domain: Domain, m: int, k: int, column: Sequence[Fraction]) -> Profile:
    """The profile whose column k is ``column`` and whose other columns sit at
    the corners: the lower one before column k, the upper one after it."""
    before, after = (domain.lower,) * (k - 1), (domain.upper,) * (m - k)
    return Profile.from_rows(domain, [(*before, v, *after) for v in column])


def check_strict_responsiveness(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> AxiomReport:
    """Strictly raising every report in one column must strictly raise f^k.

    Each interior phantom of the rule (``Rule.phantom_columns``) is probed
    first with column k pinned at the phantom, the other columns at the
    corners (the lower one before column k, the upper one after it).
    Shifting all of column k slightly up must raise the rule's k-th output;
    a pooled median stays stuck at the phantom, which is the generic
    failure.  Random
    trials then raise one column of a strict random profile on the 64-step
    lattice, each report by r/8 of its slack below the next boundary (r in
    1..7), which lands on the 64 * 8-step lattice.
    """
    require_trials(trials)
    n, m, domain = sampling_shape(rule, n, m, domain)
    for k, column_phantoms in enumerate(rule_hooks(rule).phantom_columns(n, m, domain), start=1):
        for idx, q in enumerate(column_phantoms, start=1):
            if not domain.contains(q):
                continue
            step = min(q - domain.lower, domain.upper - q) / (2 * n)
            below = [q - (i + 1) * step for i in range(n - idx)][::-1]
            above = [q + (j + 1) * step for j in range(idx)]
            column = tuple(below + above)
            shifted = tuple(v + step / 2 for v in column)
            before = rule(_pinned(domain, m, k, column)).values[k - 1]
            after = rule(_pinned(domain, m, k, shifted)).values[k - 1]
            if not before < after:
                witness = {
                    "column_index": k,
                    "phantom": q,
                    "column": column,
                    "shifted_column": shifted,
                    "before": before,
                    "after": after,
                }
                return axiom_report("strict-responsiveness", witness, seed=seed)

    def trial(rng, t):
        picks = [strict_picks(rng, m, 64) for _ in range(n)]
        profile = Profile._from_valid(lattice_rows(domain, 64, picks))
        k = _draw(rng, 1, m)
        rows = []
        for row in picks:
            # x_k + (bound(k + 1) - x_k) * r / 8, on the lattice 8 times finer: still below bound(k + 1)
            lifted = [8 * j for j in row]
            lifted[k - 1] += ((*row, 64)[k] - row[k - 1]) * _draw(rng, 1, 7)
            rows.append(lifted)
        raised = Profile._from_valid(lattice_rows(domain, 64 * 8, rows))
        before = rule(profile)
        after = rule(raised)
        if before.values[k - 1] < after.values[k - 1]:
            return None
        return {
            "profile": profile.values(),
            "raised": raised.values(),
            "column": k,
            "before": before.values,
            "after": after.values,
        }

    return sampled_report("strict-responsiveness", trials, seed, "responsiveness", trial)


# ---------------------------------------------------------------------------
# the four-axiom battery


def run_axiom_battery(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> dict[str, AxiomReport]:
    """Run unanimity, anonymity, stability, and the continuity surrogate.

    The continuity surrogate moves every endpoint by at most 1/16.  Every
    third continuity profile is drawn from a coarse lattice so that tied
    columns, where discontinuities hide, appear regularly.
    """
    n, m, domain = sampling_shape(rule, n, m, domain)
    reports = {
        "unanimity": check_unanimity(rule, trials, seed, domain=domain, n=n, m=m),
        "anonymity": check_anonymity(rule, trials, seed, domain=domain, n=n, m=m),
        "stability": check_stability_sampled(
            rule, trials, seed, domain=domain, n=n, m=m
        ),
    }

    def continuity_trial(rng, t):
        denominator = 4 if t % 3 == 0 else 32
        profile = random_profile(rng, domain, n, m, denominator=denominator)
        return check_lipschitz(rule, profile, Fraction(1, 16), trials=1, seed=f"{seed}:{t}").witness

    reports["continuity"] = sampled_report(
        "continuity", trials, seed, "continuity-profile", continuity_trial
    )
    return reports
