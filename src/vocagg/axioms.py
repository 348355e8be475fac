"""Machine checks for the axioms an aggregation rule may satisfy.

Each checker either verifies a property on explicitly supplied data or
samples seed-derived random instances and hunts for a counterexample.  The
outcome is an ``AxiomReport``: verdict ``"holds-on-sample"`` means no
violation was found in the sampled instances, never a proof; verdict
``"violated"`` always carries a replayable witness with every value exact.

Continuity has no finite test, so it is checked through its quantitative
surrogate: a 1-Lipschitz bound in the sup norm, which all the well-behaved
rules here satisfy and which a single jump breaks.

A checker only calls its rule on profiles, so any callable from a
``Profile`` to an ``EndpointMultiset`` can stand in for a ``Rule``; only the
default sampling shape and the phantom probes read the rule itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .core import Domain, EndpointMultiset, Profile
from .errors import ShapeMismatch
from .rules import (
    ExtendedMedianRule,
    PRule,
    PositionVector,
    Rule,
    extended_median,
)
from .sampling import (
    first_hit,
    random_permutation,
    random_profile,
    require_trials,
    sampling_shape,
    sorted_between,
    spawn,
)

HOLDS = "holds-on-sample"
VIOLATED = "violated"


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """An increasing or decreasing piecewise-linear bijection of the domain.

    ``points`` lists the graph's breakpoints from the left corner to the
    right one; between breakpoints the map interpolates linearly with exact
    rational arithmetic.  Increasing maps fix both corners, decreasing maps
    exchange them.
    """

    domain: Domain
    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((Fraction(x), Fraction(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a piecewise-linear map needs at least the two corners")
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        if xs[0] != self.domain.lower or xs[-1] != self.domain.upper:
            raise ValueError("breakpoints must span the closed domain")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(f"breakpoint abscissae not increasing: {a}, {b}")
        increasing = ys[0] < ys[-1]
        expected = (
            (self.domain.lower, self.domain.upper)
            if increasing
            else (self.domain.upper, self.domain.lower)
        )
        if (ys[0], ys[-1]) != expected:
            raise ValueError("a bijection of the domain must map corners to corners")
        for a, b in zip(ys, ys[1:]):
            if increasing and not a < b:
                raise ValueError(f"ordinates not increasing: {a}, {b}")
            if not increasing and not a > b:
                raise ValueError(f"ordinates not decreasing: {a}, {b}")

    @property
    def direction(self) -> str:
        return "increasing" if self.points[0][1] < self.points[-1][1] else "decreasing"

    @classmethod
    def identity(cls, domain: Domain) -> "PiecewiseLinearMap":
        return cls(domain, ((domain.lower, domain.lower), (domain.upper, domain.upper)))

    @classmethod
    def reversal(cls, domain: Domain) -> "PiecewiseLinearMap":
        return cls(domain, ((domain.lower, domain.upper), (domain.upper, domain.lower)))

    def __call__(self, x: Fraction) -> Fraction:
        if not self.domain.contains_closed(x):
            raise ValueError(f"{x} outside the closed domain")
        pts = self.points
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable: corners span the domain")

    def map_endpoints(self, endpoints: EndpointMultiset) -> EndpointMultiset:
        """Transform a report; a decreasing map reverses the sorted order."""
        return EndpointMultiset(
            self.domain, tuple(sorted(self(v) for v in endpoints.values))
        )

    def map_profile(self, profile: Profile) -> Profile:
        return Profile(tuple(self.map_endpoints(row) for row in profile.rows))


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
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VIOLATED and self.witness is None:
            raise ValueError("a violation report needs a witness")


def sampled_report(
    axiom: str, trials: int, seed: int, stream: str, trial: Callable[..., Optional[dict]]
) -> AxiomReport:
    """Run ``trial`` through ``first_hit``; the first witness it returns refutes ``axiom``."""
    hit = first_hit(trials, seed, stream, trial)
    if hit is None:
        return AxiomReport(axiom, HOLDS, seed=seed, trials=trials)
    t, witness = hit
    return AxiomReport(axiom, VIOLATED, seed=seed, trials=t + 1, witness=witness)


# ---------------------------------------------------------------------------
# consistency


def check_consistency(
    endpoints: Union[EndpointMultiset, Sequence[Fraction]],
    strict: bool = False,
    domain: Optional[Domain] = None,
) -> AxiomReport:
    """Weak mode: values nondecreasing.  Strict mode: interior and increasing.

    An empty sequence (a one-word vocabulary) holds vacuously.  The witness
    pinpoints the first offending index, 1-based.
    """
    if isinstance(endpoints, EndpointMultiset):
        domain = endpoints.domain
        values = endpoints.values
    else:
        values = tuple(endpoints)
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
        return AxiomReport(axiom, VIOLATED, witness=witness)
    return AxiomReport(axiom, HOLDS)


# ---------------------------------------------------------------------------
# unanimity, anonymity


def check_unanimity(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: int = 3,
    m: int = 3,
) -> AxiomReport:
    """Columns on which all agents agree must come back unchanged.

    Each trial freezes a random nonempty set of columns at shared values and
    fills the remaining entries independently per agent, so unanimity is
    exercised both on fully unanimous profiles and column by column.
    """
    n, m, domain = sampling_shape(rule, n, m, domain)

    def trial(rng, t):
        frozen = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        frozen_set = set(frozen)
        base = sorted_between(rng, domain.lower, domain.upper, m, 32, include_ends=False)
        rows = []
        for _ in range(n):
            row: list[Optional[Fraction]] = [None] * m
            for k in frozen:
                row[k - 1] = base[k - 1]
            k = 1
            while k <= m:
                if k in frozen_set:
                    k += 1
                    continue
                start = k
                while k <= m and k not in frozen_set:
                    k += 1
                lo = row[start - 2] if start > 1 else domain.lower
                hi = row[k - 1] if k <= m else domain.upper
                row[start - 1 : k - 1] = sorted_between(rng, lo, hi, k - start, 16)
            rows.append(tuple(row))
        profile = Profile.from_rows(domain, rows)
        output = rule(profile)
        for k in frozen:
            if output.values[k - 1] != base[k - 1]:
                return {
                    "profile": profile.values(),
                    "column": k,
                    "expected": base[k - 1],
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
    n: int = 3,
    m: int = 3,
) -> AxiomReport:
    """Permuting the agents must not change the output.

    The first trial always swaps agents 1 and 2; later trials draw random
    permutations, skipping the identity.
    """
    require_trials(trials)
    n, m, domain = sampling_shape(rule, n, m, domain)
    if n < 2:
        return AxiomReport("anonymity", HOLDS, seed=seed, trials=0)

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, denominator=32)
        if t == 0:
            perm = (2, 1) + tuple(range(3, n + 1))
        else:
            perm = random_permutation(rng, n)
            if perm == tuple(range(1, n + 1)):
                perm = (2, 1) + tuple(range(3, n + 1))
        permuted = Profile(tuple(profile.rows[i - 1] for i in perm))
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
        raise ValueError(f"unknown direction {direction!r}")
    rng = spawn(seed, "monotone-map", direction)
    breaks = rng.randint(1, 6)
    denominator = 97
    span = domain.upper - domain.lower
    xs = sorted(rng.sample(range(1, denominator), breaks))
    ys = sorted(rng.sample(range(1, denominator), breaks))
    if direction == "decreasing":
        ys = ys[::-1]
    interior = tuple(
        (
            domain.lower + span * Fraction(x, denominator),
            domain.lower + span * Fraction(y, denominator),
        )
        for x, y in zip(xs, ys)
    )
    if direction == "increasing":
        corners = ((domain.lower, domain.lower), (domain.upper, domain.upper))
    else:
        corners = ((domain.lower, domain.upper), (domain.upper, domain.lower))
    return PiecewiseLinearMap(domain, (corners[0],) + interior + (corners[1],))


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
    transformed = tuple(sorted(phi(v) for v in output.values))
    output_of_transformed = rule(phi.map_profile(profile))
    if transformed != output_of_transformed.values:
        return AxiomReport(
            axiom,
            VIOLATED,
            witness={
                "profile": profile.values(),
                "map": phi.points,
                "direction": phi.direction,
                "output": output.values,
                "transformed_output": transformed,
                "output_of_transformed": output_of_transformed.values,
            },
        )
    return AxiomReport(axiom, HOLDS)


def check_stability_sampled(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: int = 3,
    m: int = 3,
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
    """Perturb every endpoint by at most eps and bound the output movement.

    The rules studied here are all 1-Lipschitz in the sup norm when they are
    continuous at all, so any output movement beyond the exact input
    distance is reported as a continuity violation.
    """
    require_trials(trials)
    eps = Fraction(eps)
    base = rule(profile)
    domain = profile.domain

    def trial(rng, t):
        rows = []
        for row in profile.rows:
            moved = [
                min(max(v + eps * Fraction(rng.randint(-8, 8), 8), domain.lower), domain.upper)
                for v in row.values
            ]
            rows.append(tuple(sorted(moved)))
        perturbed = Profile.from_rows(domain, rows)
        input_distance = max(
            (
                abs(a - b)
                for old, new in zip(profile.rows, perturbed.rows)
                for a, b in zip(old.values, new.values)
            ),
            default=Fraction(0),
        )
        output = rule(perturbed)
        output_distance = max(
            (abs(a - b) for a, b in zip(base.values, output.values)),
            default=Fraction(0),
        )
        if output_distance <= input_distance:
            return None
        return {
            "profile": profile.values(),
            "perturbed": perturbed.values(),
            "eps": eps,
            "input_distance": input_distance,
            "output_distance": output_distance,
            "output": base.values,
            "perturbed_output": output.values,
        }

    return sampled_report("continuity", trials, seed, "lipschitz", trial)


# ---------------------------------------------------------------------------
# majority support


def majority_word_sets(profile: Profile) -> tuple[frozenset[int], ...]:
    """For each word j = 0..m, the 1-based agents whose word j is active."""
    sets = []
    for j in range(profile.m + 1):
        sets.append(
            frozenset(
                i
                for i in range(1, profile.n + 1)
                if profile.row(i).bound(j) < profile.row(i).bound(j + 1)
            )
        )
    return tuple(sets)


def majority_extent_agents(
    profile: Profile, word: int, a: Fraction, b: Fraction
) -> frozenset[int]:
    """Agents whose word ``word`` covers the whole interval (a, b)."""
    if not a < b:
        raise ValueError(f"need a < b, got {a} >= {b}")
    if not (profile.domain.contains(a) and profile.domain.contains(b)):
        raise ValueError("a and b must be interior points")
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
    supports = majority_word_sets(profile)
    for j, agents in enumerate(supports):
        if 2 * len(agents) >= profile.n + 1:
            if not output.bound(j) < output.bound(j + 1):
                return AxiomReport(
                    "majoritarian-words",
                    VIOLATED,
                    witness={
                        "profile": profile.values(),
                        "word": j,
                        "supporters": tuple(sorted(agents)),
                        "output": output.values,
                    },
                )
    return AxiomReport("majoritarian-words", HOLDS)


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
    agents = majority_extent_agents(profile, word, a, b)
    threshold = profile.n if weak else profile.n + 1
    axiom = "majoritarian-extents-weak" if weak else "majoritarian-extents"
    if 2 * len(agents) < threshold:
        return AxiomReport(axiom, HOLDS)
    output = rule(profile)
    if output.bound(word) <= a and b <= output.bound(word + 1):
        return AxiomReport(axiom, HOLDS)
    return AxiomReport(
        axiom,
        VIOLATED,
        witness={
            "profile": profile.values(),
            "word": word,
            "a": a,
            "b": b,
            "supporters": tuple(sorted(agents)),
            "output": output.values,
        },
    )


def majoritarian_band(n: int, weak: bool = False) -> tuple[int, int]:
    """The ranks (lo, hi) a position may take without ever breaking extents.

    With t the least number of agents clearing the majority threshold, a
    rank p guarantees "f^k <= a whenever t agents report s^k <= a" iff
    p <= t, and the mirrored guarantee iff p >= n - t + 1.  For odd n both
    modes pin p to the median rank (n+1)/2; for even n the strict band is
    {n/2, n/2 + 1} while the weak band is empty (lo > hi).
    """
    t = (n + 2) // 2 if not weak else (n + 1) // 2
    return (n - t + 1, t)


def search_extent_violation(
    positions: PositionVector,
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
        else:
            profile = random_profile(rng, domain, n, m, denominator=16)
            pairs = []
            padded = [
                (row.domain.lower,) + row.values + (row.domain.upper,)
                for row in profile.rows
            ]
            for word in range(m + 1):
                lefts = sorted({p[word] for p in padded if domain.contains(p[word])})
                rights = sorted({p[word + 1] for p in padded if domain.contains(p[word + 1])})
                for a in lefts:
                    for b in rights:
                        if a < b:
                            pairs.append((word, a, b))
        output = rule(profile)
        for word, a, b in pairs:
            agents = majority_extent_agents(profile, word, a, b)
            if 2 * len(agents) < threshold:
                continue
            if output.bound(word) <= a and b <= output.bound(word + 1):
                continue
            return {
                "positions": positions.positions,
                "weak": weak,
                "profile": profile.values(),
                "word": word,
                "a": a,
                "b": b,
                "supporters": tuple(sorted(agents)),
                "output": output.values,
                "trial": t,
                "seed": seed,
            }
        return None

    hit = first_hit(trials, seed, "extents", trial)
    return None if hit is None else hit[1]


# ---------------------------------------------------------------------------
# strict responsiveness


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

    For extended-median rules each interior phantom is probed first with a
    column pinned at the phantom: shifting all reports slightly leaves the
    pooled median stuck, which is the generic failure.  Random trials then
    shift one column of a strict random profile.
    """
    require_trials(trials)
    n, m, domain = sampling_shape(rule, n, m, domain)
    if isinstance(rule, ExtendedMedianRule):
        matrix = rule.phantoms
        for k in range(1, m + 1):
            column_phantoms = matrix.columns[k - 1]
            for idx, q in enumerate(column_phantoms, start=1):
                if not domain.contains(q):
                    continue
                step = min(q - domain.lower, domain.upper - q) / (2 * n)
                below = [q - (i + 1) * step for i in range(n - idx)][::-1]
                above = [q + (j + 1) * step for j in range(idx)]
                column = tuple(below + above)
                shifted = tuple(v + step / 2 for v in column)
                before = extended_median(column, column_phantoms)
                after = extended_median(shifted, column_phantoms)
                if not before < after:
                    return AxiomReport(
                        "strict-responsiveness",
                        VIOLATED,
                        seed=seed,
                        witness={
                            "column_index": k,
                            "phantom": q,
                            "column": column,
                            "shifted_column": shifted,
                            "before": before,
                            "after": after,
                        },
                    )

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, strict=True, denominator=64)
        k = rng.randint(1, m)
        rows = []
        for row in profile.rows:
            slack = row.bound(k + 1) - row.values[k - 1]
            shifted = list(row.values)
            shifted[k - 1] += slack * Fraction(rng.randint(1, 7), 8)
            rows.append(tuple(shifted))
        raised = Profile.from_rows(domain, rows)
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
    n: int = 3,
    m: int = 3,
    eps: Fraction = Fraction(1, 16),
) -> dict[str, AxiomReport]:
    """Run unanimity, anonymity, stability, and the continuity surrogate.

    Every third continuity profile is drawn from a coarse lattice so that
    tied columns, where discontinuities hide, appear regularly.
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
        return check_lipschitz(rule, profile, eps, trials=1, seed=f"{seed}:{t}").witness

    reports["continuity"] = sampled_report(
        "continuity", trials, seed, "continuity-profile", continuity_trial
    )
    return reports
