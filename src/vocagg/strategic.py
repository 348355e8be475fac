"""Incentive checks for aggregation rules under single-peaked preferences.

An agent's preference is additive: the peak is their sincere report and the
disutility of a collective output is a positively weighted L1 distance to
that peak.  ``sp_fuzz`` hunts for profitable misreports; a returned witness
always replays exactly.  Before it weighs a misreport, ``sp_fuzz`` asks
whether some column of the manipulated outcome lies strictly closer to the
peak than the truthful one, deciding sides on order keys; only then does it
compute the two ``utility`` sums.  The pre-test is exact: the gain is the
sum over columns of w_j (|b_j - p_j| - |a_j - p_j|) with every w_j > 0, so
it is positive only if some term is, and the skipped trials are exactly
those that could find no gain.  It refuses an outcome of another shape or
domain as ``utility`` does, with the same error at the same trial.
``check_uncompromising`` tests the bracketing
property that characterizes the deviation-proof rules: a unilateral change
either leaves the output alone or moves it so that both outputs stay
between the mover's old and new positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Domain, EndpointMultiset, Profile, as_integer, as_rationals, between, distinct_sorted, less, order_key, shown
)
from .errors import DomainMismatch, ShapeMismatch, VocaggError
from .rules import Rule
from .sampling import (
    AxiomReport,
    _draw,
    first_hit,
    lattice_rows,
    random_picks,
    random_profile,
    random_weights,
    refine,
    rule_hooks,
    sampled_report,
    sampling_shape,
)


@dataclass(frozen=True)
class SinglePeakedPreference:
    """Weighted L1 disutility around a most-preferred endpoint multiset."""

    peak: EndpointMultiset
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", as_rationals(self.weights))
        if len(self.weights) != self.peak.m:
            raise ShapeMismatch(
                f"{len(self.weights)} weights for {self.peak.m} boundaries"
            )
        for w in self.weights:
            if w <= 0:
                raise VocaggError(f"weights must be positive, got {shown(w)}")


def _comparable(peak: EndpointMultiset, endpoints: EndpointMultiset) -> None:
    """Refuse ``endpoints`` of another shape or domain than ``peak``."""
    if endpoints.m != peak.m:
        raise ShapeMismatch(f"utility of {endpoints.m} boundaries under a peak with {peak.m}")
    if endpoints.domain != peak.domain:
        raise DomainMismatch("utility across different domains")


def utility(
    preference: SinglePeakedPreference, endpoints: EndpointMultiset
) -> Fraction:
    """Negative weighted L1 distance from the peak; higher is better."""
    _comparable(preference.peak, endpoints)
    return -sum(
        w * abs(v - p)
        for w, v, p in zip(preference.weights, endpoints.values, preference.peak.values)
    )


@dataclass(frozen=True)
class ManipulationWitness:
    """A profitable misreport, stored with everything needed to replay it."""

    agent: int
    preference: SinglePeakedPreference
    profile: Profile
    misreport: EndpointMultiset
    truthful_outcome: EndpointMultiset
    manipulated_outcome: EndpointMultiset
    gain: Fraction

    def replay(self, rule: Rule) -> Fraction:
        """Recompute the gain from scratch; must reproduce ``gain`` exactly."""
        truthful = rule(self.profile)
        manipulated = rule(self.profile.with_row(self.agent, self.misreport))
        if truthful != self.truthful_outcome or manipulated != self.manipulated_outcome:
            raise AssertionError("witness outcomes do not replay")
        return utility(self.preference, manipulated) - utility(self.preference, truthful)


@dataclass(frozen=True)
class UncompromisingVerdict:
    """Outcome of one unilateral-deviation bracketing check."""

    case: str  # "unchanged" | "bracketed" | "violated"
    boundary: int
    outcome: EndpointMultiset
    deviated_outcome: EndpointMultiset


def check_uncompromising(
    rule: Rule,
    profile: Profile,
    agent: int,
    deviation: EndpointMultiset,
    boundary: int,
) -> UncompromisingVerdict:
    """Test the bracketing property at one boundary for one deviation.

    With f the outcome and f' the outcome after agent ``agent`` switches to
    ``deviation``, the property asks for (a) f' = f, or both (b) f^k lies
    between the agent's old position and f'^k and (c) f'^k lies between the
    agent's new position and f^k.
    """
    boundary = as_integer(boundary)
    if not 1 <= boundary <= profile.m:
        raise ShapeMismatch(f"boundary {boundary} outside 1..{profile.m}")
    outcome = rule(profile)
    deviated_outcome = rule(profile.with_row(agent, deviation))
    if outcome == deviated_outcome:
        return UncompromisingVerdict("unchanged", boundary, outcome, deviated_outcome)
    k = boundary
    old_position = profile.row(agent).values[k - 1]
    new_position = deviation.values[k - 1]
    old_out, new_out = outcome.values[k - 1], deviated_outcome.values[k - 1]
    bracketed = between(old_position, old_out, new_out) and between(
        new_position, new_out, old_out
    )
    case = "bracketed" if bracketed else "violated"
    return UncompromisingVerdict(case, boundary, outcome, deviated_outcome)


def _closer_somewhere(
    peak: EndpointMultiset, truthful: EndpointMultiset, manipulated: EndpointMultiset
) -> bool:
    """Whether some column of ``manipulated`` lies strictly closer to ``peak``
    than the same column of ``truthful``, after ``utility``'s checks of both
    (``manipulated`` first).

    A column of ``truthful`` above its peak p is beaten by a value below it
    that does not cross p, and one that crosses p only if it lands nearer;
    below p the mirror image holds.  The sides are decided on order keys
    through ``core.less``, and only a value that crosses p is measured, in
    ``Fraction`` arithmetic.
    """
    _comparable(peak, manipulated)
    _comparable(peak, truthful)
    for p, b, a, key_p, key_b, key_a in zip(
        peak.values, truthful.values, manipulated.values, peak.keys, truthful.keys, manipulated.keys
    ):
        if less(p, b, key_p, key_b):
            if less(a, b, key_a, key_b) and (not less(a, p, key_a, key_p) or p - a < b - p):
                return True
        elif less(b, p, key_b, key_p):
            if less(b, a, key_b, key_a) and (not less(p, a, key_p, key_a) or a - p < p - b):
                return True
    return False


def _targeted_values(
    rule: Rule, profile: Profile
) -> tuple[Fraction, ...]:
    """Misreport values that historically break manipulable rules: the
    distinct corners, reports and phantoms, in increasing order.

    They are deduplicated and sorted on order keys (``core.distinct_sorted``),
    with the keys the corners and the reports already carry.
    """
    domain = profile.domain
    pool = list(zip(domain.keys, (domain.lower, domain.upper)))
    for row in profile.rows:
        pool += zip(row.keys, row.values)
    for column in rule_hooks(rule).phantom_columns(profile.n, profile.m, domain):
        pool += [(order_key(q), q) for q in column]
    return tuple([q for _, q in distinct_sorted(pool)])


def sp_fuzz(
    rule: Rule,
    trials: int,
    seed: int,
    deviation_grid: int = 16,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> Optional[ManipulationWitness]:
    """Search for a profitable unilateral misreport under sincere peaks.

    Each trial draws a profile, an agent with a random positively weighted
    preference peaked at their sincere report, and one deviation: either a
    single boundary moved to a targeted value (another agent's endpoint, a
    phantom, a corner, or a lattice point) or an entirely fresh row.  The
    first profitable deviation is verified by replay and returned.
    """
    if as_integer(deviation_grid) < 2:
        raise VocaggError(f"deviation grid must be at least 2, got {deviation_grid}")
    n, m, domain = sampling_shape(rule, n, m, domain)

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, denominator=deviation_grid)
        agent = _draw(rng, 1, n)
        sincere, weights = profile.row(agent), random_weights(rng, m)
        peak = sincere.values
        if rng.random() < 1 / 2:
            pool = _targeted_values(rule, profile)
            target = pool[_draw(rng, 0, len(pool) - 1)]  # drawn before the column it replaces
            pairs = list(zip(sincere.keys, peak))
            pairs[_draw(rng, 1, m) - 1] = (order_key(target), target)
            pairs.sort()  # on keys, and on values only where keys tie (``distinct_sorted``)
            # checked: a phantom outside the domain, from a rule's own hook, is refused as a report
            misreport = EndpointMultiset._from_valid(
                domain, tuple([q for _, q in pairs]), tuple([key for key, _ in pairs])
            )._check()
        else:
            picks = random_picks(rng, 1, m, deviation_grid, ends=True)
            (misreport,) = lattice_rows(domain, deviation_grid, picks)
        if misreport.values == peak:
            return None
        truthful_outcome = rule(profile)
        manipulated_outcome = rule(profile.with_row(agent, misreport))
        if not _closer_somewhere(sincere, truthful_outcome, manipulated_outcome):
            return None  # no column moved closer to the peak, so no positive weighting gains
        preference = SinglePeakedPreference(sincere, weights)
        gain = utility(preference, manipulated_outcome) - utility(
            preference, truthful_outcome
        )
        if gain > 0:
            witness = ManipulationWitness(
                agent,
                preference,
                profile,
                misreport,
                truthful_outcome,
                manipulated_outcome,
                gain,
            )
            if witness.replay(rule) != gain:
                raise AssertionError("manipulation witness failed to replay")
            return witness
        return None

    hit = first_hit(trials, seed, "sp-fuzz", trial)
    return None if hit is None else hit[1]


def uncompromising_fuzz(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> Optional[UncompromisingVerdict]:
    """Sample unilateral deviations and return the first bracketing failure."""
    n, m, domain = sampling_shape(rule, n, m, domain)

    def trial(rng, t):
        profile = random_profile(rng, domain, n, m, denominator=16)
        agent = _draw(rng, 1, n)
        (deviation,) = lattice_rows(domain, 16, random_picks(rng, 1, m, 16, ends=True))
        boundary = _draw(rng, 1, m)
        verdict = check_uncompromising(rule, profile, agent, deviation, boundary)
        return verdict if verdict.case == "violated" else None

    hit = first_hit(trials, seed, "uncompromising", trial)
    return None if hit is None else hit[1]


def check_separability_on_deviations(
    rule: Rule,
    trials: int,
    seed: int,
    *,
    domain: Optional[Domain] = None,
    n: Optional[int] = None,
    m: Optional[int] = None,
) -> AxiomReport:
    """Resampling the other columns must not move f^k for a columnwise rule.

    Each trial fixes one column of a random profile on the 16-step lattice
    and redraws everything else row by row, on the 16 * 16-step lattice,
    within the brackets that keep the rows sorted.  The pooled-multiset rule
    fails this quickly; columnwise rules never do.
    """
    n, m, domain = sampling_shape(rule, n, m, domain)

    def trial(rng, t):
        picks = random_picks(rng, n, m, 16)
        profile = Profile._from_valid(lattice_rows(domain, 16, picks))
        k = _draw(rng, 1, m)
        rows = []
        for row in picks:
            pivot = row[k - 1]
            left, right = refine(rng, 0, pivot, k - 1, 16), refine(rng, pivot, 16, m - k, 16)
            rows.append(left + [16 * pivot] + right)
        resampled = Profile._from_valid(lattice_rows(domain, 16 * 16, rows))
        before = rule(profile).values[k - 1]
        after = rule(resampled).values[k - 1]
        if before == after:
            return None
        return {
            "profile": profile.values(),
            "resampled": resampled.values(),
            "column": k,
            "before": before,
            "after": after,
        }

    return sampled_report("separability", trials, seed, "separability", trial)
