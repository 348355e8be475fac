"""Independent reference for every output the benchmark checks.

Nothing here imports vocagg.  Aggregation outputs are recomputed from the
definitions: order statistics of sorted Fraction columns, the median of a
column pooled with phantom values, the mean, the pooled multiset and the
dictator.  Exemplar documents go through hulls, gaps and a lexicographic
positional selection.  Checker verdicts come from the known-answer table,
which follows the theory rather than the code: position rules and
corner-phantom extended medians are strategy-proof and uncompromising
(Moulin 1980; Border & Jordan 1983), interior phantoms do not move with a
relabeling of the line, the mean is manipulable, the pooled multiset is not
separable, and each fixture breaks exactly the axiom it is named for.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F

HOLDS, VIOLATED = "holds", "violated"
BATTERY = ("unanimity", "anonymity", "stability", "continuity")


def rstr(value: F) -> str:
    """Canonical text of an exact value: ``"p/q"``, or ``"p"`` for integers.

    Exact means of values over distinct large primes run to thousands of
    digits, past the interpreter's default int-to-text limit; the reference
    lifts that limit for its own conversion only and restores it at once.
    """
    value = F(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def pair(extent):
    return None if extent is None else [rstr(extent[0]), rstr(extent[1])]


# ---------------------------------------------------------------------------
# aggregation rules


def median_positions(n: int, m: int) -> tuple[int, ...]:
    """Lower median rank on the first half of the boundaries, upper after."""
    low, high = (n + 1) // 2, n // 2 + 1
    return tuple(low if k <= (m + 1) // 2 else high for k in range(1, m + 1))


def rule_output(rows, rule) -> list[F]:
    """Collective endpoints of ``rule`` = (kind, parameter) on exact rows."""
    kind, param = rule
    n = len(rows)
    columns = [list(column) for column in zip(*rows)]
    if kind == "p":
        return [sorted(column)[p - 1] for column, p in zip(columns, param)]
    if kind == "emed":
        return [sorted(column + list(ph))[n - 1] for column, ph in zip(columns, param)]
    if kind == "mean":
        return [sum(column, F(0)) / n for column in columns]
    if kind == "multiset":
        pooled = sorted(v for row in rows for v in row)
        return [pooled[k * n + (n - 1) // 2] for k in range(len(columns))]
    if kind == "dictator":
        return list(rows[param - 1])
    raise ValueError(f"unknown rule kind {kind!r}")


def descriptor(rule) -> dict:
    """The rule descriptor a result document carries."""
    kind, param = rule
    if kind == "p":
        return {"kind": "p-rule", "positions": list(param)}
    if kind == "emed":
        return {"kind": "extended-median", "columns": [[rstr(q) for q in c] for c in param]}
    if kind == "dictator":
        return {"kind": "dictator", "agent": param}
    return {"kind": kind}


def extents_of(endpoints, lower, upper):
    """Word j spans [s_j, s_(j+1)); coinciding boundaries leave it inactive."""
    bounds = [lower, *endpoints, upper]
    return [(a, b) if a < b else None for a, b in zip(bounds, bounds[1:])]


def domain_json(spec) -> dict:
    return {"lower": rstr(spec["lower"]), "upper": rstr(spec["upper"])}


def expected_result(spec) -> dict:
    """The result document of an endpoint or extent profile document."""
    out = rule_output(spec["rows"], spec["rule"])
    words = spec["words"]
    return {
        "rule": descriptor(spec["rule"]),
        "domain": domain_json(spec),
        "words": list(words),
        "endpoints": [rstr(v) for v in out],
        "vocabulary": {
            w: pair(e) for w, e in zip(words, extents_of(out, spec["lower"], spec["upper"]))
        },
        "reports": [],
        "witnesses": [],
    }


# ---------------------------------------------------------------------------
# exemplar pipeline: hull -> gap -> lexicographic positional selection


def hulls(exemplars, labels, m, lower, upper):
    """Closed hull of each word's observations; end words reach the corners."""
    hull = [None] * (m + 1)
    for e, w in zip(exemplars, labels):
        hull[w] = (e, e) if hull[w] is None else (hull[w][0], e)
    if hull[0] is not None:
        hull[0] = (lower, hull[0][1])
    if hull[m] is not None:
        hull[m] = (hull[m][0], upper)
    return hull


def gaps(hull, lower, upper):
    """Gap k runs from the last known word below k to the first at or above."""
    m = len(hull) - 1
    out = []
    for k in range(1, m + 1):
        left = next((h[1] for h in reversed(hull[:k]) if h is not None), lower)
        right = next((h[0] for h in hull[k:] if h is not None), upper)
        out.append((left, right))
    return out


def attribute(collective, lower, upper):
    """Segments a collective gap sequence pins down, word by word."""
    m = len(collective)

    def segment(lo, hi):
        if lo > hi or (lo == hi and not lower < lo < upper):
            return None
        return (lo, hi)

    first, last = collective[0][0], collective[-1][1]
    words = [segment(lower, first) if first > lower else None]
    for j in range(1, m):
        a, b = collective[j - 1], collective[j]
        words.append(None if a == b else segment(a[1], b[0]))
    words.append(segment(last, upper) if last < upper else None)
    return words


def exemplar_pipeline(spec):
    """Per-agent hulls and gaps, collective gaps and attribution.

    Raises ValueError when the selection is not a valid gap sequence or the
    attribution is out of order; the generator redraws such documents.
    """
    lower, upper, m = spec["lower"], spec["upper"], spec["m"]
    agent_hulls = [hulls(spec["exemplars"], lab, m, lower, upper) for lab in spec["labels"]]
    agent_gaps = [gaps(h, lower, upper) for h in agent_hulls]
    positions = spec["rule"][1]
    collective = [
        sorted(row[k] for row in agent_gaps)[p - 1] for k, p in enumerate(positions)
    ]
    for (l1, r1), (l2, r2) in zip(collective, collective[1:]):
        if l1 > l2 or r1 > r2:
            raise ValueError("collective gaps decrease")
    words = attribute(collective, lower, upper)
    known = [e for e in words if e is not None]
    for a, b in zip(known, known[1:]):
        if a[1] > b[0]:
            raise ValueError("attributed extents out of order")
    return agent_hulls, agent_gaps, collective, words


def expected_induce(spec) -> dict:
    """The document ``vocagg induce --order lex`` writes for an exemplar document."""
    agent_hulls, agent_gaps, collective, words = exemplar_pipeline(spec)
    names = spec["words"]
    return {
        "rule": descriptor(spec["rule"]),
        "order": "lex",
        "domain": domain_json(spec),
        "words": list(names),
        "agents": [
            {"extents": {w: pair(e) for w, e in zip(names, h)}, "gaps": [pair(g) for g in gs]}
            for h, gs in zip(agent_hulls, agent_gaps)
        ],
        "collective_gaps": [pair(g) for g in collective],
        "vocabulary": {w: pair(e) for w, e in zip(names, words)},
    }


def expected(spec) -> dict:
    return expected_induce(spec) if spec["form"] == "exemplars" else expected_result(spec)


# ---------------------------------------------------------------------------
# checkers: the known-answer table and independent witness replays

UNIT = (F(0), F(1))
INTERIOR_PHANTOMS = ((F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)))
# rule id -> (kind, parameter) for the rules whose witnesses are replayed
RULES = {
    "emed-interior": ("emed", INTERIOR_PHANTOMS),
    "mean": ("mean", None),
    "multiset": ("multiset", None),
}

FIXTURE_TARGETS = {
    "inf-rule": "unanimity",
    "dictator": "anonymity",
    "mean": "stability",
    "discontinuous-rule": "continuity",
}


def _battery(violated=()):
    return {axiom: VIOLATED if axiom in violated else HOLDS for axiom in BATTERY}


def _known_answers() -> dict:
    table = {}
    strategy_proof = ("median", "p-1,2,3", "emed-corner", "emed-interior")
    for rule in strategy_proof:
        table[(rule, "run_axiom_battery")] = _battery(
            ("stability",) if rule == "emed-interior" else ()
        )
        table[(rule, "sp_fuzz")] = HOLDS
        table[(rule, "uncompromising_fuzz")] = HOLDS
        table[(rule, "check_separability_on_deviations")] = HOLDS
        # an interior phantom pins a tied column: raising every report
        # slightly leaves the pooled median on the phantom
        table[(rule, "check_strict_responsiveness")] = (
            VIOLATED if rule == "emed-interior" else HOLDS
        )
    table[("mean", "run_axiom_battery")] = _battery(("stability",))
    table[("mean", "sp_fuzz")] = VIOLATED
    table[("mean", "uncompromising_fuzz")] = VIOLATED
    table[("mean", "check_separability_on_deviations")] = HOLDS
    table[("mean", "check_strict_responsiveness")] = HOLDS
    # pooled order statistics are unanimous, anonymous, commute with
    # increasing relabelings and are 1-Lipschitz, but not columnwise
    table[("multiset", "run_axiom_battery")] = _battery()
    table[("multiset", "check_separability_on_deviations")] = VIOLATED
    for name, axiom in FIXTURE_TARGETS.items():
        table[(f"fixture:{name}", "run_axiom_battery")] = _battery((axiom,))
    # majoritarian extents at n = 5: only the median rank 3 is in the band
    table[("extent:3,3,3", "search_extent_violation")] = HOLDS
    table[("extent:2,3,4", "search_extent_violation")] = VIOLATED
    table[("extent:3,3,5", "search_extent_violation")] = VIOLATED
    return table


KNOWN_ANSWERS = _known_answers()


def utility(weights, peak, outcome) -> F:
    return -sum(w * abs(v - p) for w, v, p in zip(weights, outcome, peak))


def manipulation_replays(rows, agent, weights, misreport, gain, rule=("mean", None)) -> bool:
    """Recompute a manipulation witness: the misreport must gain exactly ``gain``."""
    truthful = rule_output(rows, rule)
    moved = list(rows)
    moved[agent - 1] = tuple(misreport)
    manipulated = rule_output(moved, rule)
    peak = rows[agent - 1]
    replayed = utility(weights, peak, manipulated) - utility(weights, peak, truthful)
    return replayed == gain and replayed > 0


def extent_witness_holds(positions, witness) -> bool:
    """A majority gives word ``word`` all of (a, b); the position rule does not."""
    rows = [tuple(r) for r in witness["profile"]]
    word, a, b = witness["word"], witness["a"], witness["b"]
    lower, upper = UNIT

    def covers(endpoints):
        bounds = [lower, *endpoints, upper]
        return bounds[word] <= a and b <= bounds[word + 1]

    supporters = [i for i, row in enumerate(rows, start=1) if covers(row)]
    out = rule_output(rows, ("p", positions))
    return 2 * len(supporters) >= len(rows) + 1 and not covers(out)


def separability_witness_holds(witness, rule) -> bool:
    """Resampling other columns moved f^k although column k stayed fixed."""
    k = witness["column"]
    before_rows = [tuple(r) for r in witness["profile"]]
    after_rows = [tuple(r) for r in witness["resampled"]]
    same_column = all(x[k - 1] == y[k - 1] for x, y in zip(before_rows, after_rows))
    before = rule_output(before_rows, rule)[k - 1]
    after = rule_output(after_rows, rule)[k - 1]
    return same_column and before == witness["before"] and after == witness["after"] and before != after


def responsiveness_witness_holds(witness, phantoms) -> bool:
    """Every report in one column rose, the pooled median did not."""
    if "column_index" in witness:  # a column pinned at one phantom
        k = witness["column_index"]
        column, shifted = list(witness["column"]), list(witness["shifted_column"])
        n = len(column)
        before = sorted(column + list(phantoms[k - 1]))[n - 1]
        after = sorted(shifted + list(phantoms[k - 1]))[n - 1]
    else:  # one column of a random profile raised
        k = witness["column"]
        rows = [tuple(r) for r in witness["profile"]]
        raised = [tuple(r) for r in witness["raised"]]
        column, shifted = [r[k - 1] for r in rows], [r[k - 1] for r in raised]
        before = tuple(rule_output(rows, ("emed", phantoms)))
        after = tuple(rule_output(raised, ("emed", phantoms)))
        if (before, after) != (tuple(witness["before"]), tuple(witness["after"])):
            return False
        before, after = before[k - 1], after[k - 1]
        witness = {"before": before, "after": after}
    rose = all(x < y for x, y in zip(column, shifted))
    return rose and (before, after) == (witness["before"], witness["after"]) and not before < after
