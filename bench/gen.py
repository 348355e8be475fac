"""Seeded inputs for the benchmark.

Every input is a pure function of the benchmark seed and a block index, so
one seed gives byte-identical documents and argv.  Which shapes, forms and
rule families a block holds is fixed; the seed draws only the values, so
the input mix, and with it the cost of a block, is the same for every seed.
Nothing here imports vocagg.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction as F

from oracle import HOLDS, KNOWN_ANSWERS, exemplar_pipeline, median_positions, rstr

FAMILIES = ("median", "p", "emed", "mean", "multiset", "dictator")
COMBOS = tuple(
    (form, family) for form in ("endpoints", "extents") for family in FAMILIES
) + (("exemplars", "median"), ("exemplars", "p"))
LATTICE_CLASSES = ("16", "64", "dec")



def interleave(*groups):
    """Merge groups so that each one's items are spread evenly through the
    result: every kind of item then meets the machine in every state a run
    passes through, not in one stretch of it."""
    keyed = [((i + 0.5) / len(g), k, item) for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda entry: entry[:2])]


# One aggregate block: (n, m, form, family, value-class index).  Small
# documents are most of the count, the 1001-agent ones most of the time.
BLOCK = interleave(
    [(3, 3, *COMBOS[i % len(COMBOS)], i % 3) for i in range(196)],
    [(101, 9, *COMBOS[i % len(COMBOS)], i % 3) for i in range(42)],
    [(1001, 9, "endpoints", family, i % 3) for i, family in enumerate(FAMILIES)],
)


def rng(seed: int, *tags: object) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


@functools.cache
def primes(lo: int = 1_000_000, hi: int = 1_250_000) -> tuple[int, ...]:
    """The primes in [lo, hi): about 17,600 denominators near 10^6."""
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return tuple(i for i in range(lo, hi) if sieve[i])


def fmt(value: F, cls: str) -> str:
    """Document text of a value: README-style decimals for the "dec" class."""
    if cls == "dec":
        hundredths = int(value * 100)
        return f"{hundredths // 100}.{hundredths % 100:02d}"
    return rstr(value)


def draw(r: random.Random, cls: str, count: int, interior: bool = False) -> list[F]:
    """Values of one class: lattice j/16 or j/64 on (0, 1), hundredths on
    (0, 100), or, for "prime", each value over its own prime near 10^6."""
    if cls == "prime":
        return [F(r.randint(1, p - 1), p) for p in r.sample(primes(), count)]
    steps, scale = (10_000, 100) if cls == "dec" else (int(cls), int(cls))
    lo, hi = (1, steps - 1) if interior else (0, steps)
    return [F(r.randint(lo, hi), scale) for _ in range(count)]


def domain_of(cls: str) -> tuple[F, F]:
    return (F(0), F(100)) if cls == "dec" else (F(0), F(1))


def sorted_rows(r, cls, n, m, lower, upper, interior=False):
    """n sorted rows, each with an interior value (so at least two words)."""
    rows = []
    while len(rows) < n:
        row = tuple(sorted(draw(r, cls, m, interior)))
        if any(lower < v < upper for v in row):
            rows.append(row)
    return rows


def pick_rule(r, family, n, m, cls, lower, upper):
    """(oracle rule, rule text handed to vocagg)."""
    if family == "median":
        return ("p", median_positions(n, m)), "median"
    if family == "p":
        positions = tuple(sorted(r.randint(1, n) for _ in range(m)))
        return ("p", positions), "p:" + ",".join(map(str, positions))
    if family == "emed":
        phantom_rows = sorted_rows(r, cls, n - 1, m, lower, upper)
        columns = tuple(tuple(sorted(c)) for c in zip(*phantom_rows))
        text = json.dumps(
            {"kind": "extended-median", "columns": [[fmt(q, cls) for q in c] for c in columns]}
        )
        return ("emed", columns), text
    if family == "dictator":
        agent = r.randint(1, n)
        return ("dictator", agent), f"dictator:{agent}"
    return (family, None), family


def profile_spec(r, n, m, form, family, cls) -> dict:
    """One profile document with its exact contents and rule."""
    lower, upper = domain_of(cls)
    words = [f"w{j}" for j in range(m + 1)]
    spec = dict(form=form, family=family, cls=cls, n=n, m=m, lower=lower, upper=upper, words=words)
    payload = {"domain": {"lower": rstr(lower), "upper": rstr(upper)}, "words": words}
    if form == "exemplars":
        count = 8 if m <= 3 else 12
        for _ in range(100):
            exemplars = sorted(set(draw(r, cls, count, interior=True)))
            labels = [sorted(r.randint(0, m) for _ in exemplars) for _ in range(n)]
            spec["rule"], spec["rule_text"] = pick_rule(r, family, n, m, cls, lower, upper)
            spec.update(exemplars=exemplars, labels=labels)
            try:
                exemplar_pipeline(spec)
                break
            except ValueError:
                continue
        else:
            raise RuntimeError("no valid exemplar document in 100 draws")
        payload["exemplars"] = [fmt(e, cls) for e in exemplars]
        payload["agents"] = [{"exemplar_labels": [words[w] for w in lab]} for lab in labels]
    else:
        rows = sorted_rows(r, cls, n, m, lower, upper, interior=cls == "prime")
        spec["rows"] = rows
        spec["rule"], spec["rule_text"] = pick_rule(r, family, n, m, cls, lower, upper)
        if form == "endpoints":
            payload["agents"] = [{"endpoints": [fmt(v, cls) for v in row]} for row in rows]
        else:
            payload["agents"] = [
                {"extents": {w: _extent(row, j, lower, upper, cls) for j, w in enumerate(words)}}
                for row in rows
            ]
    spec["text"] = json.dumps(payload)
    return spec


def _extent(row, j, lower, upper, cls):
    bounds = (lower, *row, upper)
    a, b = bounds[j], bounds[j + 1]
    return [fmt(a, cls), fmt(b, cls)] if a < b else None


def aggregate_block(seed: int, workload: str, b: int) -> list[dict]:
    """Block ``b`` of an aggregate workload: the BLOCK slots with seeded values."""
    r = rng(seed, workload, b)
    classes = ("prime",) if workload == "aggregate-coprime" else LATTICE_CLASSES
    return [
        profile_spec(r, n, m, form, family, classes[c % len(classes)])
        for n, m, form, family, c in BLOCK
    ]


# ---------------------------------------------------------------------------
# checkers: one rotation of (checker, rule id, trial budget) calls

STRATEGY_RULES = ("median", "p-1,2,3", "emed-corner", "emed-interior", "mean")
FIXTURES = ("inf-rule", "dictator", "mean", "discontinuous-rule")
# Trials per call.  A battery runs all four axioms, so a fixture's three
# holding axioms spend the whole budget; 60 finds the rarest sampled
# violation here (the jump fixture on tied columns) with a miss chance far
# below 1e-6.  The other checkers stop at their first witness, so calls
# whose known answer is a violation get VIOLATION_CAP trials instead.
BUDGET = {
    "run_axiom_battery": 60,
    "sp_fuzz": 100,
    "uncompromising_fuzz": 100,
    "check_separability_on_deviations": 100,
    "check_strict_responsiveness": 100,
    "search_extent_violation": 60,
}
ROTATION = interleave(
    [("run_axiom_battery", rule) for rule in STRATEGY_RULES + ("multiset",)]
    + [("run_axiom_battery", f"fixture:{name}") for name in FIXTURES],
    [("sp_fuzz", rule) for rule in STRATEGY_RULES],
    [("uncompromising_fuzz", rule) for rule in STRATEGY_RULES],
    [("check_separability_on_deviations", rule) for rule in STRATEGY_RULES + ("multiset",)],
    [("check_strict_responsiveness", rule) for rule in STRATEGY_RULES],
    [("search_extent_violation", f"extent:{p}") for p in ("3,3,3", "2,3,4", "3,3,5")],
)


VIOLATION_CAP = 1000


def budget(checker: str, rule: str) -> int:
    if checker == "run_axiom_battery" or KNOWN_ANSWERS[(rule, checker)] == HOLDS:
        return BUDGET[checker]
    return VIOLATION_CAP


def checker_calls(seed: int, r: int) -> list[tuple[str, str, int, int]]:
    """Rotation ``r``: (checker, rule id, trials, checker seed) per call."""
    draws = rng(seed, "checkers", r)
    return [(checker, rule, budget(checker, rule), draws.getrandbits(31)) for checker, rule in ROTATION]


# ---------------------------------------------------------------------------
# command line: one rotation of invocations over small documents

def cli_rotation(seed: int, r: int) -> tuple[dict, list[dict]]:
    """Rotation ``r``: the files to write and the invocations to make.

    Each item has its argv (after ``python -m vocagg.cli``), the exit code
    a correct program gives (2 for bad input, 1 only for a real violation),
    and what its output is checked against.
    """
    R = rng(seed, "cli", r)
    grades = profile_spec(R, 3, 4, "endpoints", "median", "dec")
    extents = profile_spec(R, 5, 3, "extents", "multiset", "16")
    observations = profile_spec(R, 3, 3, "exemplars", "median", "64")
    emed, _ = pick_rule(R, "emed", 3, 4, "dec", grades["lower"], grades["upper"])
    positions = tuple(sorted(R.randint(1, 3) for _ in range(4)))
    agent = R.randint(1, 3)
    s = str(R.getrandbits(16))

    bad_label = json.loads(observations["text"])
    first = bad_label["agents"][0]["exemplar_labels"]
    first[0] = [first[0]]
    unsorted = json.loads(grades["text"])
    unsorted["agents"][0]["endpoints"] = ["60", "40", "20", "10"]
    files = {
        "grades.json": grades["text"],
        "extents.json": extents["text"],
        "observations.json": observations["text"],
        "phantoms.json": json.dumps([[fmt(q, "dec") for q in c] for c in emed[1]]),
        "broken.json": grades["text"][: len(grades["text"]) // 2],
        "unsorted.json": json.dumps(unsorted),
        "flat-phantoms.json": "[1, 2, 3, 4]",
        "bad-label.json": json.dumps(bad_label),
    }

    def result(rule, spec=grades):
        return ("result", dict(spec, rule=rule))

    agg = ["aggregate", "--input", "grades.json", "--rule"]
    items = [
        ("aggregate-median", agg + ["median"], 0, result(("p", median_positions(3, 4)))),
        ("aggregate-mean", agg + ["mean"], 0, result(("mean", None))),
        ("aggregate-p", agg + ["p:" + ",".join(map(str, positions))], 0, result(("p", positions))),
        ("aggregate-emed", agg + ["emed:phantoms.json"], 0, result(emed)),
        ("aggregate-dictator", agg + [f"dictator:{agent}"], 0, result(("dictator", agent))),
        (
            "aggregate-extents-multiset",
            ["aggregate", "--input", "extents.json", "--rule", "multiset"],
            0,
            result(("multiset", None), extents),
        ),
        ("induce-median", ["induce", "--input", "observations.json"], 0, ("induce", observations)),
        ("render-ascii", ["render", "--input", "grades.json"], 0, ("ascii", grades)),
        (
            "render-svg",
            ["render", "--input", "grades.json", "--rule", "median", "--format", "svg"],
            0,
            ("svg", grades),
        ),
        # the four checker calls are the slow fifth of a rotation, sized alike
        # so that the p90 of a run falls inside that group, not at its edge
        ("axioms-median", ["axioms", "--rule", "median", "--trials", "60", "--seed", s], 0, ("axioms", "median")),
        ("axioms-mean", ["axioms", "--rule", "mean", "--trials", "60", "--seed", s], 1, ("axioms", "mean")),
        ("sp-check-median", ["sp-check", "--rule", "median", "--trials", "200", "--seed", s], 0, ("sp-check", "median")),
        ("sp-check-p", ["sp-check", "--rule", "p:1,2,3", "--trials", "200", "--seed", s], 0, ("sp-check", "p-1,2,3")),
        # the mean stops at its first witness; the cap only bounds the search
        ("sp-check-mean", ["sp-check", "--rule", "mean", "--trials", "1000", "--seed", s], 1, ("sp-check", "mean")),
        ("error-malformed-json", ["aggregate", "--rule", "median", "--input", "broken.json"], 2, None),
        ("error-unknown-rule", agg + ["trimmed-mean"], 2, None),
        ("error-missing-rule", ["aggregate", "--input", "grades.json"], 2, None),
        ("error-unsorted-endpoints", ["aggregate", "--rule", "median", "--input", "unsorted.json"], 2, None),
        ("defect-sp-check-grid-0", ["sp-check", "--rule", "median", "--grid", "0", "--trials", "40", "--seed", s], 2, None),
        ("defect-axioms-negative-trials", ["axioms", "--rule", "median", "--trials", "-5"], 2, None),
        ("defect-emed-flat-phantoms", agg + ["emed:flat-phantoms.json"], 2, None),
        ("defect-exemplar-label-not-string", ["induce", "--input", "bad-label.json"], 2, None),
    ]
    keys = ("name", "argv", "expect", "check")
    items = [dict(zip(keys, item)) for item in items]
    heavy = [item for item in items if item["name"] in HEAVY_CLI]
    return files, interleave([item for item in items if item["name"] not in HEAVY_CLI], heavy)


HEAVY_CLI = ("axioms-median", "axioms-mean", "sp-check-median", "sp-check-p")
