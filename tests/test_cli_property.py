"""Every command line ends in 0, 1 or 2, never in a traceback.

Generated argv for all five commands over valid and mutated documents,
rule strings and extended-median files, with numerals and integer literals
around and far past the 20,000-digit bound.  Exit 1 is reserved for violation
witnesses, exit 2 comes with exactly one ``error:`` line, and exit 3 (an
internal error) never happens.  Run more examples with
``--hypothesis-profile=ci``.
"""

import contextlib
import copy
import io
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings, strategies as st

from vocagg.cli import main

MAX_N = MAX_M = 6
MAX_TRIALS = 3

# numerals around and far past the 20,000-digit bound: long digit runs and
# exponents up to 10**9
HUGE = st.one_of(
    st.integers(19_990, 40_000).map(lambda k: "7" * k),
    st.integers(19_990, 40_000).map(lambda k: "1/" + "3" * k),
    st.integers(-(10**9), 10**9).map(lambda e: f"1e{e}"),
)
# JSON integer literals around the bound; ``json.dumps`` cannot write an int
# past the interpreter's int-to-text limit, so a marker stands in for each
HUGE_INTS = st.integers(19_990, 20_010).map(lambda k: f"<{k}-digit integer literal>")

# JSON values a mutation may put anywhere in a document
JUNK = st.sampled_from(
    [None, True, 7, -1, "x", "", "1/0", "0.5", "-3/4", "1e5", [], {}, ["1", "2"], {"lower": "0"}]
) | st.integers(-(10**40) + 1, 10**40 - 1) | st.integers(-(10**40) + 1, 10**40 - 1).map(str) | (
    HUGE | HUGE_INTS
)


def numeral(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@st.composite
def domains(draw):
    lower = F(draw(st.integers(-(10**12), 10**12)), draw(st.integers(1, 10**6)))
    span = F(draw(st.integers(1, 10**12)), draw(st.integers(1, 10**6)))
    return lower, lower + span


@st.composite
def points(draw, domain, count, interior=False, distinct=False):
    """``count`` sorted values of ``domain`` on a lattice."""
    lower, upper = domain
    denominator = draw(st.integers(max(2, count + 1), 10**9))
    first, last = (1, denominator - 1) if interior else (0, denominator)
    ks = draw(
        st.lists(st.integers(first, last), min_size=count, max_size=count, unique=distinct)
    )
    return [lower + (upper - lower) * F(k, denominator) for k in sorted(ks)]


@st.composite
def documents(draw, domain):
    """A profile document in one of the three agent forms, as a JSON object."""
    n = draw(st.integers(1, MAX_N))
    m = draw(st.integers(1, MAX_M))
    lower, upper = domain
    words = [f"w{j}" for j in range(m + 1)]
    doc = {"domain": {"lower": numeral(lower), "upper": numeral(upper)}}
    form = draw(st.sampled_from(["endpoints", "extents", "exemplars"]))
    if form == "endpoints":
        if draw(st.booleans()):
            doc["words"] = words
        doc["agents"] = [
            {"endpoints": [numeral(q) for q in draw(points(domain, m))]} for _ in range(n)
        ]
    elif form == "extents":
        doc["words"] = words
        agents = []
        for _ in range(n):
            bounds = [lower, *draw(points(domain, m)), upper]
            agents.append(
                {
                    "extents": {
                        w: [numeral(a), numeral(b)] if a < b else None
                        for w, a, b in zip(words, bounds, bounds[1:])
                    }
                }
            )
        doc["agents"] = agents
    else:
        count = draw(st.integers(1, 6))
        doc["words"] = words
        doc["exemplars"] = [numeral(q) for q in draw(points(domain, count, True, True))]
        doc["agents"] = [
            {"exemplar_labels": [words[j] for j in sorted(draw(st.lists(
                st.integers(0, m), min_size=count, max_size=count)))]}
            for _ in range(n)
        ]
    return doc


@st.composite
def phantom_files(draw, domain):
    """An extended-median file: columns, an object with them, or something else."""
    m = draw(st.integers(1, MAX_M))
    size = draw(st.integers(0, MAX_N - 1))
    values = [numeral(q) for q in draw(points(domain, m * size))]
    columns = [[values[i * m + k] for i in range(size)] for k in range(m)]
    return draw(
        st.sampled_from(
            [
                columns,
                {"columns": columns},
                {"kind": "extended-median", "columns": columns},
                {"kind": "median"},
                {"kind": "dictator", "agent": 1},
                "median",
            ]
        )
    )


def _slots(value, out):
    """Every (container, key) pair inside ``value``, depth first."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return out
    for key in keys:
        out.append((value, key))
        _slots(value[key], out)
    return out


@st.composite
def mutated(draw, payload):
    """``payload`` after up to two edits, as file text (sometimes not even JSON)."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        slots = _slots(payload, [])
        if not slots:
            break
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            container[key] = copy.deepcopy(draw(JUNK))  # JUNK's lists and dicts are shared
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, container[key])
    text = re.sub(
        r'"<(\d+)-digit integer literal>"', lambda match: "9" * int(match[1]), json.dumps(payload)
    )
    cut = draw(st.sampled_from([None] * 7 + [len(text) // 2]))
    return text if cut is None else text[:cut]


@st.composite
def rule_texts(draw):
    return draw(
        st.sampled_from(
            ["median", "median", "median", "mean", "multiset", "fixture:inf-rule",
             "fixture:dictator", "fixture:mean", "fixture:discontinuous-rule",
             "fixture:nope", "trimmed-mean", "", "p:", "dictator:",
             "emed:phantoms.json", "emed:phantoms.json", "emed:missing.json"]
        )
        | st.integers(-1, MAX_N + 1).map(lambda i: f"dictator:{i}")
        | st.integers(19_990, 20_010).map(lambda k: "dictator:" + "9" * k)
        | st.lists(st.integers(0, MAX_N + 1), max_size=MAX_M + 1)
        .map(lambda ps: "p:" + ",".join(map(str, sorted(ps))))
    )


def _shape_flags(draw, domain):
    flags = ["--trials", str(draw(st.integers(1, MAX_TRIALS))),
             "--seed", str(draw(st.integers(0, 2**32)))]
    for flag in ("--n", "--m"):
        if draw(st.booleans()):
            flags += [flag, str(draw(st.integers(1, MAX_M)))]
    if draw(st.booleans()):
        lower, upper = domain
        flags += ["--domain", draw(st.sampled_from([
            f"{numeral(lower)}:{numeral(upper)}", f"{numeral(upper)}:{numeral(lower)}",
            "0:x", "01", "0:1", "-1:1"]) | HUGE.map(lambda q: f"0:{q}"))]
    return flags


@st.composite
def invocations(draw):
    """(argv, files): an argv naming files in the working directory, and their texts."""
    domain = draw(domains())
    files = {
        "doc.json": draw(mutated(draw(documents(domain)))),
        "phantoms.json": draw(mutated(draw(phantom_files(domain)))),
    }
    command = draw(st.sampled_from(["aggregate", "axioms", "sp-check", "induce", "render"]))
    rule = ["--rule", draw(rule_texts())]
    doc = ["--input", draw(st.sampled_from(["doc.json"] * 7 + ["missing.json"]))]
    if command == "aggregate":
        argv = rule + doc
    elif command == "axioms":
        argv = rule + _shape_flags(draw, domain) + (doc if draw(st.booleans()) else [])
    elif command == "sp-check":
        argv = rule + _shape_flags(draw, domain) + ["--grid", str(draw(st.integers(2, 20)))]
    elif command == "induce":
        argv = doc + (rule if draw(st.booleans()) else [])
        argv += ["--order", draw(st.sampled_from(["lex", "right", "midpoint"]))]
    else:
        argv = doc + ["--format", draw(st.sampled_from(["ascii", "svg"]))]
        if draw(st.booleans()):
            argv += ["--agent", str(draw(st.integers(-1, MAX_N + 1)))]
        if draw(st.booleans()):
            argv += rule + ["--order", draw(st.sampled_from(["lex", "right", "midpoint"]))]
    return [command, *argv], files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(deadline=None)
@given(invocation=invocations())
def test_every_invocation_exits_0_1_or_2_with_one_message(invocation, workdir):
    argv, files = invocation
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [str(workdir / arg) if arg in ("doc.json", "missing.json") else arg for arg in argv]
    argv = [arg.replace("emed:", f"emed:{workdir}/", 1) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting a flag
            code = exc.code
    message = err.getvalue()
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert "Traceback" not in message
    assert code in (0, 1, 2), (argv, message)
    if code == 2:
        assert [line for line in message.splitlines() if "error:" in line], message
        assert sum("error:" in line for line in message.splitlines()) == 1, message
    else:
        assert message == ""
    if code == 1:
        assert argv[0] in ("axioms", "sp-check")
