"""The benchmark's four workloads, each driving vocagg through its public API.

A workload hands out blocks of seeded items, runs one item (the timed part),
checks its result against the oracle (untimed), and turns a traced pass
into per-layer numbers.  One caller, one process, a closed loop: an item
starts when the previous one has finished, and each command-line process
runs only after the previous one has exited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import gen
import oracle
from timing import KERNEL, Calibration, Tracer, Untraced

FAMILY_LAYER = {"median": "p", "p": "p", "emed": "emed", "mean": "mean",
                "multiset": "multiset", "dictator": "dictator"}
# Failures this benchmark found at the parent commit.  They count in
# ``failed`` and are named in the report; any other failure makes the run
# incorrect.
KNOWN_DEFECTS = {
    "defect-sp-check-grid-0": "sp-check --grid 0: ValueError traceback, exit 1",
    "defect-axioms-negative-trials": "axioms --trials -5: vacuous pass, exit 0",
    "defect-emed-flat-phantoms": "emed: file [1,2,3,4]: TypeError traceback",
    "defect-exemplar-label-not-string": "exemplar label [\"w0\"]: TypeError traceback",
    "endpoints-mean-n1001": "mean over 1001 distinct primes: the result text passes the "
    "interpreter's 4300-digit int-to-text limit and serialize_result raises ValueError",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    calibration = KERNEL
    chunk_s = 0.15  # measured work between two timings of the calibration task

    def close(self):
        pass

    def units(self, item):
        return 1

    def holds(self, item):
        return True

    def sizes(self, item, result):
        return {}


class Aggregate(Workload):
    """Profile documents through parse -> rule -> result -> JSON, in process."""

    names = ("docs_per_s", "doc_ms_p50", "doc_ms_p90")

    def __init__(self, name, seed, root):
        self.name, self.seed = name, seed

    def setup(self):
        import vocagg

        self.v = vocagg
        if self.name == "aggregate-coprime":
            gen.primes()
        r = gen.rng(self.seed, self.name, "warm-up")
        classes = ("prime",) if self.name == "aggregate-coprime" else gen.LATTICE_CLASSES
        for n, m, form, family, c in gen.BLOCK[: len(gen.COMBOS)]:
            self.run(gen.profile_spec(r, n, m, form, family, classes[c % len(classes)]), Untraced())

    def items(self, b):
        return gen.aggregate_block(self.seed, self.name, b)

    def _rule(self, text, n, m, domain):
        v = self.v
        descriptor = v.load_json(text) if text.startswith("{") else text
        return v.rule_from_descriptor(descriptor, n, m, domain)

    def run(self, spec, t):
        v = self.v
        doc = spec["text"]
        parsed = t("io.parse_profile", v.parse_profile, doc)
        if parsed.kind == "exemplars":
            return self._induce(parsed, spec, t)
        profile = parsed.profile
        if isinstance(t, Tracer):
            t.probe("core.profile_revalidate", v.Profile.from_rows, profile.domain, profile.values())
        rule = t("io.rule_from_descriptor", self._rule, spec["rule_text"], profile.n, profile.m, profile.domain)
        endpoints = t("rules.apply_rule." + FAMILY_LAYER[spec["family"]], v.apply_rule, profile, rule)
        document = t("io.build_result", v.build_result, rule, parsed.words, endpoints)
        return t("io.serialize_result", v.serialize_result, document)

    def _induce(self, parsed, spec, t):
        v = self.v
        m = len(parsed.words) - 1
        rule = t("io.rule_from_descriptor", self._rule, spec["rule_text"], len(parsed.exemplars), m, parsed.domain)
        vocabularies = [t("exemplars.induce", v.induce, ex, m) for ex in parsed.exemplars]
        gap_rows = [t("exemplars.gaps_of", v.gaps_of, vocabulary) for vocabulary in vocabularies]
        gaps = t("exemplars.aggregate_gaps", v.aggregate_gaps, gap_rows, rule.positions, "lex")
        collective = t("exemplars.collective_incomplete", v.collective_incomplete, gaps)
        return t("io.jsonify", self._induce_json, parsed, rule, vocabularies, gap_rows, gaps, collective)

    def _induce_json(self, parsed, rule, vocabularies, gap_rows, gaps, collective):
        """The document ``vocagg induce`` writes, built from public functions."""
        jsonify, words = self.v.jsonify, list(parsed.words)
        payload = {
            "rule": self.v.describe_rule(rule),
            "order": "lex",
            "domain": jsonify({"lower": parsed.domain.lower, "upper": parsed.domain.upper}),
            "words": words,
            "agents": [
                {"extents": dict(zip(words, jsonify(voc.extents))), "gaps": jsonify(g.gaps)}
                for voc, g in zip(vocabularies, gap_rows)
            ],
            "collective_gaps": jsonify(gaps.gaps),
            "vocabulary": dict(zip(words, jsonify(collective.extents))),
        }
        return json.dumps(payload, indent=2) + "\n"

    def label(self, spec):
        return f"{spec['form']}-{spec['family']}-n{spec['n']}"

    def check(self, spec, result):
        if json.loads(result) != oracle.expected(spec):
            return "output differs from the reference"
        return None

    def fingerprint(self, result):
        return digest(result)

    def sizes(self, spec, result):
        values = 0 if spec["form"] == "exemplars" else spec["n"] * spec["m"]
        return {"in": len(spec["text"]), "out": len(result or ""), "values": values}

    def props(self, spec):
        cls = {"16": "lattice-16", "64": "lattice-64", "dec": "decimal-100", "prime": "prime-1e6"}
        return {"n": spec["n"], "m": spec["m"], "denominator": cls[spec["cls"]],
                "form": spec["form"], "family": spec["family"]}

    def throughput(self, ops, raw=False):
        done = sum(1 for op in ops if op.failure is None)
        return done / sum(op.raw if raw else op.latency for op in ops)

    def layers(self, tracer, ops):
        totals = tracer.totals([op.factor for op in ops])

        def busy(name):
            return totals[name][1] if name in totals else 0.0

        out = {
            "io.parse_profile.calls": totals["io.parse_profile"][0],
            "io.parse_profile.busy_s": busy("io.parse_profile"),
            "io.parse_profile.self_s": busy("io.parse_profile") - busy("core.profile_revalidate"),
            "io.parse_profile.in_bytes": sum(op.sizes["in"] for op in ops),
            "io.rule_from_descriptor.busy_s": busy("io.rule_from_descriptor"),
            "io.build_result.busy_s": busy("io.build_result"),
            "io.serialize_result.busy_s": busy("io.serialize_result"),
            "io.serialize_result.out_bytes": sum(
                op.sizes["out"] for op in ops if op.props["form"] != "exemplars"
            ),
            "io.jsonify.busy_s": busy("io.jsonify"),
            "core.profile_revalidate.busy_s": busy("core.profile_revalidate"),
            "rules.apply_rule.values": sum(op.sizes["values"] for op in ops),
        }
        for family in ("p", "emed", "mean", "multiset", "dictator"):
            entry = totals.get("rules.apply_rule." + family, [0, 0.0, 0.0])
            out[f"rules.apply_rule.{family}.calls"] = entry[0]
            out[f"rules.apply_rule.{family}.busy_s"] = entry[1]
        for step in ("induce", "gaps_of", "aggregate_gaps", "collective_incomplete"):
            out[f"exemplars.{step}.busy_s"] = busy("exemplars." + step)
        return out


class Checkers(Workload):
    """The public checkers on tiny profiles, thousands of kernel calls each."""

    names = ("trials_per_s", "verdict_ms_p50", "verdict_ms_p90")
    MODULE = {
        "run_axiom_battery": "axioms", "search_extent_violation": "axioms",
        "check_strict_responsiveness": "axioms", "sp_fuzz": "strategic",
        "uncompromising_fuzz": "strategic", "check_separability_on_deviations": "strategic",
    }

    def __init__(self, name, seed, root):
        self.seed = seed

    def setup(self):
        import vocagg as v

        self.v = v
        unit = v.Domain(F(0), F(1))
        self.unit = unit
        self.rules = {
            "median": v.PRule(v.median_positions(3, 3)),
            "p-1,2,3": v.PRule(v.PositionVector((1, 2, 3))),
            "emed-corner": v.ExtendedMedianRule(v.boundary_phantoms(v.PositionVector((1, 2, 3)), 3, unit)),
            "emed-interior": v.ExtendedMedianRule(v.PhantomMatrix(unit, oracle.INTERIOR_PHANTOMS)),
            "mean": v.MeanRule(),
            "multiset": v.MultisetRule(),
        }
        for fixture in gen.FIXTURES:
            self.rules["fixture:" + fixture] = v.fixture_rule(fixture)
        for p in ("3,3,3", "2,3,4", "3,3,5"):
            self.rules["extent:" + p] = v.PositionVector(tuple(map(int, p.split(","))))
        for checker, rule, budget, s in gen.checker_calls(self.seed, "warm-up"):
            self.run((checker, rule, 2, s), Untraced())

    def items(self, b):
        return gen.checker_calls(self.seed, b)

    def run(self, item, t):
        checker, rule_id, budget, s = item
        rule = self.rules[rule_id]
        if isinstance(t, Tracer) and isinstance(rule, (self.v.PRule, self.v.MeanRule)):
            rule = self._timed(rule, t)
        return t(f"{self.MODULE[checker]}.{checker}", self._call, checker, rule, budget, s)

    def _call(self, checker, rule, budget, s):
        fn = getattr(self.v, checker)
        if checker == "search_extent_violation":
            return fn(rule, 5, budget, s, domain=self.unit)
        return fn(rule, budget, s, domain=self.unit, n=3, m=3)

    def _timed(self, rule, t):
        apply_rule = self.v.apply_rule

        def evaluate(profile):
            return t("rules.apply_rule.in_checkers", apply_rule, profile, rule)

        return evaluate

    @staticmethod
    def verdict(checker, result):
        if checker == "run_axiom_battery":
            return {a: oracle.HOLDS if r.holds else oracle.VIOLATED for a, r in result.items()}
        if checker in ("sp_fuzz", "uncompromising_fuzz", "search_extent_violation"):
            return oracle.HOLDS if result is None else oracle.VIOLATED
        return oracle.HOLDS if result.holds else oracle.VIOLATED

    def check(self, item, result):
        checker, rule_id, budget, s = item
        known = oracle.KNOWN_ANSWERS[(rule_id, checker)]
        if self.verdict(checker, result) != known:
            return f"verdict {self.verdict(checker, result)} != known {known}"
        if checker == "run_axiom_battery":
            if any(r.holds and r.trials != budget for r in result.values()):
                return "a holding verdict ran fewer trials than requested"
            return None
        if known == oracle.HOLDS:
            if checker not in ("sp_fuzz", "uncompromising_fuzz", "search_extent_violation") and result.trials != budget:
                return "a holding verdict ran fewer trials than requested"
            return None
        rule = oracle.RULES.get(rule_id)
        if checker == "sp_fuzz":
            ok = oracle.manipulation_replays(
                result.profile.values(), result.agent, result.preference.weights,
                result.misreport.values, result.gain, rule,
            )
        elif checker == "uncompromising_fuzz":
            ok = result.case == "violated"
        elif checker == "search_extent_violation":
            ok = oracle.extent_witness_holds(self.rules[rule_id].positions, result)
        elif checker == "check_separability_on_deviations":
            ok = oracle.separability_witness_holds(result.witness, rule)
        else:
            ok = oracle.responsiveness_witness_holds(result.witness, rule[1])
        return None if ok else "witness does not replay in the reference"

    def fingerprint(self, result):
        return result

    def units(self, item):
        checker, rule_id, budget, s = item
        return budget * (4 if checker == "run_axiom_battery" else 1)

    def holds(self, item):
        """True when the known answer is "holds" throughout: the full budget runs."""
        known = oracle.KNOWN_ANSWERS[(item[1], item[0])]
        return known == oracle.HOLDS or (isinstance(known, dict) and oracle.VIOLATED not in known.values())

    def label(self, item):
        return f"{item[0]}:{item[1]}"

    def props(self, item):
        return {"checker": item[0], "rule": item[1]}

    def throughput(self, ops, raw=False):
        full = [op for op in ops if op.holds and op.failure is None]
        return sum(op.units for op in full) / sum(op.raw if raw else op.latency for op in full)

    def layers(self, tracer, ops):
        holds = {i for i, op in enumerate(ops) if op.holds}
        scale = [op.factor for op in ops]
        totals, held = tracer.totals(scale), tracer.totals(scale, holds)
        out = {}
        for checker, module in self.MODULE.items():
            name = f"{module}.{checker}"
            trials = sum(op.units for op in ops if op.holds and op.props["checker"] == checker)
            calls, busy, self_s = totals.get(name, [0, 0.0, 0.0])
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".ms_per_1k_trials"] = held[name][1] / trials * 1e6 if trials else 0.0
        inner = totals.get("rules.apply_rule.in_checkers", [0, 0.0, 0.0])
        out["rules.apply_rule.in_checkers.calls"] = inner[0]
        out["rules.apply_rule.in_checkers.busy_s"] = inner[1]
        # rule evaluations per requested sp_fuzz trial, over the holding
        # calls whose rule was timed (each evaluated trial costs two)
        timed_fuzz = {
            i for i in holds
            if ops[i].props["checker"] == "sp_fuzz"
            and isinstance(self.rules[ops[i].props["rule"]], (self.v.PRule, self.v.MeanRule))
        }
        evals = sum(
            1 for name, _, _, parent, op in tracer.spans
            if op in timed_fuzz and name == "rules.apply_rule.in_checkers"
        )
        requested = sum(ops[i].units for i in timed_fuzz)
        out["strategic.sp_fuzz.eval_ratio"] = evals / (2 * requested) if requested else 0.0
        return out


NOMINAL_INTERPRETER_S = 0.075  # median ``python -c pass`` on the baseline machine


class Cli(Workload):
    """``python -m vocagg.cli`` invocations, one process after another."""

    names = ("invocations_per_s", "cli_ms_p50", "cli_ms_p90")
    chunk_s = 0.3  # interpreter start is the task here; time it every ~2 calls

    def __init__(self, name, seed, root):
        self.seed = seed
        self.workdir = root / "bench" / "out" / f"cli-{os.getpid()}"
        self.env = {k: val for k, val in os.environ.items() if k != "VOCAGG_SEED"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.peak_rss_kib = 0
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.calibration = Calibration(self._interpreter, NOMINAL_INTERPRETER_S)

    def _interpreter(self):
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.workdir, env=self.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def setup(self):
        import vocagg.cli

        self.main = vocagg.cli.main
        self.spawn([sys.executable, "-m", "vocagg.cli", "--help"])

    def close(self):
        for path in sorted(self.workdir.glob("*")):
            path.unlink()
        self.workdir.rmdir()

    def items(self, b):
        files, items = gen.cli_rotation(self.seed, b)
        for name, text in files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        return items

    def spawn(self, argv):
        """Run one process to exit; returns (exit code, stdout, stderr)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")

    def run(self, item, t):
        command = item["argv"][0]
        return t("cli.invoke." + command, self.spawn, [sys.executable, "-m", "vocagg.cli", *item["argv"]])

    def check(self, item, result):
        code, out, err = result
        if "Traceback" in err:
            return f"traceback on stderr, exit {code}"
        if code != item["expect"]:
            return f"exit {code}, expected {item['expect']}"
        if item["check"] is None:
            return None if err.strip() else "no message on stderr"
        return None if self._output_ok(item["check"], out) else "output differs from the reference"

    def _output_ok(self, check, out):
        kind, spec = check
        if kind == "result":
            return json.loads(out) == oracle.expected_result(spec)
        if kind == "induce":
            return json.loads(out) == oracle.expected_induce(spec)
        if kind == "svg":
            return ET.fromstring(out).tag.endswith("svg")
        if kind == "ascii":
            return self._ascii_ok(spec, out.split("\n"))
        bundle = json.loads(out)
        if kind == "axioms":
            verdicts = {r["axiom"]: oracle.HOLDS if r["verdict"] == "holds-on-sample" else oracle.VIOLATED
                        for r in bundle["reports"]}
            return verdicts == oracle.KNOWN_ANSWERS[(spec, "run_axiom_battery")]
        found = bundle["manipulation"] is not None
        if spec != "mean":
            return not found and bundle["uncompromising"] is None
        w = bundle["manipulation"]
        rows = [tuple(map(F, row)) for row in w["profile"]]
        return found and oracle.manipulation_replays(
            rows, w["agent"], [F(x) for x in w["weights"]], [F(x) for x in w["misreport"]], F(w["gain"])
        )

    @staticmethod
    def _ascii_ok(spec, lines):
        """One block per agent; '|' marks sit at the interior endpoints' columns."""
        lower, upper = spec["lower"], spec["upper"]
        for i, row in enumerate(spec["rows"], start=1):
            if f"# agent {i}" not in lines:
                return False
            axis = lines[lines.index(f"# agent {i}") + 2]
            marks = {int(79 * (v - lower) / (upper - lower)) for v in row if lower < v < upper} - {0, 79}
            if len(axis) != 80 or axis[0] != "(" or axis[-1] != ")":
                return False
            if {j for j, c in enumerate(axis) if c == "|"} != marks:
                return False
        return True

    def fingerprint(self, result):
        return result[:2]

    def _main(self, argv):
        """``vocagg.cli.main`` in this process, output discarded."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                self.main(list(argv))
            except (SystemExit, Exception):  # argparse exits; the known defects raise
                pass

    def label(self, item):
        return item["name"]

    def props(self, item):
        return {"command": item["argv"][0], "expected_exit": item["expect"]}

    def throughput(self, ops, raw=False):
        return len(ops) / sum(op.raw if raw else op.latency for op in ops)

    def layers(self, tracer, ops):
        python = sys.executable

        def median_ms(argv, times=5):
            return statistics.median(self.calibration.scaled(self.spawn, argv) * 1000 for _ in range(times))

        # interpreter start is the calibration task, so it is reported unscaled
        interpreter = statistics.median(self.calibration() for _ in range(5)) * 1000
        imported = median_ms([python, "-c", "import vocagg"]) - NOMINAL_INTERPRETER_S * 1000
        groups: dict = {}
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for b in sorted({op.block for op in ops}):
                for item in self.items(b):
                    group = "error" if item["expect"] == 2 else item["argv"][0]
                    groups.setdefault(group, []).append(KERNEL.scaled(self._main, item["argv"]) * 1000)
        finally:
            os.chdir(cwd)
        out = {"cli.interpreter_ms": interpreter, "cli.import_ms": imported}
        for group in ("aggregate", "induce", "render", "axioms", "sp-check", "error"):
            out[f"cli.main_ms.{group}"] = statistics.median(groups[group])
        every_main = statistics.median([x for samples in groups.values() for x in samples])
        p50 = statistics.median(op.latency for op in ops) * 1000
        out["cli.residual_ms"] = p50 - NOMINAL_INTERPRETER_S * 1000 - imported - every_main
        return out
