"""Benchmark for vocagg: seeded workloads, every output checked, one JSON line.

    python3 bench/run.py --workload aggregate-lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 -m pytest bench        # the benchmark's own tests

Workloads: aggregate-lattice, aggregate-coprime, checkers, cli (see
BENCHMARK.json for why each exists).  The program under test is the
``vocagg`` package in ``src/`` next to this directory.  With ``--trace 0``
the last line carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the line before it is a report that names the metrics the
way the workload's users would (docs_per_s, verdict_ms_p90, ...), the
failures by name, and the measured share of each input property.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

from timing import Tracer, Untraced, perf  # noqa: E402
from workloads import KNOWN_DEFECTS, Aggregate, Checkers, Cli  # noqa: E402

WORKLOADS = {
    "aggregate-lattice": Aggregate,
    "aggregate-coprime": Aggregate,
    "checkers": Checkers,
    "cli": Cli,
}
SETUPS = 3  # set-ups per run, the median is reported
MIN_OPS = 100  # so that at least ten latencies lie beyond the p90


@dataclass
class Op:
    latency: float  # ``raw`` scaled by ``factor``, see timing.py
    raw: float
    factor: float
    segment: int  # ops between two calibration timings share a segment
    block: int
    label: str
    props: dict
    units: int
    holds: bool
    failure: str | None
    fingerprint: object
    sizes: dict


def measure(wl, seconds, t, blocks=None):
    """Run whole blocks: for ``seconds`` of wall time, or exactly ``blocks``.

    A new block starts while time is left, or while fewer than MIN_OPS
    items ran, so a run holds whole blocks and the input mix is the block's
    on every seed.  Generating, checking and calibrating happen between the
    timed items.
    """
    ops: list[Op] = []
    cals = [wl.calibration()]
    timed = 0.0
    start = perf()
    b = 0
    while True:
        if blocks is not None and b == blocks:
            break
        if blocks is None and perf() - start >= seconds and len(ops) >= MIN_OPS:
            break
        for item in wl.items(b):
            t.op = len(ops)
            untimed = t.untimed
            result = None
            tick = perf()
            try:
                result = wl.run(item, t)
            except Exception as exc:  # recorded as a failed operation
                latency = perf() - tick - (t.untimed - untimed)
                failure = fingerprint = f"{type(exc).__name__}: {str(exc)[:80]}"
            else:
                latency = perf() - tick - (t.untimed - untimed)
                failure, fingerprint = wl.check(item, result), wl.fingerprint(result)
            ops.append(
                Op(latency, latency, 1.0, len(cals) - 1, b, wl.label(item), wl.props(item),
                   wl.units(item), wl.holds(item), failure, fingerprint, wl.sizes(item, result))
            )
            timed += latency
            if timed >= wl.chunk_s:
                cals.append(wl.calibration())
                timed = 0.0
        b += 1
    cals.append(wl.calibration())
    wl.calibration.scale(ops, cals)
    return ops, b, cals


def share(values) -> dict:
    return {k: round(c / len(values), 4) for k, c in sorted(Counter(values).items())}


def percentile_90(latencies):
    return statistics.quantiles(latencies, n=10)[-1]


def failures(ops):
    named: dict = {}
    for op in ops:
        if op.failure is not None:
            named.setdefault(op.label, {"count": 0, "reason": op.failure})["count"] += 1
    return named


def setup_child(args) -> float:
    """One more set-up, in a fresh interpreter."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def run(args) -> int:
    wl = WORKLOADS[args.workload](args.workload, args.seed, ROOT)
    try:
        wl.calibration()  # a first run is slower; leave it out
        setups = [wl.calibration.scaled(wl.setup)]
        import vocagg

        if Path(vocagg.__file__).resolve().parent != SRC / "vocagg":
            print(f"error: imported vocagg from {vocagg.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        if args.trace:
            return traced(args, wl)
        setups += [setup_child(args) for _ in range(SETUPS - 1)]
        ops, blocks, cals = measure(wl, args.seconds, Untraced())
        latencies = [op.latency for op in ops]
        p50, p90 = statistics.median(latencies), percentile_90(latencies)
        if isinstance(wl, Cli):
            rss_mib = wl.peak_rss_kib / 1024
        else:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": wl.throughput(ops),
            "latency_ms_p50": p50 * 1000,
            "latency_ms_p90": p90 * 1000,
            "peak_rss_mb": rss_mib,
        }
        failed = failures(ops)
        n_failed = sum(f["count"] for f in failed.values())
        throughput_name, p50_name, p90_name = wl.names
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "blocks": blocks,
            "ops": len(ops),
            throughput_name: [values["throughput_per_s"], "1/s"],
            p50_name: [values["latency_ms_p50"], "ms"],
            p90_name: [values["latency_ms_p90"], "ms"],
            "setup_s": [values["setup_s"], "s", sorted(setups)],
            "peak_rss_mb": [rss_mib, "MiB"],
            "fail_ratio": [n_failed / len(ops), "ratio"],
            "latency_samples": len(latencies),
            "samples_beyond_p90": sum(1 for x in latencies if x > p90),
            "failures": failed,
            "mix": {key: share([op.props[key] for op in ops]) for key in ops[0].props},
            "calibration_ms": [statistics.median(cals) * 1000, min(cals) * 1000, max(cals) * 1000],
            "unscaled": {
                throughput_name: wl.throughput(ops, raw=True),
                p50_name: statistics.median(op.raw for op in ops) * 1000,
                p90_name: percentile_90([op.raw for op in ops]) * 1000,
            },
        }
        print(json.dumps({"report": report}))
        units = declared("end_to_end")
        emit(
            all(label in KNOWN_DEFECTS for label in failed), len(ops), n_failed,
            {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        )
        return 0
    finally:
        wl.close()


def traced(args, wl) -> int:
    """Untraced for half the time, then the same blocks traced."""
    plain, blocks, _ = measure(wl, args.seconds / 2, Untraced())
    tracer = Tracer()
    ops, _, _ = measure(wl, None, tracer, blocks=blocks)
    same = all(
        a.fingerprint == b.fingerprint and a.failure == b.failure for a, b in zip(plain, ops)
    ) and len(plain) == len(ops)
    layers = wl.layers(tracer, ops)
    untraced_s = sum(op.latency for op in plain)
    layers["trace.overhead_pct"] = (sum(op.latency for op in ops) - untraced_s) / untraced_s * 100
    out = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(out)
    units = declared("per_layer")
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "blocks": blocks, "ops": len(ops),
        "traced_equals_untraced": same, "spans": len(tracer.spans), "spans_file": str(out.relative_to(ROOT)),
        "not_exercised": sorted(set(units) - set(layers)),
    }}))
    failed = failures(plain + ops)
    emit(
        same and all(label in KNOWN_DEFECTS for label in failed),
        len(plain) + len(ops), sum(f["count"] for f in failed.values()),
        {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units.items()},
    )
    return 0


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "vocagg" / "__init__.py").is_file():
        print(f"error: no vocagg package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(argv, cwd=ROOT).returncode)
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
