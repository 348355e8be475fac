"""Calibrated clocks, and spans around the benchmark's calls into vocagg.

The machines this runs on change speed by up to a factor of two within
seconds (shared virtual CPUs), far more than the changes the benchmark has
to resolve.  So a fixed task that does not touch vocagg is timed between
every ~0.15 s of measured work (0.3 s on the command line), and each measured duration is scaled by the
task's nominal time over its measured time around it: durations read as
seconds on a machine where the task takes its nominal time.  A change to
vocagg moves the scaled numbers; the machine's speed mostly does not.  The
in-process workloads use a pure-Python kernel; the command line uses
interpreter start, which tracks process start-up far better.

A span is [name, start, end, parent span index or -1, op id].  Self time
is a span's duration minus the durations of its direct children.  Spans
are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction

import gen
import oracle

perf = time.perf_counter


class Calibration:
    """A fixed task, and its median time on the machine the baseline was
    measured on (2 vCPU KVM guest, Intel Xeon, Python 3.11.7)."""

    def __init__(self, task, nominal_s):
        self.task, self.nominal_s = task, nominal_s

    def __call__(self) -> float:
        start = perf()
        self.task()
        return perf() - start

    def scaled(self, fn, *args) -> float:
        """Scaled seconds one call of ``fn`` takes, bracketed by the task."""
        before = self()
        start = perf()
        fn(*args)
        elapsed = perf() - start
        return elapsed * self.nominal_s / ((before + self()) / 2)

    def scale(self, ops, cals) -> None:
        """Scale each op by the median of the four timings around its segment."""
        for op in ops:
            window = cals[max(0, op.segment - 1) : op.segment + 3]
            op.factor = self.nominal_s / statistics.median(window)
            op.latency = op.raw * op.factor


def kernel():
    """A tight loop of exact arithmetic, sorting and JSON, then the
    benchmark's own generator and reference on small fixed documents, which
    run broad code the way vocagg's small calls do.  Each half tracks a
    different kind of slowdown on shared machines."""
    values = [Fraction(i * 7919 % 1009, 1024) for i in range(500)]
    values.sort()
    total = sum(values[:100], Fraction(0))
    json.loads(json.dumps({str(i): [i, str(v)] for i, v in enumerate(values)}))
    r = gen.rng(0, "calibration")
    for _ in range(6):
        for form, family in gen.COMBOS[:6]:
            spec = gen.profile_spec(r, 3, 3, form, family, "16")
            oracle.expected(spec)
            json.loads(spec["text"])
    return total


KERNEL = Calibration(kernel, 0.0085)


class Untraced:
    """Calls straight through; the untraced run uses this."""

    op = None
    untimed = 0.0

    def __call__(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.untimed = 0.0  # probe time, left out of op latencies

    def __call__(self, name, fn, *args):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf()
        try:
            return fn(*args)
        finally:
            span[2] = perf()
            self.stack.pop()

    def probe(self, name, fn, *args):
        """A traced-run-only call whose time is not part of the op."""
        start = perf()
        try:
            return self(name, fn, *args)
        finally:
            self.untimed += perf() - start

    def totals(self, scale, ops=None) -> dict[str, list]:
        """name -> [calls, busy_s, self_s], durations scaled by ``scale[op]``,
        optionally only over some op ids."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) * scale[op]
            entry[2] += (end - start - child[index]) * scale[op]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
