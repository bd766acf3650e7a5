"""Seeded benchmark of planecurrents: `search`, `check` and `points`.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Runs one workload in this process, single-threaded, from the `src/` tree
next to this directory, and prints a summary followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are per-layer
calls, self times and counts from traced pass 1 (see spans.py);
`--seconds` does not apply to it. README.md says what each
workload and metric means.

Host speed on shared machines can switch between a fast and a slow state
(about 1.7x apart) several times a second. So every time is normalized: a
timer signal runs a small fixed kernel every PERIOD_S, its time is taken
out of the operation it interrupted, and each operation's time is scaled
by the mean of REFERENCE_KERNEL_S / (kernel time) over its span. Normalized times
read as seconds at the host speed where the kernel takes
REFERENCE_KERNEL_S; the summary also prints raw medians.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("cli", "serialize", "harness", "currents", "cover", "projective", "linalg")
SETUPS = 11
PERIOD_S = 0.025
REFERENCE_KERNEL_S = 0.0006  # about the kernel's time on a 2-vCPU x86-64 VM


def kernel() -> int:
    """Fixed work that tracks the host's speed: Fraction arithmetic, plain
    interpreted loops over tuples and dicts, and small-integer arithmetic.
    Between the host's fast and slow states these parts slow by about
    1.86x, 1.65x and 1.55x, the workloads by 1.66x to 1.77x, and the mix
    by about 1.72x."""
    acc = Fraction(0)
    seen = set()
    for i in range(1, 35):
        f = Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1) - Fraction(1, i)
        seen.add((f.numerator % 101, f.denominator % 103))
        acc += Fraction(len(seen) % 5, i % 9 + 1)
    counts: dict[tuple, int] = {}
    total = 0
    for i in range(650):
        t = (i, i * 3 % 7, i & 5)
        counts[t] = counts.get(t, 0) + 1
        total += len(t) + t[1]
    for i in range(1, 520):
        total += (i * 7919 * (i + 13)) // (i % 17 + 1) - i * i
    return total + acc.numerator


class HostClock:
    """Runs the kernel from a SIGALRM handler every PERIOD_S while active.
    `stolen` is the handler time so far, which timed operations subtract;
    `scale(t0, t1)` is the normalizing factor for work done in [t0, t1]."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.stolen = 0.0
        self.factor: list[float] = []
        self.mid: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self) -> None:
        """Wait for one sample after now, so every operation so far has a
        sample on each side."""
        now = time.perf_counter()
        while not self.at or self.at[-1] < now:
            time.sleep(PERIOD_S / 5)

    def scale(self, t0: float, t1: float) -> float:
        """Time-weighted mean of REFERENCE_KERNEL_S / kernel time over
        [t0, t1]. Each sample stands for the time from the midpoint with the
        sample before it to the midpoint with the one after it; its kernel
        time is the median of it and its two neighbours, so one disturbed
        sample does not count but a change of host speed does."""
        if len(self.factor) != len(self.at):
            took = self.took
            near = [took[max(i - 1, 0):i + 2] for i in range(len(took))]
            self.factor = [REFERENCE_KERNEL_S / statistics.median(k) for k in near]
            self.mid = [(a + b) / 2 for a, b in zip(self.at, self.at[1:])]
        mid, factor = self.mid, self.factor
        j = bisect.bisect_left(mid, t0)
        if t1 <= t0:
            return factor[j]
        total, lo = 0.0, t0
        while j < len(mid) and mid[j] < t1:
            total += (mid[j] - lo) * factor[j]
            lo = mid[j]
            j += 1
        return (total + (t1 - lo) * factor[j]) / (t1 - t0)


def import_fresh():
    """Import the package anew (dropping any earlier import) so that every
    set-up pays the import cost, and refuse a copy outside `src/`."""
    for name in [n for n in sys.modules if n == "planecurrents" or n.startswith("planecurrents.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"planecurrents.{layer}") for layer in LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "planecurrents"):
        raise ImportError(f"planecurrents imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


class Tally:
    """Counts attempted and failed operations; `run` runs one input and
    checks its output."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def timed(self, fn, *args):
        """(result, start, end, raw seconds without the kernel's time)."""
        stolen = self.clock.stolen
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        return result, t0, t1, t1 - t0 - (self.clock.stolen - stolen)

    def run(self, workload, x):
        """Run and check input x; return (start, end, raw seconds)."""
        self.attempted += 1
        try:
            result, t0, t1, raw = self.timed(workload.run, x)
        except Exception:
            t0 = t1 = time.perf_counter()
            raw = 0.0
            error = traceback.format_exc(limit=3)
        else:
            try:
                error = workload.check(x, result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"input {str(x)[:80]}: {error}"
        return t0, t1, raw


def set_up(name, seed, workdir, tally, count):
    """Import, build the inputs of pass 0 and run its first input, `count`
    times; return the last workload and the (start, end, raw seconds) of
    each set-up. Pass 0 serves only the set-up; timed passes start at 1."""
    times = []
    for _ in range(count):
        def once():
            workload = WORKLOADS[name](import_fresh(), seed, workdir)
            tally.run(workload, workload.inputs(0)[0])
            return workload
        workload, t0, t1, raw = tally.timed(once)
        times.append((t0, t1, raw))
    return workload, times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seconds, tally, notes):
    """Closed loop, one caller: passes 1, 2, ... of fresh inputs until the
    time is up (making a pass's inputs is not timed). Returns (start, end,
    raw seconds) of each operation, by pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        inputs = workload.inputs(len(passes) + 1)
        if inputs is None:
            notes.append(f"inputs ran out after {len(passes)} passes")
            break
        passes.append([tally.run(workload, x) for x in inputs])
        digest = " ".join(f"{k} {v}" for k, v in workload.digest(inputs).items())
        notes.append(f"digest pass {len(passes)}: {digest}")
    return passes


def end_to_end(workload, seconds, clock, tally, setups, notes):
    """Each metric is the median of its slices: set-ups, or timed passes
    (units per pass / pass time, and each pass's percentiles), so a stretch
    of a disturbed host moves few slices and not the median."""
    passes = measure(workload, seconds, tally, notes)
    clock.settle()
    norm_ms = [[raw * clock.scale(t0, t1) * 1000 for t0, t1, raw in ops] for ops in passes]
    slices = {
        "setup_s": [raw * clock.scale(t0, t1) for t0, t1, raw in setups],
        "ops_per_s": [workload.units_per_pass * 1000 / sum(times) for times in norm_ms],
        "p50_ms": [percentile(times, 50) for times in norm_ms],
        "p90_ms": [percentile(times, 90) for times in norm_ms],
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms"}
    metrics = {name: (statistics.median(values), units[name]) for name, values in slices.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    every_ms = [t for times in norm_ms for t in times]
    raw_ms = [raw * 1000 for ops in passes for _, _, raw in ops]
    notes.append(f"passes {len(passes)}, timed operations {len(every_ms)} "
                 f"({workload.units_per_pass} units per pass)")
    for name, values in slices.items():
        q1, q2, q3 = quartiles(values)
        notes.append(f"  {name:<10} median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g} (n={len(values)})")
    notes.append(f"  over every timed operation: p50 {percentile(every_ms, 50):.6g} ms, "
                 f"p90 {percentile(every_ms, 90):.6g} ms (n={len(every_ms)})")
    if len(every_ms) >= 1000:
        notes.append(f"  p99_ms {percentile(every_ms, 99):.6g} (n={len(every_ms)})")
    notes.append(f"  raw p50 {percentile(raw_ms, 50):.6g} ms, raw p90 {percentile(raw_ms, 90):.6g} ms")
    return metrics


def per_layer(workload, clock, tally, out_path, notes):
    """Pass 1, each input traced and then once more untraced: the spans
    come from the input's first run, and both runs see the same host speed.
    The difference between the normalized totals is the tracing overhead
    (a cache in the program would add to it). Kernel time that lands inside
    a span counts as that span's self time (about 1%)."""
    tracer = Tracer()
    runs = []
    inputs = workload.inputs(1)
    for i, x in enumerate(inputs):
        tracer.op_id = i
        tracer.install()
        try:
            traced = tally.run(workload, x)
        finally:
            tracer.restore()
        runs.append((tally.run(workload, x), traced))
    clock.settle()
    plain = sum(raw * clock.scale(t0, t1) for (t0, t1, raw), _ in runs)
    traced = sum(raw * clock.scale(t0, t1) for _, (t0, t1, raw) in runs)
    metrics = tracer.layer_metrics([clock.scale(t0, t1) for _, (t0, t1, _) in runs])
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    tracer.write(out_path)
    notes.append(f"traced pass 1, {len(runs)} operations: {len(tracer.start)} spans "
                 f"written to {os.path.relpath(out_path, ROOT)}")
    digest = " ".join(f"{k} {v}" for k, v in workload.digest(inputs).items())
    notes.append(f"digest pass 1: {digest}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "planecurrents", "__init__.py")):
        print(f"perfbench: no planecurrents package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    notes = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    stdout, stderr = sys.stdout, sys.stderr
    try:
        # the CLI prints a line per call; keep the benchmark's own output clean
        with open(os.devnull, "w") as devnull, HostClock() as clock:
            sys.stdout = sys.stderr = devnull
            tally = Tally(clock)
            workload, setups = set_up(args.workload, args.seed, workdir, tally,
                                      1 if args.trace else SETUPS)
            if args.trace:
                spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
                metrics = per_layer(workload, clock, tally, spans, notes)
            else:
                metrics = end_to_end(workload, args.seconds, clock, tally, setups, notes)
    except Exception:
        sys.stdout, sys.stderr = stdout, stderr
        traceback.print_exc()
        return 1
    finally:
        sys.stdout, sys.stderr = stdout, stderr
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    print(f"host kernel median {statistics.median(clock.took) * 1000:.4g} ms "
          f"(reference {REFERENCE_KERNEL_S * 1000:g} ms, n={len(clock.took)})")
    if tally.first_error:
        print(f"first failure: {tally.first_error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
