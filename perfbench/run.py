"""planeint benchmark: one entry point for the census, bignorm, ideal and cli workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a single-process closed loop: the next op starts when the
previous one has returned (for ``cli``, when the child has exited).  Inputs
come from ``--seed`` alone.  Results are checked against referees after the
timed phase; an op fails on an exception, a wrong answer, a non-zero exit
or going over the per-op budget.  Times are scaled to a reference host
speed (see ``HostClock``), so that a shared host's swings in speed do not
read as changes to the library.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for ``--seconds``, then replays a fixed slice of it with
the tracer installed, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads
from tracer import SPAN_CAP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
TAIL_MIN_BEYOND = 10  # fewer samples beyond the tail percentile make a run not comparable
CAL_EVERY_S = 0.02  # how often a timed loop re-measures the host's speed
_MISSING = object()


class OpBudgetExceeded(Exception):
    pass


class Watchdog:
    """A periodic SIGALRM that stops the running op once it passes its deadline."""

    PERIOD_S = 0.25

    def __init__(self):
        self.deadline = math.inf

    def _fire(self, signum, frame):
        if perf_counter() > self.deadline:
            self.deadline = math.inf
            raise OpBudgetExceeded

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, o):
        return _Pair(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def norm(self):
        return self.a * self.a + self.b * self.b


def _objects_kernel() -> None:
    """Small objects, method calls and small-int arithmetic, like census and ideal."""
    acc, z = 0, _Pair(1, 1)
    for i in range(400):
        z = z.mul(_Pair(i % 17 - 8, i % 13 - 6))
        acc += z.norm() % 7
        if abs(z.a) > 1000:
            z = _Pair(z.a % 97, z.b % 89)


def _ints_kernel() -> None:
    """A trial-division loop, like bignorm's integer kernel."""
    n = 1000003 * 999983
    for d in range(3, 10003, 2):
        if n % d == 0:
            break


def _interpreter_kernel() -> None:
    """A bare interpreter start, like a cli child and a set-up import."""
    subprocess.run([sys.executable, "-c", "pass"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=str(ROOT), capture_output=True, check=True, timeout=60)


# kernel -> (function, runs per calibration, its time on an unloaded host of the 2-vCPU build machine)
KERNELS = {
    "objects": (_objects_kernel, 2, 3e-4),
    "ints": (_ints_kernel, 2, 3e-4),
    "interpreter": (_interpreter_kernel, 1, 0.04),
}


class HostClock:
    """Scales wall times to a reference host speed with a calibration kernel timed between ops.

    The build machine's speed swung by up to 2x for seconds to minutes at a
    time, with no steal time visible in the guest, so whole runs landed in
    slow phases.  Kinds of work slowed by different amounts (an
    object-churning loop by 2x while a trial-division loop kept its speed),
    so each workload is calibrated by a kernel doing its kind of work.  The
    kernels never call the library, so no library change can move them.  A
    time is multiplied by the kernel's reference time over its time
    measured around the op: the mean of the calibrations just before and
    just after it for an op that ends a calibration interval, else the one
    before it.
    """

    def __init__(self, kernel: str):
        self.fn, self.runs, self.ref_s = KERNELS[kernel]
        self.scales: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        times = []
        for _ in range(self.runs):
            t0 = perf_counter()
            self.fn()
            times.append(perf_counter() - t0)
        self.scales.append(self.ref_s / min(times))
        return min(times)

    def scaled(self, wall_s: float) -> float:
        return wall_s * self.ref_s / self.last

    def scaled_recalibrate(self, wall_s: float) -> float:
        before, self.last = self.last, self.measure()
        return wall_s * self.ref_s * 2 / (before + self.last)


class Results:
    """First result per key plus failure counts, shared by all phases of a run."""

    def __init__(self):
        self.first: dict = {}
        self.matched: Counter = Counter()  # ops whose result equals the key's first one
        self.mismatched = 0
        self.wrong = 0  # wrong ops among results already settled
        self.errors: Counter = Counter()
        self.attempted = 0
        self.caught = None  # whether the self-test's corrupted result was reported; None until it runs

    def record(self, key, res) -> bool:
        """Keep ``res``; True if ``key`` is new to the held results."""
        prev = self.first.get(key, _MISSING)
        if prev is _MISSING:
            self.first[key] = res
            self.matched[key] = 1
            return True
        if prev == res:
            self.matched[key] += 1
        else:
            self.mismatched += 1
        return False

    def check(self, wl) -> set:
        """Keys whose held result is wrong; the first check with results also runs the self-test."""
        bad = wl.verify(self.first)
        if self.first and self.caught is None:
            # feed the referee one corrupted result; it must be reported as wrong
            key, corrupted = wl.corrupt(self.first)
            self.caught = key in wl.verify({**self.first, key: corrupted})
        return bad

    def settle(self, wl) -> None:
        """Check the held results and let them go, for workloads whose keys never repeat."""
        self.wrong += sum(self.matched[k] for k in self.check(wl))
        self.first.clear()
        self.matched.clear()

    def failed(self, bad: set) -> int:
        return sum(self.errors.values()) + self.mismatched + self.wrong + sum(self.matched[k] for k in bad)


class Phase:
    """Latencies per group and throughput per round of one timed loop, at the reference host speed."""

    def __init__(self, n_groups: int, kernel: str):
        self.clock = HostClock(kernel)
        self.lat = [array("f") for _ in range(n_groups)]
        self.repeat = [bytearray() for _ in range(n_groups)]  # per sample, 1 if its key was seen before
        self.round_rates: list[float] = []
        self.ops = 0
        self.prime_int_calls = [0] * n_groups

    def busy(self) -> float:
        return sum(sum(group) for group in self.lat)

    def latencies(self, groups) -> list[float]:
        return sorted(x for g in groups for x in self.lat[g])

    def ops_per_s(self) -> float:
        """Median over the completed rounds of ops per second of op time."""
        if self.round_rates:
            return median(self.round_rates)
        return self.ops / self.busy()

    def first_visits(self) -> int:
        return self.ops - sum(sum(rep) for rep in self.repeat)

    def visit_latencies(self) -> tuple[list[float], list[float]]:
        """Sorted samples of ops on inputs new to the run, and of repeat visits."""
        first, again = [], []
        for lat, rep in zip(self.lat, self.repeat):
            for x, seen in zip(lat, rep):
                (again if seen else first).append(x)
        return sorted(first), sorted(again)


def run_phase(wl, results: Results, *, seconds=None, rounds=None, inprocess=False, tracer=None):
    """Closed loop over the workload's rounds until ``seconds`` pass or ``rounds`` complete."""
    phase = Phase(len(wl.groups), wl.kernel)
    lat, repeat = phase.lat, phase.repeat
    budget = workloads.BUDGET_S
    pc = perf_counter
    prime_int = tracer.calls if tracer else None
    ipi = tracer.index("factor.is_prime_int") if tracer else 0
    end = pc() + seconds if seconds is not None else math.inf
    clock = phase.clock
    t1 = t_cal = pc()
    whole = [0] * len(lat)  # samples per group when the last round completed
    r = 0
    with Watchdog() as wd:
        while (rounds is None or r < rounds) and t1 < end:
            if wl.fresh_keys:
                results.settle(wl)
            ops = wl.round_ops(r, inprocess)
            t1 = pc()
            busy = 0.0
            for key, group, fn, args in ops:
                if t1 >= end:
                    break
                if tracer:
                    tracer.op_id = results.attempted
                    before = prime_int[ipi]
                err = None
                t0 = pc()
                wd.deadline = t0 + budget + 1.0
                try:
                    res = fn(*args)
                    wd.deadline = math.inf
                except OpBudgetExceeded:
                    err = "budget"
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    wd.deadline = math.inf
                    err = type(exc).__name__
                t1 = pc()
                if t1 - t_cal > CAL_EVERY_S:
                    dt = clock.scaled_recalibrate(t1 - t0)
                    t_cal = pc()
                else:
                    dt = clock.scaled(t1 - t0)
                lat[group].append(dt)
                busy += dt
                if tracer:
                    phase.prime_int_calls[group] += prime_int[ipi] - before
                results.attempted += 1
                if err is None and t1 - t0 > budget:
                    err = "budget"
                if err:
                    results.errors[err] += 1
                    repeat[group].append(1)
                else:
                    repeat[group].append(not results.record(key, res))
            else:
                phase.round_rates.append(len(ops) / busy)
                whole = [len(g) for g in lat]
                r += 1
                continue
            break
    if r:
        # latency statistics cover whole rounds only, so every run sees the same op mix
        for g, rep, n in zip(lat, repeat, whole):
            del g[n:], rep[n:]
    phase.ops = sum(len(g) for g in lat)
    return phase


def percentile(sorted_values, pct: float) -> float:
    """Mean of the samples ranked within ``h`` points of ``pct``, ``h = min(5, (100 - pct) / 2)``.

    On a smooth distribution this is the plain percentile.  The workloads
    mix op types of very different cost, so a plain percentile can sit on
    the gap between two types and jump with the round count; the window
    averages across that gap.
    """
    n = len(sorted_values)
    h = min(5.0, (100.0 - pct) / 2)
    lo = min(int(n * (pct - h) / 100), n - 1)
    hi = max(lo + 1, math.ceil(n * (pct + h) / 100))
    window = sorted_values[lo:hi]
    return sum(window) / len(window)


def measure_setup(target: str) -> float:
    """Median time of ``import <target>`` in fresh interpreters (after one warm-up), at the reference host speed."""
    code = (
        "import sys, time; t = time.perf_counter(); import " + target
        + "; sys.stdout.write(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = HostClock("interpreter")
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(ROOT),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        if i:
            times.append(clock.scaled_recalibrate(float(out)))
    return median(times)


def peak_rss_mb() -> float:
    """High-water resident memory of this process image (``VmHWM``, Linux).

    Unlike ``getrusage``'s ``ru_maxrss`` it belongs to the current memory
    map, so it does not carry over the peak of the process that started
    this one.
    """
    return workloads.vm_hwm_kb(Path("/proc/self/status").read_text()) / 1024


def end_to_end(wl, phase: Phase, setup_s: float, rss: float, lines: list[str]) -> tuple[dict, bool]:
    """The end-to-end metrics, and whether the tail rests on enough samples to compare runs."""
    by_kind = [[g for g, k in enumerate(wl.group_kind) if k == kind] for kind in (0, 1)]
    pct = wl.tail_pct
    everything = phase.latencies(range(len(wl.groups)))
    kinds = [phase.latencies(groups) for groups in by_kind]
    beyond = len(everything) - math.ceil(pct / 100 * len(everything))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_p50_ms": (percentile(everything, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(everything, pct) * 1e3, "ms"),
        "kind_a_p50_ms": (percentile(kinds[0], 50.0) * 1e3, "ms"),
        "kind_b_p50_ms": (percentile(kinds[1], 50.0) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines.append(f"  latency and throughput over {len(phase.round_rates)} completed rounds, at the reference host speed"
                 f" (median host factor {median(phase.clock.scales):.3f} over {len(phase.clock.scales)} calibrations)")
    lines.append(f"  op_tail_ms is p{pct:g}: {beyond} of {len(everything)} samples beyond it")
    comparable = beyond >= TAIL_MIN_BEYOND
    if not comparable:
        lines.append(f"  fewer than {TAIL_MIN_BEYOND} samples beyond p{pct:g}: the run is not comparable (correct: false)")
    for kind, label in enumerate(wl.kind_labels):
        lines.append(f"  kind_{'ab'[kind]}_p50_ms: {label} ({len(kinds[kind])} samples)")
    first = phase.first_visits()
    lines.append(f"  visits: {phase.ops} ops in whole rounds, {first} on inputs new to the run"
                 f" ({phase.ops / max(first, 1):.2f} ops per input)")
    return metrics, comparable


def per_layer(wl, api, results: Results, main_phase: Phase, lines: list[str]) -> dict:
    rounds = wl.traced_rounds
    plain = run_phase(wl, results, rounds=rounds, inprocess=True)
    tracer = Tracer(api)
    tracer.install()
    try:
        traced = run_phase(wl, results, rounds=rounds, inprocess=True, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    # both slices run the same ops, so the ratio of busy times is the ratio of ops_per_s
    ratio = plain.busy() / traced.busy()
    layer["trace.overhead_ratio"] = ratio
    first, again = main_phase.visit_latencies()
    layer["visits.first_p50_ms"] = percentile(first, 50.0) * 1e3 if first else 0.0
    layer["visits.repeat_p50_ms"] = percentile(again, 50.0) * 1e3 if again else 0.0
    layer["visits.ops_per_input"] = main_phase.ops / len(first) if first else 0.0
    layer.update(dict.fromkeys(workloads.BIGNORM_LAYER_NAMES, 0.0))
    if isinstance(wl, workloads.Bignorm):
        layer.update(wl.layer_metrics(main_phase, traced))
    kept = tracer.write_spans(SPAN_DIR / f"{wl.name}.spans.json")
    lines.append(
        f"  traced slice: {rounds} round(s), {traced.ops} ops; traced/untraced ops_per_s = {ratio:.4f}"
        f" ({traced.ops / traced.busy():.1f} vs {plain.ops / plain.busy():.1f} 1/s)"
    )
    lines.append(f"  spans kept: {kept} (cap {SPAN_CAP}) in {SPAN_DIR.name}/{wl.name}.spans.json")
    return {k: (v, _layer_unit(k)) for k, v in layer.items()}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "bignorm", "ideal", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planeint" / "__init__.py").is_file():
        print(f"error: no planeint sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api = importlib.import_module("planeint")
    if Path(api.__file__).resolve().parent != (SRC / "planeint").resolve():
        print(f"error: imported planeint from {api.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](api, args.seed)

    lines = [f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"]
    setup_s = measure_setup(wl.import_target) if not args.trace else None
    results = Results()
    phase = run_phase(wl, results, seconds=args.seconds)
    rss = wl.child_peak_kb / 1024 if wl.name == "cli" else peak_rss_mb()
    comparable = True
    if args.trace:
        metrics = per_layer(wl, api, results, phase, lines)
    else:
        metrics, comparable = end_to_end(wl, phase, setup_s, rss, lines)

    bad = results.check(wl)
    failed = results.failed(bad)
    caught = results.caught is True
    correct = failed == 0 and caught and comparable
    lines.append(
        f"  attempted {results.attempted}  failed {failed}  failed_ratio {failed / max(results.attempted, 1):.6g}"
        f"  (errors {dict(results.errors)}, mismatched repeats {results.mismatched}, wrong keys {len(bad)})"
    )
    lines.append(f"  self-test: a corrupted result is {'counted as failed' if caught else 'NOT caught'}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:42s} {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
