#!/usr/bin/env python3
"""Closed-loop benchmark of the weakarith workbench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

One client, one thread: each job is sent only after the previous one has
finished and its output has been checked. The jobs of a round come from
the seed; rounds repeat until the time is up. With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1
untraced and traced rounds alternate and it carries the per-layer metrics.
The program is imported from ./src, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import models  # noqa: E402
import oracles  # noqa: E402
import prove  # noqa: E402
from common import CheckFailed, Inputs, prepare  # noqa: E402
from reference import r_axiom_text  # noqa: E402
from tracing import UNITS, Tracer, count_metrics, time_metrics  # noqa: E402

WORKLOADS = {"prove": prove, "models": models, "oracles": oracles}
DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_ROUNDS = 3
DIGESTS = HERE / "digests.json"
# the smallest input known to crash the printer (ax2(130, 130), a numeral
# of depth 16,900); it is probed in traced runs instead of being a job, so
# that every job of a timed round can succeed
KNOWN_DEFECT_ARGV = ["axioms", "R", "--start", "170301", "--count", "1"]

# What the reference loop of REFERENCE_ITERATIONS takes on an uncontended
# core of the host the benchmark was defined on; every reported time is
# scaled to that speed. Jobs are gauged with a tenth of the loop.
NOMINAL_REFERENCE_S = 0.007
REFERENCE_ITERATIONS = 20000
JOB_GAUGE_ITERATIONS = 2000

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin-digests", action="store_true",
                   help="record the stdout digests of the CLI jobs for the default seed")
    p.add_argument("--setup-child", metavar="WORKDIR",
                   help="internal: time import and preparation in this fresh process")
    args = p.parse_args(argv)
    if args.setup_child is None and args.workload is None:
        p.error("--workload is required")
    return args


# --- running jobs ------------------------------------------------------------------


class Runner:
    def __init__(self, ctx, pinned: dict | None):
        self.ctx = ctx
        self.pinned = pinned
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.raw_seconds: list[float] = []
        self.scales: list[float] = []

    def run(self, job, record: bool = True) -> float:
        """Run and check one job; returns the seconds spent in the program."""
        start = perf_counter()
        try:
            out = job.call(self.ctx)
            raised = None
        except Exception as exc:  # a job boundary: count the failure, keep going
            out, raised = exc, exc
        elapsed = perf_counter() - start
        error = None
        if job.raises is None and raised is not None:
            error = f"raised {type(raised).__name__}: {str(raised)[:200]}"
        elif job.raises is not None and type(raised).__name__ != job.raises:
            error = f"expected {job.raises}, got {type(raised).__name__ if raised else 'a result'}"
        else:
            try:
                job.check(out, self.ctx)
                if job.digest_key is not None:
                    self._check_digest(job.digest_key, out[1])
            except Exception as exc:  # a failed check, however it fails
                kind = "" if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: "
                error = f"check: {kind}{str(exc)[:200]}"
        if record:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{job.kind}: {error}")
        elif error is not None:
            self.messages.append(f"warm-up {job.kind}: {error}")
        return elapsed

    def _check_digest(self, key: str, stdout: str) -> None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.digests[key] = digest
        if self.pinned is not None and key in self.pinned and self.pinned[key] != digest:
            raise CheckFailed(f"stdout digest of {key} differs from the pinned one")

    def round(self, jobs) -> list[float]:
        """Run every job once; returns each job's program time at reference speed.

        A tenth of the reference loop is timed right before and right after
        each job, and the job's seconds are scaled by that loop's nominal
        time over the mean of the two gauges.
        """
        nominal = NOMINAL_REFERENCE_S * JOB_GAUGE_ITERATIONS / REFERENCE_ITERATIONS
        raw, scaled = [], []
        for job in jobs:
            before = host_reference(JOB_GAUGE_ITERATIONS, tries=1)
            seconds = self.run(job)
            gauge = (before + host_reference(JOB_GAUGE_ITERATIONS, tries=1)) / 2
            raw.append(seconds)
            scaled.append(seconds * nominal / gauge)
        self.raw_seconds.append(sum(raw))
        self.scales.append(sum(scaled) / sum(raw))
        return scaled


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: tuples built, hashed and counted in a dict."""
    total = 0
    seen: dict = {}
    for i in range(iterations):
        key = (i % 97, (i * 7) % 13, "x")
        seen[key] = seen.get(key, 0) + 1
        total += hash(key) & 0xFF
    return total


def host_reference(iterations: int = REFERENCE_ITERATIONS, tries: int = 3) -> float:
    """The fastest of some timings of the reference loop, in seconds.

    The two cores are shared with other tenants, and their speed flips
    between two states within tens of milliseconds (the loop takes 7.3 ms
    in one and 12 to 14 ms in the other; timings 200 ms apart are nearly
    uncorrelated). Scaling each job's time by a gauge taken right around
    it keeps that change out of the figures.
    """
    best = float("inf")
    for _ in range(tries):
        start = perf_counter()
        reference_loop(iterations)
        best = min(best, perf_counter() - start)
    return best


def warm_up(runner: Runner, jobs) -> None:
    """Run one job of each kind so that lazy imports are done before timing.

    The prepared inputs then move out of the collector's reach: they live
    for the whole run, and rescanning them would charge collection pauses
    proportional to the benchmark's inputs to whichever job happens to run.
    """
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            runner.run(job, record=False)
    gc.collect()
    gc.freeze()


def measure_setup(workdir: Path) -> list[float]:
    """Set-up seconds of fresh interpreters, each at reference speed.

    Each child gauges the host right before and after its own set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, gauge = map(float, done.stdout.split())
        times.append(seconds * NOMINAL_REFERENCE_S / gauge)
    return times


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def job_medians(rounds: list[list[float]]) -> list[float]:
    """Each job's median time over the rounds run."""
    return [statistics.median(times) for times in zip(*rounds)]


# --- the two kinds of run ------------------------------------------------------------


def run_rounds(runner: Runner, jobs, seconds: float, step) -> int:
    """Call step() for whole rounds until the time is up, at least MIN_ROUNDS times."""
    wall = perf_counter()
    count = 0
    while count < MIN_ROUNDS or perf_counter() - wall < seconds:
        step()
        count += 1
    return count


def timed_run(runner: Runner, jobs, seconds: float, setup_times) -> dict:
    warm_up(runner, jobs)
    rounds: list[list[float]] = []
    run_rounds(runner, jobs, seconds, lambda: rounds.append(runner.round(jobs)))
    lat = job_medians(rounds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_p90_ms": 1000 * percentile(lat, 0.9),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }


def traced_run(runner: Runner, jobs, seconds: float, spans_path: Path) -> tuple[dict, bool]:
    warm_up(runner, jobs)
    plain, traced, counts, times = [], [], [], []

    def step():
        plain.append(runner.round(jobs))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(runner.round(jobs))
        finally:
            tracer.uninstall()
        if not counts:
            tracer.write_spans(spans_path)
        counts.append(count_metrics(tracer))
        # seconds scale like the job times of the round, rates inversely
        scale = runner.scales[-1]
        times.append({name: value * scale if name.endswith("_s") else value / scale
                      for name, value in time_metrics(tracer).items()})

    run_rounds(runner, jobs, seconds, step)
    values = dict(counts[0])
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    values["trace.overhead_ratio"] = sum(job_medians(traced)) / sum(job_medians(plain))
    values["machines.alloc_peak_mb"] = ladder_alloc_peak(runner, jobs)
    values["known_defects.failing"] = known_defects(runner.ctx)
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        runner.messages.append("per-layer counts differ between traced rounds")
    return values, deterministic


def ladder_alloc_peak(runner: Runner, jobs) -> float:
    """Largest traced allocation peak of any stage-ladder job, in MB."""
    peak = 0
    ladders = [job for job in jobs if job.kind.startswith("ladder.")]
    if not ladders:
        return 0.0
    tracemalloc.start()
    try:
        for job in ladders:
            tracemalloc.reset_peak()
            runner.run(job, record=False)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def known_defects(ctx) -> int:
    """How many known-defect inputs still fail (1 while the printer recurses)."""
    want = r_axiom_text("R", 170301) + "\n"
    try:
        code, out, _ = ctx.cli(KNOWN_DEFECT_ARGV)
    except RecursionError:
        return 1
    return 0 if (code, out) == (0, want) else 1


def exact_number(value) -> bool:
    """True for a finite float, or an int that a JSON reader's double holds exactly."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= 2 ** 53 if isinstance(value, int) else math.isfinite(value)


# --- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "weakarith" / "__init__.py").is_file():
        print(f"error: no weakarith sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # formula codes run to tens of thousands of digits
    sys.set_int_max_str_digits(0)

    if args.setup_child is not None:
        before = host_reference()
        start = perf_counter()
        prepare(Path(args.setup_child))
        seconds = perf_counter() - start
        print(seconds, (before + host_reference()) / 2)
        return 0

    import weakarith
    if Path(weakarith.__file__).resolve().parent != (src / "weakarith").resolve():
        print(f"error: weakarith imported from {weakarith.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        inputs = Inputs(workdir.relative_to(root))
        jobs = WORKLOADS[args.workload].generate(rng, inputs)
        inputs.save()
        pinned = None
        if args.seed == DEFAULT_SEED and DIGESTS.is_file() and not args.pin_digests:
            pinned = json.loads(DIGESTS.read_text()).get(args.workload, {})
        setup_times = [] if args.trace else measure_setup(workdir.relative_to(root))
        runner = Runner(prepare(workdir.relative_to(root)), pinned)
        if args.trace:
            spans_dir = root / ".perfbench_spans"
            spans_dir.mkdir(exist_ok=True)
            values, deterministic = traced_run(
                runner, jobs, args.seconds,
                spans_dir / f"{args.workload}-seed{args.seed}.csv")
        else:
            values, deterministic = timed_run(runner, jobs, args.seconds, setup_times), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.pin_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = dict(sorted(runner.digests.items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    for message in runner.messages:
        print(f"FAILED {message}", file=sys.stderr)
    units = {**END_TO_END_UNITS, **{name: unit for name, (unit, _) in UNITS.items()}}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} jobs run in rounds of {len(jobs)}, {runner.failed} failed; "
          f"latencies are per-job medians over the rounds ({len(jobs)} samples), "
          f"scaled to reference speed")
    if runner.scales:
        scales = sorted(runner.scales)
        print(f"  rounds scaled to reference speed by {scales[0]:.3f} to {scales[-1]:.3f}; "
              f"unscaled program time {sum(runner.raw_seconds):.3f} s "
              f"over {len(scales)} rounds")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    unreadable = [name for name, value in values.items() if not exact_number(value)]
    if unreadable:
        print(f"error: not a finite number a double holds exactly: {', '.join(unreadable)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0 and deterministic,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
