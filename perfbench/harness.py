"""Run loop and process-level measurements of one benchmark run.

Every workload is a class with ``prepare()`` (its set-ups, timed one by
one), ``run_round()`` (one whole round, returning the wall latencies of
the operations it completed), ``finish()`` (the end-of-run work and
checks, returning how many operations failed them), ``close()`` and
``setup_times()``. :func:`measure` drives it for a fixed number of
timed seconds and turns what it saw into the metrics of one run.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (holds ``src/repro``).
ROOT = Path(__file__).resolve().parent.parent


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def ensure_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class CheckFailed(AssertionError):
    """A correctness check on the program's output did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RoundResult:
    """What one round did."""

    #: Wall latency of each operation the round completed, seconds.
    latencies_s: list[float]
    #: Operations the round attempted (completed or not).
    attempted: int
    #: Wall seconds of the round's timed work; ``None`` when that is the
    #: whole ``run_round`` call (checks made inside a round are not timed).
    busy_s: float | None = None


@dataclass
class RunReport:
    """Everything one run measured, before it is printed."""

    setup_times_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per timed round: operations completed per wall second.
    round_rates: list[float] = field(default_factory=list)
    #: Per timed round: median operation latency, seconds.
    round_p50s: list[float] = field(default_factory=list)
    #: Every timed operation's latency, seconds.
    latencies_s: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def end_to_end(self) -> dict:
        """The end-to-end metrics of ``BENCHMARK.json`` for this run.

        Throughput and median latency are read per round and then taken
        at the worse quartile of rounds: the rate sustained in three
        rounds of four, and the median latency not exceeded in three of
        four. A shared virtual machine can switch between a fast and a
        ~1.45x slower CPU phase every few seconds (README.md); a whole-run
        mean would report how much of a run fell in the fast phase,
        whereas the worse quartile lands in the slow phase unless it
        covered less than a quarter of the run. p95 is taken over every
        operation.
        """
        return {
            "setup_s": (statistics.median(self.setup_times_s), "s"),
            "ops_per_s": (quantile(self.round_rates, 0.25), "1/s"),
            "op_p50_ms": (1e3 * quantile(self.round_p50s, 0.75), "ms"),
            "op_p95_ms": (1e3 * quantile(self.latencies_s, 0.95), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    """Host facts printed with every run, for comparing like with like."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(terse=True),
    }


def measure(workload, seconds: float, tracer=None) -> RunReport:
    """Set up, then run whole rounds until ``seconds`` of timed work.

    The first ``workload.WARMUP_ROUNDS`` rounds fill pipelines and are
    checked and counted like the rest, but not timed. Peak RSS is read
    after ``workload.RSS_ROUNDS`` timed rounds (or at the end of a
    shorter run): state the program keeps per operation grows with the
    number of operations, so reading it later would charge a faster
    program for doing more work in the same time.

    With a ``tracer``, odd timed rounds run with the layer wrappers
    installed and even ones without, so the traced run also measures its
    own overhead on the same deployment.
    """
    report = RunReport()
    try:
        workload.prepare()
        for _ in range(workload.WARMUP_ROUNDS):
            report.attempted += workload.run_round().attempted
        plain = [0.0, 0]  # wall seconds, operations completed
        traced = [0.0, 0]
        while report.timed_s < seconds or (tracer is not None and report.rounds < 2):
            on = tracer is not None and report.rounds % 2 == 1
            if on:
                before = workload.program_counters()
                tracer.install()
            start = time.perf_counter()
            result = workload.run_round()
            elapsed = time.perf_counter() - start
            if on:
                tracer.uninstall()
                tracer.add_round(len(result.latencies_s), before, workload.program_counters())
            if result.busy_s is not None:
                elapsed = result.busy_s
            side = traced if on else plain
            side[0] += elapsed
            side[1] += len(result.latencies_s)
            report.rounds += 1
            report.timed_s += elapsed
            report.attempted += result.attempted
            if result.latencies_s:
                report.round_rates.append(len(result.latencies_s) / elapsed)
                report.round_p50s.append(statistics.median(result.latencies_s))
                report.latencies_s.extend(result.latencies_s)
            if report.rounds == workload.RSS_ROUNDS:
                report.peak_rss_mb = peak_rss_mb()
        report.failed += workload.finish()
        if not report.peak_rss_mb:
            report.peak_rss_mb = peak_rss_mb()
        report.setup_times_s = workload.setup_times()
        report.counters = workload.counters()
        if tracer is not None:
            report.per_layer = tracer.per_layer(workload.setup_layers)
            if plain[1] and traced[1]:
                slowdown = (traced[0] / traced[1]) / (plain[0] / plain[1])
                report.per_layer["tracing.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        workload.close()
    return report
