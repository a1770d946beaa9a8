"""Measurement helpers shared by the workloads.

Everything here observes the program from outside: wall clock, process
CPU time across all threads, peak resident set size, and percentiles
over latency samples the workloads collect at public calls.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Iterator, List, Tuple, TypeVar

T = TypeVar("T")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """Wall and process-CPU time of one measured phase."""

    def __init__(self) -> None:
        self.wall_start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def close(self) -> "Window":
        self.wall_s = time.perf_counter() - self.wall_start
        self.cpu_s = time.process_time() - self.cpu_start
        return self


@contextmanager
def built_scenario(build: Callable[[], T], teardown: Callable[[T], None],
                   repeats: int) -> Iterator[Tuple[T, List[float]]]:
    """Build the scenario ``repeats`` times; yield the last and all build times.

    Every build but the last is torn down again, so the timed phase runs
    on one scenario while set-up time is a median over several builds.
    Each build starts after a full collection, so it does not pay for the
    previous build's garbage. The kept scenario's heap is then frozen out
    of the cyclic collector (``gc.freeze``), as a long-running service
    does after start-up: full collections scan only what the timed phase
    allocates. Without it a full collection over the set-up heap, up to
    70 ms on the gateway's 10,000 reporters, lands on whichever op or
    dashboard read is running and sets the tail.
    """
    times: List[float] = []
    built = None
    for index in range(repeats):
        gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
        if index < repeats - 1:
            teardown(built)
    gc.collect()
    gc.freeze()
    try:
        yield built, times
    finally:
        try:
            teardown(built)
        finally:
            gc.unfreeze()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PhaseResult:
    """What one measured phase of a workload produced.

    ``latencies`` and ``holds`` are ``(completed_at, seconds)`` pairs;
    ``marks`` are ``(wall, process cpu, ops so far)`` readings at the
    window boundaries the :class:`Windows` clock cut.
    """

    ops: int = 0  # ops settled inside the phase
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    holds: List[Tuple[float, float]] = field(default_factory=list)
    queries_s: List[float] = field(default_factory=list)
    marks: List[Tuple[float, float, int]] = field(default_factory=list)
    validity: Dict[str, object] = field(default_factory=dict)

    @property
    def cpu_ms_per_op(self) -> float:
        return 1000.0 * self.cpu_s / max(self.ops, 1)


class Windows:
    """Cuts a measured phase of ``seconds`` into fixed windows of ``period``.

    A phase shorter than two periods is cut in half instead, so a short
    smoke run still yields whole windows. The workload calls
    :meth:`tick` from its generator loop; each time a boundary has
    passed it records wall time, process CPU time and the ops settled so
    far. End-to-end metrics are computed per window and reported as the
    median over windows, so a disturbance that hits one window of the
    run does not move the run's figures.
    """

    def __init__(self, phase: PhaseResult, period: float, start: float,
                 seconds: float) -> None:
        self.phase = phase
        self.period = min(period, seconds / 2.0)
        self.next = start + self.period
        phase.marks.append((start, time.process_time(), phase.ops))

    def tick(self, now: float) -> None:
        if now >= self.next:
            self.phase.marks.append((now, time.process_time(), self.phase.ops))
            while self.next <= now:
                self.next += self.period


@dataclass
class RunResult:
    """A whole run: set-up times, the measured phase, and the output checks."""

    setup_s: List[float]
    phase: PhaseResult
    checks: List[Check]

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


def window_stats(phase: PhaseResult) -> List[Dict[str, float]]:
    """Per-window throughput, CPU per op and latency percentiles."""
    rows = []
    for (w0, c0, o0), (w1, c1, o1) in zip(phase.marks, phase.marks[1:]):
        ops = o1 - o0
        latencies = [v for t, v in phase.latencies if w0 <= t < w1]
        holds = [v for t, v in phase.holds if w0 <= t < w1]
        if ops <= 0 or not latencies or not holds:
            continue
        rows.append({
            "ops": ops,
            "ops_per_s": ops / (w1 - w0),
            "cpu_ms_per_op": 1000.0 * (c1 - c0) / ops,
            "op_p50_ms": 1000.0 * percentile(latencies, 50),
            "op_p99_ms": 1000.0 * percentile(latencies, 99),
            "op_p99_beyond": samples_beyond(len(latencies), 99),
            "hold_p50_ms": 1000.0 * percentile(holds, 50),
            "hold_p90_ms": 1000.0 * percentile(holds, 90),
            "hold_p90_beyond": samples_beyond(len(holds), 90),
        })
    return rows


def pooled_stats(phase: PhaseResult) -> Dict[str, float]:
    """Latency percentiles over every sample of the phase, not per window."""
    latencies = [v for _, v in phase.latencies]
    holds = [v for _, v in phase.holds]
    return {
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_p99_ms": 1000.0 * percentile(latencies, 99),
        "op_p99_beyond": samples_beyond(len(latencies), 99),
        "hold_p50_ms": 1000.0 * percentile(holds, 50),
        "hold_p90_ms": 1000.0 * percentile(holds, 90),
        "hold_p90_beyond": samples_beyond(len(holds), 90),
    }


WINDOWED = ("ops_per_s", "cpu_ms_per_op", "op_p50_ms", "op_p99_ms",
            "hold_p50_ms", "hold_p90_ms")


def end_to_end_metrics(result: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (see README.md)."""
    rows = window_stats(result.phase)
    if not rows:
        raise RuntimeError("the timed phase produced no complete window")
    metrics = {"setup_s": median(result.setup_s)}
    for name in WINDOWED:
        metrics[name] = median([row[name] for row in rows])
    metrics["rss_mb"] = peak_rss_mb()
    return metrics


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_mb": "MB",
    "hold_p50_ms": "ms",
    "hold_p90_ms": "ms",
}


def wait_for(predicate: Callable[[], bool], timeout: float,
             poll: float = 0.001) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() >= deadline:
            return False
        time.sleep(poll)
    return True

