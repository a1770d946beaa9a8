"""End-to-end benchmark of the MORENA reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tap_visit --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it measures an untraced phase,
a span phase (public entry points wrapped from this directory) and a
profiled phase, prints the per-layer metrics and writes the spans to
``perfbench/out/<workload>-spans.jsonl``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and the run report
go to standard error. See README.md for every workload and metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")  # traced runs write their spans here

WORKLOADS = ("tap_visit", "crowd_backlog", "fleet_ingest")
SECOND_SEED = 20121203  # the re-check seed (README.md, "Seeds")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the program from this checkout's ``src/``, or fail loudly."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program under {SOURCE}/repro\n")
        sys.exit(2)
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)


def pin_to_one_cpu() -> list:
    """Run the whole process on one CPU; returns the CPUs it may use.

    The program is bound by the interpreter lock, so a second CPU adds
    no throughput, and on a virtual machine wakeups that cross CPUs
    (looper -> reactor -> looper hand-offs) made the latency tail follow
    the host's scheduling rather than the program. Threads inherit the
    affinity, so this runs before anything starts a thread.
    """
    if not hasattr(os, "sched_setaffinity"):
        return sorted(range(os.cpu_count() or 1))
    allowed = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {allowed[0]})
    except OSError:
        return allowed  # a sandbox may forbid it; the run goes on unpinned
    return [allowed[0]]


def host_loop_rate(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop: how fast this
    host ran the interpreter around the run (it drifts on shared hosts)."""
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        total = 0
        for value in range(2000):
            total += value * value
        rounds += 1
    return rounds / (time.perf_counter() - start)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    load_program()
    cpus = pin_to_one_cpu()
    host_before = host_loop_rate()
    from common import UNITS, end_to_end_metrics, percentile, pooled_stats, window_stats

    workload = importlib.import_module(args.workload)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "second_seed": SECOND_SEED,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_affinity": cpus,
        "python": platform.python_version(),
    }
    if args.trace:
        from traced import traced_run

        os.makedirs(OUT, exist_ok=True)
        result, metrics, report = traced_run(
            workload, args.seed, args.seconds,
            os.path.join(OUT, f"{args.workload}-spans.jsonl"))
    else:
        result = workload.run(args.seed, args.seconds)
        values = end_to_end_metrics(result)
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        report = {"end_to_end": values}
    phase = result.phase
    phase.validity["host_loop_rate_before"] = host_before
    phase.validity["host_loop_rate_after"] = host_loop_rate()
    meta.update(getattr(workload, "META", {}))
    report.update({
        "meta": meta,
        "validity": phase.validity,
        "samples": {"ops": phase.ops, "latencies": len(phase.latencies),
                    "holds": len(phase.holds), "queries": len(phase.queries_s)},
        "setup_builds_s": result.setup_s,
        "windows": window_stats(phase),
        "pooled": pooled_stats(phase),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in result.checks],
    })
    if phase.queries_s:
        # Reported, not guarded: see README.md, "Dashboard reads".
        report["query_p50_ms"] = 1000.0 * percentile(phase.queries_s, 50)
    sys.stderr.write(json.dumps(report, indent=2, default=str) + "\n")
    valid = bool(phase.validity.get("valid", True))
    print(json.dumps({
        "correct": result.correct and valid,
        "attempted": max(phase.attempted, 1),
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
