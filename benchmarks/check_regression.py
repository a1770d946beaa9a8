"""Bench regression guard: fresh BENCH JSON vs the committed baseline.

The bench smoke job regenerates ``benchmarks/BENCH_*.json`` on every
run; this script compares selected rows of the *fresh* files against
the values committed at ``HEAD`` (via ``git show``) and fails on any
row that moved past its tolerance in the bad direction. The committed
JSON is the regression baseline: a PR that degrades a guarded path must
either fix the regression or consciously commit the new numbers.

Each guarded row declares its own direction and tolerance:

* ``higher`` rows (throughput) fail when the fresh value drops more
  than ``tolerance`` below the committed one;
* ``lower`` rows (latency percentiles, memory per reference) fail when
  the fresh value rises more than ``tolerance`` above it.

Guarded rows:

* ``BENCH_batching.json`` ``co_located_window.batched_ops_per_second``
  and ``co_located_window.speedup`` -- PR 5's batched-throughput
  numbers, which the cross-tag fairness work must not tax; plus
  ``deep_queue_drain.cpu_per_op_ratio`` (lower) -- CPU per settled op
  when one reference drains 3,200 queued writes, against 100, measured
  in one process so host speed cancels: a queue that walks itself on
  every poll read 14.5 (2 vCPUs, CPython 3.11), constant work reads
  about 1 (ceiling 1.5);
* ``BENCH_fairness.json``
  ``hot_cold_field.policies.round_robin.cold_ttfs_p99_seconds`` -- the
  round-robin quantum's cold-tag time-to-first-service tail: the
  fairness property itself, guarded as a latency (lower is better);
  plus ``mixed_cohort.settle_p50_virtual_seconds`` (lower) -- the median
  settle time of a cohort of cheap and costly visits served cheapest
  visit first, in deterministic virtual seconds on a ManualClock (tight
  tolerance: zero noise);
* ``BENCH_scaling.json`` ``reference_scaling.ops_per_second`` -- bulk
  reference throughput on the device reactor (loose tolerance: it is
  CPU-bound, so noisier across machines than the sleep-bound rows);
* ``BENCH_async.json`` ``idle_density.asyncio.kb_per_reference`` --
  middleware memory per idle reference at 100k references on the
  asyncio backend (the density tentpole); plus
  ``idle_density.asyncio.reference_bytes`` (lower) -- traced bytes per
  idle reference over 10,000, which repeat to the byte on one
  interpreter version: 25% over the committed 539 B stays below the
  838 B of a reference with an eager connectivity list and a per-tag
  port listener, and 20% over the committed 0.711 KB stays below that
  reference's 1.063 KB;
* ``BENCH_lint.json`` ``repo_lint.wall_seconds`` -- the repo-wide
  morelint sweep: flow-aware analysis must stay interactive (very
  loose tolerance, wall time on shared runners is noisy);
* ``BENCH_transport.json`` ``relay_roundtrip.overhead_ratio`` -- the
  relayed-vs-local round-trip cost ratio, measured in deterministic
  virtual seconds on a ManualClock (tight tolerance: zero noise);
* ``BENCH_gateway.json`` ``fleet_10k.events_per_second`` (higher) and
  ``fleet_10k.ingest_p99_seconds`` (lower) -- the 10k-device fleet
  replay's sustained ingestion rate and queue-wait tail, wall-clock
  under thread contention, so tolerances are generous; plus
  ``shard_isolation.sharded.cold_dropped`` (lower) -- cold-tag events
  the sharded layout sheds when a hot tag's burst overflows the whole
  buffer, a count that is 0 by construction (any drop fails it); plus
  ``fleet_density.reporter_bytes``, ``.history_bytes`` and
  ``.window_bytes`` (lower) -- traced bytes per idle reporter, per
  one-transition travel history and per one-bucket station window,
  which repeat to the byte on one interpreter version; at 688, 904 and
  320 B (a reporter holding a task and hook lists from birth, a
  ``deque`` per history, a dict per window) each row trips its guard.

Usage::

    python benchmarks/check_regression.py [--tolerance 0.10]

``--tolerance`` overrides the *default* tolerance; rows that declare
their own keep it. Exits 0 when all guarded rows hold (or no committed
baseline exists yet, e.g. on the first run of a new bench), 1 on
regression, 2 when a fresh file is missing (the bench did not run).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


@dataclass(frozen=True)
class GuardedRow:
    file: str
    path: str  # dotted path into the payload
    direction: str = "higher"  # "higher" | "lower" is better
    tolerance: Optional[float] = None  # None -> the CLI default


GUARDED_ROWS = [
    GuardedRow("BENCH_batching.json", "co_located_window.batched_ops_per_second"),
    GuardedRow("BENCH_batching.json", "co_located_window.speedup"),
    GuardedRow(
        "BENCH_batching.json",
        "deep_queue_drain.cpu_per_op_ratio",
        direction="lower",
        tolerance=0.48,  # keeps the ceiling under 1.5 (committed ~1.0)
    ),
    GuardedRow(
        "BENCH_fairness.json",
        "hot_cold_field.policies.round_robin.cold_ttfs_p99_seconds",
        direction="lower",
        tolerance=0.25,  # a p99 under scheduler churn: some spread expected
    ),
    GuardedRow(
        "BENCH_fairness.json",
        "mixed_cohort.settle_p50_virtual_seconds",
        direction="lower",
        tolerance=0.01,  # virtual seconds: deterministic, as relay_roundtrip
    ),
    GuardedRow(
        "BENCH_scaling.json",
        "reference_scaling.ops_per_second",
        tolerance=0.50,  # CPU-bound: machine-to-machine spread is real
    ),
    GuardedRow(
        "BENCH_async.json",
        "idle_density.asyncio.kb_per_reference",
        direction="lower",
        tolerance=0.20,  # RSS-derived: page-rounding wiggle across kernels
    ),
    GuardedRow(
        "BENCH_async.json",
        "idle_density.asyncio.reference_bytes",
        direction="lower",
        tolerance=0.25,  # traced bytes: exact on one interpreter version
    ),
    GuardedRow(
        "BENCH_lint.json",
        "repo_lint.wall_seconds",
        direction="lower",
        tolerance=1.00,  # wall time doubles before this trips
    ),
    GuardedRow(
        "BENCH_transport.json",
        "relay_roundtrip.overhead_ratio",
        direction="lower",
        # Virtual-time bench: deterministic to the float digit, so any
        # drift at all is a real cost-model change, not noise.
        tolerance=0.01,
    ),
    GuardedRow(
        "BENCH_gateway.json",
        "fleet_10k.events_per_second",
        tolerance=0.50,  # wall-clock under thread contention
    ),
    GuardedRow(
        "BENCH_gateway.json",
        "fleet_10k.ingest_p99_seconds",
        direction="lower",
        tolerance=1.00,  # a queue-wait tail: doubles before tripping
    ),
    GuardedRow(
        "BENCH_gateway.json",
        "shard_isolation.sharded.cold_dropped",
        direction="lower",
        tolerance=0.0,  # an event count: 0 committed, 0 allowed
    ),
    # Traced bytes repeat exactly: 25% over the committed 320, 240 and
    # 176 B stays below each of 688, 904 and 320.
    GuardedRow(
        "BENCH_gateway.json",
        "fleet_density.reporter_bytes",
        direction="lower",
        tolerance=0.25,
    ),
    GuardedRow(
        "BENCH_gateway.json",
        "fleet_density.history_bytes",
        direction="lower",
        tolerance=0.25,
    ),
    GuardedRow(
        "BENCH_gateway.json",
        "fleet_density.window_bytes",
        direction="lower",
        tolerance=0.25,
    ),
]


def committed_json(name: str) -> dict | None:
    """The file as committed at HEAD, or None if it isn't in git yet."""
    result = subprocess.run(
        ["git", "show", f"HEAD:benchmarks/{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def dig(payload: dict, dotted: str):
    value = payload
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def check_row(
    row: GuardedRow, baseline: float, fresh: float, default_tolerance: float
) -> tuple[bool, float]:
    """Whether ``fresh`` holds against ``baseline``; returns (ok, bound)."""
    tolerance = row.tolerance if row.tolerance is not None else default_tolerance
    if row.direction == "lower":
        ceiling = baseline * (1.0 + tolerance)
        return fresh <= ceiling, ceiling
    floor = baseline * (1.0 - tolerance)
    return fresh >= floor, floor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="default max fractional drift for rows without their own "
        "(default 0.10)",
    )
    args = parser.parse_args()

    failures = []
    checked = 0
    for row in GUARDED_ROWS:
        fresh_path = BENCH_DIR / row.file
        if not fresh_path.exists():
            print(f"regression guard: {row.file} missing -- did the bench run?")
            return 2
        fresh = dig(json.loads(fresh_path.read_text()), row.path)
        baseline_payload = committed_json(row.file)
        if baseline_payload is None:
            print(f"{row.file}: no committed baseline yet, skipping")
            continue
        baseline = dig(baseline_payload, row.path)
        if baseline is None or fresh is None:
            print(
                f"{row.file}:{row.path}: row absent "
                f"(baseline={baseline}, fresh={fresh})"
            )
            continue
        checked += 1
        ok, bound = check_row(row, baseline, fresh, args.tolerance)
        bound_label = "ceiling" if row.direction == "lower" else "floor"
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"{row.file}:{row.path} ({row.direction} is better): "
            f"committed={baseline} fresh={fresh} {bound_label}={bound:.2f} "
            f"-> {verdict}"
        )
        if not ok:
            failures.append((row.file, row.path, baseline, fresh))

    if failures:
        print(
            f"\n{len(failures)} guarded bench row(s) drifted past their "
            "tolerance in the bad direction."
        )
        return 1
    print(f"\nregression guard: {checked} row(s) checked, all within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
