"""Scaling benches: reference population (decision 7) and crowd churn.

**Reference scaling** (DESIGN.md decision 7): the seed gave every tag
reference a private OS thread (the paper-literal reading of "its own
thread of control"), so 1,000 live references cost 1,000 threads plus
polling wakeups while tags are out of range. The reactor multiplexes
all logical loops onto one loop thread, so the same population must fit
in a bounded thread budget and burn (near) zero CPU while idle.

Two measurements:

* throughput -- a write+read per reference across 1,000 concurrent
  references, with the runtime thread count sampled mid-flight (must
  stay at or under ``MAX_RUNTIME_THREADS``; the seed needed >= 1,000);
* idle CPU -- 1,000 references each parked on an absent tag with a
  pending write: every logical loop sits on the deadline heap, so a
  half-second window must cost under ``IDLE_CPU_CEILING_SECONDS`` of
  process CPU.

**Crowd churn** (the fair-scheduling substrate at scale): 100 devices x
1,000 tags sweeping through fields under the two churn generators
(turnstile rush, warehouse conveyor) -- a full-speed pass measures bulk
field-mutation throughput, and a paced pass with instrumented
references on one gate reports head-of-line metrics (time-to-first-
service, starvation ticks) from the scheduler's own telemetry while the
crowd churns around it.

Both benches merge their rows into ``BENCH_scaling.json``.
"""

import threading
import time

from repro.concurrent import EventLog
from repro.harness.crowd import run_churn, turnstile_rush, warehouse_conveyor
from repro.harness.report import Table
from repro.harness.scenario import Scenario
from repro.metrics import percentile
from repro.tags.factory import make_tags

from benchmarks.conftest import emit_bench_json
from tests.conftest import PlainNfcActivity, make_reference

REFERENCES = 1000
MAX_RUNTIME_THREADS = 64
IDLE_WINDOW_SECONDS = 0.5
IDLE_CPU_CEILING_SECONDS = 0.05  # "near zero" over the idle window
PARK_TIMEOUT = 120.0  # pending-write timeout while tags are absent

# Crowd-churn population: the acceptance floor is 100 devices x 1,000
# churning tags in one process.
CROWD_DEVICES = 100
CROWD_TAGS = 1000
INSTRUMENTED_TAGS = 8

_PAYLOAD = {}


def _idle_cpu(wall_seconds: float) -> float:
    """Process CPU seconds consumed while this thread sleeps."""
    start = time.process_time()
    time.sleep(wall_seconds)
    return time.process_time() - start


def _run_reactor_population() -> dict:
    with Scenario() as scenario:
        phone = scenario.add_phone("scale")
        activity = scenario.start(phone, PlainNfcActivity)
        tags = make_tags(REFERENCES)
        for tag in tags:
            scenario.put(tag, phone)
        threads_before = threading.active_count()
        references = [make_reference(activity, tag, phone) for tag in tags]

        done = EventLog()
        started = time.monotonic()
        for index, reference in enumerate(references):
            reference.write(
                f"w{index}", on_written=lambda r: done.append(1), timeout=60.0
            )
            reference.read(on_read=lambda r: done.append(1), timeout=60.0)
        threads_during = threading.active_count()
        assert done.wait_for_count(2 * REFERENCES, timeout=120)
        elapsed = time.monotonic() - started
        threads_peak = max(threads_during, threading.active_count())

        # Idle phase: every reference holds one pending write on a tag
        # that has left the field; the logical loops all park on the
        # reactor's deadline heap.
        for tag in tags:
            scenario.take(tag, phone)
        for reference in references:
            reference.write("parked", timeout=PARK_TIMEOUT)
        time.sleep(0.2)  # let every task take its absent-tag step
        idle_cpu = _idle_cpu(IDLE_WINDOW_SECONDS)

        return {
            "references": REFERENCES,
            "ops_completed": 2 * REFERENCES,
            "elapsed_seconds": elapsed,
            "ops_per_second": (2 * REFERENCES) / elapsed,
            "threads_before": threads_before,
            "threads_peak": threads_peak,
            "reactor_workers": phone.reactor.thread_count,
            "idle_cpu_seconds": idle_cpu,
        }


def test_thousand_references_bounded_threads(benchmark):
    reactor = benchmark.pedantic(_run_reactor_population, rounds=1, iterations=1)

    table = Table(
        f"Reference scaling -- {REFERENCES} concurrent references on the "
        "device reactor",
        ["measure", "reactor"],
    )
    table.add_row("peak runtime threads", reactor["threads_peak"])
    table.add_row("ops/second", round(reactor["ops_per_second"]))
    table.add_row(
        f"idle CPU over {IDLE_WINDOW_SECONDS}s (s)",
        round(reactor["idle_cpu_seconds"], 4),
    )
    table.print()

    _PAYLOAD["reference_scaling"] = {
        "references": REFERENCES,
        "max_runtime_threads": MAX_RUNTIME_THREADS,
        "ops_completed": reactor["ops_completed"],
        "ops_per_second": reactor["ops_per_second"],
        "threads_peak": reactor["threads_peak"],
        "reactor_workers": reactor["reactor_workers"],
        "idle_cpu_seconds_reactor": reactor["idle_cpu_seconds"],
        "idle_window_seconds": IDLE_WINDOW_SECONDS,
    }
    emit_bench_json("scaling", _PAYLOAD)

    # 1,000 concurrent references fit in the bounded thread budget; the
    # seed's thread-per-reference design needed >= 1,000 threads here.
    assert reactor["threads_peak"] <= MAX_RUNTIME_THREADS
    assert reactor["ops_completed"] == 2 * REFERENCES
    # Parked references cost (nearly) nothing while they wait.
    assert reactor["idle_cpu_seconds"] < IDLE_CPU_CEILING_SECONDS


# -- crowd churn -------------------------------------------------------------------


def _first_visits(schedule):
    """The first ``INSTRUMENTED_TAGS`` distinct tags to enter any gate,
    as ``(tag_index, device_index)`` of each tag's first visit."""
    visits = {}
    for event in schedule:
        if not event.enter:
            continue
        for tag_index in event.tag_indices:
            if tag_index not in visits:
                visits[tag_index] = event.device_index
                if len(visits) == INSTRUMENTED_TAGS:
                    return list(visits.items())
    return list(visits.items())


def _run_crowd_scenario(full_schedule, paced_schedule) -> dict:
    """One churn scenario: a full-speed bulk-mutation pass over the
    whole population, then a paced pass with instrumented references on
    the gates the probe tags visit first (head-of-line telemetry)."""
    with Scenario() as scenario:
        phones = scenario.add_phones(CROWD_DEVICES, prefix="gate")
        tags = scenario.add_tags(CROWD_TAGS)

        full_stats = run_churn(scenario, full_schedule, devices=phones, tags=tags)

        probes = _first_visits(paced_schedule)
        activities = {}
        served = EventLog()
        probe_refs = []
        for tag_index, device_index in probes:
            phone = phones[device_index]
            if device_index not in activities:
                activities[device_index] = scenario.start(phone, PlainNfcActivity)
            reference = make_reference(
                activities[device_index], tags[tag_index], phone
            )
            reference.write(
                "hol-probe", timeout=120.0, on_written=lambda _r: served.append(1)
            )
            probe_refs.append((tag_index, device_index))
        paced_stats = run_churn(
            scenario, paced_schedule, time_scale=1.0, devices=phones, tags=tags
        )
        scenario.sync_all()

        ttfs_sample = []
        starvation_ticks = 0
        for tag_index, device_index in probe_refs:
            snapshot = phones[device_index].tx_scheduler.stats_snapshot()
            row = snapshot["tags"].get(tags[tag_index].uid_hex)
            if row is None:
                continue
            starvation_ticks += row["starvation_ticks"]
            if row["time_to_first_service"] is not None:
                ttfs_sample.append(row["time_to_first_service"])

        return {
            "devices": CROWD_DEVICES,
            "tags": CROWD_TAGS,
            "full_speed": full_stats.as_dict(),
            "paced": paced_stats.as_dict(),
            "probes": len(probe_refs),
            "probes_served": len(served),
            "probe_ttfs_p50_seconds": (
                round(percentile(ttfs_sample, 50), 4) if ttfs_sample else None
            ),
            "probe_ttfs_p99_seconds": (
                round(percentile(ttfs_sample, 99), 4) if ttfs_sample else None
            ),
            "probe_starvation_ticks": starvation_ticks,
        }


def test_crowd_churn_sustains_hundred_devices_thousand_tags(benchmark):
    """100 devices x 1,000 churning tags in one process, with
    head-of-line metrics reported per scenario."""
    scenarios = {
        "turnstile_rush": (
            turnstile_rush(
                CROWD_DEVICES,
                CROWD_TAGS,
                duration_seconds=5.0,
                arrivals_per_second=500.0,
                seed=21,
            ),
            turnstile_rush(
                CROWD_DEVICES,
                CROWD_TAGS,
                duration_seconds=1.2,
                arrivals_per_second=200.0,
                dwell_seconds=(0.1, 0.3),
                seed=11,
            ),
        ),
        "warehouse_conveyor": (
            warehouse_conveyor(CROWD_DEVICES, CROWD_TAGS, cohort_size=10, seed=22),
            warehouse_conveyor(
                CROWD_DEVICES,
                80,
                cohort_size=8,
                belt_stride_seconds=0.01,
                gate_dwell_seconds=0.1,
                cohort_gap_seconds=0.02,
                seed=12,
            ),
        ),
    }

    def run_all():
        return {
            name: _run_crowd_scenario(full, paced)
            for name, (full, paced) in scenarios.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        f"Crowd churn -- {CROWD_DEVICES} devices x {CROWD_TAGS} tags, "
        "bulk field mutations + instrumented head-of-line probes",
        [
            "scenario",
            "moves/s (full speed)",
            "peak field",
            "probes served",
            "TTFS p99 (s)",
            "starvation",
        ],
    )
    for name, row in results.items():
        table.add_row(
            name,
            round(row["full_speed"]["moves_per_second"]),
            row["full_speed"]["peak_field_size"],
            f"{row['probes_served']}/{row['probes']}",
            row["probe_ttfs_p99_seconds"],
            row["probe_starvation_ticks"],
        )
    table.print()

    for name, row in results.items():
        # The full-speed pass really exercised the crowd...
        assert row["full_speed"]["events"] > 0
        assert row["full_speed"]["tag_moves"] >= CROWD_TAGS
        assert row["full_speed"]["moves_per_second"] > 5_000
        # ...and the paced pass produced live head-of-line telemetry.
        assert row["probes"] == INSTRUMENTED_TAGS
        assert row["probes_served"] >= INSTRUMENTED_TAGS // 2
        if row["probe_ttfs_p99_seconds"] is not None:
            assert row["probe_ttfs_p99_seconds"] < 1.0

    _PAYLOAD["crowd_churn"] = results
    emit_bench_json("scaling", _PAYLOAD)
