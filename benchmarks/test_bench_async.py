"""Reactor benches: idle density, wakeup latency, throughput.

The density claim of the asyncio reactor (DESIGN.md decision 14):
every reference's logical event loop is a plain callback chain on one
shared event loop, so an idle reference costs a few slotted objects --
no thread, no stack, no per-reference waiter state -- and 100,000 of
them fit in one process at near-zero steady-state CPU.

Three measurements, merged into ``BENCH_async.json``:

* idle density -- 100k references on one device reactor:
  middleware RSS per idle reference (tags are built before the
  baseline snapshot, so the simulated tag's own memory -- physics, not
  middleware -- is excluded), plus idle CPU once every reference holds
  a parked pending write whose deadline sits on the reactor's timer
  heap (a single armed ``call_later``, however many deadlines park);
* wakeup latency -- p50/p99 lag between a ``schedule_at`` deadline and
  the step actually running, under a realtime clock;
* throughput -- a write+read per reference across in-field references.

Converters are shared across references (the production pattern: a
``TagDiscoverer`` hands its one converter pair to every reference it
creates), so the per-reference delta measures the middleware, not the
test harness.
"""

import gc
import threading
import time

from repro.android.nfc.tech import Tag
from repro.clock import SystemClock
from repro.concurrent import EventLog, wait_until
from repro.core.scheduler import Reactor
from repro.harness.report import Table
from repro.harness.scenario import Scenario
from repro.metrics import percentile
from repro.tags.factory import make_tags

from benchmarks.conftest import (
    IDLE_CPU_CEILING_SECONDS,
    IDLE_WINDOW_SECONDS,
    emit_bench_json,
    measure_idle_cpu,
)
from tests.conftest import PlainNfcActivity, string_converters

ASYNCIO_REFERENCES = 100_000  # the tentpole population
# Absolute ceiling per idle reference: what the retired ">= 10x the
# density of thread-per-reference" floor allowed against the measured
# 17.7 KB of a thread-per-reference reference.
KB_PER_REFERENCE_CEILING = 1.75
PARK_TIMEOUT = 600.0  # pending-write timeout while tags are absent

TIMER_TASKS = 400
TIMER_DELAY_SECONDS = 0.2

THROUGHPUT_REFERENCES = 500

_PAYLOAD = {}


def _rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found")


def _build_references(activity, phone, tags):
    """References over one shared converter pair, discoverer-style."""
    read_conv, write_conv = string_converters()
    factory = activity.reference_factory
    port = phone.port
    return [
        factory.get_or_create(Tag(tag, port), read_conv, write_conv)[0]
        for tag in tags
    ]


def _run_density_phase(count: int) -> dict:
    """Idle density: RSS per bare idle reference, then idle CPU with a
    parked pending write per reference."""
    with Scenario() as scenario:
        phone = scenario.add_phone("density-asyncio")
        activity = scenario.start(phone, PlainNfcActivity)
        tags = make_tags(count)  # absent: never enter the field

        gc.collect()
        rss_before = _rss_kb()
        references = _build_references(activity, phone, tags)
        time.sleep(0.5)  # let every event loop park
        gc.collect()
        rss_after = _rss_kb()
        kb_per_reference = (rss_after - rss_before) / count

        for reference in references:
            reference.write("parked", timeout=PARK_TIMEOUT)
        time.sleep(1.0 if count <= 1000 else 5.0)  # absent-tag steps drain
        idle_cpu = measure_idle_cpu()

        return {
            "references": count,
            "kb_per_reference": round(kb_per_reference, 3),
            "refs_per_mb": round(1024.0 / kb_per_reference, 1),
            "idle_cpu_seconds": round(idle_cpu, 4),
            "reactor_threads": phone.reactor.thread_count,
            "process_threads": threading.active_count(),
        }


def _run_wakeup_latency() -> dict:
    """p50/p99 lag between a realtime deadline and the step running."""
    clock = SystemClock()
    reactor = Reactor(clock=clock, name="lat")
    try:
        latencies = []
        lock = threading.Lock()
        done = threading.Event()

        def make_step(deadline):
            def step():
                lag = clock.now() - deadline
                with lock:
                    latencies.append(lag)
                    if len(latencies) == TIMER_TASKS:
                        done.set()
                return None

            return step

        base = clock.now() + TIMER_DELAY_SECONDS
        for index in range(TIMER_TASKS):
            deadline = base + (index % 20) * 0.005  # spread over 100ms
            reactor.register(make_step(deadline), name=f"lat-{index}").schedule_at(
                deadline
            )
        assert done.wait(30)
        return {
            "tasks": TIMER_TASKS,
            "p50_ms": round(percentile(latencies, 50) * 1000, 3),
            "p99_ms": round(percentile(latencies, 99) * 1000, 3),
        }
    finally:
        reactor.stop()


def _run_throughput() -> dict:
    """A write+read per reference across in-field references."""
    with Scenario() as scenario:
        phone = scenario.add_phone("tput")
        activity = scenario.start(phone, PlainNfcActivity)
        tags = make_tags(THROUGHPUT_REFERENCES)
        for tag in tags:
            scenario.put(tag, phone)
        references = _build_references(activity, phone, tags)

        done = EventLog()
        failed = EventLog()
        started = time.monotonic()
        for index, reference in enumerate(references):
            reference.write(
                f"w{index}",
                on_written=lambda r: done.append(1),
                on_failed=lambda r: failed.append(1),
                timeout=60.0,
            )
            reference.read(
                on_read=lambda r: done.append(1),
                on_failed=lambda r: failed.append(1),
                timeout=60.0,
            )
        assert done.wait_for_count(2 * THROUGHPUT_REFERENCES, timeout=120)
        assert len(failed) == 0
        elapsed = time.monotonic() - started
        return {
            "references": THROUGHPUT_REFERENCES,
            "ops_completed": 2 * THROUGHPUT_REFERENCES,
            "ops_per_second": round((2 * THROUGHPUT_REFERENCES) / elapsed, 1),
        }


def test_hundred_thousand_idle_references(benchmark):
    """100k idle references on one device reactor: at most
    ``KB_PER_REFERENCE_CEILING`` each, one runtime thread, near-zero CPU."""
    asyncio_mode = benchmark.pedantic(
        _run_density_phase, args=(ASYNCIO_REFERENCES,), rounds=1, iterations=1
    )

    table = Table(
        f"Idle reference density -- {ASYNCIO_REFERENCES:,} references on one "
        "asyncio loop",
        ["measure", "asyncio"],
    )
    table.add_row("references", asyncio_mode["references"])
    table.add_row("KB / idle reference", asyncio_mode["kb_per_reference"])
    table.add_row("references / MB", asyncio_mode["refs_per_mb"])
    table.add_row(
        f"idle CPU over {IDLE_WINDOW_SECONDS}s (s)",
        asyncio_mode["idle_cpu_seconds"],
    )
    table.add_row("reactor threads", asyncio_mode["reactor_threads"])
    table.print()

    _PAYLOAD["idle_density"] = {
        "asyncio": asyncio_mode,
        "kb_per_reference_ceiling": KB_PER_REFERENCE_CEILING,
        "idle_window_seconds": IDLE_WINDOW_SECONDS,
    }
    emit_bench_json("async", _PAYLOAD)

    assert asyncio_mode["references"] >= 100_000
    # The whole population multiplexes onto a single loop thread.
    assert asyncio_mode["reactor_threads"] <= 1
    # 100k parked deadlines cost (nearly) nothing: one armed call_later.
    assert asyncio_mode["idle_cpu_seconds"] < IDLE_CPU_CEILING_SECONDS
    assert asyncio_mode["kb_per_reference"] <= KB_PER_REFERENCE_CEILING


def test_wakeup_latency_and_throughput(benchmark):
    """Loop timers must fire promptly, and reference throughput must
    survive one loop thread running every task."""

    def run_all():
        return {"wakeup": _run_wakeup_latency(), "throughput": _run_throughput()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Reactor -- wakeup latency and reference throughput", ["measure", "value"]
    )
    table.add_row(
        f"wakeup p50 over {TIMER_TASKS} timers (ms)", results["wakeup"]["p50_ms"]
    )
    table.add_row("wakeup p99 (ms)", results["wakeup"]["p99_ms"])
    table.add_row(
        f"ops/s over {THROUGHPUT_REFERENCES} in-field refs",
        results["throughput"]["ops_per_second"],
    )
    table.print()

    _PAYLOAD["wakeup_latency"] = {
        "delay_seconds": TIMER_DELAY_SECONDS,
        **results["wakeup"],
    }
    _PAYLOAD["throughput"] = results["throughput"]
    emit_bench_json("async", _PAYLOAD)

    # Loose ceiling: CI boxes are noisy, but a timer that fires whole
    # tenths of a second late is broken.
    assert results["wakeup"]["p99_ms"] < 500.0
    assert results["throughput"]["ops_completed"] == 2 * THROUGHPUT_REFERENCES
