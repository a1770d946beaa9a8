"""Fleet gateway ingestion: sustained throughput and shard isolation.

Two experiments, one JSON (``BENCH_gateway.json``):

* ``fleet_10k`` — 10,000 simulated devices (one
  :class:`GatewayReporter` per station) replay a seeded turnstile rush
  through a 4-shard gateway; reported rows are sustained ingested
  events/second wall-clock and the p99 ingest latency (submit ->
  applied-to-views), both guarded in CI. Wall-clock by necessity, so
  the guarded tolerances are generous.
* ``shard_isolation`` — what sharding buys, counted in events rather
  than seconds: one reporter batch carries a few events on cold tags,
  then a hot tag's burst deeper than the whole buffer. Into ``SHARDS``
  shards of ``Q`` the burst sheds only the hot tag's own shard; into one
  shard of ``SHARDS × Q`` (the same total buffer) it sheds the cold
  events too. Every shard drains on the one reactor loop, so shards do
  not ingest faster than one queue; they isolate. The sharded layout's
  cold-tag drops are guarded at zero, and the bench asserts that the
  one-queue layout does shed cold events, so collapsing
  ``FleetGateway`` to one queue fails it.
* ``fleet_density`` — the gateway state the fleet holds per station
  and per tag: tracemalloc bytes per idle ``GatewayReporter``, per
  ``TravelHistory`` after one transition and per ``StationWindow``
  holding one bucket, over 10,000 of each with their names built
  beforehand. All three are guarded in CI (lower is better).
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Callable, List

from repro.clock import ManualClock, SystemClock
from repro.core.scheduler import Reactor
from repro.gateway import (
    FleetGateway,
    GatewayReporter,
    ScanEvent,
    StationWindow,
    TravelHistory,
    make_fleet_reporters,
    shard_of,
    simulate_fleet,
)
from repro.harness.crowd import turnstile_rush
from repro.harness.report import Table

from benchmarks.conftest import emit_bench_json

FLEET_DEVICES = 10_000
FLEET_TAGS = 20_000
FLEET_SHARDS = 4

ISOLATION_SHARDS = 4
ISOLATION_QUEUE = 64  # Q: one shard's capacity in the sharded layout
ISOLATION_COLD_TAGS = 6
ISOLATION_HOT_BURST = ISOLATION_SHARDS * ISOLATION_QUEUE + 64  # > the whole buffer


def run_fleet_10k() -> dict:
    """10k stations replay a rush-hour schedule; measure wall ingestion."""
    clock = SystemClock()
    reactor = Reactor(clock=clock, name="bench-fleet")
    gateway = FleetGateway(
        reactor, clock=clock, shards=FLEET_SHARDS, window_seconds=60.0
    )
    try:
        schedule = turnstile_rush(
            FLEET_DEVICES,
            FLEET_TAGS,
            duration_seconds=3.0,
            arrivals_per_second=3000.0,
            seed=42,
        )
        reporters = make_fleet_reporters(
            gateway, FLEET_DEVICES, max_batch=32
        )
        started = time.monotonic()
        stats = simulate_fleet(gateway, schedule, reporters, seed=42)
        drained = gateway.drain(timeout=30.0)
        elapsed = time.monotonic() - started
        assert drained, "gateway failed to drain the fleet replay"
        telemetry = gateway.telemetry()
        latency = gateway.ingest_latency()
        assert telemetry["events_ingested"] > 0
        return {
            "devices": FLEET_DEVICES,
            "tags": FLEET_TAGS,
            "shards": FLEET_SHARDS,
            "events_recorded": stats.events_recorded,
            "events_ingested": telemetry["events_ingested"],
            "events_dropped_queue": telemetry["events_dropped_queue"],
            "events_dropped_reporter": telemetry["events_dropped_reporter"],
            "batches": telemetry["batches"],
            "wall_seconds": round(elapsed, 4),
            "events_per_second": round(
                telemetry["events_ingested"] / elapsed, 1
            ),
            "ingest_p50_seconds": latency.p50,
            "ingest_p99_seconds": latency.p99,
        }
    finally:
        gateway.close()
        reactor.stop()


def run_shard_isolation(shards: int) -> dict:
    """Cold events then a hot burst in one batch; count who gets shed."""
    clock = ManualClock()
    reactor = Reactor(clock=clock, name=f"bench-isolate-{shards}")
    gateway = FleetGateway(
        reactor,
        clock=clock,
        shards=shards,
        max_queue=ISOLATION_SHARDS * ISOLATION_QUEUE // shards,
    )
    hot = "tag-hot"
    hot_shard = shard_of(hot, ISOLATION_SHARDS)
    cold = [
        uid
        for uid in (f"tag-cold-{index:03d}" for index in range(64))
        if shard_of(uid, ISOLATION_SHARDS) != hot_shard
    ][:ISOLATION_COLD_TAGS]
    try:
        gateway.submit_batch(
            [ScanEvent("scan", uid, "cold-gate", 0.0) for uid in cold]
            + [
                ScanEvent("scan", hot, "hot-gate", 0.0)
                for _ in range(ISOLATION_HOT_BURST)
            ]
        )
        assert gateway.drain(timeout=30.0), f"{shards}-shard gateway failed to drain"
        rates = gateway.station_rates()
        cold_ingested = rates.get("cold-gate", {}).get("total", 0)
        hot_ingested = rates.get("hot-gate", {}).get("total", 0)
        return {
            "shards": shards,
            "queue_per_shard": ISOLATION_SHARDS * ISOLATION_QUEUE // shards,
            "cold_events": len(cold),
            "hot_events": ISOLATION_HOT_BURST,
            "cold_dropped": len(cold) - cold_ingested,
            "hot_dropped": ISOLATION_HOT_BURST - hot_ingested,
            "events_dropped_queue": gateway.telemetry()["events_dropped_queue"],
        }
    finally:
        gateway.close()
        reactor.stop()


DENSITY_OBJECTS = 10_000


def bytes_per_object(build: Callable[[str, int], object], names: List[str]) -> float:
    """Traced bytes that ``build(name, index)`` leaves alive, per name."""
    kept: List[object] = [None] * len(names)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, name in enumerate(names):
            kept[index] = build(name, index)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round((after - before) / len(names), 1)


def run_fleet_density() -> dict:
    """Bytes per reporter, travel history and station window."""
    clock = ManualClock()
    reactor = Reactor(clock=clock, name="bench-density")
    gateway = FleetGateway(reactor, clock=clock, shards=FLEET_SHARDS)
    stations = [f"station-{index:05d}" for index in range(DENSITY_OBJECTS)]
    uids = [f"tag-{index:06d}" for index in range(DENSITY_OBJECTS)]

    def history(uid: str, index: int) -> TravelHistory:
        travel = TravelHistory(uid)
        travel.observe(stations[index], 3600.0 + index)
        return travel

    def window(_station: str, index: int) -> StationWindow:
        counts = StationWindow(60.0, 5.0)
        counts.add(3600.0 + index / DENSITY_OBJECTS)
        return counts

    try:
        return {
            "objects": DENSITY_OBJECTS,
            "reporter_bytes": bytes_per_object(
                lambda station, _index: GatewayReporter(
                    gateway, station, reactor=reactor
                ),
                stations,
            ),
            "history_bytes": bytes_per_object(history, uids),
            "window_bytes": bytes_per_object(window, stations),
        }
    finally:
        gateway.close()
        reactor.stop()


def test_gateway_ingestion(benchmark):
    fleet = benchmark.pedantic(run_fleet_10k, rounds=1, iterations=1)
    single = run_shard_isolation(1)
    sharded = run_shard_isolation(ISOLATION_SHARDS)
    density = run_fleet_density()

    table = Table(
        f"Fleet gateway -- {FLEET_DEVICES} devices (wall clock), then a hot "
        f"burst of {ISOLATION_HOT_BURST} behind {ISOLATION_COLD_TAGS} cold events",
        ["experiment", "ingested", "dropped", "events/s", "p99 ingest (s)",
         "cold dropped"],
    )
    table.add_row(
        f"fleet replay ({FLEET_SHARDS} shards)",
        fleet["events_ingested"],
        fleet["events_dropped_queue"],
        fleet["events_per_second"],
        round(fleet["ingest_p99_seconds"], 5),
        "",
    )
    for row in (single, sharded):
        table.add_row(
            f"isolation, {row['shards']} shard(s) of {row['queue_per_shard']}",
            row["cold_events"] + row["hot_events"] - row["events_dropped_queue"],
            row["events_dropped_queue"],
            "",
            "",
            row["cold_dropped"],
        )
    table.print()

    density_table = Table(
        f"Fleet gateway state -- traced bytes per object, {DENSITY_OBJECTS} of each",
        ["idle reporter", "history (one transition)", "window (one bucket)"],
    )
    density_table.add_row(
        density["reporter_bytes"], density["history_bytes"], density["window_bytes"]
    )
    density_table.print()

    # The fleet replay must be lossless at this load.
    assert fleet["events_dropped_queue"] == 0
    assert fleet["events_ingested"] == fleet["events_recorded"]
    # Same total buffer, same batch: one queue sheds the cold events
    # ahead of the burst, the sharded layout sheds only the hot tag's.
    assert single["cold_dropped"] == ISOLATION_COLD_TAGS
    assert sharded["cold_dropped"] == 0
    for row in (single, sharded):
        assert row["cold_dropped"] + row["hot_dropped"] == row["events_dropped_queue"]

    emit_bench_json(
        "gateway",
        {
            "fleet_10k": fleet,
            "fleet_density": density,
            "shard_isolation": {"single": single, "sharded": sharded},
        },
    )
