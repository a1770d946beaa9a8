"""FleetGateway end-to-end: sharded ingestion, merged views, drop accounting.

Every test runs under a :class:`ManualClock` — drains are wake-driven
(the reactor services wakes without time passing) and the ``drain()``
condition barrier replaces sleeps.
"""

import random
import sys
import threading

import pytest

from repro.clock import ManualClock
from repro.concurrent import wait_until
from repro.core.scheduler import Reactor
from repro.gateway import (
    FleetGateway,
    GatewayReporter,
    IngestShard,
    ScanEvent,
    make_fleet_reporters,
    shard_of,
    simulate_fleet,
)
from repro.harness.crowd import fleet_day

class InertTask:
    """A registered-but-never-run drain task: queues only fill."""

    def __init__(self, step):
        self._step = step
        self.wakes = 0
        self.scheduled = []
        self.cancelled = False

    def wake(self):
        self.wakes += 1

    def schedule_at(self, when):
        self.scheduled.append(when)

    def cancel(self):
        self.cancelled = True

    def run(self):
        """Drive one drain quantum by hand (deterministic tests)."""
        return self._step()


class InertReactor:
    def __init__(self):
        self.tasks = []

    def register(self, step, name="task"):
        task = InertTask(step)
        self.tasks.append(task)
        return task


@pytest.fixture
def live():
    """(clock, reactor, gateway), torn down afterwards."""
    clock = ManualClock()
    reactor = Reactor(clock=clock, name="gw-test")
    gateway = FleetGateway(
        reactor, clock=clock, shards=4, window_seconds=60.0, bucket_seconds=5.0
    )
    yield clock, reactor, gateway
    gateway.close()
    reactor.stop()


def scan(uid, station, at, count=1, kind="scan"):
    return ScanEvent(kind, uid, station, at, count)


class TestIngestion:
    def test_submit_drain_and_views(self, live):
        clock, _reactor, gateway = live
        gateway.submit(scan("tag-1", "gate-0", 0.0))
        gateway.submit(scan("tag-1", "gate-1", 1.0))
        gateway.submit(scan("tag-2", "gate-0", 1.0))
        assert gateway.drain(timeout=5.0)

        telemetry = gateway.telemetry()
        assert telemetry["events_submitted"] == 3
        assert telemetry["events_ingested"] == 3
        assert telemetry["events_dropped_queue"] == 0
        assert telemetry["queue_depth"] == 0
        assert telemetry["tags_tracked"] == 2

        history = gateway.travel_history("tag-1")
        assert history is not None
        assert [station for station, _at in history["path"]] == [
            "gate-0",
            "gate-1",
        ]
        assert gateway.travel_history("tag-unknown") is None

        rates = gateway.station_rates(now_seconds=1.0)
        assert rates["gate-0"]["total"] == 2
        assert rates["gate-1"]["total"] == 1

    def test_batch_submit_splits_per_shard(self, live):
        _clock, _reactor, gateway = live
        events = [scan(f"tag-{i:03d}", "gate-0", 0.0) for i in range(64)]
        expected_shards = {shard_of(e.tag_uid, gateway.shard_count) for e in events}
        assert len(expected_shards) > 1  # the hash genuinely spreads this set
        gateway.submit_batch(events)
        assert gateway.drain(timeout=5.0)
        telemetry = gateway.telemetry()
        assert telemetry["events_submitted"] == 64
        assert telemetry["events_ingested"] == 64
        active = [s for s in telemetry["per_shard"] if s["submitted"]]
        assert len(active) == len(expected_shards)

    def test_lease_leaderboard_merged_and_ranked(self, live):
        _clock, _reactor, gateway = live
        gateway.submit_batch(
            [
                scan("tag-hot", "gate-0", 0.0, kind="lease_acquired"),
                scan("tag-hot", "gate-1", 1.0, count=3, kind="lease_denied"),
                scan("tag-warm", "gate-0", 1.0, kind="lease_denied"),
                scan("tag-cold", "gate-2", 2.0, kind="lease_acquired"),
            ]
        )
        assert gateway.drain(timeout=5.0)
        board = gateway.lease_leaderboard(top=2)
        assert [row["tag_uid"] for row in board] == ["tag-hot", "tag-warm"]
        assert board[0]["denied"] == 3
        assert board[0]["acquired"] == 1

    def test_ingest_latency_summary_populated(self, live):
        _clock, _reactor, gateway = live
        gateway.submit_batch([scan(f"tag-{i}", "gate-0", 0.0) for i in range(10)])
        assert gateway.drain(timeout=5.0)
        summary = gateway.ingest_latency()
        assert summary.count == 10
        assert summary.p99 >= 0.0

    def test_snapshot_round_trips_to_dict(self, live):
        _clock, _reactor, gateway = live
        gateway.submit(scan("tag-1", "gate-0", 0.0))
        assert gateway.drain(timeout=5.0)
        snap = gateway.snapshot(top=5).as_dict()
        assert snap["telemetry"]["events_ingested"] == 1
        assert "gate-0" in snap["station_rates"]
        assert snap["ingest_latency"]["count"] == 1
        # The snapshot is the separate reads, taken at its own time.
        assert snap["telemetry"] == gateway.telemetry()
        assert snap["station_rates"] == gateway.station_rates(snap["at_seconds"])
        assert snap["lease_leaderboard"] == gateway.lease_leaderboard(top=5)

    def test_drain_waits_for_the_batch_in_flight(self, live, monkeypatch):
        """A batch swapped out of the queue but not yet applied keeps
        drain() waiting: the queue already reads empty, the views do not
        yet show the event."""
        _clock, _reactor, gateway = live
        shard = gateway.shards[shard_of("tag-1", gateway.shard_count)]
        entered = threading.Event()
        release = threading.Event()
        apply_batch = shard._apply_batch

        def held(batch):
            entered.set()
            release.wait(10.0)  # bounded, so a broken barrier cannot hang the suite
            apply_batch(batch)

        monkeypatch.setattr(shard, "_apply_batch", held)
        gateway.submit(scan("tag-1", "gate-0", 0.0))
        assert entered.wait(5.0)
        assert gateway.telemetry()["queue_depth"] == 0
        assert gateway.drain(timeout=0.2) is False
        assert gateway.telemetry()["events_ingested"] == 0

        release.set()
        assert gateway.drain(timeout=5.0)
        assert gateway.telemetry()["events_ingested"] == 1
        assert gateway.travel_history("tag-1")["scans"] == 1

    def test_rejects_zero_shards(self, live):
        _clock, reactor, _gateway = live
        with pytest.raises(ValueError):
            FleetGateway(reactor, shards=0)


class TestStationRatesDifferential:
    """``station_rates`` sums per-shard counts; the reference merges the
    per-shard windows with ``StationWindow.merge`` and reads the merge."""

    def test_summed_counts_equal_merged_windows(self, live):
        clock, _reactor, gateway = live
        rng = random.Random(17)
        for _ in range(60):
            clock.advance(rng.uniform(0.0, 4.0))
            gateway.submit_batch(
                [
                    scan(f"tag-{rng.randrange(200)}", f"gate-{rng.randrange(6)}",
                         clock.now(), count=rng.randint(1, 3))
                    for _ in range(rng.randint(1, 8))
                ]
            )
            assert gateway.drain(timeout=5.0)

        merged = {}
        shards_per_station = {}
        for shard in gateway.shards:
            for station, window in shard._stations.items():
                merged[station] = (
                    window if station not in merged else merged[station].merge(window)
                )
                shards_per_station[station] = shards_per_station.get(station, 0) + 1
        assert max(shards_per_station.values()) > 1  # stations really span shards

        end = clock.now()
        aged_out = False
        for now in (end - 50.0, end - 3.0, end, end + 2.5, end + 30.0, end + 61.0,
                    end + 200.0):
            expected = {
                station: {
                    "total": window.total,
                    "windowed": window.windowed_count(now),
                    "rate_per_second": window.rate_per_second(now),
                }
                for station, window in sorted(merged.items())
            }
            rates = gateway.station_rates(now)
            assert list(rates) == list(expected)
            assert rates == expected
            aged_out |= any(row["windowed"] < row["total"] for row in rates.values())
        assert aged_out  # some buckets had left the window


class TestShardDeterministic:
    """Drive one shard's drain quantum by hand — no reactor threads."""

    def test_queue_overflow_sheds_oldest_and_counts(self):
        clock = ManualClock()
        reactor = InertReactor()
        shard = IngestShard(0, reactor, clock, max_queue=3)
        for index in range(5):
            shard.submit(scan(f"tag-{index}", "gate-0", float(index)))
        assert shard.queue_depth == 3
        assert shard.dropped == 2  # oldest two shed, monotonic
        assert shard.queue_high_water == 3
        (task,) = reactor.tasks
        task.run()
        assert shard.queue_depth == 0
        # The freshest events survived the shedding.
        assert shard.travel_history("tag-4") is not None
        assert shard.travel_history("tag-0") is None

    def test_submit_many_overflow_accounts_counts(self):
        clock = ManualClock()
        shard = IngestShard(0, InertReactor(), clock, max_queue=2)
        shard.submit_many(
            [scan(f"tag-{i}", "gate-0", 0.0, count=2) for i in range(4)]
        )
        assert shard.queue_depth == 2
        assert shard.dropped == 4  # two records shed, each count=2
        assert shard.submitted == 8

    def test_backlog_drains_in_batch_quanta(self):
        clock = ManualClock()
        reactor = InertReactor()
        shard = IngestShard(0, reactor, clock, max_queue=100, max_batch=4)
        shard.submit_many([scan(f"tag-{i}", "gate-0", 0.0) for i in range(10)])
        (task,) = reactor.tasks
        # 10 events at 4/quantum: two steps report backlog, third goes idle.
        assert task.run() is not None
        assert task.run() is not None
        assert task.run() is None
        assert shard.ingested == 10
        assert shard.batches == 3

    def test_ingest_latency_measures_queue_wait(self):
        clock = ManualClock()
        reactor = InertReactor()
        shard = IngestShard(0, reactor, clock)
        shard.submit(scan("tag-1", "gate-0", 0.0))
        clock.advance(2.5)  # the event waits 2.5 virtual seconds in queue
        (task,) = reactor.tasks
        task.run()
        summary = shard.latency_summary()
        assert summary.count == 1
        assert summary.p99 == pytest.approx(2.5)

    def test_gateway_drain_times_out_when_nothing_drains(self):
        clock = ManualClock()
        gateway = FleetGateway(InertReactor(), clock=clock, shards=2)
        gateway.submit(scan("tag-1", "gate-0", 0.0))
        assert gateway.drain(timeout=0.05) is False
        assert gateway.telemetry()["queue_depth"] == 1

    def test_queue_drops_surface_in_gateway_telemetry(self):
        clock = ManualClock()
        gateway = FleetGateway(InertReactor(), clock=clock, shards=1, max_queue=2)
        for index in range(5):
            gateway.submit(scan(f"tag-{index}", "gate-0", 0.0))
        telemetry = gateway.telemetry()
        assert telemetry["events_dropped_queue"] == 3
        assert telemetry["queue_high_water"] == 2


class TestReporterIntegration:
    def test_reporter_drops_surface_in_telemetry(self, live):
        _clock, _reactor, gateway = live
        reporter = GatewayReporter(
            gateway, "gate-0", max_buffer=2, max_batch=100, flush_interval=None
        )
        for index in range(5):
            reporter.record("scan", f"tag-{index}")
        assert gateway.telemetry()["events_dropped_reporter"] == 3
        reporter.flush()
        assert gateway.drain(timeout=5.0)
        telemetry = gateway.telemetry()
        assert telemetry["events_ingested"] == 2
        assert telemetry["events_dropped_reporter"] == 3
        assert telemetry["reporters"] == 1

    def test_telemetry_reads_no_reporter(self, monkeypatch):
        gateway = FleetGateway(InertReactor(), clock=ManualClock(), shards=4)
        reporters = [
            GatewayReporter(gateway, f"gate-{index:04d}", max_buffer=2,
                            max_batch=100, flush_interval=None)
            for index in range(1000)
        ]
        for reporter in reporters[::100]:  # sheds in 10 of them, 3 each
            for index in range(5):
                reporter.record("scan", f"tag-{index}")
        reads = []
        for name in ("dropped", "stream_dropped"):
            def counting(reporter, _get=getattr(GatewayReporter, name).fget,
                         _name=name):
                reads.append(_name)
                return _get(reporter)

            monkeypatch.setattr(GatewayReporter, name, property(counting))

        telemetry = gateway.telemetry()
        assert reads == []
        # Same keys, in the same order, and the values the per-reporter
        # sums give.
        assert list(telemetry) == [
            "shards", "events_submitted", "events_ingested",
            "events_dropped_queue", "events_dropped_reporter",
            "events_dropped_streams", "batches", "queue_depth",
            "queue_high_water", "tags_tracked", "reporters", "per_shard",
        ]
        assert telemetry["events_dropped_reporter"] == 30
        assert telemetry["events_dropped_reporter"] == sum(
            reporter.dropped for reporter in reporters
        )
        assert telemetry["events_dropped_streams"] == sum(
            reporter.stream_dropped for reporter in reporters
        ) == 0
        assert telemetry["reporters"] == len(reporters)
        assert len(reads) == 2 * len(reporters)  # the wrappers do count
        assert gateway.snapshot().as_dict()["telemetry"] == telemetry

    def test_drop_accounting_under_concurrent_producers(self, live):
        """Four producers shed into 64 two-slot reporters while a reader
        polls telemetry(); the gateway's running total never goes back
        and balances exactly once the producers stop."""
        _clock, reactor, gateway = live
        reporters = [
            GatewayReporter(gateway, f"gate-{index:02d}", reactor=reactor,
                            max_buffer=2, max_batch=2)
            for index in range(64)
        ]
        stop = threading.Event()
        seen = []

        def produce(seed):
            rng = random.Random(seed)
            for step in range(500):
                reporter = reporters[rng.randrange(len(reporters))]
                for burst in range(3):  # one more than the buffer holds
                    reporter.record("scan", f"tag-{seed}-{step}-{burst}")

        def read():
            while not stop.wait(0.0005):
                seen.append(gateway.telemetry()["events_dropped_reporter"])

        producers = [
            threading.Thread(target=produce, args=(seed,)) for seed in range(4)
        ]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30.0)
            stop.set()
            reader.join(timeout=10.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in producers)
        assert not reader.is_alive()
        assert seen
        assert all(a <= b for a, b in zip(seen, seen[1:]))

        for reporter in reporters:
            reporter.flush()
        recorded = sum(reporter.recorded for reporter in reporters)
        dropped = sum(reporter.dropped for reporter in reporters)
        assert recorded == 4 * 500 * 3
        assert dropped > 0

        def delivered():
            telemetry = gateway.telemetry()
            return telemetry["events_submitted"] + telemetry["events_dropped_reporter"]

        # A reporter's flush task may still hold a batch it swapped out.
        assert wait_until(lambda: delivered() == recorded, timeout=10.0)
        assert gateway.drain(timeout=10.0)
        telemetry = gateway.telemetry()
        assert telemetry["events_dropped_reporter"] == dropped
        assert recorded == telemetry["events_submitted"] + dropped
        assert telemetry["events_ingested"] == telemetry["events_submitted"]


class TestFleetSimulation:
    def test_simulation_is_deterministic_and_lossless(self, live):
        clock, _reactor, gateway = live
        schedule = fleet_day(8, 40, rush_seconds=1.0, arrivals_per_second=50.0,
                             seed=7)
        reporters = make_fleet_reporters(gateway, 8, max_batch=16)
        stats = simulate_fleet(gateway, schedule, reporters, seed=7)
        assert gateway.drain(timeout=10.0)

        assert stats.scans == sum(
            len(e.tag_indices) for e in schedule if e.enter
        )
        telemetry = gateway.telemetry()
        # Coalescing may fold events, but nothing is lost: submitted
        # *counts* equal everything recorded minus device-side drops.
        assert telemetry["events_submitted"] == stats.events_recorded
        assert telemetry["events_ingested"] == telemetry["events_submitted"]
        assert telemetry["events_dropped_queue"] == 0
        assert telemetry["events_dropped_reporter"] == 0

        # Same seed, fresh run: byte-identical stats.
        clock2 = ManualClock()
        gateway2 = FleetGateway(InertReactor(), clock=clock2, shards=4)
        stats2 = simulate_fleet(
            gateway2,
            fleet_day(8, 40, rush_seconds=1.0, arrivals_per_second=50.0, seed=7),
            make_fleet_reporters(gateway2, 8, max_batch=16),
            seed=7,
        )
        assert stats2.as_dict() == stats.as_dict()

    def test_denials_populate_the_leaderboard(self, live):
        _clock, _reactor, gateway = live
        schedule = fleet_day(6, 10, rush_seconds=2.0, arrivals_per_second=80.0,
                             seed=3)
        stats = simulate_fleet(
            gateway,
            schedule,
            make_fleet_reporters(gateway, 6),
            lease_ratio=0.6,
            seed=3,
        )
        assert gateway.drain(timeout=10.0)
        assert stats.denials > 0
        board = gateway.lease_leaderboard(top=5)
        assert board
        assert sum(row["denied"] for row in board) > 0
        assert board[0]["denied"] == max(row["denied"] for row in board)
