"""Station-window expiry by bucket horizon.

A shard trims only the windows a batch touched and sweeps all of them
only when the bucket horizon moves. These tests pin that down two ways:
an equivalence check against a reference that trims every window on
every batch, and a cost guard that counts ``StationWindow.trim`` calls
(no wall time). Both drive one shard by hand under a ``ManualClock``.
"""

import random

import pytest

from repro.clock import ManualClock
from repro.gateway import IngestShard
from repro.gateway.views import StationWindow, bucket_horizon

from tests.gateway.test_gateway import InertReactor, scan

WINDOW = 20.0
BUCKET = 5.0


class TrimEverything:
    """The reference model: every window trimmed after every batch."""

    def __init__(self):
        self.windows = {}

    def apply(self, batch, applied_at):
        for event in batch:
            window = self.windows.get(event.station)
            if window is None:
                window = StationWindow(WINDOW, BUCKET)
                self.windows[event.station] = window
            window.add(event.at_seconds, event.count)
        for window in self.windows.values():
            window.trim(applied_at)


def seeded_stream(rng, steps):
    """Yield ``(clock advance, events)`` pairs covering the edge cases:
    bursts inside one bucket, late events, multi-bucket gaps and times
    exactly on bucket boundaries."""
    now = 0.0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            advance = rng.uniform(0.0, 0.5)  # a burst inside one bucket
        elif roll < 0.65:
            advance = BUCKET * rng.randint(2, 6) + rng.uniform(0.0, BUCKET)  # a gap
        elif roll < 0.85:
            advance = (now // BUCKET + 1) * BUCKET - now  # onto the next boundary
        else:
            advance = 0.0
        now += advance
        events = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.6:
                at = now
            elif kind < 0.8:
                at = now - WINDOW - rng.uniform(0.0, 3 * BUCKET)  # late: below the horizon
            elif kind < 0.9:
                at = (now // BUCKET) * BUCKET  # exactly on a bucket boundary
            else:
                at = now - WINDOW  # exactly on the horizon's edge
            events.append(
                scan(f"tag-{rng.randrange(40)}", f"gate-{rng.randrange(12)}", at,
                     count=rng.randint(1, 3))
            )
        yield advance, events


class TestExpiryEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 20121203])
    def test_windows_match_trimming_every_window(self, seed):
        clock = ManualClock()
        reactor = InertReactor()
        shard = IngestShard(0, reactor, clock, max_batch=4,
                            window_seconds=WINDOW, bucket_seconds=BUCKET)
        (task,) = reactor.tasks
        reference = TrimEverything()
        pending = []
        late = 0  # events already below the horizon when applied
        for advance, events in seeded_stream(random.Random(seed), 400):
            clock.advance(advance)
            shard.submit_many(events)
            pending.extend(events)
            while pending:
                batch, pending = pending[:4], pending[4:]
                task.run()
                reference.apply(batch, clock.now())
                horizon = (clock.now() - WINDOW) // BUCKET
                late += sum(1 for e in batch if e.at_seconds // BUCKET < horizon)
                assert set(shard._stations) == set(reference.windows)
                for station, expected in reference.windows.items():
                    window = shard._stations[station]
                    assert window.buckets == expected.buckets, station
                    assert window.total == expected.total, station
            assert shard.idle
        assert late > 0  # the stream really exercised late events


class TestStationCounts:
    """``station_counts`` sums a window's buckets while the read's horizon
    is not past the last sweep; the reference is ``windowed_count`` on
    every window, read at times around, behind and ahead of that sweep."""

    @staticmethod
    def check(shard, copies, now, paths):
        expected = {
            station: (window.total, window.windowed_count(now))
            for station, window in copies.items()
        }
        assert shard.station_counts(now) == expected, now
        swept = shard._swept_horizon
        paths.add(swept is not None and bucket_horizon(now, WINDOW, BUCKET) <= swept)

    @pytest.mark.parametrize("seed", [1, 2, 3, 20121203])
    def test_counts_match_windowed_count(self, seed):
        clock = ManualClock()
        reactor = InertReactor()
        shard = IngestShard(0, reactor, clock, max_batch=4,
                            window_seconds=WINDOW, bucket_seconds=BUCKET)
        (task,) = reactor.tasks
        rng = random.Random(seed)
        paths = set()
        shard.submit(scan("tag-0", "gate-0", 0.0))
        self.check(shard, {}, 0.0, paths)  # before the first batch
        for advance, events in seeded_stream(rng, 300):
            clock.advance(advance)
            shard.submit_many(events)
            while task.run() is not None:
                pass
            # Copies taken after the batch, so a read that trimmed the
            # shard's own windows would show in a later, earlier read.
            copies = {
                station: window.merge(StationWindow(WINDOW, BUCKET))
                for station, window in shard._stations.items()
            }
            now = clock.now()
            reads = [
                now,
                now - rng.uniform(BUCKET, 3 * WINDOW),  # behind the last sweep
                (now // BUCKET) * BUCKET,  # on the current bucket boundary
                (now // BUCKET + 1) * BUCKET,  # on the next one: ahead
                now + rng.uniform(0.0, WINDOW + 2 * BUCKET),  # ahead
            ]
            reads += sorted(  # decreasing, from ahead to behind
                (now + rng.uniform(-WINDOW, 2 * WINDOW) for _ in range(4)),
                reverse=True,
            )
            for at in reads:
                self.check(shard, copies, at, paths)
        assert paths == {True, False}  # both the bucket sum and the exact count ran


class TestExpiryCost:
    STATIONS = 10_000

    def test_trims_scale_with_the_batch_not_the_shard(self, monkeypatch):
        clock = ManualClock()
        reactor = InertReactor()
        # 60 s window, 5 s buckets; the queue holds the whole primer.
        shard = IngestShard(0, reactor, clock, max_queue=self.STATIONS)
        (task,) = reactor.tasks
        shard.submit_many(
            [scan(f"prime-{i}", f"station-{i:05d}", 0.0) for i in range(self.STATIONS)]
        )
        while task.run() is not None:
            pass
        assert len(shard._stations) == self.STATIONS

        trimmed = []
        trim = StationWindow.trim

        def counting_trim(window, now_seconds):
            trimmed.append(window)
            trim(window, now_seconds)

        monkeypatch.setattr(StationWindow, "trim", counting_trim)

        def one_event_batch(index):
            trimmed.clear()
            shard.submit(scan(f"tag-{index}", f"station-{index:05d}", clock.now()))
            assert task.run() is None
            return len(trimmed)

        # Inside one bucket: expiry touches only the batch's own window.
        for index in range(20):
            clock.advance(0.2)
            assert one_event_batch(index) <= 1
        # Crossing a bucket boundary moves the horizon: one full sweep.
        clock.set(5.0)
        assert one_event_batch(20) == self.STATIONS
        assert len(set(map(id, trimmed))) == self.STATIONS
        # Back inside the new bucket: per-event again.
        clock.advance(0.2)
        assert one_event_batch(21) <= 1
