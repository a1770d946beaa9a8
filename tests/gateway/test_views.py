"""Unit tests for the materialized fleet views."""

import random
from typing import Dict

import pytest

from repro.gateway.events import ScanEvent, shard_of
from repro.gateway.views import LeaseBoard, StationWindow, TravelHistory, bucket_horizon


class TestScanEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScanEvent("teleport", "tag-1", "gate-0", 0.0)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            ScanEvent("scan", "tag-1", "gate-0", 0.0, count=0)

    def test_coalesce_key_ignores_time_and_count(self):
        a = ScanEvent("scan", "tag-1", "gate-0", 0.0, count=1, detail="detected")
        b = ScanEvent("scan", "tag-1", "gate-0", 9.0, count=7, detail="detected")
        assert a.coalesce_key() == b.coalesce_key()

    def test_shard_of_is_stable_and_in_range(self):
        uids = [f"tag-{i:06d}" for i in range(100)]
        first = [shard_of(uid, 8) for uid in uids]
        second = [shard_of(uid, 8) for uid in uids]
        assert first == second
        assert all(0 <= index < 8 for index in first)
        # The hash actually spreads tags (not everything on one shard).
        assert len(set(first)) > 1

    def test_single_shard_short_circuits(self):
        assert shard_of("anything", 1) == 0


class TestTravelHistory:
    def test_transitions_not_sightings(self):
        history = TravelHistory("tag-1", depth=8)
        history.observe("gate-0", 0.0)
        history.observe("gate-0", 1.0)  # same station: no new entry
        history.observe("gate-1", 2.0)
        assert history.scans == 3
        assert history.transitions == 2
        assert [station for station, _at in history.entries] == ["gate-0", "gate-1"]
        assert history.current_station == "gate-1"

    @pytest.mark.parametrize("depth", [1, 4, 32])
    def test_ring_bounded_but_lifetime_counters_monotonic(self, depth):
        history = TravelHistory("tag-1", depth=depth)
        for index in range(depth + 6):
            history.observe(f"gate-{index}", float(index))
        assert len(history.entries) == depth
        assert history.transitions == depth + 6
        assert history.entries[0][0] == "gate-6"  # oldest entries forgotten

    def test_coalesced_count_feeds_scans(self):
        history = TravelHistory("tag-1")
        history.observe("gate-0", 0.0, count=5)
        assert history.scans == 5
        assert history.transitions == 1


class TestStationWindow:
    def test_windowed_count_excludes_old_buckets(self):
        window = StationWindow(window_seconds=10.0, bucket_seconds=1.0)
        window.add(0.5, 3)
        window.add(20.0, 2)
        assert window.total == 5
        assert window.windowed_count(now_seconds=20.0) == 2
        assert window.rate_per_second(20.0) == pytest.approx(0.2)

    def test_trim_drops_stale_buckets_total_survives(self):
        window = StationWindow(window_seconds=5.0, bucket_seconds=1.0)
        window.add(0.0, 1)
        window.add(100.0, 1)
        window.trim(100.0)
        assert len(window.buckets) == 1
        assert window.total == 2

    def test_merge_sums_bucketwise(self):
        a = StationWindow(10.0, 1.0)
        b = StationWindow(10.0, 1.0)
        a.add(1.0, 2)
        b.add(1.0, 3)
        b.add(4.0, 1)
        merged = a + b
        assert merged.total == 6
        assert merged.windowed_count(5.0) == 6
        # Merge is non-destructive.
        assert a.total == 2 and b.total == 4

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValueError):
            StationWindow(10.0, 1.0).merge(StationWindow(10.0, 2.0))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            StationWindow(0.0, 1.0)


class DictStationWindow:
    """The reference model: a window that keeps one dict entry per
    bucket, as the views did before the bucket list."""

    def __init__(self, window_seconds, bucket_seconds):
        self.window_seconds = window_seconds
        self.bucket_seconds = bucket_seconds
        self.buckets: Dict[int, int] = {}
        self.total = 0

    def add(self, at_seconds, count=1):
        index = int(at_seconds // self.bucket_seconds)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.total += count

    def trim(self, now_seconds):
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        stale = [index for index in self.buckets if index < horizon]
        for index in stale:
            del self.buckets[index]

    def windowed_count(self, now_seconds):
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        return sum(
            count for index, count in self.buckets.items() if index >= horizon
        )

    def merge(self, other):
        merged = DictStationWindow(self.window_seconds, self.bucket_seconds)
        merged.buckets = dict(self.buckets)
        for index, count in other.buckets.items():
            merged.buckets[index] = merged.buckets.get(index, 0) + count
        merged.total = self.total + other.total
        return merged


class TestStationWindowModel:
    """The bucket-list window against :class:`DictStationWindow` over
    seeded streams of every operation."""

    WINDOW = 20.0
    BUCKET = 5.0

    def stamp(self, rng, now, first_at):
        """An event time: at the clock, on a bucket edge, late below the
        window or below the oldest bucket held, or across a gap of a
        few buckets or of a different clock altogether."""
        roll = rng.random()
        if roll < 0.35:
            return now - rng.uniform(0.0, 0.5)
        if roll < 0.5:
            return (now // self.BUCKET - rng.randint(0, 3)) * self.BUCKET
        if roll < 0.65:
            return now - self.WINDOW - rng.uniform(0.0, 3 * self.BUCKET)
        if roll < 0.75:
            return first_at - rng.randint(1, 8) * self.BUCKET
        if roll < 0.9:
            return now + rng.choice([-1, 1]) * rng.randint(2, 12) * self.BUCKET
        return now + rng.choice([-1, 1]) * rng.uniform(1e3, 1e9)

    def check(self, window, model, now):
        assert window.buckets == model.buckets
        assert window.total == model.total
        for at in (now, now - self.WINDOW, now + self.WINDOW, now + 1e9, now - 1e9):
            assert window.windowed_count(at) == model.windowed_count(at), at
        if bucket_horizon(now, self.WINDOW, self.BUCKET) <= min(model.buckets, default=0):
            assert window.held_count() == model.windowed_count(now)

    def pair(self):
        return (
            StationWindow(self.WINDOW, self.BUCKET),
            DictStationWindow(self.WINDOW, self.BUCKET),
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 20121203])
    def test_matches_the_dict_window(self, seed):
        rng = random.Random(seed)
        window, model = self.pair()
        other, other_model = self.pair()
        now = 1000.0
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.55:
                first_at = min(model.buckets, default=0) * self.BUCKET
                at = self.stamp(rng, now, first_at)
                count = rng.randint(1, 3)
                window.add(at, count)
                model.add(at, count)
            elif roll < 0.65:
                at = self.stamp(rng, now, now)
                other.add(at)
                other_model.add(at)
            elif roll < 0.85:
                now += rng.choice([0.0, rng.uniform(0.0, 2.0), self.BUCKET,
                                   rng.uniform(self.WINDOW, 4 * self.WINDOW)])
                window.trim(now)
                model.trim(now)
            elif roll < 0.95:
                merged = window.merge(other)
                expected = model.merge(other_model)
                self.check(merged, expected, now)
                assert window.merge(StationWindow(self.WINDOW, self.BUCKET)).buckets == (
                    model.buckets
                )
            else:
                behind = now - rng.uniform(0.0, 3 * self.WINDOW)
                window.trim(behind)
                model.trim(behind)
            self.check(window, model, now)

    def test_distant_stamps_do_not_pad_the_bucket_list(self):
        window = StationWindow(self.WINDOW, self.BUCKET)
        for at in (0.0, 1e12, -1e12, 7.0, 1e12 + 6.0):
            window.add(at)
        assert len(window._counts) <= 2  # noqa: SLF001 - the padding bound
        assert window.buckets == {0: 1, 1: 1, -2 * 10**11: 1, 2 * 10**11: 1,
                                  2 * 10**11 + 1: 1}
        window.trim(1e12 + 6.0)
        assert window.buckets == {2 * 10**11: 1, 2 * 10**11 + 1: 1}
        assert window.total == 5


class TestLeaseBoard:
    def test_ranks_by_denials_then_acquisitions(self):
        board = LeaseBoard()
        board.observe("lease_denied", "tag-b", 3)
        board.observe("lease_denied", "tag-a", 3)
        board.observe("lease_acquired", "tag-a", 2)
        board.observe("lease_acquired", "tag-c", 9)
        top = board.top(3)
        assert [row["tag_uid"] for row in top] == ["tag-a", "tag-b", "tag-c"]
        assert top[0]["denied"] == 3 and top[0]["acquired"] == 2

    def test_all_lease_kinds_tallied(self):
        board = LeaseBoard()
        for kind in ("lease_acquired", "lease_denied", "lease_renewed",
                     "lease_released"):
            board.observe(kind, "tag-x")
        (row,) = board.top(1)
        assert (row["acquired"], row["denied"], row["renewed"],
                row["released"]) == (1, 1, 1, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LeaseBoard().observe("lease_stolen", "tag-x")
