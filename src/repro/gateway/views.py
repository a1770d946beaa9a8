"""Materialized fleet views, updated incrementally per ingested batch.

Three views, modeled on the RFID factory-backend shapes (trackerx_live's
``tag_travel_history`` / ``live_dashboard``):

* :class:`TravelHistory` — where one tag has been: a bounded ring of
  station *transitions* (a tag scanned 500 times at the same gate holds
  one entry, not 500), plus lifetime scan counters.
* :class:`StationWindow` — per-station throughput over a sliding
  window, bucketed so memory is bounded by ``window/bucket`` regardless
  of traffic, and **mergeable**: two shards' windows for the same
  station sum bucket-wise. (Stations see many tags, so unlike the
  per-tag views a station's traffic is spread across every shard; the
  global dashboard number is a merge, never a shared counter.)
* :class:`LeaseBoard` — per-tag lease-protocol outcomes; the
  contention leaderboard ranks tags by denials (a denial is the
  protocol's direct evidence that two devices wanted the same tag).

All three are plain data structures with no locking of their own: a
shard mutates its views only inside its serial drain step, under the
shard's views lock; readers go through the shard snapshot methods.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class TravelHistory:
    """One tag's station transitions, ring-buffer bounded."""

    __slots__ = ("tag_uid", "entries", "scans", "transitions")

    def __init__(self, tag_uid: str, depth: int = 32) -> None:
        self.tag_uid = tag_uid
        # (station, first_seen_at_seconds) per *transition*.
        self.entries: Deque[Tuple[str, float]] = deque(maxlen=max(1, depth))
        self.scans = 0  # lifetime sightings, coalesced counts included
        self.transitions = 0  # lifetime station changes (ring may forget)

    @property
    def current_station(self) -> Optional[str]:
        return self.entries[-1][0] if self.entries else None

    def observe(self, station: str, at_seconds: float, count: int = 1) -> None:
        self.scans += count
        if not self.entries or self.entries[-1][0] != station:
            self.entries.append((station, at_seconds))
            self.transitions += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "tag_uid": self.tag_uid,
            "scans": self.scans,
            "transitions": self.transitions,
            "current_station": self.current_station,
            "path": [list(entry) for entry in self.entries],
        }


def bucket_horizon(
    now_seconds: float, window_seconds: float, bucket_seconds: float
) -> int:
    """Index of the oldest bucket still inside the window at ``now_seconds``.

    Buckets below it have slid out. It moves once per ``bucket_seconds``.
    """
    return int((now_seconds - window_seconds) // bucket_seconds)


class StationWindow:
    """Bucketed sliding-window event counter for one station."""

    __slots__ = ("window_seconds", "bucket_seconds", "buckets", "total")

    def __init__(self, window_seconds: float = 60.0, bucket_seconds: float = 5.0) -> None:
        if window_seconds <= 0 or bucket_seconds <= 0:
            raise ValueError("window and bucket sizes must be positive")
        self.window_seconds = window_seconds
        self.bucket_seconds = bucket_seconds
        self.buckets: Dict[int, int] = {}  # bucket index -> event count
        self.total = 0  # lifetime, never trimmed

    def add(self, at_seconds: float, count: int = 1) -> None:
        index = int(at_seconds // self.bucket_seconds)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.total += count

    def trim(self, now_seconds: float) -> None:
        """Drop buckets that slid out of the window."""
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        stale = [index for index in self.buckets if index < horizon]
        for index in stale:
            del self.buckets[index]

    def windowed_count(self, now_seconds: float) -> int:
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        return sum(
            count for index, count in self.buckets.items() if index >= horizon
        )

    def rate_per_second(self, now_seconds: float) -> float:
        return self.windowed_count(now_seconds) / self.window_seconds

    def merge(self, other: "StationWindow") -> "StationWindow":
        """Bucket-wise sum; window geometry must match."""
        if (
            self.window_seconds != other.window_seconds
            or self.bucket_seconds != other.bucket_seconds
        ):
            raise ValueError("cannot merge StationWindows with different geometry")
        merged = StationWindow(self.window_seconds, self.bucket_seconds)
        merged.buckets = dict(self.buckets)
        for index, count in other.buckets.items():
            merged.buckets[index] = merged.buckets.get(index, 0) + count
        merged.total = self.total + other.total
        return merged

    def __add__(self, other: "StationWindow") -> "StationWindow":
        return self.merge(other)


class LeaseBoard:
    """Per-tag lease outcomes; leaderboard ranks by contention."""

    __slots__ = ("counts",)

    _FIELDS = ("acquired", "denied", "renewed", "released")

    def __init__(self) -> None:
        # tag_uid -> [acquired, denied, renewed, released]
        self.counts: Dict[str, List[int]] = {}

    def observe(self, kind: str, tag_uid: str, count: int = 1) -> None:
        row = self.counts.get(tag_uid)
        if row is None:
            row = [0, 0, 0, 0]
            self.counts[tag_uid] = row
        # kind arrives as "lease_acquired" etc.; strip the prefix.
        field = kind[6:] if kind.startswith("lease_") else kind
        try:
            row[self._FIELDS.index(field)] += count
        except ValueError:
            raise ValueError(f"unknown lease kind {kind!r}") from None

    def top(self, n: int = 10) -> List[Dict[str, object]]:
        """Most-contended tags first (by denials, then acquisitions)."""
        ranked = sorted(
            self.counts.items(), key=lambda item: (-item[1][1], -item[1][0], item[0])
        )
        return [
            {
                "tag_uid": uid,
                "acquired": row[0],
                "denied": row[1],
                "renewed": row[2],
                "released": row[3],
            }
            for uid, row in ranked[: max(0, n)]
        ]
