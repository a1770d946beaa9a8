"""Materialized fleet views, updated incrementally per ingested batch.

Three views, modeled on the RFID factory-backend shapes (trackerx_live's
``tag_travel_history`` / ``live_dashboard``):

* :class:`TravelHistory` — where one tag has been: its last ``depth``
  station *transitions* in a plain list (a tag scanned 500 times at the
  same gate holds one entry, not 500), plus lifetime scan counters.
* :class:`StationWindow` — per-station throughput over a sliding
  window, bucketed so memory is bounded by ``window/bucket`` regardless
  of traffic, held as one list of consecutive bucket counts, and
  **mergeable**: two shards' windows for the same station sum
  bucket-wise. (Stations see many tags, so unlike the
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

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple


class TravelHistory:
    """One tag's station transitions, the last ``depth`` of them kept.

    A plain list grows with the transitions a tag makes, and most tags
    make one or two; a bounded ``deque`` allocates a whole block for
    its first entry.
    """

    __slots__ = ("tag_uid", "entries", "depth", "scans", "transitions")

    def __init__(self, tag_uid: str, depth: int = 32) -> None:
        self.tag_uid = tag_uid
        # (station, first_seen_at_seconds) per *transition*, oldest first.
        self.entries: List[Tuple[str, float]] = []
        self.depth = max(1, depth)
        self.scans = 0  # lifetime sightings, coalesced counts included
        self.transitions = 0  # lifetime station changes (entries may forget)

    @property
    def current_station(self) -> Optional[str]:
        return self.entries[-1][0] if self.entries else None

    def observe(self, station: str, at_seconds: float, count: int = 1) -> None:
        self.scans += count
        entries = self.entries
        if not entries or entries[-1][0] != station:
            entries.append((station, at_seconds))
            if len(entries) > self.depth:
                del entries[0]
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
    """Bucketed sliding-window event counter for one station.

    The counts are one list of consecutive buckets: ``_counts[k]`` holds
    bucket ``_first + k``. A station's live buckets are neighbours
    inside one window, so this costs a pointer per bucket where a dict
    costs an entry and a key object each. ``at_seconds`` is the
    device's clock reading, so one event can land arbitrarily far from
    the rest; a bucket more than a window's worth of empty buckets
    away from the run is counted in ``_far`` instead, and no stamp pads
    the run with its gap.
    """

    __slots__ = ("window_seconds", "bucket_seconds", "total", "_first", "_counts", "_far")

    def __init__(self, window_seconds: float = 60.0, bucket_seconds: float = 5.0) -> None:
        if window_seconds <= 0 or bucket_seconds <= 0:
            raise ValueError("window and bucket sizes must be positive")
        self.window_seconds = window_seconds
        self.bucket_seconds = bucket_seconds
        self.total = 0  # lifetime, never trimmed
        self._first = 0
        self._counts: List[int] = []
        self._far: Optional[Dict[int, int]] = None  # bucket index -> count

    @property
    def buckets(self) -> Mapping[int, int]:
        """Bucket index -> event count for every non-empty bucket held.

        A read-only view built per call: the views' own paths never
        read it.
        """
        held = {
            self._first + offset: count
            for offset, count in enumerate(self._counts)
            if count
        }
        if self._far:
            for index, count in self._far.items():
                held[index] = held.get(index, 0) + count
        return MappingProxyType(held)

    def add(self, at_seconds: float, count: int = 1) -> None:
        self._add_bucket(int(at_seconds // self.bucket_seconds), count)
        self.total += count

    def _add_bucket(self, index: int, count: int) -> None:
        counts = self._counts
        offset = index - self._first
        if 0 <= offset < len(counts):
            counts[offset] += count
            return
        if not counts:
            self._first = index
            self._counts = [count]
            return
        # The empty buckets between the run and this one.
        gap = offset - len(counts) if offset > 0 else -offset - 1
        if gap > self.window_seconds // self.bucket_seconds:
            far = self._far
            if far is None:
                far = self._far = {}
            far[index] = far.get(index, 0) + count
        elif offset > 0:
            counts.extend([0] * gap)
            counts.append(count)
        else:  # a late event below the run
            counts[:0] = [count] + [0] * gap
            self._first = index

    def trim(self, now_seconds: float) -> None:
        """Drop buckets that slid out of the window."""
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        stale = horizon - self._first
        if stale > 0 and self._counts:
            del self._counts[:stale]
            self._first = horizon
        far = self._far
        if far:
            for index in [index for index in far if index < horizon]:
                del far[index]
            if not far:
                self._far = None

    def windowed_count(self, now_seconds: float) -> int:
        horizon = bucket_horizon(now_seconds, self.window_seconds, self.bucket_seconds)
        skip = horizon - self._first
        held = sum(self._counts[skip:]) if skip > 0 else sum(self._counts)
        if self._far:
            held += sum(
                count for index, count in self._far.items() if index >= horizon
            )
        return held

    def held_count(self) -> int:
        """Events in every bucket held: the windowed count while nothing
        held has slid out of the window."""
        held = sum(self._counts)
        if self._far:
            held += sum(self._far.values())
        return held

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
        for part in (self, other):
            for index, count in part.buckets.items():
                merged._add_bucket(index, count)
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
