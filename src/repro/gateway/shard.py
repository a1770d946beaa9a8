"""One ingestion shard: a bounded queue drained in batches on the reactor.

A shard owns the slice of tags whose uid hashes to it (see
:func:`repro.gateway.events.shard_of`) and everything derived from
them: their travel histories, their lease-contention rows, and its own
per-station throughput windows (stations span shards; the gateway sums
each shard's per-station counts at read time).

Hot-path discipline:

* ``submit`` runs on producer threads and does the minimum under the
  queue lock — append, bound, high-water — then wakes the drain task.
  When the queue is full the **oldest** event is shed (fresh telemetry
  beats stale telemetry) and the monotonic ``dropped`` counter pays for
  it; overflow is accounted, never silent.
* the drain step is a serial :class:`~repro.core.scheduler.ReactorTask`
  quantum: it swaps out at most ``max_batch`` events under the queue
  lock, applies them to the views under the views lock, and returns an
  immediate deadline while a backlog remains — so one shard never
  monopolizes a reactor worker for longer than a batch.
* view maintenance costs O(batch), not O(stations): expiry trims only
  the windows the batch touched (a late event is trimmed in its own
  batch), and sweeps every window only when the bucket horizon has
  moved since the last sweep — once per ``bucket_seconds``. After every
  batch each window holds exactly what trimming all of them would
  leave.
* ingest latency is sampled per event into a bounded ring
  (``deque(maxlen=...)``), summarized on demand as a
  :class:`~repro.metrics.fairness.LatencySummary` — which is mergeable,
  so the gateway's global percentile is an exact merge of shard rings.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.gateway.events import LEASE_KINDS, ScanEvent
from repro.gateway.views import LeaseBoard, StationWindow, TravelHistory, bucket_horizon
from repro.metrics.fairness import LatencySummary


class IngestShard:
    """Queue + drain task + the views for one hash slice of the fleet."""

    def __init__(
        self,
        index: int,
        reactor,
        clock: Clock,
        max_queue: int = 8192,
        max_batch: int = 256,
        latency_window: int = 4096,
        history_depth: int = 32,
        window_seconds: float = 60.0,
        bucket_seconds: float = 5.0,
        on_idle: Optional[Callable[[], None]] = None,
    ) -> None:
        self.index = index
        self._clock = clock
        self._max_queue = max(1, max_queue)
        self._max_batch = max(1, max_batch)
        self._history_depth = history_depth
        self._window_seconds = window_seconds
        self._bucket_seconds = bucket_seconds
        # Fires (outside locks) whenever a drain step leaves the queue
        # empty -- the gateway's drain() barrier rides on it.
        self._on_idle = on_idle

        # Producer side: queue state, guarded by _lock.
        self._lock = threading.Lock()
        self._queue: List[ScanEvent] = []
        self.submitted = 0  # events accepted into the queue (counts summed)
        self.dropped = 0  # events shed on overflow (monotonic)
        self.queue_high_water = 0
        # True from the moment a drain step swaps a batch out of the
        # queue until that batch is applied, so idle never reports an
        # empty queue whose events are not yet visible.
        self._applying = False

        # Consumer side: views + ingest counters, guarded by _views_lock
        # (written only inside the serial drain step; read by snapshots).
        self._views_lock = threading.Lock()
        self.ingested = 0  # events applied to views (counts summed)
        self.batches = 0
        self._latencies: Deque[float] = deque(maxlen=max(1, latency_window))
        self._travel: Dict[str, TravelHistory] = {}
        self._stations: Dict[str, StationWindow] = {}
        self._lease_board = LeaseBoard()
        self._swept_horizon: Optional[int] = None  # horizon of the last full sweep

        self._task = reactor.register(self._drain_step, name=f"gw-shard-{index}")

    # -- producer side -------------------------------------------------------------

    def submit(self, event: ScanEvent) -> None:
        """Enqueue one event (non-blocking; sheds oldest on overflow)."""
        event.enqueued_at = self._clock.now()
        with self._lock:
            queue = self._queue
            queue.append(event)
            depth = len(queue)
            if depth > self._max_queue:
                shed = queue.pop(0)
                self.dropped += shed.count
                depth -= 1
            if depth > self.queue_high_water:
                self.queue_high_water = depth
            self.submitted += event.count
        self._task.wake()

    def submit_many(self, events: List[ScanEvent]) -> None:
        """Batch enqueue: one lock round and one wake for the lot."""
        if not events:
            return
        now = self._clock.now()
        for event in events:
            event.enqueued_at = now
        with self._lock:
            queue = self._queue
            queue.extend(events)
            depth = len(queue)
            overflow = depth - self._max_queue
            if overflow > 0:
                for shed in queue[:overflow]:
                    self.dropped += shed.count
                del queue[:overflow]
                depth -= overflow
            if depth > self.queue_high_water:
                self.queue_high_water = depth
            self.submitted += sum(event.count for event in events)
        self._task.wake()

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def idle(self) -> bool:
        """Nothing queued and no batch mid-apply: every event is visible."""
        with self._lock:
            return not self._queue and not self._applying

    # -- consumer side (serial drain task) -------------------------------------------

    def _drain_step(self) -> Optional[float]:
        with self._lock:
            queue = self._queue
            if not queue:
                batch: List[ScanEvent] = []
                backlog = False
            elif len(queue) <= self._max_batch:
                batch = queue
                self._queue = []
                backlog = False
            else:
                batch = queue[: self._max_batch]
                del queue[: self._max_batch]
                backlog = True
            self._applying = bool(batch)
        if batch:
            self._apply_batch(batch)
            with self._lock:
                self._applying = False
        if backlog:
            return self._clock.now()  # immediate requeue: keep draining
        if self._on_idle is not None:
            self._on_idle()
        return None

    def _apply_batch(self, batch: List[ScanEvent]) -> None:
        applied_at = self._clock.now()
        with self._views_lock:
            travel = self._travel
            stations = self._stations
            board = self._lease_board
            latencies = self._latencies
            count_total = 0
            touched = set()
            for event in batch:
                count_total += event.count
                if event.enqueued_at is not None:
                    latencies.append(applied_at - event.enqueued_at)
                kind = event.kind
                if kind == "scan" or kind == "save":
                    history = travel.get(event.tag_uid)
                    if history is None:
                        history = TravelHistory(event.tag_uid, self._history_depth)
                        travel[event.tag_uid] = history
                    history.observe(event.station, event.at_seconds, event.count)
                elif kind in LEASE_KINDS:
                    board.observe(kind, event.tag_uid, event.count)
                window = stations.get(event.station)
                if window is None:
                    window = StationWindow(self._window_seconds, self._bucket_seconds)
                    stations[event.station] = window
                window.add(event.at_seconds, event.count)
                touched.add(window)
            self.ingested += count_total
            self.batches += 1
            horizon = bucket_horizon(
                applied_at, self._window_seconds, self._bucket_seconds
            )
            if horizon != self._swept_horizon:
                self._swept_horizon = horizon
                touched = stations.values()  # the horizon moved: sweep them all
            for window in touched:
                window.trim(applied_at)

    # -- snapshots (any thread) --------------------------------------------------------

    def travel_history(self, tag_uid: str) -> Optional[Dict[str, object]]:
        with self._views_lock:
            history = self._travel.get(tag_uid)
            return history.as_dict() if history is not None else None

    def station_counts(self, now_seconds: float) -> Dict[str, Tuple[int, int]]:
        """``(total, windowed_count(now_seconds))`` per station, in one pass.

        Both numbers add exactly across shards — a merged window's
        windowed count is the sum of its parts — so the gateway sums
        these instead of merging copies of the windows. After every
        batch no window holds a bucket below ``_swept_horizon``, so
        while ``now_seconds``' horizon is not past it a windowed count
        is the sum of the window's buckets; a read ahead of the last
        sweep counts through ``windowed_count``. Nothing is trimmed.
        """
        horizon = bucket_horizon(
            now_seconds, self._window_seconds, self._bucket_seconds
        )
        with self._views_lock:
            swept = self._swept_horizon
            if swept is not None and horizon <= swept:
                return {
                    station: (window.total, sum(window.buckets.values()))
                    for station, window in self._stations.items()
                }
            return {
                station: (window.total, window.windowed_count(now_seconds))
                for station, window in self._stations.items()
            }

    def lease_rows(self) -> Dict[str, List[int]]:
        with self._views_lock:
            return {uid: list(row) for uid, row in self._lease_board.counts.items()}

    def latency_summary(self) -> LatencySummary:
        with self._views_lock:
            return LatencySummary(list(self._latencies))

    def stats_snapshot(self) -> Dict[str, object]:
        with self._lock:
            producer = {
                "queue_depth": len(self._queue),
                "queue_high_water": self.queue_high_water,
                "submitted": self.submitted,
                "dropped": self.dropped,
            }
        with self._views_lock:
            consumer = {
                "ingested": self.ingested,
                "batches": self.batches,
                "tags_tracked": len(self._travel),
            }
        producer.update(consumer)
        return producer

    def close(self) -> None:
        self._task.cancel()
