"""``FleetGateway``: the in-process server side of the fleet.

Devices (or their :class:`~repro.gateway.reporter.GatewayReporter`)
push :class:`~repro.gateway.events.ScanEvent` records in; N ingestion
shards — each a serial drain task on the supplied
:class:`~repro.core.scheduler.Reactor`, threaded or asyncio backend
alike — pull them out in batches and maintain the materialized views.
The gateway object itself holds no per-event state: ``submit`` is a
stable hash plus a shard enqueue, and a global snapshot is a *merge* of
per-shard reads (station rates sum each shard's additive per-station
counts, :class:`LatencySummary` samples merge exactly), never a
stop-the-world scan.

Determinism: with a :class:`~repro.clock.ManualClock` nothing here
sleeps — shard drains are triggered by wakes (which both reactor
backends service without time passing) and :meth:`drain` is a condition
barrier, so tests advance virtual time only when they want flush
*intervals* to elapse.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.clock import Clock, SystemClock
from repro.gateway.events import ScanEvent, shard_of
from repro.gateway.shard import IngestShard
from repro.metrics.fairness import LatencySummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gateway.reporter import GatewayReporter


class GatewaySnapshot:
    """One merged, point-in-time reading of the fleet views."""

    __slots__ = ("at_seconds", "telemetry", "station_rates", "lease_leaderboard",
                 "ingest_latency")

    def __init__(
        self,
        at_seconds: float,
        telemetry: Dict[str, object],
        station_rates: Dict[str, Dict[str, object]],
        lease_leaderboard: List[Dict[str, object]],
        ingest_latency: LatencySummary,
    ) -> None:
        self.at_seconds = at_seconds
        self.telemetry = telemetry
        self.station_rates = station_rates
        self.lease_leaderboard = lease_leaderboard
        self.ingest_latency = ingest_latency

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_seconds": self.at_seconds,
            "telemetry": dict(self.telemetry),
            "station_rates": {k: dict(v) for k, v in self.station_rates.items()},
            "lease_leaderboard": [dict(row) for row in self.lease_leaderboard],
            "ingest_latency": self.ingest_latency.as_dict(),
        }


class FleetGateway:
    """Sharded scan-event ingestion with merged live views."""

    def __init__(
        self,
        reactor,
        clock: Optional[Clock] = None,
        shards: int = 4,
        max_queue: int = 8192,
        max_batch: int = 256,
        latency_window: int = 4096,
        history_depth: int = 32,
        window_seconds: float = 60.0,
        bucket_seconds: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self._reactor = reactor
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._window_seconds = window_seconds
        self._drain_cond = threading.Condition()
        self._shards: List[IngestShard] = [
            IngestShard(
                index,
                reactor,
                self._clock,
                max_queue=max_queue,
                max_batch=max_batch,
                latency_window=latency_window,
                history_depth=history_depth,
                window_seconds=window_seconds,
                bucket_seconds=bucket_seconds,
                on_idle=self._notify_idle,
            )
            for index in range(shards)
        ]
        self._shard_count = shards
        # Device-side accounting, so fleet telemetry covers drops before
        # the gateway ever saw the event, not just shard-queue overflow.
        # Reporters count themselves in and hand over each shed as it
        # happens; only reporters with a discoverer attached are kept, as
        # stream-drop sources. _reporters_lock is a leaf lock: nothing is
        # called while it is held, so a reporter may take it from any
        # callback (settle-path taps included) without forming a cycle.
        self._reporters_lock = threading.Lock()
        self._reporter_count = 0
        self._reporter_dropped = 0
        self._stream_sources: List["GatewayReporter"] = []
        self._closed = False

    # -- wiring ---------------------------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def shards(self) -> List[IngestShard]:
        return list(self._shards)

    def register_reporter(self, reporter: "GatewayReporter") -> None:
        """Count ``reporter`` in ``telemetry()["reporters"]``."""
        with self._reporters_lock:
            self._reporter_count += 1

    def register_stream_source(self, reporter: "GatewayReporter") -> None:
        """Sum ``reporter.stream_dropped`` into ``events_dropped_streams``."""
        with self._reporters_lock:
            self._stream_sources.append(reporter)

    def count_reporter_drops(self, count: int) -> None:
        """Add ``count`` events a reporter shed to ``events_dropped_reporter``."""
        with self._reporters_lock:
            self._reporter_dropped += count

    def _notify_idle(self) -> None:
        with self._drain_cond:
            self._drain_cond.notify_all()

    # -- ingestion ------------------------------------------------------------------

    def submit(self, event: ScanEvent) -> None:
        """Route one event to its tag's shard (non-blocking)."""
        self._shards[shard_of(event.tag_uid, self._shard_count)].submit(event)

    def submit_batch(self, events: List[ScanEvent]) -> None:
        """Split a reporter batch per shard: one lock round per shard."""
        if not events:
            return
        if self._shard_count == 1:
            self._shards[0].submit_many(events)
            return
        per_shard: Dict[int, List[ScanEvent]] = {}
        for event in events:
            per_shard.setdefault(
                shard_of(event.tag_uid, self._shard_count), []
            ).append(event)
        for index, chunk in per_shard.items():
            self._shards[index].submit_many(chunk)

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every shard is idle (or ``timeout`` passes).

        A condition barrier, not a sleep loop: shards notify whenever a
        drain step leaves them idle. A shard is idle only once its queue
        is empty *and* the last batch swapped out of it is applied, so
        ``True`` means every submitted event is visible in the views.
        """
        deadline = time.monotonic() + timeout
        with self._drain_cond:
            while not all(shard.idle for shard in self._shards):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._drain_cond.wait(remaining)
        return True

    # -- merged views ----------------------------------------------------------------

    def travel_history(self, tag_uid: str) -> Optional[Dict[str, object]]:
        """One tag's travel view — a single-shard lookup, no merge."""
        return self._shards[
            shard_of(tag_uid, self._shard_count)
        ].travel_history(tag_uid)

    def station_rates(
        self, now_seconds: Optional[float] = None
    ) -> Dict[str, Dict[str, object]]:
        """Per-station totals and windowed rates, summed across shards."""
        now = self._clock.now() if now_seconds is None else now_seconds
        sums: Dict[str, List[int]] = {}
        for shard in self._shards:
            for station, (total, windowed) in shard.station_counts(now).items():
                row = sums.get(station)
                if row is None:
                    sums[station] = [total, windowed]
                else:
                    row[0] += total
                    row[1] += windowed
        return {
            station: {
                "total": total,
                "windowed": windowed,
                "rate_per_second": windowed / self._window_seconds,
            }
            for station, (total, windowed) in sorted(sums.items())
        }

    def lease_leaderboard(self, top: int = 10) -> List[Dict[str, object]]:
        """Most lease-contended tags across the fleet (merged, ranked)."""
        rows: List[Dict[str, object]] = []
        for shard in self._shards:
            for uid, row in shard.lease_rows().items():
                rows.append(
                    {
                        "tag_uid": uid,
                        "acquired": row[0],
                        "denied": row[1],
                        "renewed": row[2],
                        "released": row[3],
                    }
                )
        rows.sort(
            key=lambda row: (-row["denied"], -row["acquired"], row["tag_uid"])
        )
        return rows[: max(0, top)]

    def ingest_latency(self) -> LatencySummary:
        """Exact merged latency percentiles over every shard's ring."""
        return LatencySummary.merged(
            shard.latency_summary() for shard in self._shards
        )

    def telemetry(self) -> Dict[str, object]:
        """Counters only — cheap enough to poll every dashboard tick.

        O(shards): reporter drops are a running total kept here, and
        only reporters with a discoverer attached are read.
        """
        shard_stats = [shard.stats_snapshot() for shard in self._shards]
        with self._reporters_lock:
            reporter_dropped = self._reporter_dropped
            reporter_count = self._reporter_count
            stream_sources = list(self._stream_sources)
        stream_dropped = sum(reporter.stream_dropped for reporter in stream_sources)
        return {
            "shards": self._shard_count,
            "events_submitted": sum(s["submitted"] for s in shard_stats),
            "events_ingested": sum(s["ingested"] for s in shard_stats),
            "events_dropped_queue": sum(s["dropped"] for s in shard_stats),
            "events_dropped_reporter": reporter_dropped,
            "events_dropped_streams": stream_dropped,
            "batches": sum(s["batches"] for s in shard_stats),
            "queue_depth": sum(s["queue_depth"] for s in shard_stats),
            "queue_high_water": max(s["queue_high_water"] for s in shard_stats),
            "tags_tracked": sum(s["tags_tracked"] for s in shard_stats),
            "reporters": reporter_count,
            "per_shard": shard_stats,
        }

    def snapshot(self, top: int = 10) -> GatewaySnapshot:
        now = self._clock.now()
        return GatewaySnapshot(
            at_seconds=now,
            telemetry=self.telemetry(),
            station_rates=self.station_rates(now),
            lease_leaderboard=self.lease_leaderboard(top),
            ingest_latency=self.ingest_latency(),
        )

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
