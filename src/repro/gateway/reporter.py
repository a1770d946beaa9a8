"""``GatewayReporter``: the device-side end of fleet reporting.

A reporter sits between a device's middleware callbacks and the
gateway, and its one hard rule is that **reporting never blocks the
radio path**: ``record`` is an O(1) append under a short lock, with

* a *bounded* buffer — overflow sheds the **oldest** pending event and
  pays a monotonic ``dropped`` counter; the same shed count is handed to
  the gateway as it happens, after the reporter's lock is released, so
  ``FleetGateway.telemetry()`` reads a running total instead of every
  reporter (shedding is accounted, never silent);
* *coalescing* — a burst of identical events (same kind/tag/station)
  folds into the tail record's ``count`` instead of queueing
  duplicates, which is what keeps a redetection storm cheap;
* *batched delivery* — the buffer flushes to the gateway on the
  device's reactor, as a throttle that fires on the leading edge: an
  event that finds the buffer empty and no flush within the last
  ``flush_interval`` wakes the reporter's task, which flushes at once
  (events recorded back to back before it runs share that batch);
  any other event rides its buffer's flush, due ``flush_interval``
  after the buffer's first event (a ``schedule_at`` deadline, so a
  ManualClock advance triggers it deterministically), or the flush at
  ``max_batch``. No event waits longer than ``flush_interval``, and a
  leading flush comes at least ``flush_interval`` after the reporter's
  previous flush. The first event that needs the task registers it,
  so a station that has reported nothing holds no task. Without a
  reactor only the threshold flush happens, inline — still just
  per-shard queue appends.

The ``attach_*`` methods hook the reporter into the three middleware
surfaces (following RAFDA's policy/logic split, the *device* code never
mentions reporting — attaching a reporter is a deployment decision):

* :meth:`attach_discoverer` — every detection callback becomes a
  ``scan`` event (via ``TagDiscoverer.add_detection_listener``);
* :meth:`attach_reference` — settled write operations become ``save``
  events (via ``TagReference.add_telemetry_listener``);
* :meth:`attach_lease_manager` — lease outcomes become ``lease_*``
  events (via ``LeaseManager.add_lease_listener``).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.gateway.events import ScanEvent, check_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.discovery import TagDiscoverer
    from repro.core.reference import TagReference
    from repro.core.scheduler import ReactorTask
    from repro.gateway.gateway import FleetGateway
    from repro.leasing.manager import LeaseManager

# One shared float, so a reporter that has never flushed carries no copy.
_NEVER_FLUSHED = float("-inf")


class GatewayReporter:
    """Batches one station's events toward a :class:`FleetGateway`.

    A reporter that has recorded nothing holds no reactor task and no
    hook lists: the task is registered by the first event that needs
    the reactor, and the lists by the first ``attach_*``.
    """

    __slots__ = (
        "_gateway",
        "station",
        "_reactor",
        "_clock",
        "_max_buffer",
        "_max_batch",
        "_flush_interval",
        "_coalesce",
        "_lock",
        "_buffer",
        "_flush_at",
        "_dropped",
        "_coalesced",
        "_recorded",
        "_closed",
        "_task",
        "_detachers",
        "_discoverers",
    )

    def __init__(
        self,
        gateway: "FleetGateway",
        station: str,
        reactor=None,
        clock=None,
        max_buffer: int = 512,
        max_batch: int = 64,
        flush_interval: Optional[float] = 0.05,
        coalesce: bool = True,
    ) -> None:
        self._gateway = gateway
        self.station = station
        self._reactor = reactor
        self._clock = clock if clock is not None else gateway.clock
        self._max_buffer = max(1, max_buffer)
        self._max_batch = max(1, max_batch)
        self._flush_interval = flush_interval
        self._coalesce = coalesce
        self._lock = threading.Lock()
        self._buffer: List[ScanEvent] = []
        # While the buffer is empty: the earliest clock time at which an
        # event flushes at once, a whole flush_interval after the last
        # flush. While it holds events: when they are due.
        self._flush_at = _NEVER_FLUSHED
        self._dropped = 0
        self._coalesced = 0
        self._recorded = 0
        self._closed = False
        self._task: Optional["ReactorTask"] = None  # registered on first need
        # The empty tuple until the first attach_* (it costs nothing).
        self._detachers: Sequence[Callable[[], None]] = ()
        self._discoverers: Sequence["TagDiscoverer"] = ()
        gateway.register_reporter(self)

    # -- counters --------------------------------------------------------------------
    # Reads take no lock: each is one attribute load or one len(), which
    # the interpreter lock makes atomic. Writes happen under _lock.

    @property
    def dropped(self) -> int:
        """Events shed on buffer overflow (monotonic, never resets)."""
        return self._dropped

    @property
    def coalesced(self) -> int:
        """Events folded into an existing buffered record."""
        return self._coalesced

    @property
    def recorded(self) -> int:
        """Everything record() accepted (shed + coalesced + delivered)."""
        return self._recorded

    @property
    def pending(self) -> int:
        return len(self._buffer)

    @property
    def stream_dropped(self) -> int:
        """Detections shed by attached discoverers' stream() buffers."""
        return sum(d.stream_dropped for d in self._discoverers)

    # -- the hot path ----------------------------------------------------------------

    def record(
        self,
        kind: str,
        tag_uid: str,
        count: int = 1,
        detail: Optional[str] = None,
    ) -> None:
        """Buffer one event; O(1), never blocks on the gateway.

        An unknown ``kind`` or a ``count`` below 1 raises ``ValueError``
        before any counter or the buffer changes.
        """
        check_event(kind, count)
        at = self._clock.now()
        arm_timer = False
        flush_now = False
        task = None
        shed = 0
        with self._lock:
            if self._closed:
                return
            self._recorded += count
            buffer = self._buffer
            if self._coalesce and buffer:
                tail = buffer[-1]
                if (
                    tail.kind == kind
                    and tail.tag_uid == tag_uid
                    and tail.detail == detail
                    and tail.station == self.station
                ):
                    tail.count += count
                    tail.at_seconds = at
                    self._coalesced += count
                    return
            opened = not buffer
            buffer.append(ScanEvent(kind, tag_uid, self.station, at, count, detail))
            depth = len(buffer)
            if depth > self._max_buffer:
                shed = buffer.pop(0).count
                self._dropped += shed
                depth -= 1
            if depth >= self._max_batch:
                flush_now = True
                self._flush_at = at
            elif opened and self._reactor is not None and self._flush_interval:
                # A buffer opened after a whole interval without a flush
                # leads one now; any other flushes an interval after this.
                flush_now = at >= self._flush_at
                arm_timer = not flush_now
                self._flush_at = at if flush_now else at + self._flush_interval
            if (flush_now or arm_timer) and self._reactor is not None:
                # Registered under the lock, so racing first events
                # register one task.
                task = self._task
                if task is None:
                    task = self._task = self._reactor.register(
                        self._flush_step, name=f"gw-report-{self.station}"
                    )
        if shed:
            self._gateway.count_reporter_drops(shed)
        if task is None:
            if flush_now:
                self.flush()
        elif arm_timer:
            task.schedule_at(at + self._flush_interval)
        else:
            task.wake()

    def flush(self) -> int:
        """Push everything buffered to the gateway now; returns batch size."""
        with self._lock:
            if not self._buffer:
                return 0
            batch = self._swap_locked(self._clock.now())
        self._gateway.submit_batch(batch)
        return len(batch)

    def _flush_step(self) -> Optional[float]:
        """Flush the buffer if it is due, else wait for its own deadline.

        A deadline armed by a buffer that has since flushed at
        ``max_batch`` still fires; it must not flush the next buffer
        before that buffer is due.
        """
        with self._lock:
            if not self._buffer:
                return None
            now = self._clock.now()
            if now < self._flush_at:
                return self._flush_at
            batch = self._swap_locked(now)
        self._gateway.submit_batch(batch)
        return None

    def _swap_locked(self, now: float) -> List[ScanEvent]:
        batch = self._buffer
        self._buffer = []
        self._flush_at = now + (self._flush_interval or 0.0)
        return batch

    # -- middleware hooks -------------------------------------------------------------

    def attach_discoverer(self, discoverer: "TagDiscoverer") -> None:
        """Report every detection of ``discoverer`` as a ``scan`` event."""

        def on_detection(event: str, reference: "TagReference") -> None:
            self.record("scan", reference.uid_hex, detail=event)

        discoverer.add_detection_listener(on_detection)
        if not self._add_detacher(
            lambda: discoverer.remove_detection_listener(on_detection)
        ):
            return
        with self._lock:
            first = not self._discoverers
            if first:
                self._discoverers = []
            self._discoverers.append(discoverer)
        if first:
            self._gateway.register_stream_source(self)

    def attach_reference(self, reference: "TagReference") -> None:
        """Report ``reference``'s landed writes as ``save`` events."""
        from repro.core.operations import OperationKind, OperationOutcome

        def on_settled(ref: "TagReference", operation, outcome) -> None:
            if (
                outcome is OperationOutcome.SUCCEEDED
                and operation.kind is OperationKind.WRITE
            ):
                self.record("save", ref.uid_hex)

        reference.add_telemetry_listener(on_settled)
        self._add_detacher(lambda: reference.remove_telemetry_listener(on_settled))

    def attach_lease_manager(self, manager: "LeaseManager") -> None:
        """Report ``manager``'s protocol outcomes as ``lease_*`` events."""

        def on_lease(event: str, mgr: "LeaseManager") -> None:
            self.record(
                "lease_" + event, mgr.reference.uid_hex, detail=mgr.device_id
            )

        manager.add_lease_listener(on_lease)
        self._add_detacher(lambda: manager.remove_lease_listener(on_lease))

    def _add_detacher(self, detach: Callable[[], None]) -> bool:
        """Keep ``detach`` for :meth:`close`; returns whether it was kept.

        A closed reporter keeps nothing: it runs ``detach`` at once.
        """
        with self._lock:
            closed = self._closed
            if not closed:
                if not self._detachers:
                    self._detachers = []
                self._detachers.append(detach)
        if closed:
            detach()
        return not closed

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Detach hooks, flush the tail, stop the timer task."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            detachers = self._detachers
            self._detachers = ()
            task = self._task  # no record registers one once closed
        for detach in detachers:
            detach()
        self.flush()
        if task is not None:
            task.cancel()

    def __repr__(self) -> str:
        return f"GatewayReporter({self.station!r}, pending={self.pending})"
