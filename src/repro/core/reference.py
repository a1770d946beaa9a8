"""The tag reference: MORENA's far reference to an RFID tag.

Paper section 3.2. A tag reference

* is the **only** reference to its tag within one activity (enforced by
  :class:`~repro.core.factory.TagReferenceFactory`);
* offers an exclusively **asynchronous** interface (``read`` / ``write`` /
  ``make_read_only``), each operation carrying an optional success and
  failure listener and a timeout;
* keeps a **queue** of pending operations and a **private event loop**
  with its own *logical* thread of control that repeatedly tries to
  process the first operation in the queue: a failed attempt leaves the
  operation queued (decoupling in time -- no error surfaces), success
  removes it and fires the success listener, and passing its timeout
  removes it and fires the failure listener. The event loop is a
  :class:`~repro.core.scheduler.ReactorTask` on the device's reactor
  (see :mod:`repro.core.scheduler`), and its radio attempts run through
  the device's per-port transaction scheduler (see
  :mod:`repro.radio.txscheduler`);
* guarantees that an operation is **never processed before previously
  scheduled operations** were processed (or timed out);
* schedules all listeners on the **activity's main thread**, so the
  programmer never manages concurrency;
* caches the last content seen on the tag for synchronous access
  (with the staleness caveat the paper spells out);
* reports connectivity changes to registered observers.

The queue rules -- FIFO, write coalescing, ``merge_key`` merges, fences,
per-operation deadlines, revival of a superseded write and read dedup --
live in :class:`~repro.core.operations.OperationQueue`; this class adds
the lock, the clock, the radio attempts, the caches and the listeners.

Transient radio failures (tag lost, out of field, torn/corrupt data) are
retried silently. Permanent failures (message exceeds tag capacity, tag is
read-only or worn out, the converter rejected the object) settle the
operation immediately with its failure listener -- retrying cannot fix
those.

Cancellation (DESIGN.md decision 8) is **silent** for
:meth:`TagReference.cancel` and :meth:`TagReference.cancel_all`;
:meth:`TagReference.stop` fires the pending failure listeners only with
``notify_pending=True``. Either way a cancelled operation settles as
``CANCELLED`` exactly once, even if its radio attempt was in flight.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    List,
    NamedTuple,
    Optional,
    TYPE_CHECKING,
)

from repro.clock import Clock
from repro.core.converters import (
    NdefMessageToObjectConverter,
    ObjectToNdefMessageConverter,
)
from repro.core.listeners import ListenerLike, as_callback
from repro.core.operations import (
    Operation,
    OperationKind,
    OperationOutcome,
    OperationQueue,
)
from repro.core.scheduler import ReactorTask
from repro.errors import (
    ConverterError,
    LooperError,
    MorenaError,
    NdefError,
    RadioError,
    ReferenceStoppedError,
    TagCapacityError,
    TagFormatError,
    TagReadOnlyError,
    TagWornOutError,
)
from repro.ndef.message import NdefMessage
from repro.radio.events import FieldEvent, TagEntered, TagLeft

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.android.looper import Looper
    from repro.android.nfc.tech import Tag
    from repro.core.nfc_activity import NFCActivity
    from repro.radio.port import TagSession
    from repro.radio.txscheduler import PortTransactionScheduler

DEFAULT_TIMEOUT_SECONDS = 5.0
DEFAULT_RETRY_INTERVAL_SECONDS = 0.02

_TRANSIENT_ERRORS = (RadioError, TagFormatError)
_PERMANENT_ERRORS = (
    TagCapacityError, TagReadOnlyError, TagWornOutError, ConverterError, NdefError
)

ConnectivityListener = Callable[["TagReference", bool], None]


class BatchView(NamedTuple):
    """One reference's queue state as seen by the per-port transaction
    scheduler's drain loop (see :mod:`repro.radio.txscheduler`).

    ``ready`` is the head operation if it may execute right now (tag
    presence is the scheduler's concern); ``head_id`` and ``fence_id``
    are the queue's (see :class:`~repro.core.operations.OperationQueue`);
    ``wake_at`` is when a backed-off head becomes ready again.
    """

    ready: Optional[Operation]
    head_id: Optional[int]
    fence_id: Optional[int]
    wake_at: Optional[float]


_EMPTY_BATCH_VIEW = BatchView(None, None, None, None)


class TagReference:
    """First-class remote reference to one RFID tag.

    Do not instantiate directly in application code; obtain references
    from a :class:`~repro.core.discovery.TagDiscoverer` (or, in tests,
    from a :class:`~repro.core.factory.TagReferenceFactory`).
    """

    # Slotted: an idle reference is the unit the reactor scales
    # by (100k per process), and the instance dict would be its single
    # largest allocation. ``__weakref__`` is kept for diagnostics.
    __slots__ = (
        "__weakref__",
        "_tag",
        "_activity",
        "_looper",
        "_port",
        "_clock",
        "_read_converter",
        "_write_converter",
        "_default_timeout",
        "_retry_interval",
        "_coalesce_writes",
        "_lock",
        "_queue",
        "_stopped",
        "_cached_object",
        "_cached_message",
        "_connected",
        "_connectivity_listeners",
        "_telemetry_listeners",
        "attempts",
        "successes",
        "timeouts",
        "permanent_failures",
        "coalesced_writes",
        "deduped_reads",
        "protocol_merges",
        "_task",
        "_batch",
        "_batch_backoff_until",
    )

    def __init__(
        self,
        tag: "Tag",
        activity: "NFCActivity",
        read_converter: NdefMessageToObjectConverter,
        write_converter: ObjectToNdefMessageConverter,
        default_timeout: float = DEFAULT_TIMEOUT_SECONDS,
        retry_interval: float = DEFAULT_RETRY_INTERVAL_SECONDS,
        coalesce_writes: bool = False,
    ) -> None:
        self._tag = tag
        self._activity = activity
        self._looper = activity.device.main_looper
        self._port = tag.port
        self._clock: Clock = activity.device.environment.clock
        self._read_converter = read_converter
        self._write_converter = write_converter
        self._default_timeout = default_timeout
        self._retry_interval = retry_interval
        self._coalesce_writes = coalesce_writes

        # A plain lock, not a condition: nothing waits on a reference --
        # its logical loop parks on the reactor's timer heap.
        self._lock = threading.Lock()
        # Created by the first enqueue: at 100k idle references, a queue
        # per reference that never queued anything is real memory.
        self._queue: Optional[OperationQueue] = None
        self._stopped = False
        self._cached_object: Any = None
        self._cached_message: Optional[NdefMessage] = None
        self._connectivity_listeners: List[ConnectivityListener] = []
        # Lazily created (None until the first add): at 100k idle
        # references an empty list per instance is real memory.
        self._telemetry_listeners: Optional[List[Callable[..., None]]] = None

        # Statistics, exposed for tests and benchmarks.
        self.attempts = 0
        self.successes = 0
        self.timeouts = 0
        self.permanent_failures = 0
        self.coalesced_writes = 0  # writes superseded by a newer payload
        self.deduped_reads = 0  # reads settled by another read's attempt
        self.protocol_merges = 0  # raw writes absorbed via merge_key

        self._task: ReactorTask = activity.device.reactor.register(
            self._step, name=f"tagref-{tag.id_hex}"
        )
        # The device's per-port transaction scheduler drains this
        # reference's ready head operations through shared tag
        # sessions, one connect per tap window.
        self._batch: "PortTransactionScheduler" = activity.device.tx_scheduler
        self._batch_backoff_until = 0.0
        self._batch.register(self)
        # Usually created upon discovery (i.e. in the field), but a
        # reference can also be created for an already-departed tag --
        # query the field so the first connectivity transition a
        # listener sees is never against a stale initial state.
        self._connected = self.is_connected
        # Last: a field event may be dispatched the moment the listener
        # is registered, and its handler needs every slot above.
        self._port.add_tag_listener(tag.simulated, self._on_field_event)

    # -- identity & cached state --------------------------------------------------

    @property
    def tag(self) -> "Tag":
        return self._tag

    @property
    def uid(self) -> bytes:
        return self._tag.id

    @property
    def uid_hex(self) -> str:
        return self._tag.id_hex

    @property
    def activity(self) -> "NFCActivity":
        return self._activity

    @property
    def looper(self) -> "Looper":
        """The main looper all of this reference's listeners post to."""
        return self._looper

    @property
    def default_timeout(self) -> float:
        """Timeout applied when an operation omits its own."""
        return self._default_timeout

    @property
    def cached(self) -> Any:
        """Last converted content seen on the tag (synchronous, maybe stale).

        The paper's warning applies verbatim: if the tag was out of sight
        for a while another device may have rewritten it -- prefer an
        asynchronous :meth:`read` for critical data.
        """
        return self._cached_object

    @property
    def cached_message(self) -> Optional[NdefMessage]:
        return self._cached_message

    @property
    def has_cache(self) -> bool:
        return self._cached_message is not None

    def __repr__(self) -> str:
        return (
            f"TagReference(uid={self.uid_hex}, pending={self.pending_count}, "
            f"connected={self.is_connected})"
        )

    @property
    def aio(self):
        """Coroutine view: ``await ref.aio.read()`` etc.

        A stateless adapter over the listener API — same operations,
        same queue, same guarantees; see :mod:`repro.core.aio`. Works
        from the reactor's loop and from any other event loop.
        """
        from repro.core.aio import AsyncTagReference

        return AsyncTagReference(self)

    # -- connectivity ----------------------------------------------------------------

    @property
    def is_connected(self) -> bool:
        """Whether the tag is currently believed to be in range."""
        return self._port.environment.tag_in_field(self._tag.simulated, self._port)

    def add_connectivity_listener(self, listener: ConnectivityListener) -> None:
        """Observe connectivity changes; called as ``listener(ref, connected)``
        on the activity's main thread."""
        with self._lock:
            self._connectivity_listeners.append(listener)

    def remove_connectivity_listener(self, listener: ConnectivityListener) -> None:
        with self._lock:
            if listener in self._connectivity_listeners:
                self._connectivity_listeners.remove(listener)

    def add_telemetry_listener(self, listener: Callable[..., None]) -> None:
        """Observe every operation settlement: ``listener(ref, op, outcome)``.

        Unlike the per-operation success/failure listeners (which are
        application logic and post to the main looper), telemetry
        listeners are a *tap*: they run inline on the settling thread,
        see every non-cancelled settlement of every operation, and must
        be cheap and non-blocking — the contract a
        :class:`~repro.gateway.reporter.GatewayReporter` honours with
        its O(1) buffered ``record``.
        """
        with self._lock:
            if self._telemetry_listeners is None:
                self._telemetry_listeners = []
            self._telemetry_listeners.append(listener)

    def remove_telemetry_listener(self, listener: Callable[..., None]) -> None:
        with self._lock:
            if (
                self._telemetry_listeners is not None
                and listener in self._telemetry_listeners
            ):
                self._telemetry_listeners.remove(listener)

    def notify_redetected(self) -> None:
        """Wake the event loop; called by the discoverer on re-detection."""
        self._task.wake()

    def _on_field_event(self, event: FieldEvent) -> None:
        if isinstance(event, TagEntered) and event.tag is self._tag.simulated:
            self._set_connected(True)
            self._task.wake()
        elif isinstance(event, TagLeft) and event.tag is self._tag.simulated:
            self._set_connected(False)

    def _set_connected(self, connected: bool) -> None:
        with self._lock:
            if self._connected == connected:
                return
            self._connected = connected
            listeners = list(self._connectivity_listeners)
        for listener in listeners:
            self._post_listener(listener, self, connected)

    # -- the asynchronous interface ------------------------------------------------------

    def read(
        self,
        on_read: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an asynchronous read.

        On success the tag's content is converted with the read converter,
        cached, and ``on_read(ref)`` runs on the main thread. If the read
        does not succeed within ``timeout`` seconds (the reference default
        when omitted), ``on_failed(ref)`` runs instead.
        """
        return self._enqueue(
            self._make_operation(OperationKind.READ, on_read, on_failed, timeout)
        )

    def write(
        self,
        obj: Any,
        on_written: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
        coalesce: Optional[bool] = None,
    ) -> Operation:
        """Schedule an asynchronous write of ``obj``.

        ``obj`` is converted with the write converter immediately (so the
        value written is the value at call time, not at transmission
        time). Conversion failures settle the operation at once via
        ``on_failed``; radio failures are retried until the timeout.

        ``coalesce`` (default: the reference's ``coalesce_writes``) lets
        a newer coalescible write queued right behind this one supersede
        it before it is sent: one physical write lands the newest
        payload, and both listeners fire in FIFO order. See
        :class:`~repro.core.operations.OperationQueue` for the rules.
        """
        operation = self._make_operation(
            OperationKind.WRITE, on_written, on_failed, timeout,
            coalescible=self._coalesce_writes if coalesce is None else coalesce,
            original_object=obj,
        )
        try:
            operation.payload = self._write_converter.convert(obj)
        except ConverterError as exc:
            self._settle(operation, OperationOutcome.FAILED, exc)
            return operation
        return self._enqueue(operation)

    def read_raw(
        self,
        on_read: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an asynchronous read that skips the read converter.

        Only :attr:`cached_message` is refreshed (the converted-object
        cache is left untouched); the success listener inspects
        ``ref.cached_message``. Protocol layers that ride along with
        application data -- like :mod:`repro.leasing` -- use this to work
        at the NDEF level regardless of the reference's converters.
        """
        return self._enqueue(
            self._make_operation(
                OperationKind.READ, on_read, on_failed, timeout, raw=True
            )
        )

    def write_raw(
        self,
        message: Optional[NdefMessage] = None,
        on_written: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
        merge_key: Optional[str] = None,
        message_factory: Optional[Callable[[], NdefMessage]] = None,
    ) -> Operation:
        """Schedule an asynchronous write of a ready-made NDEF message.

        Skips the write converter; only :attr:`cached_message` is
        refreshed on success. See :meth:`read_raw`. Raw writes never
        coalesce through the generic tail merge: protocol layers
        (leasing and friends) depend on every message physically
        reaching the tag.

        ``merge_key`` is the protocol merge hook: an unsent raw write at
        the queue tail carrying the *same* key is superseded by this one
        (latest record wins, e.g. a lease renewal's expiry), and its
        listener still fires first. Never pass a merge key for records
        that must each reach the tag.

        ``message_factory`` (mutually exclusive with ``message``)
        defers building the message to transmission time: it is called
        on the event loop for every radio attempt, after all earlier
        queued operations have settled and refreshed
        :attr:`cached_message` -- so a protocol record composed with
        cached application data never resurrects state that a queued
        data write in front of it was about to replace.
        """
        if (message is None) == (message_factory is None):
            raise MorenaError(
                "write_raw expects exactly one of message / message_factory"
            )
        if message is not None and not isinstance(message, NdefMessage):
            raise MorenaError("write_raw expects an NdefMessage")
        return self._enqueue(
            self._make_operation(
                OperationKind.WRITE, on_written, on_failed, timeout, raw=True,
                payload=message, payload_factory=message_factory,
                merge_key=merge_key,
            )
        )

    def make_read_only(
        self,
        on_locked: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an asynchronous permanent lock of the tag."""
        return self._enqueue(
            self._make_operation(OperationKind.LOCK, on_locked, on_failed, timeout)
        )

    def format(
        self,
        on_formatted: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an asynchronous NDEF format of a blank tag.

        Because the queue is processed in order, ``format`` followed by
        ``write`` initializes a factory-blank tag safely: the write is
        never attempted before the format completed.
        """
        return self._enqueue(
            self._make_operation(OperationKind.FORMAT, on_formatted, on_failed, timeout)
        )

    # -- cancellation -----------------------------------------------------------------------

    def cancel(self, operation: Operation) -> bool:
        """Best-effort cancellation of a queued operation.

        Returns ``True`` if the operation was still queued and is now
        ``CANCELLED`` (no listener will fire). Returns ``False`` if it
        already settled. An operation whose radio attempt is in flight at
        the moment of cancellation is removed from the queue, but if that
        attempt happens to succeed the data *did* reach the tag -- the
        operation stays ``CANCELLED`` and silent regardless, which is the
        honest race of a distributed cancel.
        """
        with self._lock:
            # Cancelling the survivor of a coalesced chain cancels only
            # that write: the queue revives the newest superseded one.
            if not (self._queue and self._queue.cancel(operation)):
                return False
            operation.outcome = OperationOutcome.CANCELLED
            return True

    def cancel_all(self) -> int:
        """Cancel every queued operation; returns how many were cancelled.

        Like :meth:`cancel` this is **silent**: no success or failure
        listener fires for the cancelled operations (the caller asked for
        the cancellation, so there is nobody left to inform). To tear the
        reference down *and* flush failure listeners for whatever is
        still pending, use ``stop(notify_pending=True)`` instead.
        """
        with self._lock:
            cancelled = self._queue.drain() if self._queue else []
            for operation in cancelled:
                operation.outcome = OperationOutcome.CANCELLED
        return len(cancelled)

    @property
    def pending_count(self) -> int:
        """Logical pending operations, superseded writes included."""
        with self._lock:
            return len(self._queue) if self._queue else 0

    # -- lifecycle ----------------------------------------------------------------------------

    @property
    def is_stopped(self) -> bool:
        with self._lock:
            return self._stopped

    def stop(self, notify_pending: bool = False) -> None:
        """Stop the private event loop.

        Pending operations become ``CANCELLED``. By default that is
        silent, mirroring :meth:`cancel_all`; with ``notify_pending``
        their failure listeners are scheduled a final time (the teardown
        variant for applications that must flush callbacks). An
        operation whose radio attempt is in flight at the moment of the
        stop is cancelled too and never settles otherwise.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            cancelled = self._queue.drain() if self._queue else []
        for operation in cancelled:
            operation.outcome = OperationOutcome.CANCELLED
            if notify_pending:
                self._post_listener(operation.on_failure, self)
        self._port.remove_tag_listener(self._tag.simulated, self._on_field_event)
        self._batch.unregister(self)
        # Deregister rather than wake: a cancelled task's timer entries
        # are ignored, and nothing is left for a step to observe.
        self._task.cancel()

    # -- internals -------------------------------------------------------------------------------

    def _make_operation(
        self,
        kind: OperationKind,
        on_success: ListenerLike,
        on_failure: ListenerLike,
        timeout: Optional[float],
        **fields: Any,
    ) -> Operation:
        effective = self._default_timeout if timeout is None else timeout
        if effective <= 0:
            raise MorenaError("operation timeout must be positive")
        now = self._clock.now()
        return Operation(
            kind=kind,
            deadline=now + effective,
            enqueued_at=now,
            on_success=as_callback(on_success),
            on_failure=as_callback(on_failure),
            **fields,
        )

    def _enqueue(self, operation: Operation) -> Operation:
        with self._lock:
            if self._stopped:
                raise ReferenceStoppedError(
                    f"tag reference {self.uid_hex} has been stopped"
                )
            if self._queue is None:
                self._queue = OperationQueue()
            if self._queue.push(operation) and not operation.merged:
                self.coalesced_writes += 1
            elif operation.merged:
                self.protocol_merges += 1
        if operation.merged:
            # The queue did not grow and the tail was already being
            # awaited; only the deadline may have moved. Adopt it on
            # the reactor's timer heap instead of queueing a step.
            self._task.schedule_at(operation.deadline)
        else:
            self._task.wake()
        return operation

    def _step(self) -> Optional[float]:
        """One scheduling quantum of the logical event loop.

        Runs on the reactor, serialized per reference. Radio attempts
        happen on the transaction scheduler's drain; this task only
        expires deadlines and reports readiness, then parks on the
        queue's deadline bound so timeouts fire even while the
        scheduler has nothing to drain (absent tag, backoff). It never
        sleeps: an absent tag's wait occupies no thread and cannot
        starve other references.
        """
        with self._lock:
            queue = self._queue
            if self._stopped or not queue:
                return None
            self._time_out(queue, self._clock.now())
            if not queue:
                return None
            runnable = self.is_connected
            deadline = queue.deadline_bound
        if runnable:
            # Outside the queue lock: the scheduler takes its own lock
            # and wakes its reactor task.
            self._batch.notify_runnable(self)
        return deadline

    def batch_poll(self) -> BatchView:
        """Expire overdue operations, then report the queue's batch view.

        Called by the transaction scheduler's drain loop; see
        :class:`BatchView` for the fields and
        :meth:`Operation.is_batch_fence` for the fence rules the
        scheduler enforces with them. Constant work unless an operation
        is due.
        """
        with self._lock:
            queue = self._queue
            if self._stopped or not queue:
                return _EMPTY_BATCH_VIEW
            now = self._clock.now()
            self._time_out(queue, now)
            head = queue.head
            if head is None:
                return _EMPTY_BATCH_VIEW
            ready: Optional[Operation] = None
            wake_at: Optional[float] = None
            if not head.in_flight:
                if now >= self._batch_backoff_until:
                    ready = head
                else:
                    wake_at = self._batch_backoff_until
            return BatchView(ready, queue.head_id, queue.fence_id, wake_at)

    def batch_peek(self, limit: int) -> List[Operation]:
        """Up to ``limit`` pending physical operations, oldest first.

        Read-only; the transaction scheduler sizes a tag's next visit by
        them. Work grows with ``limit``, not with the queue's depth.
        """
        with self._lock:
            queue = self._queue
            if self._stopped or not queue:
                return []
            return queue.survivors(limit)

    def batch_execute(self, operation: Operation, session: "TagSession") -> str:
        """Run one head attempt through an open tag session.

        Called by the transaction scheduler's drain loop. Returns
        ``"settled"`` (the operation and any coalesced/deduped
        companions settled, listeners posted FIFO), ``"retry"`` (the
        attempt failed transiently -- the operation stays at the head
        and this reference backs off for its retry interval), or
        ``"skip"`` (the queue changed underneath: cancel, stop or
        timeout won the race and there is nothing to do).
        """
        with self._lock:
            queue = self._queue
            if (
                self._stopped
                or queue is None
                or queue.head is not operation
                or operation.in_flight
            ):
                return "skip"
            operation.in_flight = True
        outcome, error = self._attempt(operation, session)
        with self._lock:
            operation.in_flight = False
            if self._stopped:
                return "skip"
            if outcome is OperationOutcome.PENDING:
                if queue.head is not operation:
                    return "skip"  # cancelled mid-attempt
                self._batch_backoff_until = self._clock.now() + self._retry_interval
                return "retry"
            settled = queue.settle(operation, outcome is OperationOutcome.SUCCEEDED)
            if outcome is OperationOutcome.SUCCEEDED:
                self.successes += len(settled)
                if operation.kind is OperationKind.READ:
                    self.deduped_reads += len(settled) - 1
            else:
                self.permanent_failures += len(settled)
        for companion in settled:
            self._settle(companion, outcome, error)
        return "settled"

    def _time_out(self, queue: OperationQueue, now: float) -> None:
        """Fail every operation whose deadline has passed (lock held)."""
        for operation in queue.expire(now):
            self.timeouts += 1
            self._settle(operation, OperationOutcome.TIMED_OUT, None)

    def _attempt(self, operation: Operation, session: "TagSession"):
        """Try the head operation once through an open tag session.
        Returns (outcome, error).

        ``PENDING`` as outcome means: transient failure, keep it queued.
        """
        operation.attempts += 1
        self.attempts += 1
        try:
            if operation.kind is OperationKind.READ:
                message = session.read_ndef(self._tag.simulated)
                converted = (
                    None if operation.raw else self._read_converter.convert(message)
                )
                self._update_cache(converted, message, operation.raw)
            elif operation.kind is OperationKind.WRITE:
                message = (
                    operation.payload
                    if operation.payload_factory is None
                    else operation.payload_factory()
                )
                session.write_ndef(self._tag.simulated, message)
                self._update_cache(operation.original_object, message, operation.raw)
            elif operation.kind is OperationKind.FORMAT:
                session.format_tag(self._tag.simulated)
            else:
                session.make_read_only(self._tag.simulated)
            return OperationOutcome.SUCCEEDED, None
        except _PERMANENT_ERRORS as exc:
            return OperationOutcome.FAILED, exc
        except _TRANSIENT_ERRORS as exc:
            operation.error = exc
            return OperationOutcome.PENDING, exc

    def _update_cache(
        self, converted: Any, message: NdefMessage, raw: bool = False
    ) -> None:
        """Cache what the tag holds; a raw operation leaves the
        converted-object cache alone."""
        with self._lock:
            if not raw:
                self._cached_object = converted
            self._cached_message = message

    def _settle(
        self,
        operation: Operation,
        outcome: OperationOutcome,
        error: Optional[BaseException],
    ) -> None:
        if operation.outcome is OperationOutcome.CANCELLED:
            return  # cancelled mid-attempt: stay silent
        operation.outcome = outcome
        operation.error = error if error is not None else operation.error
        succeeded = outcome is OperationOutcome.SUCCEEDED
        self._post_listener(
            operation.on_success if succeeded else operation.on_failure, self
        )
        # Telemetry tap: inline, after the application listener is
        # posted; listeners are contract-bound to be non-blocking.
        # Read without _lock: _settle runs inside _time_out with the
        # non-reentrant lock already held, and a GIL-atomic list copy
        # is all the snapshot needs.
        taps = self._telemetry_listeners
        if taps:
            for tap in list(taps):
                try:
                    tap(self, operation, outcome)
                except Exception:  # noqa: BLE001 - a tap must not break settlement
                    pass

    def _post_listener(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a listener on the activity's main thread.

        If the main looper has already quit (activity torn down) the
        listener is dropped -- there is no UI left to inform. Only that
        ``LooperError`` is swallowed: a programming error in the
        middleware must surface, not masquerade as a quiet shutdown.
        """
        try:
            self._looper.post(lambda: callback(*args))
        except LooperError:  # looper quit during shutdown
            pass
