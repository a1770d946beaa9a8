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

Transient radio failures (tag lost, out of field, torn/corrupt data) are
retried silently. Permanent failures (message exceeds tag capacity, tag is
read-only or worn out, the converter rejected the object) settle the
operation immediately with its failure listener -- retrying cannot fix
those.

Write coalescing (opt-in via ``coalesce_writes=True`` or per-operation
``coalesce=...``; ``Thing.save_async`` opts in by default): while a tag
is out of range, consecutive coalescible writes at the queue tail
collapse to the newest payload, so one tap window performs one physical
write instead of N redundant ones. Every superseded write settles its
success listener in FIFO order when the surviving write lands -- the tag
then holds a state at least as new as the one each write captured. Only
*adjacent* coalescible writes merge: a queued read, format, lock or raw
write is a fence (the paper's in-order guarantee that a read observes
the preceding write is preserved), and raw writes themselves never
coalesce through this generic tail merge. Symmetrically, consecutive
pending reads of the same rawness share one physical read and fan out
its result (read dedup).

Protocol merge hook (``write_raw(..., merge_key=...)``): protocol
layers whose records are *replacement* state -- a lease renewal, where
only the latest expiry matters -- may opt two tail-adjacent unsent raw
writes carrying the same ``merge_key`` into collapsing to the newest
message. The merge happens inside the queue lock (the protocol never
touches the queue's privates), settles the superseded write's listener
in FIFO order when the survivor lands, and adopts the survivor's
deadline via the reactor's timer heap. Everything else -- a different
or absent merge key, a read, a lock, a format, an in-flight attempt --
remains a fence, so a guarded data write or a release never merges
with a renewal on either side.

Cancellation semantics (unified, see DESIGN.md decision 8):
application-initiated cancellation (:meth:`TagReference.cancel`,
:meth:`TagReference.cancel_all`) is **silent** -- the caller initiated
it and needs no callback; no listener ever fires for those operations.
Lifecycle teardown (:meth:`TagReference.stop`) is silent by default but
fires the **failure listeners** of pending operations when called with
``notify_pending=True``, because at teardown the application may need
to flush callbacks that would otherwise wait forever. In every case a
cancelled operation settles as ``CANCELLED`` exactly once, even when
its radio attempt was in flight (and even if that attempt succeeds on
the air -- the honest race of a distributed cancel).
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
from repro.core.operations import Operation, OperationKind, OperationOutcome
from repro.core.scheduler import ReactorTask
from repro.errors import (
    ConverterError,
    LooperError,
    MorenaError,
    NdefError,
    NotInFieldError,
    RadioError,
    ReferenceStoppedError,
    TagCapacityError,
    TagFormatError,
    TagLostError,
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

_TRANSIENT_ERRORS = (TagLostError, NotInFieldError, TagFormatError)
_PERMANENT_ERRORS = (
    TagCapacityError,
    TagReadOnlyError,
    TagWornOutError,
    ConverterError,
    NdefError,
)

ConnectivityListener = Callable[["TagReference", bool], None]


class BatchView(NamedTuple):
    """One reference's queue state as seen by the per-port transaction
    scheduler's drain loop (see :mod:`repro.radio.txscheduler`).

    ``ready`` is the head operation if it may execute right now (tag
    presence is the scheduler's concern); ``head_id`` is the smallest
    pending ``op_id`` including superseded writes; ``fence_id`` is the
    smallest pending fence ``op_id`` (``None`` if no fence is queued);
    ``wake_at`` is when a backed-off head becomes ready again;
    ``depth`` is the logical queue depth (superseded writes included),
    which the scheduler's telemetry records and hands to the cross-tag
    policy; the round-robin quantum ignores it, since crediting visits
    by depth measured no better (DESIGN.md decision 13).
    """

    ready: Optional[Operation]
    head_id: Optional[int]
    fence_id: Optional[int]
    wake_at: Optional[float]
    depth: int


_EMPTY_BATCH_VIEW = BatchView(None, None, None, None, 0)


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
        "_has_cache",
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
        # A plain list: queues are short (pending ops per reference), the
        # rare pop(0) shift is noise next to a radio round-trip, and a
        # list's empty footprint is a tenth of a deque's — which matters
        # at 100k idle references each holding a (near-)empty queue.
        self._queue: List[Operation] = []
        self._stopped = False
        self._cached_object: Any = None
        self._cached_message: Optional[NdefMessage] = None
        self._has_cache = False
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
        self._connected = self._port.environment.tag_in_field(
            tag.simulated, self._port
        )
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
        return self._has_cache

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
        operation = self._make_operation(
            OperationKind.READ, on_read, on_failed, timeout
        )
        self._enqueue(operation)
        return operation

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

        ``coalesce`` marks the write as coalescible (defaulting to the
        reference's ``coalesce_writes`` setting): while queued and not
        yet attempted, it may be superseded by a newer coalescible write
        -- one physical write lands the newest payload and the
        superseded writes settle success in FIFO order. Coalescing only
        merges *adjacent* coalescible writes at the queue tail; a queued
        read (or any other operation kind) is a fence, preserving the
        in-order guarantee that a read observes the preceding write.
        """
        operation = self._make_operation(
            OperationKind.WRITE, on_written, on_failed, timeout
        )
        operation.coalescible = (
            self._coalesce_writes if coalesce is None else coalesce
        )
        operation.original_object = obj
        try:
            operation.payload = self._write_converter.convert(obj)
        except ConverterError as exc:
            self._settle(operation, OperationOutcome.FAILED, exc)
            return operation
        self._enqueue(operation)
        return operation

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
        operation = self._make_operation(
            OperationKind.READ, on_read, on_failed, timeout
        )
        operation.raw = True
        self._enqueue(operation)
        return operation

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

        ``merge_key`` is the sanctioned protocol merge hook: when the
        queue tail is an unsent raw write carrying the *same* key, the
        two collapse to this (newest) message -- the protocol's own
        latest-record-wins rule, e.g. a lease renewal replacing a
        pending renewal's expiry. The superseded write's success
        listener still fires, in FIFO order, when the survivor lands;
        any other queued operation is a fence. Never pass a merge key
        for records that must each reach the tag.

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
        operation = self._make_operation(
            OperationKind.WRITE, on_written, on_failed, timeout
        )
        operation.raw = True
        operation.payload = message
        operation.payload_factory = message_factory
        operation.merge_key = merge_key
        self._enqueue(operation)
        return operation

    def make_read_only(
        self,
        on_locked: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an asynchronous permanent lock of the tag."""
        operation = self._make_operation(
            OperationKind.LOCK, on_locked, on_failed, timeout
        )
        self._enqueue(operation)
        return operation

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
        operation = self._make_operation(
            OperationKind.FORMAT, on_formatted, on_failed, timeout
        )
        self._enqueue(operation)
        return operation

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
            for index, queued in enumerate(self._queue):
                if queued is operation:
                    del self._queue[index]
                    # Cancelling the survivor of a coalesced chain only
                    # cancels that one write: the superseded operations
                    # are still pending, so the newest of them takes the
                    # survivor's place in the queue.
                    shadows = operation.superseded
                    if shadows:
                        operation.superseded = []
                        revived = shadows.pop()
                        revived.superseded = shadows
                        self._queue.insert(index, revived)
                    operation.outcome = OperationOutcome.CANCELLED
                    return True
                if operation in queued.superseded:
                    queued.superseded.remove(operation)
                    operation.outcome = OperationOutcome.CANCELLED
                    return True
            return False

    def cancel_all(self) -> int:
        """Cancel every queued operation; returns how many were cancelled.

        Like :meth:`cancel` this is **silent**: no success or failure
        listener fires for the cancelled operations (the caller asked for
        the cancellation, so there is nobody left to inform). To tear the
        reference down *and* flush failure listeners for whatever is
        still pending, use ``stop(notify_pending=True)`` instead.
        """
        with self._lock:
            cancelled = self._drain_queue_locked()
            for operation in cancelled:
                operation.outcome = OperationOutcome.CANCELLED
        return len(cancelled)

    def _drain_queue_locked(self) -> List[Operation]:
        """Empty the queue, returning every logical operation in FIFO
        order (superseded writes precede their surviving write)."""
        drained: List[Operation] = []
        for operation in self._queue:
            drained.extend(operation.superseded)
            operation.superseded = []
            drained.append(operation)
        self._queue.clear()
        return drained

    # -- queue introspection ---------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Logical pending operations, superseded writes included."""
        with self._lock:
            return len(self._queue) + sum(
                len(operation.superseded) for operation in self._queue
            )

    def pending_operations(self) -> List[Operation]:
        """The pending operations in FIFO order (superseded writes
        precede the surviving write that will settle them)."""
        with self._lock:
            out: List[Operation] = []
            for operation in self._queue:
                out.extend(operation.superseded)
                out.append(operation)
            return out

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
            cancelled = self._drain_queue_locked()
        for operation in cancelled:
            operation.outcome = OperationOutcome.CANCELLED
            if notify_pending:
                self._post_listener(operation.on_failure, self)
        self._port.remove_tag_listener(self._tag.simulated, self._on_field_event)
        self._batch.unregister(self)
        # Deregister rather than wake: a wake would spin up reactor
        # threads just to observe the stop flag, and any timer entry
        # for this task is ignored once cancelled.
        self._task.cancel()

    # -- internals -------------------------------------------------------------------------------

    def _make_operation(
        self,
        kind: OperationKind,
        on_success: ListenerLike,
        on_failure: ListenerLike,
        timeout: Optional[float],
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
        )

    def _enqueue(self, operation: Operation) -> None:
        with self._lock:
            if self._stopped:
                raise ReferenceStoppedError(
                    f"tag reference {self.uid_hex} has been stopped"
                )
            if operation.coalescible and self._queue:
                tail = self._queue[-1]
                if (
                    tail.kind is OperationKind.WRITE
                    and tail.coalescible
                    and not tail.in_flight
                ):
                    # Collapse to the newest payload: the tail write is
                    # superseded, and the new write inherits the duty of
                    # settling the whole chain (FIFO) when it lands. A
                    # tail that is not a coalescible write -- a read, a
                    # format, a raw write, an in-flight attempt -- is a
                    # fence and the new write simply queues behind it.
                    self._absorb_tail_locked(operation)
                    self.coalesced_writes += 1
            elif operation.merge_key is not None and self._queue:
                tail = self._queue[-1]
                if (
                    tail.kind is OperationKind.WRITE
                    and tail.raw
                    and tail.merge_key == operation.merge_key
                    and not tail.in_flight
                ):
                    # Protocol merge: same-key raw writes are
                    # replacement records, the newest message wins.
                    # Fences are anything that breaks tail-adjacency --
                    # a keyless raw write (guarded data, release), a
                    # read (foreign-record observation), a lock, a
                    # format, an in-flight attempt.
                    self._absorb_tail_locked(operation)
                    operation.merged = True
                    self.protocol_merges += 1
            self._queue.append(operation)
        if operation.merged:
            # The queue did not grow and the tail was already being
            # awaited; only the deadline may have moved. Adopt it on
            # the reactor's timer heap instead of queueing a step.
            self._task.schedule_at(operation.deadline)
        else:
            self._task.wake()

    def _absorb_tail_locked(self, operation: Operation) -> None:
        """Replace the queue tail with ``operation``, which inherits the
        tail (and its chain) as superseded writes to settle FIFO."""
        tail = self._queue.pop()
        shadows = tail.superseded
        tail.superseded = []
        shadows.append(tail)
        operation.superseded = shadows

    def _step(self) -> Optional[float]:
        """One scheduling quantum of the logical event loop.

        Runs on the reactor, serialized per reference. Radio attempts
        happen on the transaction scheduler's drain; this task only
        expires deadlines and reports readiness, then parks on the
        earliest pending deadline so timeouts fire even while the
        scheduler has nothing to drain (absent tag, backoff). It never
        sleeps: an absent tag's wait occupies no thread and cannot
        starve other references.
        """
        with self._lock:
            if self._stopped:
                return None
            self._expire_locked()
            if not self._queue:
                return None
            runnable = self._tag_present()
            deadline = self._earliest_deadline_locked()
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
        scheduler enforces with them.
        """
        with self._lock:
            if self._stopped or not self._queue:
                return _EMPTY_BATCH_VIEW
            self._expire_locked()
            if not self._queue:
                return _EMPTY_BATCH_VIEW
            head = self._queue[0]
            head_id = head.op_id
            if head.superseded:
                head_id = min(head_id, head.superseded[0].op_id)
            # First fence in queue order carries the smallest fence id:
            # op_ids grow along the queue, and a superseded write is
            # always newer than everything queued ahead of its survivor.
            fence_id: Optional[int] = None
            for operation in self._queue:
                ids = [
                    shadow.op_id
                    for shadow in operation.superseded
                    if shadow.is_batch_fence
                ]
                if operation.is_batch_fence:
                    ids.append(operation.op_id)
                if ids:
                    fence_id = min(ids)
                    break
            ready: Optional[Operation] = None
            wake_at: Optional[float] = None
            if not head.in_flight:
                if self._clock.now() >= self._batch_backoff_until:
                    ready = head
                else:
                    wake_at = self._batch_backoff_until
            depth = len(self._queue) + sum(
                len(operation.superseded) for operation in self._queue
            )
            return BatchView(ready, head_id, fence_id, wake_at, depth)

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
            if (
                self._stopped
                or not self._queue
                or self._queue[0] is not operation
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
                if not self._queue or self._queue[0] is not operation:
                    return "skip"  # cancelled mid-attempt
                self._batch_backoff_until = (
                    self._clock.now() + self._retry_interval
                )
                return "retry"
            before, after = self._harvest_settlements_locked(operation, outcome)
        self._settle_batch(operation, before, after, outcome, error)
        return "settled"

    def _earliest_deadline_locked(self) -> float:
        earliest = min(operation.deadline for operation in self._queue)
        for operation in self._queue:
            for shadow in operation.superseded:
                if shadow.deadline < earliest:
                    earliest = shadow.deadline
        return earliest

    def _harvest_settlements_locked(
        self, head: Operation, outcome: OperationOutcome
    ):
        """Update the queue and counters after ``head`` settled.

        Returns ``(before, after)``: the operations to settle with the
        same outcome before and after ``head``, keeping listener order
        FIFO. ``before`` is the coalesced chain ``head`` superseded;
        ``after`` holds later queued reads settled by this attempt's
        result (read dedup: consecutive pending reads of the same
        rawness share one physical read -- a queued write in between is
        a fence, because the next read must observe that write).
        """
        if self._queue and self._queue[0] is head:
            self._queue.pop(0)
        before = head.superseded
        head.superseded = []
        after: List[Operation] = []
        if outcome is OperationOutcome.SUCCEEDED:
            if head.kind is OperationKind.READ:
                while (
                    self._queue
                    and self._queue[0].kind is OperationKind.READ
                    and self._queue[0].raw == head.raw
                ):
                    after.append(self._queue.pop(0))
                    self.deduped_reads += 1
            self.successes += 1 + len(before) + len(after)
        else:
            self.permanent_failures += 1 + len(before)
        return before, after

    def _settle_batch(
        self,
        head: Operation,
        before: List[Operation],
        after: List[Operation],
        outcome: OperationOutcome,
        error: Optional[BaseException],
    ) -> None:
        for operation in before:
            self._settle(operation, outcome, error)
        self._settle(head, outcome, error)
        for operation in after:
            self._settle(operation, outcome, error)

    def _tag_present(self) -> bool:
        return self._port.environment.tag_in_field(self._tag.simulated, self._port)

    def _expire_locked(self) -> None:
        """Fail every pending operation whose deadline has passed.

        Superseded writes keep their own deadlines: one that expires
        before the surviving write lands times out individually. When a
        surviving write itself expires, the chain it carries is still
        pending -- the newest superseded write takes its place in the
        queue (its own deadline has not passed, or it would have expired
        first above).
        """
        now = self._clock.now()
        index = 0
        while index < len(self._queue):
            operation = self._queue[index]
            if operation.in_flight:
                # A radio attempt is executing right now (the batched
                # drain runs on another thread): hands off -- the
                # attempt's settlement path re-examines the queue.
                index += 1
                continue
            if operation.superseded:
                remaining = []
                for shadow in operation.superseded:
                    if shadow.deadline <= now:
                        self.timeouts += 1
                        self._settle(shadow, OperationOutcome.TIMED_OUT, None)
                    else:
                        remaining.append(shadow)
                operation.superseded = remaining
            if operation.deadline <= now:
                del self._queue[index]
                shadows = operation.superseded
                if shadows:
                    operation.superseded = []
                    revived = shadows.pop()
                    revived.superseded = shadows
                    self._queue.insert(index, revived)
                    index += 1
                self.timeouts += 1
                self._settle(operation, OperationOutcome.TIMED_OUT, None)
            else:
                index += 1

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
                if operation.raw:
                    self._update_message_cache(message)
                else:
                    converted = self._read_converter.convert(message)
                    self._update_cache(converted, message)
            elif operation.kind is OperationKind.WRITE:
                payload = (
                    operation.payload
                    if operation.payload_factory is None
                    else operation.payload_factory()
                )
                session.write_ndef(self._tag.simulated, payload)
                if operation.raw:
                    self._update_message_cache(payload)
                else:
                    self._update_cache(operation.original_object, payload)
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
        except RadioError as exc:
            operation.error = exc
            return OperationOutcome.PENDING, exc

    def _update_cache(self, converted: Any, message: NdefMessage) -> None:
        with self._lock:
            self._cached_object = converted
            self._cached_message = message
            self._has_cache = True

    def _update_message_cache(self, message: NdefMessage) -> None:
        with self._lock:
            self._cached_message = message
            self._has_cache = True

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
        if outcome is OperationOutcome.SUCCEEDED:
            self._post_listener(operation.on_success, self)
        else:
            self._post_listener(operation.on_failure, self)
        # Telemetry tap: inline, after the application listener is
        # posted; listeners are contract-bound to be non-blocking.
        # Read without _lock: _settle runs inside _expire_locked with
        # the non-reentrant lock already held, and a GIL-atomic list
        # copy is all the snapshot needs.
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
