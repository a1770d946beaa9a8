"""Asynchronous Beam: phone-to-phone NDEF pushes, MORENA style.

Paper section 3.3. Beaming is *undirected* -- there is no reference to
push through; instead a :class:`Beamer` object encapsulates the write
converter and queues beam operations with the same decoupled-in-time
semantics as tag writes: a beam scheduled while no peer phone is near is
silently retried until a peer appears or the timeout passes. A Beamer is
a task on the device's reactor, as a tag reference is, and owns no
thread. :class:`BeamReceivedListener` converts a received NDEF message
with its read converter and applies an optional ``check_condition``
predicate before invoking ``on_beam_received``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.listeners import ListenerLike, as_callback
from repro.core.nfc_activity import NFCActivity
from repro.core.operations import (
    Operation,
    OperationKind,
    OperationOutcome,
    OperationQueue,
)
from repro.core.converters import (
    NdefMessageToObjectConverter,
    ObjectToNdefMessageConverter,
)
from repro.errors import (
    BeamError,
    ConverterError,
    LooperError,
    MorenaError,
    RadioError,
    ReferenceStoppedError,
)
from repro.ndef.message import NdefMessage
from repro.ndef.mime import normalize_mime_type
from repro.radio.events import FieldEvent, PeerEntered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.android.looper import Looper

DEFAULT_BEAM_TIMEOUT_SECONDS = 5.0
_RETRY_INTERVAL_SECONDS = 0.02


class Beamer:
    """Queues and retries undirected beam pushes for one activity."""

    def __init__(
        self,
        activity: NFCActivity,
        write_converter: ObjectToNdefMessageConverter,
    ) -> None:
        if not isinstance(activity, NFCActivity):
            raise TypeError("Beamer requires an NFCActivity")
        self._activity = activity
        self._adapter = activity.device.nfc_adapter
        self._port = self._adapter.port
        self._looper = activity.device.main_looper
        self._clock = activity.device.environment.clock
        self._write_converter = write_converter

        # A plain lock: nothing waits on a Beamer, it parks on the reactor.
        self._lock = threading.Lock()
        # Beams never coalesce or merge: the queue is FIFO with deadlines.
        self._queue = OperationQueue()
        self._stopped = False
        # Step-only: no push before this time, so a wake during the pause
        # after a failed push does not cut it short.
        self._retry_at = 0.0

        self.attempts = 0
        self.successes = 0
        self.timeouts = 0

        self._task = activity.device.reactor.register(
            self._step, name=f"beamer-{activity.device.name}"
        )
        self._port.add_field_listener(self._on_field_event)
        activity._register_beamer(self)  # noqa: SLF001 - by-design handshake

    # -- the asynchronous interface -------------------------------------------------

    def beam(
        self,
        obj: Any,
        on_success: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Schedule an undirected asynchronous push of ``obj``.

        ``obj`` is converted immediately with the write converter. The
        push is attempted whenever a peer phone is in Beam range; on
        delivery ``on_success()`` runs on the main thread, on timeout
        ``on_failed()`` does.
        """
        effective = DEFAULT_BEAM_TIMEOUT_SECONDS if timeout is None else timeout
        if effective <= 0:
            raise MorenaError("beam timeout must be positive")
        now = self._clock.now()
        operation = Operation(
            kind=OperationKind.WRITE,
            deadline=now + effective,
            enqueued_at=now,
            on_success=as_callback(on_success),
            on_failure=as_callback(on_failed),
            original_object=obj,
        )
        try:
            operation.payload = self._convert_payload(obj)
        except ConverterError as exc:
            operation.outcome = OperationOutcome.FAILED
            operation.error = exc
            self._post_listener(operation.on_failure)
            return operation
        with self._lock:
            if self._stopped:
                raise ReferenceStoppedError("this Beamer has been stopped")
            self._queue.push(operation)
        self._task.wake()
        return operation

    def _convert_payload(self, obj: Any) -> NdefMessage:
        """Turn ``obj`` into the NDEF message to push.

        Runs once per :meth:`beam` call, on the caller's thread (the
        retry loop re-pushes the same message). Subclasses may cache --
        see :class:`repro.things.beamer.ThingBeamer`.
        """
        return self._write_converter.convert(obj)

    @property
    def looper(self) -> "Looper":
        """The main looper all of this Beamer's listeners post to."""
        return self._looper

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- lifecycle --------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the logical loop; pending beams become ``CANCELLED``."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            cancelled = self._queue.drain()
        for operation in cancelled:
            operation.outcome = OperationOutcome.CANCELLED
        self._port.remove_field_listener(self._on_field_event)
        self._task.cancel()

    # -- internals ----------------------------------------------------------------------

    def _on_field_event(self, event: FieldEvent) -> None:
        if isinstance(event, PeerEntered):
            self._task.wake()

    def _step(self) -> Optional[float]:
        """One quantum of the logical loop: expire due beams, push the head
        if a peer is in range and no retry pause is running, and return
        when to run next -- the retry after a failed push, else the
        earliest deadline. It never waits."""
        with self._lock:
            if self._stopped:
                return None
            now = self._clock.now()
            for expired in self._queue.expire(now):
                self.timeouts += 1
                expired.outcome = OperationOutcome.TIMED_OUT
                self._post_listener(expired.on_failure)
            head = self._queue.head
            if head is None:
                return None
            if now < self._retry_at:
                return min(self._retry_at, self._queue.deadline_bound)
            if not self._port.environment.peers_of(self._port):
                return self._queue.deadline_bound
        head.attempts += 1
        self.attempts += 1
        try:
            self._adapter.push_now(head.payload)
        except (BeamError, RadioError) as exc:
            head.error = exc
            self._retry_at = self._clock.now() + _RETRY_INTERVAL_SECONDS
            return self._retry_at
        with self._lock:
            if self._stopped:
                return None
            self._queue.settle(head, True)
            self.successes += 1
        head.outcome = OperationOutcome.SUCCEEDED
        self._post_listener(head.on_success)
        return self._clock.now()  # the next beam goes at once

    def _post_listener(self, callback: Callable[[], None]) -> None:
        """Post a listener to the main looper; drop it only if that quit."""
        try:
            self._looper.post(callback)
        except LooperError:  # looper quit during shutdown
            pass


class BeamReceivedListener:
    """Receives beamed objects of one MIME type, converted and filtered."""

    def __init__(
        self,
        activity: NFCActivity,
        mime_type: str,
        read_converter: NdefMessageToObjectConverter,
    ) -> None:
        if not isinstance(activity, NFCActivity):
            raise TypeError("BeamReceivedListener requires an NFCActivity")
        self._activity = activity
        self.mime_type = normalize_mime_type(mime_type)
        self.read_converter = read_converter
        activity._register_beam_listener(self)  # noqa: SLF001

    @property
    def activity(self) -> NFCActivity:
        return self._activity

    # -- overridable callbacks (run on the main thread) ------------------------------

    def on_beam_received(self, obj: Any) -> None:
        """A beamed object of our MIME type arrived."""

    def on_beam_received_from(self, obj: Any, sender: str) -> None:
        """Like :meth:`on_beam_received`, with the sender's device name.

        Extension over the paper (useful in multi-phone simulations);
        the default implementation ignores the sender.
        """
        self.on_beam_received(obj)

    def check_condition(self, obj: Any) -> bool:
        """Fine-grained filter on the received object (section 3.4)."""
        return True

    # -- intent plumbing -----------------------------------------------------------------

    def _handle_beam(self, mime_type: str, message: NdefMessage, sender: str) -> None:
        if mime_type != self.mime_type:
            return
        try:
            obj = self.read_converter.convert(message)
        except ConverterError:
            return
        if not self.check_condition(obj):
            return
        self.on_beam_received_from(obj, sender)
