"""One device's radio: the port through which all tag and Beam I/O flows.

A port belongs to exactly one :class:`~repro.radio.environment.RfidEnvironment`
and carries that device's link model and field-event listeners. Its
operations are **blocking and failure-prone by design** -- they model the
raw physical layer the Android tech classes wrap:

* the tag must currently be in the field (otherwise
  :class:`~repro.errors.NotInFieldError`),
* the operation takes time proportional to the bytes moved,
* the link model decides whether the attempt tears
  (:class:`~repro.errors.TagLostError`), and a torn *write* may leave a
  half-written, unreadable TLV on the tag when ``corrupt_on_tear`` is on.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.clock import Clock
from repro.errors import (
    BeamError,
    MorenaError,
    NdefError,
    NotInFieldError,
    TagFormatError,
    TagLostError,
)
from repro.ndef.message import NdefMessage
from repro.radio.events import FieldEvent
from repro.radio.link import LinkModel
from repro.radio.snep import SnepClient, SnepProtocolError, SnepServer
from repro.radio.timing import TransferTiming
from repro.tags.tag import SimulatedTag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.environment import RfidEnvironment

BeamHandler = Callable[[str, NdefMessage], None]


class NfcAdapterPort:
    """Device-side NFC radio. Created via ``RfidEnvironment.create_port``."""

    def __init__(
        self,
        name: str,
        environment: "RfidEnvironment",
        link: LinkModel,
        clock: Clock,
        timing: TransferTiming,
        corrupt_on_tear: bool = False,
    ) -> None:
        self.name = name
        self._env = environment
        self._link = link
        self._clock = clock
        self._timing = timing
        self.corrupt_on_tear = corrupt_on_tear
        self._listeners: List[Callable[[FieldEvent], None]] = []
        # Listeners taking each dispatch's events as one list, ahead of
        # the per-event ones (see add_field_batch_listener).
        self._batch_listeners: List[Callable[[List[FieldEvent]], None]] = []
        # Listeners interested in exactly one tag, keyed by tag identity;
        # tag references register here so a field event touches only the
        # listeners of the tag it concerns (O(1) fan-out, not O(refs)).
        self._tag_listeners: Dict[SimulatedTag, List[Callable[[FieldEvent], None]]] = {}
        self._beam_handler: Optional[BeamHandler] = None
        self._snep_server: Optional[SnepServer] = None
        self._snep_get_provider: Optional[Callable[[str, bytes], Optional[bytes]]] = None
        self._lock = threading.RLock()
        # One radio, one transaction at a time: a real NFC controller
        # cannot overlap tag exchanges, so concurrent callers serialize
        # here for the duration of each transfer (held across the
        # latency sleep -- that *is* the radio being busy).
        self._radio_lock = threading.Lock()
        # Counters for benchmarks.
        self.read_attempts = 0
        self.write_attempts = 0
        self.beam_attempts = 0
        self.format_attempts = 0
        self.lock_attempts = 0
        # Physical connect/anticollision rounds: one per standalone tag
        # operation, one per batched session (the quantity the per-port
        # transaction scheduler amortizes).
        self.connects = 0
        # Field events delivered to listeners (single + bulk dispatch);
        # crowd benches watch this to size churn fan-out.
        self.field_events_dispatched = 0

    def __repr__(self) -> str:
        return f"NfcAdapterPort({self.name!r}, link={self._link!r})"

    @property
    def environment(self) -> "RfidEnvironment":
        return self._env

    @property
    def link(self) -> LinkModel:
        return self._link

    def set_link(self, link: LinkModel) -> None:
        """Swap the link model (used by benches to degrade a running link)."""
        with self._lock:
            self._link = link

    # -- field event listeners ----------------------------------------------------

    def add_field_listener(self, listener: Callable[[FieldEvent], None]) -> None:
        with self._lock:
            self._listeners.append(listener)

    def remove_field_listener(self, listener: Callable[[FieldEvent], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def add_field_batch_listener(
        self, listener: Callable[[List[FieldEvent]], None]
    ) -> None:
        """Observe field events one dispatch at a time, as a list.

        Batch listeners run before the per-event listeners of the same
        dispatch, so a bulk field entry reaches them as one cohort: the
        transaction scheduler marks every entering tag ready before it
        wakes its drain.
        """
        with self._lock:
            self._batch_listeners.append(listener)

    def remove_field_batch_listener(
        self, listener: Callable[[List[FieldEvent]], None]
    ) -> None:
        with self._lock:
            if listener in self._batch_listeners:
                self._batch_listeners.remove(listener)

    def snapshot_listeners(self) -> List[Callable[[FieldEvent], None]]:
        with self._lock:
            return list(self._listeners)

    def add_tag_listener(
        self, tag: SimulatedTag, listener: Callable[[FieldEvent], None]
    ) -> None:
        """Observe field events concerning ``tag`` only (O(1) routing)."""
        with self._lock:
            self._tag_listeners.setdefault(tag, []).append(listener)

    def remove_tag_listener(
        self, tag: SimulatedTag, listener: Callable[[FieldEvent], None]
    ) -> None:
        with self._lock:
            listeners = self._tag_listeners.get(tag)
            if listeners is None:
                return
            if listener in listeners:
                listeners.remove(listener)
            if not listeners:
                del self._tag_listeners[tag]

    def dispatch_field_event(self, event: FieldEvent) -> None:
        """Deliver ``event`` to the generic listeners plus -- for tag
        events -- the listeners registered for that specific tag.

        Called by the environment outside its own lock; listener bodies
        are trivial (they post to loopers or wake reactor tasks)."""
        with self._lock:
            self.field_events_dispatched += 1
            batch_targets = list(self._batch_listeners)
            targets = list(self._listeners)
            tag = getattr(event, "tag", None)
            if tag is not None and tag in self._tag_listeners:
                targets.extend(self._tag_listeners[tag])
        for listener in batch_targets:
            listener([event])
        for listener in targets:
            listener(event)

    def dispatch_field_events(self, events: List[FieldEvent]) -> None:
        """Deliver a batch of field events (crowd-scale churn).

        One listener snapshot serves the whole batch instead of one lock
        round-trip per event -- with hundreds of tags crossing a field
        boundary in one churn step, the per-event snapshot is the
        dominant dispatch cost. Per-tag listener routing is preserved
        per event; delivery order within the batch is the caller's order.
        """
        if not events:
            return
        with self._lock:
            self.field_events_dispatched += len(events)
            batch_targets = list(self._batch_listeners)
            generic = list(self._listeners)
            routed = []
            for event in events:
                targets = list(generic)
                tag = getattr(event, "tag", None)
                if tag is not None and tag in self._tag_listeners:
                    targets.extend(self._tag_listeners[tag])
                routed.append((event, targets))
        for listener in batch_targets:
            listener(events)
        for event, targets in routed:
            for listener in targets:
                listener(event)

    # -- tag operations -------------------------------------------------------------

    def read_ndef(self, tag: SimulatedTag) -> NdefMessage:
        """Blocking read of the tag's NDEF message.

        Raises ``NotInFieldError`` / ``TagLostError`` / ``TagFormatError``.
        """
        with self._lock:
            self.read_attempts += 1
            self.connects += 1
        return self._read_ndef_impl(tag, batched=False)

    def write_ndef(self, tag: SimulatedTag, message: NdefMessage) -> None:
        """Blocking write of ``message`` onto the tag.

        Raises ``NotInFieldError`` / ``TagLostError`` plus the tag-layer
        errors (capacity, read-only, unformatted). When ``corrupt_on_tear``
        is set, a tear mid-write leaves a truncated TLV behind.
        """
        with self._lock:
            self.write_attempts += 1
            self.connects += 1
        self._write_ndef_impl(tag, message, batched=False)

    def format_tag(self, tag: SimulatedTag) -> None:
        """Blocking NDEF format of an unformatted tag."""
        with self._lock:
            self.format_attempts += 1
            self.connects += 1
        self._format_impl(tag, batched=False)

    def make_read_only(self, tag: SimulatedTag) -> None:
        """Blocking lock of the tag."""
        with self._lock:
            self.lock_attempts += 1
            self.connects += 1
        self._lock_impl(tag, batched=False)

    def transceive(self, tag, data: bytes) -> bytes:
        """Blocking ISO-DEP exchange: one command APDU in, response out.

        Only meaningful for tags that speak ISO-DEP (Type 4 / emulated
        cards). Raises ``NotInFieldError`` / ``TagLostError`` like any
        other tag operation; protocol errors come back as status words,
        not exceptions -- exactly like ``IsoDep.transceive`` on Android.
        """
        with self._lock:
            self.connects += 1
        self._require_in_field(tag)
        with self._radio_lock:
            self._simulate_latency(len(data) + 32, tag=tag)
            self._require_in_field(tag, torn=True)
            if not self._link.attempt_succeeds(
                len(data) + 32
            ) or not self._env.attempt_allowed(self, tag):
                raise TagLostError(
                    f"link to tag {tag.uid_hex} tore during transceive on {self.name}"
                )
            process = getattr(tag, "process_apdu", None)
            if process is None:
                raise TagFormatError(f"tag {tag.uid_hex} does not speak ISO-DEP")
            return process(data)

    # -- batched sessions ------------------------------------------------------------

    def open_session(self, tag: SimulatedTag) -> "TagSession":
        """Connect to ``tag`` once for a whole batched window.

        Pays the connect/anticollision share of the latency model a
        single time; every operation issued through the returned
        :class:`TagSession` then costs only the per-operation share
        (``TransferTiming.batched_operation_seconds``). The link model is
        *not* consulted here -- it judges data transfers, one attempt
        per operation in both the standalone and the batched path, so
        seeded/scripted links observe identical attempt sequences.
        The tag leaving the field mid-anticollision raises
        ``TagLostError``; an absent tag raises ``NotInFieldError``.
        """
        with self._lock:
            self.connects += 1
        self._require_in_field(tag)
        with self._radio_lock:
            seconds = self._timing.connect_seconds
            seconds += self._env.transfer_overhead_seconds(self, tag)
            if seconds > 0:
                self._clock.sleep(seconds)
        self._require_in_field(tag, torn=True)
        return TagSession(self, tag)

    def _read_ndef_impl(self, tag: SimulatedTag, batched: bool) -> NdefMessage:
        self._require_in_field(tag)
        with self._radio_lock:
            self._simulate_latency(
                tag.tag_type.user_bytes, batched=batched, tag=tag
            )
            self._require_in_field(tag, torn=True)
            if not self._link.attempt_succeeds(
                tag.tag_type.user_bytes
            ) or not self._env.attempt_allowed(self, tag):
                raise TagLostError(
                    f"link to tag {tag.uid_hex} tore during read on {self.name}"
                )
            try:
                return tag.read_ndef()
            except NdefError as exc:
                raise TagFormatError(
                    f"tag {tag.uid_hex} holds undecodable NDEF data: {exc}"
                ) from exc

    def _write_ndef_impl(
        self, tag: SimulatedTag, message: NdefMessage, batched: bool
    ) -> None:
        self._require_in_field(tag)
        encoded_size = message.byte_length
        with self._radio_lock:
            self._simulate_latency(encoded_size, batched=batched, tag=tag)
            torn = (
                not self._env.tag_in_field(tag, self)
                or not self._link.attempt_succeeds(encoded_size)
                or not self._env.attempt_allowed(self, tag)
            )
            if torn:
                if self.corrupt_on_tear:
                    self._tear_write(tag, message)
                raise TagLostError(
                    f"link to tag {tag.uid_hex} tore during write on {self.name}"
                )
            tag.write_ndef(message)

    def _format_impl(self, tag: SimulatedTag, batched: bool) -> None:
        self._require_in_field(tag)
        with self._radio_lock:
            self._simulate_latency(16, batched=batched, tag=tag)
            self._require_in_field(tag, torn=True)
            if not self._link.attempt_succeeds(16) or not self._env.attempt_allowed(
                self, tag
            ):
                raise TagLostError(
                    f"link to tag {tag.uid_hex} tore during format on {self.name}"
                )
            tag.format()

    def _lock_impl(self, tag: SimulatedTag, batched: bool) -> None:
        self._require_in_field(tag)
        with self._radio_lock:
            self._simulate_latency(8, batched=batched, tag=tag)
            self._require_in_field(tag, torn=True)
            if not self._link.attempt_succeeds(8) or not self._env.attempt_allowed(
                self, tag
            ):
                raise TagLostError(
                    f"link to tag {tag.uid_hex} tore during lock on {self.name}"
                )
            tag.make_read_only()

    # -- Beam ----------------------------------------------------------------------

    def set_beam_handler(self, handler: Optional[BeamHandler]) -> None:
        """Install the callback invoked when a peer beams a message here.

        Internally the handler becomes the PUT callback of this port's
        SNEP server -- incoming pushes arrive as SNEP frames, are
        reassembled, decoded to an NDEF message and handed over.
        """
        with self._lock:
            self._beam_handler = handler
            self._rebuild_snep_server()

    def set_snep_get_provider(
        self, provider: Optional[Callable[[str, bytes], Optional[bytes]]]
    ) -> None:
        """Install a SNEP GET provider (used for negotiated handover).

        ``provider(sender, request_bytes)`` returns response bytes or
        ``None`` for NOT FOUND. It runs on the *requesting* port's thread.
        """
        with self._lock:
            self._snep_get_provider = provider
            self._rebuild_snep_server()

    def _rebuild_snep_server(self) -> None:
        handler = self._beam_handler
        provider = self._snep_get_provider
        if handler is None and provider is None:
            self._snep_server = None
            return

        def on_put(sender: str, ndef_bytes: bytes) -> None:
            if handler is None:
                return
            try:
                message = NdefMessage.from_bytes(ndef_bytes)
            except NdefError:
                return  # hostile payload: dropped, as a phone would
            handler(sender, message)

        self._snep_server = SnepServer(on_put, get_provider=provider)

    @property
    def snep_server(self) -> Optional[SnepServer]:
        return self._snep_server

    def snep_exchange(self, peer: "NfcAdapterPort", raw: bytes) -> bytes:
        """One SNEP round trip to a peer: request frame out, response in.

        Each fragment is a separate radio transfer: latency per fragment,
        and the link may tear on any of them (``TagLostError``).
        """
        if not self._env.in_beam_range(self, peer):
            raise TagLostError(
                f"{peer.name} drifted out of Beam range of {self.name}"
            )
        self._simulate_latency(len(raw))
        if not self._link.attempt_succeeds(len(raw)):
            raise TagLostError(f"Beam link tore on {self.name}")
        server = peer._snep_server
        if server is None:
            raise BeamError(f"{peer.name} runs no SNEP server")
        return server.process(self.name, raw)

    def beam(self, message: NdefMessage, miu: int = 128) -> List[str]:
        """Push ``message`` to every peer currently in Beam range.

        Undirected, like Android Beam: one SNEP PUT per peer, fragmented
        at ``miu`` bytes. Returns the names of the peers that accepted the
        message. Raises :class:`BeamError` when no peer is in range or
        none accepted, :class:`TagLostError` when the link tears
        mid-transfer.
        """
        with self._lock:
            self.beam_attempts += 1
        peers = self._env.peers_of(self)
        if not peers:
            raise BeamError(f"no peer in Beam range of {self.name}")
        delivered: List[str] = []
        for peer in peers:
            if not self._env.in_beam_range(self, peer):
                continue  # drifted apart during the transfer
            if peer._snep_server is None:
                continue  # peer has no foreground activity accepting beams
            client = SnepClient(
                lambda raw, p=peer: self.snep_exchange(p, raw), miu=miu
            )
            try:
                client.put(message.to_bytes())
            except SnepProtocolError:
                continue  # peer rejected the PUT
            delivered.append(peer.name)
        if not delivered:
            raise BeamError(
                f"no peer of {self.name} accepted the beamed message"
            )
        return delivered

    # -- internals -------------------------------------------------------------------

    def _require_in_field(self, tag: SimulatedTag, torn: bool = False) -> None:
        if not self._env.tag_in_field(tag, self):
            if torn:
                raise TagLostError(
                    f"tag {tag.uid_hex} left the field of {self.name} mid-operation"
                )
            raise NotInFieldError(
                f"tag {tag.uid_hex} is not in the field of {self.name}"
            )

    def _simulate_latency(
        self,
        byte_count: int,
        batched: bool = False,
        tag: Optional[SimulatedTag] = None,
    ) -> None:
        seconds = (
            self._timing.batched_operation_seconds(byte_count)
            if batched
            else self._timing.operation_seconds(byte_count)
        )
        if tag is not None:
            # Transport surcharge: a relayed tag pays the network hop on
            # every radio round trip, on top of the transfer model.
            seconds += self._env.transfer_overhead_seconds(self, tag)
        if seconds > 0:
            self._clock.sleep(seconds)

    @staticmethod
    def _tear_write(tag: SimulatedTag, message: NdefMessage) -> None:
        """Leave behind whatever a torn write leaves on this tag technology.

        Type 2 tags end up with a truncated (unreadable) TLV; Type 4 tags'
        safe-update sequence leaves a valid empty tag. Each technology
        implements its own ``_tear_write_hook``.
        """
        try:
            tag._tear_write_hook(message)  # noqa: SLF001 - deliberate hook
        except Exception:  # noqa: BLE001 - best-effort corruption
            pass


class TagSession:
    """One connected window to a single tag (see ``open_session``).

    Offers the same blocking tag operations as the port, but each one
    costs only the per-operation share of the latency model -- the
    connect/anticollision cost was paid once when the session opened.
    Attempt counters and the link model behave exactly as in the
    standalone path (one link decision per data transfer), so tears,
    seeded loss sequences and the environment's attempt hooks are
    indistinguishable between the two paths.

    A torn transfer (``TagLostError`` / ``NotInFieldError``) kills the
    session: the physical link broke, so the next operation needs a
    fresh connect via a new session. Tag-layer errors (capacity,
    read-only, undecodable data) leave the session alive -- the radio
    link is fine, the tag just refused. Closing a session is free
    (deselection costs no radio time). Sessions are not thread-safe:
    one drain loop owns a session at a time.
    """

    __slots__ = ("_port", "_tag", "alive", "operations")

    def __init__(self, port: NfcAdapterPort, tag: SimulatedTag) -> None:
        self._port = port
        self._tag = tag
        self.alive = True
        self.operations = 0  # transfers completed inside this session

    @property
    def tag(self) -> SimulatedTag:
        return self._tag

    def close(self) -> None:
        self.alive = False

    def __repr__(self) -> str:
        return (
            f"TagSession({self._tag.uid_hex} on {self._port.name}, "
            f"alive={self.alive}, operations={self.operations})"
        )

    # -- session operations ----------------------------------------------------

    def read_ndef(self, tag: SimulatedTag) -> NdefMessage:
        self._guard(tag)
        with self._port._lock:
            self._port.read_attempts += 1
        return self._run(lambda: self._port._read_ndef_impl(tag, batched=True))

    def write_ndef(self, tag: SimulatedTag, message: NdefMessage) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.write_attempts += 1
        return self._run(
            lambda: self._port._write_ndef_impl(tag, message, batched=True)
        )

    def format_tag(self, tag: SimulatedTag) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.format_attempts += 1
        return self._run(lambda: self._port._format_impl(tag, batched=True))

    def make_read_only(self, tag: SimulatedTag) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.lock_attempts += 1
        return self._run(lambda: self._port._lock_impl(tag, batched=True))

    # -- internals ---------------------------------------------------------------

    def _guard(self, tag: SimulatedTag) -> None:
        if tag is not self._tag:
            raise MorenaError(
                f"session to tag {self._tag.uid_hex} cannot address "
                f"tag {tag.uid_hex}"
            )
        if not self.alive:
            raise TagLostError(
                f"session to tag {self._tag.uid_hex} on {self._port.name} "
                "is closed"
            )

    def _run(self, thunk):
        try:
            result = thunk()
        except (TagLostError, NotInFieldError):
            self.alive = False  # the physical link broke mid-window
            raise
        self.operations += 1
        return result
