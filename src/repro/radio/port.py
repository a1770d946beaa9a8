"""One device's radio: the port through which all tag and Beam I/O flows.

A port belongs to exactly one :class:`~repro.radio.environment.RfidEnvironment`
and carries that device's link model and field-event listeners. Every
field change reaches it through :meth:`NfcAdapterPort.dispatch_field_events`:
batch listeners (the device's transaction scheduler, which routes a
tag's events to that tag's references) see each change as one list,
then per-event listeners (the NFC adapter, a Beamer) see each event.
The port keeps no per-tag listeners.

Its operations are **blocking and failure-prone by design** -- they
model the raw physical layer the Android tech classes wrap:

* the tag must currently be in the field (otherwise
  :class:`~repro.errors.NotInFieldError`),
* the operation takes time proportional to the bytes moved,
* the link model decides whether the attempt tears
  (:class:`~repro.errors.TagLostError`), and a torn *write* may leave a
  half-written, unreadable TLV on the tag when ``corrupt_on_tear`` is on.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, TYPE_CHECKING

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


def _read_message(tag: SimulatedTag) -> NdefMessage:
    try:
        return tag.read_ndef()
    except NdefError as exc:
        raise TagFormatError(
            f"tag {tag.uid_hex} holds undecodable NDEF data: {exc}"
        ) from exc


def _process_apdu(tag, data: bytes) -> bytes:
    process = getattr(tag, "process_apdu", None)
    if process is None:
        raise TagFormatError(f"tag {tag.uid_hex} does not speak ISO-DEP")
    return process(data)


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
        self._beam_handler: Optional[BeamHandler] = None
        self._snep_server: Optional[SnepServer] = None
        self._snep_get_provider: Optional[Callable[[str, bytes], Optional[bytes]]] = None
        self._lock = threading.RLock()
        # One radio, one transaction at a time: a real NFC controller
        # cannot overlap tag exchanges or SNEP fragments, so callers serialize
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

    def dispatch_field_event(self, event: FieldEvent) -> None:
        # Kept for perfbench/traced.py, which wraps it by name; nothing in
        # the package calls it, so a traced run counts each dispatch once.
        self.dispatch_field_events([event])

    def dispatch_field_events(self, events: List[FieldEvent]) -> None:
        """Deliver one field change's events, in the caller's order.

        Each batch listener receives the whole list, then each per-event
        listener receives every event in turn. One listener snapshot
        serves the whole list: with hundreds of tags crossing a field
        boundary in one churn step, a lock round-trip per event would be
        the dominant dispatch cost. Called by the environment outside its
        own lock; listener bodies are trivial (they post to loopers or
        wake reactor tasks).
        """
        if not events:
            return
        with self._lock:
            batch_targets = list(self._batch_listeners)
            targets = list(self._listeners)
        for listener in batch_targets:
            listener(events)
        for event in events:
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
        return self._transfer(
            tag, "read", tag.tag_type.user_bytes, lambda: _read_message(tag)
        )

    def write_ndef(self, tag: SimulatedTag, message: NdefMessage) -> None:
        """Blocking write of ``message`` onto the tag.

        Raises ``NotInFieldError`` / ``TagLostError`` plus the tag-layer
        errors (capacity, read-only, unformatted). When ``corrupt_on_tear``
        is set, a tear mid-write leaves a truncated TLV behind.
        """
        with self._lock:
            self.write_attempts += 1
            self.connects += 1
        self._transfer(
            tag, "write", message.byte_length, lambda: tag.write_ndef(message),
            written=message,
        )

    def format_tag(self, tag: SimulatedTag) -> None:
        """Blocking NDEF format of an unformatted tag."""
        with self._lock:
            self.format_attempts += 1
            self.connects += 1
        self._transfer(tag, "format", 16, tag.format)

    def make_read_only(self, tag: SimulatedTag) -> None:
        """Blocking lock of the tag."""
        with self._lock:
            self.lock_attempts += 1
            self.connects += 1
        self._transfer(tag, "lock", 8, tag.make_read_only)

    def transceive(self, tag, data: bytes) -> bytes:
        """Blocking ISO-DEP exchange: one command APDU in, response out.

        Only meaningful for tags that speak ISO-DEP (Type 4 / emulated
        cards). Raises ``NotInFieldError`` / ``TagLostError`` like any
        other tag operation; protocol errors come back as status words,
        not exceptions -- exactly like ``IsoDep.transceive`` on Android.
        """
        with self._lock:
            self.connects += 1
        return self._transfer(
            tag, "transceive", len(data) + 32, lambda: _process_apdu(tag, data)
        )

    # -- batched sessions ------------------------------------------------------------

    def open_session(self, tag: SimulatedTag) -> "TagSession":
        """Connect to ``tag`` once for a whole batched window.

        Pays the connect/anticollision share of the latency model a
        single time; every operation issued through the returned
        :class:`TagSession` then costs only the per-operation share
        (``TransferTiming.batched_operation_seconds``). A relayed tag
        pays the transport's hop at connect and again on each operation,
        so only on a local tag does a batch of one cost what the
        standalone operation does. The link model is
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

    def _transfer(
        self,
        tag: SimulatedTag,
        what: str,
        byte_count: int,
        effect: Callable[[], Any],
        batched: bool = False,
        written: Optional[NdefMessage] = None,
    ) -> Any:
        """One data transfer with ``tag``: the body of every tag operation.

        The tag must be in the field; the radio is held for the transfer
        time (the standalone or the in-session share of the latency
        model). The transfer then tears if the tag has gone, else if the
        link model says so, else if the environment vetoes the attempt --
        in that order, so the link sees one decision per transfer that
        reached it, on either path. A torn write of ``written`` leaves
        whatever the tag technology leaves when ``corrupt_on_tear`` is
        set. Only an untorn transfer runs ``effect``.
        """
        self._require_in_field(tag)
        with self._radio_lock:
            self._simulate_latency(byte_count, batched=batched, tag=tag)
            if not self._env.tag_in_field(tag, self):
                reason = f"tag {tag.uid_hex} left the field of {self.name}"
            elif not (
                self._link.attempt_succeeds(byte_count)
                and self._env.attempt_allowed(self, tag)
            ):
                reason = f"link to tag {tag.uid_hex} tore on {self.name}"
            else:
                return effect()
            if written is not None and self.corrupt_on_tear:
                self._tear_write(tag, written)
            raise TagLostError(f"{reason} during {what}")

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

        Each fragment is a separate radio transfer: it holds the radio for
        its latency and link decision, as a tag transfer does, and the
        link may tear on any of them (``TagLostError``). The peer's SNEP
        server runs after the radio is released, so its handlers never
        run under this port's radio lock.
        """
        if not self._env.in_beam_range(self, peer):
            raise TagLostError(
                f"{peer.name} drifted out of Beam range of {self.name}"
            )
        with self._radio_lock:
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
        return self._run(
            "read", tag.tag_type.user_bytes, lambda: _read_message(tag)
        )

    def write_ndef(self, tag: SimulatedTag, message: NdefMessage) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.write_attempts += 1
        self._run(
            "write", message.byte_length, lambda: tag.write_ndef(message),
            written=message,
        )

    def format_tag(self, tag: SimulatedTag) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.format_attempts += 1
        self._run("format", 16, tag.format)

    def make_read_only(self, tag: SimulatedTag) -> None:
        self._guard(tag)
        with self._port._lock:
            self._port.lock_attempts += 1
        self._run("lock", 8, tag.make_read_only)

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

    def _run(
        self,
        what: str,
        byte_count: int,
        effect: Callable[[], Any],
        written: Optional[NdefMessage] = None,
    ) -> Any:
        try:
            result = self._port._transfer(
                self._tag, what, byte_count, effect, batched=True, written=written
            )
        except (TagLostError, NotInFieldError):
            self.alive = False  # the physical link broke mid-window
            raise
        self.operations += 1
        return result
