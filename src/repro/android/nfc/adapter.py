"""``NfcAdapter``: foreground dispatch and Beam push.

The adapter glues the radio port to the activity world:

* **Tag dispatch.** When a tag enters the field, the adapter inventories
  it and builds the highest-priority intent whose filter the foreground
  activity declared: ``NDEF_DISCOVERED`` (with the MIME type of the first
  record) beats ``TECH_DISCOVERED`` (unformatted or empty tags) beats
  ``TAG_DISCOVERED``. The intent is posted to the device's main looper --
  every physical tap yields a fresh intent, exactly like Android.

  Simplification vs. hardware: the *inventory* read (the platform's own
  NDEF detection during anti-collision) bypasses the lossy link model;
  only application-initiated I/O through the tech classes contends with
  tears. This keeps discovery deterministic while preserving the paper's
  failure model for reads and writes, and is documented in DESIGN.md.

* **Beam.** ``set_ndef_push_message`` installs a static message or a
  callback that is pushed automatically when a peer phone comes into
  range (Android behaviour); ``push_now`` performs an explicit,
  synchronous push (what MORENA's ``Beamer`` builds on). Received beams
  are dispatched as ``NDEF_DISCOVERED`` intents carrying the sender name.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, TYPE_CHECKING, Union

from repro.android.intents import (
    ACTION_NDEF_DISCOVERED,
    ACTION_TAG_DISCOVERED,
    ACTION_TECH_DISCOVERED,
    EXTRA_BEAM_SENDER,
    EXTRA_NDEF_MESSAGES,
    EXTRA_TAG,
    Intent,
)
from repro.android.nfc.tech import Tag
from repro.ndef.message import NdefMessage
from repro.ndef.mime import message_mime_type
from repro.radio.events import FieldEvent, PeerEntered, PeerLeft, TagEntered
from repro.radio.port import NfcAdapterPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.android.device import AndroidDevice

PushSource = Union[NdefMessage, Callable[[], NdefMessage]]


class NfcAdapter:
    """One device's NFC adapter. Created by :class:`AndroidDevice`."""

    def __init__(self, device: "AndroidDevice", port: NfcAdapterPort) -> None:
        self._device = device
        self._port = port
        self._lock = threading.Lock()
        self._push_source: Optional[PushSource] = None
        self._emulated_card = None
        self._enabled = True
        port.add_field_listener(self._on_field_event)
        port.set_beam_handler(self._on_beam_received)

    @property
    def port(self) -> NfcAdapterPort:
        return self._port

    @property
    def is_enabled(self) -> bool:
        with self._lock:
            return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Model the user toggling NFC in system settings."""
        with self._lock:
            self._enabled = enabled

    def close(self) -> None:
        """Detach from the port: no field listener, no SNEP server.

        Part of device shutdown, before the main looper quits: nothing
        the port does afterwards may post to that looper.
        """
        self._port.remove_field_listener(self._on_field_event)
        self._port.set_beam_handler(None)
        self._port.set_snep_get_provider(None)

    # -- tag dispatch ------------------------------------------------------------

    def _on_field_event(self, event: FieldEvent) -> None:
        if isinstance(event, TagEntered):
            if self.is_enabled:
                self._device.main_looper.post(
                    lambda: self._dispatch_tag(event.tag)
                )
        elif isinstance(event, PeerEntered):
            if self.is_enabled:
                self._device.main_looper.post(self._auto_push)
                self._present_card_to(event.peer_name)
        elif isinstance(event, PeerLeft):
            self._withdraw_card_from(event.peer_name)

    def _dispatch_tag(self, simulated) -> None:
        # Runs on the main looper. The tag may have left the field again by
        # now; dispatch anyway (the intent is a snapshot of the tap), the
        # application's first I/O will fail -- matching real race behaviour.
        activity = self._device.foreground_activity
        if activity is None:
            return
        filters = activity.nfc_filters()
        if not filters:
            return
        tag_handle = Tag(simulated, self._port)
        for intent in self._candidate_intents(tag_handle):
            if any(f.matches(intent) for f in filters):
                activity._deliver_intent(intent)  # noqa: SLF001 - platform role
                return

    def _candidate_intents(self, tag_handle: Tag) -> List[Intent]:
        """Candidate intents in Android's dispatch-priority order."""
        simulated = tag_handle.simulated
        candidates: List[Intent] = []
        message: Optional[NdefMessage] = None
        if simulated.is_ndef_formatted:
            try:
                message = simulated.read_ndef()
            except Exception:  # noqa: BLE001 - corrupt TLV: fall through
                message = None
        if message is not None and not message.is_empty:
            candidates.append(
                Intent(
                    action=ACTION_NDEF_DISCOVERED,
                    mime_type=message_mime_type(message),
                    extras={EXTRA_TAG: tag_handle, EXTRA_NDEF_MESSAGES: [message]},
                )
            )
        # As on Android, the fall-through intent of a tag that decoded
        # carries the message too: empty, or foreign to every filter.
        tech_extras = {EXTRA_TAG: tag_handle}
        if message is not None:
            tech_extras[EXTRA_NDEF_MESSAGES] = [message]
        candidates.append(Intent(action=ACTION_TECH_DISCOVERED, extras=tech_extras))
        candidates.append(
            Intent(action=ACTION_TAG_DISCOVERED, extras={EXTRA_TAG: tag_handle})
        )
        return candidates

    # -- host card emulation --------------------------------------------------------

    def set_card_emulation(self, card) -> None:
        """Present ``card`` (a Type 4 tag object) to peer phones; ``None``
        withdraws it. While set, every phone in Beam range sees the card
        in its own field and reads it like any physical tag."""
        env = self._port.environment
        with self._lock:
            previous = self._emulated_card
            self._emulated_card = card
        if previous is not None:
            for name in env.port_names():
                env.remove_tag_from_field(previous, env.port(name))
        if card is not None:
            for peer in env.peers_of(self._port):
                env.move_tag_into_field(card, peer)

    @property
    def emulated_card(self):
        with self._lock:
            return self._emulated_card

    def _present_card_to(self, peer_name: str) -> None:
        with self._lock:
            card = self._emulated_card
        if card is None:
            return
        env = self._port.environment
        env.move_tag_into_field(card, env.port(peer_name))

    def _withdraw_card_from(self, peer_name: str) -> None:
        with self._lock:
            card = self._emulated_card
        if card is None:
            return
        env = self._port.environment
        env.remove_tag_from_field(card, env.port(peer_name))

    # -- Beam: sending ---------------------------------------------------------------

    def set_ndef_push_message(self, source: Optional[PushSource]) -> None:
        """Install the message (or zero-argument callback producing one)
        pushed automatically when a peer phone comes into range."""
        with self._lock:
            self._push_source = source

    def _auto_push(self) -> None:
        with self._lock:
            source = self._push_source
        if source is None:
            return
        message = source() if callable(source) else source
        if message is None:
            return
        try:
            self._port.beam(message)
        except Exception:  # noqa: BLE001 - auto-push failures are silent on Android
            pass

    def push_now(self, message: NdefMessage) -> List[str]:
        """Explicit blocking push to every peer in range.

        Returns the accepting peer names; raises
        :class:`~repro.errors.BeamError` /
        :class:`~repro.errors.TagLostError` on failure.
        """
        return self._port.beam(message)

    # -- negotiated handover --------------------------------------------------------

    def set_handover_responder(self, responder) -> None:
        """Install the callback answering negotiated-handover requests.

        ``responder(request, sender)`` receives a
        :class:`~repro.ndef.handover.ParsedHandoverRequest` and returns a
        handover-select :class:`NdefMessage` (or ``None`` when this device
        has nothing to offer). It runs on the requesting device's thread,
        so keep it short and thread-safe. ``None`` uninstalls.
        """
        if responder is None:
            self._port.set_snep_get_provider(None)
            return

        from repro.ndef.handover import parse_handover_request

        def provider(sender: str, request_bytes: bytes):
            try:
                request = parse_handover_request(
                    NdefMessage.from_bytes(request_bytes)
                )
            except Exception:  # noqa: BLE001 - hostile request: NOT FOUND
                return None
            answer = responder(request, sender)
            return answer.to_bytes() if answer is not None else None

        self._port.set_snep_get_provider(provider)

    def request_handover(self, mime_types: List[str]):
        """Ask every peer in range which carriers it offers.

        Sends a handover request (SNEP GET) to each peer and returns a
        list of ``(peer_name, ParsedHandover)`` for the peers that
        answered. Raises :class:`~repro.errors.BeamError` when no peer is
        in range; peers without a responder simply do not appear in the
        result.
        """
        from repro.errors import BeamError
        from repro.ndef.handover import build_handover_request, parse_handover_select
        from repro.radio.snep import SnepClient, SnepProtocolError

        peers = self._port.environment.peers_of(self._port)
        if not peers:
            raise BeamError(f"no peer in Beam range of {self._port.name}")
        request = build_handover_request(mime_types).to_bytes()
        answers = []
        for peer in peers:
            if peer.snep_server is None:
                continue
            client = SnepClient(
                lambda raw, p=peer: self._port.snep_exchange(p, raw)
            )
            try:
                response = client.get(request)
                answers.append(
                    (peer.name, parse_handover_select(NdefMessage.from_bytes(response)))
                )
            except SnepProtocolError:
                continue  # peer has no responder or nothing to offer
        return answers

    # -- Beam: receiving --------------------------------------------------------------

    def _on_beam_received(self, sender: str, message: NdefMessage) -> None:
        if not self.is_enabled:
            return
        self._device.main_looper.post(lambda: self._dispatch_beam(sender, message))

    def _dispatch_beam(self, sender: str, message: NdefMessage) -> None:
        activity = self._device.foreground_activity
        if activity is None:
            return
        intent = Intent(
            action=ACTION_NDEF_DISCOVERED,
            mime_type=message_mime_type(message),
            extras={EXTRA_NDEF_MESSAGES: [message], EXTRA_BEAM_SENDER: sender},
        )
        if any(f.matches(intent) for f in activity.nfc_filters()):
            activity._deliver_intent(intent)  # noqa: SLF001 - platform role
