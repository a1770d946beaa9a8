"""``NFCActivity``: the single point where MORENA touches intents.

The Android NFC API couples every RFID event to the activity
architecture; MORENA confines that coupling to this one base class.
An ``NFCActivity`` owns the activity's :class:`TagReferenceFactory`,
collects the registered :class:`~repro.core.discovery.TagDiscoverer` and
:class:`~repro.core.beam.BeamReceivedListener` objects, derives the
foreground-dispatch intent filters from them, and routes every incoming
NFC intent to the right handler. Application code built on MORENA never
sees an intent again (paper section 3.1: "Once a TagDiscoverer is
instantiated, the programmer must no longer worry about activities").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.android.activity import Activity
from repro.android.intents import (
    ACTION_NDEF_DISCOVERED,
    ACTION_TECH_DISCOVERED,
    EXTRA_BEAM_SENDER,
    EXTRA_NDEF_MESSAGES,
    EXTRA_TAG,
    Intent,
    IntentFilter,
)
from repro.core.factory import TagReferenceFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.beam import Beamer, BeamReceivedListener
    from repro.core.discovery import TagDiscoverer


class NFCActivity(Activity):
    """Base class for every MORENA application activity."""

    def __init__(self, device) -> None:
        super().__init__(device)
        self._reference_factory = TagReferenceFactory(self)
        self._discoverers: List["TagDiscoverer"] = []
        self._beam_listeners: List["BeamReceivedListener"] = []
        self._beamers: List["Beamer"] = []

    @property
    def reference_factory(self) -> TagReferenceFactory:
        return self._reference_factory

    # -- registration (called from the component constructors) ------------------

    def _register_discoverer(self, discoverer: "TagDiscoverer") -> None:
        self._discoverers.append(discoverer)
        self._refresh_filters()

    def _register_beam_listener(self, listener: "BeamReceivedListener") -> None:
        self._beam_listeners.append(listener)
        self._refresh_filters()

    def _register_beamer(self, beamer: "Beamer") -> None:
        self._beamers.append(beamer)

    def _refresh_filters(self) -> None:
        filters: List[IntentFilter] = []
        accept_empty = False
        for discoverer in self._discoverers:
            filters.append(
                IntentFilter(ACTION_NDEF_DISCOVERED, discoverer.mime_type)
            )
            accept_empty = accept_empty or discoverer.accept_empty
        for listener in self._beam_listeners:
            filters.append(IntentFilter(ACTION_NDEF_DISCOVERED, listener.mime_type))
        if accept_empty:
            filters.append(IntentFilter(ACTION_TECH_DISCOVERED))
        self.enable_foreground_dispatch(filters)

    # -- intent routing --------------------------------------------------------------

    def on_new_intent(self, intent: Intent) -> None:
        if intent.is_beam:
            self._route_beam(intent)
        else:
            self._route_tag(intent)

    def _route_beam(self, intent: Intent) -> None:
        messages = intent.get_extra(EXTRA_NDEF_MESSAGES) or []
        if not messages:
            return
        sender = intent.get_extra(EXTRA_BEAM_SENDER, "")
        for listener in list(self._beam_listeners):
            listener._handle_beam(intent.mime_type, messages[0], sender)  # noqa: SLF001

    def _route_tag(self, intent: Intent) -> None:
        tag = intent.get_extra(EXTRA_TAG)
        if tag is None:
            return
        if intent.action == ACTION_NDEF_DISCOVERED:
            # The platform decoded the message while dispatching; pass it on.
            messages = intent.get_extra(EXTRA_NDEF_MESSAGES) or []
            if not messages:
                return
            for discoverer in list(self._discoverers):
                discoverer._handle_tag(intent.mime_type, tag, messages[0])  # noqa: SLF001
        elif intent.action == ACTION_TECH_DISCOVERED:
            # Empty or unformatted tag: only discoverers that opted in.
            messages = intent.get_extra(EXTRA_NDEF_MESSAGES)
            message = messages[0] if messages else None
            for discoverer in list(self._discoverers):
                if discoverer.accept_empty:
                    discoverer._handle_empty_tag(tag, message)  # noqa: SLF001

    # -- teardown ----------------------------------------------------------------------

    def on_destroy(self) -> None:
        for beamer in self._beamers:
            beamer.stop()
        self._reference_factory.stop_all()
        super().on_destroy()
