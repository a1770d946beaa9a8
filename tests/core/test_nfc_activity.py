"""Dedicated tests for NFCActivity's intent routing and teardown."""

import pytest

from repro.android.intents import (
    ACTION_NDEF_DISCOVERED,
    ACTION_TECH_DISCOVERED,
    EXTRA_TAG,
    Intent,
)
from repro.android.nfc.tech import Tag
from repro.concurrent import EventLog
from repro.core.beam import Beamer, BeamReceivedListener
from repro.core.converters import (
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.core.discovery import TagDiscoverer
from repro.core.nfc_activity import NFCActivity
from repro.tags.factory import make_tag

from tests.conftest import text_tag


class Recorder(TagDiscoverer):
    def __init__(self, activity, mime_type, **kwargs):
        self.log = EventLog()
        super().__init__(
            activity,
            mime_type,
            NdefMessageToStringConverter(),
            StringToNdefMessageConverter(mime_type),
            **kwargs,
        )

    def on_tag_detected(self, reference):
        self.log.append(("tag", reference.cached))

    def on_empty_tag_detected(self, reference):
        self.log.append(("empty", None))


class TestFilterDerivation:
    def test_filters_follow_registrations(self, scenario, phone):
        class App(NFCActivity):
            pass

        app = scenario.start(phone, App)
        assert app.nfc_filters() == []

        def register():
            Recorder(app, "app/one")

        phone.main_looper.post(register)
        phone.sync()
        filters = app.nfc_filters()
        assert len(filters) == 1
        assert filters[0].action == ACTION_NDEF_DISCOVERED
        assert filters[0].mime_pattern == "app/one"

    def test_accept_empty_adds_tech_filter(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.disc = Recorder(self, "app/one", accept_empty=True)

        app = scenario.start(phone, App)
        actions = {f.action for f in app.nfc_filters()}
        assert ACTION_TECH_DISCOVERED in actions

    def test_beam_listener_adds_filter(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.listener = BeamReceivedListener(
                    self, "beam/type", NdefMessageToStringConverter()
                )

        app = scenario.start(phone, App)
        patterns = {f.mime_pattern for f in app.nfc_filters()}
        assert "beam/type" in patterns


class TestRouting:
    def test_tag_intent_routed_to_matching_discoverer_only(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.one = Recorder(self, "app/one")
                self.two = Recorder(self, "app/two")

        app = scenario.start(phone, App)
        scenario.put(text_tag("for one", mime_type="app/one"), phone)
        assert app.one.log.wait_for_count(1)
        assert phone.sync()
        assert len(app.two.log) == 0

    def test_tag_intent_without_message_is_ignored(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.one = Recorder(self, "app/one")

        app = scenario.start(phone, App)
        tag = text_tag("unread", mime_type="app/one")
        intent = Intent(
            action=ACTION_NDEF_DISCOVERED,
            mime_type="app/one",
            extras={EXTRA_TAG: Tag(tag, phone.port)},
        )
        phone.main_looper.post(lambda: app.on_new_intent(intent))
        assert phone.sync()
        assert len(app.one.log) == 0
        assert app.reference_factory.known_references() == []

    def test_empty_tag_routed_only_to_opted_in(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.plain = Recorder(self, "app/one")
                self.empties = Recorder(self, "app/two", accept_empty=True)

        app = scenario.start(phone, App)
        scenario.put(make_tag(), phone)
        assert app.empties.log.wait_for_count(1)
        assert app.empties.log.snapshot() == [("empty", None)]
        assert len(app.plain.log) == 0

    def test_beam_intent_not_routed_to_tag_discoverers(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.disc = Recorder(self, "app/one")
                self.received = EventLog()
                outer = self

                class Listener(BeamReceivedListener):
                    def on_beam_received(self, obj):
                        outer.received.append(obj)

                Listener(self, "app/one", NdefMessageToStringConverter())

        app = scenario.start(phone, App)
        other = scenario.add_phone("beam-source")
        scenario.pair(other, phone)
        from repro.ndef.message import NdefMessage
        from repro.ndef.mime import mime_record

        other.nfc_adapter.push_now(
            NdefMessage([mime_record("app/one", b"beamed")])
        )
        assert app.received.wait_for_count(1)
        assert phone.sync()
        assert len(app.disc.log) == 0  # beams never reach tag discoverers


class TestTeardown:
    def test_destroy_stops_beamers_and_references(self, scenario, phone):
        class App(NFCActivity):
            def on_create(self):
                self.beamer = Beamer(
                    self, StringToNdefMessageConverter("app/one")
                )

        app = scenario.start(phone, App)
        tag = text_tag("x", mime_type="app/one")
        from tests.conftest import make_reference

        reference = make_reference(app, tag, phone, mime_type="app/one")
        beamer = app.beamer
        phone.finish_activity(app)
        assert reference.is_stopped
        from repro.errors import ReferenceStoppedError

        with pytest.raises(ReferenceStoppedError):
            beamer.beam("dead")
