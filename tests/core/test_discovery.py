"""Tests for TagDiscoverer: detection callbacks, filtering, cache priming."""

import pytest

from repro.concurrent import EventLog
from repro.core.converters import (
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.core.discovery import TagDiscoverer
from repro.core.nfc_activity import NFCActivity
from repro.errors import NdefError
from repro.ndef.message import NdefMessage
from repro.tags.factory import make_tag

from tests.conftest import TEXT_TYPE, text_message, text_tag


class RecordingDiscoverer(TagDiscoverer):
    def __init__(self, activity, mime_type=TEXT_TYPE, **kwargs):
        self.log = EventLog()
        super().__init__(
            activity,
            mime_type,
            NdefMessageToStringConverter(),
            StringToNdefMessageConverter(mime_type),
            **kwargs,
        )

    def on_tag_detected(self, reference):
        self.log.append(("detected", reference))

    def on_tag_redetected(self, reference):
        self.log.append(("redetected", reference))

    def on_empty_tag_detected(self, reference):
        self.log.append(("empty", reference))


class DiscovererApp(NFCActivity):
    DISCOVERER_KWARGS = {}

    def on_create(self):
        self.discoverer = RecordingDiscoverer(self, **self.DISCOVERER_KWARGS)


@pytest.fixture
def app(scenario, phone):
    return scenario.start(phone, DiscovererApp)


class TestDetection:
    def test_first_tap_is_detected(self, scenario, phone, app):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        assert app.discoverer.log.wait_for_count(1)
        event, reference = app.discoverer.log.snapshot()[0]
        assert event == "detected"
        assert reference.uid == tag.uid

    def test_second_tap_is_redetected_with_same_reference(
        self, scenario, phone, app
    ):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        scenario.take(tag, phone)
        scenario.put(tag, phone)
        assert app.discoverer.log.wait_for_count(2)
        (_, first_ref), (second_event, second_ref) = app.discoverer.log.snapshot()
        assert second_event == "redetected"
        assert second_ref is first_ref

    def test_cache_primed_from_dispatch(self, scenario, phone, app):
        tag = text_tag("primed-content")
        scenario.put(tag, phone)
        assert app.discoverer.log.wait_for_count(1)
        _, reference = app.discoverer.log.snapshot()[0]
        assert reference.cached == "primed-content"

    def test_detection_decodes_the_tag_once(self, scenario, phone, app, monkeypatch):
        """The cache is primed from the message the adapter decoded while
        dispatching; the tag is not read and decoded a second time."""
        tag = text_tag("decoded-once")
        decodes = []
        decode = NdefMessage.from_bytes
        monkeypatch.setattr(
            NdefMessage,
            "from_bytes",
            staticmethod(lambda raw: decodes.append(raw) or decode(raw)),
        )
        scenario.put(tag, phone)
        assert app.discoverer.log.wait_for_count(1)
        assert phone.sync()
        _, reference = app.discoverer.log.snapshot()[0]
        assert reference.cached == "decoded-once"
        assert len(decodes) == 1

    def test_foreign_mime_type_disregarded(self, scenario, phone, app):
        tag = text_tag("foreign", mime_type="other/type")
        scenario.put(tag, phone)
        assert phone.sync()
        assert len(app.discoverer.log) == 0

    def test_unconvertible_content_disregarded(self, scenario, phone, app):
        tag = make_tag(content=text_message("x"))
        tag.write_ndef(
            __import__("repro.ndef.message", fromlist=["NdefMessage"]).NdefMessage(
                [
                    __import__(
                        "repro.ndef.mime", fromlist=["mime_record"]
                    ).mime_record(TEXT_TYPE, b"\xff\xfe\xf0")
                ]
            )
        )
        scenario.put(tag, phone)
        assert phone.sync()
        assert len(app.discoverer.log) == 0


class TestEmptyTags:
    def test_empty_tags_ignored_by_default(self, scenario, phone, app):
        scenario.put(make_tag(), phone)
        assert phone.sync()
        assert len(app.discoverer.log) == 0

    def test_empty_tags_delivered_when_opted_in(self, scenario, phone):
        class EmptyApp(DiscovererApp):
            DISCOVERER_KWARGS = {"accept_empty": True}

        app = scenario.start(phone, EmptyApp)
        scenario.put(make_tag(), phone)
        assert app.discoverer.log.wait_for_count(1)
        assert app.discoverer.log.snapshot()[0][0] == "empty"

    def test_unformatted_tags_count_as_empty(self, scenario, phone):
        class EmptyApp(DiscovererApp):
            DISCOVERER_KWARGS = {"accept_empty": True}

        app = scenario.start(phone, EmptyApp)
        scenario.put(make_tag(formatted=False), phone)
        assert app.discoverer.log.wait_for_count(1)
        assert app.discoverer.log.snapshot()[0][0] == "empty"

    def test_blank_tag_detection_decodes_once(self, scenario, phone, monkeypatch):
        """Emptiness is decided from the message the adapter decoded
        while dispatching, not from a second read of the tag."""

        class EmptyApp(DiscovererApp):
            DISCOVERER_KWARGS = {"accept_empty": True}

        app = scenario.start(phone, EmptyApp)
        decodes = []
        decode = NdefMessage.from_bytes
        monkeypatch.setattr(
            NdefMessage,
            "from_bytes",
            staticmethod(lambda raw: decodes.append(raw) or decode(raw)),
        )
        scenario.put(make_tag(), phone)
        assert app.discoverer.log.wait_for_count(1)
        assert phone.sync()
        assert app.discoverer.log.snapshot()[0][0] == "empty"
        assert len(decodes) == 1

    @pytest.mark.parametrize("content", ["foreign", "corrupt"])
    def test_foreign_and_corrupt_tags_are_not_empty(self, scenario, phone, content):
        class EmptyApp(DiscovererApp):
            DISCOVERER_KWARGS = {"accept_empty": True}

        app = scenario.start(phone, EmptyApp)
        tag = text_tag("someone else's data", mime_type="other/type")
        if content == "corrupt":
            # What a torn write leaves on a Type 2 tag: a truncated TLV.
            tag._tear_write_hook(text_message("a replacement"))  # noqa: SLF001
            with pytest.raises(NdefError):
                tag.read_ndef()
        scenario.put(tag, phone)
        assert phone.sync()
        assert len(app.discoverer.log) == 0


class TestCheckCondition:
    def test_condition_filters_callbacks(self, scenario, phone):
        class Conditional(RecordingDiscoverer):
            def check_condition(self, reference):
                return "wanted" in (reference.cached or "")

        class ConditionalApp(NFCActivity):
            def on_create(self):
                self.discoverer = Conditional(self)

        app = scenario.start(phone, ConditionalApp)
        scenario.put(text_tag("boring content"), phone)
        assert phone.sync()
        assert len(app.discoverer.log) == 0
        scenario.put(text_tag("wanted content"), phone)
        assert app.discoverer.log.wait_for_count(1)

    def test_condition_sees_cached_data(self, scenario, phone):
        seen = EventLog()

        class Spy(RecordingDiscoverer):
            def check_condition(self, reference):
                seen.append(reference.cached)
                return True

        class SpyApp(NFCActivity):
            def on_create(self):
                self.discoverer = Spy(self)

        scenario.start(phone, SpyApp)
        scenario.put(text_tag("visible-to-condition"), phone)
        assert seen.wait_for_count(1)
        assert seen.snapshot() == ["visible-to-condition"]

    def test_rejected_tag_still_wakes_reference(self, scenario, phone):
        """check_condition gates callbacks, not the retry machinery."""

        class RejectAll(RecordingDiscoverer):
            def check_condition(self, reference):
                return False

        class RejectApp(NFCActivity):
            def on_create(self):
                self.discoverer = RejectAll(self)

        app = scenario.start(phone, RejectApp)
        tag = text_tag("content")
        scenario.put(tag, phone)
        assert phone.sync()
        # The reference exists in the factory even though no callback ran.
        assert app.reference_factory.lookup(tag.uid) is not None


class TestConstruction:
    def test_requires_nfc_activity(self, scenario, phone):
        from repro.android.activity import Activity

        class Plain(Activity):
            pass

        plain = phone.start_activity(Plain)
        with pytest.raises(TypeError):
            RecordingDiscoverer(plain)

    def test_two_discoverers_different_mime_types(self, scenario, phone):
        class TwoApp(NFCActivity):
            def on_create(self):
                self.text = RecordingDiscoverer(self, "app/one")
                self.other = RecordingDiscoverer(self, "app/two")

        app = scenario.start(phone, TwoApp)
        scenario.put(text_tag("for-two", mime_type="app/two"), phone)
        assert app.other.log.wait_for_count(1)
        assert len(app.text.log) == 0
