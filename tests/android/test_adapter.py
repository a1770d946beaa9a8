"""Unit tests for NfcAdapter: tag dispatch priority and Beam push."""

import pytest

from repro.android.activity import Activity
from repro.android.device import AndroidDevice
from repro.android.intents import (
    ACTION_NDEF_DISCOVERED,
    ACTION_TAG_DISCOVERED,
    ACTION_TECH_DISCOVERED,
    EXTRA_NDEF_MESSAGES,
    EXTRA_TAG,
    IntentFilter,
)
from repro.concurrent import EventLog
from repro.errors import BeamError
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.environment import RfidEnvironment
from repro.tags.factory import make_tag


def msg(payload: bytes = b"data", mime: str = "a/b") -> NdefMessage:
    return NdefMessage([mime_record(mime, payload)])


class CollectingActivity(Activity):
    FILTERS = [
        IntentFilter(ACTION_NDEF_DISCOVERED, "a/b"),
        IntentFilter(ACTION_TECH_DISCOVERED),
        IntentFilter(ACTION_TAG_DISCOVERED),
    ]

    def on_create(self):
        self.intents = EventLog()
        self.enable_foreground_dispatch(self.FILTERS)

    def on_new_intent(self, intent):
        self.intents.append(intent)


@pytest.fixture
def env():
    return RfidEnvironment()


@pytest.fixture
def phone(env):
    device = AndroidDevice("phone", env)
    yield device
    device.shutdown()


class TestTagDispatch:
    def test_ndef_tag_dispatches_ndef_intent_with_message(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        tag = make_tag(content=msg(b"hi"))
        env.move_tag_into_field(tag, phone.port)
        assert activity.intents.wait_for_count(1)
        intent = activity.intents.snapshot()[0]
        assert intent.action == ACTION_NDEF_DISCOVERED
        assert intent.mime_type == "a/b"
        assert intent.require_extra(EXTRA_NDEF_MESSAGES)[0] == msg(b"hi")
        assert intent.require_extra(EXTRA_TAG).simulated is tag

    def test_empty_tag_dispatches_tech_intent(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        env.move_tag_into_field(make_tag(), phone.port)
        assert activity.intents.wait_for_count(1)
        assert activity.intents.snapshot()[0].action == ACTION_TECH_DISCOVERED

    def test_unformatted_tag_dispatches_tech_intent(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        env.move_tag_into_field(make_tag(formatted=False), phone.port)
        assert activity.intents.wait_for_count(1)
        assert activity.intents.snapshot()[0].action == ACTION_TECH_DISCOVERED

    def test_foreign_mime_falls_through_to_tech(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        env.move_tag_into_field(make_tag(content=msg(mime="x/y")), phone.port)
        assert activity.intents.wait_for_count(1)
        intent = activity.intents.snapshot()[0]
        assert intent.action == ACTION_TECH_DISCOVERED
        # The message decoded during dispatch rides along, as on Android.
        assert intent.get_extra(EXTRA_NDEF_MESSAGES) == [msg(mime="x/y")]

    def test_each_tap_dispatches_again(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        tag = make_tag(content=msg())
        for _ in range(3):
            env.move_tag_into_field(tag, phone.port)
            env.remove_tag_from_field(tag, phone.port)
        assert activity.intents.wait_for_count(3)

    def test_no_dispatch_without_foreground_activity(self, env, phone):
        env.move_tag_into_field(make_tag(content=msg()), phone.port)
        assert phone.sync()  # nothing crashes, nothing delivered

    def test_no_dispatch_without_filters(self, env, phone):
        class Unfiltered(Activity):
            def on_create(self):
                self.intents = EventLog()

            def on_new_intent(self, intent):
                self.intents.append(intent)

        activity = phone.start_activity(Unfiltered)
        env.move_tag_into_field(make_tag(content=msg()), phone.port)
        assert phone.sync()
        assert len(activity.intents) == 0

    def test_disabled_adapter_dispatches_nothing(self, env, phone):
        activity = phone.start_activity(CollectingActivity)
        phone.nfc_adapter.set_enabled(False)
        env.move_tag_into_field(make_tag(content=msg()), phone.port)
        assert phone.sync()
        assert len(activity.intents) == 0
        phone.nfc_adapter.set_enabled(True)

    def test_dispatch_runs_on_main_thread(self, env, phone):
        import threading

        class ThreadChecker(CollectingActivity):
            def on_new_intent(self, intent):
                self.intents.append(threading.current_thread().name)

        activity = phone.start_activity(ThreadChecker)
        env.move_tag_into_field(make_tag(content=msg()), phone.port)
        assert activity.intents.wait_for_count(1)
        assert activity.intents.snapshot() == ["looper-phone-main"]


class TestBeamPush:
    def test_push_now_delivers_to_peer_activity(self, env, phone):
        other = AndroidDevice("other", env)
        try:
            receiver = other.start_activity(CollectingActivity)
            env.bring_together(phone.port, other.port)
            delivered = phone.nfc_adapter.push_now(msg(b"beamed"))
            assert delivered == ["other"]
            assert receiver.intents.wait_for_count(1)
            intent = receiver.intents.snapshot()[0]
            assert intent.is_beam
            assert intent.require_extra(EXTRA_NDEF_MESSAGES)[0] == msg(b"beamed")
        finally:
            other.shutdown()

    def test_push_now_without_peer_raises(self, phone):
        with pytest.raises(BeamError):
            phone.nfc_adapter.push_now(msg())

    def test_auto_push_on_peer_entered(self, env, phone):
        other = AndroidDevice("other", env)
        try:
            receiver = other.start_activity(CollectingActivity)
            phone.start_activity(CollectingActivity)
            phone.nfc_adapter.set_ndef_push_message(msg(b"auto"))
            env.bring_together(phone.port, other.port)
            assert receiver.intents.wait_for_count(1)
            intent = receiver.intents.snapshot()[0]
            assert intent.require_extra(EXTRA_NDEF_MESSAGES)[0] == msg(b"auto")
        finally:
            other.shutdown()

    def test_auto_push_callback_source(self, env, phone):
        other = AndroidDevice("other", env)
        try:
            receiver = other.start_activity(CollectingActivity)
            phone.start_activity(CollectingActivity)
            phone.nfc_adapter.set_ndef_push_message(lambda: msg(b"dynamic"))
            env.bring_together(phone.port, other.port)
            assert receiver.intents.wait_for_count(1)
        finally:
            other.shutdown()

    def test_beam_not_received_when_adapter_disabled(self, env, phone):
        """Radio-level delivery succeeds, but a disabled receiving adapter
        drops the message before any activity sees it."""
        other = AndroidDevice("other", env)
        try:
            receiver = other.start_activity(CollectingActivity)
            other.nfc_adapter.set_enabled(False)
            env.bring_together(phone.port, other.port)
            assert phone.nfc_adapter.push_now(msg()) == ["other"]
            assert other.sync()
            assert len(receiver.intents) == 0
        finally:
            other.shutdown()
