"""Tests for Beamer and BeamReceivedListener: async, undirected pushes."""

import pytest

from repro.concurrent import EventLog
from repro.core.beam import Beamer, BeamReceivedListener
from repro.core.converters import (
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.core.nfc_activity import NFCActivity
from repro.core.operations import OperationOutcome
from repro.errors import ReferenceStoppedError

BEAM_TYPE = "application/x-beam-test"


class ReceiverApp(NFCActivity):
    def on_create(self):
        self.received = EventLog()
        app = self

        class Listener(BeamReceivedListener):
            def on_beam_received_from(self, obj, sender):
                app.received.append((sender, obj))

        self.listener = Listener(self, BEAM_TYPE, NdefMessageToStringConverter())


class SenderApp(NFCActivity):
    def on_create(self):
        self.beamer = Beamer(self, StringToNdefMessageConverter(BEAM_TYPE))


@pytest.fixture
def sender(scenario):
    phone = scenario.add_phone("sender")
    return phone, scenario.start(phone, SenderApp)


@pytest.fixture
def receiver(scenario):
    phone = scenario.add_phone("receiver")
    return phone, scenario.start(phone, ReceiverApp)


class TestDelivery:
    def test_beam_delivers_when_peers_touch(self, scenario, sender, receiver):
        sender_phone, sender_app = sender
        receiver_phone, receiver_app = receiver
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        log = EventLog()
        sender_app.beamer.beam("hello", on_success=lambda: log.append("sent"))
        assert log.wait_for_count(1)
        assert receiver_app.received.wait_for_count(1)
        assert receiver_app.received.snapshot() == [("sender", "hello")]

    def test_beam_queued_until_peer_appears(self, scenario, sender, receiver):
        sender_phone, sender_app = sender
        receiver_phone, receiver_app = receiver
        log = EventLog()
        sender_app.beamer.beam("later", on_success=lambda: log.append("sent"))
        assert not log.wait_for_count(1, timeout=0.1)
        assert sender_app.beamer.pending_count == 1
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        assert log.wait_for_count(1)
        assert receiver_app.received.wait_for_count(1)

    def test_beams_deliver_in_order(self, scenario, sender, receiver):
        sender_phone, sender_app = sender
        receiver_phone, receiver_app = receiver
        for index in range(5):
            sender_app.beamer.beam(f"m{index}")
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        assert receiver_app.received.wait_for_count(5)
        assert [obj for _, obj in receiver_app.received.snapshot()] == [
            f"m{i}" for i in range(5)
        ]

    def test_beam_timeout_fires_failure(self, scenario, sender):
        _, sender_app = sender
        log = EventLog()
        operation = sender_app.beamer.beam(
            "nobody", on_failed=lambda: log.append("failed"), timeout=0.15
        )
        assert log.wait_for_count(1, timeout=3)
        assert operation.outcome is OperationOutcome.TIMED_OUT
        assert sender_app.beamer.timeouts == 1

    def test_expired_beam_leaves_later_beams_queued(self, scenario, sender, receiver):
        sender_phone, sender_app = sender
        receiver_phone, receiver_app = receiver
        log = EventLog()
        stale = sender_app.beamer.beam(
            "stale", on_failed=lambda: log.append("failed"), timeout=0.15
        )
        sender_app.beamer.beam("fresh", on_success=lambda: log.append("sent"))
        assert log.wait_for_count(1, timeout=3)
        assert stale.outcome is OperationOutcome.TIMED_OUT
        assert sender_app.beamer.pending_count == 1
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        assert log.wait_for_count(2)
        assert log.snapshot() == ["failed", "sent"]
        assert receiver_app.received.wait_for_count(1)
        assert receiver_app.received.snapshot() == [("sender", "fresh")]

    def test_listeners_run_on_main_thread(self, scenario, sender, receiver):
        import threading

        sender_phone, sender_app = sender
        receiver_phone, _ = receiver
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        log = EventLog()
        sender_app.beamer.beam(
            "x", on_success=lambda: log.append(threading.current_thread().name)
        )
        assert log.wait_for_count(1)
        assert log.snapshot() == ["looper-sender-main"]


class TestReceiverFiltering:
    def test_foreign_mime_ignored(self, scenario, receiver):
        other_phone = scenario.add_phone("other")

        class OtherSender(NFCActivity):
            def on_create(self):
                self.beamer = Beamer(
                    self, StringToNdefMessageConverter("other/type")
                )

        other_app = scenario.start(other_phone, OtherSender)
        receiver_phone, receiver_app = receiver
        scenario.env.bring_together(other_phone.port, receiver_phone.port)
        log = EventLog()
        other_app.beamer.beam("alien", on_success=lambda: log.append("sent"))
        assert log.wait_for_count(1)
        assert receiver_phone.sync()
        assert len(receiver_app.received) == 0

    def test_check_condition_filters(self, scenario, sender):
        receiver_phone = scenario.add_phone("picky")

        class PickyApp(NFCActivity):
            def on_create(self):
                self.received = EventLog()
                app = self

                class Picky(BeamReceivedListener):
                    def check_condition(self, obj):
                        return obj.startswith("yes")

                    def on_beam_received(self, obj):
                        app.received.append(obj)

                self.listener = Picky(self, BEAM_TYPE, NdefMessageToStringConverter())

        picky_app = scenario.start(receiver_phone, PickyApp)
        sender_phone, sender_app = sender
        scenario.env.bring_together(sender_phone.port, receiver_phone.port)
        done = EventLog()
        sender_app.beamer.beam("no thanks", on_success=lambda: done.append(1))
        sender_app.beamer.beam("yes please", on_success=lambda: done.append(2))
        assert done.wait_for_count(2)
        assert receiver_phone.sync()
        assert picky_app.received.snapshot() == ["yes please"]

    def test_unconvertible_beam_ignored(self, scenario, receiver):
        receiver_phone, receiver_app = receiver
        other = scenario.add_phone("rawsender")
        from repro.ndef.message import NdefMessage
        from repro.ndef.mime import mime_record

        scenario.env.bring_together(other.port, receiver_phone.port)
        bad = NdefMessage([mime_record(BEAM_TYPE, b"\xff\xfe\xf0")])
        other.nfc_adapter.push_now(bad)
        assert receiver_phone.sync()
        assert len(receiver_app.received) == 0


class TestLifecycle:
    def test_stop_cancels_pending(self, scenario, sender):
        _, sender_app = sender
        operation = sender_app.beamer.beam("never")
        sender_app.beamer.stop()
        assert operation.outcome is OperationOutcome.CANCELLED
        with pytest.raises(ReferenceStoppedError):
            sender_app.beamer.beam("after stop")

    def test_activity_destroy_stops_beamer(self, scenario, sender):
        sender_phone, sender_app = sender
        beamer = sender_app.beamer
        sender_phone.finish_activity(sender_app)
        with pytest.raises(ReferenceStoppedError):
            beamer.beam("dead")

    def test_converter_failure_settles_immediately(self, scenario, sender):
        _, sender_app = sender
        from repro.core.converters import ObjectToNdefMessageConverter
        from repro.errors import ConverterError

        class Rejecting(ObjectToNdefMessageConverter):
            def convert(self, obj):
                raise ConverterError("nope")

        beamer = Beamer(sender_app, Rejecting())
        log = EventLog()
        operation = beamer.beam("x", on_failed=lambda: log.append("failed"))
        assert operation.outcome is OperationOutcome.FAILED
        assert log.wait_for_count(1)
