"""Tests for Beamer and BeamReceivedListener: async, undirected pushes."""

import threading
import time

import pytest

from repro.clock import ManualClock
from repro.concurrent import EventLog, wait_until
from repro.core.beam import _RETRY_INTERVAL_SECONDS, Beamer, BeamReceivedListener
from repro.core.converters import (
    NdefMessageToStringConverter,
    ObjectToNdefMessageConverter,
    StringToNdefMessageConverter,
)
from repro.core.nfc_activity import NFCActivity
from repro.core.operations import OperationOutcome
from repro.errors import ConverterError, ReferenceStoppedError
from repro.harness.scenario import Scenario
from repro.radio.link import ScriptedLink

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

    def test_post_errors_other_than_looper_error_surface(self, scenario, sender):
        """Only a quit looper's ``LooperError`` is swallowed: a middleware
        error while posting a beam listener reaches the caller."""
        sender_phone, sender_app = sender

        class Rejecting(ObjectToNdefMessageConverter):
            def convert(self, obj):
                raise ConverterError("nope")

        beamer = Beamer(sender_app, Rejecting())

        def broken_post(runnable):
            raise RuntimeError("post failed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sender_phone.main_looper, "post", broken_post)
            with pytest.raises(RuntimeError, match="post failed"):
                beamer.beam("x")


class TestVirtualTime:
    """On a ManualClock a Beamer's retries and timeouts move with the
    clock alone: no real-time wait paces them."""

    def test_retries_are_paced_by_the_clock(self):
        clock = ManualClock()
        with Scenario(clock=clock) as scenario:
            sender_phone = scenario.add_phone(
                "sender", link=ScriptedLink([False, False])
            )
            receiver_phone = scenario.add_phone("receiver")
            # Paired before the Beamer exists, so no PeerEntered wakes it:
            # each wake attempts the head at once, and this test counts.
            scenario.pair(sender_phone, receiver_phone)
            beamer = scenario.start(sender_phone, SenderApp).beamer
            receiver_app = scenario.start(receiver_phone, ReceiverApp)
            sent = EventLog()
            beamer.beam("paced", on_success=lambda: sent.append("sent"))
            assert wait_until(lambda: beamer.attempts == 1)
            time.sleep(0.2)
            assert beamer.attempts == 1
            for attempts in (2, 3):
                assert len(sent) == 0
                clock.advance(_RETRY_INTERVAL_SECONDS)
                assert wait_until(lambda: beamer.attempts >= attempts)
                time.sleep(0.05)
                assert beamer.attempts == attempts
            assert sent.wait_for_count(1)
            assert receiver_app.received.wait_for_count(1)
            assert (beamer.attempts, beamer.successes) == (3, 1)

    def test_timeout_fires_once_the_clock_passes_the_deadline(self):
        clock = ManualClock()
        with Scenario(clock=clock) as scenario:
            beamer = scenario.start(scenario.add_phone("sender"), SenderApp).beamer
            failed = EventLog()
            operation = beamer.beam(
                "nobody", on_failed=lambda: failed.append("failed"), timeout=1.0
            )
            assert not failed.wait_for_count(1, timeout=0.2)
            clock.advance(0.9)
            assert not failed.wait_for_count(1, timeout=0.1)
            clock.advance(0.2)
            assert failed.wait_for_count(1)
            assert operation.outcome is OperationOutcome.TIMED_OUT
            assert (beamer.timeouts, beamer.attempts) == (1, 0)


class TestThreads:
    def test_pending_beamers_own_no_thread(self, scenario, sender):
        """Fifty Beamers with a beam each and no peer near start at most
        the device reactor's loop thread, which they all share."""
        sender_phone, sender_app = sender
        threads_before = threading.active_count()
        beamers = [
            Beamer(sender_app, StringToNdefMessageConverter(BEAM_TYPE))
            for _ in range(50)
        ]
        for beamer in beamers:
            beamer.beam("nobody near", timeout=60.0)
        assert threading.active_count() - threads_before <= 1
        assert wait_until(lambda: sender_phone.reactor.steps_executed >= 50)
        assert all(beamer.pending_count == 1 for beamer in beamers)
        assert threading.active_count() - threads_before <= 1
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("beamer-")
        ]
