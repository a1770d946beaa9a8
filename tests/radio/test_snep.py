"""Tests for the SNEP protocol layer (framing, fragmentation, codes)."""

import threading
import time

import pytest

from repro.clock import ManualClock
from repro.concurrent import EventLog
from repro.core import (
    Beamer,
    BeamReceivedListener,
    NFCActivity,
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.harness.scenario import Scenario
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.timing import TransferTiming
from repro.radio.snep import (
    REQ_GET,
    REQ_PUT,
    RES_BAD_REQUEST,
    RES_CONTINUE,
    RES_EXCESS_DATA,
    RES_NOT_FOUND,
    RES_NOT_IMPLEMENTED,
    RES_SUCCESS,
    RES_UNSUPPORTED_VERSION,
    SnepClient,
    SnepFrame,
    SnepProtocolError,
    SnepServer,
)


class TestFrameCodec:
    def test_roundtrip(self):
        frame = SnepFrame(code=REQ_PUT, information=b"payload")
        decoded = SnepFrame.from_bytes(frame.to_bytes())
        assert decoded.code == REQ_PUT
        assert decoded.information == b"payload"
        assert decoded.total_length == 7

    def test_header_layout(self):
        raw = SnepFrame(code=REQ_PUT, information=b"ab").to_bytes()
        assert raw[0] == 0x10  # version 1.0
        assert raw[1] == REQ_PUT
        assert int.from_bytes(raw[2:6], "big") == 2

    def test_announced_length_preserved(self):
        frame = SnepFrame(code=REQ_PUT, information=b"abc", announced_length=10)
        decoded = SnepFrame.from_bytes(frame.to_bytes())
        assert decoded.total_length == 10
        assert decoded.information == b"abc"

    def test_truncated_header_rejected(self):
        with pytest.raises(SnepProtocolError):
            SnepFrame.from_bytes(b"\x10\x02\x00")

    def test_overlong_information_rejected(self):
        raw = bytes([0x10, REQ_PUT]) + (1).to_bytes(4, "big") + b"too much"
        with pytest.raises(SnepProtocolError):
            SnepFrame.from_bytes(raw)


class TestServer:
    def make_server(self):
        received = []
        server = SnepServer(lambda sender, data: received.append((sender, data)))
        return server, received

    def test_single_fragment_put(self):
        server, received = self.make_server()
        request = SnepFrame(code=REQ_PUT, information=b"hello").to_bytes()
        response = SnepFrame.from_bytes(server.process("alice", request))
        assert response.code == RES_SUCCESS
        assert received == [("alice", b"hello")]
        assert server.puts_accepted == 1

    def test_fragmented_put_with_continue(self):
        server, received = self.make_server()
        data = b"0123456789"
        first = SnepFrame(
            code=REQ_PUT, information=data[:4], announced_length=len(data)
        ).to_bytes()
        response = SnepFrame.from_bytes(server.process("alice", first))
        assert response.code == RES_CONTINUE
        response = SnepFrame.from_bytes(server.process("alice", data[4:8]))
        assert response.code == RES_CONTINUE
        response = SnepFrame.from_bytes(server.process("alice", data[8:]))
        assert response.code == RES_SUCCESS
        assert received == [("alice", data)]

    def test_interleaved_senders_do_not_mix(self):
        server, received = self.make_server()
        a_first = SnepFrame(
            code=REQ_PUT, information=b"AA", announced_length=4
        ).to_bytes()
        b_first = SnepFrame(
            code=REQ_PUT, information=b"BB", announced_length=4
        ).to_bytes()
        server.process("alice", a_first)
        server.process("bob", b_first)
        server.process("alice", b"aa")
        server.process("bob", b"bb")
        assert sorted(received) == [("alice", b"AAaa"), ("bob", b"BBbb")]

    def test_excess_continuation_rejected(self):
        server, received = self.make_server()
        first = SnepFrame(
            code=REQ_PUT, information=b"ab", announced_length=3
        ).to_bytes()
        server.process("alice", first)
        response = SnepFrame.from_bytes(server.process("alice", b"cdEXTRA"))
        assert response.code == RES_EXCESS_DATA
        assert received == []

    def test_unsupported_version(self):
        server, _ = self.make_server()
        raw = bytes([0x20, REQ_PUT]) + (0).to_bytes(4, "big")
        response = SnepFrame.from_bytes(server.process("alice", raw))
        assert response.code == RES_UNSUPPORTED_VERSION

    def test_get_not_implemented_by_default(self):
        server, _ = self.make_server()
        request = SnepFrame(
            code=REQ_GET, information=(100).to_bytes(4, "big")
        ).to_bytes()
        response = SnepFrame.from_bytes(server.process("alice", request))
        assert response.code == RES_NOT_IMPLEMENTED

    def test_get_with_provider(self):
        server = SnepServer(
            on_put=lambda s, d: None,
            get_provider=lambda sender, req: b"answer" if req == b"q" else None,
        )
        request = SnepFrame(
            code=REQ_GET, information=(100).to_bytes(4, "big") + b"q"
        ).to_bytes()
        response = SnepFrame.from_bytes(server.process("alice", request))
        assert response.code == RES_SUCCESS
        assert response.information == b"answer"
        missing = SnepFrame(
            code=REQ_GET, information=(100).to_bytes(4, "big") + b"??"
        ).to_bytes()
        assert SnepFrame.from_bytes(server.process("alice", missing)).code == RES_NOT_FOUND

    def test_get_answer_over_acceptable_length(self):
        server = SnepServer(
            on_put=lambda s, d: None,
            get_provider=lambda sender, req: b"a very long answer",
        )
        request = SnepFrame(
            code=REQ_GET, information=(4).to_bytes(4, "big") + b"q"
        ).to_bytes()
        assert SnepFrame.from_bytes(server.process("alice", request)).code == RES_EXCESS_DATA

    def test_garbage_request_answers_bad_request(self):
        server, _ = self.make_server()
        response = SnepFrame.from_bytes(server.process("alice", b"\x10"))
        assert response.code == RES_BAD_REQUEST


class TestClient:
    def loopback(self, server: SnepServer, sender="client"):
        return lambda raw: server.process(sender, raw)

    def test_small_put_single_fragment(self):
        server = SnepServer(lambda s, d: None)
        client = SnepClient(self.loopback(server), miu=128)
        client.put(b"small")
        assert client.fragments_sent == 1

    def test_large_put_fragments(self):
        received = []
        server = SnepServer(lambda s, d: received.append(d))
        client = SnepClient(self.loopback(server), miu=16)
        payload = bytes(range(100))
        client.put(payload)
        assert received == [payload]
        assert client.fragments_sent > 1

    def test_put_rejection_raises(self):
        server = SnepServer(lambda s, d: None)
        client = SnepClient(
            lambda raw: SnepFrame(code=RES_NOT_IMPLEMENTED).to_bytes(), miu=64
        )
        with pytest.raises(SnepProtocolError):
            client.put(b"data")

    def test_get_roundtrip(self):
        server = SnepServer(
            on_put=lambda s, d: None, get_provider=lambda s, req: b"the value"
        )
        client = SnepClient(self.loopback(server), miu=64)
        assert client.get(b"request") == b"the value"

    def test_miu_must_exceed_header(self):
        with pytest.raises(SnepProtocolError):
            SnepClient(lambda raw: raw, miu=6)


class TestBeamOverSnep:
    def test_beam_fragments_large_messages(self, scenario):
        """A large beamed message visibly crosses the SNEP MIU."""
        from repro.concurrent import EventLog
        from repro.core import (
            Beamer,
            BeamReceivedListener,
            NFCActivity,
            NdefMessageToStringConverter,
            StringToNdefMessageConverter,
        )

        mime = "application/x-snep-test"
        sender_phone = scenario.add_phone("snep-sender")
        receiver_phone = scenario.add_phone("snep-receiver")

        received = EventLog()

        class Receiver(NFCActivity):
            def on_create(self):
                class Listener(BeamReceivedListener):
                    def on_beam_received(self, obj):
                        received.append(obj)

                Listener(self, mime, NdefMessageToStringConverter())

        class Sender(NFCActivity):
            def on_create(self):
                self.beamer = Beamer(self, StringToNdefMessageConverter(mime))

        scenario.start(receiver_phone, Receiver)
        sender = scenario.start(sender_phone, Sender)
        scenario.pair(sender_phone, receiver_phone)
        big = "x" * 1000  # far beyond the 128-byte MIU
        done = EventLog()
        sender.beamer.beam(big, on_success=lambda: done.append("ok"))
        assert done.wait_for_count(1, timeout=5)
        assert received.wait_for_count(1, timeout=5)
        assert received.snapshot() == [big]
        server = receiver_phone.port.snep_server
        assert server is not None
        assert server.frames_processed > 1  # fragmentation actually happened


class ChargeRecordingClock(ManualClock):
    """A ManualClock whose ``sleep`` -- each radio charge -- records its
    virtual interval; after :meth:`hold_next` the next charge stays open
    until :meth:`release`."""

    def __init__(self):
        super().__init__()
        self.intervals = []
        self.holding = threading.Event()
        self._hold = False
        self._released = threading.Event()

    def hold_next(self):
        self._hold = True

    def release(self):
        self._released.set()

    def sleep(self, seconds):
        start = self.now()
        if self._hold:
            self._hold = False
            self.holding.set()
            assert self._released.wait(5)
        super().sleep(seconds)
        self.intervals.append((start, self.now()))


class TestBeamTakesTheRadio:
    """SNEP fragments and tag transfers share a port's one radio."""

    def test_push_now_waits_for_the_radio(self, scenario):
        sender = scenario.add_phone("snep-sender")
        receiver = scenario.add_phone("snep-receiver")
        scenario.pair(sender, receiver)
        message = NdefMessage([mime_record("application/x-snep-test", b"ping")])
        delivered = []
        pusher = threading.Thread(
            target=lambda: delivered.append(sender.nfc_adapter.push_now(message))
        )
        with sender.port._radio_lock:
            pusher.start()
            pusher.join(0.2)
            assert pusher.is_alive()  # the radio is busy: the push waits
        pusher.join(5)
        assert not pusher.is_alive()
        assert delivered == [["snep-receiver"]]

    def test_beam_and_tag_write_never_overlap_in_virtual_time(self):
        mime = "application/x-snep-test"
        received = EventLog()

        class Receiver(NFCActivity):
            def on_create(self):
                class Listener(BeamReceivedListener):
                    def on_beam_received(self, obj):
                        received.append(obj)

                Listener(self, mime, NdefMessageToStringConverter())

        class Sender(NFCActivity):
            def on_create(self):
                self.beamer = Beamer(self, StringToNdefMessageConverter(mime))

        clock = ChargeRecordingClock()
        timing = TransferTiming(base_seconds=0.01, seconds_per_byte=1e-4)
        with Scenario(clock=clock, timing=timing) as scenario:
            sender_phone = scenario.add_phone("snep-sender")
            receiver_phone = scenario.add_phone("snep-receiver")
            sender = scenario.start(sender_phone, Sender)
            scenario.start(receiver_phone, Receiver)
            scenario.pair(sender_phone, receiver_phone)
            tag = scenario.add_tag()
            scenario.put(tag, sender_phone)

            clock.hold_next()
            writer = threading.Thread(
                target=sender_phone.port.write_ndef,
                args=(tag, NdefMessage([mime_record(mime, b"on the tag")])),
            )
            writer.start()
            sent = EventLog()
            try:
                assert clock.holding.wait(5)
                sender.beamer.beam("over the air", on_success=lambda: sent.append(1))
                time.sleep(0.2)
                assert clock.intervals == []  # the beam has not taken the radio
            finally:
                clock.release()
                writer.join(5)
            assert not writer.is_alive()
            assert sent.wait_for_count(1)
            assert received.wait_for_count(1)
        intervals = sorted(clock.intervals)
        assert len(intervals) >= 2
        assert all(
            end <= next_start
            for (_, end), (next_start, _) in zip(intervals, intervals[1:])
        )
