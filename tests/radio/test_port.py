"""Unit tests for port operations: blocking I/O, tears, Beam delivery."""

import pytest

from repro.clock import ManualClock
from repro.errors import (
    BeamError,
    NotInFieldError,
    TagFormatError,
    TagLostError,
)
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.environment import RfidEnvironment
from repro.radio.link import FlakyThenGoodLink, ScriptedLink
from repro.radio.timing import NO_DELAY, TransferTiming
from repro.radio.transport import RelayTransport
from repro.tags.apdu import INS_SELECT, CommandApdu
from repro.tags.factory import make_tag
from repro.tags.type4 import NDEF_AID, make_type4_tag


def msg(payload: bytes = b"data") -> NdefMessage:
    return NdefMessage([mime_record("a/b", payload)])


@pytest.fixture
def env():
    return RfidEnvironment()


class TestReads:
    def test_read_requires_field(self, env):
        port = env.create_port("p")
        with pytest.raises(NotInFieldError):
            port.read_ndef(make_tag())

    def test_read_success(self, env):
        port = env.create_port("p")
        tag = make_tag(content=msg(b"hello"))
        env.move_tag_into_field(tag, port)
        assert port.read_ndef(tag) == msg(b"hello")

    def test_read_tear(self, env):
        port = env.create_port("p", link=ScriptedLink([False]))
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        with pytest.raises(TagLostError):
            port.read_ndef(tag)
        assert port.read_ndef(tag) is not None  # next attempt succeeds

    def test_read_unformatted_is_format_error(self, env):
        port = env.create_port("p")
        tag = make_tag(formatted=False)
        env.move_tag_into_field(tag, port)
        with pytest.raises(TagFormatError):
            port.read_ndef(tag)

    def test_read_counts_attempts(self, env):
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        port.read_ndef(tag)
        port.read_ndef(tag)
        assert port.read_attempts == 2


class TestWrites:
    def test_write_roundtrip(self, env):
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        port.write_ndef(tag, msg(b"written"))
        assert tag.read_ndef() == msg(b"written")

    def test_write_requires_field(self, env):
        port = env.create_port("p")
        with pytest.raises(NotInFieldError):
            port.write_ndef(make_tag(), msg())

    def test_write_tear_without_corruption(self, env):
        port = env.create_port("p", link=FlakyThenGoodLink(1))
        tag = make_tag(content=msg(b"original"))
        env.move_tag_into_field(tag, port)
        with pytest.raises(TagLostError):
            port.write_ndef(tag, msg(b"replacement"))
        assert tag.read_ndef() == msg(b"original")  # intact by default

    def test_write_tear_with_corruption(self, env):
        port = env.create_port("p", link=FlakyThenGoodLink(1))
        port.corrupt_on_tear = True
        tag = make_tag(content=msg(b"original data here"))
        env.move_tag_into_field(tag, port)
        with pytest.raises(TagLostError):
            port.write_ndef(tag, msg(b"replacement data"))
        with pytest.raises(TagFormatError):
            port.read_ndef(tag)  # torn TLV is unreadable
        # A successful rewrite heals the tag.
        port.write_ndef(tag, msg(b"healed"))
        assert port.read_ndef(tag) == msg(b"healed")

    def test_format_then_write(self, env):
        port = env.create_port("p")
        tag = make_tag(formatted=False)
        env.move_tag_into_field(tag, port)
        port.format_tag(tag)
        port.write_ndef(tag, msg(b"fresh"))
        assert tag.read_ndef() == msg(b"fresh")

    def test_make_read_only(self, env):
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        port.make_read_only(tag)
        assert not tag.is_writable

    def test_format_and_lock_count_attempts(self, env):
        port = env.create_port("p")
        tag = make_tag(formatted=False)
        env.move_tag_into_field(tag, port)
        port.format_tag(tag)
        port.format_tag(tag)  # idempotent, still an attempt
        port.make_read_only(tag)
        assert port.format_attempts == 2
        assert port.lock_attempts == 1
        assert port.connects == 3

    def test_failed_attempts_still_count(self, env):
        port = env.create_port("p", link=ScriptedLink([False, False]))
        tag = make_tag(formatted=False)
        env.move_tag_into_field(tag, port)
        with pytest.raises(TagLostError):
            port.format_tag(tag)
        with pytest.raises(TagLostError):
            port.make_read_only(tag)
        assert port.format_attempts == 1
        assert port.lock_attempts == 1

    def test_session_operations_share_the_attempt_counters(self, env):
        port = env.create_port("p")
        tag = make_tag(formatted=False)
        env.move_tag_into_field(tag, port)
        session = port.open_session(tag)
        try:
            session.format_tag(tag)
            session.write_ndef(tag, msg(b"batched"))
            session.make_read_only(tag)
        finally:
            session.close()
        assert port.format_attempts == 1
        assert port.write_attempts == 1
        assert port.lock_attempts == 1
        assert port.connects == 1  # one connect served all three


class TestLatency:
    def test_timing_model_slows_operations(self):
        clock = ManualClock()
        env = RfidEnvironment(
            clock=clock, timing=TransferTiming(base_seconds=0.5, seconds_per_byte=0.0)
        )
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        before = clock.now()
        port.read_ndef(tag)
        assert clock.now() - before == pytest.approx(0.5)

    def test_latency_scales_with_bytes(self):
        clock = ManualClock()
        env = RfidEnvironment(
            clock=clock, timing=TransferTiming(base_seconds=0.0, seconds_per_byte=0.01)
        )
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        small = msg(b"x")
        large = msg(b"x" * 100)
        t0 = clock.now()
        port.write_ndef(tag, small)
        t1 = clock.now()
        port.write_ndef(tag, large)
        t2 = clock.now()
        assert (t2 - t1) > (t1 - t0)

    @pytest.mark.parametrize(
        "relayed,standalone,batch_of_one",
        [(False, 0.0938, 0.0938), (True, 0.1138, 0.1338)],
        ids=["local", "relayed"],
    )
    def test_batch_of_one_costs_a_standalone_read_on_local_tags_only(
        self, relayed, standalone, batch_of_one
    ):
        """A relayed session pays the hop at connect and again on its
        operation, so its batch of one costs one hop more."""
        clock = ManualClock()
        env = RfidEnvironment(
            clock=clock,
            timing=TransferTiming(base_seconds=0.005, seconds_per_byte=1e-4),
            transport=RelayTransport(latency_seconds=0.02),
        )
        reader = env.create_port("reader")
        tag = make_tag(content=msg(b"transport bench payload"))
        if relayed:
            bench = env.create_port("bench")
            env.move_tag_into_field(tag, bench)
            env.pair_fields(reader, bench)
        else:
            env.move_tag_into_field(tag, reader)
        start = clock.now()
        reader.read_ndef(tag)
        assert clock.now() - start == pytest.approx(standalone, abs=1e-12)
        start = clock.now()
        session = reader.open_session(tag)
        session.read_ndef(tag)
        session.close()
        assert clock.now() - start == pytest.approx(batch_of_one, abs=1e-12)

    def test_no_delay_timing_is_instant(self):
        clock = ManualClock()
        env = RfidEnvironment(clock=clock, timing=NO_DELAY)
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        port.read_ndef(tag)
        assert clock.now() == 0.0


class TestBeam:
    def test_beam_requires_peer(self, env):
        port = env.create_port("a")
        with pytest.raises(BeamError):
            port.beam(msg())

    def test_beam_delivers_to_peer_handler(self, env):
        a = env.create_port("a")
        b = env.create_port("b")
        received = []
        b.set_beam_handler(lambda sender, m: received.append((sender, m)))
        env.bring_together(a, b)
        delivered = a.beam(msg(b"ping"))
        assert delivered == ["b"]
        assert received == [("a", msg(b"ping"))]

    def test_beam_without_receiver_handler_fails(self, env):
        a = env.create_port("a")
        b = env.create_port("b")
        env.bring_together(a, b)
        with pytest.raises(BeamError):
            a.beam(msg())

    def test_beam_tear(self, env):
        a = env.create_port("a", link=ScriptedLink([False]))
        b = env.create_port("b")
        b.set_beam_handler(lambda sender, m: None)
        env.bring_together(a, b)
        with pytest.raises(TagLostError):
            a.beam(msg())

    def test_beam_reaches_all_peers(self, env):
        a = env.create_port("a")
        b = env.create_port("b")
        c = env.create_port("c")
        got = []
        b.set_beam_handler(lambda s, m: got.append("b"))
        c.set_beam_handler(lambda s, m: got.append("c"))
        env.bring_together(a, b)
        env.bring_together(a, c)
        assert sorted(a.beam(msg())) == ["b", "c"]
        assert sorted(got) == ["b", "c"]

    def test_set_link_swaps_model(self, env):
        port = env.create_port("p")
        tag = make_tag()
        env.move_tag_into_field(tag, port)
        port.set_link(ScriptedLink([False], default=False))
        with pytest.raises(TagLostError):
            port.read_ndef(tag)


# -- one transfer, pinned case by case --------------------------------------------

PIN_TIMING = TransferTiming(base_seconds=0.01, seconds_per_byte=1e-4, connect_share=0.5)
PIN_UID = bytes.fromhex("04a1b2c3d4e5f6")
PIN_PAYLOAD = msg(b"pinned replacement payload")
SELECT_NDEF = CommandApdu(0x00, INS_SELECT, 0x04, 0x00, data=NDEF_AID).to_bytes()


class VetoingEnvironment(RfidEnvironment):
    """Counts the attempt-veto hook's calls and vetoes once ``veto`` is set."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.veto = False
        self.veto_calls = 0

    def attempt_allowed(self, port, tag):
        self.veto_calls += 1
        return not self.veto


class LeavingClock(ManualClock):
    """A ManualClock that takes a tag out of the field as its next sleep ends."""

    def __init__(self):
        super().__init__()
        self.leave = None  # (environment, tag, port) for the next sleep

    def sleep(self, seconds):
        super().sleep(seconds)
        if self.leave is not None:
            env, tag, port = self.leave
            self.leave = None
            env.remove_tag_from_field(tag, port)


def type2_tag():
    return make_tag(content=msg(b"original tag content"), uid=PIN_UID)


def type4_tag():
    return make_type4_tag(content=msg(b"original tag content"), uid=PIN_UID)


def tag_state(tag):
    if hasattr(tag, "raw_dump"):
        return tag.raw_dump()
    return bytes(tag._ndef_file), tag.apdu_count, tag._app_selected  # noqa: SLF001


# name: (new tag, attempt counter, bytes moved, the op on a port or session,
#        the same effect applied to a tag directly)
PIN_OPS = {
    "read": (
        type2_tag, "read_attempts", lambda tag: tag.tag_type.user_bytes,
        lambda io, tag: io.read_ndef(tag), lambda tag: tag.read_ndef(),
    ),
    "write": (
        type2_tag, "write_attempts", lambda tag: PIN_PAYLOAD.byte_length,
        lambda io, tag: io.write_ndef(tag, PIN_PAYLOAD),
        lambda tag: tag.write_ndef(PIN_PAYLOAD),
    ),
    "format": (
        type2_tag, "format_attempts", lambda tag: 16,
        lambda io, tag: io.format_tag(tag), lambda tag: tag.format(),
    ),
    "lock": (
        type2_tag, "lock_attempts", lambda tag: 8,
        lambda io, tag: io.make_read_only(tag), lambda tag: tag.make_read_only(),
    ),
    "transceive": (
        type4_tag, None, lambda tag: len(SELECT_NDEF) + 32,
        lambda io, tag: io.transceive(tag, SELECT_NDEF),
        lambda tag: tag.process_apdu(SELECT_NDEF),
    ),
}

# case: (exception, link decisions consumed, veto-hook calls, latency
#        charged, what the tag holds afterwards)
PIN_CASES = {
    "success": (None, 1, 1, True, "effect"),
    "absent": (NotInFieldError, 0, 0, False, "unchanged"),
    "leaves": (TagLostError, 0, 0, True, "unchanged"),
    "link_tear": (TagLostError, 1, 0, True, "unchanged"),
    "veto": (TagLostError, 1, 1, True, "unchanged"),
    "corrupt_tear": (TagLostError, 1, 0, True, "torn"),
    "leaves_corrupt": (TagLostError, 0, 0, True, "torn"),
}

PIN_TABLE = [
    (op, path, case)
    for op in PIN_OPS
    for path in (("standalone",) if op == "transceive" else ("standalone", "session"))
    for case in PIN_CASES
    if op == "write" or "corrupt" not in case
]


class TestTransferPinning:
    """Every tag transfer, standalone and inside a session, case by case
    on a ManualClock: time charged, link decisions, counters, the error
    raised and what the tag holds afterwards."""

    @pytest.mark.parametrize(
        "op,path,case", PIN_TABLE, ids=["-".join(row) for row in PIN_TABLE]
    )
    def test_transfer(self, op, path, case):
        new_tag, counter, byte_count, run, effect = PIN_OPS[op]
        error, link_calls, veto_calls, charged, after = PIN_CASES[case]
        clock = LeavingClock()
        env = VetoingEnvironment(clock=clock, timing=PIN_TIMING)
        # Two scripted decisions, so a second one taken would show.
        link = ScriptedLink([not case.endswith("tear"), True])
        port = env.create_port("p", link=link)
        port.corrupt_on_tear = "corrupt" in case
        tag = new_tag()
        env.move_tag_into_field(tag, port)
        io = port if path == "standalone" else port.open_session(tag)

        twin = new_tag()
        expected_result = effect(twin) if after == "effect" else None
        if after == "torn":
            twin._tear_write_hook(PIN_PAYLOAD)  # noqa: SLF001 - the reference tear
        expected_state = tag_state(tag if after == "unchanged" else twin)

        if case == "absent":
            env.remove_tag_from_field(tag, port)
        elif case.startswith("leaves"):
            clock.leave = (env, tag, port)
        env.veto = case == "veto"
        start = clock.now()
        connects = port.connects
        attempts = getattr(port, counter) if counter else None

        if error is None:
            assert run(io, tag) == expected_result
        else:
            with pytest.raises(error):
                run(io, tag)

        seconds = 0.0
        if charged:
            seconds = (
                PIN_TIMING.operation_seconds(byte_count(tag))
                if path == "standalone"
                else PIN_TIMING.batched_operation_seconds(byte_count(tag))
            )
        assert clock.now() - start == pytest.approx(seconds, abs=1e-12)
        assert link.consumed == link_calls
        assert env.veto_calls == veto_calls
        assert port.connects - connects == (1 if path == "standalone" else 0)
        if counter:
            assert getattr(port, counter) - attempts == 1
        assert tag_state(tag) == expected_state
        if path == "session":
            assert io.alive == (error is None)
            assert io.operations == (1 if error is None else 0)
