"""Property-based tests of the tag-reference queue semantics.

The paper guarantees (per-reference FIFO, newest write lands, reads
observe earlier writes) run on both reactor backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.device import AndroidDevice
from repro.concurrent import EventLog
from repro.radio.environment import RfidEnvironment
from repro.radio.link import ScriptedLink

from tests.conftest import PlainNfcActivity, make_reference, text_tag

# Each step: (payload index written, whether the link tears on that attempt)
write_scripts = st.lists(
    st.tuples(st.booleans()), min_size=1, max_size=8
)

REACTOR_MODES = ("threaded", "asyncio")


@pytest.mark.parametrize("reactor_mode", REACTOR_MODES)
@given(
    payload_count=st.integers(min_value=1, max_value=8),
    tear_pattern=st.lists(st.booleans(), min_size=0, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_queue_order_and_last_write_wins(reactor_mode, payload_count, tear_pattern):
    """Whatever tear pattern the link throws, successes arrive in schedule
    order and the tag ends holding the last scheduled write."""
    env = RfidEnvironment()
    phone = AndroidDevice("prop-phone", env, reactor_mode=reactor_mode)
    try:
        activity = phone.start_activity(PlainNfcActivity)
        # Tears from the pattern, then a clean link so everything finishes.
        phone.port.set_link(
            ScriptedLink([not tear for tear in tear_pattern], default=True)
        )
        tag = text_tag("seed")
        env.move_tag_into_field(tag, phone.port)
        reference = make_reference(activity, tag, phone)
        done = EventLog()
        for index in range(payload_count):
            reference.write(
                f"payload-{index}",
                on_written=lambda r, i=index: done.append(i),
                timeout=30.0,
            )
        assert done.wait_for_count(payload_count, timeout=10)
        assert done.snapshot() == list(range(payload_count))
        assert tag.read_ndef()[0].payload == f"payload-{payload_count - 1}".encode()
        assert reference.pending_count == 0
    finally:
        phone.shutdown()


@pytest.mark.parametrize("reactor_mode", REACTOR_MODES)
@given(
    reads=st.integers(min_value=0, max_value=4),
    writes=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_interleaved_reads_observe_program_order(reactor_mode, reads, writes):
    """A read scheduled after a write always observes that write (or later)."""
    env = RfidEnvironment()
    phone = AndroidDevice("order-phone", env, reactor_mode=reactor_mode)
    try:
        activity = phone.start_activity(PlainNfcActivity)
        tag = text_tag("initial")
        env.move_tag_into_field(tag, phone.port)
        reference = make_reference(activity, tag, phone)
        observations = EventLog()
        expected_count = 0
        for index in range(writes):
            reference.write(f"w{index}", timeout=30.0)
            for _ in range(reads):
                expected_count += 1
                reference.read(
                    on_read=lambda r, i=index: observations.append((i, r.cached)),
                    timeout=30.0,
                )
        assert observations.wait_for_count(expected_count, timeout=10)
        for written_index, observed in observations.snapshot():
            observed_index = int(observed[1:])
            assert observed_index >= written_index
    finally:
        phone.shutdown()


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_stop_leaves_no_thread_behind(operation_count):
    """stop() always retires the logical event loop, queue drained or not.

    A reference owns no thread: its loop is a task on the device's
    shared reactor, cancelled by stop().
    """
    env = RfidEnvironment()
    phone = AndroidDevice("stop-phone", env)
    try:
        activity = phone.start_activity(PlainNfcActivity)
        tag = text_tag("x")  # never in the field: everything stays queued
        reference = make_reference(activity, tag, phone)
        for index in range(operation_count):
            reference.write(f"w{index}")
        reference.stop()
        assert reference.is_stopped
        assert reference.pending_count == 0
    finally:
        phone.shutdown()
