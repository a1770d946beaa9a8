"""The per-port radio transaction scheduler: batched tap windows.

Co-located references (several references bound to one tag on one
device) share a single connect/anticollision round per tap window
instead of paying it per operation. The batching must be invisible to
semantics: per-reference FIFO, global enqueue order across references,
fences (reads, raw writes, locks, formats) never reordered, partial
batches settled honestly when the link tears mid-window.
"""

import pytest

from repro.android.device import AndroidDevice
from repro.android.nfc.tech import Tag
from repro.concurrent import EventLog, wait_until
from repro.core.reference import TagReference
from repro.radio.environment import RfidEnvironment
from repro.radio.link import ScriptedLink
from repro.radio.timing import NO_DELAY, NOMINAL, TransferTiming

from tests.conftest import (
    PlainNfcActivity,
    string_converters,
    text_message,
    text_tag,
)


def co_located_refs(activity, tag, phone, count):
    """``count`` distinct references to one tag (bypasses the
    per-activity identity map -- think one reference per activity, all
    sharing the device's radio)."""
    read_conv, write_conv = string_converters()
    return [
        TagReference(Tag(tag, phone.port), activity, read_conv, write_conv)
        for _ in range(count)
    ]


@pytest.fixture
def tag():
    return text_tag("seed")


class TestSessionTiming:
    def test_split_is_a_refinement_not_a_change(self):
        timing = TransferTiming(base_seconds=0.02, seconds_per_byte=1e-4)
        for n_bytes in (0, 1, 137):
            assert timing.connect_seconds + timing.batched_operation_seconds(
                n_bytes
            ) == pytest.approx(timing.operation_seconds(n_bytes))

    def test_no_delay_stays_free(self):
        assert NO_DELAY.connect_seconds == 0.0
        assert NO_DELAY.batched_operation_seconds(1000) == 0.0

    def test_connect_dominates_nominal(self):
        # The whole point: the once-per-window share is the big one.
        assert NOMINAL.connect_seconds > NOMINAL.per_op_seconds


class TestBatchedWindow:
    def test_one_connect_serves_all_colocated_references(
        self, scenario, phone, activity, tag
    ):
        refs = co_located_refs(activity, tag, phone, 8)
        done = EventLog()
        for index, ref in enumerate(refs):
            ref.write(f"v{index}", on_written=lambda _r, i=index: done.append(i))
        connects_before = phone.port.connects
        scheduler = phone.tx_scheduler
        windows_before = scheduler.windows
        scenario.put(tag, phone)
        assert done.wait_for_count(8)
        assert phone.port.connects - connects_before == 1
        assert scheduler.windows - windows_before == 1
        assert scheduler.max_batch >= 8

    def test_global_enqueue_order_across_references(
        self, scenario, phone, activity, tag
    ):
        a, b = co_located_refs(activity, tag, phone, 2)
        order = EventLog()
        a.write("a1", on_written=lambda _r: order.append("a1"))
        b.write("b1", on_written=lambda _r: order.append("b1"))
        a.write("a2", on_written=lambda _r: order.append("a2"))
        b.write("b2", on_written=lambda _r: order.append("b2"))
        scenario.put(tag, phone)
        assert order.wait_for_count(4)
        assert order.snapshot() == ["a1", "b1", "a2", "b2"]

    def test_per_reference_fifo_survives_batching(
        self, scenario, phone, activity, tag
    ):
        (ref,) = co_located_refs(activity, tag, phone, 1)
        order = EventLog()
        ref.write("w1", on_written=lambda _r: order.append("w1"))
        ref.write("w2", on_written=lambda _r: order.append("w2"))
        ref.read(on_read=lambda r: order.append("read"))
        ref.write("w3", on_written=lambda _r: order.append("w3"))
        scenario.put(tag, phone)
        assert order.wait_for_count(4)
        assert order.snapshot() == ["w1", "w2", "read", "w3"]
        assert wait_until(lambda: tag.read_ndef()[0].payload == b"w3")

    def test_batched_ops_counted(self, scenario, phone, activity, tag):
        refs = co_located_refs(activity, tag, phone, 3)
        done = EventLog()
        scheduler = phone.tx_scheduler
        before = scheduler.batched_ops
        for ref in refs:
            ref.write("x", on_written=lambda _r: done.append(1))
        scenario.put(tag, phone)
        assert done.wait_for_count(3)
        assert scheduler.batched_ops - before == 3


class TestFences:
    def test_raw_write_fences_other_references(
        self, scenario, phone, activity, tag
    ):
        """w1 | FENCE(raw) | w2: w2 is enqueued after the fence and must
        not overtake it, even though it belongs to another reference."""
        a, b = co_located_refs(activity, tag, phone, 2)
        order = EventLog()
        a.write("w1", on_written=lambda _r: order.append("w1"))
        b.write_raw(
            text_message("guard-record"),
            on_written=lambda _r: order.append("fence"),
        )
        a.write("w2", on_written=lambda _r: order.append("w2"))
        scenario.put(tag, phone)
        assert order.wait_for_count(3)
        assert order.snapshot() == ["w1", "fence", "w2"]

    def test_read_fence_waits_for_older_writes_of_other_references(
        self, scenario, phone, activity, tag
    ):
        a, b = co_located_refs(activity, tag, phone, 2)
        order = EventLog()
        a.write("payload", on_written=lambda _r: order.append("write"))
        b.read(on_read=lambda r: order.append(("read", r.cached)))
        scenario.put(tag, phone)
        assert order.wait_for_count(2)
        # The read ran after the older write and observed its payload.
        assert order.snapshot() == ["write", ("read", "payload")]


class TestPartialBatch:
    def test_torn_transfer_splits_the_window(self, scenario, activity, tag):
        """A mid-batch tear settles what landed, keeps the torn
        operation queued, and reconnects for the rest."""
        phone = scenario.add_phone(
            "tear-phone", link=ScriptedLink([True, False], default=True)
        )
        app = scenario.start(phone, PlainNfcActivity)
        refs = co_located_refs(app, tag, phone, 3)
        done = EventLog()
        for index, ref in enumerate(refs):
            ref.write(f"v{index}", on_written=lambda _r, i=index: done.append(i))
        connects_before = phone.port.connects
        scenario.put(tag, phone)
        assert done.wait_for_count(3)
        # The tear cost at least one reconnect, but batching still beat
        # three standalone rounds... unless the retry landed third.
        assert phone.port.connects - connects_before >= 2
        for ref in refs:
            assert ref.successes == 1


class TestLifecycle:
    def test_stop_unregisters_from_the_scheduler(
        self, scenario, phone, activity, tag
    ):
        a, b = co_located_refs(activity, tag, phone, 2)
        scheduler = phone.tx_scheduler
        assert len(scheduler.references_for(tag)) == 2
        a.stop()
        assert scheduler.references_for(tag) == [b]
        b.stop()
        assert scheduler.references_for(tag) == []

    def test_last_unregister_discards_stale_ready_key(
        self, scenario, phone, activity, tag
    ):
        """A departed tag must not leave a runnable key behind: stale
        keys wake workers for empty batches forever."""
        (ref,) = co_located_refs(activity, tag, phone, 1)
        scheduler = phone.tx_scheduler
        scenario.put(tag, phone)
        done = EventLog()
        ref.write("bye", on_written=lambda _r: done.append(1))
        assert done.wait_for_count(1)
        scheduler._ready.mark(tag)  # simulate a wakeup racing the stop
        ref.stop()
        assert scheduler.references_for(tag) == []
        assert [key for key, _ in scheduler._ready.snapshot()] == []

    def test_shutdown_closes_the_scheduler(self):
        env = RfidEnvironment()
        device = AndroidDevice("closer", env)
        scheduler = device.tx_scheduler  # force creation
        device.shutdown()
        assert scheduler._closed
        # Idempotent, and registration after close is refused.
        scheduler.close()

    def test_work_enqueued_while_present_drains_promptly(
        self, scenario, phone, activity, tag
    ):
        scenario.put(tag, phone)
        (ref,) = co_located_refs(activity, tag, phone, 1)
        done = EventLog()
        ref.write("live", on_written=lambda _r: done.append(1))
        assert done.wait_for_count(1)
        assert wait_until(lambda: tag.read_ndef()[0].payload == b"live")
