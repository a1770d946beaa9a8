"""Tests for the tag reference: queueing, retries, ordering, timeouts.

These encode the paper's section 3.2 semantics directly:
asynchronous-only I/O, silent retry while disconnected, in-order
processing, timeout -> failure listener, listeners on the main thread,
cached content for synchronous access.
"""

import threading

import pytest

from repro.concurrent import EventLog, wait_until
from repro.core.operations import OperationOutcome
from repro.errors import MorenaError, ReferenceStoppedError
from repro.harness.scenario import Scenario
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.link import FlakyThenGoodLink, ScriptedLink
from repro.radio.transport import RelayTransport
from repro.tags.factory import make_tag

from tests.conftest import (
    TEXT_TYPE,
    PlainNfcActivity,
    make_reference,
    text_message,
    text_tag,
)


@pytest.fixture
def tag():
    return text_tag("initial")


@pytest.fixture
def ref(scenario, phone, activity, tag):
    scenario.put(tag, phone)
    return make_reference(activity, tag, phone)


class TestRead:
    def test_read_invokes_success_listener_with_reference(self, ref):
        log = EventLog()
        ref.read(on_read=lambda r: log.append(r))
        assert log.wait_for_count(1)
        assert log.snapshot() == [ref]
        assert ref.cached == "initial"

    def test_read_updates_cached_message(self, ref):
        ref.read()
        assert wait_until(lambda: ref.cached_message == text_message("initial"))
        assert ref.has_cache

    def test_listener_runs_on_main_thread(self, ref, phone):
        log = EventLog()
        ref.read(on_read=lambda r: log.append(threading.current_thread().name))
        assert log.wait_for_count(1)
        assert log.snapshot() == [f"looper-{phone.name}-main"]

    def test_statements_after_call_run_before_listener(self, ref, phone):
        """Paper 3.2: code after an async call usually runs before listeners."""
        log = EventLog()

        def on_main():
            ref.read(on_read=lambda r: log.append("listener"))
            log.append("after-call")

        phone.main_looper.post(on_main)
        assert log.wait_for_count(2)
        assert log.snapshot() == ["after-call", "listener"]

    def test_listener_nesting_synchronizes(self, ref, tag):
        """Paper 3.2: synchronization happens by nesting listeners."""
        log = EventLog()

        def after_write(r):
            r.read(on_read=lambda r2: log.append(("read", r2.cached)))

        ref.write("nested", on_written=after_write)
        assert log.wait_for_count(1)
        assert log.snapshot() == [("read", "nested")]


class TestWrite:
    def test_write_reaches_tag(self, ref, tag):
        log = EventLog()
        ref.write("updated", on_written=lambda r: log.append("ok"))
        assert log.wait_for_count(1)
        assert tag.read_ndef()[0].payload == b"updated"

    def test_write_updates_cache_with_original_object(self, ref):
        log = EventLog()
        ref.write("cached-value", on_written=lambda r: log.append(r.cached))
        assert log.wait_for_count(1)
        assert log.snapshot() == ["cached-value"]

    def test_write_converts_at_call_time(self, ref, tag):
        """The value written is the value at call time."""
        value = ["mutable"]
        log = EventLog()
        ref.write(str(value), on_written=lambda r: log.append("done"))
        value.append("changed later")
        assert log.wait_for_count(1)
        assert b"changed later" not in tag.read_ndef()[0].payload

    def test_operation_object_tracks_outcome(self, ref):
        operation = ref.write("x")
        assert wait_until(lambda: operation.outcome is OperationOutcome.SUCCEEDED)
        assert operation.attempts >= 1


class TestDecouplingInTime:
    def test_write_while_disconnected_completes_on_reconnect(
        self, scenario, phone, ref, tag
    ):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("late", on_written=lambda r: log.append("written"))
        assert not log.wait_for_count(1, timeout=0.1)  # still queued
        assert ref.pending_count == 1
        scenario.put(tag, phone)
        assert log.wait_for_count(1)
        assert tag.read_ndef()[0].payload == b"late"

    def test_multiple_writes_batch_until_reconnect(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        for index in range(5):
            ref.write(f"value-{index}", on_written=lambda r: log.append("w"))
        assert ref.pending_count == 5
        scenario.put(tag, phone)
        assert log.wait_for_count(5)
        assert tag.read_ndef()[0].payload == b"value-4"

    def test_transient_link_failures_retry_silently(
        self, scenario, phone, activity
    ):
        tag = text_tag("flaky")
        phone.port.set_link(FlakyThenGoodLink(3))
        scenario.put(tag, phone)
        ref = make_reference(activity, tag, phone)
        log = EventLog()
        failures = EventLog()
        ref.read(
            on_read=lambda r: log.append(r.cached),
            on_failed=lambda r: failures.append("failed"),
        )
        assert log.wait_for_count(1, timeout=5)
        assert log.snapshot() == ["flaky"]
        assert len(failures) == 0
        assert ref.attempts >= 4  # three tears + one success

    def test_operation_survives_mid_queue_disconnect(
        self, scenario, phone, ref, tag
    ):
        """Tag leaves between two queued writes; both eventually land."""
        log = EventLog()
        ref.write("first", on_written=lambda r: log.append("first"))
        assert log.wait_for_count(1)
        scenario.take(tag, phone)
        ref.write("second", on_written=lambda r: log.append("second"))
        scenario.put(tag, phone)
        assert log.wait_for_count(2)
        assert tag.read_ndef()[0].payload == b"second"


class TestOrdering:
    def test_operations_processed_in_scheduling_order(self, ref, tag):
        log = EventLog()
        for index in range(10):
            ref.write(f"v{index}", on_written=lambda r, i=index: log.append(i))
        assert log.wait_for_count(10)
        assert log.snapshot() == list(range(10))

    def test_read_sees_preceding_write(self, ref):
        log = EventLog()
        ref.write("before-read")
        ref.read(on_read=lambda r: log.append(r.cached))
        assert log.wait_for_count(1)
        assert log.snapshot() == ["before-read"]

    def test_format_then_write_initializes_blank_tag(
        self, scenario, phone, activity
    ):
        blank = make_tag(formatted=False)
        scenario.put(blank, phone)
        ref = make_reference(activity, blank, phone)
        log = EventLog()
        ref.format()
        ref.write("fresh", on_written=lambda r: log.append("ok"))
        assert log.wait_for_count(1)
        assert blank.is_ndef_formatted
        assert blank.read_ndef()[0].payload == b"fresh"


class TestTimeouts:
    def test_timeout_fires_failure_listener(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("never", on_failed=lambda r: log.append("timeout"), timeout=0.15)
        assert log.wait_for_count(1, timeout=3)
        assert ref.pending_count == 0
        assert ref.timeouts == 1

    def test_timeout_of_queued_operation_behind_head(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("head", on_failed=lambda r: log.append("head-failed"), timeout=5.0)
        ref.write("tail", on_failed=lambda r: log.append("tail-failed"), timeout=0.1)
        assert log.wait_for(lambda e: "tail-failed" in e, timeout=3)
        assert "head-failed" not in log.snapshot()
        assert ref.pending_count == 1  # the head is still queued

    def test_success_after_timeout_of_earlier_op(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("doomed", on_failed=lambda r: log.append("t"), timeout=0.1)
        ref.write("survives", on_written=lambda r: log.append("ok"), timeout=10.0)
        assert log.wait_for(lambda e: "t" in e, timeout=3)
        scenario.put(tag, phone)
        assert log.wait_for(lambda e: "ok" in e, timeout=3)
        assert tag.read_ndef()[0].payload == b"survives"

    def test_zero_timeout_rejected(self, ref):
        with pytest.raises(MorenaError):
            ref.read(timeout=0)


class TestPermanentFailures:
    def test_capacity_error_fails_immediately_without_retry(
        self, scenario, phone, activity
    ):
        small = make_tag("MIFARE_ULTRALIGHT")
        scenario.put(small, phone)
        ref = make_reference(activity, small, phone)
        log = EventLog()
        ref.write("x" * 500, on_failed=lambda r: log.append("failed"), timeout=30.0)
        assert log.wait_for_count(1, timeout=3)
        assert ref.permanent_failures == 1

    def test_read_only_tag_fails_writes_immediately(
        self, scenario, phone, activity
    ):
        tag = text_tag("locked")
        tag.make_read_only()
        scenario.put(tag, phone)
        ref = make_reference(activity, tag, phone)
        log = EventLog()
        operation = ref.write("nope", on_failed=lambda r: log.append("failed"))
        assert log.wait_for_count(1, timeout=3)
        assert operation.outcome is OperationOutcome.FAILED

    def test_converter_error_settles_before_enqueue(self, ref):
        """A write whose object cannot be converted fails synchronously-ish."""
        from repro.core.converters import ObjectToNdefMessageConverter
        from repro.errors import ConverterError

        class Rejecting(ObjectToNdefMessageConverter):
            def convert(self, obj):
                raise ConverterError("nope")

        ref._write_converter = Rejecting()
        log = EventLog()
        operation = ref.write("anything", on_failed=lambda r: log.append("failed"))
        assert operation.outcome is OperationOutcome.FAILED
        assert log.wait_for_count(1)
        assert ref.pending_count == 0

    def test_permanent_failure_does_not_block_queue(self, scenario, phone, activity):
        small = make_tag("MIFARE_ULTRALIGHT")
        scenario.put(small, phone)
        ref = make_reference(activity, small, phone)
        log = EventLog()
        ref.write("y" * 500, on_failed=lambda r: log.append("big-failed"))
        ref.write("ok", on_written=lambda r: log.append("small-ok"))
        assert log.wait_for_count(2, timeout=3)
        assert small.read_ndef()[0].payload == b"ok"


class TestConnectivity:
    def test_is_connected_tracks_field(self, scenario, phone, ref, tag):
        assert ref.is_connected
        scenario.take(tag, phone)
        assert not ref.is_connected

    def test_connectivity_listeners_fire_on_changes(self, scenario, phone, ref, tag):
        log = EventLog()
        ref.add_connectivity_listener(lambda r, connected: log.append(connected))
        scenario.take(tag, phone)
        scenario.put(tag, phone)
        assert log.wait_for_count(2)
        assert log.snapshot() == [False, True]

    def test_removed_connectivity_listener_is_silent(self, scenario, phone, ref, tag):
        log = EventLog()
        listener = lambda r, c: log.append(c)  # noqa: E731
        ref.add_connectivity_listener(listener)
        ref.remove_connectivity_listener(listener)
        scenario.take(tag, phone)
        assert phone.sync()
        assert len(log) == 0

    def test_field_event_racing_construction_reaches_the_reference(
        self, scenario, phone, activity, monkeypatch
    ):
        """A tag entering the field the moment the reference registers
        with the port scheduler must not crash the dispatching thread:
        every slot the scheduler's routing reads is set before the
        reference registers."""
        tag = text_tag("racing")
        register = phone.tx_scheduler.register

        def register_then_enter(reference):
            register(reference)
            scenario.put(tag, phone)

        monkeypatch.setattr(phone.tx_scheduler, "register", register_then_enter)
        reference = make_reference(activity, tag, phone)
        assert reference.is_connected
        done = EventLog()
        reference.write("landed", on_written=lambda r: done.append(1))
        assert done.wait_for_count(1)
        assert tag.read_ndef()[0].payload == b"landed"

    def test_bulk_cohort_moves_fire_each_listener_once_per_transition(
        self, scenario, phone, activity
    ):
        tags = [text_tag(f"cohort-{index}") for index in range(5)]
        scenario.put_all(tags, phone)
        logs = [EventLog() for _ in tags]
        for tag, log in zip(tags, logs):
            make_reference(activity, tag, phone).add_connectivity_listener(
                lambda r, connected, log=log: log.append(connected)
            )
        scenario.take_all(tags, phone)
        scenario.take_all(tags, phone)  # already gone: no transition
        scenario.put_all(tags, phone)
        scenario.put_all(tags, phone)  # already back: no transition
        assert phone.sync()
        assert [log.snapshot() for log in logs] == [[False, True]] * len(tags)

    def test_relayed_field_moves_reach_the_reader_reference(self):
        with Scenario(transport=RelayTransport()) as relayed:
            reader = relayed.add_phone("reader")
            remote = relayed.add_phone("remote")
            app = relayed.start(reader, PlainNfcActivity)
            tag = text_tag("relayed")
            relayed.put(tag, remote)
            reference = make_reference(app, tag, reader)
            assert not reference.is_connected
            log = EventLog()
            reference.add_connectivity_listener(lambda r, c: log.append(c))
            relayed.env.pair_fields(reader.port, remote.port)
            relayed.env.unpair_fields(reader.port, remote.port)
            assert reader.sync()
            assert log.snapshot() == [True, False]

    def test_stopped_reference_hears_no_later_moves(self, scenario, phone, ref, tag):
        log = EventLog()
        ref.add_connectivity_listener(lambda r, c: log.append(c))
        ref.stop()
        scenario.take(tag, phone)
        scenario.put_all([tag], phone)
        scenario.take_all([tag], phone)
        assert phone.sync()
        assert len(log) == 0

    def test_references_of_two_activities_to_one_tag_both_hear_moves(
        self, scenario, phone, tag
    ):
        scenario.put(tag, phone)
        apps = [scenario.start(phone, PlainNfcActivity) for _ in range(2)]
        references = [make_reference(app, tag, phone) for app in apps]
        assert references[0] is not references[1]
        assert phone.tx_scheduler.references_for(tag) == references
        logs = [EventLog() for _ in references]
        for reference, log in zip(references, logs):
            reference.add_connectivity_listener(
                lambda r, connected, log=log: log.append(connected)
            )
        scenario.take(tag, phone)
        scenario.put(tag, phone)
        assert phone.sync()
        assert [log.snapshot() for log in logs] == [[False, True], [False, True]]


class TestStop:
    def test_stop_cancels_pending(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        operation = ref.write("never")
        ref.stop()
        assert ref.is_stopped
        assert operation.outcome is OperationOutcome.CANCELLED
        assert ref.pending_count == 0

    def test_stop_notify_pending_fires_failure_listeners(
        self, scenario, phone, ref, tag
    ):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("never", on_failed=lambda r: log.append("cancelled"))
        ref.stop(notify_pending=True)
        assert log.wait_for_count(1)

    def test_stop_without_notify_is_silent(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("never", on_failed=lambda r: log.append("cancelled"))
        ref.stop()
        assert phone.sync()
        assert len(log) == 0

    def test_enqueue_after_stop_rejected(self, ref):
        ref.stop()
        with pytest.raises(ReferenceStoppedError):
            ref.read()

    def test_stop_is_idempotent(self, ref):
        ref.stop()
        ref.stop()


class TestRawOperations:
    def test_read_raw_updates_only_message_cache(self, ref, tag):
        log = EventLog()
        ref.read(on_read=lambda r: log.append("primed"))
        assert log.wait_for_count(1)
        tag.write_ndef(text_message("changed behind our back"))
        ref.read_raw(on_read=lambda r: log.append("raw"))
        assert log.wait_for_count(2)
        assert ref.cached == "initial"  # object cache untouched
        assert ref.cached_message == text_message("changed behind our back")

    def test_write_raw_bypasses_converter(self, ref, tag):
        log = EventLog()
        message = NdefMessage([mime_record("x/y", b"raw bytes")])
        ref.write_raw(message, on_written=lambda r: log.append("ok"))
        assert log.wait_for_count(1)
        assert tag.read_ndef() == message
        assert ref.cached_message == message

    def test_write_raw_requires_message(self, ref):
        with pytest.raises(MorenaError):
            ref.write_raw("not a message")

    def test_raw_ops_share_the_ordered_queue(self, scenario, phone, ref, tag):
        scenario.take(tag, phone)
        log = EventLog()
        ref.write("converted", on_written=lambda r: log.append("a"))
        ref.write_raw(text_message("raw"), on_written=lambda r: log.append("b"))
        scenario.put(tag, phone)
        assert log.wait_for_count(2)
        assert log.snapshot() == ["a", "b"]
        assert tag.read_ndef() == text_message("raw")


class TestLock:
    def test_make_read_only_async(self, ref, tag):
        log = EventLog()
        ref.make_read_only(on_locked=lambda r: log.append("locked"))
        assert log.wait_for_count(1)
        assert not tag.is_writable

    def test_write_after_lock_fails_permanently(self, ref, tag):
        log = EventLog()
        ref.make_read_only()
        ref.write("nope", on_failed=lambda r: log.append("denied"))
        assert log.wait_for_count(1)
