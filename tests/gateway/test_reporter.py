"""GatewayReporter: coalescing, bounded buffering, flushing, middleware hooks."""

import asyncio

import pytest

from repro.clock import ManualClock
from repro.concurrent import EventLog, wait_until
from repro.core.aio import tag_stream
from repro.core.discovery import TagDiscoverer
from repro.core.scheduler import Reactor
from repro.gateway import FleetGateway
from repro.gateway.reporter import GatewayReporter
from repro.leasing.manager import LeaseManager

from tests.conftest import (
    TEXT_TYPE,
    PlainNfcActivity,
    make_reference,
    string_converters,
    text_tag,
)
from tests.gateway.test_gateway import InertReactor


class SinkGateway:
    """A gateway double that keeps the delivered batches and what
    reporters hand it: registrations, stream sources and shed counts."""

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else ManualClock()
        self.batches = []
        self.reporters = []
        self.stream_sources = []
        self.reporter_drops = 0

    def register_reporter(self, reporter):
        self.reporters.append(reporter)

    def register_stream_source(self, reporter):
        self.stream_sources.append(reporter)

    def count_reporter_drops(self, count):
        self.reporter_drops += count

    def submit_batch(self, events):
        self.batches.append(list(events))

    @property
    def delivered(self):
        return [event for batch in self.batches for event in batch]


class TestBuffering:
    def test_coalesces_identical_bursts(self):
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        for _ in range(5):
            reporter.record("scan", "tag-1", detail="detected")
        assert reporter.pending == 1
        assert reporter.coalesced == 4
        assert reporter.recorded == 5
        reporter.flush()
        (event,) = sink.delivered
        assert event.count == 5

    def test_distinct_events_do_not_coalesce(self):
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.record("scan", "tag-1")
        reporter.record("scan", "tag-2")
        reporter.record("save", "tag-2")
        assert reporter.pending == 3
        assert reporter.coalesced == 0

    def test_coalesce_opt_out(self):
        sink = SinkGateway()
        reporter = GatewayReporter(
            sink, "gate-0", flush_interval=None, coalesce=False
        )
        reporter.record("scan", "tag-1")
        reporter.record("scan", "tag-1")
        assert reporter.pending == 2

    def test_overflow_sheds_oldest_and_counts(self):
        sink = SinkGateway()
        reporter = GatewayReporter(
            sink, "gate-0", max_buffer=3, max_batch=100, flush_interval=None
        )
        for index in range(5):
            reporter.record("scan", f"tag-{index}")
        assert reporter.pending == 3
        assert reporter.dropped == 2  # tag-0 and tag-1 shed
        assert sink.reporter_drops == 2  # handed to the gateway as they happen
        reporter.flush()
        assert [e.tag_uid for e in sink.delivered] == ["tag-2", "tag-3", "tag-4"]

    def test_dropped_counts_coalesced_weight(self):
        """A shed record pays for every event folded into it."""
        sink = SinkGateway()
        reporter = GatewayReporter(
            sink, "gate-0", max_buffer=1, max_batch=100, flush_interval=None
        )
        for _ in range(4):
            reporter.record("scan", "tag-0")  # coalesces: one record, count=4
        reporter.record("scan", "tag-1")  # evicts it
        assert reporter.dropped == 4
        assert sink.reporter_drops == 4

    def test_dropped_is_monotonic_across_flushes(self):
        sink = SinkGateway()
        reporter = GatewayReporter(
            sink, "gate-0", max_buffer=1, max_batch=100, flush_interval=None
        )
        reporter.record("scan", "tag-0")
        reporter.record("scan", "tag-1")
        assert reporter.dropped == 1
        reporter.flush()
        reporter.record("scan", "tag-2")
        reporter.record("scan", "tag-3")
        assert reporter.dropped == 2

    def test_threshold_flushes_inline_without_reactor(self):
        sink = SinkGateway()
        reporter = GatewayReporter(
            sink, "gate-0", max_batch=3, flush_interval=None
        )
        reporter.record("scan", "tag-0")
        reporter.record("scan", "tag-1")
        assert not sink.batches
        reporter.record("scan", "tag-2")
        assert len(sink.batches) == 1
        assert reporter.pending == 0

    @staticmethod
    def accounting(reporter):
        return (
            reporter.recorded,
            reporter.coalesced,
            reporter.dropped,
            reporter.pending,
            [(e.kind, e.tag_uid, e.count) for e in reporter._buffer],  # noqa: SLF001
        )

    def test_unknown_kind_rejected_before_accounting(self):
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        before = self.accounting(reporter)
        with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
            reporter.record("bogus", "tag-1")
        assert self.accounting(reporter) == before
        assert before == (0, 0, 0, 0, [])

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_count_rejected_before_coalescing(self, count):
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.record("scan", "tag-1")  # a tail the bad count would merge into
        before = self.accounting(reporter)
        with pytest.raises(ValueError, match="event count must be positive"):
            reporter.record("scan", "tag-1", count=count)
        assert self.accounting(reporter) == before
        assert before == (1, 0, 0, 1, [("scan", "tag-1", 1)])
        reporter.flush()
        (event,) = sink.delivered
        assert event.count == 1

    def test_record_after_close_is_dropped_silently(self):
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.record("scan", "tag-0")
        reporter.close()
        assert len(sink.delivered) == 1  # close flushed the tail
        reporter.record("scan", "tag-1")
        assert reporter.pending == 0
        assert len(sink.delivered) == 1


class TestTimerFlush:
    def test_interval_flush_fires_on_clock_advance(self):
        clock = ManualClock()
        reactor = Reactor(clock=clock, name="reporter-test")
        try:
            sink = SinkGateway(clock)
            reporter = GatewayReporter(
                sink, "gate-0", reactor=reactor, flush_interval=0.5
            )
            reporter.record("scan", "tag-0")
            assert reporter.pending == 1
            assert not sink.batches
            clock.advance(0.5)
            assert wait_until(lambda: sink.batches)
            assert reporter.pending == 0
            (event,) = sink.delivered
            assert event.tag_uid == "tag-0"
        finally:
            reactor.stop()

    def test_threshold_wakes_task_instead_of_inline_flush(self):
        clock = ManualClock()
        reactor = Reactor(clock=clock, name="reporter-test")
        try:
            sink = SinkGateway(clock)
            reporter = GatewayReporter(
                sink, "gate-0", reactor=reactor, max_batch=2, flush_interval=10.0
            )
            reporter.record("scan", "tag-0")
            reporter.record("scan", "tag-1")
            # No clock advance needed: the wake drains on the reactor loop.
            assert wait_until(lambda: sink.batches)
            assert len(sink.delivered) == 2
        finally:
            reactor.stop()


class TestMiddlewareHooks:
    def test_detections_become_scan_events(self, scenario):
        phone = scenario.add_phone("hook-phone")
        activity = scenario.start(phone, PlainNfcActivity)
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.attach_discoverer(discoverer)
        tag = text_tag("hello")
        scenario.put(tag, phone)
        assert wait_until(lambda: reporter.recorded >= 1)
        reporter.flush()
        event = sink.delivered[0]
        assert event.kind == "scan"
        assert event.detail == "detected"
        assert event.station == "gate-0"

    def test_landed_writes_become_save_events(self, scenario, activity, phone):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.attach_reference(reference)
        log = EventLog()
        reference.write("updated", on_written=lambda ref: log.append("written"))
        assert log.wait_for_count(1, timeout=5)
        assert wait_until(lambda: reporter.recorded >= 1)
        reporter.flush()
        (event,) = sink.delivered
        assert event.kind == "save"
        assert event.tag_uid == reference.uid_hex

    def test_reads_do_not_record(self, scenario, activity, phone):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.attach_reference(reference)
        log = EventLog()
        reference.read(on_read=lambda value: log.append(value))
        assert log.wait_for_count(1, timeout=5)
        assert reporter.recorded == 0

    def test_lease_outcomes_become_lease_events(self, scenario):
        tag = text_tag("shared")
        phone_a = scenario.add_phone("phone-a")
        phone_b = scenario.add_phone("phone-b")
        app_a = scenario.start(phone_a, PlainNfcActivity)
        app_b = scenario.start(phone_b, PlainNfcActivity)
        scenario.put(tag, phone_a)
        scenario.put(tag, phone_b)
        manager_a = LeaseManager(
            make_reference(app_a, tag, phone_a), "phone-a", drift_bound=0.0
        )
        manager_b = LeaseManager(
            make_reference(app_b, tag, phone_b), "phone-b", drift_bound=0.0
        )
        sink = SinkGateway()
        reporter_a = GatewayReporter(sink, "gate-a", flush_interval=None)
        reporter_b = GatewayReporter(sink, "gate-b", flush_interval=None)
        reporter_a.attach_lease_manager(manager_a)
        reporter_b.attach_lease_manager(manager_b)

        log = EventLog()
        manager_a.acquire(
            30.0,
            on_acquired=lambda lease: log.append("a-acquired"),
            on_denied=lambda: log.append("a-denied"),
        )
        assert log.wait_for_count(1, timeout=5)
        manager_b.acquire(
            30.0,
            on_acquired=lambda lease: log.append("b-acquired"),
            on_denied=lambda: log.append("b-denied"),
        )
        assert log.wait_for_count(2, timeout=5)
        assert log.snapshot() == ["a-acquired", "b-denied"]

        assert wait_until(
            lambda: reporter_a.recorded >= 1 and reporter_b.recorded >= 1
        )
        reporter_a.flush()
        reporter_b.flush()
        kinds = {(e.kind, e.station) for e in sink.delivered}
        assert ("lease_acquired", "gate-a") in kinds
        assert ("lease_denied", "gate-b") in kinds

    def test_close_detaches_hooks(self, scenario):
        phone = scenario.add_phone("hook-phone")
        activity = scenario.start(phone, PlainNfcActivity)
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        sink = SinkGateway()
        reporter = GatewayReporter(sink, "gate-0", flush_interval=None)
        reporter.attach_discoverer(discoverer)
        reporter.close()
        scenario.put(text_tag("late"), phone)
        # Give the detection callback a chance to (wrongly) fire.
        assert not wait_until(lambda: reporter.recorded > 0, timeout=0.2)


class TestStreamDropRollup:
    def test_stream_shedding_counts_through_reporter(self, scenario):
        phone = scenario.add_phone("stream-phone")
        activity = scenario.start(phone, PlainNfcActivity)
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        quiet = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        gateway = FleetGateway(InertReactor(), clock=ManualClock(), shards=2)
        reporter = GatewayReporter(gateway, "gate-0", flush_interval=None)
        reporter.attach_discoverer(discoverer)
        reporter.attach_discoverer(quiet)  # a second attach registers nothing more
        GatewayReporter(gateway, "gate-1", flush_interval=None)  # no discoverer

        async def overflow():
            stream = tag_stream(discoverer, max_buffer=2)
            async with stream:
                for index in range(5):
                    stream._push(f"ref{index}")  # noqa: SLF001 - overflow unit test
                return stream.dropped

        dropped = asyncio.run(overflow())
        assert dropped == 3
        # The discoverer's counter survives the stream teardown and is
        # what the reporter (and gateway telemetry) surface.
        assert discoverer.stream_dropped == 3
        assert reporter.stream_dropped == 3
        telemetry = gateway.telemetry()
        assert telemetry["events_dropped_streams"] == reporter.stream_dropped
        assert telemetry["reporters"] == 2
