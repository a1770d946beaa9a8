"""GatewayReporter: coalescing, bounded buffering, flushing, middleware hooks."""

import asyncio
import heapq
import itertools
import random

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
            # The batch is handed over after the buffer is swapped out, so
            # from here on the reporter has flushed at t=0.
            assert wait_until(lambda: sink.batches)
            reporter.record("scan", "tag-1")
            assert reporter.pending == 1
            assert not wait_until(lambda: len(sink.batches) > 1, timeout=0.05)
            clock.advance(0.5)
            assert wait_until(lambda: len(sink.batches) == 2)
            assert reporter.pending == 0
            (event,) = sink.batches[1]
            assert event.tag_uid == "tag-1"
        finally:
            reactor.stop()

    def test_quiet_reporter_delivers_at_once(self):
        """An event that finds the reporter quiet for a whole interval
        reaches the gateway with no clock advance."""
        clock = ManualClock()
        reactor = Reactor(clock=clock, name="reporter-test")
        try:
            sink = SinkGateway(clock)
            reporter = GatewayReporter(
                sink, "gate-0", reactor=reactor, flush_interval=0.5
            )
            reporter.record("scan", "tag-0")  # never flushed: quiet
            assert wait_until(lambda: len(sink.batches) == 1)
            clock.advance(0.5)  # a whole interval since that flush
            reporter.record("scan", "tag-1")
            assert wait_until(lambda: len(sink.batches) == 2)
            assert [e.tag_uid for e in sink.delivered] == ["tag-0", "tag-1"]
            assert reporter.pending == 0
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


class SimTask:
    def __init__(self, reactor, step):
        self._reactor = reactor
        self._step = step
        self._queued = False

    def wake(self):
        if not self._queued:
            self._queued = True
            self._reactor.ready.append(self)

    def schedule_at(self, when):
        heapq.heappush(self._reactor.timers, (when, next(self._reactor.seq), self))

    def cancel(self):
        pass

    def run(self):
        self._queued = False
        self._step()


class SimReactor:
    """The ``ReactorTask`` contract on one thread and a ManualClock: a
    woken task steps before the clock moves, a deadline when the clock
    reaches it."""

    def __init__(self, clock):
        self.clock = clock
        self.ready = []
        self.timers = []
        self.seq = itertools.count()

    def register(self, step, name="task"):
        return SimTask(self, step)

    def run_until(self, when):
        while True:
            while self.ready:
                self.ready.pop(0).run()
            if not self.timers or self.timers[0][0] > when:
                break
            due, _seq, task = heapq.heappop(self.timers)
            self.clock.set(max(due, self.clock.now()))
            task.wake()
        self.clock.set(max(when, self.clock.now()))


class TimedSink(SinkGateway):
    """Also keeps the clock time each batch was submitted at."""

    def __init__(self, clock):
        super().__init__(clock)
        self.instants = []

    def submit_batch(self, events):
        super().submit_batch(events)
        self.instants.append(self.clock.now())

    def timed_batches(self):
        return list(zip(self.instants, self.batches))


def replay(times, interval, max_batch=64, max_buffer=512, flushed_at=None):
    """Record one distinct event at each of ``times`` on a reporter
    driven by :class:`SimReactor`; returns (reporter, sink).

    ``flushed_at`` starts the reporter from a manual flush at that
    time, with no step or deadline left pending.
    """
    clock = ManualClock()
    reactor = SimReactor(clock)
    sink = TimedSink(clock)
    reporter = GatewayReporter(
        sink, "gate-0", reactor=reactor, clock=clock,
        max_batch=max_batch, max_buffer=max_buffer, flush_interval=interval,
    )
    if flushed_at is not None:
        reactor.run_until(flushed_at)
        reporter.record("scan", "prime")
        reporter.flush()
        reactor.run_until(flushed_at)
        reactor.timers.clear()
        sink.batches.clear()
        sink.instants.clear()
    for index, at in enumerate(times):
        reactor.run_until(at)
        reporter.record("scan", f"tag-{index}")
    reactor.run_until(times[-1] + interval)
    return reporter, sink


def fixed_delay_flushes(times, interval, max_batch):
    """The rule before the leading edge, as (instant, batch size): a
    buffer's first event arms a flush ``interval`` later, and the
    ``max_batch``-th event flushes at once. A timer flushes only the
    buffer that armed it."""
    flushes, timers, depth, buffer = [], [], 0, 0

    def flush(at):
        nonlocal depth, buffer
        flushes.append((at, depth))
        depth = 0
        buffer += 1

    def fire_until(now):
        while timers and timers[0][0] <= now:
            due, armed_by = heapq.heappop(timers)
            if armed_by == buffer and depth:
                flush(due)

    for at in times:
        fire_until(at)
        depth += 1
        if depth >= max_batch:
            flush(at)
        elif depth == 1:
            heapq.heappush(timers, (at + interval, buffer))
    fire_until(float("inf"))
    return flushes


def record_times(rng, count, interval, quiet_share):
    """Increasing record times: bursts and gaps below ``interval``, and
    a ``quiet_share`` of gaps of one to three intervals."""
    times, at = [], 1.0
    for _ in range(count):
        draw = rng.random()
        if draw < quiet_share:
            at += rng.uniform(interval, 3 * interval)
        elif draw < 0.5:
            at += rng.uniform(0.001, 0.05) * interval
        else:
            at += rng.uniform(0.05, 0.99) * interval
        times.append(at)
    return times


class TestLeadingEdgeProperties:
    """The flush rule over seeded record times, on simulated time."""

    INTERVAL = 0.05
    EPS = 1e-9

    @pytest.mark.parametrize("seed", range(60))
    def test_delivery_bound_spacing_and_accounting(self, seed):
        rng = random.Random(seed)
        times = record_times(rng, 80, self.INTERVAL, quiet_share=0.2)
        if seed < 40:
            max_buffer = rng.choice([4, 8, 512])
            max_batch = max_buffer + 1  # out of reach: every flush is timed
        else:
            max_buffer, max_batch = 512, rng.choice([3, 7])
        reporter, sink = replay(
            times, self.INTERVAL, max_batch=max_batch, max_buffer=max_buffer
        )
        timed = sink.timed_batches()
        # Every delivered event arrived within one interval of its record.
        for at, batch in timed:
            for event in batch:
                assert at - event.at_seconds <= self.INTERVAL + self.EPS, seed
        # A flush that max_batch did not cause comes at least one
        # interval after the previous flush, whatever caused that one.
        for (before, _batch), (after, batch) in zip(timed, timed[1:]):
            if len(batch) < max_batch:
                assert after - before >= self.INTERVAL - self.EPS, seed
        delivered = sum(event.count for event in sink.delivered)
        assert reporter.recorded == delivered + reporter.dropped == len(times)
        assert reporter.pending == 0
        if reporter.dropped:
            return  # a shed first event hides when its buffer began
        # A full buffer flushes at its max_batch-th event; one whose first
        # event found no flush within the last interval flushes at that
        # event; any other, an interval after it.
        previous = float("-inf")
        for at, batch in timed:
            first = batch[0].at_seconds
            if len(batch) >= max_batch:
                expected = batch[-1].at_seconds
            elif first - previous >= self.INTERVAL:
                expected = first
            else:
                expected = first + self.INTERVAL
            assert at == expected, seed
            previous = at

    def test_stale_deadline_does_not_flush_the_next_buffer(self):
        """The first buffer fills at max_batch before its deadline; that
        deadline still fires and must leave the next buffer alone."""
        times = [1.001, 1.002, 1.003, 1.010, 1.052]
        _reporter, sink = replay(
            times, self.INTERVAL, max_batch=3, flushed_at=1.000
        )
        observed = [(at, len(batch)) for at, batch in sink.timed_batches()]
        assert observed == [(1.003, 3), (pytest.approx(1.060), 2)]

    @pytest.mark.parametrize("seed", range(40))
    def test_never_quiet_reporter_flushes_as_before(self, seed):
        rng = random.Random(seed)
        times = record_times(rng, 80, self.INTERVAL, quiet_share=0.0)
        max_batch = rng.choice([3, 7, 64])
        # Having flushed just before the first record, and with every
        # gap below one interval, the reporter is never quiet.
        _reporter, sink = replay(
            times, self.INTERVAL, max_batch=max_batch, flushed_at=times[0] - 0.001
        )
        observed = [(at, len(batch)) for at, batch in sink.timed_batches()]
        assert observed == fixed_delay_flushes(times, self.INTERVAL, max_batch), seed


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
