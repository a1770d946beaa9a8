"""The await-native surface: ``ref.aio`` / ``thing.aio`` / streams.

The coroutine face is a completion style, not a scheduling mode: the
adapters enqueue the same operations as the listener API. The awaiting
loop here is the test's own (``asyncio.run``), not the reactor's;
cross-loop delivery is exercised implicitly because listeners settle
on the device's main looper thread.
"""

import asyncio
import threading

import pytest

from repro.core.aio import AsyncTagReference, run_on_reactor, tag_stream
from repro.core.discovery import TagDiscoverer
from repro.core.futures import OperationTimeoutError, read_future
from repro.core.scheduler import Reactor
from repro.leasing.aio import LeaseDeniedError, acquire, release, renew
from repro.leasing.manager import LeaseManager
from repro.things.thing import Thing

from tests.conftest import (
    TEXT_TYPE,
    PlainNfcActivity,
    make_reference,
    string_converters,
    text_tag,
)


class TestAwaitableFuture:
    def test_await_settled_and_pending_futures(self, scenario, phone, activity):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)

        async def scenario_run():
            value = await read_future(reference)
            future = read_future(reference)
            again = await future  # may already be settled: both paths legal
            return value, again

        value, again = asyncio.run(scenario_run())
        assert value == "hello"
        assert again == "hello"

    def test_await_raises_what_result_would(self, scenario, phone, activity):
        reference = make_reference(activity, text_tag("away"), phone)

        async def scenario_run():
            await read_future(reference, timeout=0.1)

        with pytest.raises(OperationTimeoutError):
            asyncio.run(scenario_run())


class TestAsyncTagReference:
    def test_read_write_roundtrip(self, scenario, phone, activity):
        tag = text_tag("start")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        assert isinstance(reference.aio, AsyncTagReference)

        async def scenario_run():
            before = await reference.aio.read()
            await reference.aio.write("updated")
            return before, await reference.aio.read()

        before, after = asyncio.run(scenario_run())
        assert before == "start"
        assert after == "updated"
        assert tag.read_ndef()[0].payload == b"updated"

    def test_format_then_write_on_blank_tag(self, scenario, phone, activity):
        tag = scenario.add_tag(formatted=False)
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)

        async def scenario_run():
            await reference.aio.format()
            await reference.aio.write("fresh")
            return await reference.aio.read()

        assert asyncio.run(scenario_run()) == "fresh"

    def test_raw_roundtrip_and_concurrent_awaits(self, scenario, phone, activity):
        tags = [text_tag(f"v{index}") for index in range(5)]
        for tag in tags:
            scenario.put(tag, phone)
        references = [make_reference(activity, tag, phone) for tag in tags]

        async def scenario_run():
            values = await asyncio.gather(
                *(reference.aio.read() for reference in references)
            )
            message = await references[0].aio.read_raw()
            return values, message

        values, message = asyncio.run(scenario_run())
        assert values == [f"v{index}" for index in range(5)]
        assert message[0].payload == b"v0"


class _Badge(Thing):
    def __init__(self, activity=None, owner="nobody", level=1):
        super().__init__(activity)
        self.owner = owner
        self.level = level


class _BadgeActivity(PlainNfcActivity):
    pass


class TestAsyncThing:
    def _bound_badge(self, scenario):
        from repro.core.converters import JsonToObjectConverter, ObjectToJsonConverter
        from repro.tags.factory import make_tag

        phone = scenario.add_phone("badge-phone")
        activity = scenario.start(phone, _BadgeActivity)
        read_conv = JsonToObjectConverter(_Badge)
        write_conv = ObjectToJsonConverter(TEXT_TYPE)
        message = write_conv.convert(_Badge("alice", 3))
        tag = make_tag("NTAG216", content=message)
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        reference._read_converter = read_conv  # noqa: SLF001 - thing converters
        reference._write_converter = write_conv  # noqa: SLF001
        badge = _Badge("alice", 3)
        badge._bind(reference, activity)  # noqa: SLF001 - test harness binding
        return tag, badge

    def test_save_and_refresh(self, scenario):
        tag, badge = self._bound_badge(scenario)

        async def scenario_run():
            badge.level = 4
            await badge.aio.save()
            badge.level = 0  # stale local state
            refreshed = await badge.aio.refresh()
            return refreshed.level

        assert asyncio.run(scenario_run()) == 4
        assert b'"level": 4' in tag.read_ndef()[0].payload


class TestTagStream:
    def test_async_for_over_detections(self, scenario, phone, activity):
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        tags = [text_tag(f"s{index}") for index in range(3)]

        async def scenario_run():
            seen = []
            async with discoverer.stream() as stream:
                for tag in tags:
                    scenario.put(tag, phone)
                async for reference in stream:
                    seen.append(reference.cached)
                    if len(seen) == 3:
                        break
            return seen

        assert sorted(asyncio.run(scenario_run())) == ["s0", "s1", "s2"]

    def test_event_filter_and_close_ends_iteration(self, scenario, phone, activity):
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())
        tag = text_tag("twice")

        async def scenario_run():
            stream = tag_stream(discoverer, events=("redetected",))
            collected = []
            async with stream:
                scenario.put(tag, phone)  # "detected": filtered out
                scenario.take(tag, phone)
                scenario.put(tag, phone)  # "redetected": delivered
                async for reference in stream:
                    collected.append(reference.cached)
                    stream.close()
            return collected

        assert asyncio.run(scenario_run()) == ["twice"]
        assert discoverer._detection_listeners == []  # noqa: SLF001 - unsubscribed

    def test_bounded_buffer_sheds_oldest(self, scenario, phone, activity):
        discoverer = TagDiscoverer(activity, TEXT_TYPE, *string_converters())

        async def scenario_run():
            stream = tag_stream(discoverer, max_buffer=2)
            async with stream:
                for index in range(5):
                    stream._push(f"ref{index}")  # noqa: SLF001 - buffer unit test
                first = await stream.__anext__()
                second = await stream.__anext__()
                return first, second, stream.dropped

        first, second, dropped = asyncio.run(scenario_run())
        assert (first, second) == ("ref3", "ref4")
        assert dropped == 3


class TestLeasingAio:
    def test_acquire_renew_release(self, scenario, phone, activity):
        tag = text_tag("asset")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        manager = LeaseManager(reference, phone.name, drift_bound=0.0)

        async def scenario_run():
            lease = await acquire(manager, duration=30.0)
            extended = await renew(manager, duration=60.0)
            await release(manager)
            return lease, extended

        lease, extended = asyncio.run(scenario_run())
        assert lease.device_id == phone.name
        assert extended.expires_at > lease.expires_at
        assert manager.held_lease is None

    def test_denied_acquire_raises(self, scenario, phone, activity):
        rival_phone = scenario.add_phone("rival")
        rival_activity = scenario.start(rival_phone, PlainNfcActivity)
        tag = text_tag("contested")
        scenario.put(tag, rival_phone)
        rival_ref = make_reference(rival_activity, tag, rival_phone)
        rival = LeaseManager(rival_ref, "rival", drift_bound=0.0)

        done = threading.Event()
        rival.acquire(3600.0, on_acquired=lambda lease: done.set())
        assert done.wait(5)
        scenario.take(tag, rival_phone)
        scenario.put(tag, phone)

        reference = make_reference(activity, tag, phone)
        manager = LeaseManager(reference, "late-comer", drift_bound=0.0)

        async def scenario_run():
            await acquire(manager, duration=30.0)

        with pytest.raises(LeaseDeniedError):
            asyncio.run(scenario_run())


class TestRunOnReactor:
    def test_coroutine_runs_on_the_reactor_loop(self, scenario, phone, activity):
        tag = text_tag("onloop")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        reactor = phone.reactor

        async def on_loop():
            value = await reference.aio.read()
            await reference.aio.write(value + "!")
            return await reference.aio.read(), asyncio.get_running_loop()

        handle = run_on_reactor(reactor, on_loop())
        value, loop = handle.result(timeout=10)
        assert value == "onloop!"
        assert loop is reactor.loop

    def test_cold_reactor_starts_and_stopped_reactor_is_rejected(self):
        reactor = Reactor(name="cold")

        async def answer():
            return 42

        try:
            assert reactor.loop is None
            assert run_on_reactor(reactor, answer()).result(timeout=5) == 42
        finally:
            reactor.stop()
        coroutine = answer()
        with pytest.raises(RuntimeError, match="stopped"):
            run_on_reactor(reactor, coroutine)
        coroutine.close()
