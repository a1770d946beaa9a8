"""The reactor's asyncio loop: its one thread, its timers, the ``mode``
keyword.

Companion to ``tests/core/test_scheduler.py``, which checks the
``ReactorTask`` contract through the deadlines steps return. This file
checks what rests on the loop itself: steps run on the ``-aioloop``
thread and never on a second one, wakes coalesce whether they come from
other threads or from inside the step, ``schedule_at`` deadlines fire
from a loop timer on the real clock and from ``ManualClock.advance()``
on a simulated one, and the reference stack runs on a phone built with
``reactor_mode="asyncio"``, the keyword the benchmark scripts pass.
"""

import asyncio
import threading
import time

import pytest

from repro.clock import ManualClock, SystemClock
from repro.concurrent import EventLog, wait_until
from repro.core.aio import run_on_reactor
from repro.core.scheduler import Reactor

from tests.conftest import PlainNfcActivity as _PlainActivity
from tests.conftest import make_reference, text_tag


class TestDispatch:
    def test_mode_asyncio_constructs_the_asyncio_backend(self):
        reactor = Reactor(mode="asyncio", name="dispatch")
        try:
            names = EventLog()
            reactor.register(
                lambda: names.append(threading.current_thread().name),
                name="probe",
            ).wake()
            assert names.wait_for_count(1, timeout=5)
            assert names.snapshot() == ["dispatch-aioloop"]
        finally:
            reactor.stop()

    def test_unknown_mode_is_rejected(self, scenario):
        for mode in ("threaded", "gevent"):
            with pytest.raises(ValueError, match="unknown reactor mode"):
                Reactor(mode=mode)
        with pytest.raises(ValueError, match="unknown reactor mode"):
            scenario.add_phone("bad-phone", reactor_mode="threaded")


class TestAsyncioReactor:
    def test_lazy_loop_thread_single_thread_total(self):
        """More tasks never mean more threads: every step of every task
        runs on the one loop thread."""
        reactor = Reactor(name="lazy")
        try:
            threads = set()

            def step():
                threads.add(threading.get_ident())
                return None

            reactor.register(step, name="first").wake()
            assert wait_until(lambda: reactor.steps_executed >= 1, timeout=5)
            assert reactor.thread_count == 1
            for index in range(50):
                reactor.register(step, name=f"t{index}").wake()
            assert wait_until(lambda: reactor.steps_executed >= 51, timeout=5)
            assert reactor.thread_count == 1
            assert len(threads) == 1
        finally:
            reactor.stop()

    def test_steps_run_on_the_loop_thread(self):
        reactor = Reactor(name="affine")
        try:
            seen = []
            done = threading.Event()

            def step():
                seen.append(
                    (threading.current_thread().name, reactor.owns_current_thread)
                )
                done.set()
                return None

            reactor.register(step, name="probe").wake()
            assert done.wait(5)
            name, owned = seen[0]
            assert name.endswith("-aioloop")
            assert owned
            assert not reactor.owns_current_thread  # we are not the loop
        finally:
            reactor.stop()

    def test_task_is_serial_under_concurrent_wakes(self):
        """Wakes from other threads and from inside the step itself, on
        the loop thread, never run the step re-entrantly: a self-wake
        becomes a rerun after the step returns."""
        reactor = Reactor(name="serial")
        try:
            state = {"active": 0, "overlaps": 0, "runs": 0}
            holder = {}

            def step():
                state["active"] += 1
                if state["active"] > 1:
                    state["overlaps"] += 1
                if state["runs"] < 20:
                    holder["task"].wake()
                state["active"] -= 1
                state["runs"] += 1
                return None

            task = holder["task"] = reactor.register(step, name="hammered")
            wakers = [
                threading.Thread(target=lambda: [task.wake() for _ in range(50)])
                for _ in range(4)
            ]
            for waker in wakers:
                waker.start()
            for waker in wakers:
                waker.join()
            assert wait_until(lambda: state["runs"] >= 21, timeout=5)
            assert wait_until(lambda: state["active"] == 0, timeout=5)
            assert state["overlaps"] == 0
        finally:
            reactor.stop()

    def test_burst_of_cross_thread_wakes_costs_one_loop_post(self):
        """While a step holds the loop, another thread wakes 100 idle
        tasks: after release each steps exactly once, and the loop got
        at most one thread-safe post for the whole burst."""
        reactor = Reactor(clock=ManualClock(), name="burst")
        try:
            entered, release = threading.Event(), threading.Event()

            def hold():
                entered.set()
                release.wait(5)

            reactor.register(hold, name="hold").wake()
            assert entered.wait(5)
            loop = reactor.loop
            posts = []
            post = loop.call_soon_threadsafe

            def counting_post(callback, *args, **kwargs):
                posts.append(callback)
                return post(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting_post
            ran = EventLog()
            tasks = [
                reactor.register(lambda i=i: ran.append(i), name=f"t{i}")
                for i in range(100)
            ]
            waker = threading.Thread(target=lambda: [t.wake() for t in tasks])
            waker.start()
            waker.join(5)
            assert not waker.is_alive()
            release.set()
            assert ran.wait_for_count(100, timeout=5)
            assert not wait_until(lambda: len(ran.snapshot()) > 100, timeout=0.05)
            assert sorted(ran.snapshot()) == list(range(100))
            assert len(posts) <= 1
        finally:
            reactor.stop()

    def test_busy_task_leaves_the_loop_to_coroutines(self):
        """A task that always asks to run again does not starve the
        loop: a coroutine sleeping on the same loop still completes."""
        reactor = Reactor(name="busy")
        stop = threading.Event()
        try:
            reactor.register(
                lambda: None if stop.is_set() else 0.0, name="spin"
            ).wake()
            future = run_on_reactor(reactor, asyncio.sleep(0.01, result="slept"))
            assert future.result(timeout=5) == "slept"
        finally:
            stop.set()
            reactor.stop()

    def test_wake_during_step_reruns_exactly_like_threaded(self):
        """Several wakes landing in one step coalesce into exactly one
        rerun."""
        reactor = Reactor(name="rerun")
        try:
            runs = EventLog()
            started = threading.Event()
            release = threading.Event()

            def step():
                runs.append("run")
                if len(runs) == 1:
                    started.set()
                    release.wait(5)
                return None

            task = reactor.register(step, name="reentrant")
            task.wake()
            assert started.wait(5)
            for _ in range(3):
                task.wake()  # all arrive mid-step
            release.set()
            assert runs.wait_for_count(2, timeout=5)
            time.sleep(0.05)
            assert len(runs) == 2  # coalesced, not unbounded
        finally:
            reactor.stop()

    def test_step_exception_does_not_kill_the_loop(self):
        """After a step raises, the same loop thread runs tasks that
        come later."""
        reactor = Reactor(name="crashy")
        try:
            threads = EventLog()

            def bad_step():
                threads.append(threading.get_ident())
                raise RuntimeError("boom")

            reactor.register(bad_step, name="bad").wake()
            assert threads.wait_for_count(1, timeout=5)
            reactor.register(
                lambda: threads.append(threading.get_ident()), name="good"
            ).wake()
            assert threads.wait_for_count(2, timeout=5)
            first, second = threads.snapshot()
            assert first == second
            assert reactor.thread_count == 1
        finally:
            reactor.stop()

    def test_cancel_before_wake_never_runs_and_stays_thread_free(self):
        reactor = Reactor(name="cancel")
        try:
            ran = threading.Event()
            task = reactor.register(lambda: ran.set(), name="doomed")
            task.cancel()
            assert reactor.thread_count == 0  # cancel never starts the loop
            task.wake()
            time.sleep(0.05)
            assert not ran.is_set()
        finally:
            reactor.stop()

    def test_wake_after_stop_is_a_noop(self):
        """Once the loop has run, stop ends its thread and later wakes
        neither raise nor run."""
        reactor = Reactor(name="stopped")
        runs = []
        task = reactor.register(lambda: runs.append(1) or None, name="late")
        task.wake()
        assert wait_until(lambda: runs == [1], timeout=5)
        reactor.stop()
        task.wake()  # must not raise, must not run
        time.sleep(0.02)
        assert runs == [1]
        assert reactor.is_stopped
        assert wait_until(lambda: reactor.thread_count == 0, timeout=5)


class TestAsyncioTimers:
    def test_realtime_deadline_fires(self):
        reactor = Reactor(name="rt")
        try:
            fired = threading.Event()
            task = reactor.register(lambda: fired.set(), name="timer")
            task.schedule_at(SystemClock().now() + 0.05)
            assert fired.wait(5)
        finally:
            reactor.stop()

    def test_manual_clock_advance_fires_timers_deterministically(self):
        """advance() to just before a schedule_at deadline must not fire
        it; reaching it exactly must (deadlines are inclusive)."""
        clock = ManualClock()
        reactor = Reactor(clock=clock, name="manual")
        try:
            fired = EventLog()
            task = reactor.register(lambda: fired.append(clock.now()), name="t")
            task.schedule_at(5.0)
            clock.advance(4.999)
            time.sleep(0.05)
            assert len(fired) == 0
            clock.advance(0.001)  # exactly 5.0
            assert fired.wait_for_count(1, timeout=5)
            assert fired.snapshot() == [5.0]
        finally:
            reactor.stop()

    def test_manual_clock_fires_multiple_deadlines_in_order(self):
        clock = ManualClock()
        reactor = Reactor(clock=clock, name="multi")
        try:
            fired = EventLog()
            for index, when in enumerate((3.0, 1.0, 2.0)):
                reactor.register(
                    lambda i=index: fired.append(i), name=f"t{index}"
                ).schedule_at(when)
            clock.advance(10.0)  # one advance crosses all three
            assert fired.wait_for_count(3, timeout=5)
            assert fired.snapshot() == [1, 2, 0]  # earliest deadline first
        finally:
            reactor.stop()

    def test_past_deadline_fires_without_any_advance(self):
        clock = ManualClock()
        clock.set(100.0)
        reactor = Reactor(clock=clock, name="due")
        try:
            fired = threading.Event()
            task = reactor.register(lambda: fired.set(), name="overdue")
            task.schedule_at(50.0)  # already due
            assert fired.wait(5)
        finally:
            reactor.stop()

    def test_step_returning_deadline_requeues_via_loop_timer(self):
        """On the real clock a future time a step returns is waited for
        by the loop's timer: the step runs again no earlier than that."""
        clock = SystemClock()
        reactor = Reactor(clock=clock, name="requeue")
        try:
            runs = EventLog()
            deadlines = []

            def step():
                runs.append(clock.now())
                if len(runs) < 3:
                    deadlines.append(clock.now() + 0.02)
                    return deadlines[-1]
                return None

            reactor.register(step, name="periodic").wake()
            assert runs.wait_for_count(3, timeout=5)
            at = runs.snapshot()
            assert at[1] >= deadlines[0]
            assert at[2] >= deadlines[1]
        finally:
            reactor.stop()


class TestReferencesOnAsyncioReactor:
    """The reference stack on a phone built with ``reactor_mode="asyncio"``."""

    def test_pipelined_format_write_read_in_program_order(self, scenario):
        phone = scenario.add_phone("aio-phone", reactor_mode="asyncio")
        activity = scenario.start(phone, _PlainActivity)
        tag = scenario.add_tag(formatted=False)
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        log = EventLog()
        reference.format(on_formatted=lambda r: log.append("formatted"))
        reference.write("hello", on_written=lambda r: log.append("written"))
        reference.read(on_read=lambda r: log.append(("read", r.cached)))
        assert log.wait_for_count(3, timeout=10)
        assert log.snapshot() == ["formatted", "written", ("read", "hello")]

    def test_absent_tag_never_starves_present_tag(self, scenario):
        phone = scenario.add_phone("aio-phone", reactor_mode="asyncio")
        activity = scenario.start(phone, _PlainActivity)
        absent = text_tag("absent")
        present = text_tag("present")
        scenario.put(present, phone)
        ref_absent = make_reference(activity, absent, phone)
        ref_present = make_reference(activity, present, phone)
        done = EventLog()
        ref_absent.write("never-lands", timeout=30.0)
        for index in range(20):
            ref_present.write(
                f"w{index}", on_written=lambda r, i=index: done.append(i)
            )
        assert done.wait_for_count(20, timeout=5)
        assert done.snapshot() == list(range(20))
        assert ref_absent.pending_count == 1
        assert present.read_ndef()[0].payload == b"w19"

    def test_operation_timeout_flows_through_loop_timers(self, scenario):
        phone = scenario.add_phone("aio-phone", reactor_mode="asyncio")
        activity = scenario.start(phone, _PlainActivity)
        tag = text_tag("away")  # never enters the field
        reference = make_reference(activity, tag, phone)
        failed = threading.Event()
        reference.read(on_failed=lambda r: failed.set(), timeout=0.1)
        assert failed.wait(5)
