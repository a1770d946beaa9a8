"""Tests for the reactor scheduler and reactor-backed reference semantics.

The first half exercises :class:`repro.core.scheduler.Reactor` directly
(serial tasks, cross-task concurrency, deadline timers, bounded lazy
workers). The second half checks the paper guarantees *through* the
reactor: per-tag FIFO ordering for pipelined operations and freedom from
cross-tag head-of-line blocking, even on a single loop thread.
"""

import threading
import time

from repro.clock import ManualClock
from repro.concurrent import EventLog, wait_until
from repro.core.scheduler import PortReadyQueue, Reactor, default_worker_count

from tests.conftest import PlainNfcActivity, make_reference, text_tag


class TestReactor:
    def test_lazy_threads_and_bounded_pool(self):
        """No threads until the first wake; never more than the bound."""
        reactor = Reactor(max_workers=2, name="lazy")
        try:
            assert reactor.thread_count == 0
            task = reactor.register(lambda: None, name="noop")
            assert reactor.thread_count == 0  # registration is free
            task.wake()
            assert wait_until(lambda: reactor.steps_executed >= 1, timeout=5)
            # 2 workers at most, plus the timer thread.
            assert reactor.thread_count <= 3
        finally:
            reactor.stop()
        assert reactor.is_stopped
        assert wait_until(lambda: reactor.thread_count == 0, timeout=5)

    def test_default_worker_count_is_bounded(self):
        assert 1 <= default_worker_count() <= 32

    def test_task_is_serial_even_under_concurrent_wakes(self):
        """The same task never runs on two workers at once."""
        reactor = Reactor(max_workers=4, name="serial")
        try:
            lock = threading.Lock()
            state = {"active": 0, "overlaps": 0, "runs": 0}

            def step():
                with lock:
                    state["active"] += 1
                    if state["active"] > 1:
                        state["overlaps"] += 1
                time.sleep(0.001)
                with lock:
                    state["active"] -= 1
                    state["runs"] += 1
                return None

            task = reactor.register(step, name="hammered")
            wakers = [
                threading.Thread(
                    target=lambda: [task.wake() for _ in range(50)]
                )
                for _ in range(4)
            ]
            for waker in wakers:
                waker.start()
            for waker in wakers:
                waker.join()
            assert wait_until(lambda: state["runs"] >= 1, timeout=5)
            task.wake()
            assert wait_until(lambda: state["active"] == 0, timeout=5)
            assert state["overlaps"] == 0
        finally:
            reactor.stop()

    def test_distinct_tasks_run_concurrently(self):
        """Two tasks meet at a barrier: only possible on two workers."""
        reactor = Reactor(max_workers=4, name="parallel")
        try:
            barrier = threading.Barrier(2, timeout=5)
            met = EventLog()

            def make_step(label):
                def step():
                    barrier.wait()
                    met.append(label)
                    return None

                return step

            reactor.register(make_step("a"), name="a").wake()
            reactor.register(make_step("b"), name="b").wake()
            assert met.wait_for_count(2, timeout=5)
        finally:
            reactor.stop()

    def test_wake_during_step_causes_rerun(self):
        """A wake landing mid-step is never lost: another step follows."""
        reactor = Reactor(max_workers=2, name="rerun")
        try:
            started = threading.Event()
            release = threading.Event()
            runs = []

            def step():
                runs.append(1)
                started.set()
                release.wait(5)
                return None

            task = reactor.register(step, name="rerunner")
            task.wake()
            assert started.wait(5)
            task.wake()  # arrives while the first step is still running
            release.set()
            assert wait_until(lambda: len(runs) == 2, timeout=5)
        finally:
            reactor.stop()

    def test_manual_clock_timer_fires_on_advance_only(self):
        """A future deadline fires when simulated time reaches it."""
        clock = ManualClock()
        reactor = Reactor(clock=clock, max_workers=2, name="timed")
        try:
            fired = EventLog()
            state = {"scheduled": False}

            def step():
                if not state["scheduled"]:
                    state["scheduled"] = True
                    return clock.now() + 5.0
                fired.append(clock.now())
                return None

            reactor.register(step, name="alarm").wake()
            assert wait_until(lambda: state["scheduled"], timeout=5)
            clock.advance(4.0)
            time.sleep(0.05)  # give a wrong firing the chance to happen
            assert len(fired) == 0
            clock.advance(1.5)
            assert fired.wait_for_count(1, timeout=5)
            assert fired.snapshot() == [5.5]
        finally:
            reactor.stop()

    def test_immediate_requeue_when_returned_time_already_passed(self):
        """Returning a time at or before "now" means run again at once."""
        reactor = Reactor(max_workers=2, name="spin")
        try:
            runs = []

            def step():
                runs.append(1)
                if len(runs) < 10:
                    return 0.0  # long past: immediate requeue
                return None

            reactor.register(step, name="spinner").wake()
            assert wait_until(lambda: len(runs) == 10, timeout=5)
        finally:
            reactor.stop()

    def test_many_tasks_complete_on_tiny_pool(self):
        """The bound limits parallelism, never completion."""
        reactor = Reactor(max_workers=2, name="tiny")
        try:
            done = EventLog()
            for index in range(40):
                reactor.register(
                    lambda i=index: done.append(i) or None, name=f"t{index}"
                ).wake()
            assert done.wait_for_count(40, timeout=10)
            assert reactor.thread_count <= 3  # 2 workers + timer
        finally:
            reactor.stop()

    def test_step_exception_does_not_kill_the_pool(self):
        reactor = Reactor(max_workers=2, name="faulty")
        try:
            done = EventLog()

            def bad_step():
                raise RuntimeError("boom")

            reactor.register(bad_step, name="bad").wake()
            reactor.register(lambda: done.append("ok") or None, name="good").wake()
            assert done.wait_for_count(1, timeout=5)
        finally:
            reactor.stop()

    def test_wake_after_stop_is_a_noop(self):
        reactor = Reactor(max_workers=2, name="stopped")
        runs = []
        task = reactor.register(lambda: runs.append(1) or None, name="late")
        reactor.stop()
        task.wake()
        time.sleep(0.02)
        assert runs == []


class TestPortReadyQueue:
    """The ready set handed to the per-port drain: generations guard
    against lost wakeups, rotation spreads service starts across tags."""

    def test_clear_only_succeeds_on_matching_generation(self):
        queue = PortReadyQueue()
        queue.mark("a")
        (item,) = queue.snapshot()
        key, generation = item
        queue.mark("a")  # producer re-marked mid-drain
        assert not queue.clear(key, generation)
        (_, fresh) = queue.snapshot()[0]
        assert queue.clear(key, fresh)
        assert queue.snapshot() == []

    def test_plain_snapshot_keeps_insertion_order(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        assert [key for key, _ in queue.snapshot()] == ["a", "b", "c"]
        # Un-rotated snapshots never move the starting point.
        assert [key for key, _ in queue.snapshot()] == ["a", "b", "c"]

    def test_rotated_snapshots_cycle_the_starting_key(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        starts = [queue.snapshot(rotate=True)[0][0] for _ in range(6)]
        assert starts == ["a", "b", "c", "a", "b", "c"]
        # Every rotation is a full permutation, not a truncation.
        assert sorted(k for k, _ in queue.snapshot(rotate=True)) == ["a", "b", "c"]

    def test_rotation_survives_the_cursor_key_vanishing(self):
        queue = PortReadyQueue()
        for key in ("a", "b", "c"):
            queue.mark(key)
        queue.snapshot(rotate=True)  # cursor now at "b"
        queue.discard("b")
        assert [key for key, _ in queue.snapshot(rotate=True)] == ["a", "c"]

    def test_has_other(self):
        queue = PortReadyQueue()
        assert not queue.has_other("a")
        queue.mark("a")
        assert not queue.has_other("a")
        queue.mark("b")
        assert queue.has_other("a")
        queue.discard("b")
        assert not queue.has_other("a")


class TestReactorOrdering:
    """Paper guarantees observed through reactor-backed references."""

    def test_pipelined_format_write_read_on_blank_tag(
        self, scenario, phone, activity
    ):
        """format -> write -> read on a factory-blank tag, scheduled
        back-to-back, completes strictly in program order."""
        tag = scenario.add_tag(formatted=False)
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        log = EventLog()
        reference.format(on_formatted=lambda r: log.append("formatted"))
        reference.write("hello", on_written=lambda r: log.append("written"))
        reference.read(on_read=lambda r: log.append(("read", r.cached)))
        assert log.wait_for_count(3, timeout=10)
        assert log.snapshot() == ["formatted", "written", ("read", "hello")]

    def test_absent_tag_never_starves_present_tag(
        self, scenario, phone, activity
    ):
        """The ablation scenario on the shared pool: a reference retrying
        an out-of-range tag must not delay a present tag's operations."""
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
        assert ref_absent.pending_count == 1  # still queued, still silent
        assert present.read_ndef()[0].payload == b"w19"

    def test_no_head_of_line_blocking_even_with_one_worker(self, scenario):
        """The sharpest form: one loop thread runs every task -- both
        references and the transaction scheduler. If an absent tag's
        retry loop ever held that thread, the present tag could never
        proceed; because waiting tasks return to the deadline heap, it
        does."""
        phone = scenario.add_phone("hol-phone", reactor_mode="asyncio")
        activity = scenario.start(phone, PlainNfcActivity)
        absent = text_tag("a")
        present = text_tag("b")
        scenario.put(present, phone)
        ref_absent = make_reference(activity, absent, phone)
        ref_present = make_reference(activity, present, phone)
        done = EventLog()
        ref_absent.write("blocked", timeout=30.0)
        ref_present.write("lands", on_written=lambda r: done.append("ok"))
        assert done.wait_for_count(1, timeout=5)
        assert present.read_ndef()[0].payload == b"lands"
        assert ref_absent.pending_count == 1
        assert phone.reactor.thread_count <= 1

    def test_absent_tag_operation_still_times_out_under_reactor(
        self, scenario, phone, activity
    ):
        """Timeouts are driven by the deadline heap, not a polling loop."""
        tag = text_tag("away")
        reference = make_reference(activity, tag, phone)
        failed = EventLog()
        reference.write(
            "doomed", on_failed=lambda r: failed.append("timeout"), timeout=0.05
        )
        assert failed.wait_for_count(1, timeout=5)
        assert reference.pending_count == 0
        assert reference.timeouts == 1
