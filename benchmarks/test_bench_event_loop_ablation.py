"""Ablation for DESIGN.md decision 1: per-reference event loops.

The paper gives every far reference its *own* thread of control. The
obvious cheaper design is one shared FIFO worker for all tags -- but a
shared queue head-of-line blocks across tags: while the worker retries
an absent tag's operation, a present tag's operation starves.

This bench stages exactly that situation: tag A is away (its write can
only retry), tag B is in the field. MORENA's per-reference loops finish
B's write immediately; a faithful shared-FIFO executor (implemented
inline below, driving the same port operations) makes B wait until A's
operation times out.
"""

import threading
import time
from collections import deque

from repro.concurrent import EventLog
from repro.errors import RadioError
from repro.harness.report import Table
from repro.harness.scenario import Scenario

from tests.conftest import PlainNfcActivity, make_reference, text_message, text_tag

A_TIMEOUT = 0.4  # how long the absent tag's operation occupies the queue


class SharedFifoExecutor:
    """The alternative design: one worker, one queue for every tag."""

    def __init__(self, port) -> None:
        self._port = port
        self._queue = deque()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def submit_write(self, tag, message, deadline, on_done) -> None:
        with self._cond:
            self._queue.append((tag, message, deadline, on_done))
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join(2.0)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                tag, message, deadline, on_done = self._queue[0]
            # Head-of-line: retry the head until success or deadline.
            while time.monotonic() < deadline:
                try:
                    self._port.write_ndef(tag, message)
                    on_done(True)
                    break
                except RadioError:
                    time.sleep(0.02)
            else:
                on_done(False)
            with self._cond:
                if self._queue:
                    self._queue.popleft()


def b_latency_shared() -> float:
    with Scenario() as scenario:
        phone = scenario.add_phone("shared")
        tag_a = text_tag("a")  # never in the field
        tag_b = text_tag("b")
        scenario.put(tag_b, phone)
        executor = SharedFifoExecutor(phone.port)
        try:
            done_b = EventLog()
            start = time.monotonic()
            executor.submit_write(
                tag_a, text_message("to-a"), start + A_TIMEOUT, lambda ok: None
            )
            executor.submit_write(
                tag_b,
                text_message("to-b"),
                start + 5.0,
                lambda ok: done_b.append(time.monotonic() - start),
            )
            assert done_b.wait_for_count(1, timeout=10)
            assert tag_b.read_ndef()[0].payload == b"to-b"
            return done_b.snapshot()[0]
        finally:
            executor.stop()


def b_latency_morena() -> float:
    with Scenario() as scenario:
        phone = scenario.add_phone("morena")
        activity = scenario.start(phone, PlainNfcActivity)
        tag_a = text_tag("a")  # never in the field
        tag_b = text_tag("b")
        scenario.put(tag_b, phone)
        ref_a = make_reference(activity, tag_a, phone)
        ref_b = make_reference(activity, tag_b, phone)
        done_b = EventLog()
        start = time.monotonic()
        ref_a.write("to-a", timeout=A_TIMEOUT)
        ref_b.write(
            "to-b",
            on_written=lambda r: done_b.append(time.monotonic() - start),
            timeout=5.0,
        )
        assert done_b.wait_for_count(1, timeout=10)
        assert tag_b.read_ndef()[0].payload == b"to-b"
        return done_b.snapshot()[0]


def test_no_cross_tag_head_of_line_blocking(benchmark):
    shared_ms, reactor_ms = benchmark.pedantic(
        lambda: (b_latency_shared() * 1000, b_latency_morena() * 1000),
        rounds=1,
        iterations=1,
    )

    table = Table(
        "Event-loop ablation -- latency of a present tag's write while an "
        f"absent tag's write retries for {A_TIMEOUT * 1000:.0f} ms",
        ["design", "write latency (ms)"],
    )
    table.add_row("shared FIFO executor", round(shared_ms, 1))
    table.add_row("per-reference loops (reactor)", round(reactor_ms, 1))
    table.print()

    # The shared worker holds B hostage for roughly A's whole timeout.
    assert shared_ms >= A_TIMEOUT * 1000 * 0.8
    # Per-reference loops finish B in a fraction of that.
    assert reactor_ms < shared_ms / 3
