"""The reactor: multiplexes a device's serial tasks onto one loop thread.

The paper gives every tag reference "its own thread of control"
(section 3.2). That is a statement about *logical* concurrency — each
reference processes its queue independently, so a tag that is out of
range never head-of-line blocks a tag that is present. The seed
reproduced it literally with one OS thread per reference, which caps a
process at a few hundred live references and burns CPU in polling
waits. Following RAFDA's separation of the logical object model from
the physical distribution policy (see PAPERS.md and DESIGN.md decision
7), a tag reference keeps the event-loop *semantics* and owns no task
here: the device's per-port transaction scheduler, one task, serves its
readiness and its timeouts (see :mod:`repro.radio.txscheduler`). The
other tasks are a Beamer's loop and the gateway's drains. This module
runs every step as a callback on one ``asyncio`` event loop:

* every task is a :class:`ReactorTask` — a ``step`` callable that runs
  one scheduling quantum and reports when it next wants to run;
* a task is **serial**: the reactor never runs the same task twice at
  once (wakeups arriving mid-step set a rerun flag), so the scheduler
  keeps each reference's per-tag FIFO guarantees without extra locking;
* tasks never sleep on the loop — a task waiting for a retry interval,
  a deadline, or a tag to reappear *returns*, and is re-queued by the
  deadline heap or an external :meth:`ReactorTask.wake` (field events,
  enqueues, clock advances);
* the loop thread starts on the first wake and is the only thread a
  reactor ever owns; an idle reference costs the reactor nothing at
  all, so a process holds 100k idle references at near-zero CPU
  (``benchmarks/test_bench_async.py``).

Time handling is fully event-driven. The deadline heap is serviced by
**one** ``loop.call_later`` armed at the earliest deadline (real
clock); with a :class:`~repro.clock.ManualClock` the reactor subscribes
to advance notifications instead, so simulated time only needs to move
for deadlines to fire. A clock that does not notify is waited on as
real time.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import traceback
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.clock import Clock, SystemClock

# A task step runs one quantum and returns when it next wants to run:
# ``None`` for "idle until woken externally", or an absolute clock time
# ("now or earlier" means immediately).
StepFn = Callable[[], Optional[float]]

_IDLE = 0  # not scheduled; runs only when woken
_QUEUED = 1  # in the ready queue, a loop callback will pick it up
_RUNNING = 2  # the loop is executing its step right now


class ReactorTask:
    """One logical event loop registered with a :class:`Reactor`.

    The reactor guarantees the ``step`` callable is never executed
    concurrently with itself, and that a :meth:`wake` arriving while a
    step runs leads to another step afterwards (no lost wakeups).
    """

    __slots__ = ("name", "_reactor", "_step", "_state", "_rerun", "_cancelled")

    def __init__(self, reactor: "Reactor", step: StepFn, name: str) -> None:
        self.name = name
        self._reactor = reactor
        self._step = step
        self._state = _IDLE
        self._rerun = False
        self._cancelled = False

    def wake(self) -> None:
        """Schedule a step as soon as the loop is free (coalescing)."""
        self._reactor._wake(self)

    def schedule_at(self, when: float) -> None:
        """Adopt ``when`` (absolute clock time) as a deadline for this task.

        Pushes a timer-heap entry without queueing a step -- the cheap
        alternative to :meth:`wake` when nothing needs to run *now* but
        the task's earliest deadline may have moved (e.g. a queued write
        was merged into and inherited a new timeout). Entries are never
        removed early: a stale earlier entry just causes one spurious
        step that re-evaluates and re-schedules.
        """
        with self._reactor._lock:
            if self._cancelled or self._reactor._stopped:
                return
            self._reactor._schedule_at_locked(self, when)

    def cancel(self) -> None:
        """Permanently deregister this task.

        Future wakes become no-ops and stale deadline-heap entries are
        ignored when they fire. A step already executing finishes (its
        own stop flag governs what it does), but no further step runs.
        Unlike :meth:`wake`, cancelling never starts the loop thread —
        tearing down a task on a cold reactor stays thread-free.
        """
        with self._reactor._lock:
            self._cancelled = True

    def __repr__(self) -> str:
        return f"ReactorTask({self.name!r})"


class Reactor:
    """One ``asyncio`` loop driving many serial tasks by deadline.

    One reactor per simulated device (see ``AndroidDevice.reactor``);
    the device's transaction scheduler, which serves all of its tag
    references, and its Beamers share the loop. Constructing a reactor
    is cheap — the loop thread starts on the first wake (or
    :meth:`start`).

    ``mode`` takes only ``"asyncio"``. It stays for the ``perfbench/``
    scripts that pass ``mode="asyncio"`` and goes with that argument in
    the next change to ``perfbench/``.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        name: str = "reactor",
        mode: str = "asyncio",
    ) -> None:
        if mode != "asyncio":
            raise ValueError(
                f"unknown reactor mode {mode!r}; the only mode is 'asyncio'"
            )
        self.name = name
        self._clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._ready: Deque[ReactorTask] = deque()
        self._timers: List[Tuple[float, int, ReactorTask]] = []  # deadline heap
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        # Loop-thread-only: the single armed call_later (real clocks).
        self._timer_handle: Optional[asyncio.TimerHandle] = None
        # Guarded by _lock: deadline the heap is currently serviced up
        # to; a schedule_at later than this needs no extra service pass.
        self._timer_deadline: Optional[float] = None
        # Guarded by _lock: a _drain callback is posted or running, so a
        # wake only has to append to _ready.
        self._drain_posted = False
        self._started = False
        self._stopped = False
        self._steps = 0
        # How deadlines are waited for: an advance-notifying clock wakes
        # us, any other clock gets an exact timed wait.
        self._clock_notifies = hasattr(self._clock, "add_listener")

    # -- introspection ---------------------------------------------------------

    @property
    def thread_count(self) -> int:
        """Live reactor threads (0 or 1), for tests/benches."""
        with self._lock:
            thread = self._loop_thread
            return 1 if thread is not None and thread.is_alive() else 0

    @property
    def steps_executed(self) -> int:
        with self._lock:
            return self._steps

    @property
    def owns_current_thread(self) -> bool:
        """True when called from this reactor's loop thread -- the
        affinity-sanitizer's middleware test."""
        with self._lock:
            return threading.current_thread() is self._loop_thread

    @property
    def is_stopped(self) -> bool:
        with self._lock:
            return self._stopped

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The backing event loop (``None`` until the loop starts)."""
        with self._lock:
            return self._loop

    def __repr__(self) -> str:
        return f"Reactor({self.name!r})"

    # -- task registration ------------------------------------------------------

    def register(self, step: StepFn, name: str = "task") -> ReactorTask:
        """Create a serial task; it stays idle until its first wake."""
        return ReactorTask(self, step, name)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> asyncio.AbstractEventLoop:
        """Start the loop thread now, if it is not running, and return
        the loop. Waking a task starts it on demand; only code that
        wants the loop itself (``repro.core.aio.run_on_reactor``)
        needs this. Raises ``RuntimeError`` on a stopped reactor."""
        with self._lock:
            if self._stopped:
                raise RuntimeError(f"{self!r} is stopped")
            self._ensure_started_locked()
            return self._loop

    def stop(self, join_timeout: float = 2.0) -> None:
        """Stop the loop; queued tasks are dropped."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._ready.clear()
            self._timers.clear()
            loop = self._loop
            thread = self._loop_thread
        if self._clock_notifies and self._started:
            self._clock.remove_listener(self._on_clock_advance)
        if loop is not None:
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass  # already closed
            if thread is not None and thread is not threading.current_thread():
                thread.join(join_timeout)

    # -- internals: scheduling ----------------------------------------------------

    def _wake(self, task: ReactorTask) -> None:
        with self._lock:
            if self._stopped:
                return
            self._wake_locked(task)

    def _ensure_started_locked(self) -> None:
        if self._started or self._stopped:
            return
        self._started = True
        if self._clock_notifies:
            self._clock.add_listener(self._on_clock_advance)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop_runner, name=f"{self.name}-aioloop", daemon=True
        )
        self._loop_thread.start()

    def _loop_runner(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _call_on_loop(self, fn: Callable[[], None]) -> None:
        """Post ``fn`` to the loop thread (thread-safe, shutdown-tolerant)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        if threading.current_thread() is self._loop_thread:
            loop.call_soon(fn)
            return
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _wake_locked(self, task: ReactorTask) -> None:
        if task._cancelled:
            return
        if task._state == _IDLE:
            task._state = _QUEUED
            self._ready.append(task)
            if not self._drain_posted:
                self._drain_posted = True
                self._ensure_started_locked()
                self._call_on_loop(self._drain)
        elif task._state == _RUNNING:
            task._rerun = True
        # _QUEUED: already scheduled, the wake coalesces.

    def _schedule_at_locked(self, task: ReactorTask, when: float) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), task))
        self._ensure_started_locked()
        if self._timer_deadline is None or when < self._timer_deadline:
            self._call_on_loop(self._service_timers)

    def _on_clock_advance(self) -> None:
        self._call_on_loop(self._service_timers)

    # -- internals: the loop -------------------------------------------------------

    def _drain(self) -> None:
        """Run one step of each task that was ready when the round began
        (loop thread only).

        At most one ``_drain`` callback is pending per reactor, so a
        burst of wakes from other threads costs one loop post. Tasks
        made ready during the round wait for the next one, which the
        round posts with ``call_soon``: loop timers and user coroutines
        interleave between rounds, as they do between asyncio's own
        per-iteration batches of callbacks.
        """
        with self._lock:
            ready = len(self._ready)
        try:
            for _ in range(ready):
                self._run_one()
        finally:
            with self._lock:
                again = self._drain_posted = bool(self._ready) and not self._stopped
            if again:
                self._loop.call_soon(self._drain)

    def _run_one(self) -> None:
        """Pop one ready task and run its step (loop thread only)."""
        with self._lock:
            if self._stopped or not self._ready:
                return
            task = self._ready.popleft()
            if task._cancelled:
                task._state = _IDLE
                return
            task._state = _RUNNING
            task._rerun = False
            self._steps += 1
        try:
            when = task._step()
        except BaseException:  # noqa: BLE001 - a task must not kill the loop
            traceback.print_exc()
            when = None
        with self._lock:
            if self._stopped:
                return
            task._state = _IDLE
            if task._cancelled:
                return
            if task._rerun or (when is not None and when <= self._clock.now()):
                self._wake_locked(task)
            elif when is not None:
                self._schedule_at_locked(task, when)

    def _service_timers(self) -> None:
        """Fire due deadlines, re-arm the single timer (loop thread only)."""
        with self._lock:
            if self._stopped:
                return
            now = self._clock.now()
            while self._timers and self._timers[0][0] <= now:
                _due, _seq, task = heapq.heappop(self._timers)
                self._wake_locked(task)
            deadline = self._timers[0][0] if self._timers else None
            self._timer_deadline = deadline
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None
        if deadline is None or self._clock_notifies:
            # An advance-notifying clock re-services on the next advance;
            # nothing to arm — simulated time never passes on its own.
            return
        self._timer_handle = self._loop.call_later(
            max(deadline - now, 0.0), self._service_timers
        )
