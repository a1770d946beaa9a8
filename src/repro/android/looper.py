"""Looper / Handler: the Android message-queue threading model.

Each simulated device runs one main looper on its own daemon thread; every
UI callback and every MORENA listener is posted here, which is what keeps
listener execution off the tag references' event loops (paper section
3.2: "listeners ... are always asynchronously scheduled for execution in
the activity's main thread").

The looper supports immediate and delayed posts, a ``sync`` barrier for
tests (post a no-op and wait until it drains), and clean shutdown. Time
for delayed posts flows through the injectable clock so manual-clock
simulations stay deterministic.

Delayed posts are event-driven, never polled: with a real clock the pump
waits exactly until the earliest due time; with a
:class:`~repro.clock.ManualClock` the looper subscribes to advance
notifications and sleeps until simulated time actually moves. Exotic
clocks that support neither fall back to a coarse real-time poll.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import traceback
from typing import Callable, List, Optional, Tuple

from repro.clock import Clock, SystemClock
from repro.errors import LooperError

Runnable = Callable[[], None]

# Fallback slice for clocks that neither notify on advance nor run in
# real time; unused with the shipped SystemClock/ManualClock.
_DELAY_POLL_SECONDS = 0.01


class Looper:
    """A message queue pumped by a single dedicated thread."""

    def __init__(self, name: str, clock: Optional[Clock] = None) -> None:
        self.name = name
        self._clock = clock if clock is not None else SystemClock()
        self._cond = threading.Condition()
        self._queue: List[Tuple[float, int, Runnable]] = []  # (due, seq, fn)
        self._seq = itertools.count()
        self._quit = False
        self._idle = True
        self._processed = 0
        self._errors: List[BaseException] = []
        self._clock_notifies = hasattr(self._clock, "add_listener")
        self._clock_is_realtime = isinstance(self._clock, SystemClock)
        if self._clock_notifies:
            self._clock.add_listener(self._on_clock_advance)
        self._thread = threading.Thread(
            target=self._loop, name=f"looper-{name}", daemon=True
        )
        self._thread.start()

    def _on_clock_advance(self) -> None:
        with self._cond:
            self._cond.notify_all()

    # -- posting -------------------------------------------------------------

    def post(self, runnable: Runnable) -> None:
        """Enqueue ``runnable`` for execution on the looper thread."""
        self.post_delayed(runnable, 0.0)

    def post_delayed(self, runnable: Runnable, delay_seconds: float) -> None:
        """Enqueue ``runnable`` to run no earlier than ``delay_seconds`` from now."""
        if delay_seconds < 0:
            raise LooperError("delay must be >= 0")
        with self._cond:
            if self._quit:
                raise LooperError(f"looper {self.name!r} has quit")
            due = self._clock.now() + delay_seconds
            heapq.heappush(self._queue, (due, next(self._seq), runnable))
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------------

    @property
    def is_current_thread(self) -> bool:
        return threading.current_thread() is self._thread

    @property
    def thread(self) -> threading.Thread:
        """The pump thread -- the owner identity tools key affinity on."""
        return self._thread

    @property
    def processed_count(self) -> int:
        with self._cond:
            return self._processed

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._queue)

    def drain_errors(self) -> List[BaseException]:
        """Return and clear exceptions raised by posted runnables.

        Android would crash the app; the simulation records the error and
        keeps looping so that a test can assert on it.
        """
        with self._cond:
            errors = self._errors
            self._errors = []
            return errors

    # -- synchronization ---------------------------------------------------------

    def sync(self, timeout: float = 5.0) -> bool:
        """Block until everything posted before this call has run.

        Returns ``False`` on timeout. Calling from the looper thread itself
        would deadlock and raises instead.
        """
        if self.is_current_thread:
            raise LooperError("cannot sync a looper from its own thread")
        done = threading.Event()
        try:
            self.post(done.set)
        except LooperError:
            return True  # already quit: nothing more will run
        return done.wait(timeout)

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until the queue is empty and the looper is between messages."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._quit or (not self._queue and self._idle), timeout
            )

    # -- lifecycle ------------------------------------------------------------------

    def quit(self, timeout: float = 5.0) -> None:
        """Stop the looper; pending messages are dropped."""
        with self._cond:
            self._quit = True
            self._queue.clear()
            self._cond.notify_all()
        if self._clock_notifies:
            self._clock.remove_listener(self._on_clock_advance)
        if not self.is_current_thread:
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the pump ----------------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            runnable = self._next_message()
            if runnable is None:
                return
            try:
                runnable()
            except BaseException as exc:  # noqa: BLE001 - recorded, not fatal
                with self._cond:
                    self._errors.append(exc)
                traceback.print_exc()
            finally:
                with self._cond:
                    self._processed += 1
                    self._idle = True
                    self._cond.notify_all()

    def _next_message(self) -> Optional[Runnable]:
        with self._cond:
            while True:
                if self._quit:
                    return None
                if self._queue:
                    due, _seq, runnable = self._queue[0]
                    now = self._clock.now()
                    if due <= now:
                        heapq.heappop(self._queue)
                        self._idle = False
                        return runnable
                    # Delayed message pending: wait until it can be due.
                    # A new post or a clock advance notifies the cond.
                    if self._clock_notifies:
                        self._cond.wait()
                    elif self._clock_is_realtime:
                        self._cond.wait(due - now)
                    else:
                        self._cond.wait(_DELAY_POLL_SECONDS)
                else:
                    self._cond.wait()


class Handler:
    """A thin posting facade bound to one looper, like ``android.os.Handler``."""

    def __init__(self, looper: Looper) -> None:
        self._looper = looper

    @property
    def looper(self) -> Looper:
        return self._looper

    def post(self, runnable: Runnable) -> None:
        self._looper.post(runnable)

    def post_delayed(self, runnable: Runnable, delay_seconds: float) -> None:
        self._looper.post_delayed(runnable, delay_seconds)
