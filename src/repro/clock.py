"""Injectable time sources.

All MORENA components that deal with timeouts, retry deadlines or leases
take a :class:`Clock` so that tests and benchmarks can substitute a
:class:`ManualClock` and advance time explicitly. Production code defaults
to :class:`SystemClock`.

The clock is deliberately tiny: ``now()`` returning seconds as a float, and
``sleep()``. Middleware that *waits for an event or a deadline, whichever
comes first* -- a tag reference, a Beamer -- blocks no thread: it is a
task on the device reactor (:mod:`repro.core.scheduler`), owns no thread,
and returns its next deadline for the reactor to wake it at. A thread
that must block (a looper's pump, a blocking future) waits on a
``threading.Condition`` with a timeout derived from ``now()`` rather than
calling ``sleep()`` in a loop.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal time source protocol."""

    def now(self) -> float:
        """Return the current time in seconds (monotonic)."""
        ...  # pragma: no cover - protocol

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""
        ...  # pragma: no cover - protocol


class SystemClock:
    """Real monotonic wall-clock time."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:
        return "SystemClock()"


class ManualClock:
    """A clock that only moves when told to.

    ``sleep()`` on a manual clock advances time immediately instead of
    blocking, which keeps single-threaded simulations deterministic.
    Threads blocked in :meth:`wait_until` are woken whenever
    :meth:`advance` moves time past their deadline.

    Components that keep their own deadline queues (the reactor in
    :mod:`repro.core.scheduler`, :class:`repro.android.looper.Looper`)
    subscribe via :meth:`add_listener` and are notified after every
    :meth:`advance` / :meth:`set`, so time-driven wakeups need no
    real-time polling. Listeners are invoked *outside* the clock's lock
    and must be cheap and non-blocking (typically a condition notify).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._cond = threading.Condition()
        self._listeners: List[Callable[[], None]] = []

    def now(self) -> float:
        with self._cond:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.advance(seconds)

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Subscribe to time advances; called after each advance/set."""
        with self._cond:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        with self._cond:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def advance(self, seconds: float) -> None:
        """Move time forward and wake any deadline waiters."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        with self._cond:
            self._now += seconds
            self._cond.notify_all()
            listeners = list(self._listeners)
        for listener in listeners:
            listener()

    def set(self, timestamp: float) -> None:
        """Jump to an absolute time (must not move backwards)."""
        with self._cond:
            if timestamp < self._now:
                raise ValueError("cannot move a ManualClock backwards")
            self._now = timestamp
            self._cond.notify_all()
            listeners = list(self._listeners)
        for listener in listeners:
            listener()

    def wait_until(self, deadline: float, real_timeout: float = 5.0) -> bool:
        """Block until the manual time reaches ``deadline``.

        Returns ``True`` if the deadline was reached, ``False`` if
        ``real_timeout`` real seconds elapsed first (a test safety valve).
        """
        end_real = time.monotonic() + real_timeout
        with self._cond:
            while self._now < deadline:
                remaining = end_real - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def __repr__(self) -> str:
        return f"ManualClock(now={self.now():.6f})"


DEFAULT_CLOCK: Clock = SystemClock()
