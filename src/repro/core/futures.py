"""Futures over the listener interface.

The paper's API is listener-pairs because that is what 2012 Android
idiomatically offered. Python callers often prefer a future: one object
that can be waited on, chained, or composed. ``OperationFuture`` adapts
any of the asynchronous calls without changing their semantics --
the underlying operation still lives in the reference's ordered queue,
still retries, still times out; the future merely observes its fate.

::

    future = read_future(ref)
    value = future.result(timeout=2.0)          # blocking style

    write_future(ref, "new").then(
        lambda ref: print("saved")
    )                                           # chaining style

Listeners registered through a future run on the activity's main thread,
exactly like plain MORENA listeners.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Generator, List, Optional

from repro.core.operations import Operation, OperationOutcome
from repro.core.reference import TagReference
from repro.errors import MorenaError


class OperationTimeoutError(MorenaError):
    """The awaited operation settled as TIMED_OUT (or FAILED/CANCELLED)."""


class OperationFuture:
    """The eventual outcome of one asynchronous tag operation."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._settled = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["OperationFuture"], None]] = []
        self.operation: Optional[Operation] = None

    # -- completion (wired to the MORENA listeners) -------------------------------

    def _succeed(self, value: Any) -> None:
        self._settle(value=value)

    def _fail(self, error: BaseException) -> None:
        self._settle(error=error)

    def _settle(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        with self._cond:
            if self._settled:
                return
            self._settled = True
            self._value = value
            self._error = error
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self._cond.notify_all()
        for callback in callbacks:
            callback(self)

    # -- observation -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        with self._cond:
            return self._settled

    @property
    def succeeded(self) -> bool:
        with self._cond:
            return self._settled and self._error is None

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until settled; return the value or raise the failure.

        Never call this from the activity's main thread -- the listeners
        that settle the future run there (the same rule as ``Looper.sync``).
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._settled, timeout):
                raise TimeoutError("operation future not settled in time")
            if self._error is not None:
                raise self._error
            return self._value

    def add_done_callback(self, callback: Callable[["OperationFuture"], None]) -> None:
        """Run ``callback(future)`` once settled (immediately if already)."""
        with self._cond:
            if not self._settled:
                self._callbacks.append(callback)
                return
        callback(self)

    def __await__(self) -> Generator[Any, None, Any]:
        """``await future`` from any coroutine, on any event loop.

        Bridges to an :class:`asyncio.Future` on the *awaiting* loop via
        ``call_soon_threadsafe``, so the settling thread (a looper or the
        reactor's loop) never matters.
        Failures raise exactly what :meth:`result` would raise.
        """
        loop = asyncio.get_running_loop()
        bridged: "asyncio.Future[Any]" = loop.create_future()

        def transfer(settled: "OperationFuture") -> None:
            def resolve() -> None:
                if bridged.cancelled():
                    return
                if settled._error is not None:  # noqa: SLF001 - same class
                    bridged.set_exception(settled._error)  # noqa: SLF001
                else:
                    bridged.set_result(settled._value)  # noqa: SLF001

            if loop.is_closed():
                return
            try:
                loop.call_soon_threadsafe(resolve)
            except RuntimeError:
                pass  # awaiting loop shut down before settlement

        self.add_done_callback(transfer)
        return bridged.__await__()

    def then(self, on_value: Callable[[Any], Any]) -> "OperationFuture":
        """Chain: a new future resolving to ``on_value(value)``.

        Failures propagate unchanged; an exception inside ``on_value``
        fails the chained future.
        """
        chained = OperationFuture()

        def forward(settled: "OperationFuture") -> None:
            if settled._error is not None:  # noqa: SLF001 - same class
                chained._fail(settled._error)  # noqa: SLF001
                return
            try:
                chained._succeed(on_value(settled._value))  # noqa: SLF001
            except BaseException as exc:  # noqa: BLE001 - routed to future
                chained._fail(exc)

        self.add_done_callback(forward)
        return chained


def _failure_error(future: OperationFuture) -> OperationTimeoutError:
    operation = future.operation
    outcome = operation.outcome.value if operation else "unknown"
    cause = operation.error if operation else None
    error = OperationTimeoutError(f"tag operation settled as {outcome}")
    if cause is not None:
        error.__cause__ = cause
    return error


def read_future(reference: TagReference, timeout: Optional[float] = None) -> OperationFuture:
    """Asynchronous read as a future resolving to the converted value."""
    future = OperationFuture()
    future.operation = reference.read(
        on_read=lambda ref: future._succeed(ref.cached),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
    )
    return future


def write_future(
    reference: TagReference,
    value: Any,
    timeout: Optional[float] = None,
    coalesce: Optional[bool] = None,
) -> OperationFuture:
    """Asynchronous write as a future resolving to the reference."""
    future = OperationFuture()
    future.operation = reference.write(
        value,
        on_written=lambda ref: future._succeed(ref),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
        coalesce=coalesce,
    )
    return future


def lock_future(reference: TagReference, timeout: Optional[float] = None) -> OperationFuture:
    """Asynchronous make-read-only as a future resolving to the reference."""
    future = OperationFuture()
    future.operation = reference.make_read_only(
        on_locked=lambda ref: future._succeed(ref),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
    )
    return future


def read_raw_future(
    reference: TagReference, timeout: Optional[float] = None
) -> OperationFuture:
    """Asynchronous raw read as a future resolving to the cached message."""
    future = OperationFuture()
    future.operation = reference.read_raw(
        on_read=lambda ref: future._succeed(ref.cached_message),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
    )
    return future


def write_raw_future(
    reference: TagReference,
    message: Any,
    timeout: Optional[float] = None,
    merge_key: Optional[str] = None,
    message_factory: Optional[Any] = None,
) -> OperationFuture:
    """Asynchronous raw write as a future resolving to the reference.

    ``merge_key``/``message_factory`` pass straight through to
    :meth:`TagReference.write_raw` -- the protocol merge hook works
    identically on the future surface.
    """
    future = OperationFuture()
    future.operation = reference.write_raw(
        message,
        on_written=lambda ref: future._succeed(ref),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
        merge_key=merge_key,
        message_factory=message_factory,
    )
    return future


def format_future(
    reference: TagReference, timeout: Optional[float] = None
) -> OperationFuture:
    """Asynchronous NDEF format as a future resolving to the reference."""
    future = OperationFuture()
    future.operation = reference.format(
        on_formatted=lambda ref: future._succeed(ref),  # noqa: SLF001
        on_failed=lambda ref: future._fail(_failure_error(future)),  # noqa: SLF001
        timeout=timeout,
    )
    return future
