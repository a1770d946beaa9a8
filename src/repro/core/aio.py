"""The ``await``-native surface over MORENA's listener machinery.

The paper's API is asynchronous by construction — every tag operation
takes a listener pair — and PR 1 multiplexed those logical event loops
onto a reactor. This module adds the third idiom: coroutines.

::

    async def checkout(ref):
        cart = await ref.aio.read()
        cart.paid = True
        await ref.aio.write(cart)

    async def kiosk(discoverer):
        async for ref in discoverer.stream():
            print("tag in field:", await ref.aio.read())

Everything here is a *thin adapter*: ``ref.aio.read()`` enqueues the
exact same :class:`~repro.core.operations.Operation` a listener-style
``ref.read()`` would — same queue, same coalescing, same per-port
transaction batching, same retry/timeout behaviour — and merely awaits
its :class:`~repro.core.futures.OperationFuture`. The adapters therefore
work identically whether the awaiting coroutine lives on the device
reactor's own loop or on any other event loop (the bridge in
``OperationFuture.__await__`` is thread-safe in both directions).

Nothing in the middleware ever *requires* this module: the listener API
remains primary (Android fidelity), coroutines are a distribution-policy
choice in the RAFDA sense — see DESIGN.md decision 14.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, AsyncIterator, Optional, Tuple, TYPE_CHECKING

from repro.core.futures import (
    OperationFuture,
    _failure_error,
    format_future,
    lock_future,
    read_future,
    read_raw_future,
    write_future,
    write_raw_future,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.discovery import TagDiscoverer
    from repro.core.reference import TagReference
    from repro.core.scheduler import Reactor
    from repro.ndef.message import NdefMessage
    from repro.things.thing import Thing

_ALL_EVENTS = ("detected", "redetected", "empty")


class AsyncTagReference:
    """Coroutine view of a :class:`~repro.core.reference.TagReference`.

    Obtained via ``ref.aio``; holds no state of its own beyond the
    reference, so it is safe to create on every use.
    """

    __slots__ = ("_reference",)

    def __init__(self, reference: "TagReference") -> None:
        self._reference = reference

    @property
    def reference(self) -> "TagReference":
        return self._reference

    async def read(self, timeout: Optional[float] = None) -> Any:
        """``await ref.aio.read()`` — the converted tag content."""
        return await read_future(self._reference, timeout=timeout)

    async def write(
        self,
        obj: Any,
        timeout: Optional[float] = None,
        coalesce: Optional[bool] = None,
    ) -> "TagReference":
        """``await ref.aio.write(obj)`` — resolves once physically landed."""
        return await write_future(
            self._reference, obj, timeout=timeout, coalesce=coalesce
        )

    async def read_raw(self, timeout: Optional[float] = None) -> "NdefMessage":
        """Raw read; resolves to the refreshed cached NDEF message."""
        return await read_raw_future(self._reference, timeout=timeout)

    async def write_raw(
        self,
        message: "NdefMessage",
        timeout: Optional[float] = None,
        merge_key: Optional[str] = None,
        message_factory: Optional[Any] = None,
    ) -> "TagReference":
        """Raw write of a ready-made NDEF message.

        ``merge_key``/``message_factory`` are the protocol merge hook,
        identical to the callback surface -- so lease renewals issued
        through ``await ref.aio.write_raw(...)`` coalesce under the
        protocol's own rule, not the generic tail merge.
        """
        return await write_raw_future(
            self._reference,
            message,
            timeout=timeout,
            merge_key=merge_key,
            message_factory=message_factory,
        )

    async def make_read_only(self, timeout: Optional[float] = None) -> "TagReference":
        return await lock_future(self._reference, timeout=timeout)

    async def format(self, timeout: Optional[float] = None) -> "TagReference":
        return await format_future(self._reference, timeout=timeout)

    def __repr__(self) -> str:
        return f"AsyncTagReference({self._reference!r})"


class AsyncThing:
    """Coroutine view of a bound :class:`~repro.things.thing.Thing`.

    Obtained via ``thing.aio``. ``save``/``refresh`` keep the exact
    semantics of ``save_async``/``refresh_async`` (coalescing included);
    only the completion style changes.
    """

    __slots__ = ("_thing",)

    def __init__(self, thing: "Thing") -> None:
        self._thing = thing

    async def save(
        self, timeout: Optional[float] = None, coalesce: bool = True
    ) -> "Thing":
        """``await thing.aio.save()`` — resolves to the thing once stored."""
        future = OperationFuture()
        future.operation = self._thing.save_async(
            on_saved=lambda thing: future._succeed(thing),  # noqa: SLF001
            on_failed=lambda: future._fail(_failure_error(future)),  # noqa: SLF001
            timeout=timeout,
            coalesce=coalesce,
        )
        return await future

    async def refresh(self, timeout: Optional[float] = None) -> "Thing":
        """``await thing.aio.refresh()`` — re-read the tag into the thing."""
        future = OperationFuture()
        future.operation = self._thing.refresh_async(
            on_refreshed=lambda thing: future._succeed(thing),  # noqa: SLF001
            on_failed=lambda: future._fail(_failure_error(future)),  # noqa: SLF001
            timeout=timeout,
        )
        return await future

    def __repr__(self) -> str:
        return f"AsyncThing({self._thing!r})"


class TagStream:
    """``async for reference in stream`` over a discoverer's detections.

    Detections are pushed from the activity's main thread into an
    ``asyncio.Queue`` on the consuming loop via
    ``call_soon_threadsafe``; the consumer iterates at its own pace.
    The buffer is bounded (``max_buffer``): when a burst outruns the
    consumer, the *oldest* queued detection is dropped — for
    connectivity events the newest sighting is the one that matters,
    and a reference seen again supersedes its earlier sighting.

    The stream subscribes on ``__aenter__``/first ``__anext__`` and
    unsubscribes on :meth:`close` (or ``async with``). Use the
    module-level :func:`tag_stream` or ``discoverer.stream()``.
    """

    def __init__(
        self,
        discoverer: "TagDiscoverer",
        events: Optional[Tuple[str, ...]] = None,
        max_buffer: int = 1024,
    ) -> None:
        self._discoverer = discoverer
        self._events = tuple(events) if events is not None else _ALL_EVENTS
        self._max_buffer = max(1, max_buffer)
        self._queue: Optional["asyncio.Queue[TagReference]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._dropped = 0
        # One stable bound-method object: accessing self._on_detection
        # twice yields distinct objects, and unsubscription is identity-based.
        self._listener = self._on_detection

    # -- subscription ----------------------------------------------------------------

    def _ensure_subscribed(self) -> None:
        if self._queue is not None or self._closed:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._discoverer.add_detection_listener(self._listener)

    def _on_detection(self, event: str, reference: "TagReference") -> None:
        # Main-thread side: hand off to the consuming loop, never block.
        loop, queue = self._loop, self._queue
        if loop is None or queue is None or self._closed or loop.is_closed():
            return
        if event not in self._events:
            return
        try:
            loop.call_soon_threadsafe(self._push, reference)
        except RuntimeError:
            pass  # consuming loop shut down mid-detection

    def _push(self, reference: "TagReference") -> None:
        queue = self._queue
        if queue is None or self._closed:
            return
        while queue.qsize() >= self._max_buffer:
            queue.get_nowait()  # shed the oldest sighting
            self._dropped += 1
            # Roll the shed up to the discoverer's monotonic counter so
            # fleet telemetry still sees it after this stream is gone.
            self._discoverer._count_stream_drop(1)  # noqa: SLF001 - by-design tap
        queue.put_nowait(reference)

    @property
    def dropped(self) -> int:
        """Detections shed because the buffer was full."""
        return self._dropped

    def close(self) -> None:
        """Unsubscribe; a pending ``__anext__`` ends with StopAsyncIteration."""
        if self._closed:
            return
        self._closed = True
        self._discoverer.remove_detection_listener(self._listener)
        if self._loop is not None and self._queue is not None:
            if not self._loop.is_closed():
                try:
                    self._loop.call_soon_threadsafe(self._push_sentinel)
                except RuntimeError:
                    pass

    def _push_sentinel(self) -> None:
        if self._queue is not None:
            self._queue.put_nowait(_STREAM_END)

    # -- async iteration ---------------------------------------------------------------

    def __aiter__(self) -> AsyncIterator["TagReference"]:
        return self

    async def __anext__(self) -> "TagReference":
        self._ensure_subscribed()
        if self._closed and (self._queue is None or self._queue.empty()):
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _STREAM_END:
            raise StopAsyncIteration
        return item

    async def __aenter__(self) -> "TagStream":
        self._ensure_subscribed()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.close()


_STREAM_END: Any = object()


def tag_stream(
    discoverer: "TagDiscoverer",
    events: Optional[Tuple[str, ...]] = None,
    max_buffer: int = 1024,
) -> TagStream:
    """Detections of ``discoverer`` as an async iterator of references."""
    return TagStream(discoverer, events=events, max_buffer=max_buffer)


def run_on_reactor(reactor: "Reactor", coroutine: Any) -> concurrent.futures.Future:
    """Run ``coroutine`` on ``reactor``'s loop, starting the loop if needed.

    Returns the ``concurrent.futures.Future`` from
    ``asyncio.run_coroutine_threadsafe``; call ``.result(timeout)`` from
    any non-loop thread, e.g. a test harness.
    """
    return asyncio.run_coroutine_threadsafe(coroutine, reactor.start())
