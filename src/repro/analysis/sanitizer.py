"""Runtime thread-affinity sanitizer for MORENA programs.

The paper's contract is a thread-affinity contract: listeners "are
always asynchronously scheduled for execution in the activity's main
thread", so bound :class:`~repro.things.thing.Thing` state is owned by
the device's main looper and nothing running on middleware threads
(reactor loops and looper pumps; a Beamer is a reactor task, a tag
reference owns none, and neither owns a thread) may poke it directly. ``morelint``
checks that statically; this module checks it at run time, for the
cases no source analysis can see (callbacks built dynamically,
third-party helpers, the middleware itself regressing).

When installed, the sanitizer patches:

* ``Looper._loop`` and ``Reactor._loop_runner`` so every middleware
  thread registers itself on entry (threads started *before*
  installation are recognized by their names as a fallback).
  The reactor's loop thread is middleware too (event-**loop** affinity
  alongside looper affinity: a step mutating a bound Thing from the
  loop thread is an off-looper mutation like any other middleware
  thread's);
* ``Thing.__setattr__`` so public-field writes to a *bound* Thing from
  a middleware thread that is not the owning looper's pump thread are
  recorded as :class:`AffinityViolation`; unbound Things stay freely
  mutable -- Gson legitimately revives them on the reactor loop;
* ``TagReference._post_listener`` and ``Beamer._post_listener`` so every
  listener verifies, at the moment it executes, that it is running on
  its owner's main looper;
* ``OperationFuture.result`` and ``Looper.sync`` so a *blocking* wait
  executed inside a running asyncio event loop — the reactor's or any
  user loop — is recorded as a ``blocking-on-loop`` violation: one
  stalled callback freezes every reference multiplexed on that loop.
  (``await future`` is the non-blocking spelling; morelint rule MOR007
  is the static twin of this check.)

External threads (a test's main thread, a user script) are deliberately
*not* flagged: the simulation's "UI thread" is whatever drives the
scenario, and mutating a Thing there then calling ``save_async`` is the
documented programming model.

Usage::

    from repro.analysis import sanitizer
    san = sanitizer.install()            # or install(strict=True)
    ...
    print(san.format_report())
    sanitizer.uninstall()

or set ``MORENA_SANITIZER=1`` (``=strict`` to raise at the violation
point) and let the test suite's conftest install it for the session.
"""

from __future__ import annotations

import asyncio
import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "AffinityViolation",
    "AffinityViolationError",
    "LocksetTracker",
    "ThreadAffinitySanitizer",
    "TrackedLock",
    "current",
    "install",
    "install_from_env",
    "uninstall",
]

# Marker set on every wrapper the sanitizer installs, so a second
# install (another sanitizer instance, a re-entrant test fixture) can
# recognize an already-patched entry point and refuse to wrap the
# wrapper -- double-wrapping would survive the first uninstall and leak
# patched behaviour into unsanitized runs.
_WRAPPER_MARK = "__morena_sanitizer_wrapper__"

# Thread-name fallbacks for middleware threads started before install().
_MIDDLEWARE_NAME_MARKS: Tuple[str, ...] = ("looper-",)


def _in_running_event_loop() -> bool:
    """Whether the calling thread is currently inside a running asyncio loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


class AffinityViolationError(RuntimeError):
    """Raised at the violation point when the sanitizer runs strict."""


@dataclass(frozen=True)
class AffinityViolation:
    """One recorded breach of the thread-affinity contract."""

    kind: str  # "off-looper-mutation" | "listener-off-looper"
    #          | "blocking-on-loop" | "unlocked-shared-write"
    subject: str  # e.g. "WifiConfig.ssid" or the listener's repr
    thread_name: str  # the offending thread
    owner: str  # the looper (or event loop) that owns the subject
    location: str  # innermost user frame, "file:line"

    def __str__(self) -> str:
        if self.kind == "off-looper-mutation":
            return (
                f"{self.location}: thread {self.thread_name!r} mutated "
                f"{self.subject} but the field is owned by looper "
                f"{self.owner!r}; post the mutation to the looper instead"
            )
        if self.kind == "blocking-on-loop":
            return (
                f"{self.location}: {self.subject} blocked inside the running "
                f"event loop {self.owner!r} on thread {self.thread_name!r}; "
                f"await the future (or move the wait off the loop) instead"
            )
        if self.kind == "unlocked-shared-write":
            return (
                f"{self.location}: {self.subject} written by thread "
                f"{self.thread_name!r} with no lock consistently held "
                f"(discipline so far: {self.owner}); every thread writing "
                "a shared field must hold the same lock"
            )
        return (
            f"{self.location}: listener {self.subject} executed on thread "
            f"{self.thread_name!r} instead of its main looper {self.owner!r}"
        )


def _caller_location() -> str:
    """Innermost stack frame outside this module, as ``file:line``."""
    for frame in reversed(traceback.extract_stack()):
        if not frame.filename.endswith("sanitizer.py"):
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


def _is_wrapped(klass: type, attr: str) -> bool:
    return getattr(klass.__dict__.get(attr), _WRAPPER_MARK, False)


def _mark(wrapper: Any) -> Any:
    setattr(wrapper, _WRAPPER_MARK, True)
    return wrapper


# -- Eraser-style lockset tracking ---------------------------------------------


class TrackedLock:
    """A lock proxy that reports acquire/release to a tracker.

    Wraps anything with ``acquire``/``release`` (``threading.Lock``,
    ``RLock``, user monitors); usable exactly like the wrapped lock,
    context-manager protocol included.
    """

    def __init__(self, tracker: "LocksetTracker", name: str, inner: Any) -> None:
        self._tracker = tracker
        self._name = name
        self._inner = inner

    def acquire(self, *args: Any, **kwargs: Any) -> Any:
        got = self._inner.acquire(*args, **kwargs)
        if got is not False:  # acquire(blocking=False) may fail
            self._tracker._note_acquired(self._name)
        return got

    def release(self) -> None:
        self._tracker._note_released(self._name)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:  # locked(), _is_owned(), ...
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"TrackedLock({self._name!r}, {self._inner!r})"


class LocksetTracker:
    """The dynamic mirror of morelint rule MOR011.

    Eraser's lockset algorithm over *watched* objects: ``watch(obj)``
    wraps the object's lock-smelling attributes in :class:`TrackedLock`
    and patches its type's ``__setattr__`` so every public-field write
    records the set of tracked locks the writing thread holds. Per
    field the tracker keeps the classic state machine:

    * **exclusive** -- only the first thread has written; no checking
      (initialization is thread-private).
    * **shared** -- a second thread wrote; from that write on, the
      field's *candidate lockset* is intersected with each writer's
      held set. An empty candidate set means no lock protects the
      field consistently: one ``unlocked-shared-write`` violation is
      recorded (once per field).

    Nothing is watched by default, so an installed sanitizer stays
    silent on lock-clean programs.
    """

    def __init__(self, record: Callable[[AffinityViolation], None]) -> None:
        self._record = record
        self._held = threading.local()
        self._lock = threading.Lock()
        # (id(obj), attr) -> {"owner": ident, "candidates": set|None,
        #                     "discipline": set, "reported": bool}
        self._fields: Dict[Tuple[int, str], Dict[str, Any]] = {}
        self._watched_ids: Dict[int, str] = {}  # id(obj) -> type name
        self._patched_types: List[Tuple[type, Any]] = []

    # -- per-thread held set -------------------------------------------------

    def _held_set(self) -> set:
        held = getattr(self._held, "names", None)
        if held is None:
            held = set()
            self._held.names = held
        return held

    def _note_acquired(self, name: str) -> None:
        self._held_set().add(name)

    def _note_released(self, name: str) -> None:
        self._held_set().discard(name)

    # -- watching ------------------------------------------------------------

    def watch(self, obj: Any) -> Any:
        """Track lock discipline for ``obj``'s public fields."""
        for name, value in list(vars(obj).items()):
            if isinstance(value, TrackedLock):
                continue
            if _lockish_name(name) and hasattr(value, "acquire") and hasattr(
                value, "release"
            ):
                object.__setattr__(obj, name, TrackedLock(self, name, value))
        klass = type(obj)
        if not _is_wrapped(klass, "__setattr__"):
            self._patch_type(klass)
        with self._lock:
            self._watched_ids[id(obj)] = klass.__name__
        return obj

    def _patch_type(self, klass: type) -> None:
        original = klass.__dict__.get("__setattr__")
        fallback = original if original is not None else object.__setattr__
        tracker = self

        def watched_setattr(target: Any, name: str, value: Any) -> None:
            fallback(target, name, value)
            if not name.startswith("_") and not isinstance(value, TrackedLock):
                tracker._note_write(target, name)

        klass.__setattr__ = _mark(watched_setattr)
        self._patched_types.append((klass, original))

    def unwatch_all(self) -> None:
        """Restore every patched ``__setattr__`` and forget all state."""
        for klass, original in reversed(self._patched_types):
            if original is None:
                try:
                    del klass.__setattr__
                except AttributeError:  # pragma: no cover - already gone
                    pass
            else:
                klass.__setattr__ = original
        self._patched_types.clear()
        with self._lock:
            self._watched_ids.clear()
            self._fields.clear()

    # -- the state machine ---------------------------------------------------

    def _note_write(self, target: Any, attr: str) -> None:
        with self._lock:
            type_name = self._watched_ids.get(id(target))
        if type_name is None:
            return
        ident = threading.current_thread().ident
        held = frozenset(self._held_set())
        key = (id(target), attr)
        violation: Optional[AffinityViolation] = None
        with self._lock:
            state = self._fields.get(key)
            if state is None:
                self._fields[key] = {
                    "owner": ident,
                    "candidates": None,
                    "discipline": set(held),
                    "reported": False,
                }
                return
            state["discipline"] |= held
            if state["candidates"] is None:
                if ident == state["owner"]:
                    return  # still exclusive to the first thread
                state["candidates"] = set(held)  # now shared: start refining
            else:
                state["candidates"] &= held
            if not state["candidates"] and not state["reported"]:
                state["reported"] = True
                discipline = (
                    ", ".join(sorted(state["discipline"])) or "no lock ever held"
                )
                violation = AffinityViolation(
                    kind="unlocked-shared-write",
                    subject=f"{type_name}.{attr}",
                    thread_name=threading.current_thread().name,
                    owner=discipline,
                    location=_caller_location(),
                )
        if violation is not None:
            self._record(violation)


def _lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(mark in lowered for mark in ("lock", "mutex", "monitor"))


class ThreadAffinitySanitizer:
    """Patches the middleware; collects :class:`AffinityViolation`."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: List[AffinityViolation] = []
        self._lock = threading.Lock()
        self._middleware_idents: Dict[int, str] = {}  # ident -> role
        self._originals: List[Tuple[type, str, Any]] = []
        self._installed = False
        # Opt-in dynamic lockset checking (MOR011's runtime mirror):
        # nothing is watched until the test/program calls
        # ``san.lockset.watch(obj)``.
        self.lockset = LocksetTracker(self._record)

    # -- middleware-thread bookkeeping ---------------------------------------

    def register_current_thread(self, role: str) -> None:
        """Mark the calling thread as middleware (loops call this on entry)."""
        thread = threading.current_thread()
        with self._lock:
            self._middleware_idents[thread.ident] = role

    def is_middleware_thread(self) -> bool:
        thread = threading.current_thread()
        with self._lock:
            if thread.ident in self._middleware_idents:
                return True
        name = thread.name
        return any(
            name.startswith(mark) for mark in _MIDDLEWARE_NAME_MARKS
        ) or name.endswith("-aioloop")

    # -- recording -----------------------------------------------------------

    def _record(self, violation: AffinityViolation) -> None:
        with self._lock:
            self.violations.append(violation)
        if self.strict:
            raise AffinityViolationError(str(violation))

    def drain(self, start: int = 0) -> List[AffinityViolation]:
        """Return and remove violations recorded at index >= ``start``."""
        with self._lock:
            drained = self.violations[start:]
            del self.violations[start:]
            return drained

    def format_report(self) -> str:
        with self._lock:
            violations = list(self.violations)
        if not violations:
            return "thread-affinity sanitizer: no violations"
        lines = [
            f"thread-affinity sanitizer: {len(violations)} violation(s)"
        ] + [f"  {violation}" for violation in violations]
        return "\n".join(lines)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        from repro.android.looper import Looper
        from repro.core.beam import Beamer
        from repro.core.futures import OperationFuture
        from repro.core.reference import TagReference
        from repro.core.scheduler import Reactor
        from repro.things.thing import Thing

        self._patch_registering(Looper, "_loop", "looper")
        self._patch_registering(Reactor, "_loop_runner", "reactor-loop")
        self._patch_thing_setattr(Thing)
        self._patch_post_listener(TagReference)
        self._patch_post_listener(Beamer)
        self._patch_blocking(OperationFuture, "result", "OperationFuture.result")
        self._patch_blocking(Looper, "sync", "Looper.sync")
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.lockset.unwatch_all()
        for klass, attr, original in reversed(self._originals):
            if original is None:
                try:
                    delattr(klass, attr)
                except AttributeError:  # pragma: no cover - already gone
                    pass
            else:
                setattr(klass, attr, original)
        self._originals.clear()
        self._installed = False

    def _save(self, klass: type, attr: str) -> Any:
        original = klass.__dict__.get(attr)
        self._originals.append((klass, attr, original))
        return getattr(klass, attr, None)

    def _patch_registering(self, klass: type, attr: str, role: str) -> None:
        if _is_wrapped(klass, attr):
            return
        original = self._save(klass, attr)
        sanitizer = self

        def runner(obj: Any, *args: Any, **kwargs: Any) -> Any:
            sanitizer.register_current_thread(role)
            return original(obj, *args, **kwargs)

        runner.__name__ = attr
        setattr(klass, attr, _mark(runner))

    def _patch_thing_setattr(self, thing_class: type) -> None:
        if _is_wrapped(thing_class, "__setattr__"):
            return
        # Thing does not define __setattr__, so the saved original is
        # None and uninstall() deletes the patch, restoring object's.
        self._save(thing_class, "__setattr__")
        sanitizer = self

        def checked_setattr(thing: Any, name: str, value: Any) -> None:
            if not name.startswith("_") and sanitizer.is_middleware_thread():
                owner = sanitizer.owner_of(thing)
                if owner is not None and not owner.is_current_thread:
                    object.__setattr__(thing, name, value)
                    sanitizer._record(
                        AffinityViolation(
                            kind="off-looper-mutation",
                            subject=f"{type(thing).__name__}.{name}",
                            thread_name=threading.current_thread().name,
                            owner=owner.name,
                            location=_caller_location(),
                        )
                    )
                    return
            object.__setattr__(thing, name, value)

        thing_class.__setattr__ = _mark(checked_setattr)

    def _patch_post_listener(self, reference_class: type) -> None:
        if _is_wrapped(reference_class, "_post_listener"):
            return
        original = self._save(reference_class, "_post_listener")
        sanitizer = self

        def checked_post(
            reference: Any, callback: Callable[..., None], *args: Any
        ) -> None:
            looper = reference.looper

            def guarded(*callback_args: Any) -> None:
                if not looper.is_current_thread:
                    sanitizer._record(
                        AffinityViolation(
                            kind="listener-off-looper",
                            subject=getattr(
                                callback, "__qualname__", repr(callback)
                            ),
                            thread_name=threading.current_thread().name,
                            owner=looper.name,
                            location=_caller_location(),
                        )
                    )
                callback(*callback_args)

            original(reference, guarded, *args)

        checked_post.__name__ = "_post_listener"
        reference_class._post_listener = _mark(checked_post)

    def _patch_blocking(self, klass: type, attr: str, subject: str) -> None:
        """Record a ``blocking-on-loop`` violation when ``klass.attr`` —
        a blocking wait — is entered with an asyncio event loop running
        on the calling thread. The wait still proceeds (record-only
        mode must not change behaviour)."""
        if _is_wrapped(klass, attr):
            return
        original = self._save(klass, attr)
        sanitizer = self

        def checked_wait(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if _in_running_event_loop():
                loop_name = repr(asyncio.get_running_loop())
                sanitizer._record(
                    AffinityViolation(
                        kind="blocking-on-loop",
                        subject=subject,
                        thread_name=threading.current_thread().name,
                        owner=loop_name,
                        location=_caller_location(),
                    )
                )
            return original(obj, *args, **kwargs)

        checked_wait.__name__ = attr
        setattr(klass, attr, _mark(checked_wait))

    # -- ownership -----------------------------------------------------------

    @staticmethod
    def owner_of(thing: Any) -> Optional[Any]:
        """The looper owning ``thing``'s public fields, or ``None``.

        Only *bound* Things have an owner: binding is the moment a Thing
        becomes shared with the middleware (Gson freely builds and fills
        unbound instances on the reactor loop while reviving reads).
        """
        if thing.__dict__.get("_reference") is None:
            return None
        activity = thing.__dict__.get("_activity")
        device = getattr(activity, "device", None)
        return getattr(device, "main_looper", None)


# -- module-level singleton ----------------------------------------------------

_active: Optional[ThreadAffinitySanitizer] = None


def current() -> Optional[ThreadAffinitySanitizer]:
    """The installed sanitizer, or ``None``."""
    return _active


def install(strict: bool = False) -> ThreadAffinitySanitizer:
    """Install (idempotent: returns the existing instance if active)."""
    global _active
    if _active is not None:
        return _active
    sanitizer = ThreadAffinitySanitizer(strict=strict)
    sanitizer.install()
    _active = sanitizer
    return sanitizer


def uninstall() -> None:
    global _active
    if _active is not None:
        _active.uninstall()
        _active = None


def install_from_env(
    variable: str = "MORENA_SANITIZER",
) -> Optional[ThreadAffinitySanitizer]:
    """Install according to ``MORENA_SANITIZER``: unset/``0``/``off`` ->
    no-op, ``strict`` -> strict mode, anything else truthy -> record-only."""
    value = os.environ.get(variable, "").strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return None
    return install(strict=value == "strict")
