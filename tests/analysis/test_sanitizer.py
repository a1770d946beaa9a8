"""The runtime thread-affinity sanitizer: seeded violations and clean runs.

The seeded cases use the *real* middleware machinery -- a step executed
on the reactor's loop, a listener forced off its looper -- so the tests
exercise the same code paths a buggy application or middleware
regression would.
"""

import asyncio
import threading

import pytest

from repro.analysis import sanitizer as sanitizer_mod
from repro.analysis.sanitizer import AffinityViolationError
from repro.concurrent import EventLog
from repro.core.futures import read_future
from repro.tags.factory import make_tag
from repro.things.activity import ThingActivity
from repro.things.thing import Thing

from tests.conftest import make_reference, text_tag


class Crate(Thing):
    label: str

    def __init__(self, activity, label="crate"):
        super().__init__(activity)
        self.label = label


class CrateActivity(ThingActivity):
    THING_CLASS = Crate

    def on_create(self):
        self.discovered = EventLog()
        self.empties = EventLog()

    def when_discovered(self, thing):
        self.discovered.append(thing)

    def when_discovered_empty(self, empty):
        self.empties.append(empty)


@pytest.fixture
def san():
    """An installed sanitizer; seeded violations are drained afterwards
    so the session-level affinity guard never sees them."""
    pre_existing = sanitizer_mod.current()
    active = sanitizer_mod.install()
    before = len(active.violations)
    yield active
    active.strict = False
    active.drain(before)
    if pre_existing is None:
        sanitizer_mod.uninstall()


@pytest.fixture
def bound_crate(scenario):
    phone = scenario.add_phone("san-phone")
    app = scenario.start(phone, CrateActivity)
    tag = make_tag()
    scenario.put(tag, phone)
    assert app.empties.wait_for_count(1)
    crate = Crate(app, label="sealed")
    saved = EventLog()
    app.empties.snapshot()[0].initialize(
        crate,
        on_saved=lambda t: saved.append(t),
        on_save_failed=lambda: saved.append(None),
    )
    assert saved.wait_for_count(1)
    assert saved.snapshot()[0] is not None
    return app, crate


def _run_on_reactor(app, fn):
    """Execute ``fn`` on the device's real reactor loop thread."""
    done = threading.Event()

    def step():
        try:
            fn()
        finally:
            done.set()
        return None

    task = app.device.reactor.register(step, name="seeded-step")
    task.wake()
    assert done.wait(5)
    task.cancel()


class TestOffLooperMutation:
    def test_catches_reactor_worker_mutating_bound_thing(self, san, bound_crate):
        app, crate = bound_crate
        before = len(san.violations)
        _run_on_reactor(app, lambda: setattr(crate, "label", "tampered"))
        fresh = san.violations[before:]
        assert any(v.kind == "off-looper-mutation" for v in fresh)
        violation = next(v for v in fresh if v.kind == "off-looper-mutation")
        assert violation.subject == "Crate.label"
        assert violation.owner == app.device.main_looper.name
        assert violation.thread_name.endswith("-aioloop")
        # Record-only mode still applies the write.
        assert crate.label == "tampered"

    def test_external_thread_is_allowed(self, san, bound_crate):
        _app, crate = bound_crate
        before = len(san.violations)
        crate.label = "updated-by-the-ui"  # the test thread is the "UI"
        assert san.violations[before:] == []

    def test_unbound_thing_is_freely_mutable(self, san, scenario):
        phone = scenario.add_phone("san-unbound")
        app = scenario.start(phone, CrateActivity)
        unbound = Crate(app)
        before = len(san.violations)
        _run_on_reactor(app, lambda: setattr(unbound, "label", "revived"))
        assert san.violations[before:] == []
        assert unbound.label == "revived"

    def test_private_fields_are_exempt(self, san, bound_crate):
        app, crate = bound_crate
        before = len(san.violations)
        _run_on_reactor(app, lambda: setattr(crate, "_scratch", 1))
        assert san.violations[before:] == []

    def test_listener_on_looper_is_allowed(self, san, bound_crate):
        app, crate = bound_crate
        before = len(san.violations)
        settled = EventLog()
        crate.label = "renamed"
        crate.save_async(
            on_saved=lambda t: settled.append(t),
            on_failed=lambda: settled.append(None),
        )
        assert settled.wait_for_count(1)
        assert san.violations[before:] == []


class _InlineLooper:
    """A broken looper that runs posts on the caller's thread -- the
    middleware bug the listener guard exists to catch."""

    name = "inline-looper"
    is_current_thread = False

    def post(self, runnable):
        runnable()


class TestListenerAffinity:
    def test_catches_listener_executing_off_looper(
        self, san, scenario, phone, activity
    ):
        reference = make_reference(activity, text_tag("x"), phone)
        reference._looper = _InlineLooper()
        before = len(san.violations)
        delivered = []
        reference._post_listener(delivered.append, reference)
        assert delivered == [reference]
        fresh = san.violations[before:]
        assert any(v.kind == "listener-off-looper" for v in fresh)
        assert fresh[0].owner == "inline-looper"

    def test_normal_listener_dispatch_is_clean(
        self, san, scenario, phone, activity
    ):
        tag = text_tag("hello")
        reference = make_reference(activity, tag, phone)
        scenario.put(tag, phone)
        before = len(san.violations)
        read = EventLog()
        reference.read(
            on_read=lambda r: read.append(r.cached),
            on_failed=lambda r: read.append(None),
            timeout=5.0,
        )
        assert read.wait_for_count(1)
        assert read.snapshot() == ["hello"]
        assert san.violations[before:] == []


class TestEventLoopAffinity:
    """The asyncio half of the contract: blocking waits inside a running
    event loop, and the asyncio reactor's loop thread as middleware."""

    def test_future_result_inside_running_loop_is_flagged(
        self, san, scenario, phone, activity
    ):
        tag = text_tag("hello")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        before = len(san.violations)

        async def blocking_wait():
            future = read_future(reference)
            return future.result(timeout=5.0)  # blocks the loop

        value = asyncio.run(blocking_wait())
        assert value == "hello"  # record-only: the wait still completes
        fresh = [
            v for v in san.violations[before:] if v.kind == "blocking-on-loop"
        ]
        assert fresh
        assert fresh[0].subject == "OperationFuture.result"
        assert "event loop" in str(fresh[0])

    def test_looper_sync_inside_running_loop_is_flagged(self, san, phone):
        before = len(san.violations)

        async def blocking_sync():
            return phone.main_looper.sync(timeout=5.0)

        assert asyncio.run(blocking_sync())
        fresh = [
            v for v in san.violations[before:] if v.kind == "blocking-on-loop"
        ]
        assert fresh
        assert fresh[0].subject == "Looper.sync"

    def test_blocking_off_loop_is_clean(self, san, scenario, phone, activity):
        tag = text_tag("offloop")
        scenario.put(tag, phone)
        reference = make_reference(activity, tag, phone)
        before = len(san.violations)
        assert read_future(reference).result(timeout=5.0) == "offloop"
        assert phone.main_looper.sync(timeout=5.0)
        assert san.violations[before:] == []

    def test_asyncio_loop_thread_registers_as_middleware(self, san, scenario):
        phone = scenario.add_phone("san-aio")
        app = scenario.start(phone, CrateActivity)
        seen = []
        _run_on_reactor(app, lambda: seen.append(san.is_middleware_thread()))
        assert seen == [True]

    def test_catches_asyncio_step_mutating_bound_thing(self, san, bound_crate):
        """A plain callback posted to the reactor's loop -- not a task
        step -- is middleware too: the whole loop thread is covered."""
        app, crate = bound_crate
        loop = app.device.reactor.start()
        done = threading.Event()

        def tamper():
            try:
                crate.label = "tampered"
            finally:
                done.set()

        before = len(san.violations)
        loop.call_soon_threadsafe(tamper)
        assert done.wait(5)
        fresh = san.violations[before:]
        violation = next(
            v for v in fresh if v.kind == "off-looper-mutation"
        )
        assert violation.subject == "Crate.label"
        assert violation.thread_name.endswith("-aioloop")


class TestStrictMode:
    def test_strict_raises_at_the_violation_point(self, san, bound_crate):
        app, crate = bound_crate
        san.strict = True
        raised = []

        def mutate():
            try:
                crate.label = "strict-tamper"
            except AffinityViolationError as exc:
                raised.append(exc)

        _run_on_reactor(app, mutate)
        assert len(raised) == 1
        assert "Crate.label" in str(raised[0])


class _SharedCounter:
    """A plain object with a lock-smelling field for lockset tests."""

    def __init__(self):
        self.state_lock = threading.Lock()
        self.total = 0


def _hammer(counter, writes, locked):
    barrier = threading.Barrier(2)

    def unlocked_writer():
        barrier.wait()
        for _ in range(writes):
            counter.total = counter.total + 1

    def locked_writer():
        barrier.wait()
        for _ in range(writes):
            with counter.state_lock:
                counter.total = counter.total + 1

    worker = locked_writer if locked else unlocked_writer
    threads = [
        threading.Thread(target=worker, name=f"lockset-{i}") for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)


class TestLockset:
    """The runtime mirror of morelint rule MOR011."""

    def test_two_threads_without_the_lock_are_flagged_once(self, san):
        counter = san.lockset.watch(_SharedCounter())
        before = len(san.violations)
        try:
            _hammer(counter, writes=50, locked=False)
        finally:
            san.lockset.unwatch_all()
        fresh = [
            v
            for v in san.violations[before:]
            if v.kind == "unlocked-shared-write"
        ]
        # One report per field, not one per racy write.
        assert len(fresh) == 1
        assert fresh[0].subject == "_SharedCounter.total"
        assert "lockset" in str(fresh[0]) or "lock" in str(fresh[0])

    def test_consistent_locking_is_silent_and_correct(self, san):
        counter = san.lockset.watch(_SharedCounter())
        before = len(san.violations)
        try:
            _hammer(counter, writes=50, locked=True)
        finally:
            san.lockset.unwatch_all()
        assert [
            v
            for v in san.violations[before:]
            if v.kind == "unlocked-shared-write"
        ] == []
        assert counter.total == 100

    def test_single_thread_initialization_is_exclusive(self, san):
        counter = san.lockset.watch(_SharedCounter())
        before = len(san.violations)
        try:
            for _ in range(10):
                counter.total = counter.total + 1  # no lock, but one thread
        finally:
            san.lockset.unwatch_all()
        assert san.violations[before:] == []

    def test_unwatch_restores_setattr(self, san):
        counter = san.lockset.watch(_SharedCounter())
        assert "__setattr__" in _SharedCounter.__dict__
        san.lockset.unwatch_all()
        assert "__setattr__" not in _SharedCounter.__dict__
        counter.total = 99  # plain write, no tracking
        assert counter.total == 99

    def test_tracked_lock_still_behaves_like_a_lock(self, san):
        counter = san.lockset.watch(_SharedCounter())
        try:
            assert counter.state_lock.acquire(blocking=False)
            assert not counter.state_lock.acquire(blocking=False)
            counter.state_lock.release()
            with counter.state_lock:
                pass
        finally:
            san.lockset.unwatch_all()


class TestLifecycle:
    def test_install_is_idempotent(self, san):
        assert sanitizer_mod.install() is san

    def test_double_install_does_not_double_wrap(self, san):
        first = Thing.__dict__.get("__setattr__")
        assert sanitizer_mod.install() is san
        assert Thing.__dict__.get("__setattr__") is first

    def test_repeated_uninstall_is_safe(self):
        if sanitizer_mod.current() is not None:
            pytest.skip("session-level sanitizer active (MORENA_SANITIZER)")
        pristine = "__setattr__" not in Thing.__dict__
        sanitizer_mod.install()
        sanitizer_mod.install()  # second install is a no-op
        sanitizer_mod.uninstall()
        if pristine:
            assert "__setattr__" not in Thing.__dict__
        sanitizer_mod.uninstall()  # idempotent: nothing left to undo
        assert sanitizer_mod.current() is None

    def test_report_formats_violations(self, san, bound_crate):
        app, crate = bound_crate
        before = len(san.violations)
        _run_on_reactor(app, lambda: setattr(crate, "label", "reported"))
        report = san.format_report()
        assert "violation" in report
        assert "Crate.label" in report
        san.drain(before)
        # Drained: the report goes back to clean (session guard relies on this).
        if not san.violations:
            assert san.format_report() == (
                "thread-affinity sanitizer: no violations"
            )

    def test_uninstall_restores_the_middleware(self):
        if sanitizer_mod.current() is not None:
            pytest.skip("session-level sanitizer active (MORENA_SANITIZER)")
        sanitizer_mod.install()
        assert "__setattr__" in Thing.__dict__
        sanitizer_mod.uninstall()
        assert "__setattr__" not in Thing.__dict__
        assert sanitizer_mod.current() is None

    def test_env_opt_in(self, monkeypatch):
        if sanitizer_mod.current() is not None:
            pytest.skip("session-level sanitizer active (MORENA_SANITIZER)")
        monkeypatch.setenv("MORENA_SANITIZER", "0")
        assert sanitizer_mod.install_from_env() is None
        monkeypatch.setenv("MORENA_SANITIZER", "strict")
        active = sanitizer_mod.install_from_env()
        try:
            assert active is not None and active.strict
        finally:
            sanitizer_mod.uninstall()
