"""The traced run: per-layer attribution measured from outside the program.

Nothing under ``src/`` changes. Spans are recorded by wrapping the
layers' public entry points at class level from this file, counters are
read from the program's public counter surfaces, and CPU shares come
from stdlib profiling (``cProfile`` with a per-thread CPU timer) over
every thread. A traced run has three phases, each on a freshly built
scenario with its own set-up and warm-up:

1. untraced, for the tracing-overhead baseline;
2. spans and counters (the per-layer metrics);
3. profiled (``cpu_share.<module>``).

Layers are the program's packages (``repro.<module>``); a span's name
starts with its layer.
"""

from __future__ import annotations

import cProfile
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Dict, List, Optional

from common import percentile
from spans import SpanStore, by_op, first_start, self_time_by_name

from repro.core.listeners import as_callback
from repro.core.reference import TagReference
from repro.core.scheduler import Reactor, ReactorTask
from repro.android.looper import Looper
from repro.gateway.gateway import FleetGateway
from repro.gateway.reporter import GatewayReporter
from repro.gson.gson import Gson
from repro.leasing.manager import LeaseManager
from repro.ndef.message import NdefMessage
from repro.ndef.record import ENCODE_STATS
from repro.radio.events import TagEntered
from repro.radio.port import NfcAdapterPort, TagSession
from repro.tags.tag import SimulatedTag
from repro.things.thing import Thing

STEP_FAMILIES = ("tagref", "txsched", "gw-shard", "gw-report")
MODULES = ("gson", "ndef", "core", "radio", "tags", "android", "things",
           "leasing", "gateway", "harness", "clock", "other")


def step_family(name: str) -> str:
    for family in STEP_FAMILIES:
        if name.startswith(family):
            return family
    return "other"


class Hooks:
    """What a workload calls on the traced run; the untraced run passes None."""

    def setup_started(self) -> None:
        pass

    def setup_finished(self, references: int) -> None:
        pass

    def cohort_entering(self, uids) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass

    def begin(self, objects: dict) -> None:
        pass

    def end(self, objects: dict, phase) -> None:
        pass


class Tally:
    """A thread-safe counter set."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)


def counters(objects: dict) -> Dict[str, float]:
    """Sums over the program's public counters for the objects given."""
    out: Dict[str, float] = defaultdict(float)
    for ref in objects.get("references", ()):
        out["attempts"] += ref.attempts
        out["timeouts"] += ref.timeouts
        out["coalesced"] += ref.coalesced_writes
    for port in objects.get("ports", ()):
        out["connects"] += port.connects
    for scheduler in objects.get("schedulers", ()):
        out["preemptions"] += scheduler.stats_snapshot()["preemptions"]
    for reactor in objects.get("reactors", ()):
        out["steps"] += reactor.steps_executed
    for link in objects.get("links", ()):
        out["link_attempts"] += link.attempts
        out["link_failures"] += link.failures
    for manager in objects.get("managers", ()):
        _acq, denials, _renewals, merged = manager.stats_snapshot()
        out["denials"] += denials
        out["renewals_merged"] += merged
    gateway = objects.get("gateway")
    if gateway is not None:
        telemetry = gateway.telemetry()
        for key in ("events_ingested", "batches", "events_dropped_queue",
                    "events_dropped_reporter", "events_dropped_streams"):
            out[key] += telemetry[key]
    hits, misses = ENCODE_STATS.snapshot()
    out["encode_hits"] += hits
    out["encode_misses"] += misses
    return out


class Tracer(Hooks):
    """Spans at the layers' public entry points, plus counter deltas."""

    def __init__(self) -> None:
        self.store = SpanStore(time.perf_counter)
        self.enabled = False
        self.tally = Tally()
        # Keys exist up front: listeners on several threads append to them.
        self.samples: Dict[str, List[float]] = {
            name: [] for name in ("things.detect_ms", "android.looper_wait_ms",
                                  "core.reactor_wake_lag_ms", "leasing.acquire_ms")}
        self.enter_at: Dict[bytes, float] = {}
        self.op_uid: Dict[int, bytes] = {}
        self.op_enqueued: Dict[int, float] = {}
        self.pending_due: Dict[ReactorTask, float] = {}
        self.session_ops: List[int] = []
        self.ref_kb: Optional[float] = None
        self._tracing_setup = False
        self._patches: list = []
        self.window = (0.0, 0.0)
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}
        self.ttfs: List[float] = []
        self.ingest_latency = None

    # -- workload hooks --------------------------------------------------------------

    def setup_started(self) -> None:
        if self.ref_kb is None and not self._tracing_setup:
            self._tracing_setup = True
            tracemalloc.start()

    def setup_finished(self, references: int) -> None:
        if self._tracing_setup:
            retained, _peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self._tracing_setup = False
            self.ref_kb = retained / 1024.0 / max(references, 1)

    def cohort_entering(self, uids) -> None:
        now = time.perf_counter()
        for uid in uids:
            self.enter_at[uid] = now

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[name].append(value)

    def begin(self, objects: dict) -> None:
        self.before = counters(objects)
        self.window = (time.perf_counter(), 0.0)
        self.enabled = True

    def end(self, objects: dict, phase) -> None:
        self.enabled = False
        self.window = (self.window[0], time.perf_counter())
        self.after = counters(objects)
        for scheduler in objects.get("schedulers", ()):
            for stats in scheduler.stats_snapshot()["tags"].values():
                if stats["time_to_first_service"] is not None:
                    self.ttfs.append(stats["time_to_first_service"])
        gateway = objects.get("gateway")
        if gateway is not None:
            self.ingest_latency = gateway.ingest_latency()

    # -- wrapping --------------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        is_static = isinstance(original, staticmethod)
        function = original.__func__ if is_static else original
        wrapper = make(function)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr: str, name: str, count: Optional[str] = None) -> None:
        tracer = self
        store = self.store

        def make(function):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return function(*args, **kwargs)
                span = store.begin(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    store.end(span)
                if count is not None:
                    tracer.tally.add(count)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        tracer = self
        store = self.store
        for owner, attr, name, count in (
            (Gson, "to_jsonable", "gson.encode", None),
            (Gson, "from_jsonable", "gson.decode", None),
            (NdefMessage, "to_bytes", "ndef.encode", None),
            (NdefMessage, "from_bytes", "ndef.decode", "ndef.decodes"),
            (SimulatedTag, "read_ndef", "tags.read", None),
            (SimulatedTag, "write_ndef", "tags.write", "tags.writes"),
            (NfcAdapterPort, "open_session", "radio.open_session", None),
            (TagSession, "read_ndef", "radio.session_op", "radio.ops"),
            (TagSession, "write_ndef", "radio.session_op", "radio.ops"),
            (TagSession, "format_tag", "radio.session_op", "radio.ops"),
            (TagSession, "make_read_only", "radio.session_op", "radio.ops"),
            (Thing, "save_async", "things.save_async", "things.saves"),
            (LeaseManager, "write_guarded", "leasing.write_guarded", None),
            (LeaseManager, "release", "leasing.release", None),
            (GatewayReporter, "record", "gateway.record", None),
            (FleetGateway, "submit_batch", "gateway.submit", "gateway.submits"),
        ):
            self._span(owner, attr, name, count)

        def enqueue(function):
            def wrapper(reference, *args, **kwargs):
                if not tracer.enabled:
                    return function(reference, *args, **kwargs)
                span = store.begin("core.enqueue")
                try:
                    operation = function(reference, *args, **kwargs)
                finally:
                    store.end(span)
                span.op = operation.op_id
                tracer.op_uid[operation.op_id] = reference.uid
                tracer.op_enqueued[operation.op_id] = span.end
                return operation
            return wrapper

        for attr in ("read", "read_raw", "write", "write_raw"):
            self._patch(TagReference, attr, enqueue)

        def execute(function):
            def wrapper(reference, operation, session):
                if not tracer.enabled:
                    return function(reference, operation, session)
                span = store.begin("core.execute", op=operation.op_id)
                try:
                    return function(reference, operation, session)
                finally:
                    store.end(span)
            return wrapper

        self._patch(TagReference, "batch_execute", execute)

        def close(function):
            def wrapper(session):
                if tracer.enabled:
                    tracer.session_ops.append(session.operations)
                return function(session)
            return wrapper

        self._patch(TagSession, "close", close)

        def dispatch(function, many: bool):
            def wrapper(port, events):
                if not tracer.enabled:
                    return function(port, events)
                entries = sum(isinstance(e, TagEntered) for e in (events if many else [events]))
                span = store.begin("android.dispatch")
                try:
                    return function(port, events)
                finally:
                    store.end(span)
                    tracer.tally.add("android.entries", entries)
            return wrapper

        self._patch(NfcAdapterPort, "dispatch_field_event", lambda f: dispatch(f, False))
        self._patch(NfcAdapterPort, "dispatch_field_events", lambda f: dispatch(f, True))

        def post_delayed(function):
            def wrapper(looper, runnable, delay_seconds):
                if not tracer.enabled:
                    return function(looper, runnable, delay_seconds)
                due = time.perf_counter() + delay_seconds

                def traced_runnable():
                    if not tracer.enabled:
                        return runnable()
                    tracer.samples["android.looper_wait_ms"].append(
                        1000.0 * (time.perf_counter() - due))
                    span = store.begin("android.run")
                    try:
                        return runnable()
                    finally:
                        store.end(span)

                return function(looper, traced_runnable, delay_seconds)
            return wrapper

        self._patch(Looper, "post_delayed", post_delayed)

        def acquire(function):
            def wrapper(manager, duration, on_acquired=None, on_denied=None, timeout=None):
                if not tracer.enabled:
                    return function(manager, duration, on_acquired, on_denied, timeout)
                started = time.perf_counter()
                acquired = as_callback(on_acquired)
                denied = as_callback(on_denied)

                def settle(callback):
                    def inner(*args):
                        tracer.sample("leasing.acquire_ms",
                                      1000.0 * (time.perf_counter() - started))
                        return callback(*args)
                    return inner

                span = store.begin("leasing.acquire")
                try:
                    return function(manager, duration, settle(acquired), settle(denied), timeout)
                finally:
                    store.end(span)
            return wrapper

        self._patch(LeaseManager, "acquire", acquire)

        # Reactor steps: the step callable is wrapped at registration, and
        # wake / schedule_at record when each task became due. Every clock
        # here is a SystemClock, whose readings are time.monotonic().
        def note_due(task, due: float) -> None:
            current = tracer.pending_due.get(task)
            if current is None or due < current:
                tracer.pending_due[task] = due

        def register(function):
            def wrapper(reactor, step, name="task"):
                family = "core.step." + step_family(name)
                cell: list = []

                def traced_step():
                    if not tracer.enabled:
                        return step()
                    task = cell[0]
                    started = time.perf_counter()
                    due = tracer.pending_due.pop(task, None)
                    if due is not None and due <= started:
                        tracer.samples["core.reactor_wake_lag_ms"].append(
                            1000.0 * (started - due))
                    span = store.begin(family)
                    try:
                        when = step()
                    finally:
                        store.end(span)
                    if when is not None:
                        note_due(task, time.perf_counter() + (when - time.monotonic()))
                    return when

                task = function(reactor, traced_step, name)
                cell.append(task)
                return task
            return wrapper

        self._patch(Reactor, "register", register)

        def wake(function):
            def wrapper(task):
                if tracer.enabled:
                    note_due(task, time.perf_counter())
                return function(task)
            return wrapper

        def schedule_at(function):
            def wrapper(task, when):
                if tracer.enabled:
                    note_due(task, time.perf_counter() + (when - time.monotonic()))
                return function(task, when)
            return wrapper

        self._patch(ReactorTask, "wake", wake)
        self._patch(ReactorTask, "schedule_at", schedule_at)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the per-layer report ----------------------------------------------------------

    def layer_metrics(self, phase) -> Dict[str, float]:
        start, end = self.window
        spans = [s for s in self.store.finished() if s.start >= start and s.end <= end]
        selfs = self_time_by_name(spans)
        ops = max(phase.ops, 1)
        delta = {key: self.after.get(key, 0.0) - self.before.get(key, 0.0)
                 for key in set(self.after) | set(self.before)}
        saves = self.tally.get("things.saves")

        def self_us(name: str, per: float = ops) -> float:
            return 1e6 * selfs.get(name, (0.0, 0))[0] / max(per, 1)

        def total_ms(name: str) -> float:
            return 1000.0 * sum(s.duration for s in spans if s.name == name)

        def p(name: str, q: float) -> float:
            values = self.samples.get(name)
            return percentile(values, q) if values else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        waits = []
        for op_id, group in by_op(spans).items():
            executed = first_start(group, "core.execute")
            enqueued = self.op_enqueued.get(op_id)
            if executed is None or enqueued is None:
                continue
            ready = max(enqueued, self.enter_at.get(self.op_uid.get(op_id), enqueued))
            waits.append(1000.0 * max(0.0, executed - ready))

        metrics = {
            "gson.encode_us": self_us("gson.encode"),
            "gson.decode_us": self_us("gson.decode"),
            "ndef.encode_us": self_us("ndef.encode"),
            "ndef.decode_us": self_us("ndef.decode"),
            "ndef.decodes_per_op": ratio(self.tally.get("ndef.decodes"), ops),
            "ndef.encode_hit_ratio": ratio(delta["encode_hits"],
                                           delta["encode_hits"] + delta["encode_misses"]),
            "core.enqueue_us": self_us("core.enqueue"),
            "core.queue_wait_ms": percentile(waits, 50) if waits else 0.0,
            "core.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
            "core.attempts_per_op": ratio(delta.get("attempts", 0.0), ops),
            "core.coalesced_share": ratio(delta.get("coalesced", 0.0), saves),
            "core.timeouts": delta.get("timeouts", 0.0),
            "core.ref_kb": self.ref_kb or 0.0,
            "core.reactor_steps_per_op": ratio(delta.get("steps", 0.0), ops),
            "core.reactor_wake_lag_ms": p("core.reactor_wake_lag_ms", 50),
            "core.reactor_wake_lag_p99_ms": p("core.reactor_wake_lag_ms", 99),
        }
        for family in STEP_FAMILIES:
            total, count = selfs.get("core.step." + family, (0.0, 0))
            metrics[f"core.reactor_step_us.{family}"] = 1e6 * total / max(count, 1)
        radio_ops = self.tally.get("radio.ops")
        metrics.update({
            "radio.connects_per_op": ratio(delta.get("connects", 0.0), radio_ops),
            "radio.ops_per_session": ratio(sum(self.session_ops), len(self.session_ops)),
            "radio.busy_ms_per_op": (total_ms("radio.open_session")
                                     + total_ms("radio.session_op")) / ops,
            "radio.retry_share": ratio(delta.get("link_failures", 0.0),
                                       delta.get("link_attempts", 0.0)),
            "radio.ttfs_p99_ms": 1000.0 * percentile(self.ttfs, 99) if self.ttfs else 0.0,
            "radio.preemptions": delta.get("preemptions", 0.0),
            "tags.read_us": self_us("tags.read"),
            "tags.write_us": self_us("tags.write"),
            "tags.writes_per_save": ratio(self.tally.get("tags.writes"), saves),
            "android.looper_wait_ms": p("android.looper_wait_ms", 50),
            "android.looper_wait_p99_ms": p("android.looper_wait_ms", 99),
            "android.looper_run_us": 1000.0 * total_ms("android.run") / ops,
            "android.dispatch_us": 1000.0 * total_ms("android.dispatch")
            / max(self.tally.get("android.entries"), 1),
            "things.save_async_us": self_us("things.save_async"),
            "things.detect_ms": p("things.detect_ms", 50),
            "leasing.acquire_ms": p("leasing.acquire_ms", 50),
            "leasing.denials": delta.get("denials", 0.0),
            "leasing.renewals_merged": delta.get("renewals_merged", 0.0),
            "gateway.record_us": self_us("gateway.record"),
            "gateway.submit_us": self_us("gateway.submit", self.tally.get("gateway.submits")),
            "gateway.events_per_batch": ratio(delta.get("events_ingested", 0.0),
                                              delta.get("batches", 0.0)),
            "gateway.dropped.reporter": delta.get("events_dropped_reporter", 0.0),
            "gateway.dropped.queue": delta.get("events_dropped_queue", 0.0),
            "gateway.dropped.stream": delta.get("events_dropped_streams", 0.0),
        })
        latency = self.ingest_latency
        has_latency = latency is not None and latency.count > 0
        metrics["gateway.queue_wait_ms"] = 1000.0 * latency.p50 if has_latency else 0.0
        metrics["gateway.queue_wait_p99_ms"] = 1000.0 * latency.p99 if has_latency else 0.0
        return metrics


class ThreadProfiles(Hooks):
    """``cProfile`` with a per-thread CPU timer on every thread.

    Threads started while profiling is on enable their own profiler on
    their first profiled event; the window's self time per function is
    the difference of two ``getstats()`` readings. Time in builtins is
    charged to the Python function that called them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: List[cProfile.Profile] = []
        self._main: Optional[cProfile.Profile] = None
        self._before: Dict[str, float] = {}
        self.by_module: Dict[str, float] = {}

    def _thread_hook(self, frame, event, arg) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._main = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profiles.append(self._main)
        self._main.enable()

    def stop(self) -> None:
        threading.setprofile(None)
        if self._main is not None:
            self._main.disable()

    def _reading(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            for entry in profile.getstats():
                if isinstance(entry.code, str):
                    continue  # builtins are charged to their callers below
                module = module_of(entry.code.co_filename)
                totals[module] += entry.inlinetime
                for call in entry.calls or ():
                    if isinstance(call.code, str):
                        totals[module] += call.inlinetime
        return totals

    def begin(self, objects: dict) -> None:
        self._before = self._reading()

    def end(self, objects: dict, phase) -> None:
        after = self._reading()
        self.by_module = {name: after.get(name, 0.0) - self._before.get(name, 0.0)
                          for name in MODULES}

    def shares(self) -> Dict[str, float]:
        total = sum(self.by_module.values())
        return {f"cpu_share.{name}": (self.by_module.get(name, 0.0) / total if total else 0.0)
                for name in MODULES}


SOURCE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def module_of(filename: str) -> str:
    """``repro.<module>`` of a source file, or ``other`` outside the program."""
    index = filename.find(SOURCE_MARK)
    if index < 0:
        return "other"
    head = filename[index + len(SOURCE_MARK):].split(os.sep, 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in MODULES else "other"


def traced_run(workload, seed: int, seconds: float, spans_out: str):
    """The three phases; returns (a combined RunResult, metrics, report)."""
    third = seconds / 3.0
    untraced = workload.run(seed, third)

    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run(seed, third, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(traced.phase)
    tracer.store.write_jsonl(spans_out)

    profiles = ThreadProfiles()
    profiles.start()
    try:
        profiled = workload.run(seed, third, profiles)
    finally:
        profiles.stop()
    layers.update(profiles.shares())

    base_cpu = untraced.phase.cpu_ms_per_op
    traced_cpu = traced.phase.cpu_ms_per_op
    layers["trace.untraced_cpu_ms_per_op"] = base_cpu
    layers["trace.traced_cpu_ms_per_op"] = traced_cpu
    layers["trace.overhead_ratio"] = traced_cpu / base_cpu if base_cpu else 0.0

    combined = untraced
    combined.checks = untraced.checks + traced.checks + profiled.checks
    for other in (traced, profiled):
        combined.phase.attempted += other.phase.attempted
        combined.phase.failed += other.phase.failed
        if not other.phase.validity.get("valid", True):
            combined.phase.validity["valid"] = False
    metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name, unit_of(name))}
               for name, value in layers.items()}
    report = {"per_layer": layers,
              "phases": {"untraced_ops": untraced.phase.ops, "traced_ops": traced.phase.ops,
                         "profiled_ops": profiled.phase.ops,
                         "spans": len(tracer.store.spans)}}
    return combined, metrics, report


LAYER_UNITS = {
    "core.ref_kb": "KiB",
    "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name.endswith("_us") or ".reactor_step_us." in name:
        return "us"
    if name.endswith(("_ms", "_ms_per_op")):
        return "ms"
    if name.startswith("cpu_share.") or name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_per_op") and "ms" not in name:
        return "count/op"
    return "count"
