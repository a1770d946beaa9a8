"""``crowd_backlog``: decoupling in time under real radio time, closed loop per gate.

Two gate phones run a ``ThingActivity`` on the asyncio reactor backend;
each already knows every parcel of a population of a few thousand, so
it holds that many idle references. The link is a seeded ``LossyLink``
and the radio model is ``NOMINAL`` scaled down. One pass of one gate:

* while a cohort of parcels is away, the generator queues several
  coalescible ``save_async`` calls per parcel, with a ``refresh_async``
  fence on some of them; a parcel of a seeded hot subset, which both
  gates contend for, instead runs the lease protocol
  (``LeaseManager.acquire`` -> ``write_guarded`` -> ``release``, nested
  in listeners as the paper prescribes);
* the generator moves the cohort into the gate's field in one bulk move,
  waits until every queued op has settled, and takes the cohort out.

Each gate's references and lease managers feed a ``GatewayReporter``
that reports to a small ``FleetGateway``. Batched sessions, the deficit
cross-tag policy, coalescing, fences, retries and leases do most of the
work; the CPU path that dominates ``tap_visit`` is diluted.
"""

from __future__ import annotations

import functools
import json
import queue
import random
import time
from typing import Dict, List, Optional, Tuple

from common import Check, PhaseResult, RunResult, Window, Windows, built_scenario, wait_for

from repro.core.scheduler import Reactor
from repro.gateway.gateway import FleetGateway
from repro.gateway.reporter import GatewayReporter
from repro.harness.scenario import Scenario
from repro.leasing.manager import LeaseManager
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.link import LossyLink
from repro.radio.timing import NOMINAL, TransferTiming
from repro.tags.factory import make_tag
from repro.things.activity import ThingActivity, thing_mime_type
from repro.things.thing import Thing

GATES = 2
PARCELS = 2000  # every gate knows all of them: PARCELS idle references per gate
HOT = 6  # the hot subset both gates contend for
COHORT = 8
SAVES_PER_PARCEL = (2, 4)
FENCE_SHARE = 0.3  # parcels that get a refresh_async fence after their first save
HOT_SHARE = 0.5  # passes whose cohort carries one hot parcel
LOSS = 0.05
RADIO_SCALE = 0.1
TIMING = TransferTiming(
    base_seconds=NOMINAL.base_seconds * RADIO_SCALE,
    seconds_per_byte=NOMINAL.seconds_per_byte * RADIO_SCALE,
    connect_share=NOMINAL.connect_share,
)
LEASE_S = 3600.0  # never expires inside a run: contention shows as denials
OP_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
WARMUP_S = 2.0
WINDOW_S = 5.0  # about 125 passes: at least ten holds beyond the p90
STALL_S = 60.0
GATEWAY_SHARDS = 2

META = {"radio_scale": RADIO_SCALE, "loss": LOSS, "parcels": PARCELS,
        "cohort": COHORT, "gates": GATES}


class Parcel(Thing):
    """The thing every parcel tag holds; ``seq`` orders its saved states."""

    def __init__(self, activity, label: str, seq: int, status: str, route: list) -> None:
        super().__init__(activity)
        self.label = label
        self.seq = seq
        self.status = status
        self.route = route


def parcel_fields(label: str, seq: int, status: str, route: list) -> dict:
    return {"label": label, "seq": seq, "status": status, "route": route}


def parcel_record(fields: dict):
    text = json.dumps(fields, sort_keys=True)
    return mime_record(thing_mime_type(Parcel), text.encode())


class GateActivity(ThingActivity):
    """Keeps the bound thing of every parcel it discovers for the generator."""

    THING_CLASS = Parcel

    def __init__(self, device, catalog: Dict[str, Parcel], detected) -> None:
        super().__init__(device)
        self._catalog = catalog
        self._detected = detected

    def when_discovered(self, thing: Parcel) -> None:
        self._catalog.setdefault(thing.label, thing)
        self._detected()


class Op:
    """One queued app operation and what its listener reported."""

    __slots__ = ("gate", "parcel", "number", "settled", "ok", "done_at", "seq")

    def __init__(self, gate: int, parcel: int, number: int, seq: Optional[int]) -> None:
        self.gate = gate
        self.parcel = parcel
        self.number = number  # issue order on this (gate, parcel) reference
        self.settled = 0
        self.ok = False
        self.done_at = 0.0
        self.seq = seq  # the state a write carries, None for reads and leases


class GateState:
    def __init__(self) -> None:
        self.cohort: List[int] = []
        self.outstanding = 0
        self.entered_at = 0.0
        self.last_done = 0.0
        self.active = False


class CrowdBacklog:
    """One built scenario plus the generator state driving it."""

    def __init__(self, seed: int, tracer=None) -> None:
        rng = random.Random(seed)
        self.rng = rng
        self.tracer = tracer
        self.events: "queue.SimpleQueue" = queue.SimpleQueue()
        self.scenario = Scenario(timing=TIMING)
        self.links = [LossyLink(LOSS, seed=rng.getrandbits(32)) for _ in range(GATES)]
        self.gates = [
            self.scenario.add_phone(f"gate-{g}", link=self.links[g], reactor_mode="asyncio")
            for g in range(GATES)
        ]
        self.catalogs: List[Dict[str, Parcel]] = [{} for _ in range(GATES)]
        self.apps = [
            self.scenario.start(gate, GateActivity, self.catalogs[g],
                                functools.partial(self._detected, g))
            for g, gate in enumerate(self.gates)
        ]
        uids = rng.sample(range(1, 1 << 40), PARCELS)
        self.labels = [f"parcel-{rng.getrandbits(32):08x}-{i}" for i in range(PARCELS)]
        stations = [f"hub-{i}" for i in range(12)]
        self.route = [rng.sample(stations, 4) for _ in range(PARCELS)]
        self.tags = [
            make_tag(
                "NTAG215",
                content=NdefMessage([parcel_record(
                    parcel_fields(label, 0, "registered", self.route[i]))]),
                uid=bytes([0x04]) + uid.to_bytes(6, "big"),
            )
            for i, (label, uid) in enumerate(zip(self.labels, uids))
        ]
        self.hot = rng.sample(range(PARCELS), HOT)
        self.hot_set = set(self.hot)
        self.cold = [p for p in range(PARCELS) if p not in self.hot_set]

        self.gateway_reactor = Reactor(name="gateway")
        self.gateway = FleetGateway(self.gateway_reactor, shards=GATEWAY_SHARDS)
        if tracer is not None:
            tracer.setup_started()
        for g, gate in enumerate(self.gates):
            self.scenario.put_all(self.tags, gate)
            if not wait_for(lambda: len(self.catalogs[g]) >= PARCELS, STALL_S):
                raise RuntimeError("crowd_backlog set-up: parcels were not discovered")
            self.scenario.take_all(self.tags, gate)
        self.things: List[List[Parcel]] = [
            [self.catalogs[g][label] for label in self.labels] for g in range(GATES)
        ]
        self.managers: List[Dict[int, LeaseManager]] = [
            {p: LeaseManager(self.things[g][p].reference, gate.name) for p in self.hot}
            for g, gate in enumerate(self.gates)
        ]
        self.reporters = []
        for g, gate in enumerate(self.gates):
            reporter = GatewayReporter(self.gateway, gate.name, reactor=gate.reactor)
            for thing in self.things[g]:
                reporter.attach_reference(thing.reference)
            for manager in self.managers[g].values():
                reporter.attach_lease_manager(manager)
            self.reporters.append(reporter)
        if tracer is not None:
            tracer.setup_finished(GATES * PARCELS)

        self.state = [GateState() for _ in range(GATES)]
        self.busy = [False] * PARCELS
        self.next_seq = [1] * PARCELS
        self.newest_seq = [0] * PARCELS
        self.op_numbers: Dict[Tuple[int, int], int] = {}
        self.settle_order: Dict[Tuple[int, int], List[int]] = {}
        self.ops: List[Op] = []
        # hot parcel -> [acquired_at, gate, release called at or None] per lease
        self.holds: Dict[int, List[list]] = {p: [] for p in self.hot}
        # Per gate: each is only touched by that gate's looper thread.
        self.denied_callbacks = [0] * GATES

    def close(self) -> None:
        for reporter in getattr(self, "reporters", []):
            reporter.close()
        self.scenario.close()
        self.gateway.close()
        self.gateway_reactor.stop()

    def _detected(self, gate: int) -> None:
        """A cohort member reached ``when_discovered`` (traced runs sample it)."""
        state = getattr(self, "state", None)  # None while set-up discovers
        if self.tracer is not None and state is not None:
            entered = state[gate].entered_at
            self.tracer.sample("things.detect_ms", 1000.0 * (time.perf_counter() - entered))

    # -- operations (issued by the generator or by listeners) ---------------------

    def _new_op(self, gate: int, parcel: int, seq: Optional[int] = None) -> Op:
        key = (gate, parcel)
        number = self.op_numbers.get(key, 0)
        self.op_numbers[key] = number + 1
        op = Op(gate, parcel, number, seq)
        self.ops.append(op)
        self.events.put(("issued", op))
        return op

    def _done(self, op: Op, ok: bool) -> None:
        op.settled += 1
        op.ok = ok
        op.done_at = time.perf_counter()
        self.settle_order.setdefault((op.gate, op.parcel), []).append(op.number)
        if ok and op.seq is not None:
            self.newest_seq[op.parcel] = max(self.newest_seq[op.parcel], op.seq)
        self.events.put(("done", op))

    def _save(self, gate: int, parcel: int) -> None:
        thing = self.things[gate][parcel]
        seq = self.next_seq[parcel]
        self.next_seq[parcel] += 1
        thing.seq = seq
        thing.status = f"queued-{gate}-{seq}"
        thing.route = self.route[parcel]
        op = self._new_op(gate, parcel, seq)
        thing.save_async(
            on_saved=lambda _thing: self._done(op, True),
            on_failed=lambda: self._done(op, False),
            timeout=OP_TIMEOUT_S,
        )

    def _refresh(self, gate: int, parcel: int) -> None:
        op = self._new_op(gate, parcel)
        self.things[gate][parcel].refresh_async(
            on_refreshed=lambda _thing: self._done(op, True),
            on_failed=lambda: self._done(op, False),
            timeout=OP_TIMEOUT_S,
        )

    def _guarded(self, gate: int, parcel: int, then_release: bool) -> None:
        manager = self.managers[gate][parcel]
        seq = self.next_seq[parcel]
        self.next_seq[parcel] += 1
        record = parcel_record(parcel_fields(
            self.labels[parcel], seq, f"leased-{gate}-{seq}", self.route[parcel]))
        op = self._new_op(gate, parcel, seq)

        def written() -> None:
            if then_release:
                self._release(gate, parcel)
            self._done(op, True)

        manager.write_guarded([record], on_written=written,
                              on_denied=lambda: self._done(op, False),
                              timeout=OP_TIMEOUT_S)

    def _release(self, gate: int, parcel: int) -> None:
        manager = self.managers[gate][parcel]
        op = self._new_op(gate, parcel)
        for hold in self.holds[parcel]:
            if hold[1] == gate and hold[2] is None:
                hold[2] = manager.reference.activity.device.environment.clock.now()
        manager.release(on_released=lambda: self._done(op, True),
                        on_failed=lambda: self._done(op, False),
                        timeout=OP_TIMEOUT_S)

    def _acquire(self, gate: int, parcel: int) -> None:
        manager = self.managers[gate][parcel]
        op = self._new_op(gate, parcel)

        def acquired(lease) -> None:
            self.holds[parcel].append([lease.acquired_at, gate, None])
            self._guarded(gate, parcel, then_release=False)
            self._done(op, True)

        def denied() -> None:
            self.denied_callbacks[gate] += 1
            self._done(op, True)  # contention; radio failures are told apart at the end

        manager.acquire(LEASE_S, on_acquired=acquired, on_denied=denied,
                        timeout=OP_TIMEOUT_S)

    # -- passes -------------------------------------------------------------------

    def _start_pass(self, gate: int) -> None:
        rng = self.rng
        state = self.state[gate]
        cohort: List[int] = []
        if rng.random() < HOT_SHARE:
            free_hot = [p for p in self.hot if not self.busy[p]]
            if free_hot:
                cohort.append(free_hot[rng.randrange(len(free_hot))])
        while len(cohort) < COHORT:
            parcel = self.cold[rng.randrange(len(self.cold))]
            if not self.busy[parcel] and parcel not in cohort:
                cohort.append(parcel)
        for parcel in cohort:
            self.busy[parcel] = True
        state.cohort = cohort
        state.active = True
        # Everything below is queued while the cohort is away.
        for parcel in cohort:
            if parcel in self.hot_set:
                if self.managers[gate][parcel].holds_valid_lease:
                    self._guarded(gate, parcel, then_release=True)
                else:
                    self._acquire(gate, parcel)
                continue
            saves = rng.randint(*SAVES_PER_PARCEL)
            fence = rng.random() < FENCE_SHARE
            for index in range(saves):
                self._save(gate, parcel)
                if fence and index == 0:
                    self._refresh(gate, parcel)
        tags = [self.tags[p] for p in cohort]
        if self.tracer is not None:
            self.tracer.cohort_entering([t.uid for t in tags])
        state.entered_at = time.perf_counter()
        self.scenario.put_all(tags, self.gates[gate])

    def _end_pass(self, gate: int, phase: PhaseResult) -> None:
        state = self.state[gate]
        self.scenario.take_all([self.tags[p] for p in state.cohort], self.gates[gate])
        for parcel in state.cohort:
            self.busy[parcel] = False
        state.active = False
        phase.holds.append((state.last_done, state.last_done - state.entered_at))

    def run_phase(self, seconds: float) -> PhaseResult:
        """Run passes on every gate for ``seconds``; passes begun finish."""
        phase = PhaseResult()
        window = Window()
        windows = Windows(phase, WINDOW_S, window.wall_start, seconds)
        end = window.wall_start + seconds
        for gate in range(GATES):
            self._start_pass(gate)
        while any(state.active for state in self.state):
            try:
                kind, op = self.events.get(timeout=STALL_S)
            except queue.Empty:
                raise RuntimeError("crowd_backlog stalled: no op settled") from None
            state = self.state[op.gate]
            if kind == "issued":
                state.outstanding += 1
                continue
            state.outstanding -= 1
            state.last_done = max(state.last_done, op.done_at)
            phase.attempted += 1
            if op.ok:
                phase.ops += 1
                phase.latencies.append((op.done_at, op.done_at - state.entered_at))
            else:
                phase.failed += 1
            windows.tick(time.perf_counter())
            if state.outstanding == 0:
                self._end_pass(op.gate, phase)
                if time.perf_counter() < end:
                    self._start_pass(op.gate)
        window.close()
        phase.wall_s = window.wall_s
        phase.cpu_s = window.cpu_s
        return phase

    # -- output checks ----------------------------------------------------------------

    def checks(self) -> List[Check]:
        checks = []
        stale = []
        for parcel, tag in enumerate(self.tags):
            if self.next_seq[parcel] == 1:
                continue
            stored = json.loads(tag.read_ndef()[0].payload.decode())
            if stored["seq"] != self.newest_seq[parcel]:
                stale.append(f"{self.labels[parcel]}: {stored['seq']} != "
                             f"{self.newest_seq[parcel]}")
        checks.append(Check("each tag holds the newest state saved for it",
                            not stale, "; ".join(stale[:3])))

        disorder = [key for key, order in self.settle_order.items()
                    if order != list(range(self.op_numbers[key]))]
        twice = sum(1 for op in self.ops if op.settled != 1)
        checks.append(Check("listeners settle exactly once, FIFO per reference",
                            not disorder and twice == 0,
                            f"out of order on {len(disorder)} references, "
                            f"{twice} ops not settled exactly once"))

        overlaps = []
        for parcel, holds in self.holds.items():
            ordered = sorted(holds, key=lambda hold: hold[0])
            for before, after in zip(ordered, ordered[1:]):
                if before[2] is None or after[0] < before[2]:
                    overlaps.append(self.labels[parcel])
        checks.append(Check("no two valid lease holders overlap on a tag",
                            not overlaps, ", ".join(overlaps[:3])))

        for reporter in self.reporters:
            reporter.flush()
        drained = self.gateway.drain(timeout=STALL_S)
        telemetry = self.gateway.telemetry()
        recorded = sum(reporter.recorded for reporter in self.reporters)
        accounted = (telemetry["events_ingested"] + telemetry["events_dropped_queue"]
                     + telemetry["events_dropped_reporter"])
        checks.append(Check("gateway recorded == ingested + dropped",
                            drained and recorded == accounted,
                            f"recorded {recorded}, ingested+dropped {accounted}"))
        return checks

    def lease_failures(self) -> int:
        """Denials that were radio failures, not contention."""
        denials = sum(manager.stats_snapshot()[1]
                      for managers in self.managers for manager in managers.values())
        return sum(self.denied_callbacks) - denials

    def reference_objects(self):
        """Objects whose public counters the traced run reads."""
        return {
            "references": [thing.reference for things in self.things for thing in things],
            "ports": [gate.port for gate in self.gates],
            "schedulers": [gate.tx_scheduler for gate in self.gates],
            "reactors": [gate.reactor for gate in self.gates] + [self.gateway_reactor],
            "links": self.links,
            "managers": [m for managers in self.managers for m in managers.values()],
            "gateway": self.gateway,
        }


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    with built_scenario(lambda: CrowdBacklog(seed, tracer), CrowdBacklog.close,
                        SETUP_REPEATS) as (bench, setup_times):
        bench.run_phase(WARMUP_S)
        if tracer is not None:
            tracer.begin(bench.reference_objects())
        phase = bench.run_phase(seconds)
        if tracer is not None:
            tracer.end(bench.reference_objects(), phase)
        phase.failed += bench.lease_failures()
        checks = bench.checks()
    phase.validity["warmup_discarded_s"] = WARMUP_S
    return RunResult(setup_s=setup_times, phase=phase, checks=checks)
