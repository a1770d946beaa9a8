"""``tap_visit``: the paper's core interaction, closed loop, zero radio time.

Two phones run a ``ThingActivity`` on the default reactor backend. A few
dozen tags already hold a small ``VisitCounter`` thing. One visit: the
generator puts a tag into a free phone's field; ``when_discovered`` bumps
the thing and calls ``save_async``; the save listener on the phone's
looper ends the visit; the generator takes the tag out and starts the
next visit on that phone. The link is perfect and ``NO_DELAY`` charges no
radio time, so the whole visit is middleware CPU (gson, ndef, core,
radio, tags, android, things). Leasing, coalescing, the cross-tag
policy, retries and the gateway are bypassed.
"""

from __future__ import annotations

import json
import queue
import random
import time
from typing import Dict, List, Optional

from common import Check, PhaseResult, RunResult, Window, Windows, built_scenario, wait_for

from repro.harness.scenario import Scenario
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.tags.factory import make_tag
from repro.things.activity import ThingActivity, thing_mime_type
from repro.things.thing import Thing

PHONES = 2
TAGS = 48
SETUP_REPEATS = 9
WARMUP_S = 2.0
WINDOW_S = 2.0
SAVE_TIMEOUT_S = 30.0
STALL_S = 30.0  # no visit finished for this long: the run is broken


class VisitCounter(Thing):
    """The small thing every tag holds."""

    def __init__(self, activity, label: str, visits: int, last_phone: str) -> None:
        super().__init__(activity)
        self.label = label
        self.visits = visits
        self.last_phone = last_phone


class VisitActivity(ThingActivity):
    """Bumps and saves every discovered counter; reports to the generator."""

    THING_CLASS = VisitCounter

    def __init__(self, device, sink: "VisitSink") -> None:
        super().__init__(device)
        self._sink = sink
        self._name = device.name

    def when_discovered(self, thing: VisitCounter) -> None:
        sink = self._sink
        sink.discovered(thing.label)
        if not sink.armed:
            return  # set-up taps only create the references
        thing.visits += 1
        thing.last_phone = self._name
        label = thing.label
        thing.save_async(
            on_saved=lambda _thing: sink.settled(label, True),
            on_failed=lambda: sink.settled(label, False),
            timeout=SAVE_TIMEOUT_S,
        )


class VisitSink:
    """Carries listener events from the phones' loopers to the generator."""

    def __init__(self) -> None:
        self.events: "queue.SimpleQueue" = queue.SimpleQueue()
        self.detected_at: Dict[str, float] = {}
        self.detections = 0
        self.armed = False

    def discovered(self, label: str) -> None:
        self.detected_at[label] = time.perf_counter()
        self.detections += 1

    def settled(self, label: str, ok: bool) -> None:
        self.events.put((label, ok, time.perf_counter()))


def thing_message(label: str, visits: int, last_phone: str) -> NdefMessage:
    """The NDEF message a ``VisitCounter`` is stored as (the Gson layout)."""
    text = json.dumps(
        {"label": label, "visits": visits, "last_phone": last_phone},
        sort_keys=True,
    )
    return NdefMessage([mime_record(thing_mime_type(VisitCounter), text.encode())])


class TapVisit:
    """One built scenario plus the generator state driving it."""

    def __init__(self, seed: int, tracer=None) -> None:
        rng = random.Random(seed)
        self.rng = rng
        self.sink = VisitSink()
        self.scenario = Scenario()
        self.phones = self.scenario.add_phones(PHONES, prefix="phone")
        self.apps = [
            self.scenario.start(phone, VisitActivity, self.sink)
            for phone in self.phones
        ]
        uids = rng.sample(range(1, 1 << 40), TAGS)
        self.labels = [f"parcel-{rng.getrandbits(32):08x}-{i}" for i in range(TAGS)]
        self.initial = [rng.randrange(0, 10_000) for _ in range(TAGS)]
        self.tags = [
            make_tag(
                "NTAG216",
                content=thing_message(label, visits, ""),
                uid=bytes([0x04]) + uid.to_bytes(6, "big"),
            )
            for label, visits, uid in zip(self.labels, self.initial, uids)
        ]
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.visits = [0] * TAGS
        self.busy = [False] * TAGS
        self.at_phone: List[Optional[int]] = [None] * PHONES
        self.put_at: List[float] = [0.0] * TAGS
        # Every phone scans every tag once, so the timed visits run on
        # references that already exist (set-up builds them).
        if tracer is not None:
            tracer.setup_started()
        for number, phone in enumerate(self.phones, start=1):
            self.scenario.put_all(self.tags, phone)
            if not wait_for(lambda: self.sink.detections >= number * TAGS, STALL_S):
                raise RuntimeError("tap_visit set-up: tags were not discovered")
            self.scenario.take_all(self.tags, phone)
        if tracer is not None:
            tracer.setup_finished(PHONES * TAGS)
        self.sink.armed = True

    def close(self) -> None:
        self.scenario.close()

    # -- the closed loop ------------------------------------------------------------

    def _start_visit(self, phone: int) -> None:
        free = [i for i in range(TAGS) if not self.busy[i]]
        tag = free[self.rng.randrange(len(free))]
        self.busy[tag] = True
        self.at_phone[phone] = tag
        self.put_at[tag] = time.perf_counter()
        self.scenario.put(self.tags[tag], self.phones[phone])

    def run_phase(self, seconds: float, tracer=None) -> PhaseResult:
        """Drive visits for ``seconds``; the loop stays full the whole time."""
        phase = PhaseResult()
        for phone in range(PHONES):
            if self.at_phone[phone] is None:
                self._start_visit(phone)
        window = Window()
        windows = Windows(phase, WINDOW_S, window.wall_start, seconds)
        end = window.wall_start + seconds
        while True:
            try:
                label, ok, done_at = self.sink.events.get(timeout=STALL_S)
            except queue.Empty:
                raise RuntimeError("tap_visit stalled: no visit settled") from None
            tag = self.index[label]
            phone = next(p for p in range(PHONES) if self.at_phone[p] == tag)
            self.scenario.take(self.tags[tag], self.phones[phone])
            self.busy[tag] = False
            self.at_phone[phone] = None
            self.visits[tag] += 1
            phase.attempted += 1
            if ok:
                latency = done_at - self.put_at[tag]
                phase.ops += 1
                # One op per visit: the hold is the op's latency.
                phase.latencies.append((done_at, latency))
                phase.holds.append((done_at, latency))
            else:
                phase.failed += 1
            windows.tick(time.perf_counter())
            if tracer is not None:
                detected = self.sink.detected_at.get(label)
                if detected is not None:
                    tracer.sample("things.detect_ms", 1000.0 * (detected - self.put_at[tag]))
            if done_at >= end:
                break
            self._start_visit(phone)
        window.close()
        phase.wall_s = window.wall_s
        phase.cpu_s = window.cpu_s
        self._finish_in_flight()
        return phase

    def _finish_in_flight(self) -> None:
        """Let visits still in a field settle, then take their tags out."""
        while any(tag is not None for tag in self.at_phone):
            try:
                label, _ok, _at = self.sink.events.get(timeout=STALL_S)
            except queue.Empty:
                raise RuntimeError("tap_visit stalled while finishing") from None
            tag = self.index[label]
            phone = next(p for p in range(PHONES) if self.at_phone[p] == tag)
            self.scenario.take(self.tags[tag], self.phones[phone])
            self.busy[tag] = False
            self.at_phone[phone] = None
            self.visits[tag] += 1

    # -- output checks --------------------------------------------------------------

    def checks(self) -> List[Check]:
        wrong = []
        for i, tag in enumerate(self.tags):
            stored = json.loads(tag.read_ndef()[0].payload.decode())
            if stored["visits"] != self.initial[i] + self.visits[i]:
                wrong.append(f"{self.labels[i]}: {stored['visits']} != "
                             f"{self.initial[i]} + {self.visits[i]}")
        return [Check("each tag counts exactly its visits", not wrong, "; ".join(wrong[:3]))]

    def reference_objects(self):
        """Objects whose public counters the traced run reads."""
        refs = [ref for app in self.apps for ref in app.reference_factory.known_references()]
        return {
            "references": refs,
            "ports": [phone.port for phone in self.phones],
            "schedulers": [phone.tx_scheduler for phone in self.phones],
            "reactors": [phone.reactor for phone in self.phones],
        }


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    with built_scenario(lambda: TapVisit(seed, tracer), TapVisit.close,
                        SETUP_REPEATS) as (bench, setup_times):
        bench.run_phase(WARMUP_S)
        if tracer is not None:
            tracer.begin(bench.reference_objects())
        phase = bench.run_phase(seconds, tracer)
        if tracer is not None:
            tracer.end(bench.reference_objects(), phase)
        checks = bench.checks()
    phase.validity["warmup_discarded_s"] = WARMUP_S
    return RunResult(setup_s=setup_times, phase=phase, checks=checks)
