"""Beam benches: delivery under loss, and idle Beamers.

Sweeps link loss and compares the delivery rate of MORENA's queued,
retrying ``Beamer`` against a single raw ``push_now`` per message -- the
Beam analogue of the section 4 retry claim. Then parks 50 Beamers, each
with a beam pending and no peer near: as reactor tasks they add no
thread per Beamer and spend near-zero CPU while they wait.
"""

import threading

import pytest

from repro.concurrent import EventLog, wait_until
from repro.core.beam import Beamer
from repro.core.converters import (
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.core.beam import BeamReceivedListener
from repro.core.nfc_activity import NFCActivity
from repro.harness.report import Series, Table
from repro.harness.scenario import Scenario
from repro.radio.link import LossyLink

from benchmarks.conftest import (
    IDLE_CPU_CEILING_SECONDS,
    IDLE_WINDOW_SECONDS,
    measure_idle_cpu,
)

BEAM_TYPE = "application/x-bench-beam"
MESSAGES = 20
LOSS_LEVELS = [0.0, 0.3, 0.6]
IDLE_BEAMERS = 50


class Receiver(NFCActivity):
    def on_create(self):
        self.received = EventLog()
        app = self

        class Listener(BeamReceivedListener):
            def on_beam_received(self, obj):
                app.received.append(obj)

        Listener(self, BEAM_TYPE, NdefMessageToStringConverter())


class Sender(NFCActivity):
    def on_create(self):
        self.beamer = Beamer(self, StringToNdefMessageConverter(BEAM_TYPE))


def run(loss: float, seed: int) -> tuple:
    """Returns (queued delivery rate, one-shot delivery rate)."""
    with Scenario() as scenario:
        sender_phone = scenario.add_phone("sender", link=LossyLink(loss, seed=seed))
        receiver_phone = scenario.add_phone("receiver")
        sender = scenario.start(sender_phone, Sender)
        receiver = scenario.start(receiver_phone, Receiver)
        scenario.pair(sender_phone, receiver_phone)

        # One-shot: a single raw push per message, no retry.
        one_shot_delivered = 0
        for index in range(MESSAGES):
            try:
                sender_phone.nfc_adapter.push_now(
                    StringToNdefMessageConverter(BEAM_TYPE).convert(f"raw-{index}")
                )
                one_shot_delivered += 1
            except Exception:  # noqa: BLE001 - loss counted, not raised
                pass

        # Queued: the Beamer retries until the timeout.
        delivered = EventLog()
        failures = EventLog()
        for index in range(MESSAGES):
            sender.beamer.beam(
                f"queued-{index}",
                on_success=lambda: delivered.append("ok"),
                on_failed=lambda: failures.append("timed-out"),
                timeout=5.0,
            )
        assert delivered.wait_for_count(MESSAGES, timeout=10)
        assert len(failures) == 0
        receiver_phone.sync()
        return len(delivered) / MESSAGES, one_shot_delivered / MESSAGES


def test_beam_delivery_vs_loss(benchmark):
    rows = benchmark.pedantic(
        lambda: [(loss,) + run(loss, seed=7) for loss in LOSS_LEVELS],
        rounds=1,
        iterations=1,
    )

    table = Table(
        "Beam ablation -- delivery rate vs link loss "
        f"({MESSAGES} messages per cell)",
        ["loss", "queued Beamer", "one-shot push"],
    )
    queued_series = Series("queued", "loss", "delivery rate")
    for loss, queued_rate, one_shot_rate in rows:
        table.add_row(loss, queued_rate, one_shot_rate)
        queued_series.add(loss, queued_rate)
    table.print()

    for loss, queued_rate, one_shot_rate in rows:
        assert queued_rate == 1.0  # retries always deliver within the timeout
        assert queued_rate >= one_shot_rate
    # On a degraded link the one-shot path visibly drops messages.
    worst = rows[-1]
    assert worst[2] < 1.0


def test_idle_beamers_cost_no_thread_and_no_cpu():
    with Scenario() as scenario:
        phone = scenario.add_phone("idle-sender")
        sender = scenario.start(phone, Sender)
        threads_before = threading.active_count()
        beamers = [
            Beamer(sender, StringToNdefMessageConverter(BEAM_TYPE))
            for _ in range(IDLE_BEAMERS)
        ]
        for beamer in beamers:
            beamer.beam("nobody near", timeout=60.0)
        assert wait_until(lambda: phone.reactor.steps_executed >= IDLE_BEAMERS)
        idle_cpu = measure_idle_cpu()
        added_threads = threading.active_count() - threads_before
        pending = sum(beamer.pending_count for beamer in beamers)

    table = Table(
        f"Idle Beamers -- {IDLE_BEAMERS} with one pending beam, no peer",
        ["metric", "value"],
    )
    table.add_row(f"idle CPU over {IDLE_WINDOW_SECONDS}s (s)", f"{idle_cpu:.4f}")
    table.add_row("threads added", added_threads)
    table.print()

    assert pending == IDLE_BEAMERS
    assert added_threads <= 1  # the device reactor's loop thread, shared
    assert idle_cpu < IDLE_CPU_CEILING_SECONDS
