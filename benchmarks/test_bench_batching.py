"""Section 4 batching claim.

"In the MORENA version, multiple write operations can be batched until a
tag comes in range, while in the handcrafted solution the user can only
attempt to write as soon as a tag is in range."

Experiment: N updates are produced while the tag is away. When the tag
finally appears for one tap window, MORENA drains its whole queue in
order; the handcrafted app cannot even initiate a write without the tag,
so every update costs the user one tap.
"""

import gc
import json
import statistics
import threading
import time

from repro.android.nfc.tech import Tag
from repro.apps.wifi.wifi_manager import WifiNetworkRegistry
from repro.baseline import HandcraftedWifiActivity, WifiConfigData
from repro.concurrent import EventLog, wait_until
from repro.core.reference import TagReference
from repro.harness.report import Table
from repro.harness.scenario import Scenario
from repro.harness.user import SimulatedUser
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.timing import TransferTiming
from repro.tags.factory import make_tag

from benchmarks.conftest import emit_bench_json

from tests.conftest import (
    PlainNfcActivity,
    make_reference,
    string_converters,
    text_tag,
)

UPDATES = 8
WIFI_MIME = "application/vnd.morena.wificonfig"

# Co-located window experiment: several references bound to one tag on
# one device, drained in a single tap window.
CO_LOCATED_REFS = 8
OPS_PER_REF = 2
CO_LOCATED_TIMING = TransferTiming(base_seconds=0.02, seconds_per_byte=1e-4)

# Deep-drain experiment: one reference drains a deep queue of plain
# writes in one tap. Work per poll must not grow with the queue, so CPU
# per settled op at the deep size stays close to the shallow one.
DEEP_QUEUE_SIZES = (100, 3_200)
DEEP_QUEUE_RUNS = 3
DEEP_QUEUE_MAX_RATIO = 1.5

_PAYLOAD = {}


def run_morena(coalesce: bool = False) -> tuple:
    """Returns (taps, completed writes, physical tag writes) after one
    hold window; with ``coalesce`` the queued updates collapse to the
    newest payload and land in a single physical write."""
    with Scenario() as scenario:
        phone = scenario.add_phone("phone")
        activity = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("initial")
        reference = make_reference(activity, tag, phone, coalesce_writes=coalesce)
        completed = EventLog()
        for index in range(UPDATES):
            reference.write(
                f"update-{index}",
                on_written=lambda r, i=index: completed.append(i),
                timeout=30.0,
            )
        assert reference.pending_count == UPDATES  # queued, tag absent
        writes_before = phone.port.write_attempts
        user = SimulatedUser(scenario.env, phone)
        stats = user.hold_until(
            tag, done=lambda: len(completed) >= UPDATES, max_seconds=5.0
        )
        assert tag.read_ndef()[0].payload.decode() == f"update-{UPDATES - 1}"
        assert completed.snapshot() == list(range(UPDATES))  # in order
        return stats.taps, len(completed), phone.port.write_attempts - writes_before


def run_handcrafted() -> tuple:
    """One tap per update: the baseline writes only while the tag is there."""
    with Scenario() as scenario:
        registry = WifiNetworkRegistry()
        phone = scenario.add_phone("phone")
        app = scenario.start(phone, HandcraftedWifiActivity, registry)
        payload = json.dumps({"ssid": "seed", "key": "k"}).encode()
        tag = make_tag(content=NdefMessage([mime_record(WIFI_MIME, payload)]))
        taps = 0
        completed = 0
        for index in range(UPDATES):
            scenario.put(tag, phone)  # the user taps...
            taps += 1
            assert wait_until(
                lambda: (
                    phone.sync(),
                    app.join_workers(),
                    phone.sync(),
                )
                and app.last_tag is not None
            )
            config = WifiConfigData(f"update-{index}", "k")
            phone.main_looper.post(
                lambda c=config: app.rename_network(c, c.ssid, c.key)
            )
            assert wait_until(
                lambda i=index: (
                    phone.sync(),
                    app.join_workers(),
                    phone.sync(),
                )
                and json.loads(tag.read_ndef()[0].payload)["ssid"] == f"update-{i}"
            )
            completed += 1
            scenario.take(tag, phone)  # ...and withdraws between updates
            app.last_tag = None
        return taps, completed


def test_batched_writes_drain_in_one_tap(benchmark):
    morena_taps, morena_done, morena_writes = benchmark.pedantic(
        run_morena, rounds=1, iterations=1
    )
    coalesced_taps, coalesced_done, coalesced_writes = run_morena(coalesce=True)
    handcrafted_taps, handcrafted_done = run_handcrafted()

    table = Table(
        f"Section 4 batching claim -- {UPDATES} updates produced while the "
        "tag is away",
        ["variant", "taps needed", "updates applied", "tag writes"],
    )
    table.add_row("MORENA", morena_taps, morena_done, morena_writes)
    table.add_row("MORENA + coalescing", coalesced_taps, coalesced_done, coalesced_writes)
    table.add_row("handcrafted", handcrafted_taps, handcrafted_done, UPDATES)
    table.print()

    assert morena_done == UPDATES
    assert morena_taps == 1  # a single tap window drains the queue
    assert morena_writes == UPDATES
    assert coalesced_done == UPDATES  # every listener still fires...
    assert coalesced_taps == 1
    assert coalesced_writes == 1  # ...but only the newest payload lands
    assert handcrafted_done == UPDATES
    assert handcrafted_taps == UPDATES  # one tap per update

    _PAYLOAD["one_tap_drain"] = {
        "updates": UPDATES,
        "morena_taps": morena_taps,
        "coalesced_tag_writes": coalesced_writes,
        "handcrafted_taps": handcrafted_taps,
    }
    emit_bench_json("batching", _PAYLOAD)


def co_located_payloads() -> list:
    """``(ref_index, op_index, text)`` for every write, in enqueue order."""
    return [
        (ref_index, op_index, f"r{ref_index}-o{op_index}")
        for ref_index in range(CO_LOCATED_REFS)
        for op_index in range(OPS_PER_REF)
    ]


def run_co_located_window() -> tuple:
    """Drain ``CO_LOCATED_REFS`` references' queues through one tap
    window under a realistic latency model; returns (wall seconds,
    physical connect rounds). Per-reference FIFO is asserted inline."""
    with Scenario(timing=CO_LOCATED_TIMING) as scenario:
        phone = scenario.add_phone("phone")
        activity = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("seed")
        read_conv, write_conv = string_converters()
        refs = [
            TagReference(Tag(tag, phone.port), activity, read_conv, write_conv)
            for _ in range(CO_LOCATED_REFS)
        ]
        logs = [EventLog() for _ in refs]
        done = EventLog()
        for ref_index, op_index, text in co_located_payloads():
            refs[ref_index].write(
                text,
                on_written=lambda _r, ri=ref_index, oi=op_index: (
                    logs[ri].append(oi),
                    done.append(1),
                ),
                timeout=30.0,
            )
        connects_before = phone.port.connects
        start = time.perf_counter()
        scenario.put(tag, phone)
        assert done.wait_for_count(CO_LOCATED_REFS * OPS_PER_REF, timeout=30)
        elapsed = time.perf_counter() - start
        for log in logs:  # settlement stayed FIFO within each reference
            assert log.snapshot() == list(range(OPS_PER_REF))
        return elapsed, phone.port.connects - connects_before


def run_standalone_writes() -> tuple:
    """The unbatched baseline: the same writes, timed the same way, but
    each one a standalone port round-trip that pays its own connect."""
    with Scenario(timing=CO_LOCATED_TIMING) as scenario:
        phone = scenario.add_phone("phone")
        tag = text_tag("seed")
        _read_conv, write_conv = string_converters()
        messages = [
            write_conv.convert(text) for _, _, text in co_located_payloads()
        ]
        connects_before = phone.port.connects
        start = time.perf_counter()
        scenario.put(tag, phone)
        for message in messages:
            phone.port.write_ndef(tag, message)
        elapsed = time.perf_counter() - start
        assert tag.read_ndef() == messages[-1]
        return elapsed, phone.port.connects - connects_before


def test_co_located_references_share_one_connect_per_window(benchmark):
    unbatched_seconds, unbatched_connects = run_standalone_writes()
    batched_seconds, batched_connects = benchmark.pedantic(
        run_co_located_window, rounds=1, iterations=1
    )

    total_ops = CO_LOCATED_REFS * OPS_PER_REF
    speedup = unbatched_seconds / batched_seconds
    table = Table(
        f"Per-port transaction scheduler -- {CO_LOCATED_REFS} co-located "
        f"references x {OPS_PER_REF} writes, one tap window",
        ["variant", "seconds", "ops/s", "connect rounds"],
    )
    table.add_row(
        "standalone", round(unbatched_seconds, 3),
        round(total_ops / unbatched_seconds, 1), unbatched_connects,
    )
    table.add_row(
        "batched window", round(batched_seconds, 3),
        round(total_ops / batched_seconds, 1), batched_connects,
    )
    table.print()

    assert batched_connects == 1  # one connect served the whole window
    assert unbatched_connects == total_ops
    assert speedup >= 2.0

    _PAYLOAD["co_located_window"] = {
        "references": CO_LOCATED_REFS,
        "ops_per_reference": OPS_PER_REF,
        "batched_seconds": round(batched_seconds, 4),
        "unbatched_seconds": round(unbatched_seconds, 4),
        "batched_ops_per_second": round(total_ops / batched_seconds, 1),
        "unbatched_ops_per_second": round(total_ops / unbatched_seconds, 1),
        "batched_connects": batched_connects,
        "unbatched_connects": unbatched_connects,
        "speedup": round(speedup, 2),
        "per_reference_fifo": True,
    }
    emit_bench_json("batching", _PAYLOAD)


def run_deep_drain(size: int) -> float:
    """Process CPU seconds per settled op while one reference drains
    ``size`` queued writes in one tap (no radio delay, perfect link).
    The reference does not coalesce, so every write lands on its own."""
    with Scenario() as scenario:
        phone = scenario.add_phone("phone")
        activity = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("seed")
        reference = make_reference(activity, tag, phone)
        written, failed = [], []
        drained = threading.Event()

        def on_written(_ref) -> None:  # runs on the looper, one at a time
            written.append(1)
            if len(written) == size:
                drained.set()

        for index in range(size):
            reference.write(
                f"w{index}",
                on_written=on_written,
                on_failed=failed.append,
                timeout=600.0,
            )
        assert reference.pending_count == size  # queued, tag absent
        gc.collect()  # start every run from the same collector state
        start = time.process_time()
        scenario.put(tag, phone)
        # One wakeup for the whole drain, so waiting costs no CPU per op.
        assert drained.wait(timeout=120)
        cpu_seconds = time.process_time() - start
        assert not failed
        assert tag.read_ndef()[0].payload == f"w{size - 1}".encode()
    return cpu_seconds / size


def test_deep_queue_drains_at_constant_cost_per_op(benchmark):
    shallow, deep = DEEP_QUEUE_SIZES

    def measure() -> dict:
        # Sizes alternate, so drift in the host's speed hits both alike.
        runs = [
            (size, run_deep_drain(size))
            for _ in range(DEEP_QUEUE_RUNS)
            for size in DEEP_QUEUE_SIZES
        ]
        return {
            size: statistics.median(cpu for ran, cpu in runs if ran == size)
            for size in DEEP_QUEUE_SIZES
        }

    cpu_per_op = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = cpu_per_op[deep] / cpu_per_op[shallow]

    table = Table(
        f"Deep-queue drain -- one reference, one tap, median of "
        f"{DEEP_QUEUE_RUNS} runs",
        ["queued writes", "CPU us per settled op"],
    )
    for size in DEEP_QUEUE_SIZES:
        table.add_row(size, round(1e6 * cpu_per_op[size], 1))
    table.print()

    assert ratio <= DEEP_QUEUE_MAX_RATIO

    _PAYLOAD["deep_queue_drain"] = {
        "runs": DEEP_QUEUE_RUNS,
        "shallow_ops": shallow,
        "deep_ops": deep,
        "shallow_cpu_us_per_op": round(1e6 * cpu_per_op[shallow], 1),
        "deep_cpu_us_per_op": round(1e6 * cpu_per_op[deep], 1),
        "cpu_per_op_ratio": round(ratio, 3),
    }
    emit_bench_json("batching", _PAYLOAD)
