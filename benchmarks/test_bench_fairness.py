"""Cross-tag fairness: head-of-line blocking under co-present tags.

The per-port transaction scheduler (PR 5) batches all of one tag's work
through one session — which is exactly wrong when several tags are
co-present and one of them is *hot*: under a whole-tag drain (the
``SequentialDrainPolicy`` baseline from ``tests/conftest.py``) a deep
backlog head-of-line blocks every neighbour until it is empty. The
round-robin quantum bounds each tag's turn instead.

Experiment: 1 hot tag (a deep write backlog) + 7 cold tags (modest
backlogs) enter one phone's field together, under a realistic latency
model. Per policy we measure, from the scheduler's own telemetry and
the settlement timestamps:

* per-tag **time-to-first-service** (field entry -> first settled op) --
  the head-of-line number; reported p50/p99 over the cold tags;
* cold-tag **service latency** (field entry -> op settled) p50/p99;
* **Jain's fairness index** over per-tag ops completed inside the
  contention window (up to the first moment any tag's backlog ran dry
  -- while every tag still has queued work, a fair scheduler gives
  every tag a near-equal share);
* aggregate throughput and connect rounds -- fairness is not free: each
  preemption re-selects a tag and pays a fresh connect. The single-tag
  control re-runs PR 5's co-located workload under the drain and the
  round-robin quantum to pin that the fair default costs a lone tag
  nothing.

A third experiment times the within-round order in exact virtual
seconds: a cohort of cheap (one coalesced write) and costly (write,
read, write) visits enters one field on a ``ManualClock``, and each
settlement is stamped by a telemetry tap on the settling thread. Serving
each round cheapest visit first settles the median operation earlier
while the radio does the same work.

Emits ``BENCH_fairness.json``.
"""

import threading
import time

from repro.android.nfc.tech import Tag
from repro.clock import ManualClock
from repro.concurrent import EventLog
from repro.core.reference import TagReference
from repro.harness.report import Table
from repro.harness.scenario import Scenario
from repro.metrics import LatencySummary, jains_index, percentile
from repro.radio.timing import NOMINAL, TransferTiming

from benchmarks.conftest import emit_bench_json
from tests.conftest import (
    PlainNfcActivity,
    SequentialDrainPolicy,
    string_converters,
    text_tag,
)

HOT_OPS = 128
COLD_TAGS = 7
COLD_OPS = 16
TOTAL_OPS = HOT_OPS + COLD_TAGS * COLD_OPS

# Realistic transfer model: connect and data shares of the same order,
# so both batching (fewer connects) and interleaving (bounded turns)
# are visible in wall time.
TIMING = TransferTiming(
    base_seconds=0.008, seconds_per_byte=5e-5, connect_share=0.5
)

POLICY_VARIANTS = ("drain", "round_robin")

_PAYLOAD = {}


def tx_policy(policy: str):
    """The ``tx_policy`` for a variant name: the drain baseline is a
    test-local class, round-robin the scheduler's default."""
    return SequentialDrainPolicy() if policy == "drain" else None


def run_hot_cold_field(policy: str) -> dict:
    """1 hot + 7 cold tags enter together under ``policy``; returns the
    fairness/HOL measurements for that run."""
    with Scenario(timing=TIMING) as scenario:
        phone = scenario.add_phone("fair-phone", tx_policy=tx_policy(policy))
        activity = scenario.start(phone, PlainNfcActivity)
        clock = scenario.env.clock
        read_conv, write_conv = string_converters()

        hot_tag = text_tag("hot")
        cold_tags = [text_tag(f"cold-{i}") for i in range(COLD_TAGS)]
        tags = [hot_tag] + cold_tags  # hot first: worst case for drain
        refs = [
            TagReference(Tag(tag, phone.port), activity, read_conv, write_conv)
            for tag in tags
        ]

        # (tag_index, settle_time) per settled op, appended from the
        # main looper (single thread, but EventLog is safe regardless).
        settled = EventLog()

        def note(tag_index):
            settled.append((tag_index, clock.now()))

        for op in range(HOT_OPS):
            refs[0].write(
                f"h{op}", coalesce=False, timeout=120.0,
                on_written=lambda _r, i=0: note(i),
            )
        for cold_index in range(COLD_TAGS):
            for op in range(COLD_OPS):
                refs[1 + cold_index].write(
                    f"c{cold_index}-{op}", coalesce=False, timeout=120.0,
                    on_written=lambda _r, i=1 + cold_index: note(i),
                )

        connects_before = phone.port.connects
        entered_at = clock.now()
        started = time.perf_counter()
        scenario.env.move_tags_into_field(tags, phone.port)
        assert settled.wait_for_count(TOTAL_OPS, timeout=120)
        elapsed = time.perf_counter() - started
        connects = phone.port.connects - connects_before
        snapshot = phone.tx_scheduler.stats_snapshot()

        events = settled.snapshot()
        # Contention window: until the first tag's backlog ran dry every
        # tag had queued work, so shares are comparable.
        backlog = {0: HOT_OPS}
        backlog.update({1 + i: COLD_OPS for i in range(COLD_TAGS)})
        finish = {}
        for tag_index, at in events:
            backlog[tag_index] -= 1
            if backlog[tag_index] == 0:
                finish[tag_index] = at
        window_end = min(finish.values())
        in_window = [0] * len(tags)
        for tag_index, at in events:
            if at <= window_end:
                in_window[tag_index] += 1
        fairness = jains_index(in_window)

        cold_ttfs = [
            snapshot["tags"][tag.uid_hex]["time_to_first_service"]
            for tag in cold_tags
        ]
        cold_latencies = [
            at - entered_at for tag_index, at in events if tag_index >= 1
        ]
        return {
            "policy": policy,
            "hot_ops": HOT_OPS,
            "cold_tags": COLD_TAGS,
            "cold_ops_per_tag": COLD_OPS,
            "elapsed_seconds": round(elapsed, 4),
            "ops_per_second": round(TOTAL_OPS / elapsed, 1),
            "connects": connects,
            "preemptions": snapshot["preemptions"],
            "jain_index_contention_window": round(fairness, 4),
            "window_ops_per_tag": in_window,
            "cold_ttfs_p50_seconds": round(percentile(cold_ttfs, 50), 4),
            "cold_ttfs_p99_seconds": round(percentile(cold_ttfs, 99), 4),
            "cold_service_latency": {
                key: (round(value, 4) if isinstance(value, float) else value)
                for key, value in LatencySummary(cold_latencies)
                .as_dict()
                .items()
            },
        }


# Single-tag control: PR 5's co-located workload (8 refs x 2 ops on one
# tag), which must not regress under the fair default -- a lone tag's
# quantum renews in place, so the whole backlog still rides one connect.
CONTROL_REFS = 8
CONTROL_OPS_PER_REF = 2
CONTROL_TIMING = TransferTiming(base_seconds=0.02, seconds_per_byte=1e-4)


def run_single_tag_control(policy: str) -> dict:
    with Scenario(timing=CONTROL_TIMING) as scenario:
        phone = scenario.add_phone("control-phone", tx_policy=tx_policy(policy))
        activity = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("seed")
        read_conv, write_conv = string_converters()
        refs = [
            TagReference(Tag(tag, phone.port), activity, read_conv, write_conv)
            for _ in range(CONTROL_REFS)
        ]
        done = EventLog()
        for ref_index, ref in enumerate(refs):
            for op_index in range(CONTROL_OPS_PER_REF):
                ref.write(
                    f"r{ref_index}-o{op_index}",
                    on_written=lambda _r: done.append(1),
                    timeout=30.0,
                )
        total = CONTROL_REFS * CONTROL_OPS_PER_REF
        connects_before = phone.port.connects
        started = time.perf_counter()
        scenario.put(tag, phone)
        assert done.wait_for_count(total, timeout=30)
        elapsed = time.perf_counter() - started
        return {
            "policy": policy,
            "ops": total,
            "seconds": round(elapsed, 4),
            "ops_per_second": round(total / elapsed, 1),
            "connects": phone.port.connects - connects_before,
        }


def test_fair_policies_unblock_cold_tags(benchmark):
    results = {}
    for policy in POLICY_VARIANTS:
        if policy == "round_robin":
            results[policy] = benchmark.pedantic(
                run_hot_cold_field, args=(policy,), rounds=1, iterations=1
            )
        else:
            results[policy] = run_hot_cold_field(policy)

    table = Table(
        f"Cross-tag fairness -- 1 hot tag ({HOT_OPS} writes) + "
        f"{COLD_TAGS} cold tags ({COLD_OPS} writes each), one field",
        [
            "policy",
            "cold TTFS p99 (s)",
            "Jain (window)",
            "ops/s",
            "connects",
            "preempts",
        ],
    )
    for policy, row in results.items():
        table.add_row(
            policy,
            row["cold_ttfs_p99_seconds"],
            row["jain_index_contention_window"],
            row["ops_per_second"],
            row["connects"],
            row["preemptions"],
        )
    table.print()

    drain, fair = results["drain"], results["round_robin"]
    ttfs_improvement = (
        drain["cold_ttfs_p99_seconds"] / fair["cold_ttfs_p99_seconds"]
    )
    # The acceptance bar: round-robin quanta cut the cold tags' p99
    # time-to-first-service by at least 3x and share the contention
    # window near-equally.
    assert ttfs_improvement >= 3.0
    assert fair["jain_index_contention_window"] >= 0.9
    # The drain ablation really does starve: one tag owns the window.
    assert drain["jain_index_contention_window"] <= 0.5
    # Interleaving pays connects for fairness, but stays far below one
    # connect per operation.
    assert fair["connects"] < TOTAL_OPS / 2

    _PAYLOAD["hot_cold_field"] = {
        "total_ops": TOTAL_OPS,
        "timing": {
            "base_seconds": TIMING.base_seconds,
            "seconds_per_byte": TIMING.seconds_per_byte,
            "connect_share": TIMING.connect_share,
        },
        "cold_ttfs_p99_improvement_vs_drain": round(ttfs_improvement, 2),
        "policies": results,
    }
    emit_bench_json("fairness", _PAYLOAD)


def test_single_tag_throughput_not_taxed_by_fairness(benchmark):
    drain = run_single_tag_control("drain")
    fair = benchmark.pedantic(
        run_single_tag_control, args=("round_robin",), rounds=1, iterations=1
    )

    table = Table(
        f"Single-tag control -- {CONTROL_REFS} co-located references x "
        f"{CONTROL_OPS_PER_REF} writes (PR 5's workload)",
        ["policy", "seconds", "ops/s", "connects"],
    )
    for row in (drain, fair):
        table.add_row(
            row["policy"], row["seconds"], row["ops_per_second"], row["connects"]
        )
    table.print()

    # A lone tag pays exactly one connect under either policy (the
    # quantum renews in place with nobody else waiting)...
    assert drain["connects"] == 1
    assert fair["connects"] == 1
    # ...and the fair default keeps aggregate throughput within 10%.
    assert fair["ops_per_second"] >= 0.9 * drain["ops_per_second"]

    _PAYLOAD["single_tag_control"] = {
        "drain": drain,
        "round_robin": fair,
        "throughput_ratio": round(
            fair["ops_per_second"] / drain["ops_per_second"], 3
        ),
    }
    emit_bench_json("fairness", _PAYLOAD)


# Mixed cohort: 8 NTAG215 tags with 3 coalescible writes queued each;
# every third tag also queues a read behind its first write, so its
# visit is write, read, write instead of one coalesced write.
MIXED_TAGS = 8
MIXED_WRITES = 3
MIXED_READ_EVERY = 3


def run_mixed_cohort(policy: str) -> dict:
    """Bulk-enter the mixed cohort on a ManualClock under ``NOMINAL``
    timing, a perfect link and ``policy``; returns its virtual settle
    times."""
    clock = ManualClock()
    with Scenario(timing=NOMINAL, clock=clock) as scenario:
        phone = scenario.add_phone("mixed-phone", tx_policy=tx_policy(policy))
        activity = scenario.start(phone, PlainNfcActivity)
        read_conv, write_conv = string_converters()
        tags = [
            text_tag(f"mixed-{i}", tag_type="NTAG215") for i in range(MIXED_TAGS)
        ]
        settled = EventLog()  # virtual settle times, stamped inline

        def stamp(_ref, _operation, _outcome):
            settled.append(clock.now())

        expected = 0
        for index, tag in enumerate(tags):
            ref = TagReference(
                Tag(tag, phone.port), activity, read_conv, write_conv,
                coalesce_writes=True,
            )
            ref.add_telemetry_listener(stamp)
            for write in range(MIXED_WRITES):
                ref.write(f"m{index}-{write}", timeout=30.0)
                expected += 1
                if write == 0 and index % MIXED_READ_EVERY == 0:
                    ref.read(timeout=30.0)
                    expected += 1
        # Let every reference's enqueue step run while its tag is away,
        # so the cohort is marked ready in entry order.
        parked = threading.Event()
        phone.reactor.register(parked.set, name="barrier").wake()
        assert parked.wait(5)
        connects_before = phone.port.connects
        entered_at = clock.now()
        scenario.env.move_tags_into_field(tags, phone.port)
        assert settled.wait_for_count(expected, timeout=30)
        times = [at - entered_at for at in settled.snapshot()]
        return {
            "operations": expected,
            "connects": phone.port.connects - connects_before,
            "settle_p50_virtual_seconds": round(percentile(times, 50), 6),
            "settle_last_virtual_seconds": round(max(times), 6),
        }


def test_cheapest_visit_first_settles_the_mixed_cohort_sooner():
    fair = run_mixed_cohort("round_robin")
    # Every visit fits in one quantum, so the whole-tag drain serves the
    # cohort once each in strict ready order: the order without the sort.
    ready_order = run_mixed_cohort("drain")

    table = Table(
        f"Mixed cohort -- {MIXED_TAGS} NTAG215 tags, {MIXED_WRITES} "
        f"coalescible writes each, a read on one tag in {MIXED_READ_EVERY} "
        "(ManualClock, NOMINAL timing)",
        ["order", "settle p50 (virtual s)", "last settle (virtual s)", "connects"],
    )
    for name, row in (("cheapest first", fair), ("ready order", ready_order)):
        table.add_row(
            name,
            f"{row['settle_p50_virtual_seconds']:.4f}",
            f"{row['settle_last_virtual_seconds']:.4f}",
            row["connects"],
        )
    table.print()

    _PAYLOAD["mixed_cohort"] = {
        "tags": MIXED_TAGS,
        **fair,
        "ready_order": ready_order,
    }
    emit_bench_json("fairness", _PAYLOAD)

    # Virtual time on one phone: a second run agrees to the digit.
    assert run_mixed_cohort("round_robin") == fair
    # The same radio work in another order: one connect per tag and the
    # same last settlement, but the median operation settles sooner.
    assert fair["connects"] == ready_order["connects"] == MIXED_TAGS
    assert fair["settle_last_virtual_seconds"] == (
        ready_order["settle_last_virtual_seconds"]
    )
    assert (
        fair["settle_p50_virtual_seconds"]
        < ready_order["settle_p50_virtual_seconds"]
    )
