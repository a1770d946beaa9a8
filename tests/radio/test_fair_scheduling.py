"""Cross-tag fair scheduling: policies, quanta, fences, tears, telemetry.

With several tags co-present in one field, the transaction scheduler
shares the radio under a policy: round-robin quanta unless a test passes
its own. These tests pin the policy mechanics (byte-weighted cost,
quantum renewal when alone), the isolation guarantees (fences and tears
are strictly per tag), and the per-tag service telemetry.
"""

import math
import threading

import pytest

from repro.clock import ManualClock
from repro.concurrent import EventLog, wait_until
from repro.core.reference import TagReference
from repro.android.nfc.tech import Tag
from repro.errors import MorenaError
from repro.harness.scenario import Scenario
from repro.radio.link import ScriptedLink
from repro.radio.timing import NOMINAL
from repro.radio.txscheduler import (
    _QUANTUM_UNITS,
    CrossTagPolicy,
    RoundRobinPolicy,
    _op_cost,
)

from tests.conftest import (
    PlainNfcActivity,
    SequentialDrainPolicy,
    make_reference,
    string_converters,
    text_message,
    text_tag,
)


def co_located_refs(activity, tag, phone, count):
    read_conv, write_conv = string_converters()
    return [
        TagReference(Tag(tag, phone.port), activity, read_conv, write_conv)
        for _ in range(count)
    ]


class TestPolicyMechanics:
    def test_op_cost_scales_with_bytes(self):
        assert _op_cost(0) == 1.0
        assert _op_cost(256) == 2.0
        assert _op_cost(-5) == 1.0  # defensive: unknown sizes cost base

    def test_drain_budget_is_unbounded(self):
        policy = SequentialDrainPolicy()
        assert policy.begin_visit("tag") == math.inf
        assert not policy.rotates

    def test_round_robin_budget_is_a_fixed_quantum(self):
        policy = RoundRobinPolicy()
        assert policy.begin_visit("tag") == 6.0
        assert policy.begin_visit("other") == 6.0
        assert policy.rotates


class TestPolicySelection:
    def test_scenario_default_is_round_robin(self, phone):
        assert isinstance(phone.tx_scheduler.policy, RoundRobinPolicy)
        assert phone.tx_scheduler.policy.name == "round_robin"

    @pytest.mark.parametrize("spec", ["deficit", "round_robin", RoundRobinPolicy])
    def test_policy_that_is_not_an_instance_is_rejected(self, scenario, spec):
        phone = scenario.add_phone("named-phone", tx_policy=spec)
        with pytest.raises(MorenaError, match="CrossTagPolicy instance"):
            phone.tx_scheduler


class TestCrossTagInterleaving:
    def test_quantum_serves_cold_tag_before_hot_backlog_drains(self):
        """1 hot tag with a deep backlog + 1 cold tag with one write:
        the cold write must not wait for the whole hot drain. Real (small)
        per-op latency keeps the hot drain from finishing before the
        cold tag's field event lands."""
        from repro.harness.scenario import Scenario
        from repro.radio.timing import TransferTiming

        timing = TransferTiming(base_seconds=0.004, seconds_per_byte=0.0)
        with Scenario(timing=timing) as scenario:
            phone = scenario.add_phone("fair-phone")
            activity = scenario.start(phone, PlainNfcActivity)
            hot_tag, cold_tag = text_tag("hot"), text_tag("cold")
            (hot,) = co_located_refs(activity, hot_tag, phone, 1)
            (cold,) = co_located_refs(activity, cold_tag, phone, 1)
            order = EventLog()
            for index in range(24):
                hot.write(
                    f"h{index}",
                    coalesce=False,
                    timeout=30.0,
                    on_written=lambda _r, i=index: order.append(f"h{i}"),
                )
            cold.write(
                "c0", timeout=30.0, on_written=lambda _r: order.append("c0")
            )
            scenario.env.move_tags_into_field([hot_tag, cold_tag], phone.port)
            assert order.wait_for_count(25, timeout=30)
            events = order.snapshot()
            # The cold write landed within the first quantum's reach,
            # far before the hot backlog drained.
            assert events.index("c0") < events.index("h23")
            assert events.index("c0") <= 16

    def test_bulk_entry_serves_the_whole_cohort_in_one_rotation(
        self, scenario, phone, activity
    ):
        """A bulk field entry hands the scheduler its whole cohort: the
        first service round visits every tag once, and the next round
        does not start with the tag the first round served last. A field
        listener registered after the scheduler's holds the dispatching
        thread on the first ``TagEntered`` until the first round has
        begun, which is the interleaving that used to split the cohort
        (one tag served alone, then served again at once)."""
        tags = [text_tag(f"t{index}") for index in range(4)]
        refs = [co_located_refs(activity, tag, phone, 1)[0] for tag in tags]
        done = EventLog()
        for ref in refs:
            for index in range(12):  # two quanta per tag
                ref.write(
                    f"v{index}", coalesce=False, on_written=lambda _r: done.append(1)
                )
        # Let every reference park on its absent tag first: a step still
        # queued from the writes would mark its tag itself.
        parked = threading.Event()
        phone.reactor.register(parked.set, name="barrier").wake()
        assert parked.wait(5)
        port = phone.port
        visits = []
        round_begun = threading.Event()
        all_entered = threading.Event()
        open_session = port.open_session

        def logged_open_session(tag):
            visits.append(tags.index(tag))
            round_begun.set()
            # Hold the first visit until the whole cohort has entered.
            all_entered.wait(5)
            return open_session(tag)

        def hold_first_entry(_event):
            if not visits:
                round_begun.wait(1.0)

        port.open_session = logged_open_session
        port.add_field_listener(hold_first_entry)
        scenario.env.move_tags_into_field(tags, port)
        all_entered.set()
        assert done.wait_for_count(48, timeout=10)
        cohort = len(tags)
        assert sorted(visits[:cohort]) == list(range(cohort)), visits
        assert visits[cohort] != visits[cohort - 1], visits

    def test_drain_policy_preserves_whole_tag_service(self, scenario, activity):
        """Ablation: under the whole-tag drain baseline the first-marked
        tag's whole backlog lands before the second tag is served at all."""
        phone = scenario.add_phone(
            "drain-phone", tx_policy=SequentialDrainPolicy()
        )
        app = scenario.start(phone, PlainNfcActivity)
        a_tag, b_tag = text_tag("a"), text_tag("b")
        (a,) = co_located_refs(app, a_tag, phone, 1)
        (b,) = co_located_refs(app, b_tag, phone, 1)
        order = EventLog()
        for index in range(10):
            a.write(
                f"a{index}",
                coalesce=False,
                on_written=lambda _r, i=index: order.append(f"a{i}"),
            )
        b.write("b0", on_written=lambda _r: order.append("b0"))
        # Both tags enter before any drain starts: enqueue while absent,
        # then bulk-enter so the ready order is the insertion order.
        scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
        assert order.wait_for_count(11)
        assert order.snapshot()[-1] == "b0"

    def test_preemption_counted_and_connects_paid_per_visit(
        self, scenario, phone, activity
    ):
        """Two backlogged tags under round-robin: visits alternate, each
        re-selection pays a fresh connect, preemptions are counted."""
        a_tag, b_tag = text_tag("a"), text_tag("b")
        (a,) = co_located_refs(activity, a_tag, phone, 1)
        (b,) = co_located_refs(activity, b_tag, phone, 1)
        done = EventLog()
        for index in range(20):
            a.write(f"a{index}", coalesce=False, on_written=lambda _r: done.append(1))
            b.write(f"b{index}", coalesce=False, on_written=lambda _r: done.append(1))
        scheduler = phone.tx_scheduler
        connects_before = phone.port.connects
        scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
        assert done.wait_for_count(40)
        assert scheduler.preemptions >= 2
        # More than one session per tag (preempted visits reconnect)...
        assert phone.port.connects - connects_before > 2
        # ...but still far below one connect per operation.
        assert phone.port.connects - connects_before < 40

    def test_lone_tag_still_pays_one_connect_despite_quanta(
        self, scenario, phone, activity
    ):
        """Fairness must not tax a lone tag: a backlog far deeper than
        one quantum still runs in a single session when no other tag is
        waiting (the budget renews in place)."""
        tag = text_tag("lone")
        refs = co_located_refs(activity, tag, phone, 4)
        done = EventLog()
        for ref in refs:
            for index in range(6):  # 24 ops >> a quantum of ~6
                ref.write(
                    f"v{index}", coalesce=False, on_written=lambda _r: done.append(1)
                )
        connects_before = phone.port.connects
        scenario.put(tag, phone)
        assert done.wait_for_count(24)
        assert phone.port.connects - connects_before == 1
        assert phone.tx_scheduler.preemptions == 0

    def test_settled_tag_does_not_preempt_its_neighbour(self):
        """A and B bulk-enter with one write on A and twelve (two quanta)
        on B. A's visit settles its write first and leaves nothing
        pending, so A must lose its ready mark: a stale mark counts A as
        a waiting neighbour, and B is preempted at its quantum for a
        visit to A that finds nothing to do, paying a third connect."""
        with Scenario(clock=ManualClock(), timing=NOMINAL) as scenario:
            phone = scenario.add_phone("settled-phone")
            activity = scenario.start(phone, PlainNfcActivity)
            a_tag, b_tag = text_tag("a"), text_tag("b")
            (a,) = co_located_refs(activity, a_tag, phone, 1)
            (b,) = co_located_refs(activity, b_tag, phone, 1)
            done = EventLog()
            a.write("a0", on_written=lambda _r: done.append("a0"))
            for index in range(12):
                b.write(
                    f"b{index}", coalesce=False, on_written=lambda _r: done.append(1)
                )
            connects_before = phone.port.connects
            scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
            assert done.wait_for_count(13)
            assert done.snapshot()[0] == "a0"
            assert phone.port.connects - connects_before == 2
            assert phone.tx_scheduler.preemptions == 0


class TestCheapestVisitFirst:
    def test_round_visits_cheapest_tag_first(self):
        """Tags A, B and C bulk-enter in that order, with a write, a read
        and a write pending on A, one write on B and two on C: the first
        round serves B, then C, then A, cheapest visit first."""
        with Scenario(clock=ManualClock()) as scenario:
            phone = scenario.add_phone("sorted-phone")
            activity = scenario.start(phone, PlainNfcActivity)
            tags = [text_tag(name) for name in ("a", "b", "c")]
            a, b, c = (co_located_refs(activity, tag, phone, 1)[0] for tag in tags)
            done = EventLog()

            def note(_ref):
                done.append(1)

            a.write("a0", on_written=note)
            a.read(on_read=note)
            a.write("a1", on_written=note)
            b.write("b0", on_written=note)
            c.write("c0", coalesce=False, on_written=note)
            c.write("c1", coalesce=False, on_written=note)
            # Let every reference park on its absent tag first: a step
            # still queued from the enqueues would mark its tag itself.
            parked = threading.Event()
            phone.reactor.register(parked.set, name="barrier").wake()
            assert parked.wait(5)
            port = phone.port
            visits = []
            open_session = port.open_session

            def logged_open_session(tag):
                visits.append("abc"[tags.index(tag)])
                return open_session(tag)

            port.open_session = logged_open_session
            scenario.env.move_tags_into_field(tags, port)
            assert done.wait_for_count(6)
        assert visits == ["b", "c", "a"]

    def test_visit_cost_reads_at_most_one_quantum(
        self, scenario, phone, activity, monkeypatch
    ):
        """Sizing a tag's visit reads no more pending operations than one
        quantum can hold, across its references and however deep their
        queues."""
        tag = text_tag("deep")
        shallow, deep = co_located_refs(activity, tag, phone, 2)
        for index in range(3):
            shallow.write(f"s{index}", coalesce=False, timeout=60.0)
        for index in range(3000):
            deep.write(f"d{index}", coalesce=False, timeout=60.0)
        reads = []
        batch_peek = TagReference.batch_peek

        def counted_peek(reference, limit):
            operations = batch_peek(reference, limit)
            reads.append(len(operations))
            return operations

        monkeypatch.setattr(TagReference, "batch_peek", counted_peek)
        assert phone.tx_scheduler._visit_cost(tag) == _QUANTUM_UNITS
        assert len(reads) == 2 and reads[0] == 3
        assert sum(reads) <= _QUANTUM_UNITS


class TestCrossTagFenceIsolation:
    def test_fence_on_absent_tag_never_stalls_present_tag(
        self, scenario, phone, activity
    ):
        """A pending batch fence on tag A (absent) must not fence tag
        B's younger operations: fences are per-tag barriers."""
        a_tag, b_tag = text_tag("a"), text_tag("b")
        (a,) = co_located_refs(activity, a_tag, phone, 1)
        (b,) = co_located_refs(activity, b_tag, phone, 1)
        fenced = EventLog()
        done = EventLog()
        # The fence (raw write) is enqueued first, so every b-op has a
        # younger op_id than the fence.
        a.write_raw(text_message("guard"), on_written=lambda _r: fenced.append(1))
        for index in range(4):
            b.write(
                f"b{index}", coalesce=False, on_written=lambda _r: done.append(1)
            )
        scenario.put(b_tag, phone)  # only B enters
        assert done.wait_for_count(4)
        assert len(fenced) == 0  # A's fence is still pending
        scenario.put(a_tag, phone)
        assert fenced.wait_for_count(1)

    def test_fence_on_copresent_tag_fences_only_its_own_tag(
        self, scenario, phone, activity
    ):
        """Both tags present: A's fence orders A's queue; B's younger
        writes settle without waiting for it and vice versa."""
        a_tag, b_tag = text_tag("a"), text_tag("b")
        (a,) = co_located_refs(activity, a_tag, phone, 1)
        (b,) = co_located_refs(activity, b_tag, phone, 1)
        order = EventLog()
        a.write("a-before", on_written=lambda _r: order.append("a-before"))
        a.write_raw(text_message("guard"), on_written=lambda _r: order.append("a-fence"))
        a.write("a-after", on_written=lambda _r: order.append("a-after"))
        b.write("b0", on_written=lambda _r: order.append("b0"))
        scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
        assert order.wait_for_count(4)
        events = order.snapshot()
        # A's internal fence order is intact...
        assert [e for e in events if e.startswith("a")] == [
            "a-before",
            "a-fence",
            "a-after",
        ]
        # ...and B settled (a per-port fence would have ordered b0 last
        # only; the real assertion is that everything completed).
        assert "b0" in events


class TestCrossTagTearIsolation:
    def test_tear_mid_quantum_settles_only_that_tags_partial_batch(
        self, scenario, activity
    ):
        """A tear during one tag's quantum splits *that* batch; the
        co-present tag's operations still settle exactly once each."""
        phone = scenario.add_phone(
            "tear-phone", link=ScriptedLink([True, False], default=True)
        )
        app = scenario.start(phone, PlainNfcActivity)
        a_tag, b_tag = text_tag("a"), text_tag("b")
        a_refs = co_located_refs(app, a_tag, phone, 3)
        b_refs = co_located_refs(app, b_tag, phone, 3)
        done = EventLog()
        for ref in a_refs + b_refs:
            ref.write("v", on_written=lambda _r: done.append(1))
        connects_before = phone.port.connects
        scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
        assert done.wait_for_count(6)
        # Exactly-once settlement per reference on both tags.
        for ref in a_refs + b_refs:
            assert ref.successes == 1
        # The tear cost at least one reconnect beyond the per-tag visits.
        assert phone.port.connects - connects_before >= 3


class TestServiceTelemetry:
    def test_snapshot_reports_per_tag_service(self, scenario, phone, activity):
        a_tag, b_tag = text_tag("a"), text_tag("b")
        (a,) = co_located_refs(activity, a_tag, phone, 1)
        (b,) = co_located_refs(activity, b_tag, phone, 1)
        done = EventLog()
        for index in range(3):
            a.write(f"a{index}", coalesce=False, on_written=lambda _r: done.append(1))
        b.write("b0", on_written=lambda _r: done.append(1))
        scenario.env.move_tags_into_field([a_tag, b_tag], phone.port)
        assert done.wait_for_count(4)
        snapshot = phone.tx_scheduler.stats_snapshot()
        assert snapshot["policy"] == "round_robin"
        assert snapshot["batched_ops"] == 4
        a_stats = snapshot["tags"][a_tag.uid_hex]
        b_stats = snapshot["tags"][b_tag.uid_hex]
        assert a_stats["ops"] == 3
        assert b_stats["ops"] == 1
        assert a_stats["quanta"] >= 1
        assert a_stats["bytes_moved"] > 0
        assert a_stats["time_to_first_service"] >= 0.0
        assert b_stats["time_to_first_service"] >= 0.0

    def test_unregister_retires_stats_and_discards_ready_key(
        self, scenario, phone, activity
    ):
        """Satellite: the last co-located reference's departure must
        remove the tag's runnable key and fold its telemetry into the
        retired aggregate (no leak under crowd churn)."""
        tag = text_tag("leaver")
        (ref,) = co_located_refs(activity, tag, phone, 1)
        done = EventLog()
        ref.write("bye", on_written=lambda _r: done.append(1))
        scenario.put(tag, phone)
        assert done.wait_for_count(1)
        scheduler = phone.tx_scheduler
        # Force a stale runnable key, then unregister the last ref.
        scheduler._ready.mark(tag)
        ref.stop()
        assert scheduler.references_for(tag) == []
        assert [key for key, _ in scheduler._ready.snapshot()] == []
        snapshot = scheduler.stats_snapshot()
        assert tag.uid_hex not in snapshot["tags"]
        assert snapshot["retired"]["tags"] == 1
        assert snapshot["retired"]["ops"] == 1

    def test_starvation_tick_when_backlog_exists_but_nothing_settles(
        self, scenario, activity
    ):
        """A visit that finds pending-but-unserviceable work (all heads
        backed off after a tear) counts a starvation tick."""
        phone = scenario.add_phone(
            "starve-phone", link=ScriptedLink([False], default=True)
        )
        app = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("starved")
        (ref,) = co_located_refs(app, tag, phone, 1)
        done = EventLog()
        ref.write("w", on_written=lambda _r: done.append(1))
        scenario.put(tag, phone)
        assert done.wait_for_count(1)
        snapshot = phone.tx_scheduler.stats_snapshot()
        assert snapshot["tags"][tag.uid_hex]["starvation_ticks"] >= 1


class TestCustomPolicy:
    def test_user_defined_policy_object_is_honoured(
        self, scenario, activity
    ):
        """The policy seam is open: a custom CrossTagPolicy instance
        plugs in through the device's ``tx_policy``."""

        class OneOpQuantum(CrossTagPolicy):
            name = "one-op"

            def __init__(self):
                self.visits = 0

            def begin_visit(self, tag):
                self.visits += 1
                return 1.0

        policy = OneOpQuantum()
        phone = scenario.add_phone("custom-phone", tx_policy=policy)
        app = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("custom")
        (ref,) = co_located_refs(app, tag, phone, 1)
        done = EventLog()
        for index in range(4):
            ref.write(f"v{index}", coalesce=False, on_written=lambda _r: done.append(1))
        scenario.put(tag, phone)
        assert done.wait_for_count(4)
        assert phone.tx_scheduler.policy is policy
        assert policy.visits >= 4  # one-op budgets renew per op when alone
