"""Cross-tag fair scheduling: policies, quanta, fences, tears, telemetry.

With several tags co-present in one field, the transaction scheduler
shares the radio under a pluggable policy. These tests pin the policy
mechanics (deficit credit/debit, quantum renewal when alone), the
isolation guarantees (fences and tears are strictly per tag), and the
per-tag service telemetry.
"""

import math

import pytest

from repro.concurrent import EventLog, wait_until
from repro.core.reference import TagReference
from repro.android.nfc.tech import Tag
from repro.errors import MorenaError
from repro.radio.link import ScriptedLink
from repro.radio.txscheduler import (
    POLICIES,
    CrossTagPolicy,
    DeficitPolicy,
    RoundRobinPolicy,
    _op_cost,
    make_policy,
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


class TestPolicyRegistry:
    def test_default_is_deficit(self):
        assert isinstance(make_policy(None), DeficitPolicy)

    def test_names_resolve(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(make_policy("deficit"), DeficitPolicy)
        assert set(POLICIES) == {"round_robin", "deficit"}

    def test_instances_pass_through(self):
        policy = RoundRobinPolicy(quantum_ops=3)
        assert make_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(MorenaError, match="unknown cross-tag"):
            make_policy("fifo")

    def test_invalid_quanta_rejected(self):
        with pytest.raises(MorenaError):
            RoundRobinPolicy(quantum_ops=0)
        with pytest.raises(MorenaError):
            DeficitPolicy(credit_ops=-1)


class TestPolicyMechanics:
    def test_op_cost_scales_with_bytes(self):
        assert _op_cost(0) == 1.0
        assert _op_cost(256) == 2.0
        assert _op_cost(-5) == 1.0  # defensive: unknown sizes cost base

    def test_drain_budget_is_unbounded(self):
        policy = SequentialDrainPolicy()
        assert policy.begin_visit("tag", depth=10_000) == math.inf
        assert not policy.rotates

    def test_round_robin_budget_ignores_depth(self):
        policy = RoundRobinPolicy(quantum_ops=4)
        assert policy.begin_visit("tag", depth=1) == 4.0
        assert policy.begin_visit("tag", depth=1_000) == 4.0
        assert policy.rotates

    def test_deficit_credits_by_depth_sublinearly(self):
        policy = DeficitPolicy(credit_ops=6.0)
        shallow = policy.begin_visit("a", depth=1)
        deep = policy.begin_visit("b", depth=64)
        # Deeper backlog earns a strictly larger but *bounded* quantum:
        # the hot tag can never monopolize a round.
        assert shallow < deep
        assert deep <= shallow * 1.5
        # The depth weight saturates at the cap.
        assert policy.begin_visit("c", depth=10_000) == pytest.approx(deep)

    def test_deficit_carries_over_and_is_capped(self):
        policy = DeficitPolicy(credit_ops=6.0, carry_rounds=2.0)
        first = policy.begin_visit("a", depth=0)
        # Nothing consumed: the next visit carries the unused credit.
        second = policy.begin_visit("a", depth=0)
        assert second > first
        # But never beyond carry_rounds of the max per-visit credit.
        for _ in range(50):
            budget = policy.begin_visit("a", depth=0)
        cap = policy.credit_ops * policy.weight(policy.depth_cap)
        assert budget <= cap * policy.carry_rounds + 1e-9

    def test_deficit_debits_and_resets(self):
        policy = DeficitPolicy(credit_ops=6.0)
        policy.begin_visit("a", depth=0)
        policy.consumed("a", 4.0)
        assert policy._deficit["a"] == pytest.approx(2.0)
        policy.reset("a")
        assert "a" not in policy._deficit


class TestPolicySelection:
    def test_device_policy_kwarg_reaches_the_scheduler(self, scenario):
        phone = scenario.add_phone("rr-phone", tx_policy="round_robin")
        assert phone.tx_scheduler.policy.name == "round_robin"

    def test_scenario_default_is_deficit(self, phone):
        assert phone.tx_scheduler.policy.name == "deficit"

    def test_set_policy_swaps_at_runtime(self, phone):
        scheduler = phone.tx_scheduler
        scheduler.set_policy("round_robin")
        assert scheduler.policy.name == "round_robin"
        with pytest.raises(MorenaError):
            scheduler.set_policy("nope")
        assert scheduler.policy.name == "round_robin"


class TestCrossTagInterleaving:
    def test_deficit_serves_cold_tag_before_hot_backlog_drains(self):
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
            # The cold write landed within the first deficit quantum's
            # reach, far before the hot backlog drained.
            assert events.index("c0") < events.index("h23")
            assert events.index("c0") <= 16

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
        """Two backlogged tags under deficit: visits alternate, each
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
            for index in range(6):  # 24 ops >> deficit credit of ~6
                ref.write(
                    f"v{index}", coalesce=False, on_written=lambda _r: done.append(1)
                )
        connects_before = phone.port.connects
        scenario.put(tag, phone)
        assert done.wait_for_count(24)
        assert phone.port.connects - connects_before == 1
        assert phone.tx_scheduler.preemptions == 0


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
        assert snapshot["policy"] == "deficit"
        assert snapshot["batched_ops"] == 4
        a_stats = snapshot["tags"][a_tag.uid_hex]
        b_stats = snapshot["tags"][b_tag.uid_hex]
        assert a_stats["ops"] == 3
        assert b_stats["ops"] == 1
        assert a_stats["quanta"] >= 1
        assert a_stats["bytes_moved"] > 0
        assert a_stats["depth_high_water"] >= 1
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
        """The policy API is open: a custom CrossTagPolicy instance
        plugs in through the same kwarg as the named ones."""

        class OneOpQuantum(CrossTagPolicy):
            name = "one-op"

            def __init__(self):
                self.visits = 0

            def begin_visit(self, tag, depth):
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
