"""Tests of :class:`OperationQueue`: one example per queue rule, then a
stateful model check against a plain list.

The examples pin each rule on a handful of operations. In the model
check, Hypothesis drives random sequences of pushes (every operation kind,
coalescible and merge-keyed writes included), cancels, clock advances
with expiry, polls, head attempts that settle as success, transient or
permanent failure, and drains -- with an explicit ``now``, no threads and
no radio. The model is a flat FIFO list of the pending operations plus,
per operation, the token of the coalesced chain it belongs to: a chain
is the run of model entries sharing a token, and its newest entry is the
survivor the queue attempts. After every rule the queue must agree with
the model on the pending operations and their order, the head, the first
fence and the deadline bound, and every operation must have settled at
most once (exactly once, once it left the queue).
"""

import itertools
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.operations import Operation, OperationKind, OperationQueue

READ, WRITE = OperationKind.READ, OperationKind.WRITE

# (kind, coalescible, raw, merge_key)
PUSHES = [
    (WRITE, True, False, None),  # Thing.save_async-style write
    (WRITE, False, False, None),  # plain write
    (WRITE, False, True, None),  # raw write (guarded data, release)
    (WRITE, False, True, "k1"),  # raw write with a merge key (renewal)
    (WRITE, False, True, "k2"),
    (READ, False, False, None),
    (READ, False, True, None),
    (OperationKind.FORMAT, False, False, None),
    (OperationKind.LOCK, False, False, None),
]


def _noop(*_args) -> None:
    pass


def make_op(kind=WRITE, deadline=10.0, **kwargs) -> Operation:
    return Operation(
        kind=kind, deadline=deadline, on_success=_noop, on_failure=_noop, **kwargs
    )


def coalescible_write(deadline=10.0) -> Operation:
    return make_op(deadline=deadline, coalescible=True)


def queue_of(*operations) -> OperationQueue:
    queue = OperationQueue()
    for operation in operations:
        queue.push(operation)
    return queue


class TestQueueRules:
    def test_empty_queue(self):
        queue = OperationQueue()
        assert len(queue) == 0 and list(queue) == []
        assert queue.head is None and queue.head_id is None
        assert queue.fence_id is None
        assert queue.deadline_bound == math.inf
        assert queue.expire(1e9) == [] and queue.drain() == []

    def test_operations_leave_in_fifo_order(self):
        first, second, third = make_op(), make_op(), make_op()
        queue = queue_of(first, second, third)
        assert list(queue) == [first, second, third] and len(queue) == 3
        assert queue.settle(first, True) == [first]
        assert queue.head is second and queue.head_id == second.op_id

    def test_coalescible_write_supersedes_coalescible_tail(self):
        older, newer = coalescible_write(), coalescible_write()
        queue = OperationQueue()
        assert queue.push(older) is False
        assert queue.push(newer) is True
        assert queue.head is newer and not newer.merged
        assert list(queue) == [older, newer] and len(queue) == 2
        assert queue.head_id == older.op_id  # the chain's oldest write

    def test_plain_write_neither_coalesces_nor_is_coalesced(self):
        before, plain, after = coalescible_write(), make_op(), coalescible_write()
        queue = queue_of(before, plain, after)
        assert queue.head is before
        assert list(queue) == [before, plain, after]
        assert all(op.superseded is None for op in (before, plain, after))

    def test_survivors_lists_physical_operations_up_to_a_limit(self):
        older, newer = coalescible_write(), coalescible_write()
        read, last = make_op(READ), make_op()
        queue = queue_of(older, newer, read, last)
        assert queue.survivors(2) == [newer, read]  # the chain is one write
        assert queue.survivors(10) == [newer, read, last]
        assert OperationQueue().survivors(3) == []

    def test_fence_stops_coalescing(self):
        older, read, newer = coalescible_write(), make_op(READ), coalescible_write()
        queue = queue_of(older, read)
        assert queue.push(newer) is False
        assert queue.head is older and list(queue) == [older, read, newer]
        assert queue.fence_id == read.op_id

    def test_in_flight_tail_is_not_superseded(self):
        attempting, newer = coalescible_write(), coalescible_write()
        queue = queue_of(attempting)
        attempting.in_flight = True
        assert queue.push(newer) is False
        assert queue.head is attempting and list(queue) == [attempting, newer]

    def test_same_merge_key_raw_writes_collapse_to_the_newest(self):
        older = make_op(raw=True, merge_key="lease")
        newer = make_op(raw=True, merge_key="lease")
        other = make_op(raw=True, merge_key="other")
        queue = queue_of(older)
        assert queue.push(newer) is True and newer.merged
        assert queue.push(other) is False and not other.merged
        assert queue.head is newer and list(queue) == [older, newer, other]
        assert queue.fence_id == older.op_id  # a merged chain is one fence

    def test_merge_key_needs_a_raw_tail(self):
        converted = coalescible_write()
        keyed = make_op(raw=True, merge_key="lease")
        queue = queue_of(converted)
        assert queue.push(keyed) is False and not keyed.merged
        assert queue.push(make_op(raw=True)) is False  # keyless: a fence

    def test_landed_survivor_settles_its_chain_first(self):
        writes = [coalescible_write() for _ in range(3)]
        for index, write in enumerate(writes):
            write.payload = f"state {index}"
        queue = queue_of(*writes)
        assert queue.head.payload == "state 2"  # the chain lands the newest
        assert queue.settle(writes[-1], True) == writes
        assert len(queue) == 0 and queue.head is None
        assert writes[-1].superseded is None

    def test_permanent_failure_settles_the_whole_chain(self):
        writes = [coalescible_write() for _ in range(3)]
        queue = queue_of(*writes, make_op(READ))
        assert queue.settle(writes[-1], False) == writes
        assert len(queue) == 1 and queue.head.kind is READ

    def test_successful_read_settles_the_reads_behind_it(self):
        reads = [make_op(READ) for _ in range(3)]
        write, late_read = make_op(), make_op(READ)
        queue = queue_of(*reads, write, late_read)
        assert queue.settle(reads[0], True) == reads
        assert queue.head is write  # a write fences the dedup
        assert list(queue) == [write, late_read]

    def test_read_dedup_keeps_raw_and_converted_reads_apart(self):
        converted, raw = make_op(READ), make_op(READ, raw=True)
        queue = queue_of(converted, raw)
        assert queue.settle(converted, True) == [converted]
        assert queue.head is raw

    def test_failed_read_settles_alone(self):
        first, second = make_op(READ), make_op(READ)
        queue = queue_of(first, second)
        assert queue.settle(first, False) == [first]
        assert queue.head is second

    def test_cancelled_survivor_revives_the_newest_superseded_write(self):
        oldest, middle, newest = (coalescible_write() for _ in range(3))
        queue = queue_of(oldest, middle, newest)
        assert queue.cancel(newest) is True
        assert queue.head is middle and middle.superseded == [oldest]
        assert newest.superseded is None
        assert list(queue) == [oldest, middle] and len(queue) == 2
        assert queue.settle(middle, True) == [oldest, middle]

    def test_cancelled_superseded_write_leaves_its_survivor_queued(self):
        oldest, middle, newest = (coalescible_write() for _ in range(3))
        queue = queue_of(oldest, middle, newest)
        assert queue.cancel(oldest) is True
        assert queue.head is newest and list(queue) == [middle, newest]
        assert queue.head_id == middle.op_id and len(queue) == 2

    def test_cancel_of_an_operation_not_queued_returns_false(self):
        queued = make_op()
        queue = queue_of(queued)
        assert queue.cancel(make_op()) is False
        queue.settle(queued, True)
        assert queue.cancel(queued) is False

    def test_superseded_write_times_out_at_its_own_deadline(self):
        older, newer = coalescible_write(deadline=1.0), coalescible_write(deadline=5.0)
        queue = queue_of(older, newer)
        assert queue.expire(0.5) == []
        assert queue.expire(1.0) == [older]
        assert queue.head is newer and list(queue) == [newer]
        assert queue.deadline_bound == 5.0

    def test_expired_survivor_revives_its_chain(self):
        older, newer = coalescible_write(deadline=5.0), coalescible_write(deadline=1.0)
        queue = queue_of(older, newer)
        assert queue.expire(1.0) == [newer]
        assert queue.head is older and older.superseded is None
        assert list(queue) == [older] and queue.deadline_bound == 5.0

    def test_attempt_in_flight_and_its_chain_never_expire(self):
        older, newer = coalescible_write(deadline=1.0), coalescible_write(deadline=1.0)
        queue = queue_of(older, newer)
        newer.in_flight = True
        assert queue.expire(2.0) == []
        assert list(queue) == [older, newer]
        newer.in_flight = False
        assert queue.expire(2.0) == [older, newer]
        assert len(queue) == 0

    def test_deadline_bound_is_the_earliest_deadline_after_expiry(self):
        late, early = make_op(deadline=3.0), make_op(deadline=1.0)
        queue = queue_of(late, early)
        assert queue.deadline_bound == 1.0
        assert queue.expire(0.5) == [] and queue.deadline_bound == 1.0
        assert queue.expire(1.0) == [early] and queue.deadline_bound == 3.0
        queue.settle(late, True)
        assert queue.deadline_bound == math.inf  # an empty queue keeps no bound

    def test_fence_id_moves_to_the_next_fence(self):
        write, read, later_write, lock = (
            make_op(),
            make_op(READ),
            make_op(),
            make_op(OperationKind.LOCK),
        )
        queue = queue_of(write, read, later_write, lock)
        assert queue.fence_id == read.op_id
        queue.settle(write, True)
        assert queue.fence_id == read.op_id
        queue.settle(read, True)
        assert queue.fence_id == lock.op_id
        assert queue.cancel(lock) is True
        assert queue.fence_id is None

    def test_fence_id_moves_on_when_a_fence_expires(self):
        early, late = make_op(READ, deadline=1.0), make_op(READ, deadline=5.0)
        queue = queue_of(early, late)
        assert queue.expire(1.0) == [early]
        assert queue.fence_id == late.op_id and queue.head is late

    def test_revived_fence_keeps_the_chain_fence_id(self):
        older = make_op(raw=True, merge_key="lease")
        newer = make_op(raw=True, merge_key="lease")
        queue = queue_of(older, newer)
        assert queue.cancel(newer) is True
        assert queue.fence_id == older.op_id and queue.head is older
        assert queue.cancel(older) is True
        assert queue.fence_id is None and len(queue) == 0

    def test_head_cancelled_mid_attempt_settles_alone(self):
        attempting, behind = make_op(), make_op()
        queue = queue_of(attempting, behind)
        attempting.in_flight = True
        assert queue.cancel(attempting) is True
        assert queue.settle(attempting, True) == [attempting]
        assert queue.head is behind and len(queue) == 1

    def test_drain_returns_everything_in_fifo_order_and_resets(self):
        older, newer = coalescible_write(deadline=1.0), coalescible_write()
        read, plain = make_op(READ), make_op()
        queue = queue_of(older, newer, read, plain)
        assert queue.drain() == [older, newer, read, plain]
        assert newer.superseded is None
        assert len(queue) == 0 and queue.head is None and queue.fence_id is None
        assert queue.deadline_bound == math.inf
        fresh = coalescible_write()
        assert queue.push(fresh) is False and queue.head is fresh


class QueueMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.queue = OperationQueue()
        self.now = 0.0
        self.model = []  # pending operations, FIFO
        self.chain = {}  # op_id -> chain token
        self.payload = {}  # op_id -> payload given at push time
        self.pushed = []
        self.done = {}  # op_id -> "cancelled" | "timed_out" | "settled"
        self.attempting = None  # the head whose attempt is in flight
        self.tokens = itertools.count()

    # -- helpers -------------------------------------------------------------

    def expected_head(self):
        """The survivor of the model's first chain: its newest entry."""
        token = self.chain[self.model[0].op_id]
        head = self.model[0]
        for operation in self.model:
            if self.chain[operation.op_id] != token:
                break
            head = operation
        return head

    def is_pending(self, operation) -> bool:
        return any(op is operation for op in self.model)

    def in_flight_chain(self):
        """Chain token the queue must leave alone during an attempt."""
        if self.attempting is not None and self.is_pending(self.attempting):
            return self.chain[self.attempting.op_id]
        return None

    def finish(self, operations, how: str) -> None:
        for operation in operations:
            assert operation.op_id not in self.done, f"{operation} settled twice"
            self.done[operation.op_id] = how

    # -- rules ---------------------------------------------------------------

    @rule(
        spec=st.sampled_from(PUSHES),
        timeouts=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 5.0]), min_size=1, max_size=4
        ),
    )
    def push(self, spec, timeouts) -> None:
        """Push a burst of one kind, so chains and dedup runs are common."""
        for timeout in timeouts:
            self.push_one(spec, timeout)

    def push_one(self, spec, timeout) -> None:
        kind, coalescible, raw, merge_key = spec
        operation = Operation(
            kind=kind,
            deadline=self.now + timeout,
            on_success=_noop,
            on_failure=_noop,
            raw=raw,
            coalescible=coalescible,
            merge_key=merge_key,
        )
        if kind is WRITE:
            operation.payload = ("payload", operation.op_id)
            self.payload[operation.op_id] = operation.payload
        tail = self.model[-1] if self.model else None
        absorbs = (
            tail is not None
            and tail.kind is WRITE
            and not tail.in_flight
            and (
                (coalescible and tail.coalescible)
                or (
                    merge_key is not None
                    and tail.raw
                    and tail.merge_key == merge_key
                )
            )
        )
        assert self.queue.push(operation) == absorbs
        assert operation.merged == (absorbs and merge_key is not None)
        token = self.chain[tail.op_id] if absorbs else next(self.tokens)
        self.chain[operation.op_id] = token
        self.model.append(operation)
        self.pushed.append(operation)

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0, max_value=1_000))
    def cancel(self, index) -> None:
        """Cancel any pending operation: survivor, superseded or in flight."""
        operation = self.model[index % len(self.model)]
        assert self.queue.cancel(operation) is True
        self.model.remove(operation)
        self.finish([operation], "cancelled")

    @precondition(lambda self: self.done)
    @rule(index=st.integers(min_value=0, max_value=1_000))
    def cancel_settled(self, index) -> None:
        settled = [op for op in self.pushed if op.op_id in self.done]
        assert self.queue.cancel(settled[index % len(settled)]) is False

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))
    def advance_and_expire(self, dt) -> None:
        self.now += dt
        self.expire()

    @rule()
    def poll(self) -> None:
        """What a scheduler poll does: expire at the current time."""
        self.expire()

    def expire(self) -> None:
        busy = self.in_flight_chain()
        due = [
            op
            for op in self.model
            if op.deadline <= self.now and self.chain[op.op_id] != busy
        ]
        expired = self.queue.expire(self.now)
        assert expired == due and all(a is b for a, b in zip(expired, due))
        for operation in due:
            self.model.remove(operation)
        self.finish(due, "timed_out")
        # Every write times out at its own deadline, superseded or not.
        for operation in self.model:
            if self.chain[operation.op_id] != busy:
                assert operation.deadline > self.now

    @precondition(lambda self: self.model and self.attempting is None)
    @rule()
    def start_attempt(self) -> None:
        head = self.queue.head
        assert head is self.expected_head()
        if head.kind is WRITE:
            # A coalesced chain lands the newest payload.
            assert head.payload == self.payload[head.op_id]
        head.in_flight = True
        self.attempting = head

    @precondition(lambda self: self.attempting is not None)
    @rule(outcome=st.sampled_from(["success", "transient", "permanent"]))
    def finish_attempt(self, outcome) -> None:
        head, self.attempting = self.attempting, None
        head.in_flight = False
        if outcome == "transient":
            return  # the head stays queued and is retried
        succeeded = outcome == "success"
        if self.is_pending(head):
            token = self.chain[head.op_id]
            expected = []
            while self.model and self.chain[self.model[0].op_id] == token:
                expected.append(self.model.pop(0))
            assert expected[-1] is head
        else:
            expected = [head]  # cancelled mid-attempt: settles alone
        if succeeded and head.kind is READ:
            while (
                self.model
                and self.model[0].kind is READ
                and self.model[0].raw == head.raw
            ):
                expected.append(self.model.pop(0))
        settled = self.queue.settle(head, succeeded)
        assert len(settled) == len(expected)
        assert all(a is b for a, b in zip(settled, expected))
        if succeeded and head.kind is WRITE:
            writes = [op for op in settled if op.kind is WRITE]
            newest = max(writes, key=lambda op: op.op_id)
            assert newest is head and head.payload == self.payload[head.op_id]
        # The owner ignores an operation it already cancelled.
        self.finish(
            [op for op in settled if self.done.get(op.op_id) != "cancelled"], outcome
        )

    @rule()
    def drain(self) -> None:
        drained = self.queue.drain()
        assert len(drained) == len(self.model)
        assert all(a is b for a, b in zip(drained, self.model))
        self.finish(drained, "cancelled")
        self.model = []

    # -- invariants ----------------------------------------------------------

    @invariant()
    def pending_match_the_model_in_fifo_order(self) -> None:
        pending = list(self.queue)
        assert len(pending) == len(self.queue) == len(self.model)
        assert all(a is b for a, b in zip(pending, self.model))

    @invariant()
    def every_operation_settles_exactly_once(self) -> None:
        pending = {op.op_id for op in self.model}
        assert not pending & self.done.keys()
        assert len(pending) + len(self.done) == len(self.pushed)

    @invariant()
    def head_and_first_fence_match_the_model(self) -> None:
        if not self.model:
            assert self.queue.head is None and self.queue.head_id is None
            assert self.queue.fence_id is None
            return
        assert self.queue.head is self.expected_head()
        assert self.queue.head_id == self.model[0].op_id
        fences = [op.op_id for op in self.model if op.is_batch_fence]
        assert self.queue.fence_id == (fences[0] if fences else None)

    @invariant()
    def deadline_bound_is_never_late(self) -> None:
        if self.model:
            assert self.queue.deadline_bound <= min(op.deadline for op in self.model)


TestOperationQueueModel = QueueMachine.TestCase
TestOperationQueueModel.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None
)
