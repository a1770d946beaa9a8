"""Queued asynchronous operations.

Each ``read`` / ``write`` / ``make_read_only`` call on a tag reference
enqueues one :class:`Operation`: the decoupling-in-time data structure
that lets the *logical* act of information sending proceed while the
*physical* act waits for the tag to be back in range (paper section 1.2,
"first-class references to remote objects"). The pending operations of
one reference (or one :class:`~repro.core.beam.Beamer`) live in an
:class:`OperationQueue`, which holds the queue rules.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

_op_ids = itertools.count(1)
_op_ids_lock = threading.Lock()


def _next_op_id() -> int:
    with _op_ids_lock:
        return next(_op_ids)


class OperationKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    LOCK = "lock"
    FORMAT = "format"


class OperationOutcome(enum.Enum):
    PENDING = "pending"
    SUCCEEDED = "succeeded"
    TIMED_OUT = "timed_out"
    FAILED = "failed"  # permanent error (capacity, read-only, converter)
    CANCELLED = "cancelled"  # reference stopped


# slots=True: a parked operation is pure idle state (100k references can
# each hold one for minutes), so the per-instance dict is pure overhead.
@dataclass(slots=True)
class Operation:
    """One queued asynchronous tag operation."""

    kind: OperationKind
    deadline: float
    on_success: Callable[..., None]
    on_failure: Callable[..., None]
    payload: Any = None  # converted NdefMessage for writes; None otherwise
    original_object: Any = None  # pre-conversion application object
    op_id: int = field(default_factory=_next_op_id)
    enqueued_at: float = 0.0
    attempts: int = 0
    raw: bool = False  # skip converters; maintain only the message cache
    outcome: OperationOutcome = OperationOutcome.PENDING
    error: Optional[BaseException] = None
    # Write coalescing (see OperationQueue): a coalescible write at the
    # queue tail may be superseded by a newer coalescible write. The
    # survivor carries the superseded operations (oldest first, None
    # when there are none) and settles them when it lands.
    coalescible: bool = False
    in_flight: bool = False  # a radio attempt is executing right now
    superseded: Optional[List["Operation"]] = None
    # Protocol merge hook (raw writes only, see TagReference.write_raw):
    # two tail-adjacent unsent raw writes carrying the same merge_key
    # collapse to the newest (the protocol's latest-record-wins rule,
    # e.g. a lease renewal's latest expiry). ``merged`` records that
    # this operation absorbed its predecessor on enqueue.
    merge_key: Optional[str] = None
    merged: bool = False
    # Deferred payload: evaluated per radio attempt instead of at
    # enqueue time, so a protocol write transmits the record built from
    # the *latest* cached tag state (every earlier queued operation has
    # settled and refreshed the cache by the time this one is tried).
    payload_factory: Optional[Callable[[], Any]] = None

    @property
    def is_settled(self) -> bool:
        return self.outcome is not OperationOutcome.PENDING

    @property
    def is_batch_fence(self) -> bool:
        """Whether this operation fences a batched tap window.

        Inside one batched session the per-port transaction scheduler
        interleaves the *ready* head operations of every reference bound
        to the tag, ordered by global enqueue order (``op_id``). Plain
        converted writes tolerate best-effort interleaving (exactly the
        freedom the unbatched path always had); everything that observes
        or guards tag state does not. A fence — any read, any raw write
        (lease-guarded writes, renewals, releases), a lock, a format —
        executes only once every earlier-enqueued operation of *every*
        co-located reference has settled, and no later-enqueued
        operation of another reference may overtake it.
        """
        if self.kind is not OperationKind.WRITE:
            return True
        return self.raw

    def __repr__(self) -> str:
        return (
            f"Operation(#{self.op_id} {self.kind.value}, attempts={self.attempts}, "
            f"outcome={self.outcome.value})"
        )


def _chain_id(survivor: Operation) -> int:
    """The oldest ``op_id`` a survivor settles: its first superseded
    write's, or its own."""
    chain = survivor.superseded
    return chain[0].op_id if chain else survivor.op_id


class OperationQueue:
    """The pending operations of one tag reference or Beamer, and their rules.

    A plain data structure: no lock, no clock and no looper. Methods that
    need the time take ``now``; methods that remove operations return
    them, in FIFO order, for the owner to settle under its own lock.

    * **FIFO.** :attr:`head` is the oldest pending operation (or the
      survivor of the oldest coalesced chain); nothing is attempted before
      every earlier operation has settled or timed out.
    * **Tail coalescing.** A coalescible write pushed behind a coalescible
      write that is not in flight supersedes it: one physical write lands
      the newest payload, and the superseded writes settle with it, before
      it, in FIFO order. Only *adjacent* writes merge: a queued read,
      format, lock or raw write is a fence, so a read still observes the
      write queued before it.
    * **``merge_key`` merges.** A raw write supersedes a raw write with
      the same merge key at the tail the same way, and is marked
      ``merged``: a protocol's latest-record-wins rule, e.g. a lease
      renewal's expiry. Any other operation is a fence.
    * **Per-operation deadlines.** A superseded write keeps its own
      deadline and times out alone. An attempt in flight (and its chain)
      never expires; its settlement decides.
    * **Revival.** A survivor that leaves without landing -- cancelled or
      timed out -- leaves its chain pending: the newest superseded write
      takes its place. :meth:`cancel` and :meth:`expire` share this one
      path (:meth:`_unlink`).
    * **Read dedup.** A successful read also settles the reads of the same
      rawness queued directly behind it; a write in between is a fence.

    ``len`` and :attr:`head_id` (the smallest pending ``op_id``) cost
    constant work, and so does :attr:`fence_id` (the smallest pending
    fence's, see :attr:`Operation.is_batch_fence`) but for one scan to the
    next fence after the first one leaves; the per-port transaction
    scheduler orders co-located references by them. :attr:`deadline_bound`
    is never later than the earliest pending deadline, so :meth:`expire`
    walks the queue only when an operation may be due, and leaves the
    bound exact when it does.
    """

    # A list, not a deque: an empty deque weighs 760 bytes against a
    # list's 56, and a front pop only shifts pointers.
    __slots__ = ("_entries", "_size", "_fences", "_first_fence", "_deadline_bound")

    def __init__(self) -> None:
        self._entries: List[Operation] = []  # survivors, FIFO
        self._size = 0  # pending operations, superseded writes included
        # Survivors that are fences (a chain is all fences or none), and
        # the first of them; None while ``_fences`` > 0 means "rescan".
        self._fences = 0
        self._first_fence: Optional[Operation] = None
        self._deadline_bound = math.inf

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Operation]:
        """The pending operations in FIFO order; superseded writes come
        before the survivor that will settle them."""
        for survivor in self._entries:
            if survivor.superseded:
                yield from survivor.superseded
            yield survivor

    @property
    def head(self) -> Optional[Operation]:
        """The operation to attempt next, or None when empty."""
        return self._entries[0] if self._entries else None

    @property
    def head_id(self) -> Optional[int]:
        """The smallest pending ``op_id``, superseded writes included."""
        return _chain_id(self._entries[0]) if self._entries else None

    @property
    def fence_id(self) -> Optional[int]:
        """The smallest pending fence ``op_id``, or None without fences.

        The first fence in queue order carries it: ``op_id`` grows along
        the queue, and a superseded write is newer than everything queued
        ahead of its survivor.
        """
        if not self._fences:
            return None
        first = self._first_fence
        if first is None:
            first = next(op for op in self._entries if op.is_batch_fence)
            self._first_fence = first
        return _chain_id(first)

    @property
    def deadline_bound(self) -> float:
        """A time no later than the earliest pending deadline."""
        return self._deadline_bound

    def survivors(self, limit: int) -> List[Operation]:
        """The first ``limit`` survivors, oldest first: the physical
        operations next in line (a coalesced chain is one write)."""
        return self._entries[:limit]

    def push(self, operation: Operation) -> bool:
        """Queue ``operation``; returns whether it superseded the tail."""
        entries = self._entries
        tail = entries[-1] if entries else None
        absorbs = (
            tail is not None
            and tail.kind is OperationKind.WRITE
            and not tail.in_flight
            and (
                (operation.coalescible and tail.coalescible)
                or (
                    operation.merge_key is not None
                    and tail.raw
                    and tail.merge_key == operation.merge_key
                )
            )
        )
        if absorbs:
            chain = tail.superseded or []
            tail.superseded = None
            chain.append(tail)
            operation.superseded = chain
            operation.merged = operation.merge_key is not None
            entries[-1] = operation
            if self._first_fence is tail:
                self._first_fence = operation
        else:
            entries.append(operation)
            if operation.is_batch_fence:
                self._fences += 1
                if self._fences == 1:
                    self._first_fence = operation
        self._size += 1
        if operation.deadline < self._deadline_bound:
            self._deadline_bound = operation.deadline
        return absorbs

    def cancel(self, operation: Operation) -> bool:
        """Remove ``operation`` unsettled; returns whether it was pending.

        Cancelling a survivor cancels that one write: its newest
        superseded write is revived in its place.
        """
        for index, survivor in enumerate(self._entries):
            if survivor is operation:
                self._unlink(index)
                return True
            chain = survivor.superseded
            if chain and any(shadow is operation for shadow in chain):
                survivor.superseded = [
                    shadow for shadow in chain if shadow is not operation
                ] or None
                self._size -= 1
                return True
        return False

    def expire(self, now: float) -> List[Operation]:
        """Remove and return every operation whose deadline is ``now`` or
        earlier, in queue order (a chain's due writes before its
        survivor). A due survivor's chain is revived through
        :meth:`_unlink`."""
        if now < self._deadline_bound:
            return []
        expired: List[Operation] = []
        bound = math.inf
        entries = self._entries
        index = 0
        while index < len(entries):
            survivor = entries[index]
            if not survivor.in_flight:
                chain = survivor.superseded or ()
                due = [shadow for shadow in chain if shadow.deadline <= now]
                if due:
                    survivor.superseded = [s for s in chain if s.deadline > now] or None
                    self._size -= len(due)
                    expired.extend(due)
                if survivor.deadline <= now:
                    expired.append(survivor)
                    survivor = self._unlink(index)
                    if survivor is None:
                        continue  # the next survivor moved up to ``index``
            chain = survivor.superseded or ()
            bound = min(bound, survivor.deadline, *(s.deadline for s in chain))
            index += 1
        self._deadline_bound = bound
        return expired

    def settle(self, head: Operation, succeeded: bool) -> List[Operation]:
        """``head``'s attempt landed, or failed for good: remove it and
        return everything that settles with it, FIFO -- its chain, itself
        and, after a successful read, the deduped reads behind it. A head
        cancelled mid-attempt is no longer queued and settles alone."""
        entries = self._entries
        settled = self._pop_head() if entries and entries[0] is head else [head]
        if succeeded and head.kind is OperationKind.READ:
            while (
                entries
                and entries[0].kind is OperationKind.READ
                and entries[0].raw == head.raw
            ):
                settled.extend(self._pop_head())
        return settled

    def drain(self) -> List[Operation]:
        """Empty the queue; returns every pending operation, FIFO."""
        drained = list(self)
        for survivor in self._entries:
            survivor.superseded = None
        self._entries.clear()
        self._size = self._fences = 0
        self._first_fence = None
        self._deadline_bound = math.inf
        return drained

    def _pop_head(self) -> List[Operation]:
        """Remove the head with its chain; returns them FIFO."""
        head = self._entries[0]
        chain = head.superseded or []
        head.superseded = None
        self._size -= len(chain)
        self._unlink(0)
        chain.append(head)
        return chain

    def _unlink(self, index: int) -> Optional[Operation]:
        """Remove the survivor at ``index`` without settling its chain:
        the one revival path. Returns the newest superseded write, now in
        its place and carrying the rest, or None if there was none."""
        survivor = self._entries[index]
        chain = survivor.superseded
        self._size -= 1
        if chain:
            survivor.superseded = None
            revived = chain.pop()
            revived.superseded = chain or None
            self._entries[index] = revived
            if self._first_fence is survivor:
                self._first_fence = revived
            return revived
        del self._entries[index]
        if not self._entries:
            self._deadline_bound = math.inf  # an empty queue keeps no stale bound
        if survivor.is_batch_fence:
            self._fences -= 1
            if self._first_fence is survivor:
                self._first_fence = None
        return None

