"""The per-port radio transaction scheduler: batch round-trips per tap.

The reactor multiplexes a device's tasks onto one loop, and write
coalescing removes redundant writes *within* one reference. What
neither touches is the physical cost structure: every operation still
pays the full per-round-trip overhead — field activation,
anticollision, select — because references issue ``port.read_ndef`` /
``write_ndef`` one at a time with no knowledge of each other. On real
hardware that connect cost dominates short exchanges, so N references
with one pending write each turn a single tap into N full transactions.

This module is the batching *policy layer* between the reactor and the
port (the distribution-policy/application-logic split RAFDA argues for:
application code and the reference API never see it):

* every device owns one :class:`PortTransactionScheduler` (lazily, see
  ``AndroidDevice.tx_scheduler``); every tag reference registers itself
  keyed by its simulated tag, and all of its radio work runs here. A
  reference owns no reactor task and no port listener: this scheduler
  serves its readiness, its connectivity and its timeouts too. The
  port's field events reach it as one batch listener, which finds a
  tag's references in one dict lookup and passes each its presence.
  Each reference arms its earliest deadline on the scheduler's one
  timeout heap, and every step first times out the references whose
  armed deadline fell due;
* references and field events mark tags runnable on a
  :class:`PortReadyQueue` (a bulk field entry marks its whole cohort
  before the drain wakes); the scheduler runs as a **single serial
  reactor task per port**, so one step serves a whole per-port batch —
  which also matches the physics (one radio, one transaction at a
  time);
* on each tap window the scheduler serves the ready in-field tags
  through :class:`~repro.radio.port.TagSession` windows: one
  connect/anticollision cost per (tag, visit), per-operation data
  latency still charged, and the link model still free to tear any
  individual transfer mid-batch.

**Cross-tag service order is round-robin behind a policy seam** (see
:class:`CrossTagPolicy`). With several tags co-present in one field, the
original whole-tag drain served them strictly one tag at a time, so one
hot tag (a deep backlog) head-of-line blocked its neighbours for the
whole drain. :class:`RoundRobinPolicy`, the one policy shipped, instead
hands each ready tag a **bounded quantum** of six cost units per visit
(an operation costs one unit plus its payload share, ``1 + bytes/256``)
and orders each service round **cheapest visit first**: a tag's visit
cost is the cost of its pending physical operations, capped at one
quantum. Tags that tie (among them every tag with a quantum or more of
work) keep the ready order, whose starting tag rotates every service
round. This is the shortest-processing-time rule, which minimises mean
completion time on one server: the radio does the same work, but cheap
visits settle their listeners before a long one holds the radio, and
every ready tag still gets exactly one visit per round. The whole-tag
drain survives only as a test and bench baseline
(``SequentialDrainPolicy`` in ``tests/conftest.py``). A deficit
round-robin variant, crediting visits by queue depth and carrying unused
credit over, was measured against this quantum and removed: six
alternating ``BENCH_fairness`` runs each read cold-tag
time-to-first-service p99 medians of 0.348 s (deficit) and 0.343 s
(round-robin), with the same 26 connects and 18 preemptions in every run
(DESIGN.md decision 13).

Fairness never taxes a lonely tag: when a quantum expires and **no other
tag is marked ready**, the quantum is renewed in place and the open
session survives — a single co-located batch still pays exactly one
connect round, so PR 5's batched-throughput numbers are preserved.
Preemption (ending a visit with work remaining because a co-present tag
is waiting) closes the session; the tag's next visit pays a fresh
connect — the physical truth of re-selecting a different tag, and the
throughput/fairness trade-off DESIGN.md decision 13 records.

Ordering within a tag is unchanged and load-bearing. A visit executes
the tag's ready heads in **global enqueue order** (``Operation.op_id``
is a process-wide counter assigned at enqueue), which preserves each
reference's FIFO by construction. Fences — reads, raw writes
(lease-guarded writes, renewals), locks, formats — are stricter: a fence
executes only when it is the globally-oldest pending operation among the
tag's references, and while a fence is pending no younger operation of
another reference may overtake it. Fences are strictly **per tag**: a
fence queued against tag A never stalls runnable quanta on co-present
tag B (see ``tests/radio/test_fair_scheduling.py``).

Failure semantics are *partial-batch settlement*: operations that
completed before a tear have settled (their listeners are already posted,
in FIFO order, on the activity's main looper); the torn operation stays
queued and retries after its reference's backoff; the rest simply remain
queued and are picked up by the next window — the session died with the
tear, so the next attempt pays a fresh connect. A tear mid-quantum is a
per-tag event: only that tag's partial batch settles, co-present tags'
queues are untouched.

The scheduler is one serial :class:`~repro.core.scheduler.ReactorTask`
per port and speaks only the task contract (``wake`` / ``schedule_at``):
its steps are a callback chain on the device reactor's loop (DESIGN.md
decision 14). Serial-per-task is the only concurrency property the
drain loop relies on.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from typing import Dict, Hashable, Iterable, List, Optional, TYPE_CHECKING, Tuple

from repro.errors import MorenaError, NotInFieldError, TagLostError
from repro.core.operations import Operation, OperationKind
from repro.radio.events import FieldEvent, TagEntered, TagLeft
from repro.radio.port import TagSession
from repro.tags.tag import SimulatedTag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clock import Clock
    from repro.core.reference import TagReference
    from repro.core.scheduler import Reactor
    from repro.radio.port import NfcAdapterPort

# One drain visit processes at most this many operations before
# yielding the reactor loop, whatever the policy granted.
_DRAIN_BURST_OPS = 128

# Backoff after a connect/anticollision tear (the tag is flapping at the
# field edge); transfer tears use the owning reference's retry interval.
_CONNECT_RETRY_SECONDS = 0.02

# Service-cost normalization: one operation costs one unit plus its
# payload share, so a tag moving kilobyte records consumes its quantum
# faster than one writing 20-byte labels.
_COST_BYTE_UNIT = 256.0

# The round-robin quantum: cost units one tag may spend per visit while
# a co-present tag waits.
_QUANTUM_UNITS = 6.0


def _op_cost(byte_count: int) -> float:
    """Policy cost units of one settled operation of ``byte_count`` bytes."""
    return 1.0 + max(byte_count, 0) / _COST_BYTE_UNIT


def _estimate_bytes(tag: SimulatedTag, operation: Operation) -> int:
    """Bytes a settled operation moved over the air (quantum/telemetry).

    Writes are sized by their encoded payload (factory-built payloads
    are unknown until transmission and count as overhead-only); reads by
    the tag's user area; formats/locks by their command overhead.
    """
    if operation.kind is OperationKind.WRITE:
        payload = operation.payload
        return payload.byte_length if payload is not None else 0
    if operation.kind is OperationKind.READ:
        return tag.tag_type.user_bytes
    return 16 if operation.kind is OperationKind.FORMAT else 8


# -- cross-tag service policies -----------------------------------------------------


class CrossTagPolicy:
    """How one port's radio time is shared across co-present tags.

    The scheduler calls :meth:`begin_visit` from its single serial
    reactor task whenever the drain turns to a tag, or renews the
    budget of a tag alone in the field. It returns the visit's service
    budget in cost units (see :func:`_op_cost`); ``math.inf`` means "run
    to exhaustion". A policy keeps no per-tag state.
    """

    name = "?"
    #: Whether each service round runs cheapest visit first, ties kept
    #: in a ready order whose starting tag rotates between rounds (fair
    #: policies), or keeps strict ready order.
    rotates = True

    def begin_visit(self, tag: SimulatedTag) -> float:
        raise NotImplementedError


class RoundRobinPolicy(CrossTagPolicy):
    """Fixed equal quanta per ready tag, cheapest visit first each round."""

    name = "round_robin"

    def begin_visit(self, tag: SimulatedTag) -> float:
        return _QUANTUM_UNITS


# -- the ready queue -----------------------------------------------------------------


class PortReadyQueue:
    """Per-port ready-queue of keys (tags) with runnable batched work.

    The per-port transaction scheduler runs as **one** serial
    :class:`~repro.core.scheduler.ReactorTask`; this queue is how many
    concurrent producers (references enqueueing work, field events) hand
    that single task the set of tags worth draining, so one step serves
    a whole per-port batch instead of one wakeup per operation.

    Marks coalesce (a tag is ready once, however many operations piled
    up) and are **generation-counted**: :meth:`snapshot` returns each
    key with the generation observed, and :meth:`clear` only removes the
    key if no :meth:`mark` landed in between. That closes the race where
    a drain finds a tag idle, a reference enqueues concurrently, and a
    plain clear would eat the fresh mark — the wake that follows the
    mark would then find an empty queue and the work would sleep until
    its timeout. Insertion order is preserved, so snapshots list tags
    in the order they became ready (a rotating scheduler then sorts each
    round cheapest visit first, stably, so tied tags keep that order).

    For the fair cross-tag policies the queue additionally hands out
    **bounded per-tag quanta instead of whole-port batches**: a rotated
    :meth:`snapshot` starts each service round one key past the previous
    round's head, so no tag is structurally first every round, and
    :meth:`has_other` lets a drain loop ask mid-quantum whether any
    co-present tag is waiting (if none is, the quantum is renewed in
    place and the open session survives — fairness never taxes a tag
    that is alone in the field).
    """

    __slots__ = ("_lock", "_generations", "_cursor")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generations: Dict[Hashable, int] = {}
        self._cursor: Optional[Hashable] = None  # next round starts here

    def mark(self, key: Hashable) -> None:
        """Flag ``key`` as having runnable work (coalescing)."""
        with self._lock:
            self._generations[key] = self._generations.get(key, 0) + 1

    def mark_many(self, keys: Iterable[Hashable]) -> None:
        """Flag every key at once: a snapshot sees all of them or none."""
        with self._lock:
            for key in keys:
                self._generations[key] = self._generations.get(key, 0) + 1

    def snapshot(self, rotate: bool = False) -> List[Tuple[Hashable, int]]:
        """The marked keys in ready order, each with its generation.

        With ``rotate=True`` the list starts at the rotation cursor
        (round-robin across calls): successive rotated snapshots begin
        one key later, so repeated service rounds do not always grant
        first service to the same key. A vanished cursor key simply
        falls back to insertion order.
        """
        with self._lock:
            items = list(self._generations.items())
            if rotate and items:
                if len(items) > 1 and self._cursor in self._generations:
                    keys = [key for key, _ in items]
                    start = keys.index(self._cursor)
                    items = items[start:] + items[:start]
                self._cursor = items[1][0] if len(items) > 1 else items[0][0]
            return items

    def has_other(self, key: Hashable) -> bool:
        """Whether any key besides ``key`` is currently marked."""
        with self._lock:
            for marked in self._generations:
                if marked != key:
                    return True
            return False

    def clear(self, key: Hashable, generation: int) -> bool:
        """Unmark ``key`` unless it was re-marked since the snapshot.

        Returns whether the key was removed; ``False`` means a producer
        marked it again and the caller should drain it once more.
        """
        with self._lock:
            if self._generations.get(key) == generation:
                del self._generations[key]
                return True
            return False

    def discard(self, key: Hashable) -> None:
        """Unconditionally unmark ``key`` (tag left the field)."""
        with self._lock:
            self._generations.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._generations)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._generations


# -- per-tag service telemetry -------------------------------------------------------


class TagServiceStats:
    """Service telemetry for one registered tag (guarded by the
    scheduler's lock; see :meth:`PortTransactionScheduler.stats_snapshot`)."""

    __slots__ = (
        "quanta",
        "ops",
        "bytes_moved",
        "starvation_ticks",
        "first_ready_at",
        "first_service_at",
    )

    def __init__(self) -> None:
        self.quanta = 0  # service visits that settled at least one op
        self.ops = 0  # operations settled for this tag
        self.bytes_moved = 0  # estimated bytes over the air
        self.starvation_ticks = 0  # visits that served nothing despite backlog
        self.first_ready_at: Optional[float] = None
        self.first_service_at: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        ttfs: Optional[float] = None
        if self.first_ready_at is not None and self.first_service_at is not None:
            ttfs = self.first_service_at - self.first_ready_at
        return {
            "quanta": self.quanta,
            "ops": self.ops,
            "bytes_moved": self.bytes_moved,
            "starvation_ticks": self.starvation_ticks,
            "time_to_first_service": ttfs,
        }


class _TagRecord(TagServiceStats):
    """One registered tag: its references and its service telemetry
    (guarded by the scheduler's lock).

    ``references`` is a tuple, replaced on each (un)registration, so the
    tuple read under the lock can be iterated once the lock is released.
    """

    __slots__ = ("references",)

    def __init__(self) -> None:
        super().__init__()
        self.references: Tuple["TagReference", ...] = ()


class PortTransactionScheduler:
    """Batches the radio round-trips of co-located references per port.

    Created once per device (``AndroidDevice.tx_scheduler``). Every tag
    reference registers here; the scheduler owns all its radio execution
    while its tag is in the field, tells it when its tag enters or
    leaves, and runs its timeouts when they fall due. The queue rules,
    cancellation and listener settlement stay with each reference — this
    layer decides *when the radio speaks and for whom*, under the
    cross-tag service policy (see module docstring), and when a
    reference's deadlines are checked.
    """

    def __init__(
        self,
        port: "NfcAdapterPort",
        reactor: "Reactor",
        clock: "Clock",
        policy: Optional[CrossTagPolicy] = None,
    ) -> None:
        if policy is None:
            policy = RoundRobinPolicy()
        elif not isinstance(policy, CrossTagPolicy):
            raise MorenaError(
                f"a cross-tag policy must be a CrossTagPolicy instance, "
                f"not {policy!r}"
            )
        self._port = port
        self._clock = clock
        self._lock = threading.Lock()
        # Every registered tag's references and service telemetry.
        self._tags: Dict[SimulatedTag, _TagRecord] = {}
        self._ready = PortReadyQueue()
        # (deadline, seq, reference) entries armed by references; the
        # reactor wakes this task at each through ``schedule_at``.
        self._timeouts: List[Tuple[float, int, "TagReference"]] = []
        self._timeout_seq = itertools.count()
        self._closed = False
        self._policy = policy
        # Statistics, exposed for tests and benchmarks. The scalar
        # counters are only mutated on the single drain task; the
        # per-tag telemetry in ``_tags`` is additionally read/retired
        # from other threads, so it is guarded by ``_lock`` (the
        # leasing-stats pattern) and snapshotted via :meth:`stats_snapshot`.
        self.windows = 0  # batched sessions opened (tap windows served)
        self.batched_ops = 0  # operations settled inside batched sessions
        self.max_batch = 0  # largest single-session operation count
        self.preemptions = 0  # visits ended early for a waiting neighbour
        self._retired = TagServiceStats()  # folded stats of departed tags
        self._retired_tags = 0
        self._task = reactor.register(self._step, name=f"txsched-{port.name}")
        port.add_field_batch_listener(self._on_field_events)

    def __repr__(self) -> str:
        with self._lock:
            tags = len(self._tags)
        return (
            f"PortTransactionScheduler({self._port.name!r}, "
            f"policy={self._policy.name!r}, tags={tags}, "
            f"windows={self.windows})"
        )

    # -- policy -----------------------------------------------------------------

    @property
    def policy(self) -> CrossTagPolicy:
        return self._policy

    # -- registration -----------------------------------------------------------

    def register(self, reference: "TagReference") -> None:
        """Enroll a reference (keyed by its simulated tag).

        From this call on, the scheduler serves the reference's radio
        work and passes it its tag's presence (see :meth:`_on_field_events`).
        """
        tag = reference.tag.simulated
        with self._lock:
            if self._closed:
                return
            record = self._tags.get(tag)
            if record is None:
                record = self._tags[tag] = _TagRecord()
            record.references += (reference,)

    def unregister(self, reference: "TagReference") -> None:
        tag = reference.tag.simulated
        with self._lock:
            record = self._tags.get(tag)
            if record is None:
                return
            record.references = tuple(
                other for other in record.references if other is not reference
            )
            if record.references:
                return
            # The departed tag's telemetry folds into the retired
            # aggregate so crowd-scale churn cannot grow the map
            # without bound.
            del self._tags[tag]
            self._retire_locked(record)
        # Last co-located reference gone: discard the tag's ready mark
        # so a stale runnable key cannot wake the drain for empty batches.
        self._ready.discard(tag)

    def references_for(self, tag: SimulatedTag) -> List["TagReference"]:
        with self._lock:
            record = self._tags.get(tag)
            return list(record.references) if record is not None else []

    # -- telemetry ---------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """A consistent snapshot of the scheduler's service telemetry.

        ``tags`` maps each registered tag's uid to its
        :class:`TagServiceStats` numbers; ``retired`` aggregates the
        telemetry of tags whose last reference unregistered (crowd
        churn), so totals remain auditable after departure.
        """
        with self._lock:
            tags = {
                tag.uid_hex: record.as_dict()
                for tag, record in self._tags.items()
            }
            retired = self._retired.as_dict()
            retired.pop("time_to_first_service", None)
            retired["tags"] = self._retired_tags
            return {
                "policy": self._policy.name,
                "windows": self.windows,
                "batched_ops": self.batched_ops,
                "max_batch": self.max_batch,
                "preemptions": self.preemptions,
                "tags": tags,
                "retired": retired,
            }

    def _retire_locked(self, stats: TagServiceStats) -> None:
        self._retired.quanta += stats.quanta
        self._retired.ops += stats.ops
        self._retired.bytes_moved += stats.bytes_moved
        self._retired.starvation_ticks += stats.starvation_ticks
        self._retired_tags += 1

    # -- wakeups ----------------------------------------------------------------

    def notify_runnable(self, reference: "TagReference") -> None:
        """A registered reference has ready head work and its tag is in
        the field; called from any thread (never under the reference's
        queue lock)."""
        tag = reference.tag.simulated
        with self._lock:
            record = self._tags.get(tag)
            if self._closed or record is None:
                return
            if record.first_ready_at is None:
                record.first_ready_at = self._clock.now()
        self._ready.mark(tag)
        self._task.wake()

    def arm_timeout(self, reference: "TagReference", deadline: float) -> None:
        """Call ``reference.expire_due()`` once ``deadline`` has passed;
        called from any thread (never under the reference's queue lock)."""
        with self._lock:
            if self._closed:
                return
            entry = (deadline, next(self._timeout_seq), reference)
            heapq.heappush(self._timeouts, entry)
        self._task.schedule_at(deadline)

    def _on_field_events(self, events: List[FieldEvent]) -> None:
        """Route one field change to the registered tags' references.

        Marks the entering cohort ready and wakes the drain, then passes
        each reference of a registered tag its presence, in event order.
        """
        moves = []
        for event in events:
            if isinstance(event, TagEntered):
                moves.append((event.tag, True))
            elif isinstance(event, TagLeft):
                # Absent tags drain nothing; drop the mark (TagEntered
                # re-marks) so the ready set tracks the field.
                self._ready.discard(event.tag)
                moves.append((event.tag, False))
        if not moves:
            return
        entered = []
        presence = []
        with self._lock:
            if self._closed:
                return
            for tag, present in moves:
                record = self._tags.get(tag)
                if record is None:
                    continue
                if present:
                    entered.append(tag)
                    if record.first_ready_at is None:
                        record.first_ready_at = self._clock.now()
                presence.append((record.references, present))
        if entered:
            # The whole cohort is marked before the drain wakes, so its
            # first round serves every entering tag once.
            self._ready.mark_many(entered)
            self._task.wake()
        for references, present in presence:
            for reference in references:
                reference.set_connected(present)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach from the port; part of device shutdown."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._timeouts.clear()
        self._port.remove_field_batch_listener(self._on_field_events)
        self._task.cancel()

    # -- the drain ----------------------------------------------------------------

    def _step(self) -> Optional[float]:
        """One scheduler round: time out what fell due, then serve every
        ready in-field tag a visit.

        The policy decides each visit's budget. A rotating policy's round
        runs cheapest visit first (see :meth:`_visit_cost`); the sort is
        stable, so tied tags keep the rotated ready order. Returns the
        next absolute time radio work becomes ready (retry backoffs,
        preempted quanta), or ``None`` to idle until the next mark+wake.
        """
        now = self._clock.now()
        due = []
        with self._lock:
            while self._timeouts and self._timeouts[0][0] <= now:
                due.append(heapq.heappop(self._timeouts)[2])
        for reference in due:
            bound = reference.expire_due()
            if bound is not None:
                self.arm_timeout(reference, bound)
        wake: Optional[float] = None
        ready = self._ready.snapshot(rotate=self._policy.rotates)
        if self._policy.rotates and len(ready) > 1:
            ready.sort(key=lambda entry: self._visit_cost(entry[0]))
        for tag, generation in ready:
            if not self._port.environment.tag_in_field(tag, self._port):
                # Keep a mark its TagEntered set since the snapshot: a
                # reference does not mark its entering tag again.
                self._ready.clear(tag, generation)
                continue
            tag_wake, has_pending = self._drain_tag(tag)
            if not has_pending:
                # Only unmark if no producer re-marked mid-drain.
                self._ready.clear(tag, generation)
            if tag_wake is not None:
                wake = tag_wake if wake is None else min(wake, tag_wake)
        return wake

    def _visit_cost(self, tag: SimulatedTag) -> float:
        """Cost units of ``tag``'s next visit, capped at one quantum.

        Sums :func:`_op_cost` over the pending physical operations of the
        tag's references. Every operation costs at least one unit, so no
        more than one quantum of them is read, however deep the queues.
        """
        cost = 0.0
        for reference in self.references_for(tag):
            for operation in reference.batch_peek(math.ceil(_QUANTUM_UNITS - cost)):
                cost += _op_cost(_estimate_bytes(tag, operation))
                if cost >= _QUANTUM_UNITS:
                    return _QUANTUM_UNITS
        return cost

    def _drain_tag(self, tag: SimulatedTag) -> Tuple[Optional[float], bool]:
        """One service visit: run a batched session over ``tag``'s ready
        head operations within the policy's budget.

        Returns ``(wake_at, has_pending)``: when to come back (backed-
        off work, or *now* for a preempted/burst-capped visit), and
        whether any operation remains pending for this tag.
        """
        references = self.references_for(tag)
        if not references:
            return None, False
        session: Optional[TagSession] = None
        wake: Optional[float] = None
        has_pending = False
        budget: Optional[float] = None
        served_ops = 0
        served_bytes = 0
        try:
            for _ in range(_DRAIN_BURST_OPS):
                views = [
                    (reference, reference.batch_poll())
                    for reference in references
                ]
                views = [(r, v) for r, v in views if v.head_id is not None]
                if not views:
                    # Whatever earlier iterations found pending is
                    # settled: the ready mark must go, or the idle tag
                    # would count as a neighbour that preempts others.
                    return None, False
                has_pending = True

                if budget is None:
                    budget = self._policy.begin_visit(tag)
                elif budget <= 0.0:
                    if self._ready.has_other(tag):
                        # Quantum spent and a co-present tag is waiting:
                        # preempt. The session closes (re-selecting
                        # another tag kills it physically) and we resume
                        # right after the neighbours' quanta.
                        self.preemptions += 1
                        return self._clock.now(), True
                    # Alone in the field: renew the quantum in place and
                    # keep the session — fairness costs nothing when
                    # there is nobody to be fair to.
                    budget = self._policy.begin_visit(tag)

                # The fence barrier: the oldest pending fence among all
                # of the tag's references. Nothing enqueued after it may
                # run before it, and the fence itself only runs once it
                # is the globally-oldest pending operation.
                fence_id = min(
                    (v.fence_id for _, v in views if v.fence_id is not None),
                    default=None,
                )
                oldest_id = min(v.head_id for _, v in views)
                eligible = []
                for reference, view in views:
                    if view.ready is None:
                        continue
                    if view.ready.is_batch_fence:
                        if view.head_id == oldest_id:
                            eligible.append((view.head_id, reference, view))
                    elif fence_id is None or view.head_id < fence_id:
                        eligible.append((view.head_id, reference, view))
                if not eligible:
                    # Every runnable head is backed off or fenced behind
                    # one; wait for the earliest backoff to expire.
                    for _, view in views:
                        if view.wake_at is not None:
                            wake = (
                                view.wake_at
                                if wake is None
                                else min(wake, view.wake_at)
                            )
                    return wake, has_pending

                eligible.sort(key=lambda entry: entry[0])
                _, reference, view = eligible[0]
                if session is None or not session.alive:
                    try:
                        session = self._port.open_session(tag)
                    except NotInFieldError:
                        # The tag left; its TagEntered will re-mark us.
                        return None, has_pending
                    except TagLostError:
                        # Tear during anticollision (field-edge flapping):
                        # retry the window shortly.
                        return (
                            self._clock.now() + _CONNECT_RETRY_SECONDS,
                            has_pending,
                        )
                    self.windows += 1
                op_bytes = _estimate_bytes(tag, view.ready)
                result = reference.batch_execute(view.ready, session)
                if result == "settled":
                    self.batched_ops += 1
                    served_ops += 1
                    served_bytes += op_bytes
                    budget -= _op_cost(op_bytes)
                    if session.operations > self.max_batch:
                        self.max_batch = session.operations
                # "retry": the transfer tore — the session died with it
                # and the loop reconnects for whatever is still ready.
                # "skip": the queue changed under us (cancel/stop/
                # timeout); the next poll sees the new head.
        finally:
            if session is not None:
                session.close()
            self._account(tag, served_ops, served_bytes, has_pending)
        # Burst cap hit with work still flowing: yield the loop and
        # resume immediately so one hot tag cannot hog it.
        return self._clock.now(), True

    def _account(
        self,
        tag: SimulatedTag,
        ops: int,
        bytes_moved: int,
        had_pending: bool,
    ) -> None:
        """Fold one visit's outcome into the tag's service telemetry."""
        with self._lock:
            record = self._tags.get(tag)
            if record is None:
                return
            if ops > 0:
                record.quanta += 1
                record.ops += ops
                record.bytes_moved += bytes_moved
                if record.first_service_at is None:
                    record.first_service_at = self._clock.now()
            elif had_pending:
                # The tag had backlog but this visit moved nothing
                # (fenced, backed off, or torn before first settle).
                record.starvation_ticks += 1
