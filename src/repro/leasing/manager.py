"""Acquire / renew / release / guarded writes on one tag.

The manager works at the NDEF-message level through the tag reference's
raw operations (``read_raw`` / ``write_raw``), so it composes with *any*
reference -- string-converter references and thing references alike: the
application data records ride along untouched while the trailing lease
record changes hands.

Acquire and release are *nested* pairs of asynchronous operations --
read the current lease, then conditionally write -- composed with
listeners, which is exactly how the paper says multi-step tag
interactions must be synchronized (section 3.2: "Synchronization of
operations must happen by nesting these listeners").

Renewal is different: while our own lease is locally valid, no
drift-honest device may touch the tag, so the cached message is
authoritative and a renewal is a single guarded write -- no
read-before-write handshake. That makes a renewal the canonical
redundant write: only the latest expiry matters, and pending renewals
queued while the tag is away collapse to one physical write through
the reference's protocol merge hook (``merge_key``), never across a
guarded data write, a release, or a read (those are fences in the
queue). The renewal write's deadline is capped at the current lease's
own validity, so a renewal that cannot land while we still hold the
guard times out instead of clobbering a successor's lease.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from repro.core.listeners import ListenerLike, as_callback
from repro.core.reference import DEFAULT_TIMEOUT_SECONDS, TagReference
from repro.errors import LeaseError
from repro.leasing.lease import Lease, join_lease, split_lease
from repro.ndef.message import NdefMessage
from repro.ndef.record import NdefRecord


class LeaseManager:
    """Drives the leasing protocol for one device on one tag reference."""

    def __init__(
        self,
        reference: TagReference,
        device_id: str,
        drift_bound: float = 0.05,
    ) -> None:
        if drift_bound < 0:
            raise LeaseError("drift_bound must be >= 0")
        self._reference = reference
        self.device_id = device_id
        self.drift_bound = drift_bound
        self._clock = reference.activity.device.environment.clock
        self._lock = threading.Lock()
        self._held: Optional[Lease] = None
        self._merge_key = f"lease-renew:{device_id}"

        # Statistics for tests and benchmarks. Listener callbacks and
        # benchmark readers run on different threads, so every mutation
        # holds ``_lock`` (the EncodeStats pattern); ``stats_snapshot``
        # is the consistent multi-counter read.
        self.acquisitions = 0
        self.denials = 0
        self.renewals = 0
        self.renewals_merged = 0

        # Protocol-outcome observers: ``listener(event, manager)`` with
        # event in {"acquired", "denied", "renewed", "released"}. A tap
        # for telemetry (the fleet gateway's lease-contention view),
        # invoked inline after the application callback; must not block.
        self._lease_listeners: List[Any] = []

    # -- observers ---------------------------------------------------------------

    def add_lease_listener(self, listener) -> None:
        """Observe protocol outcomes: ``listener(event, manager)``.

        Events: ``"acquired"``, ``"denied"``, ``"renewed"``,
        ``"released"``. Called inline right after the corresponding
        application callback fires; listeners must be cheap and
        non-blocking (the gateway reporter's contract).
        """
        with self._lock:
            self._lease_listeners.append(listener)

    def remove_lease_listener(self, listener) -> None:
        with self._lock:
            if listener in self._lease_listeners:
                self._lease_listeners.remove(listener)

    def _notify_lease(self, event: str) -> None:
        with self._lock:
            listeners = list(self._lease_listeners)
        for listener in listeners:
            try:
                listener(event, self)
            except Exception:  # noqa: BLE001 - a tap must not break the protocol
                pass

    # -- state -------------------------------------------------------------------

    @property
    def reference(self) -> TagReference:
        return self._reference

    @property
    def held_lease(self) -> Optional[Lease]:
        with self._lock:
            return self._held

    @property
    def holds_valid_lease(self) -> bool:
        with self._lock:
            held = self._held
        return held is not None and not held.is_expired(
            self._clock, self.drift_bound, ours=True
        )

    def stats_snapshot(self) -> Tuple[int, int, int, int]:
        """(acquisitions, denials, renewals, renewals_merged) atomically."""
        with self._lock:
            return (
                self.acquisitions,
                self.denials,
                self.renewals,
                self.renewals_merged,
            )

    # -- protocol steps ------------------------------------------------------------

    def acquire(
        self,
        duration: float,
        on_acquired: ListenerLike = None,
        on_denied: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Try to obtain exclusive access for ``duration`` seconds.

        Reads the tag; if it carries no lease, an expired lease, or our
        own lease, writes a fresh lease record (keeping the application
        data records). ``on_acquired(lease)`` or ``on_denied()`` runs on
        the main thread; radio failures surface as ``on_denied`` after the
        operation timeout, like any MORENA failure listener.
        """
        if duration <= 0:
            raise LeaseError("lease duration must be positive")
        acquired = as_callback(on_acquired)
        denied = as_callback(on_denied)

        def after_read(ref: TagReference) -> None:
            current, records = self._split_cached(ref)
            if (
                current is not None
                and not current.held_by(self.device_id)
                and not current.is_expired(self._clock, self.drift_bound, ours=False)
            ):
                with self._lock:
                    self.denials += 1
                denied()
                # Contention evidence (someone else holds the tag) --
                # radio-failure denials deliberately do not notify.
                self._notify_lease("denied")
                return
            # One clock snapshot: expires_at - acquired_at == duration
            # even under a coarse or advancing clock.
            now = self._clock.now()
            lease = Lease(
                device_id=self.device_id,
                acquired_at=now,
                expires_at=now + duration,
            )

            def after_write(_ref: TagReference) -> None:
                with self._lock:
                    self._held = lease
                    self.acquisitions += 1
                acquired(lease)
                self._notify_lease("acquired")

            ref.write_raw(
                join_lease(lease, records),
                on_written=after_write,
                on_failed=lambda _ref: denied(),
                timeout=timeout,
            )

        self._reference.read_raw(
            on_read=after_read,
            on_failed=lambda _ref: denied(),
            timeout=timeout,
        )

    def renew(
        self,
        duration: float,
        on_renewed: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Extend a lease we currently hold: one guarded write, no read.

        Local validity of our own lease *is* the guard -- a drift-honest
        device cannot have touched the tag since we last saw it -- so the
        renewal writes the extended lease record directly over the
        cached application records. Consequences, all deliberate:

        * Pending renewals collapse: while the tag is away, successive
          renewals tail-merge in the reference queue (``merge_key``) and
          one physical write lands the *latest* expiry on redetection.
        * A guarded data write, a release, or any read queued between
          two renewals is a fence -- those never merge with a renewal.
        * The write's deadline never outlives the current lease (minus
          the drift bound): a renewal that cannot land while we still
          hold the guard fails instead of landing late over a
          successor's lease.
        * The message is built at transmission time, so the renewal
          re-writes the application records as the *previous* queued
          write left them, not as they were when ``renew`` was called.
        """
        if duration <= 0:
            raise LeaseError("lease duration must be positive")
        renewed = as_callback(on_renewed)
        failed = as_callback(on_failed)
        with self._lock:
            held = self._held
        if held is None or held.is_expired(self._clock, self.drift_bound, ours=True):
            self._forget_if_expired()
            failed()
            return
        now = self._clock.now()
        guard_remaining = held.expires_at - self.drift_bound - now
        if guard_remaining <= 0:
            # Raced past the validity edge between the check and here.
            self._forget_if_expired()
            failed()
            return
        lease = held.renewal_of(now, duration)

        def build_message() -> NdefMessage:
            _, records = self._split_cached(self._reference)
            return join_lease(lease, records)

        def after_write(_ref: TagReference) -> None:
            with self._lock:
                self.renewals += 1
                # Adopt the extension only while the same lease lineage
                # (acquired_at) is still held: a release() issued while
                # the renewal was queued or in flight must not be
                # resurrected, nor a fresh re-acquire overwritten.
                if (
                    self._held is not None
                    and self._held.acquired_at == lease.acquired_at
                ):
                    self._held = lease
            renewed(lease)
            self._notify_lease("renewed")

        base = DEFAULT_TIMEOUT_SECONDS if timeout is None else timeout
        operation = self._reference.write_raw(
            message_factory=build_message,
            on_written=after_write,
            on_failed=lambda _ref: failed(),
            timeout=min(base, guard_remaining),
            merge_key=self._merge_key,
        )
        if operation.merged:
            with self._lock:
                self.renewals_merged += 1

    def release(
        self,
        on_released: ListenerLike = None,
        on_failed: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Remove our lease record from the tag (application data stays).

        Local state is dropped immediately: a renewal arriving after
        ``release()`` must not resurrect the lease, even while the
        removal write is still in flight.
        """
        released = as_callback(on_released)
        failed = as_callback(on_failed)
        self._forget()

        def finish() -> None:
            # A renewal that settled between release() and here may have
            # re-adopted the lease; released means released.
            self._forget()
            released()
            self._notify_lease("released")

        def after_read(ref: TagReference) -> None:
            current, records = self._split_cached(ref)
            if current is None:
                # Nothing to remove: skip the radio round-trip that
                # would rewrite identical records.
                finish()
                return
            if not current.held_by(self.device_id):
                # Not ours (anymore): nothing to write.
                finish()
                return

            def build_message() -> NdefMessage:
                _, fresh = self._split_cached(ref)
                return join_lease(None, fresh)

            ref.write_raw(
                message_factory=build_message,
                on_written=lambda _ref: finish(),
                on_failed=lambda _ref: failed(),
                timeout=timeout,
            )

        self._reference.read_raw(
            on_read=after_read,
            on_failed=lambda _ref: failed(),
            timeout=timeout,
        )

    def write_guarded(
        self,
        records: List[NdefRecord],
        on_written: ListenerLike = None,
        on_denied: ListenerLike = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Write application data only while holding a valid lease.

        The lease record is preserved after the data. Without a
        valid lease the write is denied locally -- this is the data-race
        protection for cached things the paper's future work asks for.
        The guarded write never carries a merge key: each data write
        must physically reach the tag, and it fences renewal merging on
        both sides.
        """
        with self._lock:
            held = self._held
        if held is None or held.is_expired(self._clock, self.drift_bound, ours=True):
            self._forget_if_expired()
            as_callback(on_denied)()
            return
        written = as_callback(on_written)
        data = list(records)

        def build_message() -> NdefMessage:
            # Preserve the freshest of our on-tag lease records: a
            # renewal queued before this write may already have landed
            # a later expiry than the one held at call time.
            current, _ = self._split_cached(self._reference)
            record = current if current is not None and current.held_by(
                self.device_id
            ) else held
            return join_lease(record, data)

        self._reference.write_raw(
            message_factory=build_message,
            on_written=lambda _ref: written(),
            on_failed=lambda _ref: as_callback(on_denied)(),
            timeout=timeout,
        )

    # -- internals -------------------------------------------------------------------

    def _split_cached(self, ref: TagReference):
        message = ref.cached_message
        if message is None:
            return None, []
        if message.is_empty:
            return None, []
        try:
            return split_lease(message)
        except LeaseError:
            # A corrupt lease record does not grant anyone exclusivity.
            return None, [r for r in message]

    def _forget(self) -> None:
        with self._lock:
            self._held = None

    def _forget_if_expired(self) -> None:
        with self._lock:
            if self._held is not None and self._held.is_expired(
                self._clock, self.drift_bound, ours=True
            ):
                self._held = None

    def __repr__(self) -> str:
        return (
            f"LeaseManager(device={self.device_id!r}, tag={self._reference.uid_hex}, "
            f"holding={self.holds_valid_lease})"
        )
