"""The gateway wire unit: one compact, coalescible fleet event.

Devices report three families of happenings — tag sightings (scans),
successful saves (physical writes landing), and leasing outcomes — and
at fleet scale the event record is a hot allocation: 10k devices each
reporting dozens of events per second means hundreds of thousands of
these per bench run. Hence a slotted class, string identifiers (tag
uids travel as the reference's ``uid_hex``, stations as short names)
and a ``count`` field so coalescing can fold a burst of identical
sightings into one record instead of queueing duplicates.

Shard routing hashes the tag uid with :func:`shard_of` (CRC32, not
``hash()`` — Python string hashing is salted per process, and shard
assignment must be reproducible across runs for deterministic tests).
Partitioning by *tag* means every per-tag view (travel history, lease
contention) lives wholly inside one shard, so a global snapshot never
has to reconcile two shards' opinions about the same tag.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

#: Every kind a reporter may record. ``scan`` carries the detection
#: flavour in ``detail`` ("detected"/"redetected"/"empty"); the lease
#: kinds carry the device id of the lease protagonist.
EVENT_KINDS: Tuple[str, ...] = (
    "scan",
    "save",
    "lease_acquired",
    "lease_denied",
    "lease_renewed",
    "lease_released",
)

_KIND_SET = frozenset(EVENT_KINDS)

#: Lease kinds that feed the contention leaderboard.
LEASE_KINDS = frozenset(
    ("lease_acquired", "lease_denied", "lease_renewed", "lease_released")
)


def check_event(kind: str, count: int) -> None:
    """Raise ``ValueError`` unless ``kind`` is known and ``count`` positive."""
    if kind not in _KIND_SET:
        raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
    if count <= 0:
        raise ValueError("event count must be positive")


class ScanEvent:
    """One reported fleet event (possibly a coalesced burst).

    ``at_seconds`` is the *device-side* clock reading when the event was
    recorded; ``enqueued_at`` is stamped by the gateway at submission
    and is what ingest latency is measured against (apply time minus
    enqueue time), so a reporter batching events for 50 ms does not
    inflate the gateway's own ingest latency numbers.
    """

    __slots__ = ("kind", "tag_uid", "station", "at_seconds", "count", "detail",
                 "enqueued_at")

    def __init__(
        self,
        kind: str,
        tag_uid: str,
        station: str,
        at_seconds: float,
        count: int = 1,
        detail: Optional[str] = None,
    ) -> None:
        check_event(kind, count)
        self.kind = kind
        self.tag_uid = tag_uid
        self.station = station
        self.at_seconds = at_seconds
        self.count = count
        self.detail = detail
        self.enqueued_at: Optional[float] = None

    def coalesce_key(self) -> Tuple[str, str, str, Optional[str]]:
        """Events with equal keys may fold into one (summing counts)."""
        return (self.kind, self.tag_uid, self.station, self.detail)

    def __repr__(self) -> str:
        burst = f" ×{self.count}" if self.count > 1 else ""
        return (
            f"ScanEvent({self.kind} {self.tag_uid} @ {self.station}"
            f"{burst} t={self.at_seconds:.3f})"
        )


def shard_of(tag_uid: str, shard_count: int) -> int:
    """Stable shard index for ``tag_uid`` — CRC32, salt-free."""
    if shard_count <= 1:
        return 0
    return zlib.crc32(tag_uid.encode("utf-8", "surrogatepass")) % shard_count
