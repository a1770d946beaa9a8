"""The per-activity identity map of tag references.

Paper section 3.2: "Within one Android activity, only a single unique tag
reference can exist to the same RFID tag. Behind the scenes,
``TagDiscoverer`` instances use a private ``TagReferenceFactory`` that
generates tag references for tags that are detected for the very first
time, and subsequently reuses these references."

Reference garbage collection is the application's responsibility (the
paper's stance); :meth:`TagReferenceFactory.release` and
:meth:`stop_all` are the hooks for it, and :mod:`repro.leasing`
implements the lease-driven automatic variant sketched as future work.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.converters import (
    NdefMessageToObjectConverter,
    ObjectToNdefMessageConverter,
)
from repro.core.reference import TagReference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.android.nfc.tech import Tag
    from repro.core.nfc_activity import NFCActivity


class TagReferenceFactory:
    """Creates-or-reuses the unique :class:`TagReference` per tag UID."""

    def __init__(self, activity: "NFCActivity") -> None:
        self._activity = activity
        self._lock = threading.Lock()
        self._references: Dict[bytes, TagReference] = {}

    def get_or_create(
        self,
        tag: "Tag",
        read_converter: NdefMessageToObjectConverter,
        write_converter: ObjectToNdefMessageConverter,
        default_timeout: Optional[float] = None,
        coalesce_writes: Optional[bool] = None,
    ) -> "tuple[TagReference, bool]":
        """Return ``(reference, is_new)`` for the tag's UID.

        The converters only matter on first creation; later lookups return
        the existing reference unchanged, preserving its queue and cache.
        New references run on the device's reactor and batch their radio
        work through its per-port transaction scheduler (see
        :mod:`repro.radio.txscheduler`). ``coalesce_writes=True`` makes
        the reference's writes coalescible by default (see
        :meth:`TagReference.write`).
        """
        with self._lock:
            existing = self._references.get(tag.id)
            if existing is not None and not existing.is_stopped:
                return existing, False
            kwargs = {}
            if default_timeout is not None:
                kwargs["default_timeout"] = default_timeout
            if coalesce_writes is not None:
                kwargs["coalesce_writes"] = coalesce_writes
            reference = TagReference(
                tag,
                self._activity,
                read_converter,
                write_converter,
                **kwargs,
            )
            self._references[tag.id] = reference
            return reference, True

    def lookup(self, uid: bytes) -> Optional[TagReference]:
        with self._lock:
            return self._references.get(uid)

    def known_references(self) -> List[TagReference]:
        with self._lock:
            return list(self._references.values())

    def release(self, uid: bytes, notify_pending: bool = False) -> bool:
        """Stop and forget the reference for ``uid``; the next detection
        of that tag creates a fresh reference. Returns whether one existed."""
        with self._lock:
            reference = self._references.pop(uid, None)
        if reference is None:
            return False
        reference.stop(notify_pending=notify_pending)
        return True

    def stop_all(self, notify_pending: bool = False) -> None:
        """Stop every reference; called when the owning activity is destroyed."""
        with self._lock:
            references = list(self._references.values())
            self._references.clear()
        for reference in references:
            reference.stop(notify_pending=notify_pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._references)
