"""``TagDiscoverer``: connectivity tracking for RFID tags.

Paper section 3.1. A discoverer is instantiated with the activity whose
NFC events it captures, the application's MIME type, and the two data
converters. From then on it turns raw platform intents into tag-reference
callbacks:

* ``on_tag_detected(ref)`` -- the tag was never seen before by this
  activity (a fresh reference was just created);
* ``on_tag_redetected(ref)`` -- the tag was seen before (its unique
  reference is reused, its queued operations get another chance);
* ``check_condition(ref)`` -- optional fine-grained filter (section 3.4);
  only when it returns ``True`` are the two callbacks above invoked. A
  typical pattern filters on the reference's cached data. Tags whose data
  cannot be converted by the read converter are disregarded, like tags of
  a foreign MIME type.

Subclass and override the callbacks; all of them run on the activity's
main thread.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core.converters import (
    NdefMessageToObjectConverter,
    ObjectToNdefMessageConverter,
)
from repro.core.nfc_activity import NFCActivity
from repro.core.reference import TagReference
from repro.errors import ConverterError
from repro.ndef.mime import normalize_mime_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.android.nfc.tech import Tag
    from repro.ndef.message import NdefMessage


class TagDiscoverer:
    """Turns NFC intents into tag-reference detection callbacks."""

    def __init__(
        self,
        activity: NFCActivity,
        mime_type: str,
        read_converter: NdefMessageToObjectConverter,
        write_converter: ObjectToNdefMessageConverter,
        accept_empty: bool = False,
    ) -> None:
        if not isinstance(activity, NFCActivity):
            raise TypeError("TagDiscoverer requires an NFCActivity")
        self._activity = activity
        self.mime_type = normalize_mime_type(mime_type)
        self.read_converter = read_converter
        self.write_converter = write_converter
        self.accept_empty = accept_empty
        # Non-overridable observers ("detected"|"redetected"|"empty",
        # reference) invoked after the subclass callbacks — the feed for
        # async discovery streams and telemetry taps.
        self._detection_listeners: List[Callable[[str, TagReference], None]] = []
        # Monotonic total of detections shed by this discoverer's
        # bounded stream() buffers — survives stream teardown, so
        # overflow is accounted fleet-side, never silent.
        self._stream_dropped = 0
        activity._register_discoverer(self)  # noqa: SLF001 - by-design handshake

    @property
    def activity(self) -> NFCActivity:
        return self._activity

    # -- detection observers ---------------------------------------------------------

    def add_detection_listener(
        self, listener: Callable[[str, TagReference], None]
    ) -> None:
        """Observe every detection: ``listener(event, reference)``.

        ``event`` is ``"detected"``, ``"redetected"`` or ``"empty"``.
        Listeners run on the main thread after the subclass callback and
        are independent of subclassing — this is the hook the async
        :meth:`stream` adapter rides on.
        """
        self._detection_listeners.append(listener)

    def remove_detection_listener(
        self, listener: Callable[[str, TagReference], None]
    ) -> None:
        self._detection_listeners = [
            existing for existing in self._detection_listeners
            if existing is not listener
        ]

    def _notify_detection(self, event: str, reference: TagReference) -> None:
        for listener in list(self._detection_listeners):
            listener(event, reference)

    @property
    def stream_dropped(self) -> int:
        """Detections shed across all of this discoverer's streams.

        Monotonic: a stream reports each shed sighting as it happens,
        so closing (or leaking) a stream never erases its drop count.
        """
        return self._stream_dropped

    def _count_stream_drop(self, count: int = 1) -> None:
        # Called from stream buffers on their consuming loop's thread;
        # int += is atomic enough for a monotonic telemetry counter.
        self._stream_dropped += count

    def stream(self, events: Optional[tuple] = None, max_buffer: int = 1024):
        """Detections as an async iterator: ``async for ref in d.stream()``.

        Convenience wrapper over :func:`repro.core.aio.tag_stream`; see
        there for buffering semantics. ``events`` filters which
        detection kinds are yielded (default: all three).
        """
        from repro.core.aio import tag_stream

        return tag_stream(self, events=events, max_buffer=max_buffer)

    # -- overridable callbacks (all run on the main thread) -------------------------

    def on_tag_detected(self, reference: TagReference) -> None:
        """A tag of our MIME type was scanned for the first time."""

    def on_tag_redetected(self, reference: TagReference) -> None:
        """A previously seen tag was scanned again."""

    def on_empty_tag_detected(self, reference: TagReference) -> None:
        """An empty (or factory-blank) tag was scanned.

        Only invoked when the discoverer was created with
        ``accept_empty=True``; the thing layer uses this to drive its
        ``when_discovered(EmptyRecord)`` callback.
        """

    def check_condition(self, reference: TagReference) -> bool:
        """Fine-grained filter applied before the detection callbacks."""
        return True

    # -- intent plumbing (called by NFCActivity on the main thread) --------------------

    def _handle_tag(self, mime_type: str, tag: "Tag", message: "NdefMessage") -> None:
        if mime_type != self.mime_type:
            return
        reference, is_new = self._activity.reference_factory.get_or_create(
            tag, self.read_converter, self.write_converter
        )
        # Refresh the cache from the tag content the platform already read
        # during dispatch; a tag whose data our converter rejects is
        # disregarded, exactly like one with a foreign MIME type.
        try:
            converted = self.read_converter.convert(message)
        except ConverterError:
            return
        reference._update_cache(converted, message)  # noqa: SLF001 - cache prime
        if not self.check_condition(reference):
            return
        if is_new:
            self.on_tag_detected(reference)
            self._notify_detection("detected", reference)
        else:
            self.on_tag_redetected(reference)
            self._notify_detection("redetected", reference)

    def _handle_empty_tag(
        self, tag: "Tag", message: Optional["NdefMessage"]
    ) -> None:
        # TECH_DISCOVERED is a fall-through action: a tag holding *foreign*
        # data (another app's MIME type) also lands here. Only genuinely
        # empty or factory-blank tags count as empty. ``message`` is what
        # the platform decoded while dispatching; a formatted tag without
        # one held a corrupt TLV.
        if tag.simulated.is_ndef_formatted and (
            message is None or not message.is_empty
        ):
            return
        reference, _is_new = self._activity.reference_factory.get_or_create(
            tag, self.read_converter, self.write_converter
        )
        self.on_empty_tag_detected(reference)
        self._notify_detection("empty", reference)
