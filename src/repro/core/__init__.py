"""MORENA's lower abstraction layer: RFID-tagged objects by reference.

This is the paper's section 3. RFID tags are represented by first-class
**tag references** -- far references in the E / AmbientTalk tradition --
which offer an exclusively asynchronous, retrying, in-order interface to
the intermittently connected tag:

* :class:`~repro.core.reference.TagReference` -- queue + private event
  loop; ``read`` / ``write`` / ``make_read_only`` with success and failure
  listeners; cached synchronous access to the last seen content.
* :class:`~repro.core.factory.TagReferenceFactory` -- guarantees a single
  unique reference per tag within one activity.
* :class:`~repro.core.discovery.TagDiscoverer` -- connectivity tracking
  (``on_tag_detected`` / ``on_tag_redetected``) with MIME filtering and an
  optional ``check_condition`` predicate.
* :class:`~repro.core.nfc_activity.NFCActivity` -- the activity base class
  that captures the platform's NFC intents once, so applications never
  touch intents again.
* :class:`~repro.core.beam.Beamer` / ``BeamReceivedListener`` -- the same
  asynchronous interface for phone-to-phone pushes.
* converters (:mod:`repro.core.converters`) -- per-reference data
  conversion strategies between application objects and NDEF messages.
"""

from repro.core.converters import (
    IdentityConverters,
    JsonToObjectConverter,
    NdefMessageToObjectConverter,
    NdefMessageToStringConverter,
    ObjectToJsonConverter,
    ObjectToNdefMessageConverter,
    StringToNdefMessageConverter,
)
from repro.core.listeners import (
    TagReadFailedListener,
    TagReadListener,
    TagWriteFailedListener,
    TagWrittenListener,
)
from repro.core.operations import Operation, OperationKind, OperationOutcome
from repro.core.reference import TagReference
from repro.core.scheduler import Reactor, ReactorTask
from repro.core.futures import (
    OperationFuture,
    OperationTimeoutError,
    lock_future,
    read_future,
    write_future,
)
from repro.core.factory import TagReferenceFactory
from repro.core.nfc_activity import NFCActivity
from repro.core.discovery import TagDiscoverer
from repro.core.beam import Beamer, BeamReceivedListener

__all__ = [
    "TagReference",
    "TagReferenceFactory",
    "Reactor",
    "ReactorTask",
    "TagDiscoverer",
    "NFCActivity",
    "Beamer",
    "BeamReceivedListener",
    "Operation",
    "OperationKind",
    "OperationOutcome",
    "OperationFuture",
    "OperationTimeoutError",
    "read_future",
    "write_future",
    "lock_future",
    "NdefMessageToObjectConverter",
    "ObjectToNdefMessageConverter",
    "NdefMessageToStringConverter",
    "StringToNdefMessageConverter",
    "JsonToObjectConverter",
    "ObjectToJsonConverter",
    "IdentityConverters",
    "TagReadListener",
    "TagReadFailedListener",
    "TagWrittenListener",
    "TagWriteFailedListener",
]
