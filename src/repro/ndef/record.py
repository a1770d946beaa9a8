"""NDEF records: the unit of the NFC Data Exchange Format.

An NDEF record on the wire is::

    [header byte][type length][payload length (1 or 4 bytes)]
    [id length (optional)][type][id][payload]

The header byte packs five flags and the 3-bit Type Name Format (TNF):

====  ======================================================================
bit   meaning
====  ======================================================================
0x80  MB  message begin -- set on the first record of a message
0x40  ME  message end   -- set on the last record of a message
0x20  CF  chunk flag    -- set on every chunk of a chunked record but the last
0x10  SR  short record  -- payload length is 1 byte instead of 4
0x08  IL  id length present
0x07  TNF type name format
====  ======================================================================

This module implements encoding and decoding of single records, including
the record-level validity rules of the specification (empty records carry
nothing, unknown-type records carry no type, unchanged TNF only appears in
middle chunks, ...). Message-level framing (MB/ME placement, chunk
reassembly) lives in :mod:`repro.ndef.message`.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.errors import NdefDecodeError, NdefEncodeError, NdefValidationError

FLAG_MB = 0x80
FLAG_ME = 0x40
FLAG_CF = 0x20
FLAG_SR = 0x10
FLAG_IL = 0x08
TNF_MASK = 0x07

MAX_TYPE_LENGTH = 0xFF
MAX_ID_LENGTH = 0xFF
MAX_SHORT_PAYLOAD = 0xFF
MAX_PAYLOAD_LENGTH = 0xFFFFFFFF


class EncodeStats:
    """Process-wide encode-cache telemetry for records and messages.

    Bumped from every thread that encodes (reactor loops, beamer and
    looper threads, benches), so the counters are guarded by a lock --
    ``hit()``/``miss()`` are the increments, ``hits``/``misses`` and
    ``snapshot()`` the consistent reads.
    """

    __slots__ = ("_lock", "_hits", "_misses")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def hit(self) -> None:
        with self._lock:
            self._hits += 1

    def miss(self) -> None:
        with self._lock:
            self._misses += 1

    def reset(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def snapshot(self) -> Tuple[int, int]:
        """(hits, misses) read atomically -- use when comparing both."""
        with self._lock:
            return self._hits, self._misses

    @property
    def hit_ratio(self) -> float:
        hits, misses = self.snapshot()
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:
        hits, misses = self.snapshot()
        return f"EncodeStats(hits={hits}, misses={misses})"


#: Shared by :meth:`NdefRecord.to_bytes` and ``NdefMessage.to_bytes``.
ENCODE_STATS = EncodeStats()


class Tnf(enum.IntEnum):
    """Type Name Format values (NDEF specification section 3.2.6)."""

    EMPTY = 0x00
    WELL_KNOWN = 0x01
    MIME_MEDIA = 0x02
    ABSOLUTE_URI = 0x03
    EXTERNAL = 0x04
    UNKNOWN = 0x05
    UNCHANGED = 0x06
    RESERVED = 0x07


@dataclass(frozen=True)
class NdefRecord:
    """One NDEF record (logical, i.e. after chunk reassembly).

    Instances are immutable and validated at construction time. ``type``
    and ``id`` and ``payload`` are raw bytes; well-known helpers in
    :mod:`repro.ndef.rtd` construct them for the common record types.
    """

    tnf: Tnf
    type: bytes = b""
    id: bytes = b""
    payload: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tnf", Tnf(self.tnf))
        object.__setattr__(self, "type", bytes(self.type))
        object.__setattr__(self, "id", bytes(self.id))
        object.__setattr__(self, "payload", bytes(self.payload))
        self._validate()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def empty() -> "NdefRecord":
        """The canonical empty record (what a freshly formatted tag holds)."""
        return NdefRecord(Tnf.EMPTY)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if len(self.type) > MAX_TYPE_LENGTH:
            raise NdefValidationError("record type exceeds 255 bytes")
        if len(self.id) > MAX_ID_LENGTH:
            raise NdefValidationError("record id exceeds 255 bytes")
        if len(self.payload) > MAX_PAYLOAD_LENGTH:
            raise NdefValidationError("record payload exceeds 2**32 - 1 bytes")
        if self.tnf == Tnf.EMPTY:
            if self.type or self.id or self.payload:
                raise NdefValidationError(
                    "EMPTY records must have empty type, id and payload"
                )
        elif self.tnf == Tnf.UNKNOWN:
            if self.type:
                raise NdefValidationError("UNKNOWN records must not carry a type")
        elif self.tnf == Tnf.UNCHANGED:
            raise NdefValidationError(
                "UNCHANGED is only valid inside chunked records on the wire"
            )
        elif self.tnf == Tnf.RESERVED:
            raise NdefValidationError("RESERVED TNF must not be used")
        elif not self.type and self.tnf in (
            Tnf.WELL_KNOWN,
            Tnf.MIME_MEDIA,
            Tnf.ABSOLUTE_URI,
            Tnf.EXTERNAL,
        ):
            raise NdefValidationError(f"TNF {self.tnf.name} requires a non-empty type")

    @property
    def is_empty(self) -> bool:
        return self.tnf == Tnf.EMPTY

    # -- encoding ------------------------------------------------------------

    def to_bytes(self, message_begin: bool = True, message_end: bool = True) -> bytes:
        """Encode this record with the given MB/ME flag placement.

        Records are immutable, so the encoded bytes are memoized per
        MB/ME variant: retries, re-taps and repeated framing of the same
        record pay the encode cost exactly once.
        """
        cache = self.__dict__.get("_encoded")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_encoded", cache)
        key = (message_begin, message_end)
        data = cache.get(key)
        if data is not None:
            ENCODE_STATS.hit()
            return data
        ENCODE_STATS.miss()
        data = encode_record_raw(
            tnf=self.tnf,
            type_=self.type,
            id_=self.id,
            payload=self.payload,
            message_begin=message_begin,
            message_end=message_end,
            chunk_flag=False,
        )
        cache[key] = data
        return data

    def to_chunks(
        self,
        chunk_size: int,
        message_begin: bool = True,
        message_end: bool = True,
    ) -> bytes:
        """Encode this record as a chunked record with ``chunk_size`` payload chunks.

        The first chunk carries the real TNF and type; subsequent chunks use
        TNF ``UNCHANGED`` with an empty type, per the specification. Used by
        tests to exercise the decoder's reassembly path and by the radio
        layer to model partial transfers.
        """
        if chunk_size <= 0:
            raise NdefEncodeError("chunk_size must be positive")
        if self.tnf == Tnf.EMPTY:
            raise NdefEncodeError("EMPTY records cannot be chunked")
        if not self.payload:
            # range(0, 0, chunk_size) yields nothing: a zero-length
            # payload must still encode as one valid (empty) chunk
            # instead of emitting zero records.
            pieces: List[bytes] = [b""]
        else:
            pieces = [
                self.payload[i : i + chunk_size]
                for i in range(0, len(self.payload), chunk_size)
            ]
        if len(pieces) == 1:
            return self.to_bytes(message_begin, message_end)
        out = bytearray()
        last_index = len(pieces) - 1
        for index, piece in enumerate(pieces):
            first = index == 0
            last = index == last_index
            out += encode_record_raw(
                tnf=self.tnf if first else Tnf.UNCHANGED,
                type_=self.type if first else b"",
                id_=self.id if first else b"",
                payload=piece,
                message_begin=message_begin and first,
                message_end=message_end and last,
                chunk_flag=not last,
            )
        return bytes(out)

    def __len__(self) -> int:
        """Encoded size in bytes (unchunked, flags irrelevant to size)."""
        short = len(self.payload) <= MAX_SHORT_PAYLOAD
        size = 2 + (1 if short else 4) + len(self.type) + len(self.payload)
        if self.id:
            size += 1 + len(self.id)
        return size


def encode_record_raw(
    tnf: int,
    type_: bytes,
    id_: bytes,
    payload: bytes,
    message_begin: bool,
    message_end: bool,
    chunk_flag: bool,
) -> bytes:
    """Encode one on-the-wire record (possibly a chunk) to bytes."""
    if len(type_) > MAX_TYPE_LENGTH:
        raise NdefEncodeError("type too long")
    if len(id_) > MAX_ID_LENGTH:
        raise NdefEncodeError("id too long")
    if len(payload) > MAX_PAYLOAD_LENGTH:
        raise NdefEncodeError("payload too long")
    short = len(payload) <= MAX_SHORT_PAYLOAD
    header = int(tnf) & TNF_MASK
    if message_begin:
        header |= FLAG_MB
    if message_end:
        header |= FLAG_ME
    if chunk_flag:
        header |= FLAG_CF
    if short:
        header |= FLAG_SR
    if id_:
        header |= FLAG_IL
    out = bytearray()
    out.append(header)
    out.append(len(type_))
    if short:
        out.append(len(payload))
    else:
        out += len(payload).to_bytes(4, "big")
    if id_:
        out.append(len(id_))
    out += type_
    out += id_
    out += payload
    return bytes(out)


@dataclass
class RawRecord:
    """A decoded on-the-wire record before chunk reassembly."""

    tnf: int
    type: bytes
    id: bytes
    payload: bytes
    message_begin: bool
    message_end: bool
    chunk_flag: bool
    offset: int = field(default=0)


def iter_raw_records(data: bytes) -> Iterator[RawRecord]:
    """Decode the raw (possibly chunked) records of an NDEF byte sequence.

    Raises :class:`NdefDecodeError` on truncation or malformed headers.
    """
    view = memoryview(data)
    offset = 0
    total = len(view)
    if total == 0:
        raise NdefDecodeError("empty byte sequence is not an NDEF message")
    while offset < total:
        record, offset = _decode_one(view, offset)
        yield record


def _decode_one(view: memoryview, offset: int) -> Tuple[RawRecord, int]:
    start = offset
    total = len(view)

    def need(count: int) -> None:
        if offset + count > total:
            raise NdefDecodeError(
                f"truncated NDEF record at byte {start}: "
                f"need {count} more bytes at offset {offset}, have {total - offset}"
            )

    need(2)
    header = view[offset]
    tnf = header & TNF_MASK
    if tnf == Tnf.RESERVED:
        raise NdefDecodeError(f"record at byte {start} uses reserved TNF 0x07")
    type_length = view[offset + 1]
    offset += 2
    if header & FLAG_SR:
        need(1)
        payload_length = view[offset]
        offset += 1
    else:
        need(4)
        payload_length = int.from_bytes(view[offset : offset + 4], "big")
        offset += 4
    id_length = 0
    if header & FLAG_IL:
        need(1)
        id_length = view[offset]
        offset += 1
    need(type_length)
    type_ = bytes(view[offset : offset + type_length])
    offset += type_length
    need(id_length)
    id_ = bytes(view[offset : offset + id_length])
    offset += id_length
    need(payload_length)
    payload = bytes(view[offset : offset + payload_length])
    offset += payload_length
    record = RawRecord(
        tnf=tnf,
        type=type_,
        id=id_,
        payload=payload,
        message_begin=bool(header & FLAG_MB),
        message_end=bool(header & FLAG_ME),
        chunk_flag=bool(header & FLAG_CF),
        offset=start,
    )
    return record, offset
