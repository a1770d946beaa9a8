"""Transfer latency model.

NFC Type 2 transfers are slow relative to application code -- that is the
whole reason the paper forbids blocking the main thread on them. The
timing model converts a byte count into a latency that the port sleeps on
the *calling* thread (faithful to the blocking Android API; MORENA moves
that block onto the device reactor's loop thread, in the port's
transaction scheduler).

The per-operation cost splits into two physical components:

* **connect** -- field activation, anticollision and tag selection. Paid
  once per transaction on real hardware; the dominant share of the base
  overhead (NFCGate measures it at the large majority of a short
  exchange's wall time).
* **per-op** -- the command/response exchange itself, plus the data
  transfer proportional to the bytes moved.

A standalone operation (``operation_seconds``) pays both. A *batched*
session (see :meth:`NfcAdapterPort.open_session`) pays the connect share
once (``connect_seconds``) and then only the per-op share for each
operation in the window (``batched_operation_seconds``) -- which is
exactly why the per-port transaction scheduler exists. The split is a
refinement, not a change: ``connect_seconds + batched_operation_seconds(n)
== operation_seconds(n)``, so on a local tag a batch of one costs what a
standalone operation does. A relayed tag pays the transport's hop on
every radio round trip, the session's connect included, so its batch of
one costs one hop more than its standalone operation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferTiming:
    """Latency = ``base_seconds`` + ``seconds_per_byte`` * bytes.

    ``connect_share`` is the fraction of ``base_seconds`` spent on
    field activation + anticollision (paid once per batched session);
    the remainder is the per-operation command overhead.
    """

    base_seconds: float = 0.005
    seconds_per_byte: float = 1e-4
    connect_share: float = 0.8

    def operation_seconds(self, byte_count: int) -> float:
        return self.base_seconds + self.seconds_per_byte * max(byte_count, 0)

    @property
    def connect_seconds(self) -> float:
        """One-time cost of connecting to a tag (anticollision + select)."""
        return self.base_seconds * self.connect_share

    @property
    def per_op_seconds(self) -> float:
        """Fixed per-operation overhead inside an open session."""
        return self.base_seconds - self.connect_seconds

    def batched_operation_seconds(self, byte_count: int) -> float:
        """Cost of one operation inside an already-connected session."""
        return self.per_op_seconds + self.seconds_per_byte * max(byte_count, 0)


NO_DELAY = TransferTiming(base_seconds=0.0, seconds_per_byte=0.0)

# Roughly what an NTAG at 106 kbit/s feels like end to end.
NOMINAL = TransferTiming(base_seconds=0.02, seconds_per_byte=1e-4)
