"""Pluggable field transports: where a port's tags actually come from.

An :class:`~repro.radio.environment.RfidEnvironment` used to own its
field topology directly -- one hard-coded ``Dict[port, Set[tag]]``. That
made the simulated local field the *only* possible source of tags, even
though everything above the environment (``TagReference``, the per-port
transaction scheduler, leasing) only ever asks two questions: *which
tags does this port see right now* and *tell me when that changes*.

This module is the seam that answers those questions. A
:class:`Transport` owns the tag-visibility state of every port in one
environment; the environment delegates all field reads and mutations to
it and keeps doing what it always did with the answers (dispatch
``TagEntered``/``TagLeft`` to the observing ports). Every mutation is a
bulk one: :meth:`Transport.insert_many` and :meth:`Transport.remove_many`
take any number of tags (a single-tag move passes a one-tag tuple) and
map each observer port to the tags it newly sees or stopped seeing.
Three implementations ship:

* :class:`LocalFieldTransport` -- today's simulated field, the
  behavior-preserving default. A tag is visible to exactly the port
  whose field it was moved into.
* :class:`RelayTransport` -- NFCGate-style relaying: a *reader* port is
  linked to a *remote* port, and from then on services tags physically
  present in the remote port's field as if they were in its own. A
  ``TagReference`` on device A transparently reads, writes and leases a
  tag lying on device B's bench; each relayed radio round trip pays a
  configurable network-hop latency on top of the normal transfer model.
* :class:`TraceTransport` -- a recorded trace is the *only* field
  source. Direct topology mutations are rejected; calling
  :meth:`TraceTransport.play` applies the recorded transitions (clock-
  deterministically, via :class:`~repro.radio.trace.TraceReplayer`), so
  a captured field history replays as a sealed, byte-for-byte
  reproducible scenario.

Locking contract: every method except :meth:`Transport.attach` and the
playback entry points is called by the environment *under its lock*;
transports keep no locks of their own and must not call back into the
environment from those methods.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.errors import RadioError
from repro.tags.tag import SimulatedTag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.environment import RfidEnvironment
    from repro.radio.trace import TraceEvent


class Transport:
    """Field-visibility backend of one :class:`RfidEnvironment`.

    Subclasses override the topology methods; the base class provides
    attachment bookkeeping and the defaults shared by every transport
    (no relaying, no per-operation overhead).
    """

    def __init__(self) -> None:
        self._env: Optional["RfidEnvironment"] = None

    # -- lifecycle ----------------------------------------------------------------

    def attach(self, env: "RfidEnvironment") -> None:
        """Bind this transport to its environment (exactly once)."""
        if self._env is not None and self._env is not env:
            raise RadioError("a transport cannot serve two environments")
        self._env = env

    @property
    def environment(self) -> "RfidEnvironment":
        if self._env is None:
            raise RadioError("transport is not attached to an environment")
        return self._env

    def add_port(self, name: str) -> None:
        """Register a newly created port (called under the env lock)."""
        raise NotImplementedError

    # -- topology mutations (under the env lock) -----------------------------------

    def insert_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        """Put ``tags`` into ``port_name``'s physical field.

        Maps each observer port's name to the tags it *newly* sees (no
        entry when it sees none); the environment dispatches one
        ``TagEntered`` per tag to each.
        """
        raise NotImplementedError

    def remove_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        """Take ``tags`` out of ``port_name``'s physical field.

        Maps each observer port's name to the tags it stopped seeing.
        """
        raise NotImplementedError

    # -- topology queries (under the env lock) ---------------------------------------

    def sees(self, port_name: str, tag: SimulatedTag) -> bool:
        """Whether ``port_name`` currently services ``tag``."""
        raise NotImplementedError

    def visible_tags(self, port_name: str) -> List[SimulatedTag]:
        """Every tag ``port_name`` currently services."""
        raise NotImplementedError

    def ports_seeing(self, tag: SimulatedTag) -> List[str]:
        """Sorted names of every port that services ``tag``."""
        raise NotImplementedError

    # -- per-operation cost hook -----------------------------------------------------

    def operation_overhead_seconds(
        self, port_name: str, tag: SimulatedTag
    ) -> float:
        """Extra latency this transport adds to one radio round trip."""
        return 0.0

    # -- relaying (RelayTransport only) ------------------------------------------------

    def link(self, reader_name: str, remote_name: str) -> List[SimulatedTag]:
        raise RadioError(
            f"{type(self).__name__} does not support field relaying"
        )

    def unlink(self, reader_name: str, remote_name: str) -> List[SimulatedTag]:
        raise RadioError(
            f"{type(self).__name__} does not support field relaying"
        )


class LocalFieldTransport(Transport):
    """The default: each port sees exactly its own simulated field."""

    def __init__(self) -> None:
        super().__init__()
        self._fields: Dict[str, Set[SimulatedTag]] = {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ports={sorted(self._fields)})"

    def add_port(self, name: str) -> None:
        self._fields.setdefault(name, set())

    def _field(self, port_name: str) -> Set[SimulatedTag]:
        try:
            return self._fields[port_name]
        except KeyError:
            raise RadioError(f"no port named {port_name!r}") from None

    # -- mutations ---------------------------------------------------------------

    def insert_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        field = self._field(port_name)
        fresh = [tag for tag in tags if tag not in field]
        if not fresh:
            return {}
        observers = self._observers_of(port_name)
        # An observer that already sees a tag through another path (its
        # own field, another relayed remote) gets no second event for it.
        already = {
            name: {tag for tag in fresh if self.sees(name, tag)}
            for name in observers
        }
        field.update(fresh)
        out: Dict[str, List[SimulatedTag]] = {}
        for name in observers:
            new = [tag for tag in fresh if tag not in already[name]]
            if new:
                out[name] = new
        return out

    def remove_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        field = self._field(port_name)
        present = [tag for tag in tags if tag in field]
        field.difference_update(present)
        if not present:
            return {}
        out: Dict[str, List[SimulatedTag]] = {}
        for name in self._observers_of(port_name):
            gone = [tag for tag in present if not self.sees(name, tag)]
            if gone:
                out[name] = gone
        return out

    # -- queries -----------------------------------------------------------------

    def sees(self, port_name: str, tag: SimulatedTag) -> bool:
        return tag in self._field(port_name)

    def visible_tags(self, port_name: str) -> List[SimulatedTag]:
        return list(self._field(port_name))

    def ports_seeing(self, tag: SimulatedTag) -> List[str]:
        return sorted(
            name for name in self._fields if self.sees(name, tag)
        )

    # -- internals ------------------------------------------------------------------

    def _observers_of(self, port_name: str) -> List[str]:
        """Ports whose visibility is affected by ``port_name``'s field."""
        return [port_name]


class RelayTransport(LocalFieldTransport):
    """NFCGate-style field relaying between ports of one environment.

    Physical fields behave exactly as in :class:`LocalFieldTransport`;
    on top of them, a *reader* port can be linked to one or more
    *remote* ports, after which the reader also services every tag
    physically present in those remote fields. Relayed radio round trips
    cost ``latency_seconds`` extra each (the network hop), applied by
    the port's latency model through
    :meth:`operation_overhead_seconds` -- batching via the per-port
    transaction scheduler amortizes connects exactly as it does locally.

    Link management goes through
    :meth:`RfidEnvironment.pair_fields` /
    :meth:`RfidEnvironment.unpair_fields` so that tags already present
    on the remote side surface as ``TagEntered`` events on the reader
    (and symmetric ``TagLeft`` on unlink).
    """

    def __init__(self, latency_seconds: float = 0.0) -> None:
        super().__init__()
        if latency_seconds < 0:
            raise RadioError("relay latency must be >= 0")
        self.latency_seconds = latency_seconds
        # remote port -> readers servicing its field, and the inverse.
        self._readers_of: Dict[str, Set[str]] = {}
        self._remotes_of: Dict[str, Set[str]] = {}

    def __repr__(self) -> str:
        pairs = sorted(
            (reader, remote)
            for remote, readers in self._readers_of.items()
            for reader in readers
        )
        return f"RelayTransport(pairs={pairs}, latency={self.latency_seconds})"

    # -- link management (under the env lock, via the environment) ----------------

    def link(self, reader_name: str, remote_name: str) -> List[SimulatedTag]:
        """Relay ``remote_name``'s field to ``reader_name``.

        Returns the tags that newly became visible to the reader.
        """
        if reader_name == remote_name:
            raise RadioError("a port cannot relay its own field")
        self._field(reader_name)  # existence checks
        self._field(remote_name)
        readers = self._readers_of.setdefault(remote_name, set())
        if reader_name in readers:
            return []
        before = set(self.visible_tags(reader_name))
        readers.add(reader_name)
        self._remotes_of.setdefault(reader_name, set()).add(remote_name)
        return [
            tag for tag in self.visible_tags(reader_name) if tag not in before
        ]

    def unlink(self, reader_name: str, remote_name: str) -> List[SimulatedTag]:
        """Stop relaying; returns the tags the reader no longer sees."""
        readers = self._readers_of.get(remote_name, set())
        if reader_name not in readers:
            return []
        before = set(self.visible_tags(reader_name))
        readers.discard(reader_name)
        self._remotes_of.get(reader_name, set()).discard(remote_name)
        after = set(self.visible_tags(reader_name))
        return [tag for tag in before if tag not in after]

    def relayed_pairs(self) -> List[tuple]:
        """Sorted ``(reader, remote)`` pairs currently linked."""
        return sorted(
            (reader, remote)
            for remote, readers in self._readers_of.items()
            for reader in readers
        )

    # -- topology ---------------------------------------------------------------

    def sees(self, port_name: str, tag: SimulatedTag) -> bool:
        if super().sees(port_name, tag):
            return True
        return any(
            tag in self._fields[remote]
            for remote in self._remotes_of.get(port_name, ())
            if remote in self._fields
        )

    def visible_tags(self, port_name: str) -> List[SimulatedTag]:
        seen = set(self._field(port_name))
        for remote in self._remotes_of.get(port_name, ()):
            seen.update(self._fields.get(remote, ()))
        return list(seen)

    def _observers_of(self, port_name: str) -> List[str]:
        names = [port_name]
        names.extend(sorted(self._readers_of.get(port_name, ())))
        return names

    # -- relay cost ---------------------------------------------------------------

    def operation_overhead_seconds(
        self, port_name: str, tag: SimulatedTag
    ) -> float:
        """The network hop: paid only when the tag is serviced remotely."""
        if tag in self._fields.get(port_name, ()):
            return 0.0
        if self.sees(port_name, tag):
            return self.latency_seconds
        return 0.0


class TraceTransport(LocalFieldTransport):
    """A recorded trace as the one and only field source.

    Direct topology mutations (``move_tag_into_field`` and friends)
    raise: the point of replaying a capture is that nothing *but* the
    capture drives the field. :meth:`play` applies the recorded events
    through a clock-deterministic
    :class:`~repro.radio.trace.TraceReplayer`, so under a
    :class:`~repro.clock.ManualClock` every run delivers the same events
    at the same virtual timestamps.
    """

    def __init__(
        self,
        events: Iterable["TraceEvent"],
        tags_by_uid: Dict[str, SimulatedTag],
    ) -> None:
        super().__init__()
        self._events: List["TraceEvent"] = list(events)
        self._tags_by_uid = dict(tags_by_uid)
        self._cursor = 0
        self._playing = False
        self._replayer = None  # one replayer = one timeline position

    @classmethod
    def from_json(
        cls, text: str, tags_by_uid: Dict[str, SimulatedTag]
    ) -> "TraceTransport":
        from repro.radio.trace import trace_from_json

        return cls(trace_from_json(text), tags_by_uid)

    def __repr__(self) -> str:
        return (
            f"TraceTransport(events={len(self._events)}, "
            f"cursor={self._cursor})"
        )

    @property
    def remaining_events(self) -> int:
        return len(self._events) - self._cursor

    # -- the gate ---------------------------------------------------------------

    def _require_playback(self) -> None:
        if not self._playing:
            raise RadioError(
                "this environment's field is driven by a recorded trace; "
                "use TraceTransport.play()/step() instead of mutating it"
            )

    def insert_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        self._require_playback()
        return super().insert_many(tags, port_name)

    def remove_many(
        self, tags: Iterable[SimulatedTag], port_name: str
    ) -> Dict[str, List[SimulatedTag]]:
        self._require_playback()
        return super().remove_many(tags, port_name)

    # -- playback ------------------------------------------------------------------

    def play(self, count: Optional[int] = None) -> int:
        """Apply the next ``count`` recorded events (all when ``None``).

        Time between events is driven through the environment's clock
        exactly as :meth:`TraceReplayer.replay` does -- a
        ``ManualClock`` advances by the recorded deltas, a real clock
        replays instantly. Returns how many events were applied.
        """
        from repro.radio.trace import TraceReplayer

        env = self.environment
        remaining = self._events[self._cursor :]
        if count is not None:
            remaining = remaining[:count]
        if not remaining:
            return 0
        # The replayer persists across play()/step() calls: it tracks the
        # recorded timeline position, so stepping never re-pays earlier
        # events' absolute timestamps as fresh clock advances.
        if self._replayer is None:
            self._replayer = TraceReplayer(env, self._tags_by_uid)
        self._playing = True
        try:
            applied = self._replayer.replay(remaining)
        finally:
            self._playing = False
        self._cursor += applied
        return applied

    def step(self) -> int:
        """Apply exactly the next recorded event (0 when exhausted)."""
        return self.play(1)
