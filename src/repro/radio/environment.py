"""The shared radio world.

An :class:`RfidEnvironment` owns a set of named adapter ports (one per
simulated phone) and tracks which tags are currently inside which port's
field, plus which ports are in Beam range of each other. Scenario scripts
and tests mutate the world through ``move_tag_into_field`` /
``remove_tag_from_field`` / ``tap`` / ``bring_together``; ports observe the
changes through field events. A single-tag move is a bulk move of one:
``move_tag_into_field`` calls ``move_tags_into_field`` with a one-tag
tuple, so every field change reaches a port through
``NfcAdapterPort.dispatch_field_events``.

All mutations are serialized under one lock; event callbacks are invoked
outside the lock (ports post them onto their device's main looper, so the
callback bodies are trivial).

Tag visibility itself is delegated to a pluggable
:class:`~repro.radio.transport.Transport` (local simulated field by
default; NFCGate-style relay and recorded-trace sources are the other
two shipped backends) -- the environment keeps the locking, ownership
checks and event dispatch, the transport answers *which ports see which
tags*.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.clock import Clock, SystemClock
from repro.errors import RadioError
from repro.radio.events import PeerEntered, PeerLeft, TagEntered, TagLeft
from repro.radio.link import LinkModel, link_from_spec
from repro.radio.port import NfcAdapterPort
from repro.radio.timing import NO_DELAY, TransferTiming
from repro.radio.transport import LocalFieldTransport, Transport
from repro.tags.tag import SimulatedTag


class RfidEnvironment:
    """The world every simulated phone and tag lives in."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        timing: TransferTiming = NO_DELAY,
        default_link: Optional[object] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self._clock = clock if clock is not None else SystemClock()
        self._timing = timing
        self._default_link_spec = default_link
        self._lock = threading.RLock()
        self._ports: Dict[str, NfcAdapterPort] = {}
        # Field topology lives in the transport (which ports see which tags).
        self._transport = transport if transport is not None else LocalFieldTransport()
        self._transport.attach(self)
        # unordered pairs of port names in Beam range
        self._proximities: Set[Tuple[str, str]] = set()

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def transport(self) -> Transport:
        return self._transport

    @property
    def timing(self) -> TransferTiming:
        return self._timing

    # -- ports -----------------------------------------------------------------

    def create_port(
        self,
        name: str,
        link: Optional[object] = None,
    ) -> NfcAdapterPort:
        """Create and register the radio port of a new phone."""
        with self._lock:
            if name in self._ports:
                raise RadioError(f"a port named {name!r} already exists")
            model: LinkModel = link_from_spec(
                link if link is not None else self._default_link_spec
            )
            port = NfcAdapterPort(
                name=name,
                environment=self,
                link=model,
                clock=self._clock,
                timing=self._timing,
            )
            self._ports[name] = port
            self._transport.add_port(name)
            return port

    def port(self, name: str) -> NfcAdapterPort:
        with self._lock:
            try:
                return self._ports[name]
            except KeyError:
                raise RadioError(f"no port named {name!r}") from None

    def port_names(self) -> List[str]:
        with self._lock:
            return sorted(self._ports)

    # -- tag/field topology ------------------------------------------------------

    def move_tag_into_field(self, tag: SimulatedTag, port: NfcAdapterPort) -> None:
        """Bring ``tag`` into reading range of ``port`` (idempotent)."""
        self.move_tags_into_field((tag,), port)

    def remove_tag_from_field(self, tag: SimulatedTag, port: NfcAdapterPort) -> None:
        """Take ``tag`` out of range of ``port`` (idempotent)."""
        self.remove_tags_from_field((tag,), port)

    def move_tags_into_field(
        self, tags: Iterable[SimulatedTag], port: NfcAdapterPort
    ) -> int:
        """Bring many tags into ``port``'s field at once (idempotent).

        One lock acquisition for the whole cohort, one event dispatch per
        observing port for the tags that actually entered. Returns how
        many tags were fresh (not already in the field).
        """
        with self._lock:
            self._check_owned(port)
            by_observer = self._transport.insert_many(tags, port.name)
            routed = [
                (self._ports[name], fresh)
                for name, fresh in by_observer.items()
            ]
        for observer, fresh in routed:
            observer.dispatch_field_events([TagEntered(tag) for tag in fresh])
        return len(by_observer.get(port.name, ()))

    def remove_tags_from_field(
        self, tags: Iterable[SimulatedTag], port: NfcAdapterPort
    ) -> int:
        """Take many tags out of ``port``'s field at once (idempotent).

        Returns how many tags were actually present and left.
        """
        with self._lock:
            self._check_owned(port)
            by_observer = self._transport.remove_many(tags, port.name)
            routed = [
                (self._ports[name], gone)
                for name, gone in by_observer.items()
            ]
        for observer, gone in routed:
            observer.dispatch_field_events([TagLeft(tag) for tag in gone])
        return len(by_observer.get(port.name, ()))

    def tag_in_field(self, tag: SimulatedTag, port: NfcAdapterPort) -> bool:
        with self._lock:
            self._check_owned(port)
            return self._transport.sees(port.name, tag)

    def tags_in_field(self, port: NfcAdapterPort) -> List[SimulatedTag]:
        with self._lock:
            self._check_owned(port)
            return self._transport.visible_tags(port.name)

    def field_size(self, port: NfcAdapterPort) -> int:
        """How many tags are currently inside ``port``'s field."""
        with self._lock:
            self._check_owned(port)
            return len(self._transport.visible_tags(port.name))

    def ports_seeing(self, tag: SimulatedTag) -> List[str]:
        with self._lock:
            return self._transport.ports_seeing(tag)

    # -- relayed fields (RelayTransport) ---------------------------------------------

    def pair_fields(self, reader: NfcAdapterPort, remote: NfcAdapterPort) -> int:
        """Relay ``remote``'s physical field to ``reader`` (NFCGate-style).

        Requires a :class:`~repro.radio.transport.RelayTransport`
        backend (``RadioError`` otherwise). Tags already lying in the
        remote field surface as ``TagEntered`` on the reader; returns
        how many did.
        """
        with self._lock:
            self._check_owned(reader)
            self._check_owned(remote)
            fresh = self._transport.link(reader.name, remote.name)
        if fresh:
            reader.dispatch_field_events([TagEntered(tag) for tag in fresh])
        return len(fresh)

    def unpair_fields(self, reader: NfcAdapterPort, remote: NfcAdapterPort) -> int:
        """Stop relaying ``remote``'s field to ``reader``.

        Tags the reader only saw through the relay leave its field
        (``TagLeft``); returns how many left.
        """
        with self._lock:
            self._check_owned(reader)
            self._check_owned(remote)
            gone = self._transport.unlink(reader.name, remote.name)
        if gone:
            reader.dispatch_field_events([TagLeft(tag) for tag in gone])
        return len(gone)

    def transfer_overhead_seconds(
        self, port: NfcAdapterPort, tag: SimulatedTag
    ) -> float:
        """Transport surcharge for one radio round trip (relay hop cost)."""
        with self._lock:
            return self._transport.operation_overhead_seconds(port.name, tag)

    @contextlib.contextmanager
    def tap(self, tag: SimulatedTag, port: NfcAdapterPort) -> Iterator[None]:
        """Scope a tap: tag is in the field inside the ``with`` block only."""
        self.move_tag_into_field(tag, port)
        try:
            yield
        finally:
            self.remove_tag_from_field(tag, port)

    def tap_for(
        self, tag: SimulatedTag, port: NfcAdapterPort, seconds: float
    ) -> threading.Timer:
        """Real-time tap: tag enters now and leaves after ``seconds``.

        Only meaningful with a real clock; returns the removal timer so the
        caller can cancel or join it.
        """
        self.move_tag_into_field(tag, port)
        timer = threading.Timer(
            seconds, self.remove_tag_from_field, args=(tag, port)
        )
        timer.daemon = True
        timer.start()
        return timer

    # -- peer (Beam) topology -----------------------------------------------------

    def bring_together(self, a: NfcAdapterPort, b: NfcAdapterPort) -> None:
        """Put two phones in Beam range of each other (idempotent)."""
        if a is b:
            raise RadioError("a phone cannot be in Beam range of itself")
        with self._lock:
            self._check_owned(a)
            self._check_owned(b)
            pair = self._pair(a.name, b.name)
            if pair in self._proximities:
                return
            self._proximities.add(pair)
        a.dispatch_field_events([PeerEntered(b.name)])
        b.dispatch_field_events([PeerEntered(a.name)])

    def separate(self, a: NfcAdapterPort, b: NfcAdapterPort) -> None:
        """Move two phones out of Beam range (idempotent)."""
        with self._lock:
            pair = self._pair(a.name, b.name)
            if pair not in self._proximities:
                return
            self._proximities.discard(pair)
        a.dispatch_field_events([PeerLeft(b.name)])
        b.dispatch_field_events([PeerLeft(a.name)])

    def peers_of(self, port: NfcAdapterPort) -> List[NfcAdapterPort]:
        with self._lock:
            names = set()
            for one, other in self._proximities:
                if one == port.name:
                    names.add(other)
                elif other == port.name:
                    names.add(one)
            return [self._ports[name] for name in sorted(names)]

    def in_beam_range(self, a: NfcAdapterPort, b: NfcAdapterPort) -> bool:
        with self._lock:
            return self._pair(a.name, b.name) in self._proximities

    # -- reliability hook --------------------------------------------------------------

    def attempt_allowed(self, port: NfcAdapterPort, tag: SimulatedTag) -> bool:
        """Per-attempt veto hook for subclasses.

        The flat environment always allows attempts (the port's link model
        is the only failure source); :class:`repro.radio.geometry.
        SpatialEnvironment` overrides this with distance-dependent
        edge-zone attrition.
        """
        return True

    # -- internals -----------------------------------------------------------------

    def _check_owned(self, port: NfcAdapterPort) -> None:
        if self._ports.get(port.name) is not port:
            raise RadioError(f"port {port.name!r} is not part of this environment")

    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)
