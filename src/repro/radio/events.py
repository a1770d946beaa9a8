"""Field events emitted by the radio environment to adapter ports."""

from __future__ import annotations

from dataclasses import dataclass

from repro.tags.tag import SimulatedTag


@dataclass(frozen=True)
class FieldEvent:
    """Base class for radio-field events."""


@dataclass(frozen=True)
class TagFieldEvent(FieldEvent):
    """Base class for events about one specific tag.

    The ``tag`` attribute lets the device's transaction scheduler route
    these to the references of exactly that tag, found in its per-tag
    dict, instead of fanning every event out to every reference -- with
    thousands of tag references per port, per-event cost stays O(1)
    in the number of references.
    """

    tag: SimulatedTag


@dataclass(frozen=True)
class TagEntered(TagFieldEvent):
    """A tag came into the reading range of a port."""


@dataclass(frozen=True)
class TagLeft(TagFieldEvent):
    """A tag left the reading range of a port."""


@dataclass(frozen=True)
class PeerEntered(FieldEvent):
    """Another phone came into Beam range of a port."""

    peer_name: str


@dataclass(frozen=True)
class PeerLeft(FieldEvent):
    """A peer phone left Beam range of a port."""

    peer_name: str
