"""The fleet gateway: the in-process server side MORENA devices report to.

Devices push tag scan/save/lease events through a batching, coalescing,
bounded :class:`GatewayReporter`; N hash-sharded ingestion queues drain
them on the reactor's loop and maintain
materialized fleet views — per-tag travel history, per-station
throughput windows, and a lease-contention leaderboard — whose global
snapshot is a lock-light merge of per-shard state. See
``docs/API_TOUR.md`` §17 and ``DESIGN.md`` decision 17.

Quickstart::

    from repro.clock import ManualClock
    from repro.core.scheduler import Reactor
    from repro.gateway import FleetGateway, GatewayReporter

    clock = ManualClock()
    reactor = Reactor(clock=clock, name="gateway")
    gateway = FleetGateway(reactor, clock=clock, shards=4)
    reporter = GatewayReporter(gateway, station="gate-0")
    reporter.record("scan", "04a1b2c3", detail="detected")
    reporter.flush()
    gateway.drain()
    print(gateway.snapshot().as_dict())
"""

from repro.gateway.events import EVENT_KINDS, LEASE_KINDS, ScanEvent, shard_of
from repro.gateway.gateway import FleetGateway, GatewaySnapshot
from repro.gateway.reporter import GatewayReporter
from repro.gateway.shard import IngestShard
from repro.gateway.sim import (
    FleetSimStats,
    make_fleet_reporters,
    simulate_fleet,
)
from repro.gateway.views import LeaseBoard, StationWindow, TravelHistory

__all__ = [
    "EVENT_KINDS",
    "LEASE_KINDS",
    "ScanEvent",
    "shard_of",
    "FleetGateway",
    "GatewaySnapshot",
    "GatewayReporter",
    "IngestShard",
    "FleetSimStats",
    "make_fleet_reporters",
    "simulate_fleet",
    "LeaseBoard",
    "StationWindow",
    "TravelHistory",
]
