"""``fleet_ingest``: the fleet gateway alone, open loop at a fixed offered rate.

A seeded ``turnstile_rush`` over 10,000 stations is replayed in real
time: every group entering a station's field records one ``scan`` per
tag through that station's ``GatewayReporter`` (default settings, on the
gateway's reactor), which feed a 4-shard ``FleetGateway``. Batches are
small and stations many, so per-batch view cost shows, and so do queue
wait and the dashboard reads (``FleetGateway.snapshot()``, sampled at a
fixed period) running beside ingestion. Every group due inside the
timed window is a probe: the generator polls ``travel_history`` to see
when each of its events becomes visible.
The generator times every group from when it was due, so a stall counts
against the groups behind it, and it reports how late it ran.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Tuple

from statistics import median

from common import Check, PhaseResult, RunResult, Window, Windows, built_scenario, percentile

from repro.core.scheduler import Reactor
from repro.gateway.events import ScanEvent, shard_of
from repro.gateway.gateway import FleetGateway
from repro.gateway.reporter import GatewayReporter
from repro.harness.crowd import turnstile_rush

STATIONS = 10_000
TAGS = 20_000
SHARDS = 4
RATE = 200.0  # offered events per second
GROUP = (1, 4)  # tags per arriving group; mean 2.5
QUERY_PERIOD_S = 2.0
BACKLOG_PERIOD_S = 0.25
POLL_PERIOD_S = 0.005  # visibility poll; fewer polls leave the dashboard more of the lock
SETUP_REPEATS = 5
WARMUP_S = 2.0
WINDOW_S = 6.0
DRAIN_S = 30.0
SAMPLED_TAGS = 200

META = {"offered_events_per_s": RATE, "stations": STATIONS, "shards": SHARDS}


def uid_of(tag_index: int) -> str:
    return f"tag-{tag_index:06d}"


class FleetIngest:
    """The gateway, its reporters and the seeded schedule to replay."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.rng = random.Random(seed)
        self.reactor = Reactor(name="gateway", mode="asyncio")
        self.gateway = FleetGateway(self.reactor, shards=SHARDS)
        self.reporters = [
            GatewayReporter(self.gateway, f"station-{index:05d}", reactor=self.reactor)
            for index in range(STATIONS)
        ]
        mean_group = (GROUP[0] + GROUP[1]) / 2.0
        schedule = turnstile_rush(
            STATIONS, TAGS,
            duration_seconds=WARMUP_S + seconds,
            arrivals_per_second=RATE / mean_group,
            group_size=GROUP,
            seed=self.rng.getrandbits(32),
        )
        self.arrivals = [event for event in schedule if event.enter]
        # A fleet that has been running: every station already has a
        # window in the views, so a dashboard read costs the same from the
        # first sample to the last.
        now = self.gateway.clock.now()
        primer = [ScanEvent("scan", f"prime-{index:05d}", reporter.station, now)
                  for index, reporter in enumerate(self.reporters)]
        self.primed = len(primer)
        self.gateway.submit_batch(primer)
        if not self.gateway.drain(timeout=DRAIN_S):
            raise RuntimeError("fleet_ingest set-up: priming did not drain")

    def close(self) -> None:
        for reporter in self.reporters:
            reporter.close()
        self.gateway.close()
        self.reactor.stop()

    def backlog(self) -> int:
        pending = sum(reporter.pending for reporter in self.reporters)
        return pending + sum(shard.queue_depth for shard in self.gateway.shards)

    def monitor(self, start: float, end: float, queries: List[float],
                backlog: List[Tuple[float, int]]) -> threading.Thread:
        """The dashboard: a second client that samples ``snapshot()`` and
        the backlog at fixed periods while the generator replays."""

        def sample() -> None:
            next_query = start
            next_backlog = start
            while True:
                now = time.perf_counter()
                if now >= end:
                    return
                if now >= next_query:
                    self.gateway.snapshot()
                    queries.append(time.perf_counter() - now)
                    next_query += QUERY_PERIOD_S
                if now >= next_backlog:
                    backlog.append((now - start, self.backlog()))
                    next_backlog += BACKLOG_PERIOD_S
                time.sleep(max(0.0, min(next_query, next_backlog) - time.perf_counter()))

        thread = threading.Thread(target=sample, name="dashboard", daemon=True)
        thread.start()
        return thread

    def replay(self, seconds: float, tracer=None) -> Tuple[PhaseResult, List[Check]]:
        """Replay the schedule in real time; every group due inside the
        window is a probe group whose visibility the generator polls."""
        phase = PhaseResult()
        gateway = self.gateway
        reporters = self.reporters
        scans: Dict[str, int] = {}  # uid -> scans recorded so far
        last_station: Dict[str, str] = {}
        # One FIFO of pending probes per shard: a shard applies what it is
        # given in order, so only the head of each FIFO needs polling.
        # Entries are (uid, scans needed, group); a group is
        # [due, members still invisible]. Latency runs from when the group
        # was due, so generator lateness counts against it.
        fifos: List[Deque[tuple]] = [deque() for _ in range(SHARDS)]
        groups: List[list] = []
        lateness: List[float] = []
        backlog: List[Tuple[float, int]] = []
        base = time.perf_counter()
        window_start = base + WARMUP_S
        end = window_start + seconds
        next_poll = base
        dashboard = None
        window = windows = None
        before = after = None
        arrivals = self.arrivals
        count = len(arrivals)
        i = 0
        while i < count or any(fifos):
            now = time.perf_counter()
            if window is None and now >= window_start:
                window = Window()
                windows = Windows(phase, WINDOW_S, window.wall_start, seconds)
                before = gateway.telemetry()
                dashboard = self.monitor(now, end, phase.queries_s, backlog)
                if tracer is not None:
                    tracer.begin({"gateway": gateway, "reactors": [self.reactor]})
            if now >= next_poll:
                for fifo in fifos:
                    while fifo:
                        uid, needed, group = fifo[0]
                        history = gateway.travel_history(uid)
                        if history is None or history["scans"] < needed:
                            break
                        fifo.popleft()
                        phase.ops += 1
                        phase.latencies.append((now, now - group[0]))
                        group[1] -= 1
                        if group[1] == 0:
                            phase.holds.append((now, now - group[0]))
                next_poll = now + POLL_PERIOD_S
            if windows is not None and i < count:
                windows.tick(now)
            if i < count:
                due = base + arrivals[i].at_seconds
                if now < due:
                    time.sleep(min(due - now, POLL_PERIOD_S))
                    continue
                while i < count and base + arrivals[i].at_seconds <= now:
                    event = arrivals[i]
                    due = base + event.at_seconds
                    reporter = reporters[event.device_index]
                    probe = window is not None and due < end
                    if probe:
                        group = [due, len(event.tag_indices)]
                        groups.append(group)
                    recorded_at = time.perf_counter()
                    for tag_index in event.tag_indices:
                        uid = uid_of(tag_index)
                        reporter.record("scan", uid, detail="detected")
                        seen = scans[uid] = scans.get(uid, 0) + 1
                        last_station[uid] = reporter.station
                        if probe:
                            fifos[shard_of(uid, SHARDS)].append((uid, seen, group))
                    if window is not None:
                        lateness.append(recorded_at - due)
                    i += 1
                if i == count:
                    window.close()
                    after = gateway.telemetry()
                    if tracer is not None:
                        tracer.end({"gateway": gateway, "reactors": [self.reactor]}, phase)
            else:
                if time.perf_counter() - end > DRAIN_S:
                    break
                time.sleep(POLL_PERIOD_S)

        dashboard.join()
        ingested = after["events_ingested"] - before["events_ingested"]
        dropped = sum(after[k] - before[k] for k in (
            "events_dropped_queue", "events_dropped_reporter", "events_dropped_streams"))
        phase.attempted = ingested + dropped
        phase.failed = dropped
        phase.wall_s = window.wall_s
        phase.cpu_s = window.cpu_s
        phase.validity.update(self._validity(lateness, backlog))
        unseen = sum(len(fifo) for fifo in fifos)
        checks = self._checks(len(groups), unseen, scans, last_station)
        return phase, checks

    @staticmethod
    def _validity(lateness: List[float], backlog: List[Tuple[float, int]]) -> dict:
        depths = [depth for _, depth in backlog]
        third = max(1, len(depths) // 3)
        first = median(depths[:third])
        last = median(depths[-third:])
        # Reporter buffers hold about rate x flush interval events in a
        # steady state; a backlog that doubles (plus slack) is growing.
        growing = last > 2.0 * first + 512
        return {
            "generator_late_p50_ms": 1000.0 * percentile(lateness, 50),
            "generator_late_p99_ms": 1000.0 * percentile(lateness, 99),
            "generator_late_max_ms": 1000.0 * max(lateness),
            "backlog_samples": backlog,
            "backlog_first_third_median": first,
            "backlog_last_third_median": last,
            "backlog_growing": growing,
            "valid": not growing,
        }

    def _checks(self, probe_groups: int, unseen: int, scans, last_station) -> List[Check]:
        for reporter in self.reporters:
            reporter.flush()
        drained = self.gateway.drain(timeout=DRAIN_S)
        telemetry = self.gateway.telemetry()
        shards = telemetry["per_shard"]
        recorded = sum(reporter.recorded for reporter in self.reporters)
        submitted = sum(s["submitted"] for s in shards)
        reporter_ok = (recorded + self.primed
                       == submitted + telemetry["events_dropped_reporter"])
        queue_ok = submitted == sum(s["ingested"] + s["dropped"] for s in shards)
        checks = [Check(
            "recorded == ingested + dropped at each level",
            drained and reporter_ok and queue_ok,
            f"recorded {recorded} + primed {self.primed}, submitted {submitted}, "
            f"reporter drops {telemetry['events_dropped_reporter']}, "
            f"ingested {telemetry['events_ingested']}, "
            f"queue drops {telemetry['events_dropped_queue']}",
        )]
        checks.append(Check("every probe becomes visible", unseen == 0 and probe_groups > 0,
                            f"{unseen} probe events of {probe_groups} groups never visible"))
        uids = sorted(last_station)
        sample = self.rng.sample(uids, min(SAMPLED_TAGS, len(uids)))
        wrong = []
        for uid in sample:
            history = self.gateway.travel_history(uid)
            station = history["current_station"] if history else None
            if station != last_station[uid] or history["scans"] != scans[uid]:
                wrong.append(f"{uid}: {station} != {last_station[uid]}")
        checks.append(Check("sampled travel histories end where the schedule put the tag",
                            not wrong, "; ".join(wrong[:3])))
        return checks


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    with built_scenario(lambda: FleetIngest(seed, seconds), FleetIngest.close,
                        SETUP_REPEATS) as (bench, setup_times):
        phase, checks = bench.replay(seconds, tracer)
    phase.validity["warmup_discarded_s"] = WARMUP_S
    return RunResult(setup_s=setup_times, phase=phase, checks=checks)
