"""Command-line front end.

::

    python -m repro.cli fig2              # print the Figure 2 reproduction
    python -m repro.cli demo wifi         # run the WiFi-sharing scenario
    python -m repro.cli demo beam         # phone-to-phone Beam demo
    python -m repro.cli tagdump           # write a tag and hexdump its memory
    python -m repro.cli tagdump --type NTAG213 --text "hello"
    python -m repro.cli lint src examples # run the morelint misuse linter
    python -m repro.cli fuzz --seed 7 --iterations 500 --corpus tests/ndef/corpus
    python -m repro.cli gateway --devices 200 --tags 1000 --shards 4

Everything runs against the in-process simulation; no hardware, no
network, no state outside the current directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_fig2(_args: argparse.Namespace) -> int:
    import repro.apps.wifi.config as morena_config
    import repro.apps.wifi.morena_app as morena_app
    import repro.baseline.handcrafted_wifi as handcrafted
    from repro.metrics.loc import compare_implementations

    comparison = compare_implementations(
        [handcrafted], [morena_app, morena_config]
    )
    print(comparison.format_table())
    return 0


def _cmd_demo_wifi(_args: argparse.Namespace) -> int:
    from repro.apps.wifi import WifiConfig, WifiJoinerActivity
    from repro.concurrent import wait_until
    from repro.harness import Scenario

    with Scenario() as scenario:
        scenario.wifi_registry.add_network("LobbyWifi", "welcome123")
        facility = scenario.add_phone("facility")
        guest = scenario.add_phone("guest")
        facility_app = scenario.start(
            facility, WifiJoinerActivity, scenario.wifi_registry
        )
        guest_app = scenario.start(guest, WifiJoinerActivity, scenario.wifi_registry)

        tag = scenario.add_tag()
        facility_app.share_with_tag(
            WifiConfig(facility_app, "LobbyWifi", "welcome123")
        )
        print("facility taps an empty tag ...")
        scenario.put(tag, facility)
        if not wait_until(
            lambda: "WiFi joiner created!" in facility.toasts.snapshot()
        ):
            print("ERROR: joiner was not created", file=sys.stderr)
            return 1
        scenario.take(tag, facility)
        print("  toast:", facility.toasts.snapshot()[-1])

        print("guest taps the tag ...")
        scenario.put(tag, guest)
        if not wait_until(lambda: guest_app.wifi.connected_ssid == "LobbyWifi"):
            print("ERROR: guest did not join", file=sys.stderr)
            return 1
        print("  guest connected to:", guest_app.wifi.connected_ssid)
        return 0


def _cmd_demo_beam(_args: argparse.Namespace) -> int:
    from repro.concurrent import EventLog
    from repro.core import (
        Beamer,
        BeamReceivedListener,
        NFCActivity,
        NdefMessageToStringConverter,
        StringToNdefMessageConverter,
    )
    from repro.harness import Scenario

    mime = "application/x-cli-beam"

    class Receiver(NFCActivity):
        def on_create(self):
            self.inbox = EventLog()
            app = self

            class Listener(BeamReceivedListener):
                def on_beam_received_from(self, obj, sender):
                    app.inbox.append(f"{sender}: {obj}")

            Listener(self, mime, NdefMessageToStringConverter())

    class Sender(NFCActivity):
        def on_create(self):
            self.beamer = Beamer(self, StringToNdefMessageConverter(mime))

    with Scenario() as scenario:
        alice = scenario.add_phone("alice")
        bob = scenario.add_phone("bob")
        sender = scenario.start(alice, Sender)
        receiver = scenario.start(bob, Receiver)
        sender.beamer.beam("hello from the command line")
        print("message queued; phones touch ...")
        scenario.pair(alice, bob)
        if not receiver.inbox.wait_for_count(1, timeout=5):
            print("ERROR: beam not delivered", file=sys.stderr)
            return 1
        print("  bob received:", receiver.inbox.snapshot()[0])
        return 0


def _cmd_demo_handover(_args: argparse.Namespace) -> int:
    from repro.harness import Scenario
    from repro.ndef.handover import CPS_ACTIVE, build_handover_select
    from repro.ndef.record import NdefRecord
    from repro.ndef.wsc import WSC_MIME_TYPE, WifiCredential

    with Scenario() as scenario:
        asker = scenario.add_phone("asker")
        sharer = scenario.add_phone("sharer")

        def responder(request, sender):
            if WSC_MIME_TYPE not in request.requested_mime_types:
                return None
            bare = WifiCredential("HomeNet", "home-key").to_record()
            carrier = NdefRecord(bare.tnf, bare.type, b"w", bare.payload)
            return build_handover_select([(carrier, CPS_ACTIVE)])

        sharer.nfc_adapter.set_handover_responder(responder)
        scenario.pair(asker, sharer)
        print("asker requests a WiFi carrier over negotiated handover ...")
        answers = asker.nfc_adapter.request_handover([WSC_MIME_TYPE])
        if not answers:
            print("ERROR: no peer answered", file=sys.stderr)
            return 1
        peer, select = answers[0]
        credential = WifiCredential.from_record(select.carrier_records()[0])
        print(f"  {peer} offered ssid={credential.ssid!r} (auth {credential.auth})")
        return 0


def _cmd_tagdump(args: argparse.Namespace) -> int:
    from repro.ndef import NdefMessage, mime_record
    from repro.tags import make_tag

    message = NdefMessage(
        [mime_record("text/plain", args.text.encode("utf-8"))]
    )
    tag = make_tag(args.type, content=message)
    print(f"tag: {tag.tag_type.name}  uid={tag.uid_hex}")
    print(f"capacity: {tag.ndef_capacity} bytes, stored: {message.byte_length} bytes")
    dump = tag.raw_dump()
    shown = dump[: args.bytes]
    for offset in range(0, len(shown), 16):
        chunk = shown[offset : offset + 16]
        hex_part = " ".join(f"{b:02x}" for b in chunk)
        text = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        print(f"  {offset:04x}  {hex_part:<48}  {text}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import main as lint_main

    argv: List[str] = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.no_hints:
        argv.append("--no-hints")
    if args.fix:
        argv.append("--fix")
    if args.format != "text":
        argv += ["--format", args.format]
    if args.output:
        argv += ["--output", args.output]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.jobs != "auto":
        argv += ["--jobs", args.jobs]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.harness.fuzz import fuzz, load_corpus_dir, replay_corpus, save_case

    failed = False
    if args.corpus:
        entries = load_corpus_dir(args.corpus)
        if entries:
            replay = replay_corpus(entries)
            print(
                f"corpus: {replay.iterations} committed inputs, "
                f"{len(replay.crashes)} crash"
                + ("es" if len(replay.crashes) != 1 else "")
            )
            for crash in replay.crashes:
                print("  " + crash.describe(), file=sys.stderr)
            failed = failed or not replay.ok
        else:
            print(f"corpus: no .hex files under {args.corpus}")

    report = fuzz(iterations=args.iterations, seed=args.seed)
    print(report.summary() if args.verbose else report.summary().splitlines()[0])
    if not report.ok:
        for crash in report.crashes:
            print("  " + crash.describe(), file=sys.stderr)
        if args.save_crashes:
            for crash in report.crashes:
                path = save_case(args.save_crashes, crash)
                print(f"  saved {path}", file=sys.stderr)
    failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.clock import ManualClock
    from repro.core.scheduler import Reactor
    from repro.gateway import FleetGateway, make_fleet_reporters, simulate_fleet
    from repro.harness.crowd import fleet_day

    clock = ManualClock()
    reactor = Reactor(clock=clock, name="gateway")
    gateway = FleetGateway(
        reactor,
        clock=clock,
        shards=args.shards,
        window_seconds=args.window,
        bucket_seconds=max(args.window / 12.0, 0.25),
    )
    schedule = fleet_day(args.devices, args.tags, seed=args.seed)
    reporters = make_fleet_reporters(gateway, args.devices)
    print(
        f"fleet: {args.devices} devices, {args.tags} tags, "
        f"{args.shards} shard(s) on one reactor loop"
    )
    print(f"schedule: {schedule!r}")

    def tick(now: float) -> None:
        gateway.drain()
        telemetry = gateway.telemetry()
        rates = gateway.station_rates(now)
        busiest = sorted(
            rates.items(), key=lambda item: -item[1]["windowed"]
        )[:3]
        stations = "  ".join(
            f"{name}={row['rate_per_second']:.1f}/s" for name, row in busiest
        )
        print(
            f"[t={now:7.2f}s] ingested={telemetry['events_ingested']:>7}"
            f" dropped={telemetry['events_dropped_queue']}"
            f" depth={telemetry['queue_depth']:>4}"
            f"  busiest: {stations or '(quiet)'}"
        )

    try:
        stats = simulate_fleet(
            gateway,
            schedule,
            reporters=reporters,
            seed=args.seed,
            on_tick=tick,
            tick_seconds=args.tick,
        )
        if not gateway.drain():
            print("ERROR: gateway did not drain", file=sys.stderr)
            return 1
        snapshot = gateway.snapshot(top=5)
        print(
            f"\nreplay: {stats.events_recorded} events"
            f" ({stats.scans} scans, {stats.saves} saves,"
            f" {stats.lease_events} lease) over"
            f" {stats.virtual_seconds:.1f} virtual seconds"
        )
        telemetry = snapshot.telemetry
        print(
            f"ingested {telemetry['events_ingested']} in"
            f" {telemetry['batches']} batches;"
            f" dropped: queue={telemetry['events_dropped_queue']}"
            f" reporter={telemetry['events_dropped_reporter']}"
            f" | queue high-water {telemetry['queue_high_water']}"
        )
        print("\nbusiest stations (sliding window):")
        ranked = sorted(
            snapshot.station_rates.items(), key=lambda item: -item[1]["total"]
        )
        for name, row in ranked[:5]:
            print(
                f"  {name:<14} total={row['total']:>6}"
                f"  window={row['windowed']:>5}"
                f"  rate={row['rate_per_second']:.2f}/s"
            )
        print("\nlease contention leaderboard:")
        if snapshot.lease_leaderboard:
            for row in snapshot.lease_leaderboard:
                print(
                    f"  {row['tag_uid']:<12} denied={row['denied']:>4}"
                    f"  acquired={row['acquired']:>4}"
                )
            hot = snapshot.lease_leaderboard[0]["tag_uid"]
            travel = gateway.travel_history(hot)
            if travel is not None:
                path = " -> ".join(station for station, _at in travel["path"][-6:])
                print(
                    f"\ntravel history for {hot}:"
                    f" {travel['scans']} scans,"
                    f" {travel['transitions']} transitions; tail: {path}"
                )
        else:
            print("  (no lease traffic)")
        return 0
    finally:
        gateway.close()
        reactor.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MORENA reproduction: simulated NFC demos and reports.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig2 = subparsers.add_parser("fig2", help="print the Figure 2 LoC reproduction")
    fig2.set_defaults(handler=_cmd_fig2)

    demo = subparsers.add_parser("demo", help="run a scripted scenario")
    demo.add_argument("scenario", choices=["wifi", "beam", "handover"])
    demo_handlers = {
        "wifi": _cmd_demo_wifi,
        "beam": _cmd_demo_beam,
        "handover": _cmd_demo_handover,
    }
    demo.set_defaults(handler=lambda args: demo_handlers[args.scenario](args))

    tagdump = subparsers.add_parser(
        "tagdump", help="write text to a simulated tag and hexdump its memory"
    )
    tagdump.add_argument("--type", default="NTAG213", help="tag model name")
    tagdump.add_argument("--text", default="hello, MORENA", help="text to store")
    tagdump.add_argument(
        "--bytes", type=int, default=96, help="how many bytes to dump"
    )
    tagdump.set_defaults(handler=_cmd_tagdump)

    lint = subparsers.add_parser(
        "lint", help="run the morelint misuse linter over files or directories"
    )
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument("--select", help="comma-separated rule ids to run")
    lint.add_argument(
        "--no-hints", action="store_true", help="omit the autofix hint lines"
    )
    lint.add_argument(
        "--fix", action="store_true", help="apply mechanical fixes in place"
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format",
    )
    lint.add_argument(
        "--output", help="write the json/sarif rendering to this file"
    )
    lint.add_argument(
        "--baseline", help="baseline file of accepted findings"
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="freeze current findings into the baseline file",
    )
    lint.add_argument(
        "--jobs", default="auto", help="worker processes (N, or 'auto')"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.set_defaults(handler=_cmd_lint)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="mutate NDEF wire bytes and assert every mutant fails cleanly",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
    fuzz.add_argument(
        "--iterations", type=int, default=500, help="number of mutated inputs"
    )
    fuzz.add_argument(
        "--corpus",
        help="directory of committed .hex crash inputs to regression-replay first",
    )
    fuzz.add_argument(
        "--save-crashes",
        help="directory to write new crash inputs into (as .hex files)",
    )
    fuzz.add_argument(
        "--verbose", action="store_true", help="print per-mutation counts"
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    gateway = subparsers.add_parser(
        "gateway",
        help="run a simulated fleet against the scan-event gateway and "
        "print the live views",
    )
    gateway.add_argument(
        "--devices", type=int, default=100, help="simulated devices (stations)"
    )
    gateway.add_argument(
        "--tags", type=int, default=500, help="tag population size"
    )
    gateway.add_argument(
        "--shards", type=int, default=4, help="ingestion shard count"
    )
    gateway.add_argument(
        "--seed", type=int, default=0, help="deterministic RNG seed"
    )
    gateway.add_argument(
        "--window",
        type=float,
        default=3.0,
        help="station throughput window (virtual seconds)",
    )
    gateway.add_argument(
        "--tick",
        type=float,
        default=2.0,
        help="live telemetry print interval (virtual seconds)",
    )
    gateway.set_defaults(handler=_cmd_gateway)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
