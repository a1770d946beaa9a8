"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_scenarios_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "unknown"])


class TestFig2:
    def test_prints_both_panels(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 (left)" in out
        assert "Figure 2 (right)" in out
        assert "concurrency" in out


class TestDemos:
    def test_wifi_demo_succeeds(self, capsys):
        assert main(["demo", "wifi"]) == 0
        out = capsys.readouterr().out
        assert "guest connected to: LobbyWifi" in out

    def test_beam_demo_succeeds(self, capsys):
        assert main(["demo", "beam"]) == 0
        out = capsys.readouterr().out
        assert "bob received: alice: hello from the command line" in out

    def test_handover_demo_succeeds(self, capsys):
        assert main(["demo", "handover"]) == 0
        out = capsys.readouterr().out
        assert "sharer offered ssid='HomeNet'" in out


class TestTagDump:
    def test_default_dump(self, capsys):
        assert main(["tagdump"]) == 0
        out = capsys.readouterr().out
        assert "NTAG213" in out
        assert "0000" in out

    def test_custom_type_and_text(self, capsys):
        assert main(["tagdump", "--type", "NTAG216", "--text", "xyzzy"]) == 0
        out = capsys.readouterr().out
        assert "NTAG216" in out
        # The record's type string lands whole inside one 16-byte dump row.
        assert "text/plain" in out

    def test_unknown_type_fails_cleanly(self):
        from repro.errors import TagError

        with pytest.raises(TagError):
            main(["tagdump", "--type", "NOPE"])


class TestFuzz:
    def test_fuzz_smoke_run_passes(self, capsys):
        assert main(["fuzz", "--seed", "7", "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert "50 inputs (seed 7)" in out
        assert "0 CRASH" in out

    def test_fuzz_replays_committed_corpus(self, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "1",
                    "--iterations",
                    "10",
                    "--corpus",
                    "tests/ndef/corpus",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "committed inputs, 0 crashes" in out

    def test_fuzz_empty_corpus_dir_reported(self, capsys, tmp_path):
        assert main(["fuzz", "--iterations", "5", "--corpus", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no .hex files" in out

    def test_fuzz_exits_nonzero_and_saves_on_crash(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.harness.fuzz import load_corpus_dir
        from repro.ndef import message as message_module

        def explode(data):
            raise IndexError("injected decoder bug")

        monkeypatch.setattr(message_module.NdefMessage, "from_bytes", explode)
        assert (
            main(
                [
                    "fuzz",
                    "--iterations",
                    "3",
                    "--save-crashes",
                    str(tmp_path),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "IndexError" in err
        saved = load_corpus_dir(tmp_path)
        assert saved  # crash inputs persisted for triage

    def test_fuzz_verbose_prints_mutation_counts(self, capsys):
        assert main(["fuzz", "--seed", "3", "--iterations", "20", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert any(
            line.strip().startswith(("truncate", "flip-bits", "inflate-length",
                                     "poison-tail", "duplicate", "splice",
                                     "chunk-flags", "clear-short-record",
                                     "reserved-tnf", "unchanged-tnf"))
            for line in out.splitlines()
        )


class TestHelp:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("fig2", "demo", "tagdump", "lint", "fuzz", "gateway"):
            assert command in out


class TestGateway:
    def test_gateway_smoke_run(self, capsys):
        assert (
            main(
                [
                    "gateway",
                    "--devices", "8",
                    "--tags", "40",
                    "--shards", "2",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet: 8 devices" in out
        assert "ingested=" in out
        assert "busiest stations" in out
        assert "station-" in out

    def test_gateway_runs_on_asyncio_backend(self, capsys):
        """Every shard drains on the one reactor loop; no flag picks it."""
        assert (
            main(["gateway", "--devices", "4", "--tags", "20", "--seed", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "4 shard(s) on one reactor loop" in out
        assert "ingested=" in out

    def test_gateway_rejects_unknown_backend(self):
        """There is no backend choice left: ``--backend`` is not an option."""
        for backend in ("threaded", "asyncio"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["gateway", "--backend", backend])
