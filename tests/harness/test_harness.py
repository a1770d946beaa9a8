"""Tests for the experiment harness: scenario, user, report."""

import pytest

from repro.harness.report import Series, Table
from repro.harness.scenario import Scenario
from repro.harness.user import SimulatedUser


class TestScenario:
    def test_context_manager_tears_down(self):
        with Scenario() as scenario:
            phone = scenario.add_phone("p")
        assert not phone.main_looper.alive

    def test_add_tag_records_population(self):
        with Scenario() as scenario:
            tag = scenario.add_tag("NTAG213")
            assert scenario.tags == [tag]
            assert tag.tag_type.name == "NTAG213"

    def test_tap_shorthand(self):
        with Scenario() as scenario:
            phone = scenario.add_phone("p")
            tag = scenario.add_tag()
            with scenario.tap(tag, phone):
                assert scenario.env.tag_in_field(tag, phone.port)
            assert not scenario.env.tag_in_field(tag, phone.port)

    def test_pair_unpair(self):
        with Scenario() as scenario:
            a = scenario.add_phone("a")
            b = scenario.add_phone("b")
            scenario.pair(a, b)
            assert scenario.env.in_beam_range(a.port, b.port)
            scenario.unpair(a, b)
            assert not scenario.env.in_beam_range(a.port, b.port)

    def test_sync_all(self):
        with Scenario() as scenario:
            scenario.add_phone("a")
            scenario.add_phone("b")
            assert scenario.sync_all()


class TestSimulatedUser:
    def test_tap_until_counts_taps(self):
        with Scenario() as scenario:
            phone = scenario.add_phone("p")
            tag = scenario.add_tag()
            user = SimulatedUser(
                scenario.env, phone, hold_seconds=0.01, pause_seconds=0.0
            )
            outcomes = iter([False, False, True])
            stats = user.tap_until(tag, done=lambda: next(outcomes), max_taps=10)
            assert stats.succeeded
            assert stats.taps == 3
            assert len(stats.tap_log) == 3

    def test_tap_until_gives_up(self):
        with Scenario() as scenario:
            phone = scenario.add_phone("p")
            tag = scenario.add_tag()
            user = SimulatedUser(
                scenario.env, phone, hold_seconds=0.005, pause_seconds=0.0
            )
            stats = user.tap_until(tag, done=lambda: False, max_taps=3)
            assert not stats.succeeded
            assert stats.taps == 3

    def test_hold_until(self):
        with Scenario() as scenario:
            phone = scenario.add_phone("p")
            tag = scenario.add_tag()
            user = SimulatedUser(scenario.env, phone)
            seen = []

            def done():
                seen.append(scenario.env.tag_in_field(tag, phone.port))
                return len(seen) >= 2

            stats = user.hold_until(tag, done=done, max_seconds=2.0)
            assert stats.succeeded
            assert all(seen)
            assert not scenario.env.tag_in_field(tag, phone.port)


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("demo", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("a-much-longer-name", 2.5)
        text = table.render()
        assert "demo" in text
        assert "a-much-longer-name" in text
        assert "2.50" in text

    def test_table_rejects_wrong_arity(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_series_renders_points(self):
        series = Series("curve", x_label="loss", y_label="taps")
        series.add(0.1, 2)
        series.add(0.5, 7)
        text = series.render()
        assert "curve" in text and "0.5" in text and "7" in text


class TestSpatialScenario:
    def test_spatial_flag_builds_spatial_environment(self):
        from repro.radio.geometry import SpatialEnvironment

        with Scenario(spatial=True) as scenario:
            assert isinstance(scenario.env, SpatialEnvironment)

    def test_spatial_scenario_drives_geometry(self):
        with Scenario(spatial=True) as scenario:
            phone = scenario.add_phone("geo")
            tag = scenario.add_tag()
            scenario.env.place_phone(phone.port, 0.0, 0.0)
            scenario.env.place_tag(tag, 0.01, 0.0)
            assert scenario.env.tag_in_field(tag, phone.port)
            scenario.env.move_tag(tag, 1.0, 0.0)
            assert not scenario.env.tag_in_field(tag, phone.port)

    def test_default_scenario_stays_flat(self):
        from repro.radio.geometry import SpatialEnvironment

        with Scenario() as scenario:
            assert not isinstance(scenario.env, SpatialEnvironment)
