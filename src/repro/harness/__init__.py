"""Experiment harness: scenario building, simulated users, reporting.

Benchmarks and examples share this plumbing: :class:`Scenario` wires an
environment + phones + tags in one call, :class:`SimulatedUser` models a
human tapping a phone against tags (hold, withdraw, re-tap), and
:mod:`repro.harness.report` prints the rows/series the paper's tables and
figures report.
"""

from repro.harness.crowd import (
    ChurnEvent,
    ChurnSchedule,
    ChurnStats,
    fleet_day,
    run_churn,
    turnstile_rush,
    warehouse_conveyor,
)
from repro.harness.fuzz import (
    CrashCase,
    FuzzReport,
    default_corpus,
    fuzz,
    load_corpus_dir,
    replay_corpus,
    save_case,
)
from repro.harness.scenario import Scenario
from repro.harness.user import SimulatedUser, TapStats
from repro.harness.report import Series, Table

__all__ = [
    "Scenario",
    "SimulatedUser",
    "TapStats",
    "Table",
    "Series",
    "ChurnEvent",
    "ChurnSchedule",
    "ChurnStats",
    "run_churn",
    "fleet_day",
    "turnstile_rush",
    "warehouse_conveyor",
    "CrashCase",
    "FuzzReport",
    "fuzz",
    "replay_corpus",
    "default_corpus",
    "load_corpus_dir",
    "save_case",
]
