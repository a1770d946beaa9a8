"""Shared helpers for the benchmark/reproduction harness.

Every module in this directory regenerates one table or figure of the
paper (see DESIGN.md's experiment index) and prints the reproduced
rows/series via ``repro.harness.report``. Run with::

    pytest benchmarks/ --benchmark-only -s

Benches that feed CI dashboards additionally emit a machine-readable
``BENCH_<name>.json`` next to this file via :func:`emit_bench_json`.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent

# Idle benches park a population and read the process CPU spent over one
# window; "near zero" is under the ceiling.
IDLE_WINDOW_SECONDS = 0.5
IDLE_CPU_CEILING_SECONDS = 0.05


def measure_idle_cpu() -> float:
    """Process CPU seconds consumed while this thread sleeps one window."""
    start = time.process_time()
    time.sleep(IDLE_WINDOW_SECONDS)
    return time.process_time() - start


def emit_bench_json(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``payload`` to ``benchmarks/BENCH_<name>.json`` and return the path.

    The JSON is stable (sorted keys, trailing newline) so CI can diff
    successive runs; payloads should stick to plain numbers/strings.
    """
    path = _BENCH_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def bench_json():
    """Fixture form of :func:`emit_bench_json` for benches that prefer it."""
    return emit_bench_json


@pytest.fixture
def no_capture_note():
    """Reminder printed once per module when output capture is on."""
    return None
