"""Shared fixtures for the test suite.

Tests drive connectivity explicitly (move tags in and out of fields)
rather than sleeping, and wait on condition-based helpers
(:class:`repro.concurrent.EventLog`, ``wait_until``) so the suite stays
deterministic and fast.
"""

from __future__ import annotations

import math

import pytest

from repro.android.device import AndroidDevice
from repro.core.converters import (
    NdefMessageToStringConverter,
    StringToNdefMessageConverter,
)
from repro.core.nfc_activity import NFCActivity
from repro.harness.scenario import Scenario
from repro.ndef.message import NdefMessage
from repro.ndef.mime import mime_record
from repro.radio.environment import RfidEnvironment
from repro.radio.txscheduler import CrossTagPolicy
from repro.tags.factory import make_tag

TEXT_TYPE = "application/x-test-text"


@pytest.fixture(scope="session")
def affinity_sanitizer():
    """The session's thread-affinity sanitizer, or ``None``.

    Opt in with ``MORENA_SANITIZER=1`` (``=strict`` raises at the
    violation point); unset, the suite runs unpatched.
    """
    from repro.analysis import sanitizer

    active = sanitizer.install_from_env()
    yield active
    if active is not None and active is sanitizer.current():
        sanitizer.uninstall()


@pytest.fixture(autouse=True)
def _affinity_guard(affinity_sanitizer):
    """Fail any test during which the sanitizer recorded a violation."""
    if affinity_sanitizer is None:
        yield
        return
    before = len(affinity_sanitizer.violations)
    yield
    fresh = affinity_sanitizer.violations[before:]
    assert not fresh, "\n".join(str(violation) for violation in fresh)


@pytest.fixture
def env():
    return RfidEnvironment()


@pytest.fixture
def scenario():
    with Scenario() as s:
        yield s


@pytest.fixture
def phone(scenario):
    return scenario.add_phone("test-phone")


class PlainNfcActivity(NFCActivity):
    """An NFCActivity with no discoverers, for wiring in tests."""


@pytest.fixture
def activity(scenario, phone):
    return scenario.start(phone, PlainNfcActivity)


def text_message(text: str, mime_type: str = TEXT_TYPE) -> NdefMessage:
    return NdefMessage([mime_record(mime_type, text.encode("utf-8"))])


def text_tag(text: str, tag_type: str = "NTAG216", mime_type: str = TEXT_TYPE):
    return make_tag(tag_type, content=text_message(text, mime_type))


def string_converters(mime_type: str = TEXT_TYPE):
    return NdefMessageToStringConverter(), StringToNdefMessageConverter(mime_type)


def make_reference(activity, tag, phone=None, mime_type: str = TEXT_TYPE, **kwargs):
    """Create (or fetch) the activity's reference for a simulated tag."""
    from repro.android.nfc.tech import Tag

    port = phone.port if phone is not None else activity.device.port
    read_conv, write_conv = string_converters(mime_type)
    reference, _ = activity.reference_factory.get_or_create(
        Tag(tag, port), read_conv, write_conv, **kwargs
    )
    return reference


def reactor_barrier(reactor) -> None:
    """Return once every step already queued on ``reactor`` has run.

    The coroutine is posted to the loop behind them, so this also
    catches up with a ``ManualClock`` advance: the advance posts its
    timer service first, and that service queues the steps it wakes
    ahead of the coroutine's first step.
    """
    from repro.core.aio import run_on_reactor

    async def nothing():
        return None

    run_on_reactor(reactor, nothing()).result(timeout=5)


class SequentialDrainPolicy(CrossTagPolicy):
    """The whole-tag drain baseline: each visit runs to queue exhaustion.

    Maximum batching (one connect per tag per window), but a deep
    backlog on one tag head-of-line blocks every co-present neighbour
    for the entire drain. Not a production policy: the fairness tests
    and benches pass an instance as ``tx_policy`` to show what the
    round-robin quantum beats.
    """

    name = "drain"
    rotates = False

    def begin_visit(self, tag) -> float:
        return math.inf
