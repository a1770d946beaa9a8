"""MOR007: blocking call inside a coroutine.

An ``async def`` body runs on an event loop — a device reactor's loop
(``repro.core.aio.run_on_reactor``), or whatever loop the application
drives. One blocking call there stalls *every* coroutine and every
reference multiplexed on that loop, which on the reactor's loop is the
whole device: strictly worse than MOR001's frozen looper. ``time.sleep``
has ``asyncio.sleep``, ``future.result()`` has ``await future``,
``looper.sync()`` has no business in a coroutine at all, and the
blocking reference idioms have ``ref.aio`` (``await ref.aio.read()``).

Awaited calls are never flagged — ``await asyncio.wait_for(...)`` or
``await sock.connect(...)`` yield to the loop instead of blocking it.
The runtime twin of this rule is the sanitizer's ``blocking-on-loop``
check (:mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.context import FileContext, call_name
from repro.analysis.model import Finding, Rule, Severity, register
from repro.analysis.rules.mor001_blocking_calls import is_blocking_call


def check(context: FileContext) -> Iterator[Finding]:
    findings: List[Finding] = []
    for coroutine in context.async_contexts:
        for node in coroutine.walk():
            if not isinstance(node, ast.Call) or not is_blocking_call(node):
                continue
            if isinstance(context.parent(node), ast.Await):
                continue  # awaited -> yields to the loop, not blocking
            findings.append(
                RULE.finding(
                    context,
                    node,
                    f"blocking call {call_name(node.func)!r} inside coroutine "
                    f"{coroutine.name!r}; it stalls the event loop and every "
                    "reference scheduled on it",
                )
            )
    return iter(findings)


RULE = register(
    Rule(
        id="MOR007",
        name="blocking-call-in-coroutine",
        severity=Severity.ERROR,
        summary="time.sleep / future waits / sync I/O inside an async def body",
        autofix_hint=(
            "use the await-native surface (await ref.aio.read(), await future, "
            "asyncio.sleep) or run the blocking work in an executor"
        ),
        check=check,
    )
)
