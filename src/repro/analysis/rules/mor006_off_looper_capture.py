"""MOR006: off-looper callback mutates captured activity state directly.

MORENA's listeners run on the main looper precisely so applications
never need locks. But callbacks registered *below* the listener layer do
not enjoy that guarantee: ``threading.Thread`` targets run on their own
thread, raw field listeners (``add_field_listener``) run on the radio
thread, and negotiated-handover responders run on the *requesting*
device's thread ("keep it short and thread-safe", says the adapter). A
closure there that assigns to captured mutable state
(``self.count += 1``) races every listener reading the same field on the
looper. The mutation must either hop onto the looper
(``looper.post(...)``) or sit under an explicit lock.

Assignments lexically inside a ``with self._lock:`` / ``with
self._cond:`` block are accepted -- that is the explicit-lock escape
hatch the middleware itself uses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.context import CallbackContext, FileContext, call_name
from repro.analysis.model import Finding, Rule, Severity, register

_LOCKISH = ("lock", "cond", "mutex", "sem")


def _is_lock_guard(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = call_name(expr).lower()
    return any(mark in name for mark in _LOCKISH)


def _mutations(
    nodes: List[ast.AST], captured: str, guarded: bool
) -> Iterator[ast.AST]:
    """Yield assignments to ``captured``'s public attributes that are not
    under a lock guard; recurses with the guard state."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # different execution context
        if isinstance(node, ast.With):
            inner_guarded = guarded or any(
                _is_lock_guard(item) for item in node.items
            )
            yield from _mutations(node.body, captured, inner_guarded)
            continue
        if not guarded and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == captured
                    and not target.attr.startswith("_")
                ):
                    yield node
        yield from _mutations(list(ast.iter_child_nodes(node)), captured, guarded)


def _captured_names(context: FileContext, callback: CallbackContext) -> List[str]:
    """Which names count as 'the activity' inside this callback.

    ``self`` always does (a thread-target *method* shares its instance
    with the looper); so do enclosing-scope aliases of it, the common
    ``app = self`` closure idiom.
    """
    names = ["self"]
    scope = context.enclosing_function(callback.node)
    while scope is not None:
        for node in getattr(scope, "body", []):
            if isinstance(node, ast.Assign) and (
                isinstance(node.value, ast.Name) and node.value.id in names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.append(target.id)
        scope = context.enclosing_function(scope)
    return names


def check(context: FileContext) -> Iterator[Finding]:
    findings: List[Finding] = []
    for callback in context.off_looper_contexts:
        for captured in _captured_names(context, callback):
            for node in _mutations(callback.body, captured, guarded=False):
                where = {
                    "thread-target": "a private thread",
                    "field-listener": "the radio thread",
                    "responder": "the requesting peer's thread",
                }.get(callback.kind, "an off-looper thread")
                findings.append(
                    RULE.finding(
                        context,
                        node,
                        f"{callback.name!r} runs on {where} but mutates "
                        f"captured activity state directly; this races the "
                        "listeners reading it on the main looper",
                    )
                )
    return iter(findings)


RULE = register(
    Rule(
        id="MOR006",
        name="off-looper-state-capture",
        severity=Severity.ERROR,
        summary="thread/radio callbacks assigning to captured activity fields",
        autofix_hint=(
            "post the mutation to the main looper "
            "(device.main_looper.post(lambda: ...)) or guard it with an "
            "explicit lock (with self._lock: ...)"
        ),
        check=check,
    )
)
