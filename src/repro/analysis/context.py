"""Per-file analysis context shared by every ``morelint`` rule.

The context parses one Python source file and precomputes the facts the
rules keep asking for:

* **Looper contexts** -- function bodies that MORENA executes on the
  activity's main looper: overridden listener methods
  (``when_discovered``, ``on_beam_received``, ``on_tag_detected``, ...),
  ``signal`` overrides of ``Listener`` subclasses, and inline callables
  passed as success/failure listeners to the asynchronous API
  (``save_async``, ``write``, ``beam``, ...). Blocking inside one of
  these bodies blocks the whole UI (MOR001) and re-registering adapters
  there defeats the plan cache (MOR004).
* **Off-looper contexts** -- function bodies that explicitly run on
  *other* threads: ``threading.Thread`` targets, raw field listeners
  (``add_field_listener`` runs them on the radio thread), and
  negotiated-handover responders (run on the requesting device's
  thread). Touching the activity's mutable state there without
  going through the looper is a data race (MOR006).
* **Thing classes** -- classes transitively derived from ``Thing``
  (name-based, fixpoint within the file), with their ``__transient__``
  declarations and ``self.x = ...`` field assignments (MOR003).
* **Async contexts** -- every ``async def`` body in the file. A
  coroutine runs on an event loop by definition; a blocking call inside
  one stalls every other coroutine and reactor task on that loop
  (MOR007).

Resolution is intentionally name-based: ``morelint`` analyzes files in
isolation (no imports are executed), trading a sliver of precision for
the ability to lint any file, broken imports and all.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

# Inline suppression pragmas::
#
#     risky_call()  # morelint: disable=MOR001,MOR008
#     # morelint: disable-file=MOR012     (anywhere in the file)
#
# ``disable=all`` / ``disable-file=all`` silence every rule.
_PRAGMA_RE = re.compile(
    r"#\s*morelint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

# Methods MORENA invokes on the main looper when overridden.
LISTENER_METHODS = frozenset(
    {
        "when_discovered",
        "when_discovered_empty",
        "on_tag_detected",
        "on_tag_redetected",
        "on_empty_tag_detected",
        "on_tag_lost",
        "on_beam_received",
        "on_beam_received_from",
        "signal",  # Listener.signal overrides
    }
)

# The asynchronous calls that take a success/failure listener pair, and
# the keyword each half travels under. Positional listener passing also
# exists for the first two slots after any payload argument; see
# :meth:`FileContext._listener_values`.
SUCCESS_KEYWORDS = frozenset(
    {
        "on_saved",
        "on_read",
        "on_written",
        "on_success",
        "on_refreshed",
        "on_locked",
        "on_formatted",
        "on_discovered",
    }
)
FAILURE_KEYWORDS = frozenset({"on_failed", "on_failure", "on_save_failed"})
LISTENER_KEYWORDS = SUCCESS_KEYWORDS | FAILURE_KEYWORDS

# method name -> True when the first positional argument is a payload
# (the listeners start at slot 1), False when listeners start at slot 0.
ASYNC_PAIR_METHODS: Dict[str, bool] = {
    "save_async": False,
    "refresh_async": False,
    "broadcast": False,
    "initialize": True,  # EmptyRecord.initialize(thing, on_saved, on_save_failed)
    "beam": True,  # Beamer.beam(obj, on_success, on_failed)
    "read": False,
    "read_raw": False,
    "write": True,
    "write_raw": True,
    "make_read_only": False,
    "format": False,
}

# The thing-level half of the API: the paper's headline success+failure
# listener pairs. Reference-level calls degrade to warnings in MOR002.
THING_LEVEL_METHODS = frozenset(
    {"save_async", "refresh_async", "broadcast", "initialize", "beam"}
)

# Registrations whose callbacks run *off* the main looper.
OFF_LOOPER_REGISTRARS = frozenset(
    {
        "add_field_listener",
        "set_handover_responder",
        "set_snep_get_provider",
    }
)


@dataclass(frozen=True)
class CallbackContext:
    """One function body together with the thread it runs on."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    kind: str  # "listener-method" | "listener-arg" | "thread-target"
    #          | "field-listener" | "responder" | "coroutine"
    name: str
    enclosing_class: Optional[str] = None

    @property
    def body(self) -> List[ast.AST]:
        if isinstance(self.node, ast.Lambda):
            return [self.node.body]
        return list(self.node.body)

    def walk(self) -> Iterator[ast.AST]:
        """Every node inside this body, *excluding* nested function
        bodies (a nested callable runs whenever *it* is scheduled)."""
        stack: List[ast.AST] = list(self.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # different execution context
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class AsyncCallSite:
    """One call into the asynchronous listener-pair API."""

    node: ast.Call
    method: str
    has_success: bool
    has_failure: bool

    @property
    def thing_level(self) -> bool:
        return self.method in THING_LEVEL_METHODS


@dataclass
class ThingClass:
    """A class (transitively) derived from ``Thing`` in this file."""

    node: ast.ClassDef
    transients: Tuple[str, ...]
    transient_node: Optional[ast.AST]
    # field name -> first assignment node (``self.x = ...`` anywhere in
    # the class body, plus bare class-level annotations).
    fields: Dict[str, ast.AST] = field(default_factory=dict)


def call_name(node: ast.AST) -> str:
    """Dotted name of a call target: ``a.b.c(...)`` -> ``"a.b.c"``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        inner = call_name(node.func)
        parts.append(f"{inner}()" if inner else "()")
    return ".".join(reversed(parts))


def tail_name(node: ast.AST) -> str:
    """Last segment of a call target: ``a.b.c(...)`` -> ``"c"``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def get_keyword(node: ast.Call, name: str) -> Optional[ast.keyword]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword
    return None


def is_none(node: Optional[ast.AST]) -> bool:
    return node is None or (isinstance(node, ast.Constant) and node.value is None)


class FileContext:
    """Parsed source plus the precomputed rule inputs described above."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        # The engine attaches the cross-module ProjectIndex here before
        # running rules; single-file callers leave it None and rules
        # fall back to file-local facts (see repro.analysis.project).
        self.project = None
        self.line_pragmas: Dict[int, Set[str]] = {}
        self.file_pragmas: Set[str] = set()
        self._collect_pragmas()
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.calls: List[ast.Call] = [
            node for node in ast.walk(self.tree) if isinstance(node, ast.Call)
        ]
        self.looper_contexts: List[CallbackContext] = []
        self.off_looper_contexts: List[CallbackContext] = []
        self.async_contexts: List[CallbackContext] = []
        self.async_calls: List[AsyncCallSite] = []
        self.thing_classes: List[ThingClass] = []
        self._collect_listener_methods()
        self._collect_async_calls_and_inline_listeners()
        self._collect_off_looper_contexts()
        self._collect_async_contexts()
        self._collect_thing_classes()

    # -- pragmas --------------------------------------------------------------

    def _collect_pragmas(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if match is None:
                continue
            rules = {
                rule.strip().upper() if rule.strip().lower() != "all" else "all"
                for rule in match.group("rules").split(",")
            }
            if match.group("scope") == "disable-file":
                self.file_pragmas |= rules
            else:
                self.line_pragmas.setdefault(lineno, set()).update(rules)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether a finding of ``rule_id`` at ``line`` is pragma-silenced."""
        if "all" in self.file_pragmas or rule_id in self.file_pragmas:
            return True
        at_line = self.line_pragmas.get(line)
        return at_line is not None and ("all" in at_line or rule_id in at_line)

    # -- generic helpers ------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A class nested inside a method belongs to that class,
                # but a method's enclosing class is found by skipping
                # only function frames directly under the ClassDef.
                pass
            current = self._parents.get(current)
        return None

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return current
            current = self._parents.get(current)
        return None

    def resolve_callable(
        self, value: ast.AST, near: ast.AST
    ) -> Optional[ast.AST]:
        """Map a listener argument value to a function body, if local.

        ``lambda`` -> itself; a bare name -> the nearest enclosing-scope
        ``def`` of that name; ``self.method`` -> the method of the
        enclosing class. Anything else (imported callables, instances)
        resolves to ``None``.
        """
        if isinstance(value, ast.Lambda):
            return value
        if isinstance(value, ast.Name):
            scope: Optional[ast.AST] = self.enclosing_function(near)
            while scope is not None:
                found = _find_def(scope, value.id)
                if found is not None:
                    return found
                scope = self.enclosing_function(scope)
            return _find_def(self.tree, value.id)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            klass = self.enclosing_class(near)
            if klass is not None:
                return _find_def(klass, value.attr)
        return None

    # -- collection passes ----------------------------------------------------

    def _collect_listener_methods(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in LISTENER_METHODS
                ):
                    self.looper_contexts.append(
                        CallbackContext(
                            node=item,
                            kind="listener-method",
                            name=f"{node.name}.{item.name}",
                            enclosing_class=node.name,
                        )
                    )

    def _listener_values(
        self, call: ast.Call, method: str
    ) -> Tuple[List[ast.AST], bool, bool]:
        """The listener argument values of one async call, plus whether
        the success / failure half is present (non-None).

        Positional arguments only count when they *look* like callbacks
        (a lambda, or a name like ``on_saved`` / ``done_callback``) --
        several internal synchronous APIs share method names with the
        async layer (``port.make_read_only(tag)``) and must not have
        their payload argument mistaken for a success listener.
        """
        skip = 1 if ASYNC_PAIR_METHODS[method] else 0
        positional = call.args[skip : skip + 2]  # (success, failure) slots
        values: List[ast.AST] = [
            arg for arg in positional if _looks_like_listener(arg)
        ]
        has_success = len(positional) >= 1 and _looks_like_listener(positional[0])
        has_failure = len(positional) >= 2 and _looks_like_listener(positional[1])
        for keyword in call.keywords:
            if keyword.arg in LISTENER_KEYWORDS and not is_none(keyword.value):
                values.append(keyword.value)
                if keyword.arg in SUCCESS_KEYWORDS:
                    has_success = True
                else:
                    has_failure = True
        return values, has_success, has_failure

    def _collect_async_calls_and_inline_listeners(self) -> None:
        seen: Set[ast.AST] = set()
        for call in self.calls:
            method = tail_name(call.func)
            if method not in ASYNC_PAIR_METHODS:
                continue
            # Only attribute calls (obj.method) count -- a bare
            # ``format(...)`` is the builtin, not the tag API.
            if not isinstance(call.func, ast.Attribute):
                continue
            values, has_success, has_failure = self._listener_values(call, method)
            self.async_calls.append(
                AsyncCallSite(call, method, has_success, has_failure)
            )
            for value in values:
                resolved = self.resolve_callable(value, call)
                if resolved is None or resolved in seen:
                    continue
                seen.add(resolved)
                klass = self.enclosing_class(resolved)
                name = (
                    resolved.name
                    if isinstance(resolved, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else f"<lambda:{value.lineno}>"
                )
                self.looper_contexts.append(
                    CallbackContext(
                        node=resolved,
                        kind="listener-arg",
                        name=name,
                        enclosing_class=klass.name if klass else None,
                    )
                )

    def _collect_off_looper_contexts(self) -> None:
        seen: Set[ast.AST] = set()

        def add(value: ast.AST, near: ast.AST, kind: str) -> None:
            resolved = self.resolve_callable(value, near)
            if resolved is None or resolved in seen:
                return
            seen.add(resolved)
            klass = self.enclosing_class(resolved)
            name = (
                resolved.name
                if isinstance(resolved, (ast.FunctionDef, ast.AsyncFunctionDef))
                else f"<lambda:{value.lineno}>"
            )
            self.off_looper_contexts.append(
                CallbackContext(
                    node=resolved,
                    kind=kind,
                    name=name,
                    enclosing_class=klass.name if klass else None,
                )
            )

        for call in self.calls:
            name = call_name(call.func)
            method = tail_name(call.func)
            if name.endswith("Thread") or name.endswith("threading.Thread"):
                target = get_keyword(call, "target")
                if target is not None and not is_none(target.value):
                    add(target.value, call, "thread-target")
            elif method == "add_field_listener":
                for arg in call.args:
                    add(arg, call, "field-listener")
            elif method in ("set_handover_responder", "set_snep_get_provider"):
                for arg in call.args:
                    add(arg, call, "responder")

    def _collect_async_contexts(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            klass = self.enclosing_class(node)
            self.async_contexts.append(
                CallbackContext(
                    node=node,
                    kind="coroutine",
                    name=(
                        f"{klass.name}.{node.name}" if klass is not None else node.name
                    ),
                    enclosing_class=klass.name if klass else None,
                )
            )

    def _collect_thing_classes(self) -> None:
        by_name: Dict[str, ast.ClassDef] = {}
        bases: Dict[str, List[str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                by_name[node.name] = node
                bases[node.name] = [tail_name(base) for base in node.bases]
        thing_names: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, base_names in bases.items():
                if name in thing_names:
                    continue
                for base in base_names:
                    if base == "Thing" or base in thing_names:
                        thing_names.add(name)
                        changed = True
                        break
        for name in sorted(thing_names):
            node = by_name[name]
            transients, transient_node = _transient_declaration(node)
            thing = ThingClass(node, transients, transient_node)
            _collect_fields(node, thing)
            self.thing_classes.append(thing)


_LISTENERISH = ("listener", "callback", "handler")


def _looks_like_listener(node: Optional[ast.AST]) -> bool:
    """Heuristic: is this argument value plausibly a listener callable?"""
    if node is None or is_none(node):
        return False
    if isinstance(node, ast.Lambda):
        return True
    name = tail_name(node)
    if not name and isinstance(node, ast.Call):
        name = tail_name(node.func)  # Listener(...) / partial(...) factories
    lowered = name.lower()
    return lowered.startswith("on_") or any(
        mark in lowered for mark in _LISTENERISH
    )


def _find_def(scope: ast.AST, name: str) -> Optional[ast.AST]:
    """A ``def name`` directly inside ``scope``'s body (non-recursive
    into nested functions, one level of class bodies allowed)."""
    body = getattr(scope, "body", [])
    for item in body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == name
        ):
            return item
    return None


def _transient_declaration(
    node: ast.ClassDef,
) -> Tuple[Tuple[str, ...], Optional[ast.AST]]:
    for item in node.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__transient__":
                names: List[str] = []
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                return tuple(names), item
    return (), None


def _collect_fields(node: ast.ClassDef, thing: ThingClass) -> None:
    # Class-level annotations (``member: str``) declare fields too.
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.target.id != "__transient__":
                thing.fields.setdefault(item.target.id, item)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets
                if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    thing.fields.setdefault(target.attr, sub)
