"""Receiver-keyed resource tracking shared by the flow rules.

MOR008 (use-after-halt), MOR009 (lease pairing) and MOR010
(coalesce/fence ordering) are all the same analysis with different
vocabularies: calls *seed* an abstract state on a receiver ("halted",
"held", "coalesced"), other calls *clear* it (reacquire, release,
fence), rebinding the receiver kills it, and certain calls are *uses*
that must be reported when the state may hold. This module provides
that machine once, on top of the CFG + solver.

Tokens encode ``kind:line`` (the line that seeded the state) plus an
optional ``:exc`` suffix added when the token travelled an exception
edge -- so a report can say not just *that* a lease leaks but that it
leaks *on the exception path*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.dataflow.cfg import CFG, Block, EXC, build_cfg, header_nodes
from repro.analysis.dataflow.solver import State, solve_forward

# One abstract operation a call performs on a receiver's state:
#   ("seed", key, kind) | ("clear", key) | ("use", key)
Op = Tuple[str, ...]
Classify = Callable[[ast.Call], Iterable[Op]]


# -- tokens --------------------------------------------------------------------


def make_token(kind: str, line: int) -> str:
    return f"{kind}:{line}"


def token_kind(token: str) -> str:
    return token.split(":", 1)[0]


def token_line(token: str) -> int:
    return int(token.split(":")[1])


def token_exceptional(token: str) -> bool:
    return token.endswith(":exc")


def _mark_exceptional(state: State, kind: str) -> State:
    if kind != EXC:
        return state
    out: Dict[str, FrozenSet[str]] = {}
    for key, tokens in state.items():
        out[key] = frozenset(
            token if token_exceptional(token) else f"{token}:exc"
            for token in tokens
        )
    return out


# -- AST helpers ---------------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` -> ``"a.b.c"``; anything non-name-shaped -> ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def receiver_key(call: ast.Call) -> str:
    """Normalized receiver of an attribute call.

    The ``.aio`` await surface is a stateless view of its reference, so
    ``ref.aio.write_raw(...)`` tracks under the same key as
    ``ref.write_raw(...)``.
    """
    if not isinstance(call.func, ast.Attribute):
        return ""
    key = dotted_name(call.func.value)
    if key.endswith(".aio"):
        key = key[: -len(".aio")]
    return key


def stmt_calls(stmt: ast.AST) -> Tuple[ast.Call, ...]:
    """Calls evaluated *by this statement's header*, in source order.

    Nested function and lambda bodies are excluded: a callback passed
    here executes whenever it is scheduled, not now. The dataflow
    transfer asks on every fixpoint visit of every flow rule, so the
    tuple is kept on the statement node itself: computed once per
    parsed tree, and freed with it.
    """
    cached = getattr(stmt, _CALLS_ATTR, None)
    if cached is not None:
        return cached
    calls: List[ast.Call] = []
    for root in header_nodes(stmt):
        stack: List[ast.AST] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # different execution context
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(reversed(list(ast.iter_child_nodes(node))))
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    result = tuple(calls)
    setattr(stmt, _CALLS_ATTR, result)
    return result


# Not an AST field: ``ast.walk``, ``ast.dump`` and the rules never see it.
_CALLS_ATTR = "_morelint_header_calls"


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_target_names(element))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    name = dotted_name(target)
    return [name] if name else []


def assigned_names(stmt: ast.AST) -> List[str]:
    """Dotted names this statement (re)binds -- their tracked state dies."""
    if isinstance(stmt, ast.Assign):
        out: List[str] = []
        for target in stmt.targets:
            out.extend(_target_names(target))
        return out
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return _target_names(stmt.target)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _target_names(stmt.target)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out = []
        for item in stmt.items:
            if item.optional_vars is not None:
                out.extend(_target_names(item.optional_vars))
        return out
    return []


def _kill(state: Dict[str, FrozenSet[str]], name: str) -> None:
    prefix = name + "."
    for key in [k for k in state if k == name or k.startswith(prefix)]:
        del state[key]


# -- the analysis --------------------------------------------------------------


@dataclass
class Use:
    """One use-site where a tracked state may hold."""

    call: ast.Call
    key: str
    tokens: FrozenSet[str]


@dataclass
class RunResult:
    cfg: CFG
    uses: List[Use] = field(default_factory=list)
    exit_state: State = field(default_factory=dict)


class ResourceAnalysis:
    """Path-sensitive receiver-state tracking over one function body.

    ``classify(call)`` yields the abstract operations of one call; the
    analysis solves the CFG to a fixpoint, then replays each block once
    against its fixpoint entry state to collect use-sites and the exit
    state. ``mark_exceptional`` turns on the ``:exc`` token suffix for
    state that crossed an exception edge.
    """

    def __init__(self, classify: Classify, mark_exceptional: bool = False) -> None:
        self._classify = classify
        self._edge_hook = _mark_exceptional if mark_exceptional else None

    def run(self, fn: ast.AST) -> RunResult:
        cfg = build_cfg(fn)
        in_states = solve_forward(
            cfg,
            self._transfer,
            edge_hook=self._edge_hook,
            exc_transfer=self._exc_transfer,
        )
        result = RunResult(cfg)
        for block in cfg.blocks:
            if block.id in in_states:
                self._transfer(block, in_states[block.id], record=result.uses)
        result.exit_state = in_states.get(cfg.exit.id, {})
        return result

    def _transfer(
        self,
        block: Block,
        state: State,
        record: Optional[List[Use]] = None,
        seeds: bool = True,
    ) -> State:
        stmt = block.stmt
        out: Dict[str, FrozenSet[str]] = dict(state)
        if stmt is None:
            return out
        for call in stmt_calls(stmt):
            for op in self._classify(call):
                verb, key = op[0], op[1]
                if not key:
                    continue
                if verb == "use":
                    tokens = out.get(key)
                    if tokens and record is not None:
                        record.append(Use(call, key, tokens))
                elif verb == "clear":
                    _kill(out, key)
                elif verb == "seed" and seeds:
                    token = make_token(op[2], call.lineno)
                    out[key] = out.get(key, frozenset()) | {token}
        for name in assigned_names(stmt):
            _kill(out, name)
        return out

    def _exc_transfer(self, block: Block, state: State) -> State:
        """Out-state along exception edges: clears apply, seeds do not
        (if the statement raised, the obligation was never created)."""
        return self._transfer(block, state, seeds=False)
