"""Span store and self-time arithmetic for the traced run.

A span records a name, start, end, the span that caused it (its parent)
and an op id. Within one thread the parent is the innermost open span,
so nesting gives the causal tree; across threads, spans that worked for
the same ``Operation`` share its op id. Spans are kept in memory and
written out as JSON lines when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover. Children are clipped to the parent and
merged before they are subtracted, so overlapping children (for example
spans recorded by other threads under an explicit parent) are not
counted twice.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread")

    def __init__(self, sid: int, name: str, start: float, parent: Optional["Span"],
                 op: Optional[int], thread: int, end: Optional[float] = None) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.sid if self.parent is not None else None,
            "op": self.op,
            "thread": self.thread,
        }


class SpanStore:
    """Collects spans from every thread; nesting per thread gives parents."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[int] = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self._clock(), stack[-1] if stack else None,
                    op, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.finished():
                out.write(json.dumps(span.as_dict()) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every finished span, keyed by span id."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[span.parent.sid].append(span)
    result = {}
    for span in spans:
        if span.end is None:
            continue
        kids = children.get(span.sid, ())
        covered = covered_length(((kid.start, kid.end) for kid in kids), span.start, span.end)
        result[span.sid] = span.duration - covered
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """``name -> (total self time, span count)`` over finished spans."""
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        if span.sid in selfs:
            entry = totals[span.name]
            entry[0] += selfs[span.sid]
            entry[1] += 1
    return {name: (entry[0], int(entry[1])) for name, entry in totals.items()}


def by_op(spans: List[Span]) -> Dict[int, List[Span]]:
    """Spans of each op id, across threads, in start order."""
    grouped: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.op is not None and span.end is not None:
            grouped[span.op].append(span)
    for group in grouped.values():
        group.sort(key=lambda span: span.start)
    return grouped


def first_start(spans: List[Span], name: str) -> Optional[float]:
    """Start of the earliest span called ``name`` (spans in start order)."""
    for span in spans:
        if span.name == name:
            return span.start
    return None
