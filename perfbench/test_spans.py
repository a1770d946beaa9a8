"""Self-time arithmetic on synthetic spans.

Run with ``python3 -m pytest perfbench/test_spans.py`` from the
repository root.
"""

import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, SpanStore, by_op, covered_length, first_start, self_time_by_name, self_times  # noqa: E402


def make(sid, name, start, end, parent=None, op=None, thread=1):
    return Span(sid, name, start, parent, op, thread, end=end)


def test_leaf_self_time_is_its_duration():
    leaf = make(1, "tags.write", 2.0, 5.0)
    assert self_times([leaf]) == {1: 3.0}


def test_nested_spans_subtract_only_direct_children():
    root = make(1, "core.execute", 0.0, 10.0)
    child = make(2, "radio.session_op", 1.0, 7.0, parent=root)
    grandchild = make(3, "tags.write", 2.0, 4.0, parent=child)
    selfs = self_times([root, child, grandchild])
    assert selfs[1] == 4.0  # 10 - 6 (the grandchild is inside the child)
    assert selfs[2] == 4.0  # 6 - 2
    assert selfs[3] == 2.0
    # Self times of a tree add up to the root's duration.
    assert sum(selfs.values()) == root.duration


def test_overlapping_children_are_counted_once():
    root = make(1, "android.run", 0.0, 10.0)
    first = make(2, "things.save_async", 1.0, 5.0, parent=root)
    second = make(3, "core.enqueue", 3.0, 8.0, parent=root)  # overlaps the first
    selfs = self_times([root, first, second])
    assert selfs[1] == 3.0  # covered: the union [1, 8] is 7 long


def test_children_are_clipped_to_the_parent():
    root = make(1, "core.step.txsched", 2.0, 6.0)
    spill = make(2, "radio.open_session", 5.0, 9.0, parent=root)
    assert self_times([root, spill])[1] == 3.0
    assert covered_length([(0.0, 1.0), (7.0, 8.0)], 2.0, 6.0) == 0.0


def test_unfinished_spans_are_skipped():
    root = make(1, "core.step.tagref", 0.0, None)
    child = make(2, "tags.read", 1.0, 2.0, parent=root)
    assert self_times([root, child]) == {2: 1.0}


def test_self_time_by_name_sums_and_counts():
    a = make(1, "gson.encode", 0.0, 1.0)
    b = make(2, "gson.encode", 2.0, 2.5)
    c = make(3, "ndef.encode", 2.1, 2.3, parent=b)
    totals = self_time_by_name([a, b, c])
    assert totals["gson.encode"][1] == 2
    assert abs(totals["gson.encode"][0] - 1.3) < 1e-9
    assert abs(totals["ndef.encode"][0] - 0.2) < 1e-9


def test_ops_link_spans_across_threads():
    enqueue = make(1, "core.enqueue", 0.0, 0.1, op=7, thread=1)
    other = make(2, "core.enqueue", 0.2, 0.3, op=8, thread=1)
    retry = make(4, "core.execute", 3.0, 3.4, op=7, thread=2)
    execute = make(3, "core.execute", 1.0, 1.5, op=7, thread=2)
    grouped = by_op([enqueue, other, retry, execute])
    assert [s.sid for s in grouped[7]] == [1, 3, 4]
    assert {s.thread for s in grouped[7]} == {1, 2}
    # Queue wait: the op's first execution after its enqueue ended.
    assert first_start(grouped[7], "core.execute") - enqueue.end == 0.9
    assert [s.sid for s in grouped[8]] == [2]


def test_store_nests_per_thread_and_keeps_threads_apart():
    ticks = iter(range(100))
    store = SpanStore(lambda: float(next(ticks)))
    outer = store.begin("core.enqueue", op=1)
    inner = store.begin("gson.encode")
    store.end(inner)
    seen = {}

    def worker():
        span = store.begin("core.execute", op=1)
        seen["parent"] = span.parent
        store.end(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    store.end(outer)
    assert inner.parent is outer
    assert seen["parent"] is None  # another thread's open span is not a parent
    assert [s.sid for s in by_op(store.finished())[1]] == [outer.sid, outer.sid + 2]
