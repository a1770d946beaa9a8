"""Codec fast path + write coalescing micro-benchmarks.

Three claims, emitted to ``BENCH_codec.json``:

* **Plan cache.** Repeatedly pushing an unchanged object through the
  serialize -> NDEF pipeline is >= 3x faster with per-class serialization
  plans cached than with the honest no-cache baseline
  (``Gson(cache_plans=False)`` recomputes the MRO walks per object).
* **Write coalescing.** N redundant saves queued while the tag is away
  land in exactly 1 physical write, with all N success listeners firing
  in FIFO order; the uncoalesced baseline performs N physical writes.
* **NDEF encode memoization.** Re-encoding an unchanged message is a
  cache hit, so retries and re-taps never redo the byte assembly.
"""

import time

from repro.concurrent import EventLog
from repro.core.converters import ObjectToJsonConverter
from repro.gson import Gson
from repro.harness.report import Table
from repro.harness.scenario import Scenario
from repro.ndef import ENCODE_STATS

from tests.conftest import PlainNfcActivity, make_reference, text_tag

from benchmarks.conftest import emit_bench_json

# Deep hierarchy so per-object plan computation (transient/annotation MRO
# walks) is the dominant serialization cost, as it is for rich Thing
# class trees; every child object pays it again in the uncached variant.
_DEPTH = 12
_CHILDREN = 12
_QUEUED_SAVES = 16

# Accumulated across the tests in this module; each test re-emits the
# JSON so a filtered run (-k) still leaves a valid partial payload.
_PAYLOAD = {}


def _build_node_class():
    base = object
    for level in range(_DEPTH):
        namespace = {
            "__transient__": (f"s{level}a", f"s{level}b", f"s{level}c"),
            "__annotations__": {
                f"f{level}": int,
                f"g{level}": str,
                f"h{level}": float,
            },
        }
        base = type(f"BenchLevel{level}", (base,), namespace)
    return base


def _build_thing(node_class):
    root = node_class()
    root.f11 = 1
    root.g11 = "root"
    root.children = []
    for index in range(_CHILDREN):
        child = node_class()
        child.f11 = index
        child.g11 = f"child-{index}"
        root.children.append(child)
    return root


# Objects whose plan the encoder looks up per conversion: the root, its
# children list and each child.
_OBJECTS_PER_THING = 2 + _CHILDREN
_ITERATIONS = 400
_ROUNDS = 5


def _pipeline_ops_per_sec(convert, thing, iterations):
    """Throughput of one round of convert -> encode-to-wire-bytes."""
    start = time.perf_counter()
    for _ in range(iterations):
        convert(thing).to_bytes()
    return iterations / (time.perf_counter() - start)


def test_plan_cache_speedup():
    node_class = _build_node_class()
    thing = _build_thing(node_class)
    mime = "application/x-bench-node"
    cached_gson, uncached_gson = Gson(), Gson(cache_plans=False)
    cached = ObjectToJsonConverter(mime, gson=cached_gson)
    uncached = ObjectToJsonConverter(mime, gson=uncached_gson)

    # Identical output first -- the cache must be a pure fast path.
    assert cached.convert(thing).to_bytes() == uncached.convert(thing).to_bytes()

    _pipeline_ops_per_sec(cached.convert, thing, iterations=50)  # warm-up
    _pipeline_ops_per_sec(uncached.convert, thing, iterations=50)
    cached_misses = cached_gson.plan_misses
    uncached_misses = uncached_gson.plan_misses
    # Best of interleaved rounds: slow host drift lands on both sides
    # alike instead of on whichever side ran second.
    cached_ops = uncached_ops = 0.0
    for _ in range(_ROUNDS):
        cached_ops = max(
            cached_ops, _pipeline_ops_per_sec(cached.convert, thing, _ITERATIONS)
        )
        uncached_ops = max(
            uncached_ops, _pipeline_ops_per_sec(uncached.convert, thing, _ITERATIONS)
        )
    speedup = cached_ops / uncached_ops
    conversions = _ROUNDS * _ITERATIONS
    # The counts behind the ratio: the cache never recomputes a plan,
    # and the baseline recomputes one for every object it encodes.
    assert cached_gson.plan_misses == cached_misses
    assert (
        uncached_gson.plan_misses - uncached_misses
        == conversions * _OBJECTS_PER_THING
    )

    table = Table(
        f"Codec pipeline: serialize -> NDEF bytes, depth-{_DEPTH} hierarchy, "
        f"{_CHILDREN} children",
        ["variant", "ops/sec", "speedup"],
    )
    table.add_row("plan cache", f"{cached_ops:,.0f}", f"{speedup:.2f}x")
    table.add_row("no cache", f"{uncached_ops:,.0f}", "1.00x")
    table.print()

    _PAYLOAD["pipeline"] = {
        "cached_ops_per_sec": round(cached_ops, 1),
        "uncached_ops_per_sec": round(uncached_ops, 1),
        "speedup": round(speedup, 2),
    }
    emit_bench_json("codec", _PAYLOAD)
    assert speedup >= 3.0, f"plan cache speedup {speedup:.2f}x below the 3x bar"


def _queued_saves_physical_writes(coalesce: bool):
    """Queue N redundant writes while the tag is away; return
    (physical writes, listener order) after one tap."""
    with Scenario() as scenario:
        phone = scenario.add_phone("phone")
        activity = scenario.start(phone, PlainNfcActivity)
        tag = text_tag("initial")
        reference = make_reference(
            activity, tag, phone, coalesce_writes=coalesce
        )
        completed = EventLog()
        for index in range(_QUEUED_SAVES):
            reference.write(
                f"save-{index}",
                on_written=lambda r, i=index: completed.append(i),
                timeout=30.0,
            )
        assert reference.pending_count == _QUEUED_SAVES
        writes_before = phone.port.write_attempts
        scenario.put(tag, phone)
        assert completed.wait_for_count(_QUEUED_SAVES)
        assert tag.read_ndef()[0].payload.decode() == f"save-{_QUEUED_SAVES - 1}"
        return phone.port.write_attempts - writes_before, completed.snapshot()


def test_coalescing_collapses_redundant_saves():
    coalesced_writes, coalesced_order = _queued_saves_physical_writes(True)
    plain_writes, plain_order = _queued_saves_physical_writes(False)

    table = Table(
        f"Write coalescing -- {_QUEUED_SAVES} redundant saves queued while "
        "the tag is away, then one tap",
        ["variant", "physical writes", "listeners fired", "FIFO"],
    )
    fifo = list(range(_QUEUED_SAVES))
    table.add_row(
        "coalescing", coalesced_writes, len(coalesced_order),
        coalesced_order == fifo,
    )
    table.add_row(
        "every save", plain_writes, len(plain_order), plain_order == fifo
    )
    table.print()

    _PAYLOAD["coalescing"] = {
        "queued_saves": _QUEUED_SAVES,
        "physical_writes_coalesced": coalesced_writes,
        "physical_writes_uncoalesced": plain_writes,
        "listeners_fifo": coalesced_order == fifo,
    }
    emit_bench_json("codec", _PAYLOAD)

    assert coalesced_writes == 1
    assert coalesced_order == fifo
    assert plain_writes == _QUEUED_SAVES


def test_ndef_encode_memoization():
    node_class = _build_node_class()
    thing = _build_thing(node_class)
    converter = ObjectToJsonConverter("application/x-bench-node", gson=Gson())
    message = converter.convert(thing)

    ENCODE_STATS.reset()
    first = message.to_bytes()
    misses_after_first = ENCODE_STATS.misses
    repeats = 100
    for _ in range(repeats):
        assert message.to_bytes() == first  # retries re-serve cached bytes
    hit_ratio = ENCODE_STATS.hit_ratio

    table = Table(
        f"NDEF encode memoization -- 1 fresh encode + {repeats} re-encodes "
        "of the same message",
        ["hits", "misses", "hit ratio"],
    )
    table.add_row(ENCODE_STATS.hits, ENCODE_STATS.misses, f"{hit_ratio:.3f}")
    table.print()

    _PAYLOAD["ndef_encode_cache"] = {
        "hits": ENCODE_STATS.hits,
        "misses": ENCODE_STATS.misses,
        "hit_ratio": round(hit_ratio, 4),
    }
    emit_bench_json("codec", _PAYLOAD)

    assert ENCODE_STATS.misses == misses_after_first  # no re-encode cost
    assert hit_ratio > 0.9


def test_beam_payload_cache():
    """Re-broadcasting an unchanged thing reuses the converted payload.

    ``ThingBeamer`` keys on the canonical JSON text, so the hit path
    still pays the Gson walk (to compute the key) but skips record
    construction and NDEF byte assembly entirely -- repeat broadcasts
    add *zero* encode-cache misses, where converting per beam misses
    twice per broadcast (the message and its record).
    """
    from repro.core.beam import Beamer
    from repro.things.activity import ThingActivity, _ThingWriteConverter
    from repro.things.thing import Thing

    class BenchReading(Thing):
        def __init__(self, activity):
            super().__init__(activity)
            self.sensor = "temperature"
            self.samples = list(range(64))
            self.comment = "x" * 128

    class BenchReadingActivity(ThingActivity):
        THING_CLASS = BenchReading

    with Scenario() as scenario:
        phone = scenario.add_phone("beam-bench")
        app = scenario.start(phone, BenchReadingActivity)
        thing = BenchReading(app)
        cached_beamer = app.thing_beamer  # ThingBeamer
        plain_beamer = Beamer(app, _ThingWriteConverter(app, app.gson))
        try:
            cached = cached_beamer._convert_payload
            plain = plain_beamer._convert_payload
            cached(thing)  # prime the cache
            # Best of interleaved rounds, as for the plan cache above, with
            # each side's encode-cache misses counted round by round.
            cached_ops = plain_ops = 0.0
            cached_encode_misses = plain_encode_misses = 0
            for _ in range(_ROUNDS):
                before = ENCODE_STATS.misses
                cached_ops = max(
                    cached_ops, _pipeline_ops_per_sec(cached, thing, _ITERATIONS)
                )
                between = ENCODE_STATS.misses
                plain_ops = max(
                    plain_ops, _pipeline_ops_per_sec(plain, thing, _ITERATIONS)
                )
                cached_encode_misses += between - before
                plain_encode_misses += ENCODE_STATS.misses - between
            hits = cached_beamer.payload_hits
            misses = cached_beamer.payload_misses
        finally:
            plain_beamer.stop()

    broadcasts = _ROUNDS * _ITERATIONS
    speedup = cached_ops / plain_ops
    table = Table(
        f"Beam payload cache -- best of {_ROUNDS} interleaved rounds of "
        f"{_ITERATIONS} re-broadcasts of an unchanged thing",
        ["variant", "ops/sec", "encode misses", "speedup"],
    )
    table.add_row(
        "payload cache", f"{cached_ops:,.0f}", cached_encode_misses,
        f"{speedup:.2f}x",
    )
    table.add_row(
        "convert per beam", f"{plain_ops:,.0f}", plain_encode_misses, "1.00x"
    )
    table.print()

    _PAYLOAD["beam"] = {
        "iterations": _ITERATIONS,
        "rounds": _ROUNDS,
        "cached_ops_per_sec": round(cached_ops, 1),
        "uncached_ops_per_sec": round(plain_ops, 1),
        "speedup": round(speedup, 2),
        "payload_hits": hits,
        "encode_misses_while_hitting": cached_encode_misses,
        "encode_misses_converting": plain_encode_misses,
    }
    emit_bench_json("codec", _PAYLOAD)

    # The counts behind the ratio: every timed broadcast hit the payload
    # cache and never re-encoded; converting encoded message and record.
    assert hits == broadcasts and misses == 1
    assert cached_encode_misses == 0
    assert plain_encode_misses == 2 * broadcasts
    assert speedup > 1.0, f"payload cache slower than converting: {speedup:.2f}x"
