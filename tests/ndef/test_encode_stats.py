"""EncodeStats: counting semantics and thread safety.

The counters are process-wide and bumped from reactor loops, beamer
threads and loopers concurrently; losing increments under contention
would silently understate cache effectiveness in the benches.
"""

import threading

from repro.ndef import ENCODE_STATS, NdefMessage
from repro.ndef.mime import mime_record
from repro.ndef.record import EncodeStats


class TestCountingSemantics:
    def test_fresh_stats_are_zero(self):
        stats = EncodeStats()
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.hit_ratio == 0.0
        assert stats.snapshot() == (0, 0)

    def test_hit_miss_and_reset(self):
        stats = EncodeStats()
        stats.miss()
        stats.hit()
        stats.hit()
        assert stats.snapshot() == (2, 1)
        assert abs(stats.hit_ratio - 2 / 3) < 1e-9
        assert repr(stats) == "EncodeStats(hits=2, misses=1)"
        stats.reset()
        assert stats.snapshot() == (0, 0)

    def test_message_encode_feeds_the_global_stats(self):
        ENCODE_STATS.reset()
        message = NdefMessage([mime_record("text/plain", b"payload")])
        message.to_bytes()
        hits, misses = ENCODE_STATS.snapshot()
        assert misses >= 1  # fresh message + fresh record
        first_hits = hits
        message.to_bytes()
        assert ENCODE_STATS.hits == first_hits + 1
        assert ENCODE_STATS.misses == misses  # memoized, no re-encode


class TestThreadSafety:
    def test_no_increment_is_lost_under_contention(self):
        stats = EncodeStats()
        threads = 8
        per_thread = 5000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for index in range(per_thread):
                if index % 2:
                    stats.hit()
                else:
                    stats.miss()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        expected = threads * per_thread // 2
        assert stats.snapshot() == (expected, expected)

    def test_concurrent_encoding_counts_exactly(self):
        ENCODE_STATS.reset()
        message = NdefMessage([mime_record("text/plain", b"shared")])
        message.to_bytes()  # settle the memo single-threaded
        _hits_before, misses_before = ENCODE_STATS.snapshot()
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def encode():
            barrier.wait()
            for _ in range(per_thread):
                message.to_bytes()

        workers = [threading.Thread(target=encode) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        hits, misses = ENCODE_STATS.snapshot()
        assert misses == misses_before  # every concurrent encode was a hit
        assert hits >= threads * per_thread
