"""Unit tests for the page-addressed tag EEPROM."""

import random

import pytest

from repro.errors import TagError, TagReadOnlyError, TagWornOutError
from repro.tags.memory import PAGE_SIZE, TagMemory


class TestGeometry:
    def test_sizes(self):
        memory = TagMemory(page_count=10)
        assert memory.page_count == 10
        assert memory.byte_size == 10 * PAGE_SIZE

    def test_zero_pages_rejected(self):
        with pytest.raises(TagError):
            TagMemory(page_count=0)

    def test_starts_zeroed(self):
        memory = TagMemory(page_count=4)
        assert memory.read_pages(0, 4) == b"\x00" * 16


class TestPageIO:
    def test_write_read_roundtrip(self):
        memory = TagMemory(page_count=4)
        memory.write_page(2, b"abcd")
        assert memory.read_page(2) == b"abcd"
        assert memory.read_page(1) == b"\x00" * 4

    def test_write_requires_exact_page_size(self):
        memory = TagMemory(page_count=4)
        with pytest.raises(TagError):
            memory.write_page(0, b"abc")
        with pytest.raises(TagError):
            memory.write_page(0, b"abcde")

    def test_out_of_range_page_rejected(self):
        memory = TagMemory(page_count=4)
        with pytest.raises(TagError):
            memory.read_page(4)
        with pytest.raises(TagError):
            memory.write_page(-1, b"abcd")

    def test_multi_page_read(self):
        memory = TagMemory(page_count=4)
        memory.write_page(1, b"1111")
        memory.write_page(2, b"2222")
        assert memory.read_pages(1, 2) == b"11112222"

    def test_multi_page_read_overflow_rejected(self):
        memory = TagMemory(page_count=4)
        with pytest.raises(TagError):
            memory.read_pages(2, 3)

    def test_negative_count_rejected(self):
        memory = TagMemory(page_count=4)
        with pytest.raises(TagError):
            memory.read_pages(0, -1)


class TestWriteBytes:
    def test_partial_tail_page_preserves_existing_bytes(self):
        memory = TagMemory(page_count=4)
        memory.write_page(1, b"WXYZ")
        memory.write_bytes(0, b"abcde")  # 1 full page + 1 byte
        assert memory.read_page(0) == b"abcd"
        assert memory.read_page(1) == b"eXYZ"

    def test_exact_multiple_of_page(self):
        memory = TagMemory(page_count=4)
        memory.write_bytes(1, b"12345678")
        assert memory.read_pages(1, 2) == b"12345678"

    def test_overflow_rejected_before_any_write(self):
        memory = TagMemory(page_count=2)
        memory.write_page(0, b"keep")
        with pytest.raises(TagError):
            memory.write_bytes(1, b"123456789")
        assert memory.read_page(0) == b"keep"


def write_bytes_by_page(memory, start_page, data):
    """The page-by-page reference for ``TagMemory.write_bytes``: the
    bounds check, then every page through ``write_page``, the partial
    tail page patched with its existing bytes."""
    full_pages, remainder = divmod(len(data), PAGE_SIZE)
    needed = full_pages + (1 if remainder else 0)
    if start_page + needed > memory.page_count:
        raise TagError(f"{len(data)}-byte write at page {start_page} exceeds memory")
    for index in range(full_pages):
        offset = index * PAGE_SIZE
        memory.write_page(start_page + index, data[offset : offset + PAGE_SIZE])
    if remainder:
        tail_page = start_page + full_pages
        existing = memory.read_page(tail_page)
        memory.write_page(tail_page, data[full_pages * PAGE_SIZE :] + existing[remainder:])


def outcome(write, memory, start_page, data):
    try:
        write(memory, start_page, data)
    except TagError as error:
        return type(error), str(error)
    return None


class TestWriteBytesMatchesPageByPage:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_bytes_wear_and_errors(self, seed):
        rng = random.Random(seed)
        pages = rng.randint(4, 24)
        endurance = rng.choice([0, 2, 3, 5])
        fast = TagMemory(pages, write_endurance=endurance)
        model = TagMemory(pages, write_endurance=endurance)
        page_writes = []
        write_page = fast.write_page
        fast.write_page = lambda *args: page_writes.append(args) or write_page(*args)
        lock_at = rng.choice([None, rng.randrange(40)])
        for step in range(40):
            if step == lock_at:
                fast.lock()
                model.lock()
            start = rng.randint(-3, pages + 1)
            size = rng.choice(
                [0, rng.randint(1, PAGE_SIZE - 1), rng.randint(1, (pages + 2) * PAGE_SIZE)]
            )
            data = bytes(rng.getrandbits(8) for _ in range(size))
            expected = outcome(write_bytes_by_page, model, start, data)
            observed = outcome(TagMemory.write_bytes, fast, start, data)
            assert observed == expected, (seed, step, start, size)
            assert fast.export_state() == model.export_state(), (seed, step)
        assert page_writes == []  # one pass, not page by page


class TestLocking:
    def test_lock_blocks_writes(self):
        memory = TagMemory(page_count=4)
        memory.lock()
        assert memory.locked
        with pytest.raises(TagReadOnlyError):
            memory.write_page(0, b"abcd")

    def test_lock_still_allows_reads(self):
        memory = TagMemory(page_count=4)
        memory.write_page(0, b"abcd")
        memory.lock()
        assert memory.read_page(0) == b"abcd"


class TestEndurance:
    def test_wear_out_after_budget(self):
        memory = TagMemory(page_count=2, write_endurance=3)
        for _ in range(3):
            memory.write_page(0, b"abcd")
        with pytest.raises(TagWornOutError):
            memory.write_page(0, b"abcd")

    def test_wear_is_per_page(self):
        memory = TagMemory(page_count=2, write_endurance=1)
        memory.write_page(0, b"abcd")
        memory.write_page(1, b"abcd")  # other page still fresh
        with pytest.raises(TagWornOutError):
            memory.write_page(0, b"abcd")

    def test_write_counters(self):
        memory = TagMemory(page_count=2, write_endurance=10)
        memory.write_page(0, b"abcd")
        memory.write_page(0, b"abcd")
        memory.write_page(1, b"abcd")
        assert memory.write_count(0) == 2
        assert memory.write_count(1) == 1
        assert memory.total_writes() == 3

    def test_worn_pages_listing(self):
        memory = TagMemory(page_count=3, write_endurance=1)
        memory.write_page(1, b"abcd")
        assert memory.worn_pages() == [1]

    def test_no_endurance_model_means_unlimited(self):
        memory = TagMemory(page_count=1, write_endurance=0)
        for _ in range(100):
            memory.write_page(0, b"abcd")
        assert memory.worn_pages() == []
