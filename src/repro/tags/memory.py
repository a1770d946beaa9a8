"""Page-addressed tag EEPROM.

Type 2 tags expose their memory as 4-byte pages. Pages 0-2 hold the UID
and internal/lock bytes, page 3 holds the capability container, and user
memory starts at page 4. This module models just the storage: bounds
checking, page granularity, per-page write counting (for the endurance
model) and a static lock that freezes the user area.
"""

from __future__ import annotations

import threading
from typing import List

from repro.errors import TagError, TagReadOnlyError, TagWornOutError

PAGE_SIZE = 4


class TagMemory:
    """A bank of 4-byte pages with lock and endurance accounting."""

    def __init__(self, page_count: int, write_endurance: int = 0) -> None:
        """Create a zeroed memory of ``page_count`` pages.

        ``write_endurance`` is the number of write cycles each page
        tolerates; 0 disables the endurance model.
        """
        if page_count <= 0:
            raise TagError("a tag needs at least one memory page")
        self._pages = bytearray(page_count * PAGE_SIZE)
        self._page_count = page_count
        self._write_counts = [0] * page_count
        self._write_endurance = write_endurance
        self._locked = False
        self._lock = threading.RLock()

    # -- geometry ------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def byte_size(self) -> int:
        return self._page_count * PAGE_SIZE

    # -- locking -------------------------------------------------------------

    @property
    def locked(self) -> bool:
        with self._lock:
            return self._locked

    def lock(self) -> None:
        """Set the static lock: all subsequent writes fail. Irreversible."""
        with self._lock:
            self._locked = True

    # -- page I/O ------------------------------------------------------------

    def read_page(self, page: int) -> bytes:
        with self._lock:
            self._check_page(page)
            offset = page * PAGE_SIZE
            return bytes(self._pages[offset : offset + PAGE_SIZE])

    def read_pages(self, page: int, count: int) -> bytes:
        with self._lock:
            if count < 0:
                raise TagError("page count must be >= 0")
            self._check_page(page)
            if count and page + count > self._page_count:
                raise TagError(
                    f"read of {count} pages at page {page} exceeds "
                    f"{self._page_count}-page memory"
                )
            offset = page * PAGE_SIZE
            return bytes(self._pages[offset : offset + count * PAGE_SIZE])

    def write_page(self, page: int, data: bytes) -> None:
        with self._lock:
            self._check_page(page)
            if len(data) != PAGE_SIZE:
                raise TagError(f"page writes must be exactly {PAGE_SIZE} bytes")
            if self._locked:
                raise TagReadOnlyError(f"page {page} is locked")
            if self._write_endurance:
                if self._write_counts[page] >= self._write_endurance:
                    raise TagWornOutError(
                        f"page {page} exceeded its {self._write_endurance}-cycle "
                        "write endurance"
                    )
                self._write_counts[page] += 1
            offset = page * PAGE_SIZE
            self._pages[offset : offset + PAGE_SIZE] = data

    def write_bytes(self, start_page: int, data: bytes) -> None:
        """Write ``data`` over the pages from ``start_page`` on, in one pass.

        The final partial page (if any) keeps its existing bytes, i.e.
        only ``len(data)`` bytes actually change. Bytes, wear counts and
        errors are those of writing page by page: a write past the end,
        a page out of range or a locked tag raises before any byte
        changes; if a page has exhausted its endurance, the pages before
        it are written and counted, then ``TagWornOutError`` names it.
        """
        size = len(data)
        with self._lock:
            needed = -(-size // PAGE_SIZE)
            if start_page + needed > self._page_count:
                raise TagError(f"{size}-byte write at page {start_page} exceeds memory")
            if not needed:
                return
            self._check_page(start_page)
            if self._locked:
                raise TagReadOnlyError(f"page {start_page} is locked")
            worn = None
            endurance = self._write_endurance
            if endurance:
                counts = self._write_counts
                for page in range(start_page, start_page + needed):
                    if counts[page] >= endurance:
                        worn = page
                        break
                    counts[page] += 1
            offset = start_page * PAGE_SIZE
            if worn is None:
                self._pages[offset : offset + size] = data
                return
            written = (worn - start_page) * PAGE_SIZE
            self._pages[offset : offset + written] = data[:written]
            raise TagWornOutError(
                f"page {worn} exceeded its {endurance}-cycle write endurance"
            )

    # -- diagnostics ---------------------------------------------------------

    def write_count(self, page: int) -> int:
        with self._lock:
            self._check_page(page)
            return self._write_counts[page]

    def total_writes(self) -> int:
        with self._lock:
            return sum(self._write_counts)

    def worn_pages(self) -> List[int]:
        """Pages that have exhausted their endurance budget."""
        with self._lock:
            if not self._write_endurance:
                return []
            return [
                page
                for page, count in enumerate(self._write_counts)
                if count >= self._write_endurance
            ]

    # -- persistence -----------------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-able snapshot of the full memory state."""
        with self._lock:
            return {
                "pages": bytes(self._pages).hex(),
                "page_count": self._page_count,
                "write_counts": list(self._write_counts),
                "write_endurance": self._write_endurance,
                "locked": self._locked,
            }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        with self._lock:
            pages = bytes.fromhex(state["pages"])
            if len(pages) != self.byte_size or state["page_count"] != self._page_count:
                raise TagError("snapshot geometry does not match this memory")
            self._pages[:] = pages
            self._write_counts = list(state["write_counts"])
            self._write_endurance = int(state["write_endurance"])
            self._locked = bool(state["locked"])

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self._page_count:
            raise TagError(
                f"page {page} out of range (tag has {self._page_count} pages)"
            )

    def __repr__(self) -> str:
        return (
            f"TagMemory(pages={self._page_count}, locked={self._locked}, "
            f"writes={self.total_writes()})"
        )
