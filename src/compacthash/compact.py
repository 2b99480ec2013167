"""Open-addressing table that repairs probe chains on deletion.

Each busy slot stores its key together with a 1-based probe count: the
key was placed on its probe_count-th probe. A probe count of 0 marks an
empty slot. Deletion frees the slot and then compresses the chains that
ran through it, relocating any later entry whose probe count exceeds its
offset from the freed slot. No "deleted" markers are ever needed, so the
table never degrades under insert/delete churn.
"""

from array import array
from operator import index
from typing import Iterator, NamedTuple

from .errors import KeyOutOfRangeError, TableFullError
from .probing import GROWTH_LOAD_FACTOR, KEY_MAX, KEY_MIN, OpenAddressTable, TableParams


class Slot(NamedTuple):
    """One table cell; key is meaningful only when probe_count > 0."""

    key: int
    probe_count: int


class CompactTable(OpenAddressTable):
    """Integer set with open addressing and compaction-based deletion; growth counts live keys."""

    __slots__ = ("_probe_counts",)

    def __init__(self, params: TableParams):
        super().__init__(params)
        self._probe_counts = array("q", [0]) * params.capacity

    def keys(self) -> Iterator[int]:
        """Yield each stored key once, in ascending slot order."""
        pc = self._probe_counts
        keys = self._keys
        for i in range(self._capacity):
            if pc[i]:
                yield keys[i]

    def slot(self, index: int) -> Slot:
        return Slot(self._keys[index], self._probe_counts[index])

    def state_bytes(self) -> bytes:
        """Raw slot array; equal bytes mean equal table states."""
        return self._probe_counts.tobytes() + self._keys.tobytes()

    # -- membership ----------------------------------------------------

    # Every op writes its probe walk out, and insert its key and growth
    # checks too: a shared method would add a Python call, which costs
    # about as much as a short lookup. The plain contains and remove count
    # nothing; insert stores its count anyway, so the plain insert is
    # insert_counted's answer, and run_differential and bench call the twin.
    def contains(self, key: int) -> bool:
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = key % m
        while pc[i]:
            if keys[i] == key:
                return True
            i += step
            if i >= m:
                i -= m
        return False

    __contains__ = contains

    def contains_counted(self, key: int) -> tuple[bool, int]:
        """Like contains, also returning the number of slots examined."""
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = key % m
        j = 1
        while pc[i]:
            if keys[i] == key:
                return True, j
            i += step
            if i >= m:
                i -= m
            j += 1
        return False, j

    # -- insertion ------------------------------------------------------

    def insert_counted(self, key: int) -> tuple[bool, int]:
        """Like insert, also returning the number of slots examined."""
        if not KEY_MIN <= key <= KEY_MAX:
            raise KeyOutOfRangeError(f"key {key} is outside the signed 64-bit range")
        if self._params.growth_enabled and (self._live + 1) / self._capacity > GROWTH_LOAD_FACTOR:
            index(key)  # a key that is no int raises before it can grow the table
            self._grow()
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = key % m
        j = 1
        while pc[i]:
            if keys[i] == key:
                return False, j
            i += step
            if i >= m:
                i -= m
            j += 1
        if self._live == m - 1:
            raise TableFullError(f"table at occupancy cap {m - 1} (capacity {m}) and growth disabled")
        keys[i] = key
        pc[i] = j
        self._live += 1
        return True, j

    def insert(self, key: int) -> bool:
        """Add key; False if it was already present."""
        return self.insert_counted(key)[0]

    _insert = insert_counted  # rehash's name for placement, which no wrapper patches

    # -- deletion -------------------------------------------------------

    def remove(self, key: int) -> bool:
        """Delete key and compress the probe chains through its slot; False if it was absent."""
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = key % m
        while pc[i]:
            if keys[i] == key:
                pc[i] = 0
                keys[i] = 0
                self._live -= 1
                self._compress(i)
                return True
            i += step
            if i >= m:
                i -= m
        return False

    def remove_counted(self, key: int) -> tuple[bool, int, int, int]:
        """Delete key and compress the probe chains through its slot.

        Returns (removed, find_slots, compress_slots, relocations).
        """
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = key % m
        j = 1
        while pc[i]:
            if keys[i] == key:
                pc[i] = 0
                keys[i] = 0
                self._live -= 1
                scanned, moved = self._compress(i)
                return True, j, scanned, moved
            i += step
            if i >= m:
                i -= m
            j += 1
        return False, j, 0, 0

    def _compress(self, free: int) -> tuple[int, int]:
        """Repair probe chains after slot free was emptied.

        Scans forward by the probe step; an entry at offset off from the
        current free slot can be pulled back exactly when its probe count
        exceeds off (it skipped at least the free slot when it was
        placed). Relocated entries keep their key and shrink their probe
        count by the offset moved. Returns (slots scanned, relocations).
        """
        m = self._capacity
        step = self._step
        pc = self._probe_counts
        keys = self._keys
        i = free + step
        if i >= m:
            i -= m
        off = 1
        scanned = 1
        moved = 0
        while pc[i]:
            if pc[i] > off:
                keys[free] = keys[i]
                pc[free] = pc[i] - off
                keys[i] = 0
                pc[i] = 0
                free = i
                off = 0
                moved += 1
            i += step
            if i >= m:
                i -= m
            off += 1
            scanned += 1
        return scanned, moved
