"""Classical three-state deletion baseline for comparison benchmarks.

Slots are FREE, BUSY, or DELETED. Deletion just marks the slot DELETED;
searches must walk through deleted slots, and insertions may reuse them.
The count of non-FREE slots therefore never decreases, which is the
degradation the compact table avoids and the benchmark CLI measures.

Probe costs reported by this module count slots a classical walk would
examine. Placement itself switches to an index-based search (membership
dict plus free/deleted bitmasks over cycle positions) once FREE slots
become scarce, because a literal walk is Theta(capacity) per insert on a
saturated table; both paths produce identical slot states and results.
"""

from array import array
from typing import Iterator, NamedTuple

import numpy as np

from .errors import TableFullError
from .probing import OpenAddressTable, TableParams

FREE = 0
BUSY = 1
DELETED = 2


class TombstoneSlot(NamedTuple):
    """One table cell; key is meaningful only when state is BUSY."""

    key: int
    state: int


class TombstoneTable(OpenAddressTable):
    """Integer set with open addressing and tombstone deletion.

    One FREE slot is always kept (non-FREE count capped at capacity - 1)
    so unsuccessful searches terminate. The growth threshold applies to
    the non-FREE count, and rehash is the one operation that drops
    tombstones.
    """

    # Placement walks while free slots exceed capacity / _MASK_PATH_FACTOR,
    # then switches to the bitmask index. Tests override this to force
    # either path.
    _MASK_PATH_FACTOR = 64

    __slots__ = ("_inv_step", "_states", "_non_free", "_slot_of", "_free_mask", "_del_mask")

    def __init__(self, params: TableParams):
        super().__init__(params)
        self._inv_step = pow(params.step, -1, params.capacity)
        self._states = array("b", bytes(params.capacity))
        self._non_free = 0
        self._slot_of: dict[int, int] = {}
        self._free_mask: int | None = None
        self._del_mask: int | None = None

    def _empty(self, params: TableParams) -> "TombstoneTable":
        return TombstoneTable(params)

    def _growth_count(self) -> int:
        return self._non_free

    @property
    def non_free_count(self) -> int:
        """BUSY plus DELETED slots; never decreases except on rehash."""
        return self._non_free

    @property
    def tombstone_count(self) -> int:
        return self._non_free - self._live

    def keys(self) -> Iterator[int]:
        st = self._states
        keys = self._keys
        for i in range(self._capacity):
            if st[i] == BUSY:
                yield keys[i]

    def slot(self, index: int) -> TombstoneSlot:
        return TombstoneSlot(self._keys[index], self._states[index])

    def state_bytes(self) -> bytes:
        return self._states.tobytes() + self._keys.tobytes()

    # -- cycle-position helpers (probe order as consecutive positions) --

    def _pos(self, slot: int) -> int:
        return slot * self._inv_step % self._capacity

    def _slot(self, pos: int) -> int:
        return pos * self._step % self._capacity

    # -- membership ----------------------------------------------------

    def contains_counted(self, key: int) -> tuple[bool, int]:
        m = self._capacity
        step = self._step
        st = self._states
        keys = self._keys
        i = key % m
        n = 1
        while True:
            s = st[i]
            if s == FREE:
                return False, n
            if s == BUSY and keys[i] == key:
                return True, n
            i += step
            if i >= m:
                i -= m
            n += 1

    def probe_cost(self, key: int) -> int:
        """Slots a lookup of key examines, terminator or hit included."""
        return self.contains_counted(key)[1]

    # -- insertion ------------------------------------------------------

    def _place_insert(self, key: int) -> tuple[bool, int]:
        """Reuse the first tombstone on the probe path, but only after the
        walk has ruled the key out; otherwise take the first FREE slot."""
        m = self._capacity
        if (m - self._non_free) * self._MASK_PATH_FACTOR >= m:
            return self._insert_walk(key)
        return self._insert_masked(key)

    def _insert_walk(self, key: int) -> tuple[bool, int]:
        m = self._capacity
        step = self._step
        st = self._states
        keys = self._keys
        i = key % m
        n = 1
        reuse = -1
        while True:
            s = st[i]
            if s == FREE:
                break
            if s == BUSY and keys[i] == key:
                return False, n
            if s == DELETED and reuse < 0:
                reuse = i
            i += step
            if i >= m:
                i -= m
            n += 1
        self._place(key, i if reuse < 0 else reuse)
        return True, n

    def _insert_masked(self, key: int) -> tuple[bool, int]:
        # Identical outcome to the walk: a present key always sits before
        # the first FREE slot on its path (no-FREE-on-path invariant), so
        # dict membership decides the duplicate case, and the masks find
        # the same first-DELETED / first-FREE slots the walk would.
        m = self._capacity
        if self._free_mask is None:
            self._build_masks()
        home_pos = self._pos(key % m)
        found = self._slot_of.get(key)
        if found is not None:
            return False, (self._pos(found) - home_pos) % m + 1
        f_pos = self._first_free_pos(home_pos)
        dist = (f_pos - home_pos) % m
        d_pos = self._first_deleted_in(home_pos, dist)
        self._place(key, self._slot(f_pos if d_pos < 0 else d_pos))
        return True, dist + 1

    def _place(self, key: int, slot: int) -> None:
        state = self._states[slot]
        if state == FREE:
            if self._capacity - self._non_free == 1:
                raise TableFullError(
                    f"table has a single FREE slot left (capacity {self._capacity}) and growth disabled")
            self._non_free += 1
            if self._free_mask is not None:
                self._free_mask ^= 1 << self._pos(slot)
        else:
            if self._del_mask is not None:
                self._del_mask ^= 1 << self._pos(slot)
        self._states[slot] = BUSY
        self._keys[slot] = key
        self._live += 1
        self._slot_of[key] = slot

    # -- deletion -------------------------------------------------------

    def remove_counted(self, key: int) -> tuple[bool, int]:
        """Mark key's slot DELETED; the slot stays on every probe path."""
        m = self._capacity
        step = self._step
        st = self._states
        keys = self._keys
        i = key % m
        n = 1
        while True:
            s = st[i]
            if s == FREE:
                return False, n
            if s == BUSY and keys[i] == key:
                st[i] = DELETED
                keys[i] = 0
                self._live -= 1
                del self._slot_of[key]
                if self._del_mask is not None:
                    self._del_mask |= 1 << self._pos(i)
                return True, n
            i += step
            if i >= m:
                i -= m
            n += 1

    # -- saturated-regime index ------------------------------------------

    def _build_masks(self) -> None:
        m = self._capacity
        st = np.frombuffer(self._states, dtype=np.int8)
        if self._step != 1:
            sigma = np.arange(m, dtype=np.int64) * self._step % m
            st = st[sigma]
        self._free_mask = int.from_bytes(np.packbits(st == FREE, bitorder="little").tobytes(), "little")
        self._del_mask = int.from_bytes(np.packbits(st == DELETED, bitorder="little").tobytes(), "little")

    def _first_free_pos(self, p: int) -> int:
        mask = self._free_mask
        lo = mask >> p
        if lo:
            return p + ((lo & -lo).bit_length() - 1)
        hi = mask & ((1 << p) - 1)
        return (hi & -hi).bit_length() - 1

    def _first_deleted_in(self, p: int, dist: int) -> int:
        """First DELETED cycle position in the window [p, p + dist), or -1."""
        m = self._capacity
        lo = self._del_mask >> p
        if lo:
            off = (lo & -lo).bit_length() - 1
            return p + off if off < dist else -1
        wrap = dist - (m - p)
        if wrap > 0:
            hi = self._del_mask & ((1 << wrap) - 1)
            if hi:
                return (hi & -hi).bit_length() - 1
        return -1
