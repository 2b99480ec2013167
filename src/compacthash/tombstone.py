"""Classical three-state deletion baseline for comparison benchmarks.

Slots are FREE, BUSY, or DELETED. Deletion just marks the slot DELETED;
searches must walk through deleted slots, and insertions may reuse them.
The count of non-FREE slots therefore never decreases, which is the
degradation the compact table avoids and the benchmark CLI measures.

Probe costs reported by this module count slots a classical walk would
examine. Searches and deletions are literal walks. Insertion places the
key exactly where the walk would, without walking the whole path: a
membership dict settles duplicates, the placement walk crosses only BUSY
slots, and the classical count up to the first FREE slot comes from
next-FREE pointers with path compression (FREE slots never reappear
before a rehash). Its cost therefore does not grow with capacity, even
on a saturated table where the classical walk is Theta(capacity).
"""

from array import array
from typing import Iterator, NamedTuple

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

    __slots__ = ("_inv_step", "_states", "_non_free", "_slot_of", "_next_free")

    def __init__(self, params: TableParams):
        super().__init__(params)
        self._inv_step = pow(params.step, -1, params.capacity)
        self._states = array("b", bytes(params.capacity))
        self._non_free = 0
        self._slot_of: dict[int, int] = {}
        # read only at non-FREE slots, each set when its slot stops being FREE
        self._next_free = array("q", bytes(8 * params.capacity))

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

    # -- membership ----------------------------------------------------

    def contains_counted(self, key: int) -> tuple[bool, int]:
        """Like contains, also returning the slots examined, terminator or hit included."""
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

    # -- insertion ------------------------------------------------------

    def _place_insert(self, key: int) -> tuple[bool, int]:
        """Reuse the first tombstone on the probe path if the key is absent,
        otherwise take the first FREE slot; count as the classical walk.

        A present key sits before the first FREE slot on its path, so the
        walk would stop on it: _slot_of decides the duplicate case. An
        absent key's walk runs to the first FREE slot, which _first_free
        finds from the first non-BUSY slot on the path.
        """
        m = self._capacity
        home = key % m
        found = self._slot_of.get(key)
        if found is not None:
            return False, (found - home) * self._inv_step % m + 1
        step = self._step
        st = self._states
        i = home
        n = 1
        while st[i] == BUSY:
            i += step
            if i >= m:
                i -= m
            n += 1
        if st[i] == FREE:
            if m - self._non_free == 1:
                raise TableFullError(f"table has a single FREE slot left (capacity {m}) and growth disabled")
            self._non_free += 1
            self._next_free[i] = (i + step) % m
        else:
            n = (self._first_free(i) - home) * self._inv_step % m + 1
        st[i] = BUSY
        self._keys[i] = key
        self._live += 1
        self._slot_of[key] = i
        return True, n

    def _first_free(self, i: int) -> int:
        """First FREE slot on the probe path from non-FREE slot i.

        _next_free[s] of a non-FREE slot s names a later slot on its path
        with only non-FREE slots in between. Slots only turn FREE in a
        fresh table, so the pointers stay valid and are compressed as
        they are followed.
        """
        nxt = self._next_free
        st = self._states
        root = i
        while st[root] != FREE:
            root = nxt[root]
        while i != root:
            nxt[i], i = root, nxt[i]
        return root

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
                return True, n
            i += step
            if i >= m:
                i -= m
            n += 1
