"""Classical three-state deletion baseline for comparison benchmarks.

Slots are FREE, BUSY, or DELETED. Deletion just marks the slot DELETED;
searches must walk through deleted slots, and insertions may reuse them.
The count of non-FREE slots therefore never decreases, which is the
degradation the compact table avoids and the benchmark CLI measures.

The plain insert, contains and remove compute no probe count: a FREE
home slot or a key-to-slot dict answers a lookup, and only insertion
walks, across the BUSY slots before the slot it takes, so no op's cost
grows with capacity, even on a saturated table where the classical walk
is Theta(capacity). The *_counted twins add the slots the classical walk
from the key's home examines before the op, the slot it stops on included:
(stop - home) * step^-1 mod capacity + 1. The stop is a FREE home
itself, a stored key's slot, or else, for an absent key, the first FREE
slot on the path (an insert that grows the table counts the walk to the
key in the grown one). That FREE slot is found by next-FREE shortcuts with path compression that only the twins make and follow, in
a dict of their own: the plain table costs 9 bytes per slot plus _slot_of.
That key-to-slot dict is also the table's size and key listing: len() is
its length, and keys() reads the key array at its slots, in ascending order.
"""

from array import array
from typing import Iterator

from .errors import KeyOutOfRangeError, TableFullError
from .probing import KEY_MAX, KEY_MIN, OpenAddressTable, TableParams

FREE = 0
BUSY = 1
DELETED = 2


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
        self._states = array("b", [FREE]) * params.capacity
        self._non_free = 0
        self._slot_of: dict[int, int] = {}
        self._next_free: dict[int, int] = {}  # the twins' shortcuts, see _first_free

    @property
    def non_free_count(self) -> int:
        """BUSY plus DELETED slots; never decreases except on rehash."""
        return self._non_free

    def __len__(self) -> int:
        return len(self._slot_of)

    def keys(self) -> Iterator[int]:
        return map(self._keys.__getitem__, sorted(self._slot_of.values()))

    def state_bytes(self) -> bytes:
        return self._states.tobytes() + self._keys.tobytes()

    # -- membership ----------------------------------------------------

    def contains(self, key: int) -> bool:
        return self._states[key % self._capacity] != FREE and key in self._slot_of  # a non-int key raises first

    def contains_counted(self, key: int) -> tuple[bool, int]:
        """Like contains, also returning the slots the classical walk examines, its stop included."""
        m = self._capacity
        home = key % m
        if self._states[home] == FREE:
            return False, 1
        stop = self._slot_of.get(key)
        if stop is None:
            return False, (self._first_free(home) - home) * self._inv_step % m + 1
        return True, (stop - home) * self._inv_step % m + 1

    # -- insertion ------------------------------------------------------

    def insert(self, key: int) -> bool:
        """Reuse the first tombstone on the probe path if the key is absent,
        otherwise take the first FREE slot; False if the key was present."""
        if not KEY_MIN <= key <= KEY_MAX:
            raise KeyOutOfRangeError(f"key {key} is outside the signed 64-bit range")
        m = self._capacity
        st = self._states
        i = key % m
        s = st[i]  # a key that is no int raises here, before _slot_of can match it by hash
        if key in self._slot_of:
            return False
        step = self._step
        while s == BUSY:
            i += step
            if i >= m:
                i -= m
            s = st[i]
        if s == FREE:
            if self._params.growth_enabled and self._grow(self._non_free + 1):
                return self._insert(key)
            if m - self._non_free == 1:
                raise TableFullError(f"table has a single FREE slot left (capacity {m}) and growth disabled")
            self._non_free += 1
        st[i] = BUSY
        self._keys[i] = key
        self._slot_of[key] = i
        return True

    def insert_counted(self, key: int) -> tuple[bool, int]:
        """Like insert, also returning the slots the classical walk examines before it,
        or, after a growth, the walk to the key in the grown table."""
        m = self._capacity
        n = self._walk(key)[1]
        added = self._insert(key)
        return added, n if self._capacity == m else self._walk(key)[1]

    def _first_free(self, i: int) -> int:
        """First FREE slot on the probe path from non-FREE slot i.

        _next_free maps a non-FREE slot to a later slot on its path with
        only non-FREE slots between, and a slot with no entry goes on to
        the next. Slots only turn FREE in a fresh table, so entries stay
        valid; each slot visited is pointed at the FREE slot found.
        """
        nxt = self._next_free
        st = self._states
        m, step = self._capacity, self._step
        root = i
        while st[root] != FREE:
            root = nxt.get(root, (root + step) % m)
        while i != root:
            nxt[i], i = root, nxt.get(i, (i + step) % m)
        return root

    # -- deletion -------------------------------------------------------

    def remove(self, key: int) -> bool:
        """Mark key's slot DELETED; the slot stays on every probe path."""
        st = self._states
        if st[key % self._capacity] == FREE:  # a key that is no int raises here, before _slot_of can match it by hash
            return False
        i = self._slot_of.pop(key, None)
        if i is None:
            return False
        st[i] = DELETED
        self._keys[i] = 0
        return True

    def remove_counted(self, key: int) -> tuple[bool, int]:
        """Like remove, also returning the slots examined, terminator or hit included."""
        n = self._walk(key)[1]
        return self._remove(key), n

    __contains__ = contains
    # the twins' names for the ops they call: a wrapper that makes a public op call its twin must not recurse
    _walk = contains_counted
    _insert = insert
    _remove = remove
