"""Table parameters and the core both tables share.

A :class:`TableParams` instance is immutable and safe to share between
threads and tables. A key's home slot is key % capacity, computed inline
by every probe loop; Python's % is total over the signed 64-bit range.

:class:`OpenAddressTable` is everything CompactTable and TombstoneTable
have in common: the key array, the accessors, and growing and rebuilding
by rehash. Each table answers len() and keys() from its own record of
its keys, and writes its counted insert, contains and remove out whole,
and the tombstone table's plain ops, which skip its count.
"""

from array import array
from dataclasses import dataclass, replace
from math import gcd

from .errors import (CapacityTooSmallError, CompactHashError, StepNotCoprimeError, StepOutOfRangeError,
                     ZeroCapacityError)

# Keys are stored in signed 64-bit slot arrays.
KEY_MIN = -(1 << 63)
KEY_MAX = (1 << 63) - 1

# With growth enabled, an insert whose placement would push the table's
# growth count over GROWTH_LOAD_FACTOR of its capacity rehashes into
# GROWTH_MULTIPLIER times the capacity (rounded up to the next value
# coprime with the step) and places the key there instead.
GROWTH_LOAD_FACTOR = 0.7
GROWTH_MULTIPLIER = 2


@dataclass(frozen=True)
class TableParams:
    """Sizing and probing parameters for an open-addressing table.

    capacity is the number of slots, step the constant probe increment.
    step must be coprime with capacity so that a probe sequence visits
    every slot exactly once per cycle; otherwise insertion could fail on
    a table that still has room. Construction raises on an invalid
    configuration, so every TableParams that exists is valid; at
    capacity 1 any positive step is accepted.
    """

    capacity: int
    step: int = 1
    growth_enabled: bool = False

    def __post_init__(self):
        """Raise ZeroCapacityError, StepOutOfRangeError, StepNotCoprimeError or CompactHashError."""
        m, c, g = self.capacity, self.step, self.growth_enabled
        if type(m) is not int:
            raise ZeroCapacityError(f"capacity must be an int >= 1, got {m!r} ({type(m).__name__})")
        if type(c) is not int:
            raise StepOutOfRangeError(f"step must be an int, got {c!r} ({type(c).__name__})")
        if m < 1:
            raise ZeroCapacityError(f"capacity must be >= 1, got {m}")
        if c < 1 or (m > 1 and c >= m):
            raise StepOutOfRangeError(f"step must satisfy 1 <= step < capacity, got step={c} capacity={m}")
        if gcd(c, m) != 1:
            raise StepNotCoprimeError(f"gcd(step={c}, capacity={m}) = {gcd(c, m)}; some slots would be unreachable")
        if type(g) is not bool:
            raise CompactHashError(f"growth_enabled must be a bool, got {g!r} ({type(g).__name__})")


class OpenAddressTable:
    """Integer set over capacity slots probed (home + step * j) mod capacity.

    Keys are signed 64-bit integers. At least one slot is always kept
    empty so that every probe loop terminates. A subclass takes params as
    its only constructor argument (rehash builds type(self)(params)) and
    supplies both the plain ops and their counted twins:

    - insert(key) -> added, and insert_counted(key) -> (added, slots
      examined). Each raises KeyOutOfRangeError for a key outside
      [KEY_MIN, KEY_MAX], then probes. With growth on, a placement that
      raises the growth count calls _grow(count), and retries through
      _insert if that grew the table; no insert takes the last empty slot,
      raising TableFullError. One that answers False or raises changes
      nothing. _insert, which rehash calls and no wrapper patches, is the
      plain insert or insert_counted, whichever the other calls;
    - contains(key) -> found, bound to __contains__ too, and
      contains_counted(key) -> (found, slots examined);
    - remove(key) -> removed, and remove_counted(key) -> a tuple whose
      first item is "removed";
    - len() -> the number of stored keys, and keys(), yielding them in
      ascending slot order. A CompactTable keeps a live counter for len()
      and scans its probe counts for keys(); a TombstoneTable reads both
      from _slot_of, its key-to-slot dict.

    Each plain op gives its counted twin's answer, raises its errors and
    leaves the same table. A CompactTable's plain ops are their twins'
    first items; a TombstoneTable's skip the count its twins add. A twin
    never calls a public plain op, which a tracer may replace with a call
    of the twin.

    Instances are single-writer: no call is safe concurrently with a
    mutation on the same instance, but distinct instances are independent
    and may live on different threads. A TombstoneTable's plain ops never
    touch its next-FREE shortcuts; its counted twins make and compress them
    in a dict of their own, yet concurrent lookups agree: each such write
    stores the first FREE slot after the slot written, which no lookup moves.
    """

    __slots__ = ("_params", "_capacity", "_step", "_keys")

    def __init__(self, params: TableParams):
        self._params = params
        self._capacity = params.capacity
        self._step = params.step
        self._keys = array("q", [0]) * params.capacity

    @property
    def params(self) -> TableParams:
        return self._params

    @property
    def capacity(self) -> int:
        return self._capacity

    def _grow(self, count: int) -> bool:
        """With growth on, rehash into a larger capacity if count passes the threshold; True if it grew."""
        if count / self._capacity <= GROWTH_LOAD_FACTOR:
            return False
        # step % new_cap probes the same sequence as step; it differs from
        # step only when growing a 1-slot table, whose step may be any
        new_cap = GROWTH_MULTIPLIER * self._capacity
        while gcd(self._step, new_cap) != 1:
            new_cap += 1
        self._adopt(self.rehash(replace(self._params, capacity=new_cap, step=self._step % new_cap)))
        return True

    def _adopt(self, other: "OpenAddressTable") -> None:
        for cls in type(self).__mro__:
            for name in vars(cls).get("__slots__", ()):
                setattr(self, name, getattr(other, name))

    def rehash(self, new_params: TableParams) -> "OpenAddressTable":
        """Rebuild into a fresh table with new_params, keeping all keys.

        Keys are reinserted in ascending old slot order, which makes the
        result reproducible byte for byte; growth never fires during the
        rebuild, which runs with it off and then takes on new_params.
        Raises CapacityTooSmallError if the new capacity cannot hold every
        key plus one empty slot.
        """
        if new_params.capacity - 1 < len(self):
            raise CapacityTooSmallError(
                f"capacity {new_params.capacity} cannot hold {len(self)} keys plus an empty slot")
        fresh = type(self)(replace(new_params, growth_enabled=False))
        for key in self.keys():
            fresh._insert(key)
        fresh._params = new_params
        return fresh
