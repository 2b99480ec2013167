"""Hashing, probe-sequence arithmetic and the core both tables share.

The functions here are pure; a :class:`TableParams` instance is immutable
and safe to share between threads and tables.

:class:`OpenAddressTable` is everything CompactTable and TombstoneTable
have in common: the key array and live count, the accessors, the growth
policy, rebuilding by rehash, the signed 64-bit key check, and the public
insert/contains/remove wrappers over each table's counted operations.
The tables differ only in their slot-state array and the code that
probes, places and deletes.
"""

from array import array
from dataclasses import dataclass, replace
from math import gcd

from .errors import (CapacityTooSmallError, KeyOutOfRangeError, StepNotCoprimeError,
                     StepOutOfRangeError, ZeroCapacityError)

DEFAULT_CAPACITY = 1_000_000

# Keys are stored in signed 64-bit slot arrays.
KEY_MIN = -(1 << 63)
KEY_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class TableParams:
    """Sizing and probing parameters for an open-addressing table.

    capacity is the number of slots, step the constant probe increment.
    step must be coprime with capacity so that a probe sequence visits
    every slot exactly once per cycle; otherwise insertion could fail on
    a table that still has room.
    """

    capacity: int = DEFAULT_CAPACITY
    step: int = 1
    growth_enabled: bool = False
    growth_load_factor: float = 0.7
    growth_multiplier: int = 2


def validate_params(params: TableParams) -> TableParams:
    """Return params unchanged, or raise if any invariant fails.

    Raises ZeroCapacityError, StepOutOfRangeError or StepNotCoprimeError.
    """
    m, c = params.capacity, params.step
    if m < 1:
        raise ZeroCapacityError(f"capacity must be >= 1, got {m}")
    if c < 1 or (m > 1 and c >= m):
        raise StepOutOfRangeError(f"step must satisfy 1 <= step < capacity, got step={c} capacity={m}")
    if gcd(c, m) != 1:
        raise StepNotCoprimeError(f"gcd(step={c}, capacity={m}) = {gcd(c, m)}; some slots would be unreachable")
    if params.growth_multiplier < 2:
        raise StepOutOfRangeError(f"growth_multiplier must be >= 2, got {params.growth_multiplier}")
    if not 0.0 < params.growth_load_factor < 1.0:
        raise StepOutOfRangeError(f"growth_load_factor must lie in (0, 1), got {params.growth_load_factor}")
    return params


def hash_index(key: int, capacity: int) -> int:
    """Home slot of key: the nonnegative remainder of key modulo capacity.

    Python's % already returns a result in [0, capacity) for positive
    divisors, so this is total over the full signed 64-bit range (taking
    abs() first would overflow on the minimum value in fixed-width
    languages and is avoided on purpose).
    """
    return key % capacity


def probe_slot(key: int, j: int, params: TableParams) -> int:
    """Slot examined on the j-th probe for key (j = 0 is the home slot)."""
    return (key % params.capacity + params.step * j) % params.capacity


class OpenAddressTable:
    """Integer set over capacity slots probed (home + step * j) mod capacity.

    Keys are signed 64-bit integers. At least one slot is always kept
    empty so that every probe loop terminates. A subclass supplies:

    - contains_counted(key) -> (found, slots examined);
    - remove_counted(key) -> a tuple whose first item is "removed";
    - _place_insert(key) -> (added, slots examined), without growth;
    - _growth_count(), the slot count the growth threshold applies to;
    - _empty(params), a fresh empty table of the same kind;
    - keys(), yielding the stored keys in ascending slot order.

    Instances are single-writer: no call is safe concurrently with a
    mutation on the same instance, but distinct instances are independent
    and may live on different threads.
    """

    __slots__ = ("_params", "_capacity", "_step", "_keys", "_live")

    def __init__(self, params: TableParams):
        validate_params(params)
        self._params = params
        self._capacity = params.capacity
        self._step = params.step
        self._keys = array("q", bytes(8 * params.capacity))
        self._live = 0

    @property
    def params(self) -> TableParams:
        return self._params

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._live

    def load_factor(self) -> float:
        return self._live / self._capacity

    def insert(self, key: int) -> bool:
        """Add key; False if it was already present."""
        return self.insert_counted(key)[0]

    def contains(self, key: int) -> bool:
        return self.contains_counted(key)[0]

    __contains__ = contains

    def remove(self, key: int) -> bool:
        """Delete key; False if it was absent."""
        return self.remove_counted(key)[0]

    def insert_counted(self, key: int) -> tuple[bool, int]:
        """Like insert, also returning the number of slots examined.

        With growth enabled, the table rehashes into a larger capacity
        before probing whenever the next insert would push the growth
        count over the threshold. Raises KeyOutOfRangeError for a key
        outside the signed 64-bit range and TableFullError when the key
        would take the last empty slot; either leaves the table unchanged.
        """
        if not KEY_MIN <= key <= KEY_MAX:
            raise KeyOutOfRangeError(f"key {key} is outside the signed 64-bit range")
        p = self._params
        if p.growth_enabled and (self._growth_count() + 1) / self._capacity > p.growth_load_factor:
            self._grow()
        return self._place_insert(key)

    def _grow(self) -> None:
        p = self._params
        new_cap = p.growth_multiplier * self._capacity
        while gcd(self._step, new_cap) != 1:
            new_cap += 1
        self._adopt(self.rehash(replace(p, capacity=new_cap)))

    def _adopt(self, other: "OpenAddressTable") -> None:
        for cls in type(self).__mro__:
            for name in vars(cls).get("__slots__", ()):
                setattr(self, name, getattr(other, name))

    def rehash(self, new_params: TableParams) -> "OpenAddressTable":
        """Rebuild into a fresh table with new_params, keeping all keys.

        Keys are reinserted in ascending old slot order, which makes the
        result reproducible byte for byte; growth never fires during the
        rebuild. Raises CapacityTooSmallError if the new capacity cannot
        hold every key plus one empty slot.
        """
        validate_params(new_params)
        if new_params.capacity - 1 < self._live:
            raise CapacityTooSmallError(
                f"capacity {new_params.capacity} cannot hold {self._live} keys plus an empty slot")
        fresh = self._empty(new_params)
        for key in self.keys():
            fresh._place_insert(key)
        return fresh
