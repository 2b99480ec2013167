"""The invariant checker as it stood before the predecessor test, kept as a reference.

It finds reachability gaps with O(m) prefix sums over the slot states in
probe-cycle order and reports duplicate keys from a stable argsort of
every stored key. tests/test_checker_equivalence.py requires the
package's check_invariants to return a report equal to this one's,
violation for violation, on clean and corrupted tables. The functions
below are copied unchanged from the earlier compacthash.introspect.
"""

import numpy as np

from compacthash import CompactTable, TombstoneTable
from compacthash.introspect import (COUNT_MISMATCH, DUPLICATE_KEY, REACHABILITY_GAP,
                                    SLOT_INCONSISTENT, Violation, ViolationReport)
from compacthash.tombstone import BUSY, DELETED, FREE


def check_invariants(table) -> ViolationReport:
    if isinstance(table, CompactTable):
        return _check_compact(table)
    if isinstance(table, TombstoneTable):
        return _check_tombstone(table)
    raise TypeError(f"unsupported table type {type(table).__name__}")


# Cycle-order index maps, keyed by (capacity, step). sigma[t] is the slot
# visited at position t of the shared probe cycle; pos is its inverse.
_CYCLE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _cycle_maps(m: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    found = _CYCLE_CACHE.get((m, step))
    if found is None:
        if step % m == 1:
            sigma = pos = np.arange(m, dtype=np.int64)
        else:
            sigma = np.arange(m, dtype=np.int64) * step % m
            pos = np.empty(m, dtype=np.int64)
            pos[sigma] = np.arange(m, dtype=np.int64)
        found = (sigma, pos)
        if len(_CYCLE_CACHE) > 64:
            _CYCLE_CACHE.clear()
        _CYCLE_CACHE[(m, step)] = found
    return found



def _window_counts(cs: np.ndarray, start: np.ndarray, length: np.ndarray, m: int) -> np.ndarray:
    """Sums of a cyclic 0/1 array over windows [start, start+length), via its prefix sums."""
    end = start + length
    wrapped = end > m
    plain = cs[np.minimum(end, m)] - cs[start]
    return np.where(wrapped, cs[m] - cs[start] + cs[np.maximum(end - m, 0)], plain)


def _dup_violations(keys_busy: np.ndarray, slots_busy: np.ndarray) -> list[Violation]:
    order = np.argsort(keys_busy, kind="stable")
    ks = keys_busy[order]
    dup_at = np.flatnonzero(ks[1:] == ks[:-1])
    out = []
    for d in dup_at:
        slot = int(slots_busy[order[d + 1]])
        out.append(Violation(slot, DUPLICATE_KEY, f"key {int(ks[d])} stored more than once"))
    return out


def _check_compact(table: CompactTable) -> ViolationReport:
    m = table.capacity
    step = table.params.step
    pc = np.frombuffer(table._probe_counts, dtype=np.int64)
    keys = np.frombuffer(table._keys, dtype=np.int64)
    busy = pc != 0
    report = ViolationReport()

    live = int(busy.sum())
    if live != len(table):
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"live_count {len(table)} but {live} busy slots"))
    if live > m - 1:
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"occupancy cap violated: {live} busy of {m} slots"))
    if live == 0:
        return report

    slots = np.flatnonzero(busy)
    j = pc[slots]
    kb = keys[slots]

    bad_range = (j < 1) | (j > m)
    for s in slots[bad_range]:
        detail = f"exceeds capacity {m}" if pc[s] > m else "is negative"
        report.violations.append(Violation(int(s), SLOT_INCONSISTENT, f"probe_count {int(pc[s])} {detail}"))
    if bad_range.any():
        keep = ~bad_range
        slots, j, kb = slots[keep], j[keep], kb[keep]

    expect = (kb % m + (j - 1) * step) % m
    consistent = expect == slots
    for idx in np.flatnonzero(~consistent):
        s = int(slots[idx])
        report.violations.append(Violation(
            s, SLOT_INCONSISTENT,
            f"key {int(kb[idx])} with probe_count {int(j[idx])} belongs at slot {int(expect[idx])}, found at {s}"))

    report.violations.extend(_dup_violations(kb, slots))

    # a slot with a broken probe count has no meaningful path; only check
    # reachability where the stored count itself is trustworthy
    slots, j = slots[consistent], j[consistent]
    kb = kb[consistent]
    sigma, pos = _cycle_maps(m, step)
    cs = np.empty(m + 1, dtype=np.int64)
    cs[0] = 0
    np.cumsum(busy[sigma], out=cs[1:])
    cpos = pos[slots]
    home_pos = (cpos - (j - 1)) % m
    filled = _window_counts(cs, home_pos, j - 1, m)
    for idx in np.flatnonzero(filled != j - 1):
        s = int(slots[idx])
        report.violations.append(Violation(
            s, REACHABILITY_GAP,
            f"key {int(kb[idx])} at slot {s}: only {int(filled[idx])} of {int(j[idx]) - 1} path slots busy"))
    return report


def _check_tombstone(table: TombstoneTable) -> ViolationReport:
    m = table.capacity
    step = table.params.step
    st = np.frombuffer(table._states, dtype=np.int8)
    keys = np.frombuffer(table._keys, dtype=np.int64)
    busy = st == BUSY
    report = ViolationReport()

    for s in np.flatnonzero((st < FREE) | (st > DELETED)):
        report.violations.append(Violation(int(s), SLOT_INCONSISTENT, f"invalid state {int(st[s])}"))

    live = int(busy.sum())
    non_free = int((st != FREE).sum())
    if live != len(table):
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"live_count {len(table)} but {live} BUSY slots"))
    if non_free != table.non_free_count:
        report.violations.append(Violation(
            -1, COUNT_MISMATCH, f"non_free_count {table.non_free_count} but {non_free} non-FREE slots"))
    if non_free > m - 1:
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"occupancy cap violated: {non_free} non-FREE of {m} slots"))
    if live == 0:
        return report

    slots = np.flatnonzero(busy)
    kb = keys[slots]
    report.violations.extend(_dup_violations(kb, slots))

    sigma, pos = _cycle_maps(m, step)
    cs = np.empty(m + 1, dtype=np.int64)
    cs[0] = 0
    np.cumsum((st == FREE)[sigma], out=cs[1:])
    home_pos = pos[kb % m]
    dist = (pos[slots] - home_pos) % m
    free_on_path = _window_counts(cs, home_pos, dist, m)
    for idx in np.flatnonzero(free_on_path != 0):
        s = int(slots[idx])
        report.violations.append(Violation(
            s, REACHABILITY_GAP,
            f"key {int(kb[idx])} at slot {s}: {int(free_on_path[idx])} FREE slot(s) on its probe path"))
    return report
