"""Structural validation and probe-statistics extraction for both tables.

The checker returns violations as data instead of raising, so fuzz loops
can keep running past a failure and report context. All statistics count
slots examined, a deterministic cost model, rather than wall time.

Everything here is read-only over a quiescent table and vectorized with
numpy over zero-copy views of the slot arrays, which keeps per-operation
invariant checking affordable inside differential runs.
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .compact import CompactTable
from .tombstone import BUSY, DELETED, FREE, TombstoneTable

SLOT_INCONSISTENT = "SLOT_INCONSISTENT"
REACHABILITY_GAP = "REACHABILITY_GAP"
COUNT_MISMATCH = "COUNT_MISMATCH"
DUPLICATE_KEY = "DUPLICATE_KEY"

AnyTable = Union[CompactTable, TombstoneTable]


@dataclass(frozen=True)
class Violation:
    slot_index: int  # -1 for table-wide violations (counters)
    kind: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"slot_index": self.slot_index, "kind": self.kind, "detail": self.detail}


@dataclass
class ViolationReport:
    """Empty violations list iff the table satisfies every invariant."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "violations": [v.to_json_dict() for v in self.violations]}


@dataclass
class ProbeStats:
    """Probe-length distribution and occupancy shape of one table."""

    histogram: dict[int, int]
    mean_success: float
    mean_miss: float
    max_probe: int
    cluster_lengths: list[int]
    load_factor: float
    tombstone_count: int

    def to_json_dict(self) -> dict:
        return {
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "mean_success": self.mean_success,
            "mean_miss": self.mean_miss,
            "max_probe": self.max_probe,
            "cluster_lengths": self.cluster_lengths,
            "load_factor": self.load_factor,
            "tombstone_count": self.tombstone_count,
        }


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


def check_invariants(table: AnyTable) -> ViolationReport:
    """Verify every structural invariant of the given table.

    Compact tables: probe-count consistency, path reachability, live
    count, key uniqueness. Tombstone tables: state validity, counters,
    the no-FREE-slot-on-path property, key uniqueness.
    """
    if isinstance(table, CompactTable):
        return _check_compact(table)
    if isinstance(table, TombstoneTable):
        return _check_tombstone(table)
    raise TypeError(f"unsupported table type {type(table).__name__}")


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
    busy = pc > 0
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

    bad_range = j > m
    for s in slots[bad_range]:
        report.violations.append(Violation(int(s), SLOT_INCONSISTENT, f"probe_count {int(pc[s])} exceeds capacity {m}"))
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


def probe_stats(table: AnyTable) -> ProbeStats:
    """Probe-length histogram, success/miss means, and cluster shape.

    cluster_lengths lists the runs of occupied (non-FREE) slots in
    probe-cycle order, where the clusters that lengthen probes live.

    Compact tables read probe lengths straight from the stored counts;
    tombstone tables derive them by replaying a lookup of every stored
    key. mean_miss averages, over all capacity home positions, the cost
    of an unsuccessful lookup (terminating empty/FREE slot included).
    """
    if isinstance(table, CompactTable):
        pc = np.frombuffer(table._probe_counts, dtype=np.int64)
        busy = pc > 0
        costs = pc[busy]
        occupied = busy
        open_slots = ~busy
        tombstones = 0
    elif isinstance(table, TombstoneTable):
        st = np.frombuffer(table._states, dtype=np.int8)
        keys = np.frombuffer(table._keys, dtype=np.int64)
        busy = st == BUSY
        slots = np.flatnonzero(busy)
        _, pos = _cycle_maps(table.capacity, table.params.step)
        costs = (pos[slots] - pos[keys[slots] % table.capacity]) % table.capacity + 1
        occupied = st != FREE
        open_slots = ~occupied
        tombstones = int((st == DELETED).sum())
    else:
        raise TypeError(f"unsupported table type {type(table).__name__}")

    m = table.capacity
    sigma, _ = _cycle_maps(m, table.params.step)
    if costs.size:
        counts = np.bincount(costs)
        histogram = {int(v): int(c) for v, c in enumerate(counts) if v and c}
        mean_success = float(costs.mean())
        max_probe = int(costs.max())
    else:
        histogram = {}
        mean_success = 0.0
        max_probe = 0
    return ProbeStats(
        histogram=histogram,
        mean_success=mean_success,
        mean_miss=_mean_miss(open_slots, m, table.params.step),
        max_probe=max_probe,
        cluster_lengths=_cluster_lengths(occupied[sigma]),
        load_factor=len(table) / m,
        tombstone_count=tombstones,
    )


def _mean_miss(open_slots: np.ndarray, m: int, step: int) -> float:
    """Average unsuccessful-lookup cost over all m home positions."""
    if not open_slots.any():
        return float("inf")  # unreachable through public ops (occupancy cap)
    _, pos = _cycle_maps(m, step)
    open_pos = np.sort(pos[np.flatnonzero(open_slots)])
    homes = np.arange(m, dtype=np.int64)
    nxt = np.searchsorted(open_pos, homes)
    cost = np.where(nxt < open_pos.size, open_pos[np.minimum(nxt, open_pos.size - 1)], open_pos[0] + m) - homes + 1
    return float(cost.mean())


def _cluster_lengths(occupied: np.ndarray) -> list[int]:
    """Lengths of maximal cyclic runs of occupied slots in probe-cycle order.

    occupied is indexed by cycle position, so a run is a stretch of slots
    that probe sequences visit one after another (consecutive slots only
    when step is 1). A run wrapping the end of the cycle is reported once;
    it is listed last because its true start lies near the end.
    """
    m = occupied.size
    if not occupied.any():
        return []
    if occupied.all():
        return [m]
    x = occupied.astype(np.int8)
    d = np.diff(x)
    starts = list(np.flatnonzero(d == 1) + 1)
    ends = list(np.flatnonzero(d == -1) + 1)
    if occupied[0]:
        starts.insert(0, 0)
    if occupied[m - 1]:
        ends.append(m)
    lengths = [int(e - s) for s, e in zip(starts, ends)]
    if occupied[0] and occupied[m - 1]:
        lengths[-1] += lengths[0]
        lengths.pop(0)
    return lengths
