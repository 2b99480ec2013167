"""Structural validation and probe-statistics extraction for both tables.

The checker returns violations as data instead of raising, so fuzz loops
can keep running past a failure and report context. All statistics count
slots examined, a deterministic cost model, rather than wall time.

Everything here is read-only over a quiescent table and vectorized with
numpy over zero-copy views of the slot arrays, which keeps per-operation
invariant checking affordable inside differential runs.

Both the checker and probe_stats work on one list: cp, the sorted
probe-cycle positions of the occupied slots (slots with a nonzero probe
count in a compact table, non-FREE slots in a tombstone table). A slot s
lies at cycle position s * step^-1 mod m, so at step != 1 cp is computed
and sorted, and at step 1 it is the occupied slots themselves.

Reachability (Knuth, TAOCP Vol. 3, 6.4, Algorithm R: a key is found iff
no empty slot lies between its home and its slot) is a predecessor test
on cp. Let rank be a key's index in cp and d the cycle distance from
its home, the path positions before it (a compact key whose probe count
minus 1 is not d is misplaced, and tested no further). Those d positions
are all occupied iff the d-th occupied position before it, cp[rank - d]
taken cyclically, is its home: O(1) per key, with no prefix sums.
probe_stats reads its cluster lengths and its exact mean miss cost from
the runs of consecutive positions in cp.

A check screens first and builds a report only on failure. A passing
check costs one O(capacity) scan of the table, the compare and nonzero
that find its occupied slots, plus one straight run of numpy calls over
the occupied slots, each O(n) or O(n log n). Placement (which also flags
every probe count outside 1..m), the predecessor test and one sort that
finds repeated keys fold into one boolean array, settled by one
count_nonzero; a tombstone table's invalid states take one more. Only
after a screen or a counter finds something does the report code run:
it sorts the findings by kind and slot, counts the occupied path
positions of each key with a gap, names the slots of repeated keys with
one lexsort and builds the detail strings.
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


def check_invariants(table: AnyTable) -> ViolationReport:
    """Verify every structural invariant of the given table.

    Compact tables: probe-count consistency, path reachability, live
    count, key uniqueness. Tombstone tables: state validity, counters,
    the no-FREE-slot-on-path property, key uniqueness.
    """
    if isinstance(table, CompactTable):
        return _check_compact(table)[0]
    if isinstance(table, TombstoneTable):
        return _check_tombstone(table)[0]
    raise TypeError(f"unsupported table type {type(table).__name__}")


class _LastCheck:
    """What one table's last check read, and the report it returned.

    Calling it on a table checks the table as check_invariants does, but
    a table whose checked state equals what the last call read gets that
    call's report back. The state is read from the arrays, never from
    which op ran, and it is everything the checker reads: capacity and
    step; for a compact table its live count, how many slots are busy, and
    the probe counts and keys at the slots that were busy; for a tombstone
    table len(), its non-FREE count, its state bytes and the keys at the
    slots that were BUSY. Equal counts at the old busy slots are all
    nonzero, so with as many busy slots they are the same busy slots.
    """

    __slots__ = ("seen", "slots", "counts", "keys", "report")

    def __init__(self):
        self.seen = None

    def __call__(self, table: AnyTable) -> ViolationReport:
        # numpy compares here: array.__eq__ goes element by element in Python
        keys = np.frombuffer(table._keys, dtype=np.int64)
        if isinstance(table, CompactTable):
            pc = np.frombuffer(table._probe_counts, dtype=np.int64)
            seen = (table._capacity, table._step, table._live, np.count_nonzero(pc))
            same = seen == self.seen and not np.count_nonzero(pc[self.slots] != self.counts)
        else:
            seen = (table._capacity, table._step, len(table), table._non_free, table._states.tobytes())
            same = seen == self.seen
        if same and not np.count_nonzero(keys[self.slots] != self.keys):
            return self.report
        if isinstance(table, CompactTable):
            self.report, self.slots = _check_compact(table)
            self.counts = pc[self.slots]
        else:
            self.report, self.slots = _check_tombstone(table)
        self.seen, self.keys = seen, keys[self.slots]
        return self.report


def _occupied_in_cycle(occupied: np.ndarray, marks: np.ndarray,
                       step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupied slots in probe-cycle order: (cp, slots, marks[slots]).

    occupied is a boolean mask over the slots and marks a per-slot array.
    A slot s lies at cycle position s * step^-1 mod m; cp holds the sorted
    positions of the occupied slots, slots the slot at each of them
    (cp * step mod m). At step 1 both are the occupied slots.
    """
    slots = occupied.nonzero()[0]
    cp = slots
    if step != 1:
        m = occupied.size
        # here and in the checkers' home positions (kb % m * inverse), both
        # factors lie below m, as d and step do in _check_compact's d * step:
        # every product stays below m^2, inside int64 while m < 3 * 10^9
        cp = slots * pow(step, -1, m) % m
        cp.sort()
        slots = cp * step % m
    return cp, slots, marks[slots]


def _occupied_before(cp: np.ndarray, cpos: np.ndarray, d: np.ndarray, m: int) -> np.ndarray:
    """How many of the d cycle positions just before each cpos lie in cp."""
    lo = cpos - d
    return np.searchsorted(cp, cpos) - np.searchsorted(cp, lo % m) + np.where(lo < 0, cp.size, 0)


def _by_slot(idx: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The indices idx, reordered so that slots[idx] ascends."""
    return idx[np.argsort(slots[idx])]


def _dup_violations(keys_busy: np.ndarray, slots_busy: np.ndarray) -> list[Violation]:
    """DUPLICATE_KEY at every copy of a key after its lowest slot, in key order.

    The pairs may come in any order; one lexsort puts them in key order and
    each key's copies in slot order, which decides the slots reported.
    """
    order = np.lexsort((slots_busy, keys_busy))
    ks = keys_busy[order]
    dup_at = np.flatnonzero(ks[1:] == ks[:-1])
    out = []
    for d in dup_at:
        slot = int(slots_busy[order[d + 1]])
        out.append(Violation(slot, DUPLICATE_KEY, f"key {int(ks[d])} stored more than once"))
    return out


def _check_compact(table: CompactTable) -> tuple[ViolationReport, np.ndarray]:
    """The report on table and its busy slots."""
    m = table._capacity
    step = table._step
    pc = np.frombuffer(table._probe_counts, dtype=np.int64)
    keys = np.frombuffer(table._keys, dtype=np.int64)
    # every nonzero count marks a busy slot, as it does for the table's walks
    cp, busy, counts = _occupied_in_cycle(pc != 0, pc, step)
    live = cp.size
    ks = keys[busy]
    hp = ks % m if step == 1 else ks % m * pow(step, -1, m) % m  # home positions
    dist = (cp - hp) % m  # path slots before each key
    # a remainder mod m lies in 0..m-1, so this flags every count outside 1..m too
    wrong = dist != counts - 1
    # the predecessor test, as in _check_tombstone; gaps count only where wrong is not set
    gap = (dist >= live) | (cp[np.arange(live) - np.minimum(dist, live - 1)] != hp)
    flags = wrong | gap
    ks.sort()
    flags[1:] |= ks[1:] == ks[:-1]  # a repeated key
    if live == table._live and live < m and not np.count_nonzero(flags):
        return ViolationReport(), busy

    report = ViolationReport()
    if live != len(table):
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"live_count {len(table)} but {live} busy slots"))
    if live > m - 1:
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"occupancy cap violated: {live} busy of {m} slots"))
    # a count outside 1..m, negative ones included, is a count - 1 of m or more as uint64
    bad_range = (counts - 1).view(np.uint64) >= m
    for s in busy[_by_slot(np.flatnonzero(bad_range), busy)]:
        count = int(pc[s])
        detail = f"exceeds capacity {m}" if count > m else "is negative"
        report.violations.append(Violation(int(s), SLOT_INCONSISTENT, f"probe_count {count} {detail}"))
    # every busy slot stays occupied on the paths, whatever its count, but
    # only the keys with a count in range are placed, compared and walked
    rank = np.flatnonzero(~bad_range)
    slots, d, cpos, wrong, gap = busy[rank], counts[rank] - 1, cp[rank], wrong[rank], gap[rank]
    kb = keys[slots]
    expect = (kb % m + d * step) % m
    for i in _by_slot(np.flatnonzero(wrong), slots):
        s = int(slots[i])
        report.violations.append(Violation(
            s, SLOT_INCONSISTENT,
            f"key {int(kb[i])} with probe_count {int(d[i]) + 1} belongs at slot {int(expect[i])}, found at {s}"))
    report.violations.extend(_dup_violations(kb, slots))
    # a slot with a broken probe count has no meaningful path; only
    # report gaps where the stored count itself is trustworthy, d == dist
    idx = _by_slot(np.flatnonzero(gap & ~wrong), slots)
    filled = _occupied_before(cp, cpos[idx], d[idx], m)
    for i, f in zip(idx, filled):
        s = int(slots[i])
        report.violations.append(Violation(
            s, REACHABILITY_GAP,
            f"key {int(kb[i])} at slot {s}: only {int(f)} of {int(d[i])} path slots busy"))
    return report, busy


def _check_tombstone(table: TombstoneTable) -> tuple[ViolationReport, np.ndarray]:
    """The report on table and its BUSY slots."""
    m = table._capacity
    step = table._step
    st = np.frombuffer(table._states, dtype=np.int8)
    keys = np.frombuffer(table._keys, dtype=np.int64)
    # invalid states block no path, as DELETED ones do
    cp, slots, marks = _occupied_in_cycle(st != FREE, st, step)
    non_free = cp.size
    # FREE is 0 and DELETED the largest state, so as bytes every invalid
    # state, negative ones included, compares above DELETED
    invalid = marks.view(np.uint8) > DELETED
    rank = (marks == BUSY).nonzero()[0]
    live = rank.size
    cpos, busy = cp[rank], slots[rank]  # BUSY slots in cycle order
    ks = keys[busy]
    hp = ks % m if step == 1 else ks % m * pow(step, -1, m) % m  # home positions
    dist = (cpos - hp) % m
    # the predecessor test: dist clipped to non_free - 1 indexes cp cyclically
    gap = (dist >= non_free) | (cp[rank - np.minimum(dist, non_free - 1)] != hp)
    flags = gap.copy()
    ks.sort()
    flags[1:] |= ks[1:] == ks[:-1]  # a repeated key
    if (live == len(table) and non_free == table._non_free and non_free < m
            and not np.count_nonzero(invalid) and not np.count_nonzero(flags)):
        return ViolationReport(), busy

    kb = keys[busy]
    report = ViolationReport()
    for s in np.sort(slots[invalid]):
        report.violations.append(Violation(int(s), SLOT_INCONSISTENT, f"invalid state {int(st[s])}"))
    if live != len(table):
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"live_count {len(table)} but {live} BUSY slots"))
    if non_free != table.non_free_count:
        report.violations.append(Violation(
            -1, COUNT_MISMATCH, f"non_free_count {table.non_free_count} but {non_free} non-FREE slots"))
    if non_free > m - 1:
        report.violations.append(Violation(-1, COUNT_MISMATCH, f"occupancy cap violated: {non_free} non-FREE of {m} slots"))
    report.violations.extend(_dup_violations(kb, busy))
    idx = _by_slot(np.flatnonzero(gap), busy)
    free_on_path = dist[idx] - _occupied_before(cp, cpos[idx], dist[idx], m)
    for i, f in zip(idx, free_on_path):
        s = int(busy[i])
        report.violations.append(Violation(
            s, REACHABILITY_GAP,
            f"key {int(kb[i])} at slot {s}: {int(f)} FREE slot(s) on its probe path"))
    return report, busy


def probe_stats(table: AnyTable) -> ProbeStats:
    """Probe-length histogram, success/miss means, and cluster shape.

    cluster_lengths lists the runs of occupied (non-FREE) slots in
    probe-cycle order, where the clusters that lengthen probes live.

    Compact tables read probe lengths straight from the stored counts;
    tombstone tables derive each key's from the probe-cycle distance
    from its home slot to its slot. mean_miss averages, over all
    capacity home positions, the cost of an unsuccessful lookup
    (terminating empty/FREE slot included).
    """
    if not isinstance(table, (CompactTable, TombstoneTable)):
        raise TypeError(f"unsupported table type {type(table).__name__}")
    m = table.capacity
    step = table.params.step
    if isinstance(table, CompactTable):
        pc = np.frombuffer(table._probe_counts, dtype=np.int64)
        cp, _, costs = _occupied_in_cycle(pc != 0, pc, step)
        tombstones = 0
    else:
        st = np.frombuffer(table._states, dtype=np.int8)
        keys = np.frombuffer(table._keys, dtype=np.int64)
        cp, slots, marks = _occupied_in_cycle(st != FREE, st, step)
        rank = np.flatnonzero(marks == BUSY)
        costs = (cp[rank] - keys[slots[rank]] % m * pow(step, -1, m)) % m + 1
        tombstones = int(np.count_nonzero(marks == DELETED))

    histogram = {int(v): int(c) for v, c in enumerate(np.bincount(costs)) if v and c}
    mean_success = float(costs.mean()) if costs.size else 0.0
    # runs of consecutive cycle positions; one that wraps the end of the
    # cycle is merged into the last, because its true start lies near the end
    n = cp.size
    starts = np.flatnonzero(np.diff(cp, prepend=-2) != 1)
    runs = np.diff(starts, append=n)
    if runs.size > 1 and cp[0] == 0 and cp[-1] == m - 1:
        runs[-1] += runs[0]
        runs = runs[1:]
    # a miss examines every position up to the first open one at or after
    # its home: each of the m - n open homes costs 1, and the r homes of a
    # run cost r + 1, r, ..., 2, which sum to r(r + 3)/2
    if n < m:
        mean_miss = float((m - n + (runs * (runs + 3) // 2).sum()) / m)
    else:
        mean_miss = float("inf")  # unreachable through public ops (occupancy cap)
    return ProbeStats(
        histogram=histogram,
        mean_success=mean_success,
        mean_miss=mean_miss,
        max_probe=int(costs.max(initial=0)),
        cluster_lengths=runs.tolist(),
        load_factor=len(table) / m,
        tombstone_count=tombstones,
    )
