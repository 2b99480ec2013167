"""Workload generation and differential execution against a set oracle.

A workload is a deterministic function of its spec. The generator is
splitmix64 (the identity recorded in trace headers), which is
counter-based: draw i of the stream seeded with s is a fixed mixing
function of s + i * gamma mod 2**64. A block of draws is therefore one
wrapping numpy uint64 expression; a workload is built 4,096 draws
at a time, and SplitMix64 hands out further draws from blocks it
refills. The churn of `compacthash bench` picks and draws its keys
through LiveKeys, which owns its stream: a batch per call, each draw at
its index in the stream, and every drawn key fresh by construction.
Identical specs yield identical operation sequences forever. An
operation is a plain (kind, key) tuple, kind one of ADD, CONTAINS and
REMOVE. The differential runner applies every operation to a compact
table, a tombstone table, and a plain Python set, comparing all three
return values and periodically running the structural invariant checker.
"""

from dataclasses import dataclass, field
from itertools import chain, count, repeat, starmap
from operator import mod
from typing import Iterable, Optional, Union

import numpy as np

from .compact import CompactTable
from .errors import EmptyKeyUniverseError, TableFullError, TraceParseError
from .introspect import ViolationReport, _LastCheck
from .introspect import check_invariants  # noqa: F401  perfbench/tracer.py patches this name
from .probing import KEY_MAX, KEY_MIN, TableParams
from .tombstone import TombstoneTable

ADD = "add"
CONTAINS = "contains"
REMOVE = "remove"

GENERATOR_ID = "splitmix64"

TABLE_FULL = "TableFull"  # the answer of an insert refused at the occupancy cap

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 4096  # draws per SplitMix64 refill and per workload step; even
_KINDS = np.array([ADD, CONTAINS, REMOVE], dtype=object)
_KIND_TO_CHAR = {ADD: "a", CONTAINS: "c", REMOVE: "r"}
_CHAR_TO_KIND = {"a": ADD, "c": CONTAINS, "r": REMOVE}

OpRecord = tuple[str, int]  # (kind, key): one replayable table operation


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic recipe for an operation sequence.

    key_universe is a half-open interval [lo, hi). The workload is
    op_count operations with kinds weighted by mix and keys uniform over
    the universe.
    """

    seed: int
    op_count: int
    key_universe: tuple[int, int]
    mix: tuple[float, float, float] = (0.45, 0.35, 0.20)


def _draws(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start .. start + n - 1 (counting from 0) of SplitMix64(seed)."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """The splitmix64 stream; stable across platforms and versions.

    next_u64() returns the next draw as a Python int in [0, 2**64). Draws
    are computed 4,096 at a time and handed out without a Python frame
    per draw. Draw i depends only on the seed and i, so
    SplitMix64((seed + i * 0x9E3779B97F4A7C15) % 2**64) continues the
    stream of SplitMix64(seed) after its first i draws.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int):
        blocks = map(_draws, repeat(seed), count(0, _BLOCK), repeat(_BLOCK))
        self.next_u64 = chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__


class LiveKeys:
    """The live keys of a churn, for seeded uniform picks and fresh keys.

    keys lists them, distinct, in pick order, and next_u64 is the
    splitmix64 stream of the seed, from which every pick and key is drawn.
    Removal moves the last key into the freed position, so the order of
    keys, and with it every pick, depends only on the seed and the sequence
    of calls. A fresh key is KEY_MIN plus a draw. Draw i is a bijective mix
    of seed + (i + 1) * gamma, and gamma is odd, so one stream repeats no
    value within 2**64 draws; since LiveKeys starts empty and holds only
    draws of its own stream, a drawn key is never live, and add_fresh looks
    none up.
    """

    __slots__ = ("keys", "next_u64")

    def __init__(self, seed: int):
        self.keys: list[int] = []
        self.next_u64 = SplitMix64(seed).next_u64

    def pick(self, n: int) -> list[int]:
        """Remove and return n live keys, each the one at next_u64() % len(keys) when its turn comes.

        Raises ValueError, before it draws, unless 0 <= n <= len(keys).
        """
        keys, size = self.keys, len(self.keys)
        if not 0 <= n <= size:
            raise ValueError(f"cannot pick {n} of {size} live keys")
        picked = []
        take, pop = picked.append, keys.pop
        for at in map(mod, starmap(self.next_u64, repeat((), n)), range(size, size - n, -1)):
            take(keys[at])
            keys[at] = keys[-1]
            pop()
        return picked

    def add_fresh(self, n: int) -> list[int]:
        """Add and return n fresh keys, KEY_MIN plus each of the next n draws."""
        fresh = list(map(KEY_MIN.__add__, starmap(self.next_u64, repeat((), n))))
        self.keys += fresh
        return fresh


def generate_workload(spec: WorkloadSpec) -> list[OpRecord]:
    """Expand spec into its operation sequence of (kind, key) tuples.

    Op i takes draws 2i (its kind, against the mix thresholds) and
    2i + 1 (its key).
    """
    lo, hi = spec.key_universe
    if hi <= lo:
        raise EmptyKeyUniverseError(f"key universe [{lo}, {hi}) is empty")
    if spec.op_count < 1:
        raise ValueError(f"op_count must be positive, got {spec.op_count}")
    w_add, w_contains, w_remove = spec.mix
    if min(spec.mix) < 0 or w_add + w_contains + w_remove <= 0:
        raise ValueError(f"mix weights must be nonnegative and not all zero, got {spec.mix}")

    total = w_add + w_contains + w_remove
    t_add = int(w_add / total * 2**64)
    t_contains = t_add + int(w_contains / total * 2**64)
    # a draw's kind code 0/1/2 (add/contains/remove) counts the thresholds
    # it reaches; one of 2**64 or a little more (an all-add mix, float
    # rounding) no draw reaches
    thresholds = [np.uint64(t) for t in (t_add, t_contains) if t <= _MASK64]
    span = hi - lo

    # the workload goes a block of draws at a time, so its arrays and
    # intermediate lists stay small beside the op list
    n = spec.op_count
    ops: list[OpRecord] = []
    for start in range(0, 2 * n, _BLOCK):
        draws = _draws(spec.seed, start, min(_BLOCK, 2 * n - start))
        u, k = draws[0::2], draws[1::2]
        code = np.zeros(len(u), np.intp)
        for t in thresholds:
            code += u >= t
        offsets = k % np.uint64(span) if span <= _MASK64 else k
        keys = map(lo.__add__, offsets.tolist())
        ops += zip(_KINDS[code].tolist(), keys)
    return ops


@dataclass(frozen=True)
class Divergence:
    """First operation on which the three return values disagreed."""

    op_index: int
    op: OpRecord
    compact_result: Union[bool, str]
    tombstone_result: Union[bool, str]
    oracle_result: Union[bool, str]

    def to_json_dict(self) -> dict:
        kind, key = self.op
        return {
            "op_index": self.op_index,
            "op": {"kind": kind, "key": key},
            "compact_result": self.compact_result,
            "tombstone_result": self.tombstone_result,
            "oracle_result": self.oracle_result,
        }


@dataclass(frozen=True)
class InvariantFailure:
    op_index: int
    table_kind: str  # "compact" | "tombstone"
    report: ViolationReport

    def to_json_dict(self) -> dict:
        return {"op_index": self.op_index, "table_kind": self.table_kind, "report": self.report.to_json_dict()}


@dataclass
class Verdict:
    """Outcome of one differential run; passed iff no op diverged and no check failed.

    tombstone_saturated_at is the index of the op whose TableFull showed the
    tombstone table at its occupancy cap; its answers are not compared after it.
    """

    first_divergence: Optional[Divergence] = None
    invariant_failures: list[InvariantFailure] = field(default_factory=list)
    tombstone_saturated_at: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.first_divergence is None and not self.invariant_failures

    def to_json_dict(self) -> dict:
        d = {
            "passed": self.passed,
            "first_divergence": None if self.first_divergence is None else self.first_divergence.to_json_dict(),
            "invariant_failures": [f.to_json_dict() for f in self.invariant_failures],
        }
        if self.tombstone_saturated_at is not None:
            d["tombstone_saturated_at"] = self.tombstone_saturated_at
        return d


def run_differential(ops: Iterable[OpRecord], params: TableParams, check_every: int = 1) -> Verdict:
    """Apply ops to both tables and the set oracle, comparing every result.

    Returns at the first op whose answers disagree; a TableFullError is
    recorded as TABLE_FULL in that op's result rather than crashing the
    run. The oracle answers True, False or, for an absent key added at
    capacity - 1 keys with growth off, TABLE_FULL, so an op agrees iff both
    tables' answers are that very object. The tombstone table's tombstones
    may fill it first: a TableFull it raises at capacity - 1 non-FREE slots
    is accepted, and from that op, tombstone_saturated_at, the run compares
    only the compact table with the oracle. Every check_every
    operations both tables are checked as check_invariants checks them,
    except that a table whose checked state is unchanged since its last
    check gets that check's report; violations are collected and the run
    keeps going (the checker reports, it never aborts).
    Raises ValueError unless check_every is an int of at least 1.
    """
    if type(check_every) is not int or check_every < 1:
        raise ValueError(f"check_every must be an int >= 1, got {check_every!r}")
    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    model: set[int] = set()
    failures: list[InvariantFailure] = []
    saturated_at = None
    cap = -1 if params.growth_enabled else params.capacity - 1  # the oracle's size at which an add is refused

    # compact's plain ops are their counted twins' first items, so binding
    # the twins saves a Python frame per op; the tombstone's plain ops skip
    # the count its twins add
    c_insert, c_contains, c_remove = compact.insert_counted, compact.contains_counted, compact.remove_counted
    t_insert, t_contains, t_remove = tombstone.insert, tombstone.contains, tombstone.remove
    model_add, model_discard = model.add, model.discard

    checks = (("compact", compact, _LastCheck()), ("tombstone", tombstone, _LastCheck()))
    left = check_every  # ops until the next check
    for idx, op in enumerate(ops):
        kind, key = op
        if kind == ADD:
            o = key not in model
            if o:
                if len(model) == cap:
                    o = TABLE_FULL
                else:
                    model_add(key)
            try:
                c = c_insert(key)[0]
            except TableFullError:
                c = TABLE_FULL
            try:
                t = t_insert(key)
            except TableFullError:
                t = TABLE_FULL
                if saturated_at is None and (o is TABLE_FULL or tombstone.non_free_count == cap):
                    saturated_at = idx
        elif kind == CONTAINS:
            o = key in model
            c = c_contains(key)[0]
            t = t_contains(key)
        elif kind == REMOVE:
            o = key in model
            if o:
                model_discard(key)
            c = c_remove(key)[0]
            t = t_remove(key)
        else:
            raise ValueError(f"unknown op kind {kind!r} at index {idx}")
        if c is not o or t is not o and saturated_at is None:
            return Verdict(Divergence(idx, op, c, t, o), failures, saturated_at)
        left -= 1
        if not left:
            left = check_every
            for table_kind, table, check in checks:
                report = check(table)
                if not report.passed:
                    failures.append(InvariantFailure(idx, table_kind, report))

    return Verdict(None, failures, saturated_at)


def format_trace(ops: Iterable[OpRecord], meta: Optional[dict] = None) -> str:
    """Render ops as trace text: `# name=value` headers in meta's order, one op per line."""
    lines = [f"# {name}={value}" for name, value in (meta or {}).items()]
    for kind, key in ops:
        lines.append(f"{_KIND_TO_CHAR[kind]} {key}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[list[OpRecord], dict[str, str]]:
    """Parse trace text into (ops, headers); raises TraceParseError."""
    ops: list[OpRecord] = []
    meta: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    name, _, value = token.partition("=")
                    meta[name] = value
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceParseError(line_no, f"expected '<op> <key>', got {raw!r}")
        kind = _CHAR_TO_KIND.get(parts[0])
        if kind is None:
            raise TraceParseError(line_no, f"unknown operation {parts[0]!r}")
        try:
            key = int(parts[1])
        except ValueError:
            raise TraceParseError(line_no, f"key is not an integer: {parts[1]!r}") from None
        if not KEY_MIN <= key <= KEY_MAX:
            raise TraceParseError(line_no, f"key {key} is outside the signed 64-bit range")
        ops.append((kind, key))
    return ops, meta
