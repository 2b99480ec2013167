"""Workload generation and differential execution against a set oracle.

A workload is a deterministic function of its spec. The generator is
splitmix64 (the identity recorded in trace headers), which is
counter-based: draw i of the stream seeded with s is a fixed mixing
function of s + i * gamma mod 2**64. A block of draws is therefore one
wrapping numpy uint64 expression; the base phase of a workload is
built 4,096 draws at a time, and SplitMix64 hands out further draws
from blocks it refills. Identical specs yield identical operation
sequences forever. An operation is a plain (kind, key) tuple, kind one
of ADD, CONTAINS and REMOVE; OpRecord names that type. The differential
runner applies every operation to a compact table, a tombstone table,
and a plain Python set, comparing all three return values and
periodically running the structural invariant checker.
"""

from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .compact import CompactTable
from .errors import EmptyKeyUniverseError, TableFullError, TraceParseError
from .introspect import ViolationReport, check_invariants
from .probing import KEY_MAX, KEY_MIN, TableParams
from .tombstone import TombstoneTable

ADD = "add"
CONTAINS = "contains"
REMOVE = "remove"

GENERATOR_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 4096  # draws per SplitMix64 refill and per base-phase step; even
_KINDS = np.array([ADD, CONTAINS, REMOVE], dtype=object)
_KIND_TO_CHAR = {ADD: "a", CONTAINS: "c", REMOVE: "r"}
_CHAR_TO_KIND = {"a": ADD, "c": CONTAINS, "r": REMOVE}

OpRecord = tuple[str, int]  # (kind, key): one replayable table operation


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic recipe for an operation sequence.

    key_universe is a half-open interval [lo, hi). The base phase draws
    op_count operations with kinds weighted by mix and keys uniform over
    the universe; each churn round then removes churn_batch currently
    live keys and adds churn_batch fresh ones.
    """

    seed: int
    op_count: int
    key_universe: tuple[int, int]
    mix: tuple[float, float, float] = (0.45, 0.35, 0.20)
    churn_rounds: int = 0
    churn_batch: int = 1


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
    """The currently live keys, for seeded uniform picks and fresh-key draws.

    keys lists them and index maps each to its position in keys. Removal
    moves the last key into the freed position, so the order of keys, and
    with it every seeded pick, depends only on the sequence of calls.
    pick and add_fresh hand out a batch of keys per call; each consumes
    exactly the draws that the same keys taken one call at a time would,
    so a caller that draws nothing between the keys of a batch may take
    them all before it uses any.
    """

    __slots__ = ("keys", "index")

    def __init__(self):
        self.keys: list[int] = []
        self.index: dict[int, int] = {}

    def add(self, key: int) -> None:
        if key not in self.index:
            self.index[key] = len(self.keys)
            self.keys.append(key)

    def discard(self, key: int) -> None:
        at = self.index.pop(key, None)
        if at is not None:
            last = self.keys.pop()
            if at < len(self.keys):
                self.keys[at] = last
                self.index[last] = at

    def pick(self, next_u64: Callable[[], int], n: int) -> list[int]:
        """Discard and return n live keys, each the one at next_u64() % len(keys) when its turn comes."""
        keys, discard = self.keys, self.discard
        picked = []
        for _ in range(n):
            key = keys[next_u64() % len(keys)]
            discard(key)
            picked.append(key)
        return picked

    def add_fresh(self, next_u64: Callable[[], int], lo: int, span: int, n: int) -> list[int]:
        """Add and return n keys, each the first lo + next_u64() % span not live at its turn.

        Raises EmptyKeyUniverseError after 4,096 draws of live keys for one
        key; the keys added before it stay added.
        """
        keys, index, add = self.keys, self.index, self.add
        fresh = []
        for _ in range(n):
            misses = 0
            while (key := lo + next_u64() % span) in index:
                misses += 1
                if misses == 4096:
                    raise EmptyKeyUniverseError(
                        f"could not draw a fresh key from [{lo}, {lo + span}) with {len(keys)} keys live")
            add(key)
            fresh.append(key)
        return fresh


def generate_workload(spec: WorkloadSpec) -> list[OpRecord]:
    """Expand spec into its operation sequence of (kind, key) tuples.

    Base op i takes draws 2i (its kind, against the mix thresholds) and
    2i + 1 (its key). Churn-round removals target keys that are live at
    that point of the sequence (tracked by replaying set semantics), so
    churn genuinely exercises deletion; churn additions draw until they
    find a key that is not currently live.
    """
    lo, hi = spec.key_universe
    if hi <= lo:
        raise EmptyKeyUniverseError(f"key universe [{lo}, {hi}) is empty")
    if spec.op_count < 1:
        raise ValueError(f"op_count must be positive, got {spec.op_count}")
    if spec.churn_rounds < 0 or spec.churn_batch < 1:
        raise ValueError("churn_rounds must be >= 0 and churn_batch >= 1")
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

    # the base phase goes a block of draws at a time, so its arrays and
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
    if not spec.churn_rounds:
        return ops

    live = LiveKeys()
    for kind, key in ops:
        if kind == ADD:
            live.add(key)
        elif kind == REMOVE:
            live.discard(key)

    next_u64 = SplitMix64(spec.seed + 2 * n * int(_GAMMA)).next_u64
    batch = spec.churn_batch
    for _ in range(spec.churn_rounds):
        # no key turns live during the removals, so once none is left the
        # rest of the batch removes keys drawn from the whole universe
        picks = min(batch, len(live.keys))
        ops += zip(repeat(REMOVE), live.pick(next_u64, picks))
        ops += [(REMOVE, lo + next_u64() % span) for _ in range(batch - picks)]
        ops += zip(repeat(ADD), live.add_fresh(next_u64, lo, span, batch))
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
    """Outcome of one differential run; passed iff no op diverged and no check failed."""

    first_divergence: Optional[Divergence] = None
    invariant_failures: list[InvariantFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.first_divergence is None and not self.invariant_failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "first_divergence": None if self.first_divergence is None else self.first_divergence.to_json_dict(),
            "invariant_failures": [f.to_json_dict() for f in self.invariant_failures],
        }


def run_differential(ops: Iterable[OpRecord], params: TableParams, check_every: int = 1) -> Verdict:
    """Apply ops to both tables and the set oracle, comparing every result.

    Returns at the first op whose answers disagree; a TableFullError is
    recorded as the string "TableFull" in that op's result rather than
    crashing the run. The oracle answers True or False, so an op agrees
    iff both tables' answers are that very object. Every check_every
    operations both tables get a full invariant check; violations are
    collected and the run keeps going (the checker reports, it never aborts).
    Raises ValueError unless check_every is an int of at least 1.
    """
    if type(check_every) is not int or check_every < 1:
        raise ValueError(f"check_every must be an int >= 1, got {check_every!r}")
    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    model: set[int] = set()
    failures: list[InvariantFailure] = []

    # compact's plain insert is insert_counted(key)[0], so binding the twin
    # saves a Python frame per add
    c_insert, c_contains, c_remove = compact.insert_counted, compact.contains, compact.remove
    t_insert, t_contains, t_remove = tombstone.insert, tombstone.contains, tombstone.remove
    model_add, model_discard = model.add, model.discard

    left = check_every  # ops until the next check
    for idx, op in enumerate(ops):
        kind, key = op
        if kind == ADD:
            o = key not in model
            if o:
                model_add(key)
            try:
                c = c_insert(key)[0]
            except TableFullError:
                c = "TableFull"
            try:
                t = t_insert(key)
            except TableFullError:
                t = "TableFull"
        elif kind == CONTAINS:
            o = key in model
            c = c_contains(key)
            t = t_contains(key)
        elif kind == REMOVE:
            o = key in model
            if o:
                model_discard(key)
            c = c_remove(key)
            t = t_remove(key)
        else:
            raise ValueError(f"unknown op kind {kind!r} at index {idx}")
        if c is not o or t is not o:
            return Verdict(Divergence(idx, op, c, t, o), failures)
        left -= 1
        if not left:
            left = check_every
            for table_kind, table in (("compact", compact), ("tombstone", tombstone)):
                report = check_invariants(table)
                if not report.passed:
                    failures.append(InvariantFailure(idx, table_kind, report))

    return Verdict(None, failures)


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
