"""Workload generation and differential execution against a set oracle.

A workload is a deterministic function of its spec: the generator is a
sequential splitmix64 stream (the identity recorded in trace headers),
so identical specs yield identical operation sequences forever. The
differential runner applies every operation to a compact table, a
tombstone table, and a plain Python set, comparing all three return
values and periodically running the structural invariant checker.
"""

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Union

from .compact import CompactTable
from .errors import EmptyKeyUniverseError, TableFullError, TraceParseError
from .introspect import ViolationReport, check_invariants
from .probing import KEY_MAX, KEY_MIN, TableParams, validate_params
from .tombstone import TombstoneTable

ADD = "add"
CONTAINS = "contains"
REMOVE = "remove"

GENERATOR_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_KIND_TO_CHAR = {ADD: "a", CONTAINS: "c", REMOVE: "r"}
_CHAR_TO_KIND = {"a": ADD, "c": CONTAINS, "r": REMOVE}


class OpRecord(NamedTuple):
    """One replayable table operation."""

    kind: str  # "add" | "contains" | "remove"
    key: int


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


class SplitMix64:
    """Sequential splitmix64 stream; stable across platforms and versions."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


class LiveKeys:
    """The currently live keys, for seeded uniform picks among them.

    keys lists them and index maps each to its position in keys. Removal
    moves the last key into the freed position, so the order of keys, and
    with it every seeded pick, depends only on the sequence of calls.
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


def generate_workload(spec: WorkloadSpec) -> list[OpRecord]:
    """Expand spec into its operation sequence.

    Churn-round removals target keys that are live at that point of the
    sequence (tracked by replaying set semantics during generation), so
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
    span = hi - lo

    rng = SplitMix64(spec.seed)
    next_u64 = rng.next_u64
    ops: list[OpRecord] = []
    live = LiveKeys()
    live_list, live_index = live.keys, live.index
    track_add, track_remove = live.add, live.discard

    for _ in range(spec.op_count):
        u = next_u64()
        key = lo + next_u64() % span
        if u < t_add:
            ops.append(OpRecord(ADD, key))
            track_add(key)
        elif u < t_contains:
            ops.append(OpRecord(CONTAINS, key))
        else:
            ops.append(OpRecord(REMOVE, key))
            track_remove(key)

    for _ in range(spec.churn_rounds):
        for _ in range(spec.churn_batch):
            if live_list:
                key = live_list[next_u64() % len(live_list)]
            else:
                key = lo + next_u64() % span
            ops.append(OpRecord(REMOVE, key))
            track_remove(key)
        for _ in range(spec.churn_batch):
            for _ in range(4096):
                key = lo + next_u64() % span
                if key not in live_index:
                    break
            else:
                raise EmptyKeyUniverseError(
                    f"could not draw a fresh key from [{lo}, {hi}) with {len(live_list)} keys live")
            ops.append(OpRecord(ADD, key))
            track_add(key)
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
        return {
            "op_index": self.op_index,
            "op": {"kind": self.op.kind, "key": self.op.key},
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
    """Outcome of one differential run; passed iff nothing disagreed."""

    passed: bool
    first_divergence: Optional[Divergence] = None
    invariant_failures: list[InvariantFailure] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "first_divergence": None if self.first_divergence is None else self.first_divergence.to_json_dict(),
            "invariant_failures": [f.to_json_dict() for f in self.invariant_failures],
        }


def run_differential(ops: Iterable[OpRecord], params: TableParams, check_every: int = 1) -> Verdict:
    """Apply ops to both tables and the set oracle, comparing every result.

    Stops at the first return-value disagreement and records it; a
    TableFullError is recorded as the string "TableFull" in that op's
    result rather than crashing the run. Every check_every operations
    both tables get a full invariant check; violations are collected and
    the run keeps going (the checker reports, it never aborts).
    """
    validate_params(params)
    if check_every < 1:
        raise ValueError(f"check_every must be positive, got {check_every}")
    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    model: set[int] = set()
    failures: list[InvariantFailure] = []
    divergence = None

    c_insert, c_contains, c_remove = compact.insert, compact.contains, compact.remove
    t_insert, t_contains, t_remove = tombstone.insert, tombstone.contains, tombstone.remove
    in_model, model_add, model_discard = model.__contains__, model.add, model.discard

    for idx, op in enumerate(ops):
        kind, key = op
        if kind == ADD:
            o = not in_model(key)
            if o:
                model_add(key)
            try:
                c = c_insert(key)
            except TableFullError:
                c = "TableFull"
            try:
                t = t_insert(key)
            except TableFullError:
                t = "TableFull"
        elif kind == CONTAINS:
            o = in_model(key)
            c = c_contains(key)
            t = t_contains(key)
        elif kind == REMOVE:
            o = in_model(key)
            if o:
                model_discard(key)
            c = c_remove(key)
            t = t_remove(key)
        else:
            raise ValueError(f"unknown op kind {kind!r} at index {idx}")
        if c is not o or t is not o:
            if not (c == o == t):  # TableFull strings compare by value
                divergence = Divergence(idx, op, c, t, o)
                break
        if (idx + 1) % check_every == 0:
            report = check_invariants(compact)
            if not report.passed:
                failures.append(InvariantFailure(idx, "compact", report))
            report = check_invariants(tombstone)
            if not report.passed:
                failures.append(InvariantFailure(idx, "tombstone", report))

    return Verdict(passed=divergence is None and not failures,
                   first_divergence=divergence,
                   invariant_failures=failures)


def format_trace(ops: Iterable[OpRecord], meta: Optional[dict] = None) -> str:
    """Render ops as trace text: `# key=value` headers, one op per line."""
    lines = []
    meta = dict(meta or {})
    for name in ("capacity", "step", "seed", "generator"):
        if name in meta:
            lines.append(f"# {name}={meta.pop(name)}")
    for name in sorted(meta):
        lines.append(f"# {name}={meta[name]}")
    for op in ops:
        lines.append(f"{_KIND_TO_CHAR[op.kind]} {op.key}")
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
        ops.append(OpRecord(kind, key))
    return ops, meta
