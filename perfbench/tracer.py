"""In-memory tracing of compacthash from outside the package.

The tracer patches public names where their callers look them up and
restores them on exit; no file of the package changes:

- per-op table calls (``insert``/``contains``/``remove`` and their public
  ``*_counted`` twins, which do identical work) are aggregated, not kept
  as spans: one latency sample per call plus exact slot counts;
- coarse calls (jobs, ``generate_workload``, ``run_differential``,
  ``check_invariants``, ``probe_stats``, ``cmd_bench``) become spans with
  a parent link, kept in a list and written out when the run ends.

Per-op calls never nest inside ``check_invariants`` or ``probe_stats``,
so a calling layer's self time is its span total minus the table and checker
totals that ran inside it.
"""

import time
from array import array
from collections import Counter

import numpy as np

import compacthash.cli
import compacthash.harness
from compacthash import CompactTable, TableFullError, TombstoneTable

TABLE_OPS = ("insert", "contains", "remove")

_clock = time.perf_counter_ns


class OpStats:
    """Exact counts and latency samples of one (table kind, op) pair."""

    __slots__ = ("lat", "slots", "find", "compress", "moved", "reuse", "table_full")

    def __init__(self):
        self.lat = array("q")
        self.slots = self.find = self.compress = self.moved = 0
        self.reuse = self.table_full = 0


def _table_kind(table) -> str:
    return "compact" if isinstance(table, CompactTable) else "tombstone"


class Tracer:
    """Spans and per-op aggregates of one traced workload process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, tag]
        self._open: list[int] = []
        self.span_calls: Counter[str] = Counter()
        self.ops = {(kind, op): OpStats() for kind in ("compact", "tombstone") for op in TABLE_OPS}
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, tag=None) -> int:
        sid = len(self.spans)
        self.span_calls[name] += 1
        self.spans.append([name, _clock(), 0, self._open[-1] if self._open else -1, tag])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = _clock()
        self._open.pop()

    def wrap(self, name: str, fn, tag_of=None):
        """fn with a span around every call; tag_of(first_arg) labels it."""
        def traced(*args, **kwargs):
            sid = self.begin(name, tag_of(args[0]) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def durations(self, name: str, tag=None) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans
                         if s[0] == name and (tag is None or s[4] == tag)], dtype=np.int64)

    # -- patching ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        self._patch(compacthash.harness, "check_invariants",
                    self.wrap("check_invariants", compacthash.harness.check_invariants, _table_kind))
        self._patch(compacthash.cli, "probe_stats",
                    self.wrap("probe_stats", compacthash.cli.probe_stats, _table_kind))
        self._patch(compacthash.cli, "cmd_bench", self.wrap("cmd_bench", compacthash.cli.cmd_bench))
        for cls, kind in ((CompactTable, "compact"), (TombstoneTable, "tombstone")):
            for op in TABLE_OPS:
                plain, counted = self._op_wrappers(kind, op, getattr(cls, op + "_counted"))
                self._patch(cls, op, plain)
                self._patch(cls, op + "_counted", counted)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        return False

    def _op_wrappers(self, kind: str, op: str, orig):
        stats = self.ops[(kind, op)]
        lat = stats.lat.append

        if kind == "compact" and op == "remove":
            def counted(table, key):
                t0 = _clock()
                res = orig(table, key)
                lat(_clock() - t0)
                stats.find += res[1]
                stats.compress += res[2]
                stats.moved += res[3]
                return res
        elif kind == "tombstone" and op == "insert":
            def counted(table, key):
                non_free = table.non_free_count
                t0 = _clock()
                try:
                    res = orig(table, key)
                except TableFullError:
                    lat(_clock() - t0)
                    stats.table_full += 1
                    raise
                lat(_clock() - t0)
                stats.slots += res[1]
                if res[0] and table.non_free_count == non_free:
                    stats.reuse += 1  # landed on a DELETED slot
                return res
        else:
            def counted(table, key):
                t0 = _clock()
                try:
                    res = orig(table, key)
                except TableFullError:
                    lat(_clock() - t0)
                    stats.table_full += 1
                    raise
                lat(_clock() - t0)
                stats.slots += res[1]
                return res

        def plain(table, key):
            return counted(table, key)[0]
        return plain, counted

    # -- exact counts --------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Cumulative deterministic counts; equal inputs give equal counts."""
        out = {}
        for (kind, op), st in self.ops.items():
            p = f"{kind}.{op}."
            out[p + "calls"] = len(st.lat)
            if kind == "compact" and op == "remove":
                out[p + "find_slots"] = st.find
                out[p + "compress_slots"] = st.compress
                out[p + "relocations"] = st.moved
            else:
                out[p + "slots"] = st.slots
            if op == "insert":
                out[p + "table_full"] = st.table_full
            if kind == "tombstone" and op == "insert":
                out[p + "reuses"] = st.reuse
        for name in ("check_invariants", "probe_stats"):
            out[f"introspect.{name}.calls"] = self.span_calls[name]
        return out

    # -- per-layer metrics ---------------------------------------------

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics over a timed phase of wall_ns nanoseconds.

        The calling layer is run_differential on fuzz workloads and
        cmd_bench on churn; a workload never runs both.
        """
        m: dict[str, float] = {}
        table_ns = {}
        for kind in ("compact", "tombstone"):
            table_ns[kind] = 0
            for op in TABLE_OPS:
                st = self.ops[(kind, op)]
                lat = np.frombuffer(st.lat, dtype=np.int64)
                calls = lat.size
                table_ns[kind] += int(lat.sum())
                p = f"{kind}.{op}."
                m[p + "calls"] = calls
                m[p + "us_p50"] = _pct(lat, 50) / 1e3
                m[p + "us_p99"] = _pct(lat, 99) / 1e3
                if kind == "compact" and op == "remove":
                    m[p + "find_slots_per_call"] = _ratio(st.find, calls)
                    m[p + "compress_slots_per_call"] = _ratio(st.compress, calls)
                    m[p + "relocations_per_call"] = _ratio(st.moved, calls)
                else:
                    m[p + "slots_per_call"] = _ratio(st.slots, calls)
            m[kind + ".share"] = table_ns[kind] / wall_ns
        rm = self.ops[("compact", "remove")]
        m["compact.relocations_per_compress_slot"] = _ratio(rm.moved, rm.compress)
        ins = self.ops[("tombstone", "insert")]
        m["tombstone.insert.reuse_ratio"] = _ratio(ins.reuse, len(ins.lat) - ins.table_full)
        m["tombstone.insert.table_full"] = ins.table_full

        gen = self.durations("generate_workload")
        gen_ops = sum(s[4] for s in self.spans if s[0] == "generate_workload")
        m["harness.generate_workload.calls"] = gen.size
        m["harness.generate_workload.us_per_op"] = _ratio(int(gen.sum()), gen_ops) / 1e3
        m["harness.generate_workload.share"] = int(gen.sum()) / wall_ns

        checks = self.durations("check_invariants")
        check_ns = int(checks.sum())
        m["introspect.check_invariants.calls"] = checks.size
        m["introspect.check_invariants.share"] = check_ns / wall_ns
        for kind in ("compact", "tombstone"):
            d = self.durations("check_invariants", kind)
            m[f"introspect.check_invariants.{kind}.ms_p50"] = _pct(d, 50) / 1e6
            m[f"introspect.check_invariants.{kind}.ms_p99"] = _pct(d, 99) / 1e6

        stats = self.durations("probe_stats")
        stats_ns = int(stats.sum())
        m["introspect.probe_stats.calls"] = stats.size
        m["introspect.probe_stats.ms_p50"] = _pct(stats, 50) / 1e6
        m["introspect.probe_stats.share"] = stats_ns / wall_ns

        inner_ns = table_ns["compact"] + table_ns["tombstone"] + check_ns + stats_ns
        rd = self.durations("run_differential")
        rd_self = int(rd.sum()) - inner_ns if rd.size else 0
        rd_ops = sum(s[4] for s in self.spans if s[0] == "run_differential")
        m["harness.run_differential.calls"] = rd.size
        m["harness.run_differential.self_us_per_op"] = _ratio(rd_self, rd_ops) / 1e3
        m["harness.run_differential.share"] = rd_self / wall_ns

        bench = self.durations("cmd_bench")
        bench_self = int(bench.sum()) - inner_ns if bench.size else 0
        m["cli.bench.self_s"] = bench_self / 1e9
        m["cli.bench.share"] = bench_self / wall_ns
        return m

    def spans_json(self) -> list[dict]:
        return [{"name": n, "start_ns": a, "end_ns": b, "parent": p, "tag": t}
                for n, a, b, p, t in self.spans]


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
