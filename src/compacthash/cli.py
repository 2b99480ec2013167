"""Command-line interface: fuzzing, trace replay, and the churn benchmark.

Exit codes: 0 success, 1 differential or benchmark assertion failure,
2 usage/parse error, output that cannot be written, or a capacity too
large to allocate. Output is deterministic: two invocations with
identical arguments produce byte-identical artifacts.
"""

import argparse
import json
import sys
from pathlib import Path

from .compact import CompactTable
from .errors import CompactHashError, TableFullError, TraceParseError
from .harness import (ADD, CONTAINS, GENERATOR_ID, REMOVE, LiveKeys, WorkloadSpec,
                      format_trace, generate_workload, parse_trace, run_differential)
from .introspect import probe_stats
from .probing import KEY_MAX, KEY_MIN, TableParams
from .tombstone import TombstoneTable

CSV_COLUMNS = ("round", "table_kind", "mean_success", "mean_miss", "max_probe",
               "load_factor", "tombstone_count", "relocations_this_round")
CSV_SCHEMA_LINE = "# schema=1"


class _UsageError(Exception):
    pass


def _bench_row(table, round_no: int, relocations: int) -> dict:
    """One table kind after one churn round, keyed by CSV_COLUMNS."""
    stats = probe_stats(table)
    kind = "compact" if isinstance(table, CompactTable) else "tombstone"
    return dict(zip(CSV_COLUMNS, (round_no, kind, stats.mean_success, stats.mean_miss, stats.max_probe,
                                  stats.load_factor, stats.tombstone_count, relocations)))


def _parse_universe(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"--universe expects 'lo:hi', got {text!r}") from None
    if not KEY_MIN <= lo < hi <= KEY_MAX + 1:
        raise _UsageError(f"--universe [{lo}, {hi}) is not a nonempty range of signed 64-bit keys")
    return lo, hi


def _write_text(path: Path, text: str) -> None:
    """Write text to path, making its directory; an OSError is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e}") from None


def _header_int(meta: dict[str, str], name: str, default: int) -> int:
    try:
        return int(meta.get(name, default))
    except ValueError:
        raise _UsageError(f"trace header {name}={meta[name]!r} is not an integer") from None


def cmd_fuzz(args) -> int:
    if args.ops < 1 or args.check_every < 1 or args.seed_count < 1:
        raise _UsageError(f"--ops, --check-every and --seed-count must be >= 1, "
                          f"got {args.ops}, {args.check_every} and {args.seed_count}")
    params = TableParams(args.capacity, args.step)
    # keys must outnumber slots or key % capacity never collides and the
    # fuzz exercises no probe chains at all
    universe = _parse_universe(args.universe) if args.universe else (0, 2 * args.capacity)
    out_dir = Path(args.out_dir)
    for seed in range(args.seed_start, args.seed_start + args.seed_count):
        spec = WorkloadSpec(seed=seed, op_count=args.ops, key_universe=universe)
        ops = generate_workload(spec)
        verdict = run_differential(ops, params, check_every=args.check_every)
        if not verdict.passed:
            meta = {"capacity": params.capacity, "step": params.step, "seed": seed,
                    "generator": GENERATOR_ID}
            trace_path = out_dir / f"seed{seed}.trace"
            verdict_path = out_dir / f"seed{seed}.verdict.json"
            print(f"seed {seed}: FAIL (trace: {trace_path}, verdict: {verdict_path})", flush=True)
            _write_text(trace_path, format_trace(ops, meta))
            _write_text(verdict_path, json.dumps(verdict.to_json_dict(), indent=2) + "\n")
            return 1
        print(f"seed {seed}: ok ({len(ops)} ops)")
    return 0


def cmd_trace(args) -> int:
    try:
        text = Path(args.trace_file).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read trace file: {e}") from None
    ops, meta = parse_trace(text)
    if args.capacity is None and "capacity" not in meta:
        raise _UsageError("capacity not given and not present in trace headers")
    capacity = args.capacity if args.capacity is not None else _header_int(meta, "capacity", 0)
    step = args.step if args.step is not None else _header_int(meta, "step", 1)
    params = TableParams(capacity, step)
    table = CompactTable(params) if args.table == "compact" else TombstoneTable(params)
    apply_op = {ADD: table.insert, CONTAINS: table.contains, REMOVE: table.remove}
    results = [apply_op[kind](key) for kind, key in ops]
    for result in results:
        print("+" if result else "-")
    print(json.dumps(probe_stats(table).to_json_dict()))
    return 0


def cmd_bench(args) -> int:
    if args.batch < 0 or args.rounds < 0:
        raise _UsageError(f"--batch and --rounds must be >= 0, got {args.batch} and {args.rounds}")
    params = TableParams(args.capacity, args.step)
    if args.adversarial:
        return _bench_adversarial(args, params)
    if not 0 < args.live_target < args.capacity - 1:
        raise _UsageError(f"--live-target must lie in (0, capacity - 1), got {args.live_target}")

    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    # the rounds read compact's slot and relocation counts off its counted
    # twins; tombstone's plain ops skip the count
    c_insert, c_remove = compact.insert_counted, compact.remove_counted
    t_insert, t_remove = tombstone.insert, tombstone.remove
    live = LiveKeys(args.seed)
    for key in live.add_fresh(args.live_target):
        c_insert(key)
        t_insert(key)

    # The tables draw nothing, so each phase of a round draws all its keys
    # before its first table call and every draw keeps its index. Every
    # drawn key is fresh, so each compact insert adds one key, and a round
    # inserts only up to the occupancy cap. The batches are iterated, never
    # kept: a kept list would hold its keys while the next batch is drawn.
    rows = [_bench_row(compact, 0, 0), _bench_row(tombstone, 0, 0)]
    insert_slots = insert_ops = compress_slots = compress_ops = 0
    tombstone_insert_failures = 0
    for round_no in range(1, args.rounds + 1):
        relocations = 0
        removals = min(args.batch, len(live.keys))
        compress_ops += removals
        for key in live.pick(removals):
            _, _find, scan, moved = c_remove(key)
            relocations += moved
            compress_slots += scan
            t_remove(key)
        inserts = min(args.batch, args.capacity - 1 - len(compact))
        insert_ops += inserts
        for key in live.add_fresh(inserts):
            insert_slots += c_insert(key)[1]
            try:
                t_insert(key)
            except TableFullError:
                tombstone_insert_failures += 1
        rows.append(_bench_row(compact, round_no, relocations))
        rows.append(_bench_row(tombstone, round_no, 0))

    parity = {
        "mean_insert_slots": insert_slots / insert_ops if insert_ops else 0.0,
        "mean_compress_scan_slots": compress_slots / compress_ops if compress_ops else 0.0,
        "insert_samples": insert_ops,
        "compress_samples": compress_ops,
        "tombstone_insert_failures": tombstone_insert_failures,
    }
    _emit_bench(args, rows, parity)

    # Directional claim: sustained churn must leave tombstone misses at
    # least as expensive as compact misses. Absolute values are seed
    # dependent, the direction is not.
    if args.rounds >= 10:
        miss = {(r["round"], r["table_kind"]): r["mean_miss"] for r in rows}
        for round_no in range(10, args.rounds + 1):
            if miss[(round_no, "tombstone")] < miss[(round_no, "compact")]:
                print(f"benchmark assertion failed: tombstone mean_miss below compact at round {round_no}",
                      file=sys.stderr)
                return 1
    return 0


def _bench_adversarial(args, params: TableParams) -> int:
    """Same-hash worst case: batch keys sharing one home, inserted then all deleted."""
    n = args.batch
    if args.capacity <= n + 1:
        raise _UsageError(f"adversarial mode needs capacity > batch + 1, got {args.capacity} <= {n + 1}")
    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    keys = [i * args.capacity for i in range(n)]
    for key in keys:
        compact.insert(key)
        tombstone.insert(key)
    rows = [_bench_row(compact, 0, 0), _bench_row(tombstone, 0, 0)]
    relocations = 0
    for key in keys:
        _, _find, _scan, moved = compact.remove_counted(key)
        relocations += moved
        tombstone.remove(key)
    rows.append(_bench_row(compact, 1, relocations))
    rows.append(_bench_row(tombstone, 1, 0))

    probe_key = n * args.capacity  # fresh key with the same home slot
    _, compact_cost = compact.contains_counted(probe_key)
    _, tombstone_cost = tombstone.contains_counted(probe_key)
    summary = {
        "mode": "adversarial",
        "batch": n,
        "home_miss_cost_compact": compact_cost,
        "home_miss_cost_tombstone": tombstone_cost,
    }
    _emit_bench(args, rows, summary)
    if tombstone_cost != n + 1 or compact_cost != 1:
        print(f"benchmark assertion failed: expected miss costs ({n + 1}, 1), "
              f"got ({tombstone_cost}, {compact_cost})", file=sys.stderr)
        return 1
    return 0


def _emit_bench(args, rows: list[dict], summary: dict) -> None:
    if args.format == "csv":
        lines = [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS)]
        lines.extend(",".join(str(row[name]) for name in CSV_COLUMNS) for row in rows)
        lines.extend(f"# {name}={value}" for name, value in summary.items())
        text = "\n".join(lines) + "\n"
        filename = "bench.csv"
    else:
        payload = {"schema": 1, "rows": rows, "summary": summary}
        text = json.dumps(payload, indent=2) + "\n"
        filename = "bench.json"
    if args.out_dir:
        _write_text(Path(args.out_dir) / filename, text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compacthash",
                                     description="Open-addressing hash tables with compaction-based deletion")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="differential-fuzz both tables against a set oracle")
    fuzz.add_argument("--seed-start", type=int, default=0)
    fuzz.add_argument("--seed-count", type=int, default=100)
    fuzz.add_argument("--capacity", type=int, default=65536)
    fuzz.add_argument("--step", type=int, default=1)
    fuzz.add_argument("--ops", type=int, default=100_000)
    fuzz.add_argument("--check-every", type=int, default=1000,
                      help="run the invariant checker every N ops (1 = after every op)")
    fuzz.add_argument("--universe", default=None,
                      help="key universe 'lo:hi' (default 0:2*capacity); write a negative lo with '=', "
                           "as in --universe=-64:64, or it is read as a flag")
    fuzz.add_argument("--out-dir", default="fuzz-out")
    fuzz.set_defaults(func=cmd_fuzz)

    trace = sub.add_parser("trace", help="replay a trace file against one table kind")
    trace.add_argument("trace_file")
    trace.add_argument("--table", choices=("compact", "tombstone"), default="compact")
    trace.add_argument("--capacity", type=int, default=None, help="override trace header capacity")
    trace.add_argument("--step", type=int, default=None, help="override trace header step")
    trace.set_defaults(func=cmd_trace)

    bench = sub.add_parser("bench", help="insert/delete churn benchmark of both tables")
    bench.add_argument("--capacity", type=int, default=65536)
    bench.add_argument("--step", type=int, default=1)
    bench.add_argument("--live-target", type=int, default=32768)
    bench.add_argument("--rounds", type=int, default=50)
    bench.add_argument("--batch", type=int, default=16384)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--out-dir", default=None)
    bench.add_argument("--adversarial", action="store_true",
                       help="same-hash worst case: insert batch colliding keys, delete all")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (TraceParseError, _UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CompactHashError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as e:  # from the slot arrays of a capacity too large to allocate
        print(f"error: {type(e).__name__}: cannot allocate the slot arrays of the requested capacity",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
