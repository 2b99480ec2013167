"""Wall time of every layer, paired in-process against a parent package.

    PYTHONPATH=src python bench/perf.py --label change --out BENCH_22.json --parent-src ../parent/src

imports the compacthash package under DIR as compacthash_parent (every
import inside the package is relative) and times this checkout's package,
the change, against it in one process. Giving this checkout's own src as
DIR makes an A/A run, which shows the spread of the method itself.

Every point first requires the two versions to agree, as its kind
requires: equal state_bytes(), check_invariants and probe_stats reports,
verdicts, op lists, lookup results or bench.csv bytes. paired() then
times the two in PAIRS pairs whose order alternates. Each side of a pair
makes as many calls as fill about PAIR_S seconds, the same number for
both versions, so a point that changes its tables leaves the two
versions' tables equal. Per point the run records, under
paired/<label>, the median of the paired change/parent time ratios,
their quartiles, the number of pairs the change won, and each side's
median seconds and ru_minflt (the minor page faults getrusage counts)
per call; beside the rows, the script's wall time.

The points, all on 65,536-slot tables built from seeded keys:

- check_invariants and probe_stats on both table kinds at loads 0.02,
  0.25, 0.5 and 0.9 and at 100 keys (the fuzz-checked workload's shape),
  at steps 1 and 3; on a saturated tombstone table, every slot but one
  non-FREE with keys at load 0.02 only; and on the tombstone table a
  default `compacthash bench` leaves after round 25, 32,768 BUSY and
  32,767 DELETED slots at step 1, the shape the churn workload calls
  probe_stats on.
- generate_workload on the fuzz-bulk spec (100,000 ops), and 200,000
  SplitMix64.next_u64 draws.
- run_differential on the fuzz-bulk ops at steps 1 and 3, with the
  invariant checker run once after the last op, and the fuzz-checked
  loop: run_differential with check_every=1 on the first 200 ops of the
  10,000-op workloads of seeds 0-7 at steps 1 and 3, the shape of the
  perfbench fuzz-checked workload and of the acceptance per-op campaign.
- a replay of the fuzz-bulk ops through insert_counted, contains_counted
  and remove_counted on a fresh table of each kind at steps 1 and 3, and
  through the plain insert, contains and remove (replay_plain).
- lookups on each replayed table and on the saturated tombstone table:
  contains_counted over 256 seeded stored keys (contains_stored) and over
  256 absent keys (contains_absent), remove_counted over the absent keys
  (remove_absent), and 256 remove+insert pairs (remove_insert_pair), each
  call of which removes one of those two key sets and inserts the other,
  so the live count stays put; and the same four through the plain
  contains, remove and insert (each name suffixed _plain).
- construction of an empty table of each kind.
- live_keys/churn-phase: one churn round's key bookkeeping, as
  `compacthash bench` does it: a call picks PHASE_KEYS of LIVE_KEYS
  full-range live keys, then adds PHASE_KEYS fresh ones, with equal key
  lists required of the two versions before and after the pairs.
- churn: a default `compacthash bench --rounds 0` (churn/bench-rounds0:
  the output directory, argument parsing, table construction, the
  prefill to the live target and two probe_stats calls) and
  `--rounds 4` (churn/bench-rounds4: that and four churn rounds, each
  closed by two probe_stats calls) through each version's cli.main, with
  equal bench.csv bytes required.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

import compacthash

CAPACITY = 1 << 16
LOADS = (0.02, 0.25, 0.5, 0.9)
KEY_COUNTS = (100,)
STEPS = (1, 3)
SATURATED_LOAD = 0.02
BENCH_ROUNDS = 25  # churn rounds replayed for the bench-churned point
LOOKUP_KEYS = 256  # keys per lookup call, and pairs per remove_insert_pair call
PAIRS = 101  # alternating pairs per paired figure
PAIR_S = 0.005  # seconds of calls on each side of a pair, roughly
CHURN_ROUNDS = (0, 4)  # rounds of the churn-point benches
LIVE_KEYS = 32_768  # live keys of the live_keys/churn-phase point, as in a default bench
PHASE_KEYS = 16_384  # keys each phase of a live_keys/churn-phase call picks and adds
FUZZ_SEEDS = range(8)  # seeds of the fuzz-checked loop
FUZZ_PREFIX = 200  # ops per fuzz-checked seed
TABLES = (("CompactTable", "compact"), ("TombstoneTable", "tombstone"))
MIX = (0.45, 0.35, 0.20)
UNIVERSE = (0, 2 * CAPACITY)
DRAWS = 200_000


def _fuzz_bulk_ops(pkg):
    """The fuzz-bulk workload, built with package pkg."""
    return pkg.generate_workload(pkg.WorkloadSpec(0, 100_000, UNIVERSE, MIX))


def _keys(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.choice(1 << 40, size=count, replace=False)]


def _filled(kind: str, step: int, count: int, pkg):
    t = getattr(pkg, kind)(pkg.TableParams(CAPACITY, step))
    for key in _keys(step, count):
        t.insert(key)
    return t


def _saturated(step: int, pkg):
    """Tombstone table filled to every slot but one, then emptied to SATURATED_LOAD."""
    t = pkg.TombstoneTable(pkg.TableParams(CAPACITY, step))
    keys = _keys(step, CAPACITY - 1)
    for key in keys:
        t.insert(key)
    for key in keys[round(SATURATED_LOAD * CAPACITY):]:
        t.remove(key)
    return t


def _bench(pkg, rounds: int, hook) -> bytes:
    """bench.csv bytes of a default `compacthash bench --rounds rounds` through pkg's cli.main.

    Each probe_stats call of the bench goes to hook(probe_stats, table)
    instead; the real probe_stats is back in place however the bench ends.
    """
    cli = importlib.import_module(pkg.__name__ + ".cli")
    inner = cli.probe_stats
    cli.probe_stats = partial(hook, inner)
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            if cli.main(["bench", "--rounds", str(rounds), "--out-dir", out_dir]) != 0:
                raise SystemExit(f"{pkg.__name__}: compacthash bench failed")
            return Path(out_dir, "bench.csv").read_bytes()
    finally:
        cli.probe_stats = inner


def _bench_churned(pkg):
    """The tombstone table of a default compacthash bench after BENCH_ROUNDS rounds.

    Runs the bench itself, through a probe_stats hook that keeps the last
    tombstone table it sees.
    """
    last = None

    def keep_tombstone(inner, table):
        nonlocal last
        if isinstance(table, pkg.TombstoneTable):
            last = table
        return inner(table)

    _bench(pkg, BENCH_ROUNDS, keep_tombstone)
    return last


def grid():
    """(point, build): build(pkg) makes the point's table with package pkg's classes."""
    sizes = [(f"load{load}", round(load * CAPACITY)) for load in LOADS]
    sizes += [(f"keys{count}", count) for count in KEY_COUNTS]
    for step in STEPS:
        for size, count in sizes:
            for kind, name in TABLES:
                yield f"{name}/step{step}/{size}", lambda pkg, k=kind, s=step, n=count: _filled(k, s, n, pkg)
        yield f"tombstone-saturated/step{step}/load{SATURATED_LOAD}", lambda pkg, s=step: _saturated(s, pkg)
    yield f"tombstone-bench-churned/step1/round{BENCH_ROUNDS}", _bench_churned


def load_package(src: Path):
    """Import the compacthash package under src as compacthash_parent."""
    name = "compacthash_parent"
    spec = importlib.util.spec_from_file_location(name, src / "compacthash" / "__init__.py",
                                                  submodule_search_locations=[str(src / "compacthash")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _figure(x: float) -> float:
    return float(f"{x:.4g}")


def ratio_row(change_s: list[float], parent_s: list[float], calls: int = 1) -> dict:
    """Median, quartiles and wins of the paired change/parent time ratios, and each side's median s per call."""
    ratios = [c / p for c, p in zip(change_s, parent_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"ratio_median": round(median, 4), "ratio_iqr": [round(q1, 4), round(q3, 4)],
            "wins": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "change_s_per_call": _figure(statistics.median(change_s) / calls),
            "parent_s_per_call": _figure(statistics.median(parent_s) / calls)}


def paired(change, parent) -> dict:
    """Change/parent time ratios over PAIRS pairs of alternating order.

    Both callables are called equally often: twice untimed, then
    calls_per_side times on each side of every pair.
    """
    parent()
    change()
    t0 = time.perf_counter()
    change()
    parent()
    calls = max(1, math.ceil(2 * PAIR_S / (time.perf_counter() - t0)))
    spent, faults = [[], []], [[], []]
    for i in range(PAIRS):
        for side in ((1, 0) if i % 2 else (0, 1)):
            fn = (change, parent)[side]
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            spent[side].append(time.perf_counter() - t0)
            faults[side].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    return ratio_row(*spent, calls) | {
        "calls_per_side": calls,
        "change_minflt_per_call": _figure(statistics.median(faults[0]) / calls),
        "parent_minflt_per_call": _figure(statistics.median(faults[1]) / calls)}


def _agree(point: str, what: str, change, parent) -> None:
    if change != parent:
        raise SystemExit(f"{point}: the two versions' {what} differ")


def _passes(point: str, table) -> None:
    if not compacthash.check_invariants(table).passed:
        raise SystemExit(f"{point}: the table fails check_invariants")


def grid_rows(parent):
    for point, build in grid():
        t, u = build(compacthash), build(parent)
        _agree(point, "tables", t.state_bytes(), u.state_bytes())
        _passes(point, t)
        row = {}
        for name in ("check_invariants", "probe_stats"):
            fn, parent_fn = getattr(compacthash, name), getattr(parent, name)
            _agree(point, f"{name} reports", fn(t).to_json_dict(), parent_fn(u).to_json_dict())
            row[name] = paired(partial(fn, t), partial(parent_fn, u))
        yield point, row


def _draws(pkg) -> list[int]:
    next_u64 = pkg.SplitMix64(0).next_u64
    return [next_u64() for _ in range(DRAWS)]


def generation_rows(parent):
    point = "generate_workload/fuzz-bulk"
    runs = [partial(_fuzz_bulk_ops, pkg) for pkg in (compacthash, parent)]
    ops = runs[0]()
    _agree(point, "op lists", ops, runs[1]())
    yield point, {"ops": len(ops), "generate_workload": paired(*runs)}
    point = f"splitmix64/draws{DRAWS}"
    runs = [partial(_draws, pkg) for pkg in (compacthash, parent)]
    _agree(point, "draws", runs[0](), runs[1]())
    yield point, {"next_u64": paired(*runs)}


def _differential(pkg, step: int, seqs, check_every: int | None):
    """Verdicts of run_differential on each op list of seqs; check_every None checks after the last op."""
    params = pkg.TableParams(CAPACITY, step)
    return lambda: [pkg.run_differential(ops, params, check_every=check_every or len(ops)).to_json_dict()
                    for ops in seqs]


def differential_rows(parent):
    for step in STEPS:
        bulk = [_differential(pkg, step, [_fuzz_bulk_ops(pkg)], None) for pkg in (compacthash, parent)]
        checked = [_differential(pkg, step, [pkg.generate_workload(pkg.WorkloadSpec(seed, 10_000, UNIVERSE, MIX))
                                             [:FUZZ_PREFIX] for seed in FUZZ_SEEDS], 1)
                   for pkg in (compacthash, parent)]
        for point, loops in ((f"run_differential/fuzz-bulk/step{step}", bulk),
                             (f"fuzz-checked/step{step}/seeds{len(FUZZ_SEEDS)}x{FUZZ_PREFIX}", checked)):
            verdicts = loops[0]()
            _agree(point, "verdicts", verdicts, loops[1]())
            if not all(v["passed"] for v in verdicts):
                raise SystemExit(f"{point}: a verdict fails")
            yield point, {"run_differential": paired(*loops)}


def _replay(pkg, kind: str, step: int, ops, suffix: str = "_counted"):
    """A fresh table of kind after ops, applied through its insert, contains and remove methods named with suffix."""
    table = getattr(pkg, kind)(pkg.TableParams(CAPACITY, step))
    methods = {op_kind: getattr(table, name + suffix)
               for op_kind, name in ((pkg.ADD, "insert"), (pkg.CONTAINS, "contains"), (pkg.REMOVE, "remove"))}
    for op_kind, key in ops:
        methods[op_kind](key)
    return table


def _each(method, keys: list[int]) -> list:
    return list(map(method, keys))


def _swap(remove, insert, sets: list[list[int]]):
    """A call removes sets[0] through remove and inserts sets[1] through insert, pair by pair, then swaps the two.

    Calls that share sets keep the table in step, whichever of them ran last.
    """
    def call():
        for victim, key in zip(*sets):
            remove(victim)
            insert(key)
        sets.reverse()

    return call


def lookup_row(point: str, tables, step: int) -> dict:
    """The four lookup figures, through the counted and through the plain methods, on a pair of equal tables.

    The pairs come last, since they change the tables.
    """
    _agree(point, "tables", *(t.state_bytes() for t in tables))
    live = len(tables[0])
    stored = random.Random(step).sample(sorted(tables[0].keys()), LOOKUP_KEYS)
    absent = [k + (1 << 40) for k in _keys(100 + step, LOOKUP_KEYS)]
    row = {"keys": LOOKUP_KEYS}
    variants = (("", "_counted"), ("_plain", ""))  # figure name suffix, method name suffix
    for figure, suffix in variants:
        for name, method, keys in (("contains_stored", "contains", stored),
                                   ("contains_absent", "contains", absent),
                                   ("remove_absent", "remove", absent)):
            runs = [partial(_each, getattr(t, method + suffix), keys) for t in tables]
            _agree(f"{point}/{name}{figure}", "results", runs[0](), runs[1]())
            row[name + figure] = paired(*runs)
    sets = [[stored, absent] for _ in tables]
    for figure, suffix in variants:
        swaps = [_swap(getattr(t, "remove" + suffix), getattr(t, "insert" + suffix), s) for t, s in zip(tables, sets)]
        row["remove_insert_pair" + figure] = paired(*swaps)
    _agree(point, "tables after the passes", *(t.state_bytes() for t in tables))
    _passes(point, tables[0])
    if len(tables[0]) != live:
        raise SystemExit(f"{point}: the remove+insert pairs changed the live count")
    return row


def table_rows(parent):
    pkgs = (compacthash, parent)
    for step in STEPS:
        ops = [_fuzz_bulk_ops(pkg) for pkg in pkgs]
        lookups = {}
        for kind, name in TABLES:
            point = f"replay/{name}/step{step}/fuzz-bulk"
            runs = [partial(_replay, pkg, kind, step, o) for pkg, o in zip(pkgs, ops)]
            tables = [run() for run in runs]
            _agree(point, "tables", *(t.state_bytes() for t in tables))
            _passes(point, tables[0])
            plain = [partial(_replay, pkg, kind, step, o, "") for pkg, o in zip(pkgs, ops)]
            _agree(point, "plain and counted tables", plain[0]().state_bytes(), tables[0].state_bytes())
            yield point, {"ops": len(ops[0]), "replay": paired(*runs), "replay_plain": paired(*plain)}
            lookups[f"lookup/{name}-replayed/step{step}"] = tables
        lookups[f"lookup/tombstone-saturated/step{step}/load{SATURATED_LOAD}"] = [_saturated(step, pkg) for pkg in pkgs]
        for point, tables in lookups.items():
            yield point, lookup_row(point, tables, step)
    for kind, name in TABLES:
        point = f"construct/{name}"
        runs = [partial(getattr(pkg, kind), pkg.TableParams(CAPACITY, 1)) for pkg in pkgs]
        _agree(point, "tables", *(run().state_bytes() for run in runs))
        yield point, {"construct": paired(*runs)}


def _churn_phase(pkg):
    """pkg's LiveKeys of LIVE_KEYS full-range keys, and a call that runs one round's phases on it."""
    live = pkg.harness.LiveKeys(0)
    live.add_fresh(LIVE_KEYS)

    def call():
        live.pick(PHASE_KEYS)
        live.add_fresh(PHASE_KEYS)

    return live, call


def live_keys_rows(parent):
    point = "live_keys/churn-phase"
    (live, call), (parent_live, parent_call) = (_churn_phase(pkg) for pkg in (compacthash, parent))
    _agree(point, "key lists", live.keys, parent_live.keys)
    row = paired(call, parent_call)
    _agree(point, "key lists after the pairs", live.keys, parent_live.keys)
    yield point, {"keys": LIVE_KEYS, "phase_keys": PHASE_KEYS, "pick_add_fresh": row}


def _through(inner, table):
    return inner(table)


def churn_rows(parent):
    for rounds in CHURN_ROUNDS:
        point = f"churn/bench-rounds{rounds}"
        runs = [partial(_bench, pkg, rounds, _through) for pkg in (compacthash, parent)]
        _agree(point, "bench.csv bytes", runs[0](), runs[1]())
        yield point, {"bench": paired(*runs)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name this run is filed under, e.g. aa or change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add this run to")
    ap.add_argument("--parent-src", type=Path, metavar="DIR", required=True,
                    help="src directory of the package to time against; this checkout's own src makes an A/A run")
    args = ap.parse_args()

    t0 = time.perf_counter()
    parent = load_package(args.parent_src)
    rows = {}
    for part in (grid_rows, generation_rows, live_keys_rows, differential_rows, table_rows, churn_rows):
        for point, row in part(parent):
            rows[point] = row
            print(point, row, flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["capacity"] = CAPACITY
    doc["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}
    doc.setdefault("paired", {})[args.label] = {"parent_src": str(args.parent_src),
                                                "wall_s": round(time.perf_counter() - t0, 1), "rows": rows}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
