"""Wall time of the verification, workload generation, differential and table layers.

    PYTHONPATH=src python bench/perf.py --label change --out BENCH_15.json

builds a grid of 65,536-slot tables and times check_invariants and
probe_stats on each: both table kinds at loads 0.02, 0.25, 0.5 and 0.9
and at 100 keys, at steps 1 and 3, plus a saturated tombstone table:
every slot but one non-FREE, keys at load 0.02 only. 100 keys is the
fuzz-checked workload's shape; load 0.02 covers sparse tables. One
more point is the tombstone table a default `compacthash bench`
leaves after round 25, 32,768 BUSY and 32,767 DELETED slots at step 1:
the shape the churn workload calls probe_stats on. Each figure is the
median of 41 calls after one untimed call. The tables are the same on
every run: keys come from seeded generators.

The generation layer is timed as seconds of generate_workload per
100,000 ops, for the fuzz-bulk spec (100,000 base ops) and for a spec
whose churn rounds make up half its ops, and as nanoseconds per
SplitMix64.next_u64 draw over 200,000 draws. Each figure is the median
of 11 runs after one untimed run. Each generate_workload figure also
records gc_collections, the collections per generation (0, 1, 2) that
the cyclic garbage collector started during the untimed run, read from
gc.get_stats().

The differential layer is timed as seconds of run_differential per
100,000 ops, on the fuzz-bulk spec's ops at steps 1 and 3 with the
invariant checker run once, after the last op: the median of 11 runs
after one untimed run, whose verdict must pass.

The table layer is timed on the same ops: each table kind replays them
on a fresh 65,536-slot table at steps 1 and 3 through insert_counted,
contains_counted and remove_counted, and each call is bracketed by two
perf_counter_ns reads. A figure is microseconds per call of one method,
after subtracting the mean cost of an empty bracket: the median of 5
replays after one untimed replay. Table construction is timed as
microseconds per new 65,536-slot table of each kind, with ru_minflt, the
minor page faults getrusage counts while the table is built: the median
of 11 constructions after one untimed one, in a fresh interpreter that
drops each table before it builds the next, as a driver that builds its
tables per run does.

The tombstone lookup layer is timed on the tombstone load-0.02 and
saturated tables at steps 1 and 3, with the same bracket: microseconds
per contains_counted call over 256 seeded stored keys and over 256
seeded absent keys, and per remove+insert pair, in which a stored key
is removed and a fresh key inserted. Each pass of pairs removes the keys
the pass before inserted, the first pass a seeded sample of the table's
keys, so the live count stays put. Each figure is the median of 5
passes after one untimed pass, on one table per point.

Each run is added to --out under --label, beside the runs already there,
so running the script once with another checkout's src on PYTHONPATH
(--label parent) and once with this one's puts both in one file. After
each run the file's summary is rebuilt: per label and grid point, the
median over that label's runs, and once a run labelled "parent" is in
the file, the parent's median divided by each other label's.

    PYTHONPATH=src python bench/perf.py --label change --out BENCH_16.json \
        --parent-src ../parent/src

runs an in-process A/B instead, because separate runs of the same code
spread up to 2x on a drifting host. It imports the package under DIR as
compacthash_parent (every import inside the package is relative), builds
each grid table once per version from the same keys, requires equal
state_bytes() and equal check_invariants and probe_stats reports, and
then times the two versions in PAIRS pairs whose order alternates. Each
side of a pair makes as many calls as fill about PAIR_S seconds. The
fuzz-checked loop is one more point: run_differential with
check_every=1 on the first 200 ops of the 10,000-op workloads of seeds
0-7 at step 1 and at step 3, the shape of the perfbench fuzz-checked
workload and of the acceptance per-op campaign. Per point, the run
records the median of the paired change/parent time ratios, their
quartiles and the number of pairs the change won, under
paired/<label>. Giving this checkout's own src as DIR makes an A/A run,
which shows the spread of the method itself.

The churn points time `compacthash bench --rounds 4` through each
version's cli.main in CHURN_PAIRS pairs whose order alternates, and
require equal bench.csv bytes from the two. A probe_stats hook marks
where each version's rows are built, so churn/rounds is the time of the
four churn rounds alone, without the probe_stats calls between them, and
churn/prefill the time from the call of main to the first row: argument
parsing, table construction and the prefill to the live target.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import compacthash.cli
from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, SplitMix64, TableParams, TombstoneTable,
                         WorkloadSpec, check_invariants, generate_workload, probe_stats, run_differential)

CAPACITY = 1 << 16
LOADS = (0.02, 0.25, 0.5, 0.9)
KEY_COUNTS = (100,)
STEPS = (1, 3)
SATURATED_LOAD = 0.02
BENCH_ROUNDS = 25  # churn rounds replayed for the bench-churned point
CALLS = 41  # timed calls per grid point
BASELINE = "parent"  # label the summary divides every other label by
GEN_RUNS = 11  # timed runs per generation figure
DIFF_RUNS = 11  # timed runs per run_differential figure
TABLE_RUNS = 5  # timed replays per table-op figure
CONSTRUCTIONS = 11  # timed constructions per table-construction figure
LOOKUP_KEYS = 256  # keys per tombstone lookup pass, and pairs per churn pass
PAIRS = 101  # alternating pairs per in-process A/B figure
PAIR_S = 0.005  # seconds of calls on each side of a pair, roughly
CHURN_ROUNDS = 4  # rounds of each churn-point bench
CHURN_PAIRS = 30  # alternating pairs of the churn points
FUZZ_SEEDS = range(8)  # seeds of the fuzz-checked loop
FUZZ_PREFIX = 200  # ops per fuzz-checked seed
TABLES = ((CompactTable, "compact"), (TombstoneTable, "tombstone"))
MIX = (0.45, 0.35, 0.20)
UNIVERSE = (0, 2 * CAPACITY)
GEN_SPECS = {
    "generate_workload/fuzz-bulk": WorkloadSpec(0, 100_000, UNIVERSE, MIX),
    "generate_workload/churn": WorkloadSpec(0, 50_000, UNIVERSE, MIX, churn_rounds=50, churn_batch=500),
}
DRAWS = 200_000
TIMINGS = ("check_invariants_ms", "probe_stats_ms", "s_per_100k_ops", "ns_per_draw", "us_per_op",
           "us_per_table", "us_per_pair", "ru_minflt")


def _keys(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.choice(1 << 40, size=count, replace=False)]


def _filled(kind, step: int, count: int, pkg=compacthash):
    t = getattr(pkg, kind.__name__)(pkg.TableParams(CAPACITY, step))
    for key in _keys(step, count):
        t.insert(key)
    return t


def _saturated(step: int, pkg=compacthash) -> TombstoneTable:
    """Tombstone table filled to every slot but one, then emptied to SATURATED_LOAD."""
    t = pkg.TombstoneTable(pkg.TableParams(CAPACITY, step))
    keys = _keys(step, CAPACITY - 1)
    for key in keys:
        t.insert(key)
    for key in keys[round(SATURATED_LOAD * CAPACITY):]:
        t.remove(key)
    return t


def _bench_churned(pkg=compacthash) -> TombstoneTable:
    """The tombstone table of a default compacthash bench after BENCH_ROUNDS rounds.

    Runs the bench itself with --rounds BENCH_ROUNDS, through a
    probe_stats hook that keeps the last tombstone table it sees.
    """
    cli = importlib.import_module(pkg.__name__ + ".cli")
    inner = cli.probe_stats
    last = None

    def keep_tombstone(table):
        nonlocal last
        if isinstance(table, pkg.TombstoneTable):
            last = table
        return inner(table)

    cli.probe_stats = keep_tombstone
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            if cli.main(["bench", "--rounds", str(BENCH_ROUNDS), "--out-dir", out_dir]) != 0:
                raise SystemExit("compacthash bench failed")
    finally:
        cli.probe_stats = inner
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


def median_s(fn, runs: int) -> float:
    """Median wall time of runs calls of fn, after one untimed call."""
    fn()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def median_ms(fn, table) -> float:
    return round(median_s(lambda: fn(table), CALLS) * 1e3, 4)


def _draw_all() -> None:
    next_u64 = SplitMix64(0).next_u64
    for _ in range(DRAWS):
        next_u64()


def _collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def generation_rows() -> dict:
    rows = {}
    for point, spec in GEN_SPECS.items():
        before = _collections()
        ops = len(generate_workload(spec))
        started = [after - b for after, b in zip(_collections(), before)]
        rows[point] = {"ops": ops, "gc_collections": started,
                       "s_per_100k_ops": round(median_s(lambda: generate_workload(spec), GEN_RUNS) * 1e5 / ops, 4)}
    rows["splitmix64/next_u64"] = {"draws": DRAWS, "ns_per_draw": round(median_s(_draw_all, GEN_RUNS) * 1e9 / DRAWS, 1)}
    return rows


def differential_rows() -> dict:
    ops = generate_workload(GEN_SPECS["generate_workload/fuzz-bulk"])
    rows = {}
    for step in STEPS:
        params = TableParams(CAPACITY, step)
        if not run_differential(ops, params, check_every=len(ops)).passed:
            raise SystemExit(f"run_differential/fuzz-bulk/step{step}: the verdict fails")
        seconds = median_s(lambda: run_differential(ops, params, check_every=len(ops)), DIFF_RUNS)
        rows[f"run_differential/fuzz-bulk/step{step}"] = {"ops": len(ops),
                                                          "s_per_100k_ops": round(seconds * 1e5 / len(ops), 4)}
    return rows


# argv: table class name, capacity, constructions; prints [[seconds, ru_minflt], ...]
_CONSTRUCT = """
import json, resource, sys, time
import compacthash
kind = getattr(compacthash, sys.argv[1])
params = compacthash.TableParams(int(sys.argv[2]), 1)
figures = []
for _ in range(int(sys.argv[3]) + 1):
    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    table = kind(params)
    figures.append((time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt))
    del table
print(json.dumps(figures[1:]))
"""


def _bracket_ns() -> float:
    """Mean cost of an empty pair of perf_counter_ns reads, in ns."""
    clock = time.perf_counter_ns
    total = 0
    for _ in range(100_000):
        t0 = clock()
        total += clock() - t0
    return total / 100_000


def _replay(kind, step: int, ops) -> dict[str, list[int]]:
    """Replay ops on a fresh table; [total ns, calls] per op kind."""
    table = kind(TableParams(CAPACITY, step))
    methods = {ADD: table.insert_counted, CONTAINS: table.contains_counted, REMOVE: table.remove_counted}
    spent = {op_kind: [0, 0] for op_kind in methods}
    clock = time.perf_counter_ns
    for op_kind, key in ops:
        method = methods[op_kind]
        t0 = clock()
        method(key)
        t1 = clock()
        acc = spent[op_kind]
        acc[0] += t1 - t0
        acc[1] += 1
    return spent


def table_rows() -> dict:
    ops = generate_workload(GEN_SPECS["generate_workload/fuzz-bulk"])
    bracket = _bracket_ns()
    rows = {}
    for step in STEPS:
        for kind, name in TABLES:
            _replay(kind, step, ops)
            replays = [_replay(kind, step, ops) for _ in range(TABLE_RUNS)]
            for op_kind, method in ((ADD, "insert"), (CONTAINS, "contains"), (REMOVE, "remove")):
                calls = replays[0][op_kind][1]
                us = statistics.median(r[op_kind][0] / calls - bracket for r in replays) / 1e3
                rows[f"table/{name}/step{step}/{method}_counted"] = {"calls": calls, "us_per_op": round(us, 4)}
    for kind, name in TABLES:
        argv = [sys.executable, "-c", _CONSTRUCT, kind.__name__, str(CAPACITY), str(CONSTRUCTIONS)]
        figures = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
        rows[f"construct/{name}"] = {"us_per_table": round(statistics.median(s for s, _ in figures) * 1e6, 1),
                                     "ru_minflt": statistics.median(f for _, f in figures)}
    return rows


def _us_per_call(fn, keys, bracket: float) -> float:
    clock = time.perf_counter_ns
    total = 0
    for key in keys:
        t0 = clock()
        fn(key)
        total += clock() - t0
    return (total / len(keys) - bracket) / 1e3


def _us_per_pair(table, victims, fresh, bracket: float) -> float:
    remove, insert = table.remove_counted, table.insert_counted
    clock = time.perf_counter_ns
    total = 0
    for victim, key in zip(victims, fresh):
        t0 = clock()
        remove(victim)
        insert(key)
        total += clock() - t0
    return (total / len(fresh) - bracket) / 1e3


def lookup_rows() -> dict:
    bracket = _bracket_ns()
    rows = {}
    for step in STEPS:
        for point, build in ((f"tombstone/step{step}/load{SATURATED_LOAD}",
                              lambda s=step: _filled(TombstoneTable, s, round(SATURATED_LOAD * CAPACITY))),
                             (f"tombstone-saturated/step{step}/load{SATURATED_LOAD}", lambda s=step: _saturated(s))):
            t = build()
            stored = random.Random(step).sample(sorted(t.keys()), LOOKUP_KEYS)
            absent = [k + (1 << 40) for k in _keys(100 + step, (TABLE_RUNS + 2) * LOOKUP_KEYS)]
            for name, keys in (("contains_stored", stored), ("contains_absent", absent[:LOOKUP_KEYS])):
                _us_per_call(t.contains_counted, keys, bracket)
                us = statistics.median(_us_per_call(t.contains_counted, keys, bracket) for _ in range(TABLE_RUNS))
                rows[f"lookup/{point}/{name}"] = {"calls": LOOKUP_KEYS, "us_per_op": round(us, 4)}
            victims, passes = stored, []
            for r in range(1, TABLE_RUNS + 2):
                fresh = absent[r * LOOKUP_KEYS:(r + 1) * LOOKUP_KEYS]
                passes.append(_us_per_pair(t, victims, fresh, bracket))
                victims = fresh
            if len(t) != round(SATURATED_LOAD * CAPACITY) or not check_invariants(t).passed:
                raise SystemExit(f"lookup/{point}: the churn passes left a wrong table")
            rows[f"lookup/{point}/remove_insert_pair"] = {"pairs": LOOKUP_KEYS,
                                                          "us_per_pair": round(statistics.median(passes[1:]), 4)}
    return rows


def run() -> dict:
    rows = {}
    for point, build in grid():
        t = build(compacthash)
        if not check_invariants(t).passed:
            raise SystemExit(f"{point}: the table fails check_invariants")
        rows[point] = {
            "live": len(t),
            "non_free": t.non_free_count if isinstance(t, TombstoneTable) else len(t),
            "check_invariants_ms": median_ms(check_invariants, t),
            "probe_stats_ms": median_ms(probe_stats, t),
        }
        print(point, rows[point], flush=True)
    for point, row in (generation_rows() | differential_rows() | table_rows() | lookup_rows()).items():
        rows[point] = row
        print(point, row, flush=True)
    return rows


def load_package(src: Path):
    """Import the compacthash package under src as compacthash_parent."""
    name = "compacthash_parent"
    spec = importlib.util.spec_from_file_location(name, src / "compacthash" / "__init__.py",
                                                  submodule_search_locations=[str(src / "compacthash")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def ratio_row(change_s: list[float], parent_s: list[float]) -> dict:
    """Median, quartiles and wins of the paired change/parent time ratios."""
    ratios = [c / p for c, p in zip(change_s, parent_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"ratio_median": round(median, 4), "ratio_iqr": [round(q1, 4), round(q3, 4)],
            "wins": sum(r < 1 for r in ratios), "pairs": len(ratios)}


def paired(change, parent) -> dict:
    """Change/parent time ratios over PAIRS pairs of alternating order."""
    parent()
    change()
    t0 = time.perf_counter()
    change()
    calls = max(1, math.ceil(PAIR_S / (time.perf_counter() - t0)))
    spent = [[], []]
    for i in range(PAIRS):
        for side in ((1, 0) if i % 2 else (0, 1)):
            fn = (change, parent)[side]
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            spent[side].append(time.perf_counter() - t0)
    return ratio_row(*spent) | {"calls_per_side": calls}


def _churn_run(pkg) -> tuple[bytes, float, float]:
    """bench.csv bytes, prefill seconds and round seconds of one bench of pkg."""
    cli = importlib.import_module(pkg.__name__ + ".cli")
    inner = cli.probe_stats
    marks = []  # perf_counter on entering and on leaving each probe_stats call

    def marked(table):
        marks.append(time.perf_counter())
        stats = inner(table)
        marks.append(time.perf_counter())
        return stats

    cli.probe_stats = marked
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            t0 = time.perf_counter()
            if cli.main(["bench", "--rounds", str(CHURN_ROUNDS), "--out-dir", out_dir]) != 0:
                raise SystemExit(f"{pkg.__name__}: compacthash bench failed")
            csv = Path(out_dir, "bench.csv").read_bytes()
    finally:
        cli.probe_stats = inner
    # four marks per round's rows, so round r runs from the end of round
    # r - 1's rows, mark 4r - 1, to the start of its own, mark 4r
    rounds = sum(marks[4 * r] - marks[4 * r - 1] for r in range(1, CHURN_ROUNDS + 1))
    return csv, marks[0] - t0, rounds


def churn_rows(parent) -> dict:
    spent = {"churn/prefill": [[], []], "churn/rounds": [[], []]}
    csv = {_churn_run(compacthash)[0], _churn_run(parent)[0]}
    for i in range(CHURN_PAIRS):
        for side in ((1, 0) if i % 2 else (0, 1)):
            out, prefill, rounds = _churn_run((compacthash, parent)[side])
            csv.add(out)
            spent["churn/prefill"][side].append(prefill)
            spent["churn/rounds"][side].append(rounds)
    if len(csv) != 1:
        raise SystemExit("churn: the two versions wrote different bench.csv bytes")
    return {point: {"bench": ratio_row(*sides)} for point, sides in spent.items()}


def paired_rows(parent) -> dict:
    rows = {}
    for point, build in grid():
        t, u = build(compacthash), build(parent)
        if t.state_bytes() != u.state_bytes():
            raise SystemExit(f"{point}: the two versions built different tables")
        if not check_invariants(t).passed:
            raise SystemExit(f"{point}: the table fails check_invariants")
        rows[point] = {}
        for name in ("check_invariants", "probe_stats"):
            fn, parent_fn = getattr(compacthash, name), getattr(parent, name)
            if fn(t).to_json_dict() != parent_fn(u).to_json_dict():
                raise SystemExit(f"{point}: {name} reports differ between the two versions")
            rows[point][name] = paired(lambda: fn(t), lambda: parent_fn(u))
        print(point, rows[point], flush=True)
    for step in STEPS:
        loops = []
        for pkg in (compacthash, parent):
            params = pkg.TableParams(CAPACITY, step)
            seqs = [pkg.generate_workload(pkg.WorkloadSpec(seed, 10_000, UNIVERSE, MIX))[:FUZZ_PREFIX]
                    for seed in FUZZ_SEEDS]
            loops.append(lambda pkg=pkg, params=params, seqs=seqs:
                         [pkg.run_differential(ops, params, check_every=1).to_json_dict() for ops in seqs])
        verdicts = loops[0]()
        if verdicts != loops[1]() or not all(v["passed"] for v in verdicts):
            raise SystemExit(f"fuzz-checked/step{step}: the verdicts fail or differ between the two versions")
        point = f"fuzz-checked/step{step}/seeds{len(FUZZ_SEEDS)}x{FUZZ_PREFIX}"
        rows[point] = {"run_differential": paired(*loops)}
        print(point, rows[point], flush=True)
    for point, row in churn_rows(parent).items():
        rows[point] = row
        print(point, row, flush=True)
    return rows


def summarize(doc: dict) -> dict:
    medians: dict[str, dict] = {}
    for label in dict.fromkeys(r["label"] for r in doc["runs"]):
        runs = [r["rows"] for r in doc["runs"] if r["label"] == label]
        medians[label] = {
            point: {metric: round(statistics.median(rows[point][metric] for rows in runs), 4)
                    for metric in TIMINGS if metric in runs[0][point]}
            for point in runs[0]
        }
    summary = {"median": medians}
    if BASELINE in medians:
        summary[f"{BASELINE}_over"] = {
            label: {point: {metric: round(medians[BASELINE][point][metric] / value, 2) if value else None
                            for metric, value in figures.items()}
                    for point, figures in per_point.items()}
            for label, per_point in medians.items() if label != BASELINE
        }
    return summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name this run is filed under, e.g. parent or change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add this run to")
    ap.add_argument("--parent-src", type=Path, metavar="DIR",
                    help="time check_invariants, probe_stats, the fuzz-checked loop and the churn rounds in-process, "
                         "paired against the package under DIR")
    args = ap.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["capacity"] = CAPACITY
    doc["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}
    if args.parent_src:
        doc.setdefault("paired", {})[args.label] = {"parent_src": str(args.parent_src),
                                                    "rows": paired_rows(load_package(args.parent_src))}
    else:
        doc["runs"].append({"label": args.label, "rows": run()})
    doc["summary"] = summarize(doc)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
