"""One workload run in a fresh, single-threaded process.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode> <spawned_at>

mode is ``run`` (untraced timing), ``trace`` (the same run with
perfbench/tracer.py installed) or ``setup`` (stop where the first timed
job would start). spawned_at is the parent's CLOCK_MONOTONIC reading
just before it started this process, so setup time covers interpreter
start and imports. The last stdout line is one JSON object.

Workloads, all on 65,536-slot tables:

- churn: ``compacthash bench`` with default arguments through
  ``compacthash.cli.main``; a job is one churn round, whose end is the
  second of the two ``probe_stats`` calls that close it;
- fuzz-checked: the acceptance per-op campaign shape (check_every=1),
  cut to a prefix of each seed's 10,000-op sequence;
- fuzz-bulk: the acceptance differential campaign shape, 100,000-op
  seeds with check_every=100,000.

A fuzz job is one workload seed: generate_workload, then
run_differential at step 1 and at step 3.

The host's speed drifts by a third within a minute, so outside trace
mode a fixed calibration slice runs after setup and after every job,
untimed. Each job's wall time is also reported scaled to the reference
speed: multiplied by CAL_REF_S over the median of the slices around it.
Interpreted Python and numpy array passes drift apart on this host, so
the slice after a job is the kind of work that dominates its workload
(CAL_SLICE); setup time is scaled by Python slices.
"""

import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from array import array
from contextlib import nullcontext
from functools import cache
from pathlib import Path

import numpy as np

from compacthash import (CompactTable, TableParams, TombstoneTable, WorkloadSpec,
                         generate_workload, run_differential)
import compacthash.cli

CAPACITY = 65536
MIX = (0.45, 0.35, 0.20)
UNIVERSE = (0, 2 * CAPACITY)
STEPS = (1, 3)
# Ops per fuzz-checked seed: about 0.5 s of checking per seed on 2 cores,
# so a run holds enough seeds for a steady median.
CHECKED_PREFIX = 200
BULK_OPS = 100_000
# Job i of benchmark seed n runs workload seed n * SEED_STRIDE + i.
SEED_STRIDE = 100_000

FUZZ = {
    "fuzz-checked": (CHECKED_PREFIX, 1),
    "fuzz-bulk": (BULK_OPS, BULK_OPS),
}

# Calibration slices. Each takes about CAL_REF_S on the 2-vCPU reference
# VM; the constant only sets the scale of the reported times and never
# changes. The Python slice is splitmix64 arithmetic, set membership and
# array slot writes, as in the package's table and harness loops; the
# numpy slice is the gather, cumsum, argsort and compare passes over
# 65,536-slot arrays that check_invariants makes.
CAL_OPS = 100_000
CAL_NUMPY_PASSES = 20
CAL_REF_S = 0.08
CAL_WINDOW = 3  # slices on each side of a job that scale it
SETUP_CAL_SLICES = 5  # the first slices in a fresh process run slow
_MASK64 = (1 << 64) - 1

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def python_slice() -> float:
    """Wall time of one fixed interpreted-Python slice; it uses no package code."""
    t0 = time.perf_counter()
    state, acc = 0x5EED, 0
    live: set[int] = set()
    slots = array("q", bytes(8 * CAPACITY))
    for i in range(CAL_OPS):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        key = (((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64) >> 48
        if key in live:
            live.discard(key)
            acc += slots[key]
        else:
            live.add(key)
            slots[key] = i
    return time.perf_counter() - t0


@cache
def _numpy_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0x5EED)
    order = np.arange(CAPACITY, dtype=np.int64) * 3 % CAPACITY
    return order, rng.random(CAPACITY) < 0.5, rng.integers(0, 1 << 40, CAPACITY)


def numpy_slice() -> float:
    """Wall time of one fixed numpy slice; it uses no package code."""
    order, busy, keys = _numpy_inputs()
    t0 = time.perf_counter()
    cs = np.zeros(CAPACITY + 1, dtype=np.int64)
    for i in range(CAL_NUMPY_PASSES):
        mask = busy if i % 2 else ~busy
        np.cumsum(mask[order], out=cs[1:])
        picked = keys[np.flatnonzero(mask)]
        picked = picked[np.argsort(picked, kind="stable")]
        np.flatnonzero(picked[1:] == picked[:-1])
    return time.perf_counter() - t0


CAL_SLICE = {"churn": python_slice, "fuzz-checked": numpy_slice, "fuzz-bulk": python_slice}


def setup_calibration() -> float:
    return statistics.median(python_slice() for _ in range(SETUP_CAL_SLICES))


def scaled(wall: list[float], cal: list[float]) -> list[float]:
    """Each job's wall time at the reference speed.

    cal[i] and cal[i + 1] bracket job i; a single slice is noisier than
    the host's drift is fast, so job i is scaled by the median of the
    slices from cal[i - CAL_WINDOW + 1] to cal[i + CAL_WINDOW].
    """
    return [w * CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1])
            for i, w in enumerate(wall)]


def churn_seed(seed: int) -> int:
    """The bench --seed for a benchmark seed; only recorded digests are usable."""
    digests = REFERENCE["churn_bench_csv_sha256"]
    return seed if str(seed) in digests else seed % REFERENCE["churn_seed_modulus"]


class SetupDone(Exception):
    """Raised from the probe_stats hook to end a setup-only churn run."""


def run_churn(seed: int, mode: str, tracer, spawned_at: float) -> dict:
    bench_seed = churn_seed(seed)
    ends: list[float] = []  # perf_counter when each round's rows are done
    starts: list[float] = []  # perf_counter when the next round starts
    cal: list[float] = []  # calibration slice run between the two
    setup_end: list[float] = []
    job_counts: list[dict] = []
    inner = compacthash.cli.probe_stats
    calls = 0

    def probe_stats(table):
        nonlocal calls
        result = inner(table)
        calls += 1
        if calls % 2 == 0:
            ends.append(time.perf_counter())
            if calls == 2:
                setup_end.append(_monotonic())
            if tracer is not None:
                job_counts.append(tracer.counts())
            else:
                cal.append(setup_calibration() if calls == 2 else python_slice())
            if mode == "setup":
                raise SetupDone
            starts.append(time.perf_counter())
        return result

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        compacthash.cli.probe_stats = probe_stats
        try:
            rc = compacthash.cli.main(["bench", "--seed", str(bench_seed), "--out-dir", out_dir])
        except SetupDone:
            return _setup_result(setup_end[0] - spawned_at, cal[0])
        finally:
            compacthash.cli.probe_stats = inner
        csv = Path(out_dir, "bench.csv").read_bytes()

    summary = dict(line[2:].split("=", 1) for line in csv.decode().splitlines()
                   if line.startswith("# ") and "=" in line)
    ops = int(summary["insert_samples"]) + int(summary["compress_samples"])
    digest = hashlib.sha256(csv).hexdigest()
    correct = rc == 0 and digest == REFERENCE["churn_bench_csv_sha256"][str(bench_seed)]
    rounds = [end - start for start, end in zip(starts, ends[1:])]
    result = {
        **_setup_result(setup_end[0] - spawned_at, cal[0] if cal else None),
        "jobs": rounds,
        "scaled_jobs": scaled(rounds, cal) if cal else None,
        "ops": ops,
        "failed_ops": 0 if correct else ops,
        "refused_ops": int(summary["tombstone_insert_failures"]),
        "correct": correct,
        "detail": {"bench_seed": bench_seed, "exit_code": rc, "sha256": digest},
    }
    if tracer is not None:
        (bench_ns,) = tracer.durations("cmd_bench")
        result["layers"] = tracer.layer_metrics(int(bench_ns))
        result["job_counts"] = _diffs(job_counts)
    return result


def run_fuzz(workload: str, seed: int, seconds: float, mode: str, tracer, spawned_at: float) -> dict:
    op_count, check_every = FUZZ[workload]
    CompactTable(TableParams(CAPACITY))
    TombstoneTable(TableParams(CAPACITY))
    setup_s = _monotonic() - spawned_at
    setup_cal = setup_calibration() if tracer is None else None
    if mode == "setup":
        return _setup_result(setup_s, setup_cal)
    calibrate = CAL_SLICE[workload]
    cal = [calibrate()] if tracer is None else []  # cal[i], cal[i + 1] bracket job i

    gen, diff = generate_workload, run_differential
    if tracer is not None:
        gen = tracer.wrap("generate_workload", gen, lambda spec: spec.op_count)
        diff = tracer.wrap("run_differential", diff, len)
    jobs: list[float] = []
    job_counts: list[dict] = []
    ops = failed = 0
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        sid = tracer.begin("job") if tracer is not None else None
        spec = WorkloadSpec(seed * SEED_STRIDE + len(jobs), op_count, UNIVERSE, MIX)
        seq = gen(spec)
        passed = all([diff(seq, TableParams(CAPACITY, step), check_every).passed for step in STEPS])
        if tracer is not None:
            tracer.end(sid)
        jobs.append(time.perf_counter() - t0)
        if tracer is not None:
            job_counts.append(tracer.counts())
        else:
            cal.append(calibrate())
        ops += len(seq) * len(STEPS)
        if not passed:
            failed += len(seq) * len(STEPS)
    result = {
        **_setup_result(setup_s, setup_cal),
        "jobs": jobs,
        "scaled_jobs": scaled(jobs, cal) if cal else None,
        "ops": ops,
        "failed_ops": failed,
        "refused_ops": 0,  # a passing verdict rules out TableFull; failing jobs count as failed
        "correct": failed == 0,
        "detail": {"first_workload_seed": seed * SEED_STRIDE, "ops_per_seed": op_count},
    }
    if tracer is not None:
        job_ns = int(tracer.durations("job").sum())
        result["layers"] = tracer.layer_metrics(job_ns)
        result["job_counts"] = _diffs(job_counts)
    return result


def _setup_result(setup_wall: float, cal: float | None) -> dict:
    return {"setup_wall_s": setup_wall,
            "setup_s": None if cal is None else setup_wall * CAL_REF_S / cal,
            "host_speed": None if cal is None else CAL_REF_S / cal}


def _diffs(cumulative: list[dict]) -> list[dict]:
    out, prev = [], {}
    for snap in cumulative:
        out.append({k: v - prev.get(k, 0) for k, v in snap.items()})
        prev = snap
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode, spawned_at = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    if mode == "trace":
        from tracer import Tracer
        context = Tracer()
    else:
        context = nullcontext()
    with context as tracer:
        if workload == "churn":
            result = run_churn(seed, mode, tracer, spawned_at)
        else:
            result = run_fuzz(workload, seed, seconds, mode, tracer, spawned_at)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        spans.write_text(json.dumps(tracer.spans_json()) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
