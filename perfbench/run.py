"""compacthash benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {churn,fuzz-checked,fuzz-bulk} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing. Every workload process is a fresh,
single-threaded interpreter (numpy thread pools pinned to 1), started
one at a time, so setup time and peak memory are per workload.

--trace 0 prints the end-to-end metrics: setup_s (median over several
fresh processes), ops_per_s, job_s_p50 and peak_rss_mb. Times are
scaled to a reference host speed measured by calibration slices between
jobs (see perfbench/worker.py). The line above the result also gives
failed_op_ratio (operations refused with TableFull or diverging from the
oracle, over operations applied), the job count and the unscaled wall
figures.

--trace 1 runs the workload untraced and then traced (perfbench/tracer.py)
and prints the per-layer metrics plus trace.overhead_ratio, the traced
over the untraced wall time of the jobs both runs completed. Each traced
run's spans go to .perfbench_out/spans-<workload>-seed<N>.json and its
per-job exact counts to .perfbench_out/counts/; a count that differs
from an earlier traced run of the same workload and seed is printed and
counted in trace.count_mismatches.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A run whose outputs are wrong prints
correct=false and exits 1; bad arguments or a checkout without the
package exit 2 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("churn", "fuzz-checked", "fuzz-bulk")
SETUP_SAMPLES = 5  # fresh processes whose setup time gives setup_s's median
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise WorkerError("time budget exhausted before the next worker")
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
            repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict, dict]:
    setups = [spawn(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(workload, seed, seconds, "run", deadline)
    setups.append(run)
    jobs = run["scaled_jobs"]
    metrics = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "ops_per_s": {"value": run["ops"] / sum(jobs), "unit": "1/s"},
        "job_s_p50": {"value": statistics.median(jobs), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "setup_samples": len(setups),
        "host_speed_median": statistics.median(s["host_speed"] for s in setups),
        "wall": {"setup_s": statistics.median(s["setup_wall_s"] for s in setups),
                 "ops_per_s": run["ops"] / sum(run["jobs"]),
                 "job_s_p50": statistics.median(run["jobs"])},
        "failed_op_ratio": {"value": min(1.0, (run["refused_ops"] + run["failed_ops"]) / run["ops"]),
                            "unit": "ratio"},
        "detail": run["detail"],
    }
    return run, metrics, summary


def traced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict, dict]:
    plain = spawn(workload, seed, seconds, "run", deadline)
    run = spawn(workload, seed, seconds, "trace", deadline)
    common = min(len(plain["jobs"]), len(run["jobs"]))
    layers = dict(run["layers"])
    layers["trace.overhead_ratio"] = sum(run["jobs"][:common]) / sum(plain["jobs"][:common])
    layers["trace.count_mismatches"] = len(compare_counts(workload, seed, run["job_counts"]))
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in sorted(layers.items())}
    summary = {"workload": workload, "seed": seed, "jobs": len(run["jobs"]),
               "untraced_jobs": len(plain["jobs"]), "detail": run["detail"]}
    return dict(run, correct=run["correct"] and plain["correct"]), metrics, summary


def compare_counts(workload: str, seed: int, job_counts: list[dict]) -> list[str]:
    """Compare per-job exact counts with an earlier traced run of this seed.

    Jobs present in both runs must agree on every count; the stored
    record grows to the longer of the two runs.
    """
    path = OUT / "counts" / f"{workload}-seed{seed}.json"
    earlier = json.loads(path.read_text()) if path.exists() else []
    mismatches = []
    for job, (old, new) in enumerate(zip(earlier, job_counts)):
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                mismatches.append(f"job {job} {name}: earlier {old.get(name)}, now {new.get(name)}")
    for line in mismatches:
        print(f"count mismatch: {line}", file=sys.stderr)
    if len(job_counts) > len(earlier):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(earlier + job_counts[len(earlier):]) + "\n")
    return mismatches


def _unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail.startswith("us_") or tail.endswith("us_per_op"):
        return "us"
    if tail.startswith("ms_"):
        return "ms"
    if tail == "self_s":
        return "s"
    if tail in ("calls", "table_full", "count_mismatches"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "compacthash" / "__init__.py").is_file():
        print(f"error: no compacthash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 175
    measure = traced if args.trace else end_to_end
    try:
        run, metrics, summary = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    print(json.dumps({"correct": run["correct"], "attempted": run["ops"],
                      "failed": run["failed_ops"], "metrics": metrics}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
