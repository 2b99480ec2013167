"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The two seed campaigns
that criteria 1 and 7 share are nearly all of the wall time; they spread
their seeds over up to 4 worker processes, one per usable CPU. On a
2-vCPU host they took 98 s of the file's 115 s.
"""

import json
import multiprocessing
import os
from contextlib import nullcontext

import pytest

from compacthash import (CompactTable, SplitMix64, TableParams, TombstoneTable,
                         WorkloadSpec, generate_workload, run_differential)
from compacthash.cli import main as cli_main
from compacthash.harness import LiveKeys

CAPACITY = 65536
MIX = (0.45, 0.35, 0.20)
# keys must outnumber slots so probe chains form; at this width the live
# count tops out near load 0.55, safely under the occupancy cap
UNIVERSE = (0, 2 * CAPACITY)
STEPS = (1, 3)  # criterion 7 re-runs the campaigns at step 3
# Knuth's linear-probing costs at load a (TAOCP Vol. 3, 6.4), per hit and
# per miss, each with the relative band a compact bench row must lie in:
# 5 standard deviations of the per-row deviation over the 816 compact
# rows of default benches at seeds 0-15, all at load 0.5 (sd 0.62% and
# 0.77%; the widest seen were 1.8% and 2.4%)
KNUTH_COSTS = {"mean_success": (lambda a: (1 + 1 / (1 - a)) / 2, 0.031),
               "mean_miss": (lambda a: (1 + 1 / (1 - a) ** 2) / 2, 0.039)}


def _report(criterion: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}"
    if detail:
        line += f" [{detail}]"
    print("\n" + line, flush=True)
    assert ok, line


def map_seeds(job, seeds: range) -> list:
    """[job(seed) for seed in seeds], with one process-pool job per seed.

    The pool has min(usable CPUs, 4, len(seeds)) spawned workers; with one,
    the jobs run serially in this process. Results come back in seed order.
    A job that raises makes this raise RuntimeError naming its seed. However
    this returns or raises (the test deadline included), the pool's workers
    are terminated, running jobs and all.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, 4, len(seeds))
    with multiprocessing.get_context("spawn").Pool(workers) if workers > 1 else nullcontext() as pool:
        outcomes = pool.imap(job, seeds) if pool else map(job, seeds)
        results = []
        for seed in seeds:
            try:
                results.append(next(outcomes))
            except Exception as exc:
                raise RuntimeError(f"{job.__name__} raised at seed {seed}: {exc!r}") from exc
        return results


def differential_seed(seed: int) -> dict:
    """The first divergence of seed's 100,000-op workload, per step that diverges."""
    ops = generate_workload(WorkloadSpec(seed, 100_000, UNIVERSE, MIX))
    verdicts = {step: run_differential(ops, TableParams(CAPACITY, step), check_every=100_000) for step in STEPS}
    return {step: verdict.first_divergence for step, verdict in verdicts.items() if not verdict.passed}


def perop_check_seed(seed: int) -> list[int]:
    """The steps at which seed's 10,000-op workload fails, checked after every op."""
    ops = generate_workload(WorkloadSpec(seed, 10_000, UNIVERSE, MIX))
    return [step for step in STEPS if not run_differential(ops, TableParams(CAPACITY, step), check_every=1).passed]


@pytest.fixture(scope="module")
def differential_campaign():
    """100 seeds x 100,000 ops, every return value compared, per step."""
    failures = {step: [] for step in STEPS}
    seeds = range(100)
    for seed, divergences in zip(seeds, map_seeds(differential_seed, seeds)):
        for step, divergence in divergences.items():
            failures[step].append((seed, divergence))
    return failures


@pytest.fixture(scope="module")
def perop_check_campaign():
    """10 seeds x 10,000 ops with the invariant checker after every op."""
    failures = {step: [] for step in STEPS}
    seeds = range(10)
    for seed, steps in zip(seeds, map_seeds(perop_check_seed, seeds)):
        for step in steps:
            failures[step].append(seed)
    return failures


def fails_at_seed_2(seed: int) -> list[int]:
    return [seed] if seed == 2 else []


def raises_at_seed_2(seed: int) -> int:
    if seed == 2:
        raise ValueError("job failed")
    return seed


def test_map_seeds_reports_a_failing_seed_and_a_raising_job():
    seeds = range(4)
    assert map_seeds(fails_at_seed_2, seeds) == [[], [], [2], []]
    with pytest.raises(RuntimeError, match=r"raises_at_seed_2 raised at seed 2: ValueError\('job failed'\)"):
        map_seeds(raises_at_seed_2, seeds)


def test_criterion_1(differential_campaign, perop_check_campaign):
    ok = not differential_campaign[1] and not perop_check_campaign[1]
    _report(1, "differential correctness, 100 seeds x 100k ops, step 1", ok,
            f"divergences={differential_campaign[1][:3]} "
            f"invariant_seeds={perop_check_campaign[1][:3]}" if not ok else "")


def _chain_fixture_ok(capacity, step, keys, slots_before, removed, slots_after):
    t = CompactTable(TableParams(capacity, step))
    for key in keys:
        if not t.insert(key):
            return False
    for index, expected in slots_before:
        if (t._keys[index], t._probe_counts[index]) != expected:
            return False
    if not t.remove(removed):
        return False
    busy = [(i, (key, pc)) for i, (key, pc) in enumerate(zip(t._keys, t._probe_counts)) if pc]
    return busy == slots_after


def test_criterion_2():
    m = 7
    ok = _chain_fixture_ok(
        m, 1, [7, 14, 21],
        slots_before=[(0, (7, 1)), (1, (14, 2)), (2, (21, 3))],
        removed=7,
        slots_after=[(0, (14, 1)), (1, (21, 2))])
    # boundary: entries whose probe count equals the offset must not move
    ok &= _chain_fixture_ok(
        m, 1, [0, 1, 8],
        slots_before=[(0, (0, 1)), (1, (1, 1)), (2, (8, 2))],
        removed=0,
        slots_after=[(1, (1, 1)), (2, (8, 2))])
    # an entry at its home beside the freed slot stays; the scan ends at
    # the empty slot after it
    ok &= _chain_fixture_ok(
        m, 1, [0, 1],
        slots_before=[(0, (0, 1)), (1, (1, 1))],
        removed=0,
        slots_after=[(1, (1, 1))])
    _report(2, "hand-traced m=7 compression fixtures reproduce slot-exactly", ok)


def test_criterion_3():
    params = TableParams(CAPACITY, 1)
    compact = CompactTable(params)
    tombstone = TombstoneTable(params)
    keys = [i * CAPACITY for i in range(1000)]  # all share home slot 0
    for key in keys:
        compact.insert(key)
        tombstone.insert(key)
    for key in keys:
        compact.remove(key)
        tombstone.remove(key)
    probe = 1000 * CAPACITY
    _, tombstone_cost = tombstone.contains_counted(probe)
    _, compact_cost = compact.contains_counted(probe)
    ok = tombstone_cost == 1001 and compact_cost == 1
    _report(3, "1000 same-hash keys deleted: miss costs 1001 (tombstone) vs 1 (compact)",
            ok, f"tombstone={tombstone_cost} compact={compact_cost}")


def test_criterion_4(tmp_path):
    code = cli_main(["bench", "--capacity", str(CAPACITY), "--live-target", "32768",
                     "--rounds", "50", "--batch", "16384", "--seed", "1",
                     "--format", "json", "--out-dir", str(tmp_path)])
    rows = json.loads((tmp_path / "bench.json").read_text())["rows"]
    miss = {(r["round"], r["table_kind"]): r["mean_miss"] for r in rows}
    tomb = [miss[(r, "tombstone")] for r in range(51)]
    stable = miss[(50, "compact")] <= 1.25 * miss[(1, "compact")]
    monotone = all(b >= a for a, b in zip(tomb, tomb[1:]))
    separated = all(miss[(r, "tombstone")] > miss[(r, "compact")] for r in range(10, 51))
    # with one FREE slot left, a miss from every home walks to it
    saturated = [r for r in rows if r["table_kind"] == "tombstone"
                 and r["tombstone_count"] + round(r["load_factor"] * CAPACITY) == CAPACITY - 1]
    saturated_exact = bool(saturated) and all(r["mean_miss"] == (CAPACITY + 1) / 2 for r in saturated)
    # by the replay identity a churned compact table is a fresh build of its keys
    deviation = max(abs(r[column] / cost(r["load_factor"]) - 1) / band
                    for r in rows if r["table_kind"] == "compact"
                    for column, (cost, band) in KNUTH_COSTS.items())
    ok = code == 0 and stable and monotone and separated and saturated_exact and deviation <= 1
    _report(4, "50-round churn: compact miss cost stable and on Knuth's curve, tombstone degrades", ok,
            f"compact r1={miss[(1, 'compact')]:.3f} r50={miss[(50, 'compact')]:.3f} "
            f"tombstone r50={miss[(50, 'tombstone')]:.1f} saturated_rows={len(saturated)} "
            f"worst_band_use={deviation:.2f}")


# Criterion 5's predicted means and relative bands. At load a = n/m an
# absent key's insert costs Knuth's mean miss and a removal's compress
# scan (mean_miss - 1)/a (README, deletion cost against insertion cost).
# Inserts run at 4,095 live keys and removals at 4,096. Each band is 5
# root-mean-square deviations of the per-seed means from the prediction
# over seeds 0-15 of the same workload (0.094% and 0.144%; the widest
# seen were 0.20% and 0.31%).
PARITY_KEYS = 4096
_knuth_miss, _ = KNUTH_COSTS["mean_miss"]
_parity_load = PARITY_KEYS / CAPACITY
PARITY_PREDICTIONS = {"insert": (_knuth_miss(_parity_load - 1 / CAPACITY), 0.005),
                      "compress-scan": ((_knuth_miss(_parity_load) - 1) / _parity_load, 0.0075)}


def test_criterion_5():
    # fixed churn workload at low load, where the two means lie close:
    # their ratio is about 1 + load/2 (README)
    params = TableParams(CAPACITY, 1)
    table = CompactTable(params)
    live = LiveKeys(2025)
    for key in live.add_fresh(PARITY_KEYS):
        table.insert(key)
    insert_slots = compress_slots = 0
    pairs = 50_000  # 100,000 churn operations
    for _ in range(pairs):
        _, _find, scan, _moved = table.remove_counted(live.pick(1)[0])
        compress_slots += scan
        _, n = table.insert_counted(live.add_fresh(1)[0])
        insert_slots += n
    means = {"insert": insert_slots / pairs, "compress-scan": compress_slots / pairs}
    gap = abs(means["insert"] - means["compress-scan"]) / means["insert"]
    band_use = {name: abs(means[name] / predicted - 1) / band
                for name, (predicted, band) in PARITY_PREDICTIONS.items()}
    ok = gap <= 0.05 and max(band_use.values()) <= 1
    _report(5, "deletion/insertion iteration parity within 5% on a fixed churn workload, "
            "each mean within its band of the prediction", ok,
            " ".join(f"{name}={means[name]:.4f} (predicted {PARITY_PREDICTIONS[name][0]:.4f}, "
                     f"band use {band_use[name]:.2f})" for name in means) + f" gap={gap:.2%}")


# The two cost models of README's scope paragraph, on a 1,024-slot table
# at load 0.8 under churn, the tombstone table rebuilt every 205 ops. Each
# margin is the mean less 5 standard deviations of its ratio over seeds
# 0-63 of the same workload, rounded down: tombstone/compact miss 1.753
# (sd 0.083, narrowest 1.614) and compact insert/tombstone placement
# 1.315 (sd 0.054, narrowest 1.203).
COST_MODEL_MARGINS = {"miss": 1.33, "placement": 1.04}


def test_compaction_wins_misses_and_tombstones_win_fresh_placement():
    m, rebuild_every, churn_ops = 1024, 205, 4096
    params = TableParams(m, 1)
    compact, tombstone = CompactTable(params), TombstoneTable(params)
    live = LiveKeys(1)
    for key in live.add_fresh(round(0.8 * m)):
        compact.insert(key)
        tombstone.insert(key)
    slots = {"compact miss": 0, "tombstone miss": 0, "compact insert": 0, "tombstone placement": 0}
    for op in range(churn_ops):
        if op % rebuild_every == 0:
            tombstone = tombstone.rehash(params)
        victim = live.pick(1)[0]
        compact.remove(victim)
        tombstone.remove(victim)
        key = live.add_fresh(1)[0]
        slots["compact miss"] += compact.contains_counted(key)[1]
        slots["tombstone miss"] += tombstone.contains_counted(key)[1]
        slots["compact insert"] += compact.insert_counted(key)[1]
        tombstone.insert(key)  # placed knowing the key is fresh
        slots["tombstone placement"] += tombstone.contains_counted(key)[1]
    detail = " ".join(f"{name}={total / churn_ops:.2f}" for name, total in slots.items())
    # a compact insert walks to the first empty slot, so it costs a miss
    assert slots["compact insert"] == slots["compact miss"], detail
    assert slots["tombstone miss"] >= COST_MODEL_MARGINS["miss"] * slots["compact miss"], detail
    assert slots["compact insert"] >= COST_MODEL_MARGINS["placement"] * slots["tombstone placement"], detail


def _clean_empty_ok(capacity, step, key_count, seeds=20):
    params = TableParams(capacity, step)
    fresh = CompactTable(params).state_bytes()
    for seed in seeds if isinstance(seeds, range) else range(seeds):
        rng = SplitMix64(seed * 7919 + 13)
        keys = [-2**63 + rng.next_u64() for _ in range(key_count)]
        compact = CompactTable(params)
        tombstone = TombstoneTable(params)
        ever_busy = set()
        collided = False
        for key in keys:
            _, n = compact.insert_counted(key)
            collided |= n > 1
            tombstone.insert(key)
            ever_busy.add(tombstone._slot_of[key])
        order = keys[:]
        for i in range(len(order) - 1, 0, -1):
            j = rng.next_u64() % (i + 1)
            order[i], order[j] = order[j], order[i]
        for key in order:
            if not (compact.remove(key) and tombstone.remove(key)):
                return False
        if compact.state_bytes() != fresh or len(compact) != 0:
            return False
        if tombstone.non_free_count != len(ever_busy):
            return False
        if collided and not tombstone.non_free_count:
            return False
    return True


def test_criterion_6():
    ok = _clean_empty_ok(512, 1, 300)
    _report(6, "20 seeds: removing every key restores byte-identical fresh state", ok)


def test_criterion_7(differential_campaign, perop_check_campaign):
    ok = not differential_campaign[3] and not perop_check_campaign[3]

    # criterion 2 re-traced at step 3, capacity 65536
    m = CAPACITY
    ok &= _chain_fixture_ok(
        m, 3, [5, 5 + m, 5 + 2 * m],
        slots_before=[(5, (5, 1)), (8, (5 + m, 2)), (11, (5 + 2 * m, 3))],
        removed=5,
        slots_after=[(5, (5 + m, 1)), (8, (5 + 2 * m, 2))])
    ok &= _chain_fixture_ok(
        m, 3, [5, 8, 5 + m],
        slots_before=[(5, (5, 1)), (8, (8, 1)), (11, (5 + m, 3))],
        removed=5,
        slots_after=[(5, (5 + m, 1)), (8, (8, 1))])

    # and at step 5, capacity 7 (desk scale)
    ok &= _chain_fixture_ok(
        7, 5, [0, 5],
        slots_before=[(0, (0, 1)), (5, (5, 1))],
        removed=0,
        slots_after=[(5, (5, 1))])
    ok &= _chain_fixture_ok(
        7, 5, [0, 7, 14],
        slots_before=[(0, (0, 1)), (5, (7, 2)), (3, (14, 3))],
        removed=0,
        slots_after=[(0, (7, 1)), (5, (14, 2))])

    # criterion 1 at desk scale for step 5, capacity 7, checked after every
    # op: 200 three-way runs, and 100 of sustained churn, which exercises
    # compression hard. Every run saturates the tombstone table, as its
    # design does at this size; run_differential records where, and from
    # there compares the compact table with the oracle alone, the
    # occupancy cap included
    desk_failures, unsaturated = [], []
    for seeds, op_count, universe in ((200, 100, (0, 14)), (100, 400, (0, 30))):
        for seed in range(seeds):
            spec = WorkloadSpec(seed, op_count, universe, MIX)
            verdict = run_differential(generate_workload(spec), TableParams(7, 5), check_every=1)
            if not verdict.passed:
                desk_failures.append((universe, seed))
            if verdict.tombstone_saturated_at is None:
                unsaturated.append((universe, seed))
    ok &= not desk_failures and not unsaturated

    # criterion 6 under both alternate configurations
    ok &= _clean_empty_ok(CAPACITY, 3, 1000, seeds=5)
    ok &= _clean_empty_ok(7, 5, 5)

    _report(7, "criteria 1, 2, 6 hold with step 3 (capacity 65536) and step 5 (capacity 7)", ok,
            f"desk_failures={desk_failures[:3]} unsaturated={unsaturated[:3]}"
            if desk_failures or unsaturated else "")
