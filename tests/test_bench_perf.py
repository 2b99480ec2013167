"""The helpers of bench/perf.py: ratio_row, paired, load_package, _replay, _swap, _bench and _churn_phase."""

import importlib.util
import sys
from pathlib import Path

import pytest

import compacthash
import compacthash.cli

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perf():
    spec = importlib.util.spec_from_file_location("bench_perf", REPO / "bench" / "perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratio_row_reads_median_quartiles_and_wins(perf):
    # ratios 0.5, 1.0, 1.0, 1.5, 2.0: one win, and the two ties are no wins
    row = perf.ratio_row([5, 1, 1, 1.5, 2], [10, 1, 1, 1, 1], calls=2)
    assert row == {"ratio_median": 1.0, "ratio_iqr": [0.75, 1.75], "wins": 1, "pairs": 5,
                   "change_s_per_call": 0.75, "parent_s_per_call": 0.5}


def test_paired_calls_both_sides_equally_and_reports_each_side(perf, monkeypatch):
    monkeypatch.setattr(perf, "PAIRS", 5)
    monkeypatch.setattr(perf, "PAIR_S", 1e-4)
    made = {"change": 0, "parent": 0}

    def change():
        made["change"] += 1
        sum(range(10))

    def parent():
        made["parent"] += 1
        sum(range(5000))

    row = perf.paired(change, parent)
    assert set(row) == {"ratio_median", "ratio_iqr", "wins", "pairs", "calls_per_side", "change_s_per_call",
                        "parent_s_per_call", "change_minflt_per_call", "parent_minflt_per_call"}
    assert row["pairs"] == 5
    assert made["change"] == made["parent"] == 2 + 5 * row["calls_per_side"]
    assert 0 < row["change_s_per_call"] < row["parent_s_per_call"]
    assert row["ratio_median"] < 1 and 0 <= row["wins"] <= 5
    assert row["change_minflt_per_call"] >= 0 and row["parent_minflt_per_call"] >= 0


def test_load_package_imports_a_second_copy_that_builds_equal_tables(perf):
    try:
        pkg = perf.load_package(REPO / "src")
        assert pkg is not compacthash and pkg.__name__ == "compacthash_parent"
        for kind in ("CompactTable", "TombstoneTable"):
            assert getattr(pkg, kind) is not getattr(compacthash, kind)
            tables = [getattr(p, kind)(p.TableParams(31, 3)) for p in (compacthash, pkg)]
            for t in tables:
                for key in (5, 36, 67, -26, 98, 7):
                    t.insert(key)
                t.remove(36)
            assert tables[0].state_bytes() == tables[1].state_bytes()
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "compacthash_parent"]:
            del sys.modules[name]


def test_replay_through_plain_and_counted_methods_builds_equal_tables(perf):
    ops = compacthash.generate_workload(compacthash.WorkloadSpec(0, 2000, (0, 200)))
    for kind in ("CompactTable", "TombstoneTable"):
        counted, plain = (perf._replay(compacthash, kind, 3, ops, suffix) for suffix in ("_counted", ""))
        assert len(counted) > 0 and counted.state_bytes() == plain.state_bytes()


def test_swaps_that_share_their_sets_keep_the_table_in_step(perf):
    t = compacthash.TombstoneTable(compacthash.TableParams(31, 3))
    stored, absent = [1, 2, 3], [40, 41, 42]
    for key in stored:
        t.insert(key)
    sets = [stored, absent]
    counted = perf._swap(t.remove_counted, t.insert_counted, sets)
    plain = perf._swap(t.remove, t.insert, sets)
    counted()
    assert sorted(t.keys()) == absent
    plain()
    assert sorted(t.keys()) == stored
    plain()
    counted()
    assert sorted(t.keys()) == stored


def test_bench_restores_probe_stats_however_it_ends(perf):
    cli = compacthash.cli
    inner = cli.probe_stats
    seen = []

    def keep(real, table):
        seen.append(type(table))
        return real(table)

    csv = perf._bench(compacthash, 0, keep)
    assert b"\nround,table_kind," in csv and seen == [compacthash.CompactTable, compacthash.TombstoneTable]
    assert cli.probe_stats is inner

    def refuse(real, table):
        raise RuntimeError("hook")

    with pytest.raises(RuntimeError, match="hook"):
        perf._bench(compacthash, 0, refuse)
    assert cli.probe_stats is inner
    with pytest.raises(SystemExit, match="bench failed"):
        perf._bench(compacthash, -1, keep)  # a usage error: the bench exits 2
    assert cli.probe_stats is inner


def test_churn_phase_calls_keep_the_live_count_and_equal_sides_in_step(perf, monkeypatch):
    monkeypatch.setattr(perf, "LIVE_KEYS", 64)
    monkeypatch.setattr(perf, "PHASE_KEYS", 32)
    (live, call), (other, other_call) = perf._churn_phase(compacthash), perf._churn_phase(compacthash)
    before = list(live.keys)
    call()
    other_call()
    assert len(live.keys) == len(set(live.keys)) == 64 and live.keys == other.keys != before
