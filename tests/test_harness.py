import json

import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, EmptyKeyUniverseError,
                         OpRecord, TableParams, TraceParseError, WorkloadSpec, format_trace,
                         generate_workload, parse_trace, run_differential)


class TestGenerateWorkload:
    def test_same_spec_same_sequence(self):
        spec = WorkloadSpec(seed=9, op_count=500, key_universe=(0, 64), churn_rounds=3, churn_batch=10)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(seed=1, op_count=200, key_universe=(0, 64)))
        b = generate_workload(WorkloadSpec(seed=2, op_count=200, key_universe=(0, 64)))
        assert a != b

    def test_pure_add_mix(self):
        ops = generate_workload(WorkloadSpec(seed=3, op_count=10, key_universe=(0, 100), mix=(1, 0, 0)))
        assert len(ops) == 10
        assert all(op.kind == ADD for op in ops)

    def test_keys_stay_in_universe(self):
        ops = generate_workload(WorkloadSpec(seed=4, op_count=300, key_universe=(-20, -3)))
        assert all(-20 <= op.key < -3 for op in ops)

    def test_empty_universe(self):
        with pytest.raises(EmptyKeyUniverseError):
            generate_workload(WorkloadSpec(seed=0, op_count=5, key_universe=(10, 10)))

    def test_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            generate_workload(WorkloadSpec(seed=0, op_count=5, key_universe=(0, 10), mix=(0, 0, 0)))
        with pytest.raises(ValueError):
            generate_workload(WorkloadSpec(seed=0, op_count=5, key_universe=(0, 10), mix=(1, -1, 1)))

    def test_churn_appends_remove_then_add_batches(self):
        spec = WorkloadSpec(seed=5, op_count=40, key_universe=(0, 400),
                            mix=(1, 0, 0), churn_rounds=2, churn_batch=6)
        ops = generate_workload(spec)
        assert len(ops) == 40 + 2 * 12
        for r in range(2):
            base = 40 + r * 12
            assert [op.kind for op in ops[base:base + 6]] == [REMOVE] * 6
            assert [op.kind for op in ops[base + 6:base + 12]] == [ADD] * 6

    def test_churn_removes_hit_live_keys_and_adds_are_fresh(self):
        spec = WorkloadSpec(seed=6, op_count=60, key_universe=(0, 500),
                            mix=(1, 0, 0), churn_rounds=4, churn_batch=8)
        live = set()
        for i, op in enumerate(generate_workload(spec)):
            if op.kind == ADD:
                hit = op.key not in live
                live.add(op.key)
            else:
                assert op.kind == REMOVE  # the mix draws no lookups
                hit = op.key in live
                live.discard(op.key)
            if i >= 60:
                assert hit, f"churn op {i} missed: {op}"


class TestRunDifferential:
    def test_correct_tables_pass(self):
        # universe wider than capacity, so probe chains actually form
        ops = generate_workload(WorkloadSpec(seed=7, op_count=3000, key_universe=(0, 280)))
        verdict = run_differential(ops, TableParams(257, 1), check_every=50)
        assert verdict.passed
        assert verdict.first_divergence is None
        assert verdict.invariant_failures == []

    def test_contains_only_workload(self):
        ops = [OpRecord(CONTAINS, k) for k in range(20)]
        verdict = run_differential(ops, TableParams(31, 1))
        assert verdict.passed
        assert verdict.invariant_failures == []

    def test_disabled_compression_is_caught(self, monkeypatch):
        # a remove that skips compaction breaks the probe chain through its slot
        monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
        ops = [OpRecord(ADD, 7), OpRecord(ADD, 14), OpRecord(REMOVE, 7), OpRecord(CONTAINS, 14)]
        verdict = run_differential(ops, TableParams(7, 1), check_every=1)
        assert not verdict.passed
        # the displaced key is invisible to the compact table
        d = verdict.first_divergence
        assert d is not None
        assert d.op_index == 3 and d.op == OpRecord(CONTAINS, 14)
        assert d.compact_result is False
        assert d.tombstone_result is True and d.oracle_result is True
        # and the structural gap was already flagged right after the remove
        assert any(f.op_index == 2 and f.table_kind == "compact"
                   for f in verdict.invariant_failures)

    def test_table_full_is_a_divergence_not_a_crash(self):
        ops = [OpRecord(ADD, 0), OpRecord(ADD, 1), OpRecord(ADD, 2)]
        verdict = run_differential(ops, TableParams(3, 1))
        assert not verdict.passed
        d = verdict.first_divergence
        assert d.op_index == 2
        assert d.compact_result == "TableFull"
        assert d.tombstone_result == "TableFull"
        assert d.oracle_result is True

    def test_deterministic_replay(self):
        spec = WorkloadSpec(seed=11, op_count=2000, key_universe=(0, 80), churn_rounds=2, churn_batch=30)
        ops = generate_workload(spec)
        a = run_differential(ops, TableParams(127, 3), check_every=100)
        b = run_differential(ops, TableParams(127, 3), check_every=100)
        assert a == b

    def test_verdict_json_shape(self, monkeypatch):
        monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
        ops = [OpRecord(ADD, 7), OpRecord(ADD, 14), OpRecord(REMOVE, 7), OpRecord(CONTAINS, 14)]
        verdict = run_differential(ops, TableParams(7, 1))
        payload = json.loads(json.dumps(verdict.to_json_dict()))
        assert payload["passed"] is False
        assert payload["first_divergence"]["op"] == {"kind": "contains", "key": 14}
        assert payload["invariant_failures"][0]["report"]["violations"]

    def test_rejects_bad_check_every(self):
        with pytest.raises(ValueError):
            run_differential([], TableParams(7, 1), check_every=0)


class TestTraceFormat:
    def test_roundtrip(self):
        ops = [OpRecord(ADD, 7), OpRecord(CONTAINS, -3), OpRecord(REMOVE, 7)]
        meta = {"capacity": 7, "step": 1, "seed": 42, "generator": "splitmix64"}
        text = format_trace(ops, meta)
        parsed_ops, parsed_meta = parse_trace(text)
        assert parsed_ops == ops
        assert parsed_meta == {"capacity": "7", "step": "1", "seed": "42", "generator": "splitmix64"}

    def test_format_is_line_oriented(self):
        text = format_trace([OpRecord(ADD, 7), OpRecord(REMOVE, 7)], {"capacity": 7})
        assert text == "# capacity=7\na 7\nr 7\n"

    def test_blank_lines_ignored(self):
        ops, _ = parse_trace("\na 5\n\nc 5\n")
        assert ops == [OpRecord(ADD, 5), OpRecord(CONTAINS, 5)]

    def test_unknown_op_reports_line_number(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_trace("x 5\n")
        with pytest.raises(TraceParseError, match="line 3"):
            parse_trace("a 1\nc 1\nz 9\n")

    def test_bad_key_reports_line_number(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace("a 1\na pony\n")
        with pytest.raises(TraceParseError, match="line 1"):
            parse_trace("a\n")

    def test_key_outside_int64_reports_line_number(self):
        parse_trace(f"a {-(2**63)}\nr {2**63 - 1}\n")  # the extremes themselves are fine
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(f"a 1\na {2**63}\n")
        with pytest.raises(TraceParseError, match="line 1"):
            parse_trace(f"c {-(2**63) - 1}\n")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([ADD, CONTAINS, REMOVE]),
                          st.integers(-(2**63), 2**63 - 1)), max_size=40))
def test_trace_roundtrip_property(pairs):
    ops = [OpRecord(k, key) for k, key in pairs]
    parsed, _ = parse_trace(format_trace(ops))
    assert parsed == ops
