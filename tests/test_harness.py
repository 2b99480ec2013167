import gc
import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_splitmix
from reference_differential import reference_differential
from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, Divergence, EmptyKeyUniverseError,
                         InvariantFailure, SplitMix64, TableParams, TombstoneTable,
                         TraceParseError, Verdict, ViolationReport, WorkloadSpec, format_trace,
                         generate_workload, parse_trace, run_differential)
from compacthash.harness import LiveKeys

GAMMA = 0x9E3779B97F4A7C15


def scalar_draws(seed: int, n: int) -> list[int]:
    next_u64 = scalar_splitmix.ScalarSplitMix64(seed).next_u64
    return [next_u64() for _ in range(n)]


def draws(seed: int, n: int) -> list[int]:
    next_u64 = SplitMix64(seed).next_u64
    return [next_u64() for _ in range(n)]


def generated(spec: WorkloadSpec):
    """generate_workload(spec), or the message of the EmptyKeyUniverseError it raised."""
    try:
        ops = generate_workload(spec)
    except EmptyKeyUniverseError as e:
        return str(e)
    assert all(type(op) is tuple and len(op) == 2 for op in ops)
    return ops


def scalar_generated(spec: WorkloadSpec):
    try:
        return scalar_splitmix.generate_workload(spec)
    except EmptyKeyUniverseError as e:
        return str(e)


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
    def test_matches_scalar_stream_across_block_boundaries(self, seed):
        # 8193 draws span draws 4095-4097 and 8191-8193, where blocks end
        got = draws(seed, 8193)
        assert got == scalar_draws(seed, 8193)
        assert all(type(u) is int for u in got)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1 + 2**70, -(2**63)])
    def test_seed_is_taken_modulo_2_64(self, seed):
        assert draws(seed, 5) == scalar_draws(seed, 5) == draws(seed % 2**64, 5)

    @pytest.mark.parametrize("skip", [1, 4095, 4096, 10_000])
    def test_reseeding_at_seed_plus_i_gamma_continues_the_stream(self, skip):
        assert draws(2**64 - 1 + skip * GAMMA, 5) == scalar_draws(2**64 - 1, skip + 5)[skip:]


def seed_with_draw(u: int, i: int) -> int:
    """The seed whose draw i (counting from 0) is u, found by inverting the mix."""
    z = u
    z ^= z >> 31 ^ z >> 62
    z = z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z ^= z >> 27 ^ z >> 54
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    z ^= z >> 30 ^ z >> 60
    return (z - (i + 1) * GAMMA) % 2**64


def test_largest_draw_is_below_a_threshold_of_2_64_and_keeps_its_full_offset():
    top = 2**64 - 1
    seed = seed_with_draw(top, 0)  # op 0's kind draw
    assert scalar_draws(seed, 1) == [top]
    spec = WorkloadSpec(seed, 3, (0, 10), mix=(1, 0, 0))
    assert generated(spec) == scalar_generated(spec)
    assert generated(spec)[0][0] == ADD

    seed = seed_with_draw(top, 1)  # op 0's key draw
    spec = WorkloadSpec(seed, 3, (-(2**63), 2**63))
    assert generated(spec) == scalar_generated(spec)
    assert generated(spec)[0][1] == 2**63 - 1


REFERENCE_SPECS = {
    "seed 2**64 - 1": WorkloadSpec(2**64 - 1, 500, (0, 64)),
    "all add": WorkloadSpec(3, 500, (0, 64), mix=(1, 0, 0)),
    "all add with churn": WorkloadSpec(3, 500, (0, 600), mix=(1, 0, 0), churn_rounds=5, churn_batch=7),
    "all remove": WorkloadSpec(4, 500, (0, 64), mix=(0, 0, 1)),
    "all remove with churn": WorkloadSpec(4, 500, (0, 64), mix=(0, 0, 1), churn_rounds=3, churn_batch=2),
    "full signed range": WorkloadSpec(5, 500, (-(2**63), 2**63)),
    "full signed range with churn": WorkloadSpec(5, 500, (-(2**63), 2**63), churn_rounds=4, churn_batch=9),
    "keys above int64": WorkloadSpec(6, 500, (2**63, 2**65)),
    "keys below int64": WorkloadSpec(7, 500, (-(2**70), -(2**70) + 1000), churn_rounds=2, churn_batch=5),
    "base phase across draw blocks": WorkloadSpec(9, 4097, (0, 1000), churn_rounds=2, churn_batch=3),
    "one op": WorkloadSpec(8, 1, (0, 10)),
    "one op with churn": WorkloadSpec(8, 1, (0, 10), mix=(0, 1, 0), churn_rounds=2, churn_batch=3),
}


@pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS.keys())
def test_generate_workload_matches_scalar_reference(spec):
    assert generated(spec) == scalar_splitmix.generate_workload(spec)


weights = st.one_of(st.integers(0, 5), st.floats(0, 10, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       op_count=st.one_of(st.integers(1, 300), st.sampled_from([2047, 2048, 2049])),
       lo=st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70), st.just(-(2**63))),
       span=st.one_of(st.integers(1, 500), st.integers(1, 2**66),
                      st.sampled_from([2**63, 2**64 - 1, 2**64, 2**64 + 1])),
       mix=st.one_of(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0.1, 0.2, 0)]),
                     st.tuples(weights, weights, weights).filter(lambda m: sum(m) > 0)),
       churn_rounds=st.sampled_from([0, 0, 1, 4]),
       churn_batch=st.integers(1, 8))
def test_generate_workload_matches_scalar_reference_property(seed, op_count, lo, span, mix,
                                                             churn_rounds, churn_batch):
    spec = WorkloadSpec(seed, op_count, (lo, lo + span), mix, churn_rounds, churn_batch)
    assert generated(spec) == scalar_generated(spec)


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
        assert all(kind == ADD for kind, _ in ops)

    def test_keys_stay_in_universe(self):
        ops = generate_workload(WorkloadSpec(seed=4, op_count=300, key_universe=(-20, -3)))
        assert all(-20 <= key < -3 for _, key in ops)

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
            assert [kind for kind, _ in ops[base:base + 6]] == [REMOVE] * 6
            assert [kind for kind, _ in ops[base + 6:base + 12]] == [ADD] * 6

    def test_churn_removes_hit_live_keys_and_adds_are_fresh(self):
        spec = WorkloadSpec(seed=6, op_count=60, key_universe=(0, 500),
                            mix=(1, 0, 0), churn_rounds=4, churn_batch=8)
        live = set()
        for i, (kind, key) in enumerate(generate_workload(spec)):
            if kind == ADD:
                hit = key not in live
                live.add(key)
            else:
                assert kind == REMOVE  # the mix draws no lookups
                hit = key in live
                live.discard(key)
            if i >= 60:
                assert hit, f"churn op {i} missed: {(kind, key)}"


MIX = (0.45, 0.35, 0.20)
LARGE_CHURN_SPEC = WorkloadSpec(0, 50_000, (0, 131072), MIX, churn_rounds=20, churn_batch=500)
# two keys, both live after the base phase, so the churn replay runs out of fresh keys
RAISING_CHURN_SPEC = WorkloadSpec(0, 10, (0, 2), (1, 0, 0), churn_rounds=1, churn_batch=5)


def one_key_picks(live: LiveKeys, next_u64, n: int) -> list[int]:
    """n picks one key at a time: each the key at next_u64() % len(keys), then discarded."""
    picked = []
    for _ in range(n):
        key = live.keys[next_u64() % len(live.keys)]
        live.discard(key)
        picked.append(key)
    return picked


def one_key_fresh(live: LiveKeys, next_u64, lo: int, span: int, n: int) -> list[int]:
    """n fresh keys one at a time, each giving up after 4,096 draws of live keys."""
    fresh = []
    for _ in range(n):
        for _ in range(4096):
            key = lo + next_u64() % span
            if key not in live.index:
                break
        else:
            raise EmptyKeyUniverseError(
                f"could not draw a fresh key from [{lo}, {lo + span}) with {len(live.keys)} keys live")
        live.add(key)
        fresh.append(key)
    return fresh


def outcome(call, *args):
    try:
        return call(*args)
    except EmptyKeyUniverseError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), lo=st.integers(-20, 20), span=st.integers(1, 10),
       start=st.lists(st.integers(0, 9), max_size=10),
       calls=st.lists(st.tuples(st.sampled_from(["pick", "add_fresh"]), st.integers(0, 11)), max_size=8))
# n = 0, every live key picked, then fresh keys until the universe is full
@example(seed=0, lo=0, span=3, start=[0, 2],
         calls=[("pick", 0), ("add_fresh", 0), ("pick", 2), ("add_fresh", 3), ("add_fresh", 1), ("pick", 3)])
def test_batched_live_keys_match_one_key_calls(seed, lo, span, start, calls):
    live, ref = LiveKeys(), LiveKeys()
    for offset in start:
        live.add(lo + offset % span)
        ref.add(lo + offset % span)
    draw, ref_draw = SplitMix64(seed).next_u64, SplitMix64(seed).next_u64
    for kind, n in calls:
        if kind == "pick":
            n = min(n, len(ref.keys))
            assert live.pick(draw, n) == one_key_picks(ref, ref_draw, n)
        else:
            assert outcome(live.add_fresh, draw, lo, span, n) == outcome(one_key_fresh, ref, ref_draw, lo, span, n)
        assert live.keys == ref.keys and live.index == ref.index
    assert draw() == ref_draw()


def test_add_fresh_from_a_full_universe_raises_after_adding_the_keys_before():
    live = LiveKeys()
    live.add(5)
    draw = SplitMix64(1).next_u64
    with pytest.raises(EmptyKeyUniverseError, match=r"^could not draw a fresh key from \[4, 7\) with 3 keys live$"):
        live.add_fresh(draw, 4, 3, 3)
    assert sorted(live.keys) == [4, 5, 6]


@pytest.fixture
def collector_enabled():
    """Run the test with the cyclic collector enabled; restore its state after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorLeftAlone:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_records_are_exact_tuples_that_a_collection_untracks(self, collector_enabled, enabled):
        # an exact tuple of a str and an int leaves the collector's lists at
        # its first collection, so the build needs no pause: an enabled
        # collector runs during it, a disabled one stays off
        if not enabled:
            gc.disable()
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            ops = generate_workload(LARGE_CHURN_SPEC)
        finally:
            gc.callbacks.remove(hook)
        assert gc.isenabled() is enabled
        assert bool(started) is enabled
        assert len(ops) == 50_000 + 20 * 2 * 500
        assert all(type(op) is tuple and len(op) == 2 and type(op[0]) is str and type(op[1]) is int
                   for op in ops)
        gc.collect()
        assert not any(map(gc.is_tracked, ops))

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_callers_collector_state_comes_back_after_a_raise(self, collector_enabled, enabled):
        if not enabled:
            gc.disable()
        with pytest.raises(EmptyKeyUniverseError):
            generate_workload(RAISING_CHURN_SPEC)
        assert gc.isenabled() is enabled


# at TableParams(4, 1) the last add fills the compact table to its cap
# while the tombstone table, one FREE slot short, refuses it
ONE_SIDED_TABLE_FULL = [(ADD, 0), (ADD, 1), (REMOVE, 0), (ADD, 2), (ADD, 3)]


def test_verdict_passed_is_derived_from_its_findings():
    divergence = Divergence(0, (ADD, 1), "TableFull", True, True)
    failure = InvariantFailure(0, "compact", ViolationReport())
    assert Verdict().passed
    assert not Verdict(divergence).passed
    assert not Verdict(None, [failure]).passed
    with pytest.raises(TypeError):
        Verdict(passed=True)


class TestRunDifferential:
    def test_correct_tables_pass(self):
        # universe wider than capacity, so probe chains actually form
        ops = generate_workload(WorkloadSpec(seed=7, op_count=3000, key_universe=(0, 280)))
        verdict = run_differential(ops, TableParams(257, 1), check_every=50)
        assert verdict.passed
        assert verdict.first_divergence is None
        assert verdict.invariant_failures == []

    def test_contains_only_workload(self):
        ops = [(CONTAINS, k) for k in range(20)]
        verdict = run_differential(ops, TableParams(31, 1))
        assert verdict.passed
        assert verdict.invariant_failures == []

    def test_disabled_compression_is_caught(self, monkeypatch):
        # a remove that skips compaction breaks the probe chain through its slot
        monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
        ops = [(ADD, 7), (ADD, 14), (REMOVE, 7), (CONTAINS, 14)]
        verdict = run_differential(ops, TableParams(7, 1), check_every=1)
        assert not verdict.passed
        # the displaced key is invisible to the compact table
        d = verdict.first_divergence
        assert d is not None
        assert d.op_index == 3 and d.op == (CONTAINS, 14)
        assert d.compact_result is False
        assert d.tombstone_result is True and d.oracle_result is True
        # and the structural gap was already flagged right after the remove
        assert any(f.op_index == 2 and f.table_kind == "compact"
                   for f in verdict.invariant_failures)

    def test_tombstone_invariant_failure_is_recorded(self, monkeypatch):
        # a remove that miscounts non-FREE slots answers correctly, so only
        # the checker can see it
        remove = TombstoneTable.remove

        def miscounting_remove(self, key):
            result = remove(self, key)
            self._non_free += 1
            return result

        monkeypatch.setattr(TombstoneTable, "remove", miscounting_remove)
        ops = [(ADD, 7), (ADD, 14), (REMOVE, 7), (CONTAINS, 14)]
        verdict = run_differential(ops, TableParams(7, 1), check_every=1)
        assert not verdict.passed
        assert verdict.first_divergence is None
        assert [(f.op_index, f.table_kind) for f in verdict.invariant_failures] == [
            (2, "tombstone"), (3, "tombstone")]

    def test_table_full_is_a_divergence_not_a_crash(self):
        ops = [(ADD, 0), (ADD, 1), (ADD, 2)]
        verdict = run_differential(ops, TableParams(3, 1))
        assert not verdict.passed
        d = verdict.first_divergence
        assert d.op_index == 2
        assert d.compact_result == "TableFull"
        assert d.tombstone_result == "TableFull"
        assert d.oracle_result is True

    def test_tombstone_table_full_where_compact_has_room(self):
        # the removed key's tombstone still counts against the tombstone
        # table's FREE-slot budget; the compact table freed its slot
        verdict = run_differential(ONE_SIDED_TABLE_FULL, TableParams(4, 1))
        d = verdict.first_divergence
        assert d.op_index == 4 and d.op == (ADD, 3)
        assert d.compact_result is True
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
        ops = [(ADD, 7), (ADD, 14), (REMOVE, 7), (CONTAINS, 14)]
        verdict = run_differential(ops, TableParams(7, 1))
        payload = json.loads(json.dumps(verdict.to_json_dict()))
        assert payload["passed"] is False
        assert payload["first_divergence"]["op"] == {"kind": "contains", "key": 14}
        assert payload["invariant_failures"][0]["report"]["violations"]

    def test_rejects_bad_check_every(self):
        # a float would never reach the countdown's 0, and so never check
        for check_every in (0, -1, 1.5, 2.0, "3", None, True):
            with pytest.raises(ValueError, match="check_every must be an int >= 1"):
                run_differential([(ADD, 1)], TableParams(7, 1), check_every=check_every)


@st.composite
def differential_cases(draw):
    """Ops, params and check_every for both differential loops.

    Every accepted step at capacities 1-17 (at capacity 1 any step is
    accepted), growth on and off, mixed ops on 15 keys with at most three
    homes, and all-add sequences of distinct keys, which reach TableFull
    when growth is off. With compression off, about a fifth of the
    mixed sequences fail the checker or diverge.
    """
    capacity = draw(st.integers(1, 17))
    steps = [s for s in range(1, capacity) if gcd(s, capacity) == 1] or [1, 2, 5]
    params = TableParams(capacity, draw(st.sampled_from(steps)), draw(st.booleans()))
    if draw(st.booleans()):
        keys = st.sampled_from([home + lap * capacity for lap in range(-2, 3) for home in range(3)])
        ops = draw(st.lists(st.tuples(st.sampled_from([ADD, REMOVE, CONTAINS]), keys),
                            min_size=8, max_size=4 * capacity + 8))
    else:
        keys = st.integers(-2 * capacity - 2, 2 * capacity + 2)
        ops = [(ADD, key) for key in draw(st.lists(keys, min_size=capacity, unique=True))]
    return ops, params, draw(st.integers(1, 5))


def disabled_compress(self, free):
    return 0, 0


@pytest.mark.parametrize("compress", ["on", "off"])
@settings(max_examples=300, deadline=None)
@given(case=differential_cases())
@example(case=([(ADD, 7), (ADD, 14), (REMOVE, 7), (CONTAINS, 14)],
               TableParams(7, 1), 1))
@example(case=([(ADD, 0), (ADD, 1), (ADD, 2)], TableParams(3, 1), 2))
@example(case=(ONE_SIDED_TABLE_FULL, TableParams(4, 1), 1))
def test_run_differential_matches_reference_loop(compress, case):
    ops, params, check_every = case
    with pytest.MonkeyPatch.context() as mp:
        if compress == "off":
            mp.setattr(CompactTable, "_compress", disabled_compress)
        got = run_differential(ops, params, check_every).to_json_dict()
        want = reference_differential(ops, params, check_every).to_json_dict()
    assert got == want


class TestTraceFormat:
    def test_roundtrip(self):
        ops = [(ADD, 7), (CONTAINS, -3), (REMOVE, 7)]
        meta = {"capacity": 7, "step": 1, "seed": 42, "generator": "splitmix64"}
        text = format_trace(ops, meta)
        parsed_ops, parsed_meta = parse_trace(text)
        assert parsed_ops == ops
        assert parsed_meta == {"capacity": "7", "step": "1", "seed": "42", "generator": "splitmix64"}

    def test_format_is_line_oriented(self):
        text = format_trace([(ADD, 7), (REMOVE, 7)], {"capacity": 7})
        assert text == "# capacity=7\na 7\nr 7\n"

    def test_blank_lines_ignored(self):
        ops, _ = parse_trace("\na 5\n\nc 5\n")
        assert ops == [(ADD, 5), (CONTAINS, 5)]

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
def test_trace_roundtrip_property(ops):
    parsed, _ = parse_trace(format_trace(ops))
    assert parsed == ops
