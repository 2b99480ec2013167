import gc
import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_splitmix
from reference_differential import reference_differential
from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, Divergence, EmptyKeyUniverseError,
                         InvariantFailure, SplitMix64, TableFullError, TableParams, TombstoneTable,
                         TraceParseError, Verdict, ViolationReport, WorkloadSpec, format_trace,
                         generate_workload, parse_trace, run_differential)
from compacthash.harness import TABLE_FULL, LiveKeys, _draws
from compacthash.probing import KEY_MIN

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


def unmix(u: int) -> int:
    """The counter that splitmix64's finalizer maps to u.

    The multipliers are odd, so each has an inverse mod 2**64, and at the
    finalizer's shifts (s >= 22) z ^= z >> s is undone by
    z ^= z >> s ^ z >> 2s: the shift repeated until it passes 64 bits.
    """
    z = u
    z ^= z >> 31 ^ z >> 62
    z = z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z ^= z >> 27 ^ z >> 54
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    z ^= z >> 30 ^ z >> 60
    return z


def seed_with_draw(u: int, i: int) -> int:
    """The seed whose draw i (counting from 0) is u, found by inverting the mix."""
    return (unmix(u) - (i + 1) * GAMMA) % 2**64


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_each_draw_unmixes_to_its_own_counter(seed):
    # draw i is the finalizer of seed + (i + 1) * gamma, and the finalizer
    # has an inverse, so it is a bijection; gamma is odd, so the counters of
    # 2**64 draws differ, and one stream repeats no value within 2**64
    # draws: the freshness LiveKeys.add_fresh rests on. Draws 4090-4101
    # cross the end of the first 4,096-draw block.
    got = _draws(seed, 4090, 12).tolist()
    assert [unmix(u) for u in got] == [(seed + (i + 1) * GAMMA) % 2**64 for i in range(4090, 4102)]


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
    "all remove": WorkloadSpec(4, 500, (0, 64), mix=(0, 0, 1)),
    "all lookup": WorkloadSpec(8, 500, (0, 64), mix=(0, 1, 0)),  # one threshold below 2**64
    "full signed range": WorkloadSpec(5, 500, (-(2**63), 2**63)),
    "largest span taken modulo": WorkloadSpec(10, 500, (-5, 2**64 - 6)),
    "one key": WorkloadSpec(11, 500, (7, 8)),
    "keys above int64": WorkloadSpec(6, 500, (2**63, 2**65)),
    "keys below int64": WorkloadSpec(7, 500, (-(2**70), -(2**70) + 1000)),
    "base phase filling one draw block": WorkloadSpec(12, 2048, (0, 1000)),
    "base phase across draw blocks": WorkloadSpec(9, 4097, (0, 1000)),
    "one op": WorkloadSpec(8, 1, (0, 10)),
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
                     st.tuples(weights, weights, weights).filter(lambda m: sum(m) > 0)))
def test_generate_workload_matches_scalar_reference_property(seed, op_count, lo, span, mix):
    spec = WorkloadSpec(seed, op_count, (lo, lo + span), mix)
    assert generated(spec) == scalar_generated(spec)


class TestGenerateWorkload:
    def test_same_spec_same_sequence(self):
        spec = WorkloadSpec(seed=9, op_count=500, key_universe=(0, 64))
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

    @pytest.mark.parametrize("op_count", [0, -1])
    def test_rejects_an_op_count_below_one(self, op_count):
        with pytest.raises(ValueError, match=rf"^op_count must be positive, got {op_count}$"):
            generate_workload(WorkloadSpec(seed=0, op_count=op_count, key_universe=(0, 10)))


MIX = (0.45, 0.35, 0.20)
LARGE_SPEC = WorkloadSpec(0, 70_000, (0, 131072), MIX)
RAISING_SPEC = WorkloadSpec(0, 10, (0, 0), MIX)  # an empty universe


class OneKeyLiveKeys:
    """The live keys as a list and a key -> position dict, taken one key and one draw at a time.

    The reference that LiveKeys' batched calls must match: removal moves
    the last key into the freed position, and a fresh key is the first
    KEY_MIN + draw that is not live at its turn. LiveKeys looks no key up,
    so the two agree only while no drawn key is ever live.
    """

    def __init__(self, seed: int):
        self.keys = []
        self.position = {}
        self.next_u64 = SplitMix64(seed).next_u64

    def pick(self, n: int) -> list[int]:
        picked = []
        for _ in range(n):
            key = self.keys[self.next_u64() % len(self.keys)]
            at, last = self.position.pop(key), self.keys.pop()
            if last != key:
                self.keys[at] = last
                self.position[last] = at
            picked.append(key)
        return picked

    def add_fresh(self, n: int) -> list[int]:
        fresh = []
        for _ in range(n):
            while (key := KEY_MIN + self.next_u64()) in self.position:
                pass
            self.position[key] = len(self.keys)
            self.keys.append(key)
            fresh.append(key)
        return fresh


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       calls=st.lists(st.tuples(st.sampled_from(["pick", "add_fresh"]), st.integers(0, 11)), max_size=8))
# n = 0, every live key picked, one more than is live
@example(seed=0, calls=[("pick", 0), ("add_fresh", 0), ("add_fresh", 3), ("pick", 2), ("pick", 1), ("pick", 1)])
# calls that cross the 4,096-draw blocks of the stream
@example(seed=2, calls=[("add_fresh", 5000), ("pick", 4999), ("add_fresh", 4097)])
def test_batched_live_keys_match_one_key_calls(seed, calls):
    live, ref = LiveKeys(seed), OneKeyLiveKeys(seed)
    for kind, n in calls:
        if kind == "pick":
            if n > len(ref.keys):
                with pytest.raises(ValueError, match=rf"^cannot pick {n} of {len(ref.keys)} live keys$"):
                    live.pick(n)
            else:
                assert live.pick(n) == ref.pick(n)
        else:
            assert live.add_fresh(n) == ref.add_fresh(n)
        assert live.keys == ref.keys
        assert live.next_u64() == ref.next_u64()


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
            ops = generate_workload(LARGE_SPEC)
        finally:
            gc.callbacks.remove(hook)
        assert gc.isenabled() is enabled
        assert bool(started) is enabled
        assert len(ops) == 70_000
        assert all(type(op) is tuple and len(op) == 2 and type(op[0]) is str and type(op[1]) is int
                   for op in ops)
        gc.collect()
        assert not any(map(gc.is_tracked, ops))

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_callers_collector_state_comes_back_after_a_raise(self, collector_enabled, enabled):
        if not enabled:
            gc.disable()
        with pytest.raises(EmptyKeyUniverseError):
            generate_workload(RAISING_SPEC)
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
        assert verdict.tombstone_saturated_at is None
        assert "tombstone_saturated_at" not in verdict.to_json_dict()

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

    def test_table_full_is_a_divergence_not_a_crash(self, monkeypatch):
        # a TableFull below the cap is a wrong answer, recorded as one
        insert_counted = CompactTable.insert_counted

        def refusing_insert(self, key):
            if key == 1:
                raise TableFullError("refused early")
            return insert_counted(self, key)

        monkeypatch.setattr(CompactTable, "insert_counted", refusing_insert)
        verdict = run_differential([(ADD, 0), (ADD, 1), (ADD, 2)], TableParams(3, 1))
        assert not verdict.passed
        d = verdict.first_divergence
        assert d.op_index == 1
        assert d.compact_result == TABLE_FULL
        assert d.tombstone_result is True
        assert d.oracle_result is True

    def test_table_full_at_the_cap_is_the_oracles_answer(self):
        # the third add would leave no empty slot, so all three answer
        # TableFull; the saturated tombstone table then refuses an add
        # the compact table takes, and only the compact table is compared
        ops = [(ADD, 0), (ADD, 1), (ADD, 2), (REMOVE, 0), (ADD, 2), (CONTAINS, 2)]
        verdict = run_differential(ops, TableParams(3, 1))
        assert verdict.passed
        assert verdict.tombstone_saturated_at == 2
        assert verdict.to_json_dict()["tombstone_saturated_at"] == 2

    def test_tombstone_table_full_where_compact_has_room(self):
        # the removed key's tombstone still counts against the tombstone
        # table's FREE-slot budget; the compact table freed its slot
        verdict = run_differential(ONE_SIDED_TABLE_FULL, TableParams(4, 1))
        assert verdict.passed
        assert verdict.tombstone_saturated_at == 4

    def test_tombstone_table_full_below_its_cap_is_a_divergence(self, monkeypatch):
        insert = TombstoneTable.insert

        def refusing_insert(self, key):
            if key == 2:
                raise TableFullError("refused early")
            return insert(self, key)

        monkeypatch.setattr(TombstoneTable, "insert", refusing_insert)
        verdict = run_differential(ONE_SIDED_TABLE_FULL, TableParams(4, 1))
        d = verdict.first_divergence
        assert d.op_index == 3 and d.op == (ADD, 2)
        assert (d.compact_result, d.tombstone_result, d.oracle_result) == (True, TABLE_FULL, True)
        assert verdict.tombstone_saturated_at is None

    def test_deterministic_replay(self):
        spec = WorkloadSpec(seed=11, op_count=2000, key_universe=(0, 80))
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

    def test_compact_ops_run_through_their_counted_twins(self, monkeypatch):
        # the tracer times the twins, so the loop must take no other compact path
        cases = [(generate_workload(WorkloadSpec(seed=7, op_count=3000, key_universe=(0, 280))),
                  TableParams(257, 3), 50),
                 (ONE_SIDED_TABLE_FULL, TableParams(4, 1), 1)]
        want = [run_differential(*case) for case in cases]
        assert want[0].passed and want[1].tombstone_saturated_at == 4

        def refuse(self, key):
            raise AssertionError("run_differential called a plain compact op")

        for name in ("insert", "contains", "__contains__", "remove"):
            monkeypatch.setattr(CompactTable, name, refuse)
        assert [run_differential(*case) for case in cases] == want

    def test_rejects_bad_check_every(self):
        # a float would never reach the countdown's 0, and so never check
        for check_every in (0, -1, 1.5, 2.0, "3", None, True):
            with pytest.raises(ValueError, match="check_every must be an int >= 1"):
                run_differential([(ADD, 1)], TableParams(7, 1), check_every=check_every)

    def test_unknown_op_kind_raises_with_its_index(self):
        with pytest.raises(ValueError, match=r"^unknown op kind 'pop' at index 1$"):
            run_differential([(ADD, 1), ("pop", 1), (REMOVE, 1)], TableParams(7, 1))


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
@example(case=([(ADD, 0), (ADD, 1), (ADD, 2), (REMOVE, 0), (ADD, 2), (CONTAINS, 2)], TableParams(3, 1), 1))
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
