from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from compacthash import (CapacityTooSmallError, CompactTable, TableFullError,
                         TableParams, check_invariants, probe_stats)
from compacthash.probing import KEY_MAX, KEY_MIN
from twin_ops import outcome, twin_cases


def build(capacity, step=1, keys=(), **kw):
    table = CompactTable(TableParams(capacity, step, **kw))
    for key in keys:
        assert table.insert(key)
    return table


def occupied(table):
    return [(i, key, pc) for i, (key, pc) in enumerate(zip(table._keys, table._probe_counts)) if pc]


class TestConstruction:
    def test_fresh_table_is_empty(self):
        t = build(7)
        assert len(t) == 0
        assert not any(t._probe_counts)

    def test_invalid_params_propagate(self):
        from compacthash import StepNotCoprimeError, ZeroCapacityError
        with pytest.raises(ZeroCapacityError):
            CompactTable(TableParams(0, 1))
        with pytest.raises(StepNotCoprimeError):
            CompactTable(TableParams(8, 2))


class TestInsert:
    def test_first_probe_lands_on_home(self):
        t = build(7)
        assert t.insert(7)
        assert (t._keys[0], t._probe_counts[0]) == (7, 1)

    def test_duplicate_returns_false_and_leaves_state(self):
        t = build(7, keys=[7])
        before = t.state_bytes()
        assert not t.insert(7)
        assert t.state_bytes() == before
        assert len(t) == 1

    def test_collision_walks_to_next_slot(self):
        t = build(7, keys=[7, 14])
        assert occupied(t) == [(0, 7, 1), (1, 14, 2)]

    def test_probe_count_records_placement_probe(self):
        t = build(7, keys=[7, 14, 21])
        assert occupied(t) == [(0, 7, 1), (1, 14, 2), (2, 21, 3)]

    def test_full_table_raises(self):
        t = build(3, keys=[0, 1])
        with pytest.raises(TableFullError):
            t.insert(2)
        # duplicate of a present key at the cap is still just False
        assert not t.insert(0)
        assert len(t) == 2

    def test_negative_and_extreme_keys(self):
        t = build(7)
        lo, hi = -(1 << 63), (1 << 63) - 1
        assert t.insert(lo) and t.insert(hi) and t.insert(-3)
        assert lo in t and hi in t and -3 in t
        assert check_invariants(t).passed


class TestContains:
    def test_empty_table(self):
        assert not build(7).contains(5)

    def test_found_after_probing_past_collisions(self):
        t = build(7, keys=[7, 14])
        assert t.contains(14)

    def test_miss_stops_at_empty_slot(self):
        t = build(7, keys=[7, 14])
        assert not t.contains(21)

    def test_walk_wraps_from_last_slot_to_slot_0(self):
        t = build(7, keys=[6, 13])  # 13 shares home 6 and lands in slot 0
        assert t.contains_counted(13) == (True, 2)
        assert t.contains_counted(20) == (False, 3)  # slots 6, 0, then empty 1


class TestRemove:
    def test_missing_key(self):
        assert not build(7).remove(9)

    def test_chain_slides_back_after_removal(self):
        t = build(7, keys=[7, 14, 21])
        assert t.remove(7)
        assert occupied(t) == [(0, 14, 1), (1, 21, 2)]
        assert t.contains(14) and t.contains(21) and not t.contains(7)

    def test_entries_at_offset_equal_to_probe_count_stay(self):
        # 1 and 8 sit exactly where their probe counts say; neither may move
        t = build(7, keys=[0, 1, 8])
        assert occupied(t) == [(0, 0, 1), (1, 1, 1), (2, 8, 2)]
        assert t.remove(0)
        assert occupied(t) == [(1, 1, 1), (2, 8, 2)]

    def test_removing_each_key_keeps_the_rest(self):
        keys = [7, 14, 21, 3, 10, 1]
        for victim in keys:
            t = build(7, keys=keys)
            assert t.remove(victim)
            assert sorted(t.keys()) == sorted(k for k in keys if k != victim)
            assert check_invariants(t).passed


class TestCompress:
    # compaction runs inside remove, on the slot the removed key freed;
    # remove_counted reports (removed, find, scanned, relocations)

    def test_no_move_when_probe_count_equals_offset(self):
        t = build(7, keys=[0, 1])
        assert t.remove_counted(0) == (True, 1, 2, 0)
        assert t.state_bytes() == build(7, keys=[1]).state_bytes()

    def test_terminates_immediately_on_empty_neighbor(self):
        t = build(7, keys=[3])
        assert t.remove_counted(3) == (True, 1, 1, 0)
        assert occupied(t) == []

    def test_scan_steps_by_probe_step(self):
        # step 3: chain 0 -> 3 -> 6 slides back by one probe each
        t = build(7, step=3, keys=[7, 14, 21])
        assert occupied(t) == [(0, 7, 1), (3, 14, 2), (6, 21, 3)]
        assert t.remove(7)
        assert occupied(t) == [(0, 14, 1), (3, 21, 2)]
        assert check_invariants(t).passed


class TestRehash:
    def test_no_collision_rebuild(self):
        t = build(7, keys=[7, 14, 21])
        r = t.rehash(TableParams(13, 1))
        assert occupied(r) == [(1, 14, 1), (7, 7, 1), (8, 21, 1)]

    def test_empty_table(self):
        r = build(7, keys=[]).rehash(TableParams(5, 2))
        assert len(r) == 0 and r.capacity == 5

    def test_capacity_too_small(self):
        t = build(11, keys=[1, 2, 3, 4, 5])
        with pytest.raises(CapacityTooSmallError):
            t.rehash(TableParams(5, 1))
        t.rehash(TableParams(6, 1))  # live + 1 fits

    def test_rehash_honors_requested_capacity_despite_growth_policy(self):
        t = build(11, growth_enabled=True, keys=list(range(8)))
        r = t.rehash(TableParams(9, 1, growth_enabled=True))
        assert r.capacity == 9  # growth must not fire during the rebuild
        assert sorted(r.keys()) == list(range(8))
        assert r.params == TableParams(9, 1, growth_enabled=True)
        r.insert(8)  # (8 + 1) / 9 > 0.7: the rebuilt table grows again
        assert r.capacity == 18 and sorted(r.keys()) == list(range(9))


class TestGrowth:
    def test_grows_past_load_factor(self):
        t = build(5, growth_enabled=True, keys=[0, 1, 2])
        assert t.capacity == 5
        t.insert(3)  # (3+1)/5 > 0.7 triggers doubling first
        assert t.capacity == 10
        assert sorted(t.keys()) == [0, 1, 2, 3]
        assert check_invariants(t).passed

    def test_growth_skips_capacities_sharing_a_factor_with_step(self):
        t = build(5, step=2, growth_enabled=True, keys=[0, 1, 2])
        t.insert(3)
        assert t.capacity == 11  # 10 shares gcd 2 with the step

    def test_disabled_by_default(self):
        t = build(5, keys=[0, 1, 2, 3])
        assert t.capacity == 5


class TestCapacityOne:
    def test_holds_nothing_but_terminates(self):
        for step in (1, 5):  # capacity 1 admits a step >= capacity
            t = build(1, step=step)
            assert t.contains_counted(5) == (False, 1)
            assert t.remove_counted(5) == (False, 1, 0, 0)
            with pytest.raises(TableFullError):
                t.insert(5)
            assert len(t) == 0
            assert t.state_bytes() == build(1).state_bytes()


class TestAccessors:
    def test_empty(self):
        t = build(7)
        assert len(t) == 0 and len(t) / t.capacity == 0 and list(t.keys()) == []

    def test_populated(self):
        t = build(7, keys=[7, 14, 21])
        assert len(t) == 3
        assert len(t) / t.capacity == pytest.approx(3 / 7)
        assert list(t.keys()) == [7, 14, 21]

    def test_after_remove(self):
        t = build(7, keys=[7, 14, 21])
        t.remove(7)
        assert len(t) == 2 and list(t.keys()) == [14, 21]


def test_identical_op_sequences_give_identical_bytes():
    ops = [("a", 5), ("a", 12), ("a", 19), ("r", 12), ("a", 3), ("c", 19), ("r", 5)]
    results = []
    for _ in range(2):
        t = build(7)
        out = []
        for kind, key in ops:
            out.append({"a": t.insert, "c": t.contains, "r": t.remove}[kind](key))
        results.append((out, t.state_bytes()))
    assert results[0] == results[1]


def test_removing_everything_restores_fresh_state():
    t = build(11, keys=[0, 11, 22, 33, 5, 16])
    for key in [22, 0, 16, 33, 5, 11]:
        assert t.remove(key)
    assert t.state_bytes() == build(11).state_bytes()


# Property tests: compare against a plain set on op sequences that cannot
# fill the table (universe smaller than the occupancy cap).

ops_strategy = st.lists(
    st.tuples(st.sampled_from("aacr"), st.integers(0, 15)), max_size=120)


@settings(max_examples=200, deadline=None)
@given(ops_strategy, st.sampled_from([(17, 1), (17, 3), (16, 5), (19, 7)]))
def test_matches_set_oracle_and_keeps_invariants(ops, shape):
    capacity, step = shape
    t = CompactTable(TableParams(capacity, step))
    model = set()
    for kind, key in ops:
        if kind == "a":
            expected = key not in model
            model.add(key)
            assert t.insert(key) is expected
        elif kind == "c":
            assert t.contains(key) is (key in model)
        else:
            expected = key in model
            model.discard(key)
            assert t.remove(key) is expected
        report = check_invariants(t)
        assert report.passed, report.violations
    assert sorted(t.keys()) == sorted(model)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(-60, 60), max_size=12), st.randoms(use_true_random=False))
def test_deleting_all_keys_in_any_order_leaves_no_residue(keys, rng):
    t = build(13, keys=sorted(keys))
    order = sorted(keys)
    rng.shuffle(order)
    for key in order:
        assert t.remove(key)
    assert t.state_bytes() == build(13).state_bytes()


@settings(max_examples=80, deadline=None)
@given(ops_strategy)
def test_probe_counts_never_exceed_live_count(ops):
    t = CompactTable(TableParams(17, 1))
    for kind, key in ops:
        if kind == "a":
            t.insert(key)
            # an insertion skips only busy slots, so its probe count is
            # at most the number of live entries once it lands
            assert max(t._probe_counts) <= len(t)
        elif kind == "r":
            t.remove(key)


# Replay identity: after any op sequence the table is byte for byte a
# fresh table of its capacity and step that inserted the live keys in the
# order of their last successful insert, as if no removed key had ever
# been there. A growth rebuilds in ascending slot order, so it resets
# that order to the slot order before the insert that grew the table.

def replay_mismatch(params, ops):
    """Index of the first op after which the table differs from its replay, or None."""
    t = CompactTable(params)
    order = []
    for idx, (kind, key) in enumerate(ops):
        if kind == "r":
            if t.remove(key):
                order.remove(key)
        else:
            before, capacity = list(t.keys()), t.capacity
            try:
                added = t.insert(key)
            except TableFullError:
                added = False
            if t.capacity != capacity:
                order = before
            if added:
                order.append(key)
        replay = CompactTable(TableParams(t.capacity, t.params.step))
        for k in order:
            replay.insert(k)
        if replay.state_bytes() != t.state_bytes():
            return idx
    return None


@st.composite
def replay_cases(draw):
    """Any accepted TableParams at capacities 1-23 (every coprime step, any
    step at capacity 1, growth on and off) and adds and removes of keys
    whose homes collide."""
    capacity = draw(st.integers(1, 23))
    steps = [s for s in range(1, capacity) if gcd(s, capacity) == 1]
    step = draw(st.sampled_from(steps) if steps else st.integers(1, 64))
    params = TableParams(capacity, step, draw(st.booleans()))
    keys = st.integers(-3 * capacity - 3, 3 * capacity + 3)
    return params, draw(st.lists(st.tuples(st.sampled_from("aar"), keys), max_size=60))


@settings(max_examples=300, deadline=None)
@given(replay_cases())
@example((TableParams(7, 1), [("a", 0), ("a", 7), ("a", 14), ("r", 0)]))
@example((TableParams(1, 5, growth_enabled=True), [("a", 3), ("a", 4), ("r", 3), ("a", 5), ("a", 6)]))
def test_state_is_the_replay_of_the_live_keys(case):
    assert replay_mismatch(*case) is None


# The deletion-cost identity. _compress scans from the freed slot to the
# first empty slot after it, relocations included, so removing the key
# k-th from the end of its cluster scans k slots and a cluster of r keys
# scans r(r + 1)/2 in all. A miss from the r homes of a cluster costs
# r + 1, r, ..., 2 and from each of the m - n open homes 1, so m * mean_miss
# = m - n + sum r(r + 3)/2. Since sum r = n, the scans of removing each
# live key sum to exactly m * (mean_miss - 1), at every load.

def _copy(t):
    """A table of t's capacity and step, growth off, in t's state."""
    c = CompactTable(TableParams(t.capacity, t.params.step))
    c._probe_counts[:] = t._probe_counts
    c._keys[:] = t._keys
    c._live = len(t)
    return c


@settings(max_examples=300, deadline=None)
@given(replay_cases())
@example((TableParams(7, 1), [("a", 0), ("a", 7), ("a", 1), ("a", 14), ("a", 3)]))
def test_compress_scans_sum_to_the_miss_cost_identity(case):
    params, ops = case
    t = CompactTable(params)
    for kind, key in ops:
        if kind == "r":
            t.remove(key)
            continue
        try:
            t.insert(key)
        except TableFullError:
            pass
    m = t.capacity
    mean_miss = probe_stats(t).mean_miss
    scans = sum(_copy(t).remove_counted(key)[2] for key in t.keys())
    assert scans == pytest.approx(m * (mean_miss - 1), abs=1e-9)
    if len(t) < m - 1:  # an absent key's insert costs its miss, on average mean_miss
        absent = [home - 1000 * m for home in range(m)]  # below every drawn key
        inserts = sum(_copy(t).insert_counted(key)[1] for key in absent)
        assert inserts == pytest.approx(m * mean_miss, abs=1e-9)


def compress_past_first_eligible(self, free):
    """_compress, except that it leaves the first entry it could pull back."""
    m, step, pc, keys = self._capacity, self._step, self._probe_counts, self._keys
    i = (free + step) % m
    off = 1
    skip = True
    while pc[i]:
        if pc[i] > off:
            if skip:
                skip = False
            else:
                keys[free], pc[free] = keys[i], pc[i] - off
                keys[i] = pc[i] = 0
                free, off = i, 0
        i = (i + step) % m
        off += 1
    return 0, 0


def test_replay_identity_catches_a_valid_but_noncanonical_compress(monkeypatch):
    # pulling 14 home past 7 leaves both keys reachable, so the checker
    # passes; only the replay sees that the state is not canonical
    monkeypatch.setattr(CompactTable, "_compress", compress_past_first_eligible)
    t = build(7, keys=[0, 7, 14])
    t.remove(0)
    assert occupied(t) == [(0, 14, 1), (1, 7, 2)]
    assert check_invariants(t).passed
    assert replay_mismatch(TableParams(7, 1), [("a", 0), ("a", 7), ("a", 14), ("r", 0)]) == 3


@settings(max_examples=300, deadline=None)
@given(twin_cases())
@example((TableParams(3, 1), [("insert", 1), ("in", 1.0), ("remove", 1.0), ("insert", 1.0), ("contains", 4),
                              ("insert", 4), ("insert", 7), ("remove", 1), ("insert", 7), ("insert", KEY_MAX + 1)]))
@example((TableParams(1, 5, growth_enabled=True), [("insert", 3), ("insert", 4), ("remove", 3), ("insert", 5),
                                                   ("insert", KEY_MIN), ("contains", KEY_MAX)]))
@example((TableParams(10, 1, growth_enabled=True), [("insert", k) for k in range(7)] + [("insert", 3), ("in", 3)]))
def test_plain_ops_match_their_counted_twins(case):
    # one table takes the plain ops, the other their counted twins: equal
    # answers of equal types, equal exceptions and equal tables after every
    # op, and a key the twin adds sits in its slot with the count returned
    params, ops = case
    plain, counted = CompactTable(params), CompactTable(params)
    for op, key in ops:
        twin = getattr(counted, ("contains" if op == "in" else op) + "_counted")
        got = outcome(twin, key)
        answer = got[0] if type(got[0]) is bool else got
        plain_answer = outcome(plain.__contains__ if op == "in" else getattr(plain, op), key)
        assert (type(plain_answer), plain_answer) == (type(answer), answer)
        if op == "insert" and answer is True:
            assert (key, got[1]) in zip(counted._keys, counted._probe_counts)
        assert plain.state_bytes() == counted.state_bytes()
        assert len(plain) == len(counted)
        assert plain.capacity == counted.capacity


def test_twins_survive_public_ops_that_call_them(monkeypatch):
    # a tracer may replace each public op with a call of its counted twin;
    # the twins, and the rebuild of a growing insert, must still reach the
    # plain bodies
    for op in ("insert", "contains", "remove"):
        twin = getattr(CompactTable, op + "_counted")
        monkeypatch.setattr(CompactTable, op, lambda self, key, twin=twin: twin(self, key)[0])
    t = CompactTable(TableParams(7, 3, growth_enabled=True))
    assert t.insert(0) and t.insert(7) and t.contains(7) and 7 in t
    assert t.insert_counted(14) == (True, 3)
    assert t.remove_counted(0) == (True, 1, 3, 2)  # 7 and 14 each move back one slot on the path
    assert t.contains_counted(14) == (True, 2)
    assert t.insert(1) and t.insert(2)
    assert t.insert_counted(8) == (True, 1) and t.capacity == 14  # the fifth key grows the table
    assert sorted(t.keys()) == [1, 2, 7, 8, 14]
    assert t.remove(8) and not t.contains(8) and not t.insert(7)
    assert t.remove_counted(8) == (False, 1, 0, 0)
    assert check_invariants(t).passed
