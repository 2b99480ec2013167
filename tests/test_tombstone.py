import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from compacthash import (BUSY, DELETED, FREE, CapacityTooSmallError, TableFullError,
                         TableParams, TombstoneTable, check_invariants)
from compacthash.probing import KEY_MAX, KEY_MIN
from twin_ops import WalkingReference, assert_shortcuts_valid, outcome, twin_cases


def build(capacity, step=1, keys=(), **kw):
    table = TombstoneTable(TableParams(capacity, step, **kw))
    for key in keys:
        assert table.insert(key)
    return table


def test_invalid_params_propagate():
    from compacthash import StepNotCoprimeError, ZeroCapacityError
    with pytest.raises(ZeroCapacityError):
        TombstoneTable(TableParams(0, 1))
    with pytest.raises(StepNotCoprimeError):
        TombstoneTable(TableParams(9, 3))


class TestInsert:
    def test_home_slot(self):
        t = build(7, keys=[7])
        assert (t._keys[0], t._states[0]) == (7, BUSY)

    def test_reuses_tombstone(self):
        t = build(7, keys=[7])
        assert t.remove(7)
        assert t.insert(14)
        assert (t._keys[0], t._states[0]) == (14, BUSY)
        assert t.non_free_count == 1

    def test_duplicate_beyond_tombstone_not_consumed(self):
        # the walk must reach the FREE terminator before reusing slot 0
        t = build(7, keys=[7, 14])
        t.remove(7)
        assert not t.insert(14)
        assert t._states[0] == DELETED
        assert t.non_free_count - len(t) == 1

    def test_full_when_no_free_slot_would_remain(self):
        t = build(3, keys=[0, 3])
        with pytest.raises(TableFullError):
            t.insert(6)
        # a tombstone on the path still accepts the key
        t.remove(3)
        assert t.insert(6)
        assert (t._keys[1], t._states[1]) == (6, BUSY)
        # but a placement that needs the last FREE slot keeps raising
        with pytest.raises(TableFullError):
            t.insert(9)


class TestContains:
    def test_empty(self):
        assert not build(7).contains(3)

    def test_skips_tombstones(self):
        t = build(7, keys=[7, 14])
        t.remove(7)
        assert t.contains(14)

    def test_miss_stops_at_free(self):
        t = build(7, keys=[7, 14])
        t.remove(7)
        assert not t.contains(21)


class TestRemove:
    def test_missing(self):
        assert not build(7).remove(1)

    def test_marks_deleted_without_freeing(self):
        t = build(7, keys=[7])
        assert t.remove(7)
        assert t._states[0] == DELETED
        assert len(t) == 0
        assert t.non_free_count == 1

    def test_mass_deletion_leaves_table_structurally_full(self):
        t = build(2100)
        keys = [i * 2100 for i in range(1000)]
        for key in keys:
            t.insert(key)
        for key in keys:
            assert t.remove(key)
        assert len(t) == 0
        assert t.non_free_count == 1000
        assert t.non_free_count - len(t) == 1000


class TestProbeCost:
    def test_empty_table_costs_one(self):
        assert build(7).contains_counted(3) == (False, 1)

    def test_hit_at_home_costs_one(self):
        assert build(7, keys=[7]).contains_counted(7) == (True, 1)

    def test_deleted_run_must_be_walked(self):
        t = build(2100)
        for i in range(1000):
            t.insert(i * 2100)
        for i in range(1000):
            t.remove(i * 2100)
        assert t.contains_counted(1000 * 2100) == (False, 1001)

    def test_tombstone_counts_in_path(self):
        t = build(7, keys=[7, 14])
        t.remove(7)
        assert t.contains_counted(14) == (True, 2)
        assert t.contains_counted(21) == (False, 3)


class TestGrowthAndRehash:
    def test_rehash_drops_tombstones(self):
        t = build(7, keys=[7, 14, 21])
        t.remove(14)
        r = t.rehash(TableParams(13, 1))
        assert sorted(r.keys()) == [7, 21]
        assert r.non_free_count == 2
        assert r.non_free_count - len(r) == 0

    def test_rehash_capacity_too_small(self):
        t = build(11, keys=[1, 2, 3, 4, 5])
        with pytest.raises(CapacityTooSmallError):
            t.rehash(TableParams(5, 1))

    def test_rehash_honors_requested_capacity_despite_growth_policy(self):
        t = build(11, growth_enabled=True, keys=list(range(8)))
        r = t.rehash(TableParams(9, 1, growth_enabled=True))
        assert r.capacity == 9
        assert sorted(r.keys()) == list(range(8))
        assert r.params == TableParams(9, 1, growth_enabled=True)
        r.insert(8)  # (8 + 1) / 9 > 0.7: the rebuilt table grows again
        assert r.capacity == 18 and sorted(r.keys()) == list(range(9))

    def test_growth_triggered_by_non_free_count(self):
        # tombstones count toward the growth trigger: the table grows on
        # the next insert that takes a FREE slot, though nothing is live
        t = build(8, step=1, growth_enabled=True, keys=[0, 1, 2, 3, 4])
        for key in [0, 1, 2, 3, 4]:
            t.remove(key)
        assert len(t) == 0 and t.non_free_count == 5
        t.insert(5)
        assert t.capacity == 16
        assert t.non_free_count - len(t) == 0  # rehash dropped them
        assert sorted(t.keys()) == [5]
        assert check_invariants(t).passed

    def test_tombstone_reuse_never_grows(self):
        # 40 reuses DELETED slot 0, which leaves the non-FREE count as it was
        t = build(8, step=1, growth_enabled=True, keys=[0, 1, 2, 3, 4])
        for key in [0, 1, 2, 3, 4]:
            t.remove(key)
        assert t.insert(40)
        assert t.capacity == 8 and t.non_free_count == 5
        assert (t._keys[0], t._states[0]) == (40, BUSY)
        assert check_invariants(t).passed


def test_non_free_count_never_decreases_without_rehash():
    t = build(13)
    high_water = 0
    for i, key in enumerate([0, 13, 26, 1, 14]):
        t.insert(key)
        high_water = max(high_water, t.non_free_count)
        if i % 2:
            t.remove(key)
        assert t.non_free_count >= high_water


ops_strategy = st.lists(st.tuples(st.sampled_from("aacr"), st.integers(0, 11)), max_size=100)


@settings(max_examples=200, deadline=None)
@given(ops_strategy, st.sampled_from([(13, 1), (13, 5), (16, 3)]))
def test_matches_walking_reference_exactly(ops, shape):
    capacity, step = shape
    t = TombstoneTable(TableParams(capacity, step))
    ref = WalkingReference(capacity, step)
    for kind, key in ops:
        if kind == "a":
            try:
                expected, ref_n = ref.insert_counted(key)
            except TableFullError:
                with pytest.raises(TableFullError):
                    t.insert_counted(key)
                continue
            got, n = t.insert_counted(key)
            assert got is expected
            assert n == ref_n
        elif kind == "c":
            assert t.contains_counted(key) == ref.contains_counted(key)
        else:
            assert t.remove_counted(key) == ref.remove_counted(key)
        assert t.state_bytes() == ref.state_bytes()
        # every op answers from _slot_of; check_invariants reads its size, not its entries
        assert t._slot_of == {key: i for i, (key, state) in enumerate(zip(t._keys, t._states)) if state == BUSY}
        report = check_invariants(t)
        assert report.passed, report.violations


def test_saturation_transition_matches_reference():
    # drive a step-3 table from empty all the way to a single FREE slot;
    # states and costs must track the literal walk, lookups included: a
    # miss on a saturated table stops on the FREE slot _first_free finds
    from compacthash import SplitMix64

    capacity, step = 1024, 3
    table = TombstoneTable(TableParams(capacity, step))
    ref = WalkingReference(capacity, step)
    rng = SplitMix64(99)
    fresh = SplitMix64(7)  # keys for misses, drawn apart so rng's sequence stays as it was
    live = []
    full_hits = 0
    for round_no in range(64):
        for _ in range(64):
            key = rng.next_u64() - 2**63
            try:
                expected, ref_n = ref.insert_counted(key)
            except TableFullError:
                with pytest.raises(TableFullError):
                    table.insert(key)
                full_hits += 1
                continue
            got, n = table.insert_counted(key)
            assert got is expected
            assert n == ref_n
            if expected:
                live.append(key)
        for key in live[:4] + [fresh.next_u64() - 2**63 for _ in range(4)]:
            assert table.contains_counted(key) == ref.contains_counted(key)
        for _ in range(48):
            if not live:
                break
            key = live.pop(rng.next_u64() % len(live))
            assert table.remove_counted(key) == ref.remove_counted(key)
        assert table.state_bytes() == ref.state_bytes()
        if capacity - table.non_free_count == 1 and full_hits:
            break
    assert table.non_free_count == capacity - 1  # fully saturated
    assert full_hits > 0  # and the cap actually fired on both sides
    assert check_invariants(table).passed


def classical_insert_count(table, key):
    """Slots the classical walk examines for insert(key), from public slot states."""
    m, step = table.capacity, table.params.step
    i, n = key % m, 1
    while True:
        state = table._states[i]
        if state == FREE or (state == BUSY and table._keys[i] == key):
            return n
        i = (i + step) % m
        n += 1


def test_insert_counts_across_growth():
    # churn leaves tombstones before each growth and new ones after it, so
    # placements after a rehash reuse DELETED slots of the rebuilt table
    rng = random.Random(5)
    t = TombstoneTable(TableParams(11, 3, growth_enabled=True))
    live = []
    growths = 0
    reuses = 0  # tombstone reuses since the last growth
    for _ in range(200):
        for _ in range(3):
            key = rng.randrange(-300, 300)
            capacity, tombstones, non_free = t.capacity, t.non_free_count - len(t), t.non_free_count
            expected = classical_insert_count(t, key)
            added, n = t.insert_counted(key)
            if t.capacity != capacity:
                assert tombstones > 0 and (growths == 0 or reuses > 0)
                growths += 1
                reuses = 0
                # the rebuilt table holds no tombstones: the walk to the
                # placed key is the placement walk
                assert t.non_free_count - len(t) == 0
                expected = classical_insert_count(t, key)
            elif added and t.non_free_count == non_free:
                reuses += 1
            assert n == expected
            if added:
                live.append(key)
            report = check_invariants(t)
            assert report.passed, report.violations
        for _ in range(2):
            if live:
                assert t.remove(live.pop(rng.randrange(len(live))))
        if growths >= 3 and reuses > 0:
            break
    assert growths >= 3 and reuses > 0


@settings(max_examples=300, deadline=None)
@given(twin_cases())
@example((TableParams(3, 1), [("insert", 1), ("in", 1.0), ("remove", 1.0), ("insert", 1.0), ("contains", 4),
                              ("insert", 4), ("remove", 1), ("insert", 7), ("insert", KEY_MAX + 1)]))
@example((TableParams(1, 5, growth_enabled=True), [("insert", 3), ("insert", 4), ("remove", 3), ("insert", 5),
                                                   ("insert", KEY_MIN), ("contains", KEY_MAX)]))
@example((TableParams(5, 1, growth_enabled=True), [("insert", 0), ("insert", 1), ("remove", 1), ("insert", 2),
                                                   ("insert", 3)]))  # growth drops one tombstone, the insert takes a slot
def test_plain_ops_match_their_counted_twins(case):
    # one table takes the plain ops, the other their counted twins: equal
    # answers, equal exceptions and equal tables after every op, and each
    # twin's count is the classical walk's
    params, ops = case
    plain, counted = TombstoneTable(params), TombstoneTable(params)
    for op, key in ops:
        expected_n = classical_insert_count(counted, key) if type(key) is int else None
        capacity = counted.capacity
        twin = getattr(counted, ("contains" if op == "in" else op) + "_counted")
        got = outcome(twin, key)
        answer = got[0] if type(got[0]) is bool else got
        plain_answer = outcome(plain.__contains__ if op == "in" else getattr(plain, op), key)
        assert (type(plain_answer), plain_answer) == (type(answer), answer)
        if type(got[0]) is bool:
            if counted.capacity != capacity:  # the insert grew the table, so it walked the rebuilt one
                expected_n = classical_insert_count(counted, key)
            assert got[1] == expected_n
        assert plain.state_bytes() == counted.state_bytes()
        assert len(plain) == len(counted)
        assert plain.non_free_count == counted.non_free_count
        assert plain._slot_of == counted._slot_of
        assert plain._next_free == {}
        assert_shortcuts_valid(counted)


def test_plain_lookups_write_nothing():
    # on a saturated table a miss's path to the FREE slot is long, and
    # only the counted twins make shortcuts along it
    rng = random.Random(3)
    t = TombstoneTable(TableParams(1024, 3))
    keys = rng.sample(range(1 << 40), 1023)
    for key in keys:
        assert t.insert(key)
    for key in keys[16:]:
        assert t.remove(key)
    assert t.non_free_count == t.capacity - 1
    assert t._next_free == {}
    misses = [key + (1 << 40) for key in rng.sample(range(1 << 40), 256)]
    before = t.state_bytes()
    for lookup in (t.contains, lambda key: key in t, t.remove):
        assert not any(map(lookup, misses))
        assert t._next_free == {} and t.state_bytes() == before
    assert not t.contains_counted(misses[0])[0]
    assert t._next_free
    assert_shortcuts_valid(t)


def _saturated_half_live(rng):
    """A 1,024-slot step-3 table with one FREE slot, every second key removed, and its stored keys."""
    t = TombstoneTable(TableParams(1024, 3))
    keys = rng.sample(range(1 << 40), 1023)
    for key in keys:
        assert t.insert(key)
    for key in keys[1::2]:
        assert t.remove(key)
    assert t.non_free_count == t.capacity - 1
    return t, keys[::2]


def test_concurrent_counted_lookups_agree_with_a_serial_run():
    # the counted twins write next-FREE shortcuts on a lookup; threads that
    # look up on one shared table, switching as often as the interpreter
    # lets them, must each get the answer and count of a serial run
    rng = random.Random(11)
    shared, stored = _saturated_half_live(random.Random(5))
    serial, _ = _saturated_half_live(random.Random(5))
    keys = rng.sample(stored, 200) + [key + (1 << 40) for key in rng.sample(range(1 << 40), 256)]
    expected = {key: serial.contains_counted(key) for key in keys}
    orders = [rng.sample(keys, len(keys)) for _ in range(4)]

    def look_up(order, results):
        results.extend((key, shared.contains_counted(key)) for key in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            results = [[] for _ in orders]
            threads = [threading.Thread(target=look_up, args=args) for args in zip(orders, results)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for got in results:
                assert len(got) == len(keys) and all(answer == expected[key] for key, answer in got)
    finally:
        sys.setswitchinterval(interval)
    assert_shortcuts_valid(shared)


def test_twins_survive_public_ops_that_call_them(monkeypatch):
    # a tracer may replace each public op with a call of its counted twin;
    # the twins must still reach the plain bodies
    for op in ("insert", "contains", "remove"):
        twin = getattr(TombstoneTable, op + "_counted")
        monkeypatch.setattr(TombstoneTable, op, lambda self, key, twin=twin: twin(self, key)[0])
    t = TombstoneTable(TableParams(7, 3))
    assert t.insert(3) and t.contains(3) and t.remove(3)
    assert t.contains_counted(3) == (False, 2)
    assert t.insert_counted(10) == (True, 2)  # reuses slot 3; the walk goes on to FREE slot 6
    assert t.remove_counted(10) == (True, 1)
