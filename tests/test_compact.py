import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (CapacityTooSmallError, CompactTable, TableFullError,
                         TableParams, check_invariants)


def build(capacity, step=1, keys=(), **kw):
    table = CompactTable(TableParams(capacity, step, **kw))
    for key in keys:
        assert table.insert(key)
    return table


def slots(table):
    return [table.slot(i) for i in range(table.capacity)]


def occupied(table):
    return [(i, s.key, s.probe_count) for i, s in enumerate(slots(table)) if s.probe_count]


class TestConstruction:
    def test_fresh_table_is_empty(self):
        t = build(7)
        assert len(t) == 0
        assert all(t.slot(i).probe_count == 0 for i in range(7))

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
        assert t.slot(0) == (7, 1)

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

    def test_duplicate_insert_can_trigger_growth(self):
        # the growth check runs before the probe walk, so even a
        # duplicate grows the table; the key set is untouched
        t = build(5, growth_enabled=True, keys=[0, 1, 2])
        assert not t.insert(0)
        assert t.capacity == 10
        assert sorted(t.keys()) == [0, 1, 2]


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
        assert len(t) == 0 and t.load_factor() == 0 and list(t.keys()) == []

    def test_populated(self):
        t = build(7, keys=[7, 14, 21])
        assert len(t) == 3
        assert t.load_factor() == pytest.approx(3 / 7)
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
            placed = [s.probe_count for s in (t.slot(i) for i in range(17)) if s.probe_count]
            assert max(placed) <= len(t)
        elif kind == "r":
            t.remove(key)
