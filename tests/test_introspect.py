import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (BUSY, COUNT_MISMATCH, DELETED, DUPLICATE_KEY, FREE, REACHABILITY_GAP,
                         SLOT_INCONSISTENT, CompactTable, TableFullError, TableParams,
                         TombstoneTable, check_invariants, probe_stats)

import prefix_sum_checker


def compact(capacity, step=1, keys=()):
    t = CompactTable(TableParams(capacity, step))
    for key in keys:
        t.insert(key)
    return t


def tombstone(capacity, step=1, keys=()):
    t = TombstoneTable(TableParams(capacity, step))
    for key in keys:
        t.insert(key)
    return t


def kinds_at(report):
    return {(v.kind, v.slot_index) for v in report.violations}


def check(table):
    """check_invariants, also required to match the prefix-sum reference checker."""
    report = check_invariants(table)
    assert report.to_json_dict() == prefix_sum_checker.check_invariants(table).to_json_dict()
    return report


class TestCheckInvariants:
    def test_clean_tables_pass(self):
        t = compact(7, keys=[7, 14, 21])
        t.remove(14)
        assert check(t).passed
        tt = tombstone(7, keys=[7, 14, 21])
        tt.remove(14)
        assert check(tt).passed

    def test_corrupted_probe_count_is_inconsistent(self):
        t = compact(7, keys=[7, 14])
        t._probe_counts[1] = 3  # key 14 claims slot (0 + 2) % 7 = 2
        assert kinds_at(check(t)) == {(SLOT_INCONSISTENT, 1)}

    def test_gap_in_probe_path(self):
        t = compact(7, keys=[1, 8])
        t._probe_counts[1] = 0  # empty the home of key 8 behind its back
        t._keys[1] = 0
        t._live = 1
        assert kinds_at(check(t)) == {(REACHABILITY_GAP, 2)}

    def test_live_count_mismatch(self):
        t = compact(7, keys=[7])
        t._live = 2
        assert kinds_at(check(t)) == {(COUNT_MISMATCH, -1)}

    def test_duplicate_key_detected(self):
        t = compact(7, keys=[7, 14, 21])
        t._keys[3] = 7  # second copy, consistently placed at probe 4
        t._probe_counts[3] = 4
        t._live = 4
        assert kinds_at(check(t)) == {(DUPLICATE_KEY, 3)}

    def test_probe_count_above_capacity(self):
        t = compact(7, keys=[7])
        t._probe_counts[0] = 9
        report = check(t)
        assert (SLOT_INCONSISTENT, 0) in kinds_at(report)

    def test_negative_probe_count_is_busy_and_inconsistent(self):
        # every walk treats a nonzero count as busy: 11 is found though len() is 0
        t = compact(8)
        t._probe_counts[3] = -1
        t._keys[3] = 11
        assert 11 in t and len(t) == 0
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": -1, "kind": COUNT_MISMATCH, "detail": "live_count 0 but 1 busy slots"},
            {"slot_index": 3, "kind": SLOT_INCONSISTENT, "detail": "probe_count -1 is negative"}]

    def test_tombstone_free_slot_on_path(self):
        t = tombstone(7, keys=[7, 14])
        t.remove(7)
        t._states[0] = FREE  # resurrect the tombstone as FREE
        t._non_free -= 1
        assert kinds_at(check(t)) == {(REACHABILITY_GAP, 1)}

    def test_tombstone_counter_mismatch(self):
        t = tombstone(7, keys=[7])
        t._non_free = 0
        assert kinds_at(check(t)) == {(COUNT_MISMATCH, -1)}

    def test_tombstone_index_entry_for_a_key_stored_nowhere(self):
        # the lookups answer from _slot_of, whose size is the table's len()
        t = tombstone(64, keys=[1, 65, 129, 7])
        t.remove(65)
        t._slot_of[193] = t._slot_of[129]
        assert 193 in t
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": -1, "kind": COUNT_MISMATCH, "detail": "live_count 4 but 3 BUSY slots"}]

    def test_tombstone_index_that_lost_a_stored_key(self):
        t = tombstone(64, keys=[1])
        del t._slot_of[1]
        assert 1 not in t
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": -1, "kind": COUNT_MISMATCH, "detail": "live_count 0 but 1 BUSY slots"}]

    def test_violations_are_data_not_errors(self):
        t = compact(7, keys=[7])
        t._live = 3
        report = check(t)
        assert not report.passed
        assert report.to_json_dict()["violations"]

    def test_gap_whose_path_wraps_the_cycle(self):
        # step 3 visits slots 0, 3, 6, 2, 5, 1, 4; keys homed at slot 1
        # fill slots 1, 4, 0, 3, so the path of 22 wraps from slot 4 to 0
        t = compact(7, 3, keys=[1, 8, 15, 22])
        assert [(t._keys[i], t._probe_counts[i]) for i in (1, 4, 0, 3)] == [(1, 1), (8, 2), (15, 3), (22, 4)]
        for s in (4, 0):
            t._probe_counts[s] = 0
            t._keys[s] = 0
        t._live = 2
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": 3, "kind": REACHABILITY_GAP,
             "detail": "key 22 at slot 3: only 1 of 3 path slots busy"}]

    def test_tombstone_gap_whose_path_wraps_the_cycle(self):
        t = tombstone(7, 3, keys=[1, 8, 15, 22])
        t.remove(8)
        t.remove(15)
        for s in (4, 0):
            t._states[s] = FREE
        t._non_free -= 2
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": 3, "kind": REACHABILITY_GAP,
             "detail": "key 22 at slot 3: 2 FREE slot(s) on its probe path"}]

    @pytest.mark.parametrize("build", [compact, tombstone])
    def test_gaps_are_reported_in_slot_order(self, build):
        # step 3 visits slots 0, 3, 6, 2; emptying slot 3 cuts the paths
        # of the keys at slots 6 and 2, which the cycle meets in that order
        t = build(7, 3, keys=[0, 7, 14, 21])
        if isinstance(t, CompactTable):
            t._probe_counts[3] = 0
            t._live -= 1
        else:
            t._states[3] = FREE
            t._non_free -= 1
            del t._slot_of[7]
        t._keys[3] = 0
        assert [(v.kind, v.slot_index) for v in check(t).violations] == [
            (REACHABILITY_GAP, 2), (REACHABILITY_GAP, 6)]

    def test_gap_on_a_path_as_long_as_the_occupied_count(self):
        # as above with only slot 4 emptied: three slots stay occupied and
        # the path of 22 is three slots long
        t = compact(7, 3, keys=[1, 8, 15, 22])
        t._probe_counts[4] = 0
        t._keys[4] = 0
        t._live = 3
        assert check(t).to_json_dict()["violations"] == [
            {"slot_index": 0, "kind": REACHABILITY_GAP,
             "detail": "key 15 at slot 0: only 1 of 2 path slots busy"},
            {"slot_index": 3, "kind": REACHABILITY_GAP,
             "detail": "key 22 at slot 3: only 2 of 3 path slots busy"}]
        tt = tombstone(7, 3, keys=[1, 8, 15, 22])
        tt.remove(8)
        tt._states[4] = FREE
        tt._non_free -= 1
        assert check(tt).to_json_dict()["violations"] == [
            {"slot_index": 0, "kind": REACHABILITY_GAP,
             "detail": "key 15 at slot 0: 1 FREE slot(s) on its probe path"},
            {"slot_index": 3, "kind": REACHABILITY_GAP,
             "detail": "key 22 at slot 3: 1 FREE slot(s) on its probe path"}]


def full_compact(capacity):
    """A compact table with every slot busy, written through its slot arrays and counter."""
    t = compact(capacity, keys=range(capacity - 1))
    t._keys[capacity - 1] = capacity - 1
    t._probe_counts[capacity - 1] = 1
    t._live = capacity
    return t


def full_tombstone(capacity):
    """A tombstone table with no FREE slot, its last slot DELETED, written through its arrays and counter."""
    t = tombstone(capacity, keys=range(capacity - 1))
    t._keys[capacity - 1] = capacity - 1
    t._states[capacity - 1] = DELETED
    t._non_free = capacity
    return t


class TestFullTables:
    def test_compact_occupancy_cap_violated(self):
        assert check(full_compact(4)).to_json_dict()["violations"] == [
            {"slot_index": -1, "kind": COUNT_MISMATCH, "detail": "occupancy cap violated: 4 busy of 4 slots"}]

    def test_tombstone_occupancy_cap_violated(self):
        assert check(full_tombstone(4)).to_json_dict()["violations"] == [
            {"slot_index": -1, "kind": COUNT_MISMATCH, "detail": "occupancy cap violated: 4 non-FREE of 4 slots"}]

    @pytest.mark.parametrize("build", [full_compact, full_tombstone])
    def test_a_miss_never_ends(self, build):
        s = probe_stats(build(4))
        assert s.mean_miss == float("inf")
        assert s.cluster_lengths == [4]


def test_non_tables_are_refused():
    for inspect in (check_invariants, probe_stats):
        with pytest.raises(TypeError, match=r"^unsupported table type set$"):
            inspect(set())


class TestProbeStats:
    def test_empty_table(self):
        s = probe_stats(compact(7))
        assert s.histogram == {}
        assert s.mean_miss == 1.0
        assert s.mean_success == 0.0
        assert s.cluster_lengths == []
        assert s.max_probe == 0

    def test_chain_of_three(self):
        s = probe_stats(compact(7, keys=[7, 14, 21]))
        assert s.histogram == {1: 1, 2: 1, 3: 1}
        assert s.mean_success == pytest.approx(2.0)
        assert s.mean_miss == pytest.approx(13 / 7)  # hand-walked over all homes
        assert s.cluster_lengths == [3]
        assert s.max_probe == 3
        assert s.load_factor == pytest.approx(3 / 7)
        assert s.tombstone_count == 0

    def test_wrapping_cluster_reported_once(self):
        t = compact(7, keys=[6, 13, 20])  # occupies slots 6, 0, 1
        s = probe_stats(t)
        assert s.cluster_lengths == [3]

    def test_two_clusters(self):
        t = compact(11, keys=[0, 11, 5])
        assert sorted(probe_stats(t).cluster_lengths) == [1, 2]

    def test_clusters_in_probe_cycle_order(self):
        # step 3: slots 0 and 3 hold keys 0 and 7 and are consecutive on
        # the probe cycle 0, 3, 6, 2, 5, 1, 4
        t = compact(7, 3, keys=[0, 7])
        assert [i for i in range(7) if t._probe_counts[i]] == [0, 3]
        assert probe_stats(t).cluster_lengths == [2]

    def test_tombstone_stats_after_churn(self):
        t = tombstone(2100)
        for i in range(1000):
            t.insert(i * 2100)
        for i in range(1000):
            t.remove(i * 2100)
        s = probe_stats(t)
        assert s.tombstone_count == 1000
        assert s.histogram == {}
        # homes 0..999 walk 1001-h slots, the other 1100 walk one:
        # (sum of 2..1001) + 1100 = 502600 examined over 2100 homes
        assert s.mean_miss == pytest.approx(502600 / 2100)
        assert s.cluster_lengths == [1000]

    def test_tombstone_histogram_replays_lookups(self):
        t = tombstone(7, keys=[7, 14, 21])
        t.remove(14)
        s = probe_stats(t)
        assert s.histogram == {1: 1, 3: 1}  # 7 at home, 21 walks the tombstone
        assert s.tombstone_count == 1

    def test_json_shape(self):
        d = probe_stats(compact(7, keys=[7, 14])).to_json_dict()
        assert d["histogram"] == {"1": 1, "2": 1}
        assert set(d) == {"histogram", "mean_success", "mean_miss", "max_probe",
                          "cluster_lengths", "load_factor", "tombstone_count"}


def open_slots(table):
    if isinstance(table, CompactTable):
        return [pc == 0 for pc in table._probe_counts]
    return [state == FREE for state in table._states]


def brute_mean_miss(table):
    m = table.capacity
    step = table.params.step
    is_open = open_slots(table)
    total = 0
    for home in range(m):
        i, n = home, 1
        while not is_open[i]:
            i = (i + step) % m
            n += 1
        total += n
    return total / m


def brute_cluster_lengths(table):
    """Cyclic runs of occupied slots, walked in probe-cycle order from slot 0.

    Runs are listed by the cycle position they start at, so a run that
    wraps the end of the cycle comes last.
    """
    m = table.capacity
    step = table.params.step
    slot_open = open_slots(table)
    is_open = [slot_open[j * step % m] for j in range(m)]
    if not any(is_open):
        return [m]
    runs = []
    for start in range(m):
        if not is_open[start] and is_open[start - 1]:
            length = 1
            while not is_open[(start + length) % m]:
                length += 1
            runs.append(length)
    return runs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("aar"), st.integers(0, 11)), max_size=60),
       st.sampled_from([(13, 1), (13, 5), (16, 3), (1, 5), (2, 1)]))
def test_mean_miss_matches_brute_force_walk(ops, shape):
    capacity, step = shape
    for make in (compact, tombstone):
        t = make(capacity, step)
        for kind, key in ops:
            try:
                (t.insert if kind == "a" else t.remove)(key)
            except TableFullError:
                pass
        stats = probe_stats(t)
        assert stats.mean_miss == pytest.approx(brute_mean_miss(t))
        assert stats.cluster_lengths == brute_cluster_lengths(t)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("aar"), st.integers(0, 11)), max_size=60),
       st.sampled_from([(13, 1), (13, 5), (16, 3)]))
def test_mean_success_agrees_with_lookup_replay(ops, shape):
    # stored probe counts and replayed lookups are two routes to one number
    capacity, step = shape
    t = compact(capacity, step)
    for kind, key in ops:
        (t.insert if kind == "a" else t.remove)(key)
    stored = probe_stats(t).mean_success
    keys = list(t.keys())
    if keys:
        replayed = sum(t.contains_counted(k)[1] for k in keys) / len(keys)
    else:
        replayed = 0.0
    assert stored == pytest.approx(replayed)


class TestCountedOps:
    """Slot costs of single operations, as the *_counted methods report them."""

    def test_contains_on_empty_table(self):
        assert compact(7).contains_counted(5) == (False, 1)

    def test_remove_reports_phases_separately(self):
        removed, find, compress, relocations = compact(7, keys=[7, 14, 21]).remove_counted(7)
        assert removed
        assert find == 1
        assert compress == 3  # two busy slots plus the terminator
        assert relocations == 2

    def test_insert_walks_to_first_empty(self):
        assert compact(7, keys=[7, 14]).insert_counted(21) == (True, 3)

    def test_mutating_ops_really_mutate(self):
        t = compact(7, keys=[7])
        t.remove_counted(7)
        assert len(t) == 0
        t.insert_counted(3)
        assert 3 in t

    def test_tombstone_costs(self):
        t = tombstone(7, keys=[7, 14])
        t.remove(7)
        assert t.contains_counted(21) == (False, 3)
        assert t.insert_counted(21) == (True, 3)
        assert (t._keys[0], t._states[0]) == (21, BUSY)  # reused the tombstone
