import dataclasses
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (BUSY, CompactHashError, CompactTable, KeyOutOfRangeError,
                         StepNotCoprimeError, StepOutOfRangeError, TableFullError, TableParams,
                         TombstoneTable, ZeroCapacityError, check_invariants)

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def assert_home(key, capacity, index):
    """An insert into an empty table lands on its first probe at index."""
    for cls, mark in ((CompactTable, 1), (TombstoneTable, BUSY)):
        table = cls(TableParams(capacity, 1))
        assert table.insert_counted(key) == (True, 1)
        assert table.slot(index) == (key, mark)


def probe_path(key, params, length):
    """Slots of the first length probes of key, read off a chain of keys
    sharing key's home: the j-th of them lands on the j-th probe slot."""
    table = CompactTable(params)
    path = []
    for j in range(length):
        k = key + j * params.capacity
        assert table.insert_counted(k) == (True, j + 1)
        path.append(next(i for i in range(params.capacity) if table.slot(i) == (k, j + 1)))
    return path


def test_hash_index_examples():
    assert_home(42, 1_000_000, 42)
    assert_home(-3, 7, 4)
    assert_home(7, 7, 0)


def test_hash_index_extremes():
    # abs()-based hashing would overflow on I64_MIN in fixed-width languages
    assert_home(I64_MIN, 7, 6)
    assert_home(I64_MIN, 2, 0)
    assert_home(I64_MAX, 2, 1)
    assert_home(-1, 1_000_000, 999_999)


@settings(deadline=None)
@given(st.integers(I64_MIN, I64_MAX), st.integers(2, 10_000))
def test_hash_index_always_in_range(key, capacity):
    assert_home(key, capacity, key % capacity)


def test_probe_slot_examples():
    assert probe_path(3, TableParams(7, 1), 1) == [3]
    assert probe_path(7, TableParams(7, 1), 3) == [0, 1, 2]
    assert probe_path(6, TableParams(7, 3), 4) == [6, 2, 5, 1]


@settings(deadline=None)
@given(st.integers(I64_MIN, I64_MAX), st.integers(2, 200))
def test_zeroth_probe_is_home_slot(key, capacity):
    assert probe_path(key, TableParams(capacity, 1), 1) == [key % capacity]


def test_full_cycle_property_exhaustive():
    # m - 1 keys sharing one home take m - 1 distinct slots on probes
    # 1..m - 1 (home + step * j), so a probe sequence reaches every slot
    # but the one kept empty
    for m in range(1, 33):
        steps = [c for c in range(1, max(2, m)) if gcd(c, m) == 1]
        for c in steps:
            for key in (-5, -1, 0, 1, 3, m - 1, m, 2 * m + 1):
                path = probe_path(key, TableParams(m, c), m - 1)
                assert path == [(key + c * j) % m for j in range(m - 1)], (m, c, key)
                assert len(set(path)) == m - 1, (m, c, key)


# TableParams validates its fields on construction

def test_table_params_accepts_coprime():
    p = TableParams(7, 3)
    assert (p.capacity, p.step) == (7, 3)
    TableParams(1, 1)
    TableParams(65536, 5)


def test_table_params_rejects_non_coprime():
    with pytest.raises(StepNotCoprimeError, match=r"^gcd\(step=2, capacity=8\) = 2; some slots would be unreachable$"):
        TableParams(8, 2)


def test_table_params_rejects_zero_capacity():
    with pytest.raises(ZeroCapacityError, match=r"^capacity must be >= 1, got 0$"):
        TableParams(0, 1)
    with pytest.raises(ZeroCapacityError, match=r"^capacity must be >= 1, got -3$"):
        TableParams(-3, 1)


def test_table_params_rejects_bad_step():
    for step in (0, 7, 9):
        with pytest.raises(StepOutOfRangeError,
                           match=rf"^step must satisfy 1 <= step < capacity, got step={step} capacity=7$"):
            TableParams(7, step)


@pytest.mark.parametrize("capacity, step, error, message", [
    (True, 1, ZeroCapacityError, "capacity must be an int >= 1, got True (bool)"),
    (7.5, 1, ZeroCapacityError, "capacity must be an int >= 1, got 7.5 (float)"),
    ("7", 1, ZeroCapacityError, "capacity must be an int >= 1, got '7' (str)"),
    (7, True, StepOutOfRangeError, "step must be an int, got True (bool)"),
    (7, 1.5, StepOutOfRangeError, "step must be an int, got 1.5 (float)"),
    (7, "3", StepOutOfRangeError, "step must be an int, got '3' (str)"),
    (0.0, 0.5, ZeroCapacityError, "capacity must be an int >= 1, got 0.0 (float)"),
])
def test_table_params_rejects_non_int_fields(capacity, step, error, message):
    # the type checks run before the value checks, and a bool is no int
    with pytest.raises(error) as caught:
        TableParams(capacity, step)
    assert str(caught.value) == message


@pytest.mark.parametrize("growth, message", [
    ("no", "growth_enabled must be a bool, got 'no' (str)"),
    (1, "growth_enabled must be a bool, got 1 (int)"),
    (0, "growth_enabled must be a bool, got 0 (int)"),
    (None, "growth_enabled must be a bool, got None (NoneType)"),
])
def test_table_params_rejects_non_bool_growth(growth, message):
    # every insert reads the flag, so only a bool is accepted
    with pytest.raises(CompactHashError) as caught:
        TableParams(4, 1, growth_enabled=growth)
    assert str(caught.value) == message


def test_table_params_on_replace():
    # growth builds its new params with dataclasses.replace, which runs
    # the same checks
    with pytest.raises(StepNotCoprimeError):
        dataclasses.replace(TableParams(7, 2), capacity=8)


@pytest.mark.parametrize("cls", [CompactTable, TombstoneTable])
def test_one_slot_table_with_a_large_step_grows(cls):
    # step >= capacity is valid only at capacity 1; growth reduces the
    # step modulo the new capacity, which probes the same slots
    table = cls(TableParams(1, 5, growth_enabled=True))
    assert table.insert(3)
    assert table.capacity > 1 and table.params.step < table.capacity
    assert table.contains(3) and len(table) == 1
    assert check_invariants(table).passed


@pytest.mark.parametrize("cls", [CompactTable, TombstoneTable])
def test_non_int_key_never_grows_the_table(cls):
    # 2.5 lies inside the key range, and the next insert would grow the table
    table = cls(TableParams(4, 1, growth_enabled=True))
    table.insert(0)
    table.insert(1)
    before = table.capacity, _snapshot(table)
    with pytest.raises(TypeError):
        table.insert(2.5)
    assert (table.capacity, _snapshot(table)) == before


@pytest.mark.parametrize("cls", [CompactTable, TombstoneTable])
def test_non_int_key_equal_to_a_live_key_raises(cls):
    # 1.0 == 1 and hash(1.0) == hash(1), yet both tables refuse it as no int
    table = cls(TableParams(7, 1))
    table.insert(1)
    before = _snapshot(table)
    for op in (table.insert, table.contains, table.remove):
        with pytest.raises(TypeError):
            op(1.0)
        assert _snapshot(table) == before
    assert table.contains(1) and table.remove(1)  # and the int key is still found


@pytest.mark.parametrize("cls", [CompactTable, TombstoneTable])
@pytest.mark.parametrize("counted", [False, True], ids=["insert", "insert_counted"])
def test_inserting_a_present_key_at_the_threshold_grows_the_table(cls, counted):
    # growth comes before membership: 7 keys fill 10 slots to the threshold,
    # so an eighth insert grows the table, even one whose key is present
    table = cls(TableParams(10, 1, growth_enabled=True))
    for key in range(7):
        assert table.insert(key)
    assert table.capacity == 10
    added = table.insert_counted(3)[0] if counted else table.insert(3)
    assert added is False
    assert table.capacity == 20
    assert sorted(table.keys()) == list(range(7))
    assert check_invariants(table).passed


def _grown_and_rebuilt(cls):
    """Capacity and bytes after a growing insert, and the bytes of a rehash, placed through _insert."""
    table = cls(TableParams(8, 3, growth_enabled=True))
    for key in (0, 8, 16, 3, 11, 6):  # the sixth non-FREE slot grows a tombstone table
        table._insert(key)
    table.remove(8)
    table._insert(19)  # the sixth live key grows a compact table
    return table.capacity, table.state_bytes(), table.rehash(TableParams(31, 3)).state_bytes()


@pytest.mark.parametrize("cls", [CompactTable, TombstoneTable])
def test_rebuilds_place_keys_through_no_public_insert(cls, monkeypatch):
    # a tracer patches the public inserts, so a rebuild that called them
    # would be counted and timed as inserts
    expected = _grown_and_rebuilt(cls)
    assert expected[0] > 8

    def refuse(self, key):
        raise AssertionError("a rebuild called a public insert")

    for name in ("insert", "insert_counted"):
        monkeypatch.setattr(cls, name, refuse)
    assert _grown_and_rebuilt(cls) == expected


def test_default_params():
    p = TableParams()
    assert p.capacity == 1_000_000
    assert p.step == 1
    assert not p.growth_enabled


EDGE_KEYS = [I64_MIN, I64_MAX, I64_MIN - 1, I64_MAX + 1, 2**64, -(2**70)]


def _snapshot(table):
    return table.state_bytes(), len(table), getattr(table, "non_free_count", None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([CompactTable, TombstoneTable]),
       st.sampled_from([(5, 1), (7, 3), (8, 3)]),
       st.booleans(),
       st.lists(st.tuples(st.sampled_from("ar"),
                          st.one_of(st.integers(-20, 20), st.sampled_from(EDGE_KEYS))),
                max_size=40))
def test_failed_insert_leaves_table_unchanged(cls, shape, growth, ops):
    # an insert either succeeds or raises a CompactHashError without any
    # side effect (growth included): slot bytes and counters stay as they were
    capacity, step = shape
    table = cls(TableParams(capacity, step, growth_enabled=growth))
    for kind, key in ops:
        if kind == "r":
            table.remove(key)
            continue
        in_range = I64_MIN <= key <= I64_MAX
        before = _snapshot(table)
        try:
            table.insert(key)
        except (KeyOutOfRangeError, TableFullError) as e:
            assert isinstance(e, TableFullError) == in_range
            assert _snapshot(table) == before
        else:
            assert in_range
