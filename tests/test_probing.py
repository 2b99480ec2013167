from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (BUSY, CompactTable, KeyOutOfRangeError, StepNotCoprimeError,
                         StepOutOfRangeError, TableFullError, TableParams, TombstoneTable,
                         ZeroCapacityError, validate_params)

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


def test_validate_params_accepts_coprime():
    p = TableParams(7, 3)
    assert validate_params(p) is p
    validate_params(TableParams(1, 1))
    validate_params(TableParams(65536, 5))


def test_validate_params_rejects_non_coprime():
    with pytest.raises(StepNotCoprimeError):
        validate_params(TableParams(8, 2))


def test_validate_params_rejects_zero_capacity():
    with pytest.raises(ZeroCapacityError):
        validate_params(TableParams(0, 1))
    with pytest.raises(ZeroCapacityError):
        validate_params(TableParams(-3, 1))


def test_validate_params_rejects_bad_step():
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 0))
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 7))
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 9))


def test_validate_params_rejects_bad_growth_settings():
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 1, growth_multiplier=1))
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 1, growth_load_factor=1.0))
    with pytest.raises(StepOutOfRangeError):
        validate_params(TableParams(7, 1, growth_load_factor=0.0))


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
