"""check_invariants against the prefix-sum checker it replaced.

Hypothesis builds tables of both kinds at every capacity from 1 to 257
and every step coprime with it, with growth on and off, runs random
operations, corrupts up to three fields, and requires both checkers to
return the same report: the same violations in the same order with the
same detail strings. Fixed step-3 tables whose probe paths interleave in
slot order, sparse to saturated, and a table at a prime capacity above
2^20 with step m - 2, whose cycle positions need a large inverse, are
checked clean and corrupted.
"""

from math import gcd

import random

import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (BUSY, DELETED, FREE, CompactTable, TableFullError, TableParams,
                         TombstoneTable, check_invariants)
from compacthash.probing import KEY_MAX, KEY_MIN

import prefix_sum_checker

ANY_KEY = st.integers(KEY_MIN, KEY_MAX)


@st.composite
def shapes(draw):
    m = draw(st.integers(1, 257))
    # step 1 has its own code paths, so it gets about half of the draws
    others = [c for c in range(2, m) if gcd(c, m) == 1]
    if others and draw(st.booleans()):
        return m, draw(st.sampled_from(others))
    return m, 1


def _slot(data, t):
    """A slot index, drawn from the occupied slots half of the time."""
    marks = t._probe_counts if isinstance(t, CompactTable) else t._states
    occupied = [i for i, mark in enumerate(marks) if mark]
    any_slot = st.integers(0, t.capacity - 1)
    return data.draw(st.sampled_from(occupied) | any_slot if occupied else any_slot, label="slot")


def _corrupt(data, t):
    """Overwrite one field of t with a drawn value."""
    stored = list(t.keys())
    if isinstance(t, CompactTable):
        fields = ["clear", "_probe_counts", "_keys", "_live"]
    else:
        fields = ["clear", "_states", "_keys", "_live", "_non_free"]
    name = data.draw(st.sampled_from(fields), label="field")
    m = t.capacity
    if name == "clear":  # empty a slot behind the table's back, often opening a gap
        marks = t._probe_counts if isinstance(t, CompactTable) else t._states
        marks[_slot(data, t)] = 0
    elif name == "_probe_counts":
        t._probe_counts[_slot(data, t)] = data.draw(
            st.just(0) | st.integers(-2, m + 2) | st.just(KEY_MAX), label="probe_count")
    elif name == "_states":
        t._states[_slot(data, t)] = data.draw(
            st.sampled_from([FREE, BUSY, DELETED]) | st.integers(-128, 127), label="state")
    elif name == "_keys":
        key = st.sampled_from(stored) | ANY_KEY if stored else ANY_KEY
        t._keys[_slot(data, t)] = data.draw(key, label="key")
    else:
        value = getattr(t, name)
        setattr(t, name, max(0, value + data.draw(st.integers(-3, 3), label="delta")))


@pytest.mark.parametrize("kind", [CompactTable, TombstoneTable])
@settings(max_examples=300, deadline=None)
@given(shapes(), st.booleans(), st.floats(0, 1), st.randoms(use_true_random=False),
       st.lists(st.tuples(st.sampled_from("aar"), st.integers(0, 600) | ANY_KEY), max_size=60),
       st.integers(0, 3), st.data())
def test_reports_equal_the_prefix_sum_checker(kind, shape, growth, fill, rng, ops, corruptions,
                                              data):
    m, step = shape
    t = kind(TableParams(m, step, growth_enabled=growth))
    # hypothesis draws short op lists, so a seeded prefill reaches the high
    # loads and long clusters where reachability gaps can hide
    prefill = [("a", rng.randrange(4 * m)) for _ in range(round(2 * fill * m))]
    for op, key in prefill + ops:
        if op == "a":
            try:
                t.insert(key)
            except TableFullError:
                pass
        else:
            t.remove(key)
    for _ in range(corruptions):
        _corrupt(data, t)
    new = check_invariants(t).to_json_dict()
    assert new == prefix_sum_checker.check_invariants(t).to_json_dict()


M = 257
# 15 and 16 occupied slots: the densities on each side of a sort/gather
# switch the checker once made at M / 16, kept as sparse step-3 cases
CROSSOVER = M // 16


def _step3_table(kind, occupied):
    """A step-3 table with exactly occupied occupied slots.

    In a tombstone table a third of them hold tombstones.
    """
    t = kind(TableParams(M, 3))
    # the keys share four homes, so their probe paths run many slots long,
    # and slots 0, 1 and 2 start three paths that interleave in slot order
    rng = random.Random(occupied)
    keys = [rng.choice((0, 1, 2, 130)) + M * i for i in range(occupied)]
    for key in keys:
        t.insert(key)
    if kind is TombstoneTable:
        for key in keys[::3]:
            t.remove(key)
    return t


STEP3_TABLES = {
    "compact-below": (CompactTable, CROSSOVER - 1),
    "compact-at": (CompactTable, CROSSOVER),
    "tombstone-below": (TombstoneTable, CROSSOVER - 1),
    "tombstone-at": (TombstoneTable, CROSSOVER),
    "tombstone-saturated": (TombstoneTable, M - 1),
}


@pytest.mark.parametrize("name", STEP3_TABLES)
def test_step3_tables_around_the_crossover_pass(name):
    kind, occupied = STEP3_TABLES[name]
    t = _step3_table(kind, occupied)
    marks = t._probe_counts if kind is CompactTable else t._states
    assert sum(1 for mark in marks if mark) == occupied
    report = check_invariants(t)
    assert report.passed
    assert report.to_json_dict() == prefix_sum_checker.check_invariants(t).to_json_dict()


@pytest.mark.parametrize("name", STEP3_TABLES)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_corrupted_step3_tables_around_the_crossover(name, corruptions, data):
    t = _step3_table(*STEP3_TABLES[name])
    for _ in range(corruptions):
        _corrupt(data, t)
    new = check_invariants(t).to_json_dict()
    assert new == prefix_sum_checker.check_invariants(t).to_json_dict()


BIG_M = 1_048_583  # prime


def _big_table(kind):
    """A step m - 2 table whose keys share four homes.

    Slot 2 lies at the last cycle position and slot 0 at the first, so
    the cluster from home 2 wraps the end of the cycle. In a tombstone
    table a third of the keys are removed.
    """
    t = kind(TableParams(BIG_M, BIG_M - 2))
    keys = [home + BIG_M * i for home in (2, 0, 1, 3) for i in range(5)]
    for key in keys:
        t.insert(key)
    if kind is TombstoneTable:
        for key in keys[::3]:
            t.remove(key)
    return t


@pytest.mark.parametrize("kind", [CompactTable, TombstoneTable])
def test_big_prime_table_passes(kind):
    t = _big_table(kind)
    report = check_invariants(t)
    assert report.passed
    assert report.to_json_dict() == prefix_sum_checker.check_invariants(t).to_json_dict()


@pytest.mark.parametrize("kind", [CompactTable, TombstoneTable])
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_corrupted_big_prime_table(kind, data):
    t = _big_table(kind)
    _corrupt(data, t)
    new = check_invariants(t).to_json_dict()
    assert new == prefix_sum_checker.check_invariants(t).to_json_dict()
