"""check_invariants against the prefix-sum checker it replaced.

Hypothesis builds tables of both kinds at every capacity from 1 to 257
and every step coprime with it, with growth on and off, runs random
operations, corrupts up to three fields, and requires both checkers to
return the same report: the same violations in the same order with the
same detail strings. Fixed step-3 tables whose probe paths interleave in
slot order, sparse to saturated, and a table at a prime capacity above
2^20 with step m - 2, whose cycle positions need a large inverse, are
checked clean and corrupted. So are the 65,536-slot tables the per-op
checks run on, at steps 1 and 3, with about 130 and about 4,400 keys:
corrupted at random, and by corruptions that only one of the checker's
screens can see.
"""

import copy
import functools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from compacthash import (ADD, BUSY, DELETED, FREE, REMOVE, CompactTable, TableFullError, TableParams,
                         TombstoneTable, WorkloadSpec, check_invariants, generate_workload)
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


# The shapes the per-op checks run at: 65,536-slot tables replaying seed 0
# of the acceptance per-op campaign. 260 ops leave about 130 keys, the
# perfbench fuzz-checked shape, and all 10,000 leave the campaign's last
# table, 4,378 keys.
WM = 1 << 16
WORKLOAD_SHAPES = {f"{kind.__name__}-step{step}-{op_count}ops": (kind, step, op_count)
                   for kind in (CompactTable, TombstoneTable) for step in (1, 3) for op_count in (260, 10_000)}


@functools.cache
def _campaign_table(kind, step, op_count):
    t = kind(TableParams(WM, step))
    for kind, key in generate_workload(WorkloadSpec(0, 10_000, (0, 2 * WM), (0.45, 0.35, 0.20)))[:op_count]:
        if kind == ADD:
            t.insert(key)
        elif kind == REMOVE:
            t.remove(key)
    return t


def _workload_table(name):
    return copy.deepcopy(_campaign_table(*WORKLOAD_SHAPES[name]))


@pytest.mark.parametrize("name", WORKLOAD_SHAPES)
def test_workload_shape_tables_pass(name):
    t = _workload_table(name)
    report = check_invariants(t)
    assert report.passed
    assert report.to_json_dict() == prefix_sum_checker.check_invariants(t).to_json_dict()


@pytest.mark.parametrize("name", WORKLOAD_SHAPES)
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.data())
def test_corrupted_workload_shape_tables(name, corruptions, data):
    t = _workload_table(name)
    for _ in range(corruptions):
        _corrupt(data, t)
    new = check_invariants(t).to_json_dict()
    assert new == prefix_sum_checker.check_invariants(t).to_json_dict()


def _cycle(t):
    """t's occupied slots in probe-cycle order."""
    marks = t._probe_counts if isinstance(t, CompactTable) else t._states
    inverse = pow(t.params.step, -1, t.capacity)
    return sorted((s for s in range(t.capacity) if marks[s]), key=lambda s: s * inverse % t.capacity)


def _busy(t):
    """t's slots that hold a key."""
    if isinstance(t, CompactTable):
        return [s for s in range(t.capacity) if t._probe_counts[s]]
    return [s for s in range(t.capacity) if t._states[s] == BUSY]


def _at_home(t):
    """A slot holding a key in its home slot."""
    return next(s for s in _busy(t) if t._keys[s] % t.capacity == s)


def _silent_duplicate(t):
    # a second copy of a stored key where a key of the same home sat, so
    # that both copies are placed and reachable: only the repeat is wrong
    key = t._keys[_at_home(t)]
    t.insert(key + 4 * WM)
    t._keys[next(s for s in _busy(t) if t._keys[s] == key + 4 * WM)] = key


def _far_home(t):
    # the key at one occupied slot is given the next occupied slot in cycle
    # order as its home: its path then runs around almost the whole cycle,
    # and the d-th occupied position before it, taken with d clipped to the
    # occupied count, is that home, so only d >= occupied count flags it
    cycle = _cycle(t)
    busy = set(_busy(t))
    r = next(r for r, s in enumerate(cycle) if s in busy and cycle[(r + 1) % len(cycle)] != s)
    s, home = cycle[r], cycle[(r + 1) % len(cycle)]
    t._keys[s] = home + 5 * WM
    if isinstance(t, CompactTable):
        inverse = pow(t.params.step, -1, t.capacity)
        t._probe_counts[s] = (s - home) * inverse % t.capacity + 1


def _invalid_state(value):
    def corrupt(t):
        s = _at_home(t)  # a DELETED slot: FREE would open a gap, BUSY change the live count
        t.remove(t._keys[s])
        t._states[s] = value
    return corrupt


def _count(value):
    def corrupt(t):
        t._probe_counts[_at_home(t)] = value(t.capacity)
    return corrupt


def _negative_count_last(t):
    # at the last occupied cycle position a negative d reaches past the end of the list
    t._probe_counts[_cycle(t)[-1]] = -2


# corruptions aimed at one screen each, and the table kinds they apply to
TARGETED = {
    "count-above-capacity": ((CompactTable,), _count(lambda m: m + 1)),
    "count-negative": ((CompactTable,), _count(lambda m: 1 - m)),
    "negative-count-last": ((CompactTable,), _negative_count_last),
    "invalid-state-3": ((TombstoneTable,), _invalid_state(3)),
    "invalid-state-minus-1": ((TombstoneTable,), _invalid_state(-1)),
    "silent-duplicate": ((CompactTable, TombstoneTable), _silent_duplicate),
    "far-home": ((CompactTable, TombstoneTable), _far_home),
}


@pytest.mark.parametrize("name,corruption", [
    (name, corruption) for name, (kind, _, _) in WORKLOAD_SHAPES.items()
    for corruption, (kinds, _) in TARGETED.items() if kind in kinds])
def test_targeted_corruptions_at_workload_shape(name, corruption):
    t = _workload_table(name)
    TARGETED[corruption][1](t)
    report = check_invariants(t)
    assert not report.passed
    assert report.to_json_dict() == prefix_sum_checker.check_invariants(t).to_json_dict()
