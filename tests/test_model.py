"""Stateful model tests: each table class against a set, one drawn op at a time.

A machine per table class draws any accepted TableParams at capacities
1-64 and a prefill of up to one key per slot, then runs the plain ops,
their counted twins and rehash to drawn params. Its keys are groups that
share homes at the drawn capacity, the ends of the key range, a key past
it and 1.0, which equals the pool's key 1 but is no int. After every step
it checks that:

- each answer and error is the one a set predicts, TableFullError and
  growth included;
- an op that answers False or raises leaves state_bytes(), len(),
  capacity and non_free_count as they were;
- capacity changes only on an insert that places a key and pushes the
  growth count over GROWTH_LOAD_FACTOR;
- the keys are the set's and check_invariants passes;
- a CompactTable is history independent: it equals a fresh table that
  inserted the live keys in the order of their last insert, an order
  that a growth or a rehash resets to ascending slot order;
- a TombstoneTable's _slot_of is the key-to-slot map of its BUSY slots,
  and each of its next-FREE shortcuts leads along its path past non-FREE
  slots only;
- a TombstoneTable equals a WalkingReference mirror that took the same
  ops and was rebuilt as the table was, and each counted call returns
  the mirror's count.
"""

from dataclasses import replace
from math import gcd

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from compacthash import (BUSY, FREE, CapacityTooSmallError, CompactTable, KeyOutOfRangeError,
                         TableFullError, TombstoneTable, check_invariants)
from compacthash.probing import GROWTH_LOAD_FACTOR, GROWTH_MULTIPLIER, KEY_MAX, KEY_MIN
from twin_ops import WalkingReference, assert_shortcuts_valid, outcome, table_params

MACHINE_SETTINGS = settings(max_examples=200, stateful_step_count=50, deadline=None)


def grown_capacity(capacity, step):
    new_cap = GROWTH_MULTIPLIER * capacity
    while gcd(step, new_cap) != 1:
        new_cap += 1
    return new_cap


class TableMachine(RuleBasedStateMachine):
    cls = None

    @initialize(params=table_params(64), data=st.data())
    def build(self, params, data):
        self.adopt(self.cls(replace(params, growth_enabled=False)), [])
        self.model = set()
        m = params.capacity
        homes = range(0, m, -(-m // 16))  # at most 16, each shared by 4 keys
        shared = sorted({h + j * m for h in homes for j in (-1, 0, 1, 2)} | {1})
        self.pool = shared + [KEY_MIN, KEY_MAX, KEY_MAX + 1, 1.0]
        # a drawn prefill reaches the occupancy cap in few steps; growth takes
        # effect after it, so the table may start past the growth threshold,
        # and removing some of the keys leaves tombstones there
        fill = data.draw(st.integers(0, m), label="fill")
        prefill = data.draw(st.permutations(shared), label="order")[:fill]
        for key in prefill:
            self.insert_key(False, key)
        self.adopt(self.table.rehash(params), list(self.table.keys()))
        for key in prefill[:data.draw(st.integers(0, fill // 4), label="removed")]:
            self.remove_key(False, key)

    def adopt(self, table, order):
        """Take table, a fresh table that inserted the keys in order; a rehash
        inserts them in the ascending slot order of the table it rebuilds."""
        self.table = table
        self.order = order  # the live keys in the order of their last insert

    def snapshot(self):
        t = self.table
        return t.state_bytes(), len(t), t.capacity, getattr(t, "non_free_count", None)

    def growth_count(self, key):
        """The growth count after placing absent key, or None if its placement leaves the count."""
        raise NotImplementedError

    def call(self, op, counted, key):
        """The op's answer, or the type of the error it raised; state must not change unless it answers True."""
        before = self.snapshot()
        try:
            self.got = got = getattr(self.table, op + "_counted" if counted else op)(key)
        except (TypeError, KeyOutOfRangeError, TableFullError) as e:
            assert self.snapshot() == before
            return type(e)
        answer = got[0] if counted else got
        assert type(answer) is bool
        if not answer or op == "contains":
            assert self.snapshot() == before
        return answer

    def insert_key(self, counted, key):
        t = self.table
        m = new_m = t.capacity
        if type(key) is not int:
            expected = TypeError
        elif not KEY_MIN <= key <= KEY_MAX:
            expected = KeyOutOfRangeError
        elif key in self.model:
            expected = False
        else:
            expected = True
            count = self.growth_count(key)
            if count is not None and t.params.growth_enabled and count / m > GROWTH_LOAD_FACTOR:
                new_m = grown_capacity(m, t.params.step)
                self.order = list(t.keys())  # the growth inserts them in slot order, then key
            elif count == m:  # the last empty slot is never taken
                expected = TableFullError
        assert self.call("insert", counted, key) is expected
        if expected is True:
            self.model.add(key)
            self.order.append(key)
        assert t.capacity == new_m

    @rule(counted=st.booleans(), data=st.data())
    def insert(self, counted, data):
        self.insert_key(counted, data.draw(st.sampled_from(self.pool), label="key"))

    @rule(counted=st.booleans(), data=st.data())
    def contains(self, counted, data):
        key = data.draw(st.sampled_from(self.pool), label="key")
        got = self.call("contains", counted, key)
        assert got is (TypeError if type(key) is not int else key in self.model)

    def remove_key(self, counted, key):
        got = self.call("remove", counted, key)
        assert got is (TypeError if type(key) is not int else key in self.model)
        if got is True:
            self.model.remove(key)
            self.order.remove(key)

    @rule(counted=st.booleans(), data=st.data())
    def remove(self, counted, data):
        self.remove_key(counted, data.draw(st.sampled_from(self.pool), label="key"))

    @rule(params=table_params(64))
    def rehash(self, params):
        before = self.snapshot()
        if params.capacity - 1 < len(self.model):
            with pytest.raises(CapacityTooSmallError):
                self.table.rehash(params)
            assert self.snapshot() == before
        else:
            fresh = self.table.rehash(params)
            assert self.snapshot() == before and fresh.params == params
            self.adopt(fresh, list(self.table.keys()))

    @invariant()
    def agrees_with_the_model(self):
        t = self.table
        assert len(t) == len(self.model)
        assert sorted(t.keys()) == sorted(self.model)
        report = check_invariants(t)
        assert report.passed, report.violations


class CompactMachine(TableMachine):
    cls = CompactTable

    def growth_count(self, key):
        return len(self.table) + 1

    @invariant()
    def is_history_independent(self):
        t = self.table
        replay = CompactTable(replace(t.params, growth_enabled=False))
        for key in self.order:
            replay.insert(key)
        assert replay.state_bytes() == t.state_bytes()


class TombstoneMachine(TableMachine):
    cls = TombstoneTable

    def adopt(self, table, order):
        super().adopt(table, order)
        self.mirror = WalkingReference(table.capacity, table.params.step)
        for key in order:
            self.mirror.insert(key)

    def call(self, op, counted, key):
        t = self.table
        m = t.capacity
        answer = super().call(op, counted, key)
        if t.capacity != m:  # a growth rebuilt t from self.order, which insert_key set
            self.adopt(t, self.order)
        if answer is TypeError or answer is KeyOutOfRangeError:  # checks the mirror does not make
            return answer
        want = outcome(getattr(self.mirror, op + "_counted"), key)
        assert want[0] is answer
        if counted and answer is not TableFullError:
            assert self.got[1] == want[1]
        return answer

    def growth_count(self, key):
        # the insert takes the first non-BUSY slot on the key's path; only a FREE one raises the count
        t = self.table
        m, step = t.capacity, t.params.step
        i = key % m
        while t._states[i] == BUSY:
            i = (i + step) % m
        return t.non_free_count + 1 if t._states[i] == FREE else None

    @invariant()
    def index_is_the_busy_slots(self):
        t = self.table
        assert t._slot_of == {key: i for i, (key, state) in enumerate(zip(t._keys, t._states)) if state == BUSY}

    @invariant()
    def shortcuts_are_valid(self):
        assert_shortcuts_valid(self.table)

    @invariant()
    def equals_its_mirror(self):
        assert self.table.state_bytes() == self.mirror.state_bytes()


TestCompactMachine = CompactMachine.TestCase
TestCompactMachine.settings = MACHINE_SETTINGS
TestTombstoneMachine = TombstoneMachine.TestCase
TestTombstoneMachine.settings = MACHINE_SETTINGS
