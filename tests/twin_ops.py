"""Cases for the tests that drive both tables through drawn ops.

table_params draws any accepted TableParams up to a capacity; twin_cases
draws them at capacities 1-23, with ops on keys that stress both paths,
for the tests that hold each table's plain ops to their counted twins;
outcome turns an op's answer or error into a value two runs can compare;
assert_shortcuts_valid checks a TombstoneTable's next-FREE shortcuts, and
WalkingReference is the literal walk that its placement and counts follow.
"""

from array import array
from math import gcd

from hypothesis import strategies as st

from compacthash import BUSY, DELETED, FREE, KeyOutOfRangeError, TableFullError, TableParams
from compacthash.probing import KEY_MAX, KEY_MIN


@st.composite
def table_params(draw, max_capacity):
    """Any accepted TableParams at capacities 1-max_capacity: every coprime
    step, any step at capacity 1, growth on and off."""
    capacity = draw(st.integers(1, max_capacity))
    steps = [s for s in range(1, capacity) if gcd(s, capacity) == 1]
    step = draw(st.sampled_from(steps) if steps else st.integers(1, 64))
    return TableParams(capacity, step, draw(st.booleans()))


@st.composite
def twin_cases(draw):
    """Any accepted TableParams at capacities 1-23 and ops on keys whose
    homes collide, the ends of the key range, a key past it, 1 and 1.0."""
    params = draw(table_params(23))
    capacity = params.capacity
    keys = st.integers(-3 * capacity - 3, 3 * capacity + 3) | st.sampled_from([KEY_MIN, KEY_MAX, KEY_MAX + 1, 1, 1.0])
    return params, draw(st.lists(st.tuples(st.sampled_from(["insert", "contains", "in", "remove"]), keys),
                                 max_size=60))


def outcome(call, key):
    """call(key), or the type and message of the error it raised."""
    try:
        return call(key)
    except (TypeError, KeyOutOfRangeError, TableFullError) as e:
        return type(e), str(e)


def assert_shortcuts_valid(table):
    """Each next-FREE shortcut maps a non-FREE slot to a later slot on its
    path, with only non-FREE slots strictly between."""
    m, step = table.capacity, table.params.step
    for slot, target in table._next_free.items():
        assert table._states[slot] != FREE
        i = (slot + step) % m
        while i != target:
            assert i != slot and table._states[i] != FREE
            i = (i + step) % m


class WalkingReference:
    """Literal three-state walk, used as the oracle for placement and probe counts.

    Probes one slot at a time: remembers the first DELETED slot, stops at
    FREE or on the key, reuses the remembered tombstone if the key was
    absent. Kept deliberately naive.
    """

    def __init__(self, capacity, step=1):
        self.m = capacity
        self.step = step
        self.keys = [0] * capacity
        self.states = [FREE] * capacity
        self.live = 0
        self.non_free = 0

    def _walk(self, key):
        i = key % self.m
        reuse = -1
        n = 0
        while True:
            n += 1
            s = self.states[i]
            if s == FREE:
                return i, reuse, False, n
            if s == BUSY and self.keys[i] == key:
                return i, reuse, True, n
            if s == DELETED and reuse < 0:
                reuse = i
            i = (i + self.step) % self.m

    def insert(self, key):
        return self.insert_counted(key)[0]

    def insert_counted(self, key):
        i, reuse, found, n = self._walk(key)
        if found:
            return False, n
        target = reuse if reuse >= 0 else i
        if self.states[target] == FREE:
            if self.m - self.non_free == 1:
                raise TableFullError()
            self.non_free += 1
        self.states[target] = BUSY
        self.keys[target] = key
        self.live += 1
        return True, n

    def contains_counted(self, key):
        return self._walk(key)[2:]

    def remove_counted(self, key):
        i, _, found, n = self._walk(key)
        if found:
            self.states[i] = DELETED
            self.keys[i] = 0
            self.live -= 1
        return found, n

    def state_bytes(self):
        return array("b", self.states).tobytes() + array("q", self.keys).tobytes()
