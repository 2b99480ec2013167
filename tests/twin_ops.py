"""Cases for the tests that drive both tables through drawn ops.

table_params draws any accepted TableParams up to a capacity; twin_cases
draws them at capacities 1-23, with ops on keys that stress both paths,
for the tests that hold each table's plain ops to their counted twins;
outcome turns an op's answer or error into a value two runs can compare;
assert_shortcuts_valid checks a TombstoneTable's next-FREE shortcuts.
"""

from math import gcd

from hypothesis import strategies as st

from compacthash import FREE, KeyOutOfRangeError, TableFullError, TableParams
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
        assert table.slot(slot).state != FREE
        i = (slot + step) % m
        while i != target:
            assert i != slot and table.slot(i).state != FREE
            i = (i + step) % m
