"""Cases for the tests that hold each table's plain ops to their counted twins.

twin_cases draws any accepted TableParams at capacities 1-23 and ops on
keys that stress both paths; outcome turns an op's answer or error into
a value two runs can compare.
"""

from math import gcd

from hypothesis import strategies as st

from compacthash import KeyOutOfRangeError, TableFullError, TableParams
from compacthash.probing import KEY_MAX, KEY_MIN


@st.composite
def twin_cases(draw):
    """Any accepted TableParams at capacities 1-23 (every coprime step, any
    step at capacity 1, growth on and off) and ops on keys whose homes
    collide, the ends of the key range, a key past it, 1 and 1.0."""
    capacity = draw(st.integers(1, 23))
    steps = [s for s in range(1, capacity) if gcd(s, capacity) == 1]
    step = draw(st.sampled_from(steps) if steps else st.integers(1, 64))
    params = TableParams(capacity, step, draw(st.booleans()))
    keys = st.integers(-3 * capacity - 3, 3 * capacity + 3) | st.sampled_from([KEY_MIN, KEY_MAX, KEY_MAX + 1, 1, 1.0])
    return params, draw(st.lists(st.tuples(st.sampled_from(["insert", "contains", "in", "remove"]), keys),
                                 max_size=60))


def outcome(call, key):
    """call(key), or the type and message of the error it raised."""
    try:
        return call(key)
    except (TypeError, KeyOutOfRangeError, TableFullError) as e:
        return type(e), str(e)
