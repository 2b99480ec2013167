"""The splitmix64 stream and workload generator as they stood before block generation.

ScalarSplitMix64 advances its state by the golden gamma and mixes it,
one Python call per draw. generate_workload draws each base op's kind
and key from that stream in turn and tracks the live keys as it goes.
tests/test_harness.py requires the package's SplitMix64 and
generate_workload to produce exactly what these do. Both are copied
from the earlier compacthash.harness, unchanged but for the records,
which are plain (kind, key) tuples as the package's are now.
"""

from compacthash import ADD, CONTAINS, REMOVE, EmptyKeyUniverseError, WorkloadSpec
from compacthash.harness import LiveKeys

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """Sequential splitmix64 stream; stable across platforms and versions."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def generate_workload(spec: WorkloadSpec) -> list[tuple[str, int]]:
    lo, hi = spec.key_universe
    if hi <= lo:
        raise EmptyKeyUniverseError(f"key universe [{lo}, {hi}) is empty")
    if spec.op_count < 1:
        raise ValueError(f"op_count must be positive, got {spec.op_count}")
    if spec.churn_rounds < 0 or spec.churn_batch < 1:
        raise ValueError("churn_rounds must be >= 0 and churn_batch >= 1")
    w_add, w_contains, w_remove = spec.mix
    if min(spec.mix) < 0 or w_add + w_contains + w_remove <= 0:
        raise ValueError(f"mix weights must be nonnegative and not all zero, got {spec.mix}")

    total = w_add + w_contains + w_remove
    t_add = int(w_add / total * 2**64)
    t_contains = t_add + int(w_contains / total * 2**64)
    span = hi - lo

    rng = ScalarSplitMix64(spec.seed)
    next_u64 = rng.next_u64
    ops: list[tuple[str, int]] = []
    live = LiveKeys()
    live_list, live_index = live.keys, live.index
    track_add, track_remove = live.add, live.discard

    for _ in range(spec.op_count):
        u = next_u64()
        key = lo + next_u64() % span
        if u < t_add:
            ops.append((ADD, key))
            track_add(key)
        elif u < t_contains:
            ops.append((CONTAINS, key))
        else:
            ops.append((REMOVE, key))
            track_remove(key)

    for _ in range(spec.churn_rounds):
        for _ in range(spec.churn_batch):
            if live_list:
                key = live_list[next_u64() % len(live_list)]
            else:
                key = lo + next_u64() % span
            ops.append((REMOVE, key))
            track_remove(key)
        for _ in range(spec.churn_batch):
            for _ in range(4096):
                key = lo + next_u64() % span
                if key not in live_index:
                    break
            else:
                raise EmptyKeyUniverseError(
                    f"could not draw a fresh key from [{lo}, {hi}) with {len(live_list)} keys live")
            ops.append((ADD, key))
            track_add(key)
    return ops
