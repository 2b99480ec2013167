"""A catalogue of mutants of src/compacthash and the tests that kill them.

Each entry is a one-place edit: a file under src/compacthash/, an exact
old -> new text replacement, and the test node IDs expected to fail on
the mutated code.

    python tests/mutants.py

copies src/ to a temporary directory and first runs every named test
there unmutated, which must pass. Then, one mutant at a time, it applies
the replacement to the copy and runs that mutant's tests against it in
one pytest subprocess under TIMEOUT_S, one subprocess at a time, and
prints one JSON line per mutant with its status. The subprocesses run
under the "mutants" hypothesis profile of tests/conftest.py, which does
not shrink a failing example:

- killed: a test failed (its node ID is listed under "failed");
- timeout: the run was stopped at the timeout;
- survived: every test passed;
- stale: old does not occur exactly once in its file.

It exits 0 iff every mutant was killed or timed out. pytest does not
collect this file; tests/test_mutants.py checks in Tier-1 that no entry
is stale.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TIMEOUT_S = 300  # per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/compacthash/
    old: str
    new: str
    tests: tuple[str, ...]  # node IDs relative to the repository root


MUTANTS = (
    Mutant("tombstone-insert-skips-index", "tombstone.py",
           "        self._keys[i] = key\n        self._slot_of[key] = i\n",
           "        self._keys[i] = key\n",
           ("tests/test_introspect.py::TestCheckInvariants::test_clean_tables_pass",)),
    Mutant("tombstone-remove-keeps-index", "tombstone.py",
           "        i = self._slot_of.pop(key, None)\n",
           "        i = self._slot_of.get(key)\n",
           ("tests/test_introspect.py::TestCheckInvariants::test_clean_tables_pass",)),
    # the index keeps its size, so only a test that reads the dropped entry sees it
    Mutant("tombstone-remove-pops-another-key", "tombstone.py",
           "        i = self._slot_of.pop(key, None)\n",
           "        i = self._slot_of.get(key)\n"
           "        if i is not None:\n"
           "            del self._slot_of[min(self._slot_of, key=key.__eq__)]\n",
           ("tests/test_harness.py::TestRunDifferential::test_correct_tables_pass",)),
    Mutant("compact-contains-answers-count", "compact.py",
           "        return self.contains_counted(key)[0]\n",
           "        return self.contains_counted(key)[1]\n",
           ("tests/test_compact.py::TestContains::test_miss_stops_at_empty_slot",)),
    Mutant("compact-remove-counted-skips-compress", "compact.py",
           "                scanned, moved = self._compress(i)\n",
           "                scanned, moved = 1, 0\n",
           ("tests/test_compact.py::TestRemove::test_chain_slides_back_after_removal",)),
    Mutant("compress-scanned-from-zero", "compact.py",
           "        scanned = 1\n",
           "        scanned = 0\n",
           ("tests/test_compact.py::TestCompress::test_terminates_immediately_on_empty_neighbor",)),
    Mutant("tombstone-twin-calls-public-remove", "tombstone.py",
           "        return self._remove(key), n\n",
           "        return self.remove(key), n\n",
           ("tests/test_tombstone.py::test_twins_survive_public_ops_that_call_them",)),
    Mutant("check-every-countdown-one-op-late", "harness.py",
           "    left = check_every  # ops until the next check\n",
           "    left = check_every + 1  # ops until the next check\n",
           ("tests/test_harness.py::test_run_differential_matches_reference_loop[off]",)),
    Mutant("check-every-float-accepted", "harness.py",
           "    if type(check_every) is not int or check_every < 1:\n",
           "    if check_every < 1:\n",
           ("tests/test_harness.py::TestRunDifferential::test_rejects_bad_check_every",)),
    Mutant("live-keys-fresh-key-off-by-one", "harness.py",
           "map(KEY_MIN.__add__, ",
           "map((KEY_MIN + 1).__add__, ",
           ("tests/test_harness.py::test_batched_live_keys_match_one_key_calls",)),
    Mutant("checker-signed-invalid-state", "introspect.py",
           "    invalid = marks.view(np.uint8) > DELETED\n",
           "    invalid = marks > DELETED\n",
           ("tests/test_checker_equivalence.py::test_targeted_corruptions_at_workload_shape"
            "[TombstoneTable-step1-260ops-invalid-state-minus-1]",)),
    # an insert of a present key at the threshold grows the table, as inserts did before growth moved
    Mutant("compact-grows-before-walk", "compact.py",
           "            raise KeyOutOfRangeError(f\"key {key} is outside the signed 64-bit range\")\n"
           "        m = self._capacity\n",
           "            raise KeyOutOfRangeError(f\"key {key} is outside the signed 64-bit range\")\n"
           "        if self._params.growth_enabled:\n"
           "            self._grow(self._live + 1)\n"
           "        m = self._capacity\n",
           ("tests/test_model.py::TestCompactMachine::runTest",
            "tests/test_probing.py::test_only_an_insert_that_places_a_key_grows_the_table[insert-CompactTable]")),
    Mutant("tombstone-reuse-grows", "tombstone.py",
           "        if s == FREE:\n"
           "            if self._params.growth_enabled and self._grow(self._non_free + 1):\n"
           "                return self._insert(key)\n",
           "        if self._params.growth_enabled and self._grow(self._non_free + 1):\n"
           "            return self._insert(key)\n"
           "        if s == FREE:\n",
           ("tests/test_tombstone.py::TestGrowthAndRehash::test_tombstone_reuse_never_grows",
            "tests/test_model.py::TestTombstoneMachine::runTest")),
    # the answer is the same, but a tracer that patches insert_counted counts the retry as a second insert
    Mutant("compact-retry-calls-public-insert", "compact.py",
           "            return self._insert(key)\n",
           "            return self.insert_counted(key)\n",
           ("tests/test_probing.py::test_rebuilds_place_keys_through_no_public_insert[CompactTable]",)),
    # sorted by slot alone, a key's copies are compared only when no BUSY slot lies between them
    Mutant("checker-duplicates-in-adjacent-slots-only", "introspect.py",
           "    order = np.lexsort((slots_busy, keys_busy))\n",
           "    order = np.argsort(slots_busy, kind=\"stable\")\n",
           ("tests/test_introspect.py::TestCheckInvariants::test_duplicate_key_detected",)),
    Mutant("generator-kind-and-key-draws-swapped", "harness.py",
           "        u, k = draws[0::2], draws[1::2]\n",
           "        k, u = draws[0::2], draws[1::2]\n",
           ("tests/test_golden.py::test_generated_trace_digest",)),
    Mutant("rehash-in-descending-slot-order", "probing.py",
           "        for key in self.keys():\n",
           "        for key in reversed(list(self.keys())):\n",
           ("tests/test_compact.py::test_state_is_the_replay_of_the_live_keys",)),
    # _first_free would then loop for ever on its next call; the tombstone machine and the twin test
    # check the shortcuts after every op
    Mutant("first-free-points-a-slot-at-itself", "tombstone.py",
           "            nxt[i], i = root, nxt.get(i, (i + step) % m)\n",
           "            nxt[i], i = i, nxt.get(i, (i + step) % m)\n",
           ("tests/test_model.py::TestTombstoneMachine::runTest",
            "tests/test_tombstone.py::test_plain_ops_match_their_counted_twins")),
    # an insert that reuses a tombstone counts the walk to its slot, not on to the first FREE slot
    Mutant("tombstone-insert-counts-the-walk-after", "tombstone.py",
           "        return added, n if self._capacity == m else self._walk(key)[1]\n",
           "        return added, self._walk(key)[1]\n",
           ("tests/test_model.py::TestTombstoneMachine::runTest",
            "tests/test_introspect.py::TestCountedOps::test_tombstone_costs")),
    # each table refuses a key one slot before its occupancy cap
    Mutant("compact-table-full-one-key-early", "compact.py",
           "        if self._live == m - 1:\n",
           "        if self._live == m - 2:\n",
           ("tests/test_harness.py::TestRunDifferential::test_table_full_at_the_cap_is_the_oracles_answer",
            "tests/test_model.py::TestCompactMachine::runTest")),
    Mutant("tombstone-table-full-one-key-early", "tombstone.py",
           "            if m - self._non_free == 1:\n",
           "            if m - self._non_free == 2:\n",
           ("tests/test_harness.py::TestRunDifferential::test_tombstone_table_full_where_compact_has_room",
            "tests/test_model.py::TestTombstoneMachine::runTest")),
    # a path of exactly live slots passes the predecessor test when the key after it cyclically sits at its home
    Mutant("checker-path-as-long-as-live-passes", "introspect.py",
           "    gap = (dist >= live) | ",
           "    gap = (dist > live) | ",
           ("tests/test_introspect.py::TestCheckInvariants::test_gap_on_a_path_as_long_as_the_occupied_count",)),
    # at step 3 the cycle order of the gaps is not their slot order
    Mutant("checker-gaps-in-cycle-order", "introspect.py",
           "    idx = _by_slot(np.flatnonzero(gap & ~wrong), slots)\n",
           "    idx = np.flatnonzero(gap & ~wrong)\n",
           ("tests/test_introspect.py::TestCheckInvariants::test_gaps_are_reported_in_slot_order[compact]",)),
    # every block after the first starts one draw late; a workload of one block is unchanged
    Mutant("generator-block-start-one-draw-late", "harness.py",
           "        draws = _draws(spec.seed, start, ",
           "        draws = _draws(spec.seed, start + (start > 0), ",
           ("tests/test_harness.py::test_generate_workload_matches_scalar_reference[base phase across draw blocks]",)),
    # a check of a table that no op changed reuses the last report, whatever was written behind its back
    Mutant("reuse-skips-keys-at-busy-slots", "introspect.py",
           "        if same and not np.count_nonzero(keys[self.slots] != self.keys):\n",
           "        if same:\n",
           ("tests/test_harness.py::test_a_table_changed_behind_its_back_is_checked_again[compact key at a busy slot]",
            "tests/test_harness.py::test_a_table_changed_behind_its_back_is_checked_again"
            "[tombstone key at a busy slot]")),
    Mutant("reuse-skips-tombstone-counters", "introspect.py",
           "len(table), table._non_free, table._states.tobytes())",
           "table._states.tobytes())",
           ("tests/test_harness.py::test_a_table_changed_behind_its_back_is_checked_again[tombstone non-FREE count]",
            "tests/test_harness.py::test_a_table_changed_behind_its_back_is_checked_again[tombstone len]")),
    # as many busy slots, holding the same keys, but with other probe counts
    Mutant("compact-reuse-skips-busy-counts", "introspect.py",
           "            same = seen == self.seen and not np.count_nonzero(pc[self.slots] != self.counts)\n",
           "            same = seen == self.seen\n",
           ("tests/test_harness.py::test_a_table_changed_behind_its_back_is_checked_again"
            "[compact count at a busy slot]",)),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How many times mutant.old occurs in its file under src."""
    return (src / "compacthash" / mutant.file).read_text().count(mutant.old)


def run_tests(tests, src: Path, cwd: Path) -> subprocess.CompletedProcess:
    """pytest on tests, importing compacthash from src; raises subprocess.TimeoutExpired."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile",
           "mutants", "-o", f"pythonpath={src}", *(str(REPO / t) for t in tests)]
    # no bytecode cache: a mutant of the same size, written in the same second, would look fresh
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def _node_id(printed: str, cwd: Path) -> str:
    """A node ID as pytest printed it from cwd, made relative to the repository root."""
    path, sep, rest = printed.partition("::")
    return os.path.relpath(os.path.normpath(cwd / path), REPO) + sep + rest


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        # pytest runs in tmp, so hypothesis keeps the mutants' examples there
        work = Path(tmp)
        src = work / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        base = run_tests(every_test, src, work)
        if base.returncode:
            print(base.stdout[-4000:] + base.stderr[-4000:], file=sys.stderr)
            print(json.dumps({"name": "unmutated", "status": "failed"}))
            return 1
        ok = True
        for m in MUTANTS:
            path = src / "compacthash" / m.file
            clean = path.read_text()
            if clean.count(m.old) != 1:
                status, failed, seconds = "stale", [], 0.0
            else:
                path.write_text(clean.replace(m.old, m.new))
                start = time.perf_counter()
                try:
                    run = run_tests(m.tests, src, work)
                except subprocess.TimeoutExpired:
                    status, failed = "timeout", []
                else:
                    status = "killed" if run.returncode else "survived"
                    # "FAILED <node ID> - <message>"; a parametrize ID may hold spaces
                    failed = [_node_id(line.split(" ", 1)[1].partition(" - ")[0], work)
                              for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
                seconds = round(time.perf_counter() - start, 1)
                path.write_text(clean)
            ok &= status in ("killed", "timeout")
            print(json.dumps({"name": m.name, "status": status, "failed": failed, "seconds": seconds}),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
