import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import compacthash.cli
from compacthash import CompactTable, TombstoneTable, parse_trace
from compacthash.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFuzz:
    def test_small_run_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fuzz", "--seed-count", "3", "--capacity", "257",
                           "--ops", "2000", "--check-every", "500",
                           "--universe", "0:280", "--out-dir", str(tmp_path))
        assert code == 0
        assert out.count(": ok") == 3
        assert not list(tmp_path.iterdir())  # artifacts only on failure

    @pytest.mark.parametrize("flags", [
        ("--capacity", "1", "--ops", "10"),
        ("--capacity", "2", "--ops", "1000"),
        ("--capacity", "16", "--ops", "50", "--seed-start", "-1"),
        ("--capacity", "16", "--ops", "50", "--seed-start", "-3"),
        ("--capacity", "64", "--universe=0:64", "--ops", "3000", "--check-every", "1"),
    ], ids=["cap1", "cap2", "cap16-seed-1", "cap16-seed-3", "cap64-tombstone-saturates"])
    def test_a_table_at_its_occupancy_cap_passes(self, capsys, tmp_path, flags):
        # each run reaches TableFull: both tables at the cap, or the
        # tombstone table alone, its tombstones filling it first
        code, out, _ = run(capsys, "fuzz", "--seed-count", "1", *flags, "--out-dir", str(tmp_path))
        assert code == 0 and ": ok" in out
        assert not list(tmp_path.iterdir())

    def test_disabled_compression_fails_with_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
        code, out, _ = run(capsys, "fuzz", "--seed-count", "5", "--capacity", "257",
                           "--ops", "2000", "--check-every", "1", "--universe", "0:280",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert "FAIL" in out
        traces = list(tmp_path.glob("*.trace"))
        verdicts = list(tmp_path.glob("*.verdict.json"))
        assert len(traces) == 1 and len(verdicts) == 1
        ops, meta = parse_trace(traces[0].read_text())
        assert ops and meta["generator"] == "splitmix64"
        verdict = json.loads(verdicts[0].read_text())
        assert verdict["passed"] is False
        assert verdict["first_divergence"] or verdict["invariant_failures"]

    def test_out_dir_that_is_a_file_exits_2_after_the_fail_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
        out_file = tmp_path / "taken"
        out_file.write_text("")
        code, out, err = run(capsys, "fuzz", "--seed-count", "1", "--capacity", "257", "--ops", "2000",
                             "--check-every", "1", "--universe", "0:280", "--out-dir", str(out_file))
        assert code == 2
        assert out.startswith("seed 0: FAIL") and out.count("\n") == 1
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert out_file.read_text() == ""

    def test_negative_universe_is_given_with_equals(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--universe=-64:64", "--capacity", "64",
                           "--ops", "200", "--seed-count", "1")
        assert code == 0
        assert out.splitlines() == ["seed 0: ok (200 ops)"]

    def test_non_coprime_step_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fuzz", "--capacity", "8", "--step", "2")
        assert code == 2
        assert "StepNotCoprime" in err

    def test_unknown_flag(self, capsys):
        assert run(capsys, "fuzz", "--bogus")[0] == 2


class TestTrace:
    def write(self, tmp_path, text):
        path = tmp_path / "ops.trace"
        path.write_text(text)
        return str(path)

    def test_compact_replay(self, capsys, tmp_path):
        path = self.write(tmp_path, "a 7\na 14\nr 7\nc 14\n")
        code, out, _ = run(capsys, "trace", path, "--table", "compact", "--capacity", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[:4] == ["+", "+", "+", "+"]
        stats = json.loads(lines[4])
        assert stats["histogram"] == {"1": 1}
        assert stats["tombstone_count"] == 0

    def test_tombstone_replay_same_results(self, capsys, tmp_path):
        path = self.write(tmp_path, "a 7\na 14\nr 7\nc 14\n")
        code, out, _ = run(capsys, "trace", path, "--table", "tombstone", "--capacity", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[:4] == ["+", "+", "+", "+"]
        assert json.loads(lines[4])["tombstone_count"] == 1

    def test_capacity_from_header(self, capsys, tmp_path):
        path = self.write(tmp_path, "# capacity=7 step=1\na 7\nc 7\n")
        code, out, _ = run(capsys, "trace", path)
        assert code == 0
        assert out.strip().split("\n")[:2] == ["+", "+"]

    def test_malformed_line(self, capsys, tmp_path):
        path = self.write(tmp_path, "x 5\n")
        code, _, err = run(capsys, "trace", path, "--capacity", "7")
        assert code == 2
        assert "line 1" in err

    def test_capacity_required(self, capsys, tmp_path):
        path = self.write(tmp_path, "a 5\n")
        code, _, err = run(capsys, "trace", path)
        assert code == 2
        assert err == "error: capacity not given and not present in trace headers\n"

    @pytest.mark.parametrize("flags, header, capacity", [
        (("--capacity", "0"), "", 0),
        (("--capacity", "-3"), "", -3),
        ((), "# capacity=0\n", 0),
        (("--capacity", "0"), "# capacity=7\n", 0),
    ], ids=["flag-0", "flag-neg", "header-0", "flag-0-over-header"])
    def test_given_capacity_below_one_is_zero_capacity_error(self, capsys, tmp_path, flags, header, capacity):
        path = self.write(tmp_path, header + "a 5\n")
        code, out, err = run(capsys, "trace", path, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: ZeroCapacityError: capacity must be >= 1, got {capacity}\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "trace", str(tmp_path / "nope.trace"))
        assert code == 2


class TestBench:
    args = ("bench", "--capacity", "64", "--live-target", "16", "--rounds", "3",
            "--batch", "4", "--seed", "5")

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, *self.args, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# schema=1"
        assert lines[1] == ("round,table_kind,mean_success,mean_miss,max_probe,"
                            "load_factor,tombstone_count,relocations_this_round")
        rows = [l for l in lines[2:] if not l.startswith("#")]
        assert len(rows) == 4 * 2  # rounds 0..3, two kinds each
        assert rows[0].startswith("0,compact,") and rows[1].startswith("0,tombstone,")
        assert any(l.startswith("# mean_insert_slots=") for l in lines)
        assert any(l.startswith("# mean_compress_scan_slots=") for l in lines)

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, *self.args, "--format", "csv")
        second = run(capsys, *self.args, "--format", "csv")
        assert first == second

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, *self.args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert len(payload["rows"]) == 8
        assert set(payload["rows"][0]) == {"round", "table_kind", "mean_success", "mean_miss",
                                           "max_probe", "load_factor", "tombstone_count",
                                           "relocations_this_round"}
        assert payload["summary"]["insert_samples"] == 12
        assert payload["summary"]["compress_samples"] == 12

    def test_out_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.args, "--out-dir", str(tmp_path))
        assert code == 0
        assert out == ""
        assert (tmp_path / "bench.csv").read_text().startswith("# schema=1")

    def test_live_target_validation(self, capsys):
        code, _, err = run(capsys, "bench", "--capacity", "64", "--live-target", "63")
        assert code == 2
        assert "live-target" in err

    def test_adversarial_costs(self, capsys):
        code, out, _ = run(capsys, "bench", "--capacity", "256", "--batch", "50",
                           "--adversarial", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["home_miss_cost_tombstone"] == 51
        assert payload["summary"]["home_miss_cost_compact"] == 1
        by_key = {(r["round"], r["table_kind"]): r for r in payload["rows"]}
        assert by_key[(1, "tombstone")]["tombstone_count"] == 50
        assert by_key[(1, "compact")]["load_factor"] == 0.0

    def test_failed_directional_claim_exits_1_after_writing_rows(self, capsys, monkeypatch):
        probe_stats = compacthash.cli.probe_stats

        def cheap_tombstone_misses(table):
            stats = probe_stats(table)
            if isinstance(table, TombstoneTable):
                stats = dataclasses.replace(stats, mean_miss=0.0)
            return stats

        monkeypatch.setattr(compacthash.cli, "probe_stats", cheap_tombstone_misses)
        code, out, err = run(capsys, "bench", "--capacity", "64", "--live-target", "16",
                             "--rounds", "10", "--batch", "4")
        assert code == 1
        assert err == "benchmark assertion failed: tombstone mean_miss below compact at round 10\n"
        rows = [l for l in out.split("\n")[2:] if l and not l.startswith("#")]
        assert len(rows) == 11 * 2

    def test_wrong_adversarial_miss_cost_exits_1_after_writing_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(TombstoneTable, "contains_counted", lambda self, key: (False, 1))
        code, out, err = run(capsys, "bench", "--capacity", "256", "--batch", "50",
                             "--adversarial", "--format", "json")
        assert code == 1
        assert err.startswith("benchmark assertion failed:") and err.count("\n") == 1
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert payload["summary"]["home_miss_cost_tombstone"] == 1

    def test_adversarial_needs_room(self, capsys):
        code, _, err = run(capsys, "bench", "--capacity", "40", "--batch", "50", "--adversarial")
        assert code == 2


@pytest.mark.parametrize("argv, trace_text", [
    (("trace", "{path}"), "# capacity=abc\na 1\n"),
    (("trace", "{path}"), "# capacity=7 step=abc\na 1\n"),
    (("trace", "{path}", "--capacity", "7"), f"a 1\na {2**63}\n"),
    (("trace", "{path}", "--capacity", "3", "--table", "compact"), "a 0\na 1\na 2\n"),
    (("trace", "{path}", "--capacity", "3", "--table", "tombstone"), "a 0\na 1\na 2\n"),
    (("trace", "{path}", "--capacity", "7"), b"\xff\xfe"),
    (("fuzz", "--ops", "0"), None),
    (("fuzz", "--check-every", "0"), None),
    (("fuzz", "--seed-count", "0"), None),
    (("fuzz", "--seed-count", "-3"), None),
    (("fuzz", "--universe", "abc"), None),
    (("fuzz", "--universe", "5"), None),
    (("fuzz", "--universe", "7:3"), None),
    (("fuzz", "--seed-count", "40", "--capacity", "17", "--ops", "5",
      "--universe", "9223372036854775707:9223372036854775809"), None),
    (("fuzz", "--universe", "0:18446744073709551616"), None),
    (("bench", "--batch", "-1"), None),
    (("bench", "--rounds", "-1"), None),
    (("bench", "--batch", "-1", "--adversarial"), None),
    (("bench", "--capacity", "64", "--live-target", "16", "--out-dir", "{path}"), ""),
], ids=["capacity-header", "step-header", "key-2^63", "trace-overfull-compact",
        "trace-overfull-tombstone", "trace-not-utf8", "fuzz-ops-0", "fuzz-check-every-0",
        "fuzz-seed-count-0", "fuzz-seed-count-neg", "fuzz-universe-abc", "fuzz-universe-5",
        "fuzz-universe-empty", "fuzz-universe-past-key-max", "fuzz-universe-2^64",
        "bench-batch-neg", "bench-rounds-neg", "adversarial-batch-neg", "bench-out-dir-is-a-file"])
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, trace_text):
    path = tmp_path / "ops.trace"
    if isinstance(trace_text, bytes):
        path.write_bytes(trace_text)
    elif trace_text is not None:
        path.write_text(trace_text)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == 2


# 2**62 slots fail array's own size check (MemoryError) and 10**20 does
# not fit an index (OverflowError), both before any memory is requested.
@pytest.mark.parametrize("capacity", [2**62, 10**20], ids=["2^62", "10^20"])
@pytest.mark.parametrize("argv", [
    ("fuzz", "--seed-count", "1", "--ops", "1"),
    ("trace", "{path}"),
    ("bench", "--rounds", "0"),
    ("bench", "--batch", "1", "--adversarial"),
], ids=["fuzz", "trace", "bench", "adversarial"])
def test_unallocatable_capacity_exits_2_with_one_error_line(capsys, tmp_path, argv, capacity):
    path = tmp_path / "ops.trace"
    path.write_text("a 1\n")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv), "--capacity", str(capacity))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("MemoryError" if capacity == 2**62 else "OverflowError") in err


# Drawn argv for the property test below, each bounded so that a draw
# does little work: at most 4,096 slots, 300 ops, 3 seeds and 4 rounds.
# A huge capacity is drawn only at 2**62 and above, where the slot arrays
# fail their size check before any memory is requested; ops, rounds and
# seeds are never drawn huge. A huge --batch or --live-target is safe: a
# churn round takes at most the capacity's keys, and either is refused
# against a small capacity before any work, or meets a huge one that
# fails to allocate.
JUNK = st.sampled_from(["", "abc", "1.5", "0x10", "1e3", " 7"])
HUGE = st.sampled_from([2**62, 2**63, 2**64 + 1, 10**20]).map(str)


def mostly(valid, *invalid):
    """valid in 7 draws of 8, else one of invalid or junk."""
    return st.integers(0, 7).flatmap(lambda r: valid if r else st.one_of(JUNK, *invalid))


def ints(lo, hi, *invalid):
    """Values in [lo, hi] mostly, else off by one below, negative, junk or one of invalid."""
    return mostly(st.integers(lo, hi).map(str), st.sampled_from([str(lo - 1), "-1", "-7"]), *invalid)


CAPACITY = mostly(st.integers(1, 4096).map(str), st.sampled_from(["0", "-1", "-4096"]), HUGE)
STEP = mostly(st.sampled_from(["1", "3"]) | st.integers(1, 64).map(str), st.sampled_from(["0", "-1"]), HUGE)
SEED = mostly(st.integers(-2**70, 2**70).map(str))
UNIVERSE = mostly(st.tuples(st.integers(-64, 64), st.integers(-64, 8192)).map("{0[0]}:{0[1]}".format),
                  st.tuples(st.integers(-2**64, 2**64), st.integers(-2**64, 2**64)).map("{0[0]}:{0[1]}".format),
                  st.sampled_from(["5", "3:3", ":", "a:b", "0:"]))
PATHS = ("missing", "directory", "file", "valid-trace", "bad-trace", "not-utf8-trace")

FLAGS = {
    "fuzz": {"--seed-start": SEED, "--seed-count": ints(1, 3), "--capacity": CAPACITY, "--step": STEP,
             "--ops": ints(1, 300), "--check-every": ints(1, 300, HUGE), "--universe": UNIVERSE,
             "--out-dir": st.sampled_from(PATHS)},
    "trace": {"--table": st.sampled_from(["compact", "tombstone", "other", ""]), "--capacity": CAPACITY,
              "--step": STEP},
    "bench": {"--capacity": CAPACITY, "--step": STEP, "--live-target": ints(1, 4096, HUGE),
              "--rounds": ints(0, 4), "--batch": ints(0, 300, HUGE), "--seed": SEED,
              "--format": st.sampled_from(["csv", "json", "xml", ""]), "--out-dir": st.sampled_from(PATHS)},
}
# the flags whose defaults ask for much work are always given
REQUIRED = {"fuzz": {"--seed-count", "--capacity", "--ops", "--out-dir"}, "trace": set(),
            "bench": {"--capacity", "--live-target", "--rounds", "--batch"}}
TRACE_TEXT = {"valid-trace": "# capacity=7 step=3\na 1\na 8\nc 8\nr 1\nc 15\n",
              "bad-trace": "# capacity=7\na 1\nx 2\n"}


@st.composite
def argvs(draw):
    """A subcommand and some of its flags, each a drawn value or a path name; sometimes a stray argument."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = REQUIRED[command] | set(draw(st.lists(st.sampled_from(sorted(flags)), unique=True)))
    argv = [command]
    if command == "trace":
        argv.append(draw(st.sampled_from(PATHS)))
    for flag in sorted(chosen):
        value = draw(flags[flag], label=flag)
        # a value that starts with "-" is given with "=", as a negative --universe must be
        argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    if command == "bench" and draw(st.booleans(), label="adversarial"):
        argv.append("--adversarial")
    if draw(st.integers(0, 9), label="stray") == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-x"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_argv_exits_0_1_or_2_and_a_2_with_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "directory").mkdir()
        (root / "file").write_text("")
        for name, text in TRACE_TEXT.items():
            (root / name).write_text(text)
        (root / "not-utf8-trace").write_bytes(b"a 1\n\xff\xfe\n")
        argv = [str(root / a) if a in PATHS else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
