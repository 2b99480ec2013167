import json

import pytest

from compacthash import CompactTable, parse_trace
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
    (("bench", "--batch", "-1"), None),
    (("bench", "--rounds", "-1"), None),
    (("bench", "--batch", "-1", "--adversarial"), None),
], ids=["capacity-header", "step-header", "key-2^63", "trace-overfull-compact",
        "trace-overfull-tombstone", "trace-not-utf8", "fuzz-ops-0", "fuzz-check-every-0",
        "fuzz-seed-count-0", "fuzz-seed-count-neg", "bench-batch-neg", "bench-rounds-neg",
        "adversarial-batch-neg"])
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
