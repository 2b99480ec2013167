"""Pinned output digests: refactors must reproduce these bytes exactly.

The digests were recorded from the implementation before the two tables
shared a core; the fuzz failure artifact digests, before the churn
steps moved into LiveKeys; the two bench runs at capacities 64 and 31,
before a churn round drew each phase's keys in one LiveKeys call; the
generated trace digest, by the generator that still had a churn phase,
from the same spec with no churn rounds. The
first bench runs use a small table that the churn drives into the
tombstone table's saturated regime, where FREE slots are scarce, at a
unit and a non-unit step. At capacities 64 and 31 each batch exceeds the
room under the occupancy cap, so rounds stop inserting at the cap, and at
64 the tombstone table raises TableFull 13 times.
"""

import hashlib

import pytest

from compacthash import CompactTable, WorkloadSpec, format_trace, generate_workload
from compacthash.cli import main


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_generated_trace_digest():
    spec = WorkloadSpec(seed=11, op_count=3000, key_universe=(-500, 700))
    meta = {"capacity": 257, "step": 3, "seed": 11, "generator": "splitmix64"}
    assert sha256(format_trace(generate_workload(spec), meta)) == (
        "2150e8a9d327114d0a7786dd3883507b8b575a0686262e1ac5ef7214ca49a998")


CHURN = ("bench", "--capacity", "4096", "--live-target", "2048", "--batch", "1024", "--rounds", "12")


@pytest.mark.parametrize("argv, digest", [
    (CHURN + ("--step", "1"), "4e3732a77526daf2f7707d698bf672abdc2d5a9b598d7a24ffa47b89306a7536"),
    (CHURN + ("--step", "3"), "5f742c317fbd7205067d9f11885d89c45007c16cc8eccc3e93aeee225472fc6e"),
    (("bench", "--capacity", "4096", "--step", "3", "--batch", "300", "--adversarial", "--format", "json"),
     "444e25c328edc52edb9ed2a895d7b9bb01cca6c77c3c4f1d363eaf2680a73f3e"),
    (("bench", "--capacity", "64", "--live-target", "10", "--batch", "100", "--rounds", "4"),
     "e45e2d9c7debbeeb31fdc334de0be2c655941e3c05411ce918457c91cf1b8f36"),
    (("bench", "--capacity", "31", "--step", "2", "--live-target", "29", "--batch", "40", "--rounds", "5",
      "--format", "json"),
     "20ae6634c4163a533ad254134f6a4a6754175af20de522dbf14cd8808f81f4df"),
], ids=["churn-step1", "churn-step3", "adversarial-json", "churn-cap-tablefull", "churn-cap-step2-json"])
def test_bench_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_fuzz_failure_artifact_digests(capsys, tmp_path, monkeypatch):
    # a remove that skips compaction makes seed 0 fail; its trace pins the
    # header order and its verdict pins the verdict JSON
    monkeypatch.setattr(CompactTable, "_compress", lambda self, free: (0, 0))
    argv = ["fuzz", "--seed-count", "5", "--capacity", "257", "--ops", "2000",
            "--check-every", "1", "--universe", "0:280", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    capsys.readouterr()
    assert sha256((tmp_path / "seed0.trace").read_text()) == (
        "44ad83466e2537562733a6e5ccce893359ed9981118fda8e1b537fc4438d1067")
    assert sha256((tmp_path / "seed0.verdict.json").read_text()) == (
        "12ee36b6a6bc4bfc15e0ad7179ffe1682b535a95109defbca7606d8c962e2b54")
