"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Each workload runs for one nominal second, untraced and traced; every named
metric must be emitted and every op must match its seed digest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import workloads
from run import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
POOLS = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_definitions():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == metrics.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == {k: v[:2] for k, v in metrics.LAYER.items()}


def test_generator_is_seeded_and_stratified():
    seconds = workloads.NOMINAL_SECONDS
    a = workloads.generate("char_orbit", 1, seconds, POOLS)
    assert a == workloads.generate("char_orbit", 1, seconds, POOLS)
    b = workloads.generate("char_orbit", 2, seconds, POOLS)
    assert a != b
    assert len(a) == len(b) == sum(s.sessions for s in workloads.STRATA["char_orbit"])
    assert sum(map(len, a)) == sum(map(len, b))


def test_missing_target_reads_missing():
    summary = {"spans": {}, "counters": {}, "extra": {},
               "missing": ["shift.act_index", "qseries.add.probe"]}
    values = metrics.layer(summary, 1.0, 1.0, 0)
    assert values["shift.act_index.calls"] is None
    assert values["qseries.add.coeffs_out"] is None
    assert values["qseries.add.calls"] == 0


def test_known_failures_count_as_failed_then_passed():
    refs = {"ok": "d1", "known": {"raises": "AssertionError"}}
    ops = [{"key": "ok", "error": None, "digest": "d1"},
           {"key": "known", "error": "AssertionError", "digest": None}]
    tally = check(ops, refs)
    assert tally["correct"] and tally["failed"] == 1 and tally["known_failures"] == 1
    ops[1] = {"key": "known", "error": None, "digest": "new"}
    tally = check(ops, refs)
    assert tally["correct"] and tally["failed"] == 0 and tally["recovered"] == 1
    ops[0]["digest"] = "wrong"
    assert not check(ops, refs)["correct"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.STRATA))
def test_tiny_run_emits_every_metric(workload, trace):
    done = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run("--workload", "cli_cold", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
