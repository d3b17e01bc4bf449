"""The benchmark's traced runs end with a strict JSON result.

    python3 -m pytest -q tests/test_bench_result.py

Each run goes with the tracer on, as a benchmark comparison runs it, in a
copy of perfbench/ and src/ under a temporary directory, so that its result
files stay out of the checkout: axiom_sweep and char_orbit at their full
30-second size, and cli_cold, the only workload whose traced ops go through
``cli.main`` in ``perfbench/worker.py cli``, at 5 seconds.  Its exit code
must be 0, and the last line of its stdout must parse as JSON without the
NaN and Infinity constants that plain ``json.loads`` accepts: a correct run
whose metrics are each a finite int or float.  A metric reads null when the
tracer lists its target or probe as missing, that is, when a function or
attribute that perfbench/tracer.py names was renamed or deleted.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def refuse_constant(name):
    raise ValueError(f"the result line holds the non-JSON constant {name}")


def assert_strict_result(tmp_path, workload, seconds):
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)


def test_traced_axiom_sweep_prints_a_strict_json_result(tmp_path):
    assert_strict_result(tmp_path, "axiom_sweep", 30)


@pytest.mark.parametrize("workload,seconds", [("char_orbit", 30), ("cli_cold", 5)])
def test_traced_run_prints_a_strict_json_result(tmp_path, workload, seconds):
    assert_strict_result(tmp_path, workload, seconds)
