"""The benchmark's traced axiom_sweep run ends with a strict JSON result.

    python3 -m pytest -q tests/test_bench_result.py

The run goes at its full 30-second size with the tracer on, as a benchmark
comparison runs it, in a copy of perfbench/ and src/ under a temporary
directory, so that its result files stay out of the checkout.  Its exit code
must be 0, and the last line of its stdout must parse as JSON without the
NaN and Infinity constants that plain ``json.loads`` accepts: a correct run
whose metrics are each a finite number or null.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refuse_constant(name):
    raise ValueError(f"the result line holds the non-JSON constant {name}")


def test_traced_axiom_sweep_prints_a_strict_json_result(tmp_path):
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "axiom_sweep",
                           "--seed", "1", "--seconds", "30", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert value is None or (type(value) in (int, float) and math.isfinite(value)), name
