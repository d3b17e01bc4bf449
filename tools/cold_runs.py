"""Time shiftlab CLI commands cold in a parent and a changed checkout, and
add the timings to a BENCH_*.json file.

Each run is one ``python -m shiftlab.cli`` process on the checkout's
``src/``, and the runs alternate which side goes first.  Per command the
file gets, under ``cold_cli``, each side's wall times and their median, the
peak RSS of each run's process, and whether both sides gave the same exit
code and stdout on every run.  A command already in the file is replaced;
the others stay.

    python3 tools/cold_runs.py --runs 3 --into BENCH_13.json ../parent . \\
        "check axioms --algebra E6 --m 1"
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout: Path, argv: list[str]) -> tuple[float, float, tuple[int, bytes]]:
    """(wall seconds, peak RSS in MB, (exit code, stdout)) of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "shiftlab.cli", *argv], cwd=checkout,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        # reap the child here, for its resource usage; Popen then sees the code
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KB on Linux
    return time.perf_counter() - start, usage.ru_maxrss / 1024, (proc.returncode, out)


def time_command(sides: dict[str, Path], argv: list[str], runs: int) -> dict:
    times: dict[str, list[float]] = {side: [] for side in sides}
    rss: dict[str, list[float]] = {side: [] for side in sides}
    outputs = set()
    for k in range(runs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            wall, peak, output = run_once(sides[side], argv)
            times[side].append(wall)
            rss[side].append(peak)
            outputs.add(output)
    return {**{side: {"runs": t, "median": statistics.median(t), "peak_rss_mb": rss[side]}
               for side, t in times.items()},
            "same_output": len(outputs) == 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent checkout")
    ap.add_argument("change", type=Path, help="the changed checkout")
    ap.add_argument("commands", nargs="+", help="shiftlab arguments, one string per command")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--into", type=Path, required=True,
                    help="the BENCH_*.json file to add the timings to")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    for path in (args.parent, args.change):
        if not (path / "src" / "shiftlab").is_dir():
            ap.error(f"{path} has no src/shiftlab")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    summary = json.loads(args.into.read_text(encoding="utf-8")) if args.into.exists() else {}
    summary.setdefault("cold_cli", {}).update(
        (cmd, time_command(sides, shlex.split(cmd), args.runs)) for cmd in args.commands)
    args.into.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
