"""Time shiftlab CLI commands cold in a parent and a changed checkout, and
add the timings to a BENCH_*.json file.

Each run is one ``python -m shiftlab.cli`` process on the checkout's
``src/``, and the runs alternate which side goes first.  The processes get
perfbench's environment: every ``PYTHON*`` variable is dropped, the hash
seed is fixed, and each checkout is byte-compiled once, before any run, into
a ``PYTHONPYCACHEPREFIX`` under a temporary directory, so that no timed
process compiles and nothing is written into a checkout.  Per command the
file gets, under ``cold_cli``, each side's wall times and their median, the
CPU time of each run's process (user plus system, from ``wait4``, which is
what perfbench's cli_cold takes as an op's latency) and their median, the
peak RSS of each run's process, whether both sides gave the same exit code,
stdout and stderr on every run (compared by SHA-512 digests, so that no
output is held), and the interpreter floor: the wall times of ``python -c
pass`` and their median.  A command already in the file is
replaced; the others stay.  The file is written in any case; the exit code
is 1 if some command of the call gave different outputs, else 0.

A child's peak RSS (``ru_maxrss``) is at least the resident set of this
process when it spawned the child, since exec keeps the high-water mark, so
``peak_rss_mb`` reads about 13.6 MB for ``python -c pass`` from a small
caller and about 133.6 MB from one that holds 120 MB.  This process reads
each child's stdout in chunks and keeps only digests, so it stays small
whatever the commands print; compare the figure between the two sides of
one call only.

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
import tempfile
import time
from pathlib import Path

# the lean builtin that the random module reads: hashlib would load OpenSSL,
# which adds about 3.5 MB to this process and so to every child's peak RSS
try:
    from _sha2 import sha512
except ImportError:  # Python < 3.12
    from _sha512 import sha512


def child_env(checkout: Path, pycache: Path) -> dict:
    """The environment of a process on the checkout: no PYTHON* variable of
    this one, the checkout's src/ on the path, a fixed hash seed and the
    bytecode under ``pycache``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return dict(env, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0",
                PYTHONPYCACHEPREFIX=str(pycache))


def compile_checkout(checkout: Path, pycache: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
                   env=child_env(checkout, pycache), stdout=subprocess.DEVNULL, check=True)


def digest(stream) -> bytes:
    """SHA-512 of what is left to read of a binary stream, read in chunks."""
    h = sha512()
    while chunk := stream.read(1 << 16):
        h.update(chunk)
    return h.digest()


def run_once(checkout: Path, pycache: Path,
             args: list[str]) -> tuple[float, float, float, tuple[int, bytes, bytes]]:
    """(wall seconds, CPU seconds, peak RSS in MB, (exit code, SHA-512 of
    stdout, SHA-512 of stderr)) of one process running ``python ARGS`` on
    the checkout."""
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err, subprocess.Popen(
            [sys.executable, *args], cwd=checkout, env=child_env(checkout, pycache),
            stdout=subprocess.PIPE, stderr=err) as proc:
        out = digest(proc.stdout)
        # reap the child here, for its resource usage; Popen then sees the code
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        output = (proc.returncode, out, digest(err))
    # ru_maxrss is in KB on Linux
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, output


def time_command(sides: dict[str, Path], pycache: Path, argv: list[str], runs: int) -> dict:
    got: dict[str, dict[str, list[float]]] = {
        side: {"runs": [], "cpu": [], "peak_rss_mb": []} for side in sides}
    outputs = set()
    for k in range(runs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            wall, cpu, peak, output = run_once(sides[side], pycache,
                                               ["-m", "shiftlab.cli", *argv])
            for key, value in zip(("runs", "cpu", "peak_rss_mb"), (wall, cpu, peak)):
                got[side][key].append(value)
            outputs.add(output)
    floor = [run_once(sides["change"], pycache, ["-c", "pass"])[0] for _ in range(runs)]
    return {**{side: dict(g, median=statistics.median(g["runs"]),
                          cpu_median=statistics.median(g["cpu"]))
               for side, g in got.items()},
            "same_output": len(outputs) == 1,
            "floor": {"runs": floor, "median": statistics.median(floor)}}


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
    with tempfile.TemporaryDirectory() as tmp:
        pycache = Path(tmp)
        for checkout in set(sides.values()):
            compile_checkout(checkout, pycache)
        for cmd in args.commands:
            got = summary.setdefault("cold_cli", {})[cmd] = time_command(
                sides, pycache, shlex.split(cmd), args.runs)
            print(f"{cmd}: parent {got['parent']['median']:.3f} s "
                  f"(CPU {got['parent']['cpu_median']:.3f} s), change "
                  f"{got['change']['median']:.3f} s (CPU {got['change']['cpu_median']:.3f} s), "
                  f"python -c pass {got['floor']['median']:.3f} s"
                  + ("" if got["same_output"] else ", OUTPUTS DIFFER"))
    args.into.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(summary["cold_cli"][cmd]["same_output"] for cmd in args.commands) else 1


if __name__ == "__main__":
    sys.exit(main())
