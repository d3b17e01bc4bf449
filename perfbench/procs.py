"""Worker processes: a pinned environment, and spawning with exact rusage.

Workers get ``PYTHONPATH`` set to the checkout's ``src/`` and a fixed hash
seed.  Every other ``PYTHON*`` variable is dropped, and so is
``SHIFTLAB_CAPS``.  This keeps ``python -O`` from removing the library's
assert-based route checks.  Each child is reaped with ``wait4``, which gives
its own CPU time and peak RSS.  Library sessions run in children forked by
one session server per run (``worker.py serve``), which reaps them the same
way.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
PYTHON = sys.executable


class BenchError(RuntimeError):
    """The benchmark could not measure: missing source, a crashed worker, a
    worker outside the pinned environment, or a time limit."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SHIFTLAB_CAPS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_source() -> None:
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        raise BenchError(f"no shiftlab source under {SRC}")


def compile_source() -> None:
    """Byte-compile src/ so no timed worker pays for compilation."""
    done = subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC)],
                          env=worker_env(), stdout=subprocess.DEVNULL)
    if done.returncode:
        raise BenchError("compileall failed on src/")


@dataclass
class Done:
    seconds: float       # spawn to reaped
    exit: int
    stdout: str
    stderr: str
    cpu_s: float
    rss_mb: float


def spawn(args: list, deadline: float, stderr_path: Path) -> Done:
    """Run PYTHON ARGS to completion, killing it past ``deadline``
    (a perf_counter value)."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("run exceeded its time limit")
    t0 = perf_counter()
    with open(stderr_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([PYTHON, *args], env=worker_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    if t1 > deadline:
        raise BenchError(f"worker killed at the time limit: {' '.join(args)[:200]}")
    return Done(t1 - t0, proc.returncode, out.decode(), stderr,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@contextmanager
def session_server(deadline: float, stderr_path: Path):
    """A ``worker.py serve`` process; yields ``run(ops, traced) -> reply``.

    The server and the session it is running are killed together past
    ``deadline``, and on any way out the server is stopped and reaped."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("run exceeded its time limit")
    with open(stderr_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([PYTHON, str(BENCH / "worker.py"), "serve",
                                 str(os.getpid())],
                                env=worker_env(), cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(remaining, kill)
        timer.start()

        def run(ops: list, traced: bool) -> dict:
            proc.stdin.write(json.dumps([ops, traced]) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if perf_counter() > deadline:
                raise BenchError("session killed at the time limit")
            if not line:
                err.seek(0)
                raise BenchError(f"session server died: {err.read()[-2000:]}")
            reply = json.loads(line)
            if reply["exit"]:
                err.seek(0)
                raise BenchError(f"session failed: {err.read()[-2000:]}")
            return reply

        try:
            yield run
            proc.stdin.close()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                kill()
                proc.wait()
            proc.stdout.close()


def measure_setup(deadline: float) -> float:
    """Seconds from spawning a worker until ``import shiftlab`` returns;
    also checks that the import resolves inside src/ with asserts on."""
    code = ("import shiftlab, sys; "
            "sys.stdout.write(shiftlab.__file__ + '|' + str(sys.flags.optimize) + '\\n'); "
            "sys.stdout.flush()")
    t0 = perf_counter()
    proc = subprocess.Popen([PYTHON, "-c", code], env=worker_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.close()
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode or not line:
        raise BenchError("worker could not import shiftlab from src/")
    check_worker(*line.decode().strip().rsplit("|", 1))
    return t1 - t0


def check_worker(file: str, optimize) -> None:
    if not Path(file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"shiftlab imported from {file}, outside {SRC}")
    if int(optimize):
        raise BenchError("worker runs with -O; the route checks would vanish")
