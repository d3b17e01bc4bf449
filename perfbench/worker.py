"""Runs benchmark ops in cold workers and digests their outputs.

Serve mode runs library sessions::

    python perfbench/worker.py serve PARENT_PID

It imports shiftlab once and then reads one request per line on stdin, a
JSON ``[ops, traced]``.  Each session runs in a child forked for it, which
starts from the state a fresh interpreter has right after ``import
shiftlab``: nothing has run yet, so the library's caches are cold, but the
session does not pay for interpreter start (``setup_s`` measures that).
The child runs the ops back to back; the reply, one JSON line on stdout,
holds each op's wall and CPU time, outcome and output digest, the trace
summary when traced, and the child's exit status, CPU time and peak RSS.

CLI mode runs one ``shiftlab`` command under the tracer, as ``python -m
shiftlab.cli ARGS`` would run it untraced, and writes the trace summary to
TRACE_JSON::

    python perfbench/worker.py cli TRACE_JSON ARGS...

The parent imports this module only for the digest helpers; nothing here
imports shiftlab at module level.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter, process_time

# op name -> (shiftlab module, function)
CALLS = {
    "verify_axioms": ("shift", "verify_axioms"),
    "condition_report": ("shift", "condition_report"),
    "multiplet_char": ("characters", "multiplet_char"),
    "multiplet_superchar": ("characters", "multiplet_superchar"),
    "multiplet_ramond_char": ("characters", "multiplet_ramond_char"),
    "ft_char": ("characters", "ft_char"),
    "walg_vacuum_oracle": ("characters", "walg_vacuum_oracle"),
    "verma_char_super": ("characters", "verma_char_super"),
    "alcove_json": ("alcove", "alcove_json"),
}


def digest(content) -> str:
    text = json.dumps(content, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def content(value):
    """The mathematical content of an op's result.

    Report ``counts`` are left out: they describe how the work was done,
    and are expected to grow timing fields.
    """
    if hasattr(value, "coeffs"):
        return {"base": str(value.base), "grid": value.grid,
                "coeffs": list(value.coeffs), "cutoff": str(value.cutoff)}
    if hasattr(value, "to_json_dict"):
        d = value.to_json_dict()
        d.pop("counts", None)
        return d
    return value


def cli_content(exit_code: int, stdout: str):
    try:
        out = json.loads(stdout)
    except ValueError:
        out = stdout
    if isinstance(out, dict):
        out.pop("counts", None)
    return {"exit": exit_code, "stdout": out}


def cli_raised(stderr: str) -> str | None:
    """Name of the exception a CLI process died with, from its traceback."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    last = stderr.strip().splitlines()[-1]
    return last.split(":", 1)[0].rsplit(".", 1)[-1]


def execute(op, cases: dict):
    """One public call; ``cases`` holds the session's ShiftCase objects."""
    import shiftlab

    name, lie, variant, m = op[:4]
    case = cases.get((lie, variant, m))
    if case is None:
        case = cases[(lie, variant, m)] = shiftlab.shift.make_case(lie, variant, m)
    module, func = CALLS[name]
    fn = getattr(getattr(shiftlab, module), func)
    if name in ("verify_axioms", "condition_report"):
        return fn(case)
    if name == "walg_vacuum_oracle":
        return fn(case, op[4])

    def lam_of(label):
        idx, *digits = (int(x) for x in label.split(","))
        return shiftlab.shift.lambda_from(case, idx, digits)

    if name == "ft_char":
        return fn(lam_of(op[4]), case, op[5])
    alpha = tuple(Fraction(a) for a in op[4])
    lam = lam_of(op[5])
    if name == "alcove_json":
        return fn(case, alpha, lam)
    if name == "verma_char_super":
        mu = tuple(case.p * (lv - a) for lv, a in zip(lam.value, alpha))
        return fn(mu, case, op[6])
    return fn(alpha, lam, case, op[6])


def run_session(ops: list, traced: bool) -> dict:
    import shiftlab

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    cases: dict = {}
    results = []
    for op in ops:
        span = tracer.open("bench.op") if tracer else None
        c0, t0 = process_time(), perf_counter()
        error = None
        try:
            value = execute(op, cases)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = type(exc).__name__
        t1, c1 = perf_counter(), process_time()
        if tracer:
            tracer.close(span, error)
            t0, t1 = span[3], span[4]  # the op span is the op's latency
        results.append({"dur": t1 - t0, "cpu": c1 - c0, "error": error,
                        "digest": None if error else digest(content(value))})
    return {"file": shiftlab.__file__, "optimize": sys.flags.optimize,
            "ops": results, "trace": tracer.summary() if tracer else None}


def run_cli(trace_path: str, argv: list) -> int:
    from tracer import Tracer

    tracer = Tracer()
    span = tracer.open("cli.import")
    import shiftlab.cli
    tracer.close(span)
    tracer.install()
    try:
        return shiftlab.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


def _die_with(parent: int) -> None:
    """Be killed when ``parent`` ends (Linux), so that no worker outlives
    the benchmark run, however that run ends."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it ended before the request took effect
        os._exit(1)


def serve(parent: int) -> int:
    _die_with(parent)
    import shiftlab  # noqa: F401  (the state every session starts from)

    server = os.getpid()
    for line in sys.stdin:
        ops, traced = json.loads(line)
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            _die_with(server)
            os.close(rfd)
            os.dup2(2, 1)  # the reply channel is the parent's alone
            code = 0
            try:
                with os.fdopen(wfd, "w", encoding="utf-8") as out:
                    json.dump(run_session(ops, traced), out)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(wfd)
        with os.fdopen(rfd, encoding="utf-8") as inp:
            result = inp.read()
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        reply = {"exit": code, "cpu": usage.ru_utime + usage.ru_stime,
                 "rss": usage.ru_maxrss / 1024,
                 "result": json.loads(result) if code == 0 else None}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "serve":
        return serve(int(argv[1]))
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
