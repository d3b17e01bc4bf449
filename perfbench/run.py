"""The shiftlab benchmark: one seeded workload per run, in cold workers.

    python3 perfbench/run.py --workload char_orbit --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the checkout's src/.
Every session starts cold, one at a time: a library session in a child forked
from a server that has only imported shiftlab, and a cli_cold op in a fresh
`python -m shiftlab.cli` process.  So caches start cold as they do for a new
Python session or a CLI call.  Work per run is fixed by the seed and
``--seconds``: quotas are calibrated so the seed commit spends about that
long in its ops, and a faster program finishes the same ops sooner.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops untraced and then traced, and reports per-layer metrics from the traced
pass plus the tracing overhead.  Every op's output is checked against the
digests in reference.json.  The drawn ops and the full result are written
to perfbench/results/; the last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import metrics
import procs
import tracer
import worker
from procs import BENCH, ROOT, SRC, BenchError
from workloads import REPEATS, STRATA, WHY, generate, op_key

SETUP_SPAWNS = 21
TIME_LIMIT_S = 170


def provenance() -> dict:
    sha = None
    if shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() if done.returncode == 0 else None
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16], "src_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def references(workload: str) -> tuple[dict, dict]:
    """The op pools and, for this workload, each op key's reference."""
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        pools = json.load(fh)
    return pools, {key: ref for cases in pools[workload].values()
                   for groups in cases.values()
                   for ops in groups.values() for key, ref in ops.items()}


def run_worker(workload: str, session: list, traced: bool, deadline: float,
               tmp: Path, server):
    """One session in a cold worker: (op records, CPU time, peak RSS, trace).
    A library session runs in a child of ``server``; a CLI op is its own
    process."""
    if workload == "cli_cold":
        (op,) = session
        trace_file = tmp / "trace.json"
        trace_file.unlink(missing_ok=True)
        args = ([str(BENCH / "worker.py"), "cli", str(trace_file), *op[1:]]
                if traced else ["-m", "shiftlab.cli", *op[1:]])
        done = procs.spawn(args, deadline, tmp / "stderr.txt")
        raised = worker.cli_raised(done.stderr)
        record = {"key": op_key(op), "dur": done.seconds, "cpu": done.cpu_s,
                  "error": raised, "exit": done.exit,
                  "digest": None if raised else
                  worker.digest(worker.cli_content(done.exit, done.stdout))}
        summary = None
        if traced:
            if not trace_file.is_file():
                raise BenchError(f"traced CLI wrote no trace: {done.stderr[-500:]}")
            summary = json.loads(trace_file.read_text(encoding="utf-8"))
        return [record], done.cpu_s, done.rss_mb, summary
    reply = server(session, traced)
    data = reply["result"]
    procs.check_worker(data["file"], data["optimize"])
    records = [{"key": op_key(op), **rec} for op, rec in zip(session, data["ops"])]
    return records, reply["cpu"], reply["rss"], data["trace"]


def run_pass(workload: str, sessions: list, traced: bool, repeats: int,
             deadline: float, tmp: Path, server, setup: list | None = None) -> dict:
    """Run all sessions, ``repeats`` times over, each time in a cold worker.
    An op's wall and CPU times are their medians over the repetitions, and so
    is a worker's CPU time.  Repetitions are whole passes, so the runs of one
    session are spread over the run: on a shared machine whose speed drifts
    over seconds, their median is steadier from run to run than any single
    repetition or the fastest one.  Every repetition's outputs are
    checked.  With ``setup``, SETUP_SPAWNS set-up times are measured into it
    at even intervals between sessions, so that they too span the run."""
    total = repeats * len(sessions)
    # how many set-up spawns come before session i
    due = Counter(total * k // SETUP_SPAWNS for k in range(SETUP_SPAWNS))
    passes = []
    for i in range(total):
        if setup is not None:
            setup += [procs.measure_setup(deadline) for _ in range(due[i])]
        if i % len(sessions) == 0:
            passes.append([])
        passes[-1].append(run_worker(workload, sessions[i % len(sessions)], traced,
                                     deadline, tmp, server))
    ops, checked, cpu, rss, summaries = [], [], [], [], []
    for reps in zip(*passes):
        for records, _, _, summary in reps:
            checked += records
            if summary is not None:
                summaries.append(summary)
        for j, rec in enumerate(reps[0][0]):
            durs = [r[0][j]["dur"] for r in reps]
            cpus = [r[0][j]["cpu"] for r in reps]
            ops.append({**rec, "dur": median(durs), "cpu": median(cpus),
                        "durs": durs, "cpus": cpus})
        cpu.append(median(r[1] for r in reps))
        rss.append(max(r[2] for r in reps))
    return {"ops": ops, "checked": checked, "cpu": cpu, "rss": rss,
            "summaries": summaries}


def check(ops: list, refs: dict) -> dict:
    """Compare each op with its reference.  A reference of {"raises": ...}
    marks an op known to fail at the seed: it counts as failed while it
    raises and as passed (unverified) once it returns."""
    tally = {"attempted": len(ops), "failed": 0, "known_failures": 0,
             "mismatched": 0, "unexpected_errors": 0, "recovered": 0}
    for rec in ops:
        ref = refs[rec["key"]]
        known = isinstance(ref, dict)
        if rec["error"]:
            tally["failed"] += 1
            tally["known_failures" if known else "unexpected_errors"] += 1
        elif known:
            tally["recovered"] += 1
        elif rec["digest"] != ref:
            tally["failed"] += 1
            tally["mismatched"] += 1
    tally["correct"] = not (tally["mismatched"] or tally["unexpected_errors"])
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STRATA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        procs.check_source()
        pools, refs = references(args.workload)
        procs.compile_source()
        sessions = generate(args.workload, args.seed, args.seconds, pools)
        results = BENCH / "results"
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        tmp = results / f".tmp-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        (results / f"{stem}-ops.json").write_text(
            json.dumps(sessions, indent=1) + "\n", encoding="utf-8")
        try:
            # a traced run reports no set-up time; one spawn checks the import
            setup = [procs.measure_setup(deadline)] if args.trace else []
            # the traced run compares one pass with one pass
            repeats = 1 if args.trace else REPEATS
            # cli_cold ops are processes of their own and need no server
            with (nullcontext() if args.workload == "cli_cold" else
                  procs.session_server(deadline, tmp / "server-stderr.txt")) as server:
                plain = run_pass(args.workload, sessions, False, repeats, deadline,
                                 tmp, server, None if args.trace else setup)
                traced = (run_pass(args.workload, sessions, True, 1, deadline, tmp,
                                   server) if args.trace else None)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = traced or plain
    durations = [r["dur"] for r in measured["ops"]]
    tally = check(measured["ops"], refs)
    tally["correct"] = all(check(p["checked"], refs)["correct"]
                           for p in (plain, traced) if p)
    if traced:
        values = metrics.layer(
            tracer.merge(traced["summaries"]), sum(durations),
            sum(r["dur"] for r in plain["ops"]),
            sum(1 for r in traced["ops"] if r.get("exit")))
        units = {k: v[0] for k, v in metrics.LAYER.items()}
    else:
        values = metrics.e2e(setup, durations, [r["cpu"] for r in plain["ops"]],
                             plain["cpu"], plain["rss"])
        units = {k: v[0] for k, v in metrics.E2E.items()}

    fail_frac = tally["failed"] / tally["attempted"]
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace "
          f"{args.trace}): {len(sessions)} workers, {len(durations)} ops")
    print(f"  why: {WHY[args.workload]}")
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units[name]}")
    print(f"  {'fail_frac':40s} {fail_frac:14.4f} ({tally['failed']} of "
          f"{tally['attempted']} ops; {tally['known_failures']} known seed failures, "
          f"{tally['mismatched']} mismatched, {tally['unexpected_errors']} "
          f"unexpected errors, {tally['recovered']} recovered)")
    print(f"  latency samples: {len(durations)} ops"
          + ("" if args.trace else f"; setup samples: {len(setup)} spawns"))
    prov = provenance()
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": WHY[args.workload], "provenance": prov,
              "fail_frac": fail_frac, **tally,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
              "ops": measured["ops"]}
    if traced:
        record["moves"] = {k: v[2] for k, v in metrics.LAYER.items()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"correct": tally["correct"], "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
