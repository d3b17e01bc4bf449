"""Summarize perfbench results into a committed BENCH_*.json file.

The two sides are the perfbench results directories of a parent checkout
and of a changed one.  For every workload and side the summary holds the
seeds, the git SHA, the ``src/`` line count, the correctness and failure
counts of each run, and the median and quartiles of each end-to-end metric
named in BENCHMARK.json.  Runs on the same seed form a pair, and each metric
gets the pair count, the number of pairs the change wins, the median change,
whether it stays within the metric's regression bound, and whether the
medians differ by more than the parent's IQR.  Where both sides have traced
runs of a workload, the summary adds their seeds and the values of each
per-layer metric named in BENCHMARK.json.

    python3 tools/bench_summary.py --out BENCH_8.json \\
        ../parent/perfbench/results perfbench/results
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def load_runs(results: Path, trace: int = 0) -> dict[str, list[dict]]:
    """Untraced (trace 0) or traced (trace 1) runs per workload, ordered by
    seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(results.glob(f"*-trace{trace}.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(run["workload"], []).append(run)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def side_summary(runs: list[dict], metrics: list[dict]) -> dict:
    prov = [r["provenance"] for r in runs]
    out = {
        "seeds": [r["seed"] for r in runs],
        "git_sha": sorted({str(p["git_sha"]) for p in prov}),
        "src_lines": sorted({p["src_lines"] for p in prov}),
        "correct": all(r["correct"] for r in runs),
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
    }
    for m in metrics:
        out[m["name"]] = {"unit": m["unit"],
                          **quartiles([r["metrics"][m["name"]]["value"] for r in runs])}
    return out


def traced_summary(runs: list[dict], layers: list[dict]) -> dict:
    return {"seeds": [r["seed"] for r in runs],
            **{m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in layers}}


def compare(base: list[dict], new: list[dict], metrics: list[dict]) -> dict:
    """Per metric over the seeds both sides ran: wins of the new side (ties
    count for neither), medians, the base's IQR and the bound check."""
    new_by_seed = {r["seed"]: r for r in new}
    pairs = [(b, new_by_seed[b["seed"]]) for b in base if b["seed"] in new_by_seed]
    out: dict = {"pairs": len(pairs)}
    for m in metrics if pairs else ():
        sign = 1 if m["better"] == "lower" else -1
        b_vals = [b["metrics"][m["name"]]["value"] for b, _ in pairs]
        n_vals = [n["metrics"][m["name"]]["value"] for _, n in pairs]
        b_q, n_q = quartiles(b_vals), quartiles(n_vals)
        change = (n_q["median"] - b_q["median"]) / b_q["median"]
        out[m["name"]] = {
            "wins": sum(sign * (b - n) > 0 for b, n in zip(b_vals, n_vals)),
            "base_median": b_q["median"], "base_iqr": b_q["iqr"],
            "new_median": n_q["median"], "new_iqr": n_q["iqr"],
            "change": change,
            "within_bound": sign * change <= m["bound"],
            "gain_beyond_base_iqr": sign * (b_q["median"] - n_q["median"]) > b_q["iqr"],
        }
    return out


def summarize(parent: Path, change: Path, benchmark: dict) -> dict:
    metrics = benchmark["end_to_end"]
    base, new = load_runs(parent), load_runs(change)
    traced = load_runs(parent, 1), load_runs(change, 1)
    out: dict = {}
    for w in sorted(base.keys() & new.keys()):
        out[w] = {"parent": side_summary(base[w], metrics),
                  "change": side_summary(new[w], metrics),
                  "pairs": compare(base[w], new[w], metrics)}
        if all(w in t for t in traced):
            out[w]["traced"] = {side: traced_summary(t[w], benchmark["per_layer"])
                                for side, t in zip(("parent", "change"), traced)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's perfbench results directory")
    ap.add_argument("change", type=Path, help="the change's perfbench results directory")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for path in (args.parent, args.change):
        if not path.is_dir():
            ap.error(f"{path} is not a directory")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = summarize(args.parent, args.change, benchmark)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
