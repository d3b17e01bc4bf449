"""Build ``reference.json``: every op the generator may draw, with the digest
of its output.

    PYTHONPATH=src python3 perfbench/reference.py

Run it only on the commit whose outputs are the reference (the seed).  The
pools are enumerated here with shiftlab itself (cosets, strong cosets,
dominant weights); the benchmark later reads them from the file and never
imports shiftlab in its own process.  Library ops are digested through the
same ``worker.execute`` the benchmark times; CLI ops run as processes.  An
op that raises is stored as ``{"raises": <exception name>}``: it counts as
failed while it raises, and as passed once it returns.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

import procs
import worker
from workloads import op_key

OUT = Path(__file__).resolve().parent / "reference.json"

CHAR_ORDERS = (10, 25, 40)
KINDS = {"nonsuper": ("multiplet_char",),
         "super": ("multiplet_char", "multiplet_superchar"),
         "ramond": ("multiplet_ramond_char",)}


def _case(lie, variant, m):
    import shiftlab
    return shiftlab.make_case(lie, variant, m)


def lambdas(case) -> list[str]:
    import shiftlab
    return [lam.label() for lam in shiftlab.enumerate_lambda(case)]


def strong(case) -> list[str]:
    import shiftlab
    return [lam.label() for lam in shiftlab.enumerate_lambda(case)
            if shiftlab.alcove_inequality(lam, case)]


def alphas(case, max_height: int) -> list[list[int]]:
    rs = case.rs
    return [list(c) for c in product(range(max_height + 1), repeat=rs.rank)
            if sum(c) <= max_height and rs.is_dominant(tuple(Fraction(x) for x in c))]


def cid(lie, variant, m) -> str:
    return f"{lie}:{variant}:{m}"


# -- library pools --------------------------------------------------------------

def axiom_units(cases) -> dict:
    return {cid(*c): {"unit": [["verify_axioms", *c], ["condition_report", *c]]}
            for c in cases}


def char_groups(lie, variant, m, max_height=3, kinds=None, orders=CHAR_ORDERS,
                with_alcove=True) -> dict:
    case = _case(lie, variant, m)
    al = alphas(case, max_height)
    groups = {"char": [[k, lie, variant, m, a, lam, o]
                       for k in kinds or KINDS[variant]
                       for lam in lambdas(case) for a in al for o in orders]}
    if with_alcove:
        groups["alcove"] = [["alcove_json", lie, variant, m, a, lam]
                            for lam in strong(case) for a in al]
    return groups


def library_pools() -> dict:
    n = "nonsuper"
    rank2 = [(t, n, m) for t in ("A2", "B2", "C2", "G2") for m in (1, 2, 3)]
    rank2 += [("B2", v, m) for v in ("super", "ramond") for m in (1, 2, 3)]
    b3 = [("B3", v, 2) for v in ("super", "ramond")]
    ft_small = [("A1", n, 2, o) for o in (10, 20)] + [("A1", n, 3, o) for o in (10, 20)]
    ft_small += [("A2", n, 1, 4), ("A2", n, 2, 4), ("B2", n, 1, 4),
                 ("B2", "super", 2, 4), ("G2", n, 1, 3), ("G2", n, 1, 5)]
    ft = {"ft_small": [["ft_char", t, v, m, lam, o] for t, v, m, o in ft_small
                       for lam in lambdas(_case(t, v, m))],
          "ft_a3": [["ft_char", "A3", n, 1, lam, o]
                    for lam in lambdas(_case("A3", n, 1)) for o in (3, 4)]}
    rank12 = [("A1", n, 2), ("A1", n, 3), ("B1", "super", 2), ("B1", "super", 3),
              ("B1", "ramond", 2), ("B1", "ramond", 3), ("A2", n, 1), ("A2", n, 2),
              ("B2", n, 1), ("B2", n, 2), ("B2", "super", 2), ("B2", "super", 3),
              ("C2", n, 2), ("G2", n, 1), ("G2", n, 2)]
    rank3 = [("A3", n, 1), ("A3", n, 2), ("B3", n, 1), ("B3", "super", 1),
             ("B3", "super", 2), ("C3", n, 1)]
    # F4 (seconds a case) is left out, as is C3 at m=2 from the axiom
    # sweep, so that every session stays short to repeat; cli_cold's
    # `lambda` may still walk W(F4)
    rank4 = [("B4", "super", 1), ("D4", n, 1), ("A4", n, 1)]
    return {
        "axiom_sweep": {
            "rank2": axiom_units(rank2),
            "rank3": axiom_units([("A3", n, 1), ("A3", n, 2), ("B3", n, 1),
                                  ("C3", n, 1)]),
            "b3pair": {"B3:super+ramond:2": {"unit": [
                [op, *c] for c in b3 for op in ("verify_axioms", "condition_report")]}},
            "rank4": axiom_units(rank4),
        },
        "char_orbit": {
            "rank12": {cid(*c): char_groups(*c) for c in rank12},
            "b2ramond": {cid("B2", "ramond", m): char_groups("B2", "ramond", m)
                         for m in (2, 3)},
            "rank3": {cid(*c): char_groups(*c) for c in rank3},
            "rank4": {cid(*c): char_groups(*c, kinds=("multiplet_char",),
                                           with_alcove=False) for c in rank4},
            "ft": {"ft": ft},
        },
    }


# -- CLI pools ------------------------------------------------------------------

def _cli_case_args(lie, variant, m) -> list[str]:
    return ["--algebra", lie, "--variant", variant, "--m", str(m)]


def cli_pools() -> dict:
    n = "nonsuper"
    cheap = [["info", "--algebra", t] for t in
             ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
              "G2", "F4", "E6")]
    for c in [("A1", n, 2), ("A1", n, 3), ("B1", "super", 2), ("A2", n, 2),
              ("B2", n, 2), ("B2", "super", 2), ("G2", n, 1)]:
        case = _case(*c)
        for lam in lambdas(case)[:3]:
            for kind in ("ch", "sch") if c[1] == "super" else ("ch",):
                cheap.append(["char", *_cli_case_args(*c), "--lambda", lam,
                              "--kind", kind, "--order", "20"])
    for c in [("A1", n, 2), ("B1", "super", 2), ("B1", "super", 3), ("A2", n, 2),
              ("B2", n, 2), ("B2", "super", 3)]:
        for lam in strong(_case(*c))[:4]:
            cheap.append(["alcove", *_cli_case_args(*c), "--alpha", "0", "--lambda", lam])
    for c in [("A1", n, 1), ("A1", n, 2), ("A1", n, 3), ("A2", n, 1), ("A2", n, 2),
              ("B2", n, 1), ("G2", n, 1), ("B1", "super", 2)]:
        cheap.append(["verify", "wchar", *_cli_case_args(*c), "--order", "30"])
    for c in [("A1", n, 2), ("A2", n, 2), ("B2", n, 2), ("G2", n, 1)]:
        cheap.append(["verify", "walls", *_cli_case_args(*c)])
    for c in [("B1", "super", 2), ("B1", "super", 3), ("B2", "super", 2)]:
        cheap.append(["verify", "verma", *_cli_case_args(*c)])
    for c in [("A2", n, 2), ("B2", n, 1), ("B2", n, 2), ("B2", "super", 3),
              ("C2", n, 2), ("G2", n, 1), ("G2", n, 2)]:
        cheap.append(["check", "weak-strong", *_cli_case_args(*c)])
    for c in [("A1", n, 2), ("A2", n, 2), ("B2", n, 2), ("B2", "super", 2), ("G2", n, 1)]:
        cheap.append(["lambda", *_cli_case_args(*c)])
    cheap += [["ftchar", *_cli_case_args("A1", n, m), "--lambda", "0,1", "--order", "10"]
              for m in (2, 3)]
    ramond = [["char", *_cli_case_args("B2", "ramond", m), "--lambda", lam,
               "--kind", "ramond"]
              for m in (2, 3) for lam in lambdas(_case("B2", "ramond", m))]
    ramond += [["char", *_cli_case_args("B1", "ramond", m), "--lambda", lam,
                "--kind", "ramond"]
               for m in (2, 3) for lam in lambdas(_case("B1", "ramond", m))]
    # heavy strata group commands of similar cost; commands of seconds (F4
    # characters, B5 and D5 lambda) are left out, so that every command
    # stays short to repeat
    heavy_a = [["lambda", *_cli_case_args("F4", n, 1)],
               ["char", *_cli_case_args("B4", "super", 1), "--lambda", "0,1,1,1,1",
                "--order", "10"]]
    heavy_b = [["lambda", *_cli_case_args("B4", n, 1)],
               ["lambda", *_cli_case_args("B4", "super", 1)]]
    strata = {"ramond": ramond, "heavy_a": heavy_a, "heavy_b": heavy_b}
    for argv in cheap:  # one stratum per subcommand keeps the mix fixed
        strata.setdefault(f"cheap_{argv[0]}", []).append(argv)
    return {"cli_cold": {name: {" ".join(argv): {"cli": [["cli", *argv]]}
                                for argv in cmds}
                         for name, cmds in strata.items()}}


# -- digests --------------------------------------------------------------------

def library_digest(op, cases) -> dict | str:
    try:
        value = worker.execute(op, cases)
    except Exception as exc:
        return {"raises": type(exc).__name__}
    return worker.digest(worker.content(value))


def cli_digest(op, tmp: Path) -> dict | str:
    done = procs.spawn(["-m", "shiftlab.cli", *op[1:]], perf_counter() + 170,
                       tmp / "reference-stderr.txt")
    raised = worker.cli_raised(done.stderr)
    if raised:
        return {"raises": raised}
    return worker.digest(worker.cli_content(done.exit, done.stdout))


def main() -> int:
    procs.check_source()
    tmp = procs.BENCH / "results"
    tmp.mkdir(exist_ok=True)
    pools = library_pools()
    pools.update(cli_pools())
    out: dict = {}
    for workload, strata in pools.items():
        for stratum, cases in strata.items():
            t0 = perf_counter()
            for case, groups in cases.items():
                session_cases: dict = {}
                for group, ops in groups.items():
                    tgt = out.setdefault(workload, {}).setdefault(stratum, {}) \
                        .setdefault(case, {}).setdefault(group, {})
                    for op in ops:
                        tgt[op_key(op)] = (cli_digest(op, tmp) if op[0] == "cli"
                                           else library_digest(op, session_cases))
            print(f"{workload}/{stratum}: {len(cases)} cases, "
                  f"{perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
