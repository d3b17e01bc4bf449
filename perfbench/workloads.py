"""Workload definitions and the seeded, stratified op generator.

An op is a JSON list naming one public call (or one CLI process) and its
inputs, e.g. ``["multiplet_char", "B2", "super", 2, [1, 0], "0,3,1", 20]``.
Its key is ``json.dumps(op)``; ``reference.json`` maps every key the
generator can draw to the digest of the op's output at the seed commit, and
the generator draws only keys found there.  So the pools are the reference
file's keys, and every drawn op has a reference to be checked against.

Every workload is a list of strata.  A stratum fixes how many worker
sessions a run gets (at the nominal run length) and how many ops of each
group a session draws; the seed only decides which case, coset, weight and
order fill each slot, and in what order.  Costs within a stratum are close,
so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Run length the quotas below are calibrated for: at the seed commit one run
# of each workload spends about this many seconds in its ops, repetitions
# included.
NOMINAL_SECONDS = 30

# Cold repetitions of each session, spread over the run; the benchmark keeps
# each op's median.  Ops of about a second or more are left out of the pools
# so that four repetitions fit the run.
REPEATS = 4


@dataclass(frozen=True)
class Stratum:
    name: str
    sessions: int    # sessions (axiom_sweep: units) per run at NOMINAL_SECONDS
    mix: tuple[tuple[str, int], ...] = ()   # (op group, ops drawn per session)


WHY = {
    "axiom_sweep": "verify_axioms then condition_report on rank 2-4 cases: "
                   "full shift-table fill and Weyl enumeration, no q-series",
    "char_orbit": "seeded multiplet characters, ft_char and alcove_json on rank "
                  "1-4 cases at orders 10-40: Weyl-orbit walks dominate",
    "cli_cold": "one shiftlab CLI process per op: interpreter start, import and "
                "lazy lookups, with a few enumeration-heavy commands",
}

# The first stratum of each workload is its cheapest: a run too short for
# any quota draws one session from it.
STRATA: dict[str, tuple[Stratum, ...]] = {
    # Each "unit" is one case (verify_axioms then condition_report); the B3
    # super/ramond pair is one unit so both variants share a session.  A
    # session sweeps m for one algebra and variant.
    "axiom_sweep": (
        Stratum("rank2", 18),
        Stratum("rank3", 4),
        Stratum("b3pair", 1),
        Stratum("rank4", 3),
    ),
    "char_orbit": (
        Stratum("rank12", 15, (("char", 10),)),
        Stratum("b2ramond", 2, (("char", 8),)),
        Stratum("rank3", 12, (("char", 5),)),
        Stratum("rank4", 3, (("char", 1),)),
        Stratum("ft", 2, (("ft_small", 4), ("ft_a3", 1))),
    ),
    # Each CLI op is its own process, so a "session" is one op.
    "cli_cold": (
        Stratum("cheap_info", 7, (("cli", 1),)),
        Stratum("cheap_char", 14, (("cli", 1),)),
        Stratum("cheap_alcove", 10, (("cli", 1),)),
        Stratum("cheap_verify", 9, (("cli", 1),)),
        # every check and lambda command, the costliest cheap ones, each run
        Stratum("cheap_check", 7, (("cli", 1),)),
        Stratum("cheap_lambda", 5, (("cli", 1),)),
        Stratum("cheap_ftchar", 2, (("cli", 1),)),
        Stratum("ramond", 4, (("cli", 1),)),
        Stratum("heavy_a", 1, (("cli", 1),)),
        Stratum("heavy_b", 1, (("cli", 1),)),
    ),
}


def op_key(op) -> str:
    return json.dumps(op)


def _cycle(rng: random.Random, items: list, n: int) -> list:
    """n draws that use every item once before any repeats."""
    out: list = []
    while len(out) < n:
        perm = list(items)
        rng.shuffle(perm)
        out.extend(perm[:n - len(out)])
    return out


def _alcove_partner(op, groups: dict) -> list | None:
    """The alcove_json op for a character op's (alpha, lambda), if the pool
    has one (it has one exactly when lambda is strong)."""
    if op[0] not in ("multiplet_char", "multiplet_superchar",
                     "multiplet_ramond_char"):
        return None
    partner = ["alcove_json", *op[1:6]]
    return partner if op_key(partner) in groups.get("alcove", {}) else None


def _coset(op) -> str | None:
    """The coset label of an op, or None for ops without one."""
    if op[0] == "ft_char":
        return op[4]
    return op[5] if len(op) > 5 else None


def _classes(group: str, groups: dict, count: int) -> list[list[str]]:
    """The key list each of ``count`` ops is drawn from.

    Character keys are split into classes by (strong coset, kind, order) and
    the draws cycle through the classes in a fixed order.  Every seed then
    draws the same number of each class, and so the same number of
    alcove_json partners, and only the coset and weight within a class vary.
    """
    keys = sorted(groups[group])
    if group != "char":
        return [keys] * count
    strong = {json.loads(k)[5] for k in groups.get("alcove", {})}
    classes: dict[tuple, list[str]] = {}
    for k in keys:
        op = json.loads(k)
        classes.setdefault((op[5] not in strong, op[0], op[6]), []).append(k)
    # interleave strong and non-strong classes so short sessions get both
    sides = [[classes[c] for c in sorted(classes) if c[0] == weak]
             for weak in (False, True)]
    order = [side[i] for i in range(max(map(len, sides))) for side in sides
             if i < len(side)]
    return [order[i % len(order)] for i in range(count)]


def _draw(rng: random.Random, stratum: Stratum, cases: dict, n: int) -> list[list]:
    """n sessions of a stratum.  Ops keep the order of the stratum's mix, so
    the same kind of op pays for a session's cold caches on every seed."""
    out = []
    for case in _cycle(rng, sorted(cases), n):
        groups = cases[case]
        if not stratum.mix:
            out.append([json.loads(k) for k in groups["unit"]])
            continue
        ops = []
        seen: set = set()
        for group, count in stratum.mix:
            for keys in _classes(group, groups, count):
                # cosets are drawn in rounds, each coset once per round: how
                # often each coset (and its exponent grid) comes up, and how
                # many cosets pay for a cold table row, is then the same on
                # every seed
                fresh = [k for k in keys if _coset(json.loads(k)) not in seen]
                if not fresh:
                    seen.clear()
                    fresh = keys
                op = json.loads(rng.choice(fresh))
                seen.add(_coset(op))
                ops.append(op)
                partner = _alcove_partner(op, groups)
                if partner is not None:
                    ops.append(partner)
        out.append(ops)
    return out


def generate(workload: str, seed: int, seconds: float, pools: dict) -> list[list]:
    """Sessions (lists of ops) for one run; each session is one fresh worker.

    ``pools[workload][stratum][case][group]`` maps op keys to reference
    digests.  Session quotas scale with ``seconds / NOMINAL_SECONDS``; a run
    too short for any quota still gets one session of the first stratum.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata = STRATA[workload]
    drawn: list[list] = []
    for stratum in strata:
        n = round(stratum.sessions * seconds / NOMINAL_SECONDS)
        drawn += _draw(rng, stratum, pools[workload][stratum.name], n)
    if not drawn:
        drawn = _draw(rng, strata[0], pools[workload][strata[0].name], 1)
    if workload == "axiom_sweep":
        drawn = _sweeps(drawn)
    rng.shuffle(drawn)
    return drawn


def _sweeps(units: list[list]) -> list[list]:
    """One session per algebra and variant, its units in order of m: which
    op pays for a cold root system or table is then the same on every seed."""
    sessions: dict[tuple, list] = {}
    for unit in sorted(units, key=lambda u: [op[3] for op in u]):
        key = tuple(sorted({tuple(op[1:3]) for op in unit}))
        sessions.setdefault(key, []).extend(unit)
    return [sessions[k] for k in sorted(sessions)]
