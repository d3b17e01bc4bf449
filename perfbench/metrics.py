"""Metric definitions and their derivation from measurements.

``BENCHMARK.json`` lists the same names, units and directions (and the
end-to-end bounds); the smoke test checks that the two agree.  Each
per-layer metric names the end-to-end metric and workload it should move
(``LAYER[name][2]``).
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
E2E = {
    "setup_s": ("s", "lower"),       # spawn to `import shiftlab` returning, median
    "wall_s": ("s", "lower"),        # sum of op wall times
    "cpu_s": ("s", "lower"),         # user+sys of the session workers
    "op_p50_ms": ("ms", "lower"),    # op latencies, timed as each op's CPU time
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),  # largest session worker peak RSS
}

_AX = "wall_s on axiom_sweep"
_CLI = "op_p90_ms, wall_s on cli_cold"
_SHIFT = "wall_s, cpu_s, peak_rss_mb on axiom_sweep; flat on cli_cold"
_SERIES = "wall_s, cpu_s on char_orbit"
_ORBIT = "wall_s, op_p90_ms on char_orbit"

# name -> (unit, better, what it should move)
LAYER = {
    "liealg.self_s": ("s", "lower", f"{_CLI}; {_AX}"),
    "liealg.enumerate_weyl.calls": ("count", "lower", f"{_CLI}; {_AX}"),
    "liealg.enumerate_weyl.self_s": ("s", "lower", f"{_CLI}; {_AX}"),
    "liealg.weyl_elements": ("count", "lower", f"{_CLI}; {_AX}"),
    "liealg.build_root_system.hit_ratio": ("ratio", "higher", f"{_CLI}; {_AX}"),
    "liealg.all_reduced_words.self_s": ("s", "lower", f"{_CLI}; {_AX}"),
    "shift.self_s": ("s", "lower", _SHIFT),
    "shift.system.self_s": ("s", "lower", _SHIFT),
    "shift.system.hit_ratio": ("ratio", "higher", _SHIFT),
    "shift.verify_axioms.self_s": ("s", "lower", _SHIFT),
    "shift.condition_report.self_s": ("s", "lower", _SHIFT),
    "shift.axiom_checks": ("count", "higher", _SHIFT),
    "shift.checks_per_s": ("1/s", "higher", _SHIFT),
    "shift.act_index.calls": ("count", "lower", _SHIFT),
    "shift.act_entries": ("count", "lower", _SHIFT),
    "shift.table_fill": ("ratio", "lower", _SHIFT),
    "shift.shift_value.calls": ("count", "lower", _SHIFT),
    "qseries.self_s": ("s", "lower", _SERIES),
    "qseries.convolve.calls": ("count", "lower", _SERIES),
    "qseries.convolve.self_s": ("s", "lower", _SERIES),
    "qseries.convolve.coeffs_out": ("count", "lower", _SERIES),
    "qseries.add.calls": ("count", "lower", _SERIES),
    "qseries.add.self_s": ("s", "lower", _SERIES),
    "qseries.add.coeffs_out": ("count", "lower", _SERIES),
    "qseries.fermion_char.hit_ratio": ("ratio", "higher", _SERIES),
    "characters.self_s": ("s", "lower", _ORBIT),
    "characters.multiplet_char.calls": ("count", "lower", _ORBIT),
    "characters.multiplet_char.self_s": ("s", "lower", _ORBIT),
    "characters.multiplet_superchar.self_s": ("s", "lower", _ORBIT),
    "characters.ft_char.self_s": ("s", "lower", _ORBIT),
    "characters.fock_delta.calls": ("count", "lower", _ORBIT),
    "characters.weight_space_char.calls": ("count", "lower", _ORBIT),
    "characters.route_mismatch": ("count", "lower", "fail_frac on char_orbit"),
    "alcove.self_s": ("s", "lower", "wall_s on char_orbit"),
    "alcove.dominant_reduce.calls": ("count", "lower", "wall_s on char_orbit"),
    "alcove.dominant_reduce.self_s": ("s", "lower", "wall_s on char_orbit"),
    "alcove.alcove_json.self_s": ("s", "lower", "wall_s on char_orbit"),
    "alcove.y_alpha.useful_ratio": ("ratio", "higher", "wall_s on char_orbit"),
    "cli.self_s": ("s", "lower", "setup_s, op_p50_ms on cli_cold"),
    "cli.main.self_s": ("s", "lower", "setup_s, op_p50_ms on cli_cold"),
    "cli.import_s": ("s", "lower", "setup_s, op_p50_ms on cli_cold"),
    "cli.exit_nonzero": ("count", "lower", "fail_frac on cli_cold"),
    "bench.self_s": ("s", "lower", "none: the benchmark's own time under the op spans"),
    "trace.outside_s": ("s", "lower", "none: traced wall time outside any span "
                                      "(CLI interpreter start and exit)"),
    "trace.wall_s": ("s", "lower", "none: wall_s of the traced pass"),
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s"),
}

LAYERS = ("liealg", "shift", "qseries", "characters", "alcove", "cli")

# probes that read counts off results or caches, and the metrics they feed
PROBES = {
    "liealg.build_root_system.probe": ("liealg.build_root_system.hit_ratio",),
    "liealg.enumerate_weyl.probe": ("liealg.weyl_elements",),
    "liealg.weyl_elements": ("liealg.weyl_elements",),
    "shift.system.probe": ("shift.system.hit_ratio", "shift.act_entries",
                           "shift.table_fill"),
    "shift.act_entries": ("shift.act_entries", "shift.table_fill"),
    "shift.verify_axioms.probe": ("shift.axiom_checks", "shift.checks_per_s"),
    "qseries.convolve.probe": ("qseries.convolve.coeffs_out",),
    "qseries.add.probe": ("qseries.add.coeffs_out",),
    "qseries.fermion_char.probe": ("qseries.fermion_char.hit_ratio",),
}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def e2e(setup: list[float], walls: list[float], op_cpus: list[float],
        cpu: list[float], rss: list[float]) -> dict:
    """``walls`` and ``op_cpus`` are per op, ``cpu`` and ``rss`` per worker.

    Op latencies are taken in CPU time: an op is one single-threaded,
    I/O-free computation (or one CLI process), so on an idle core its CPU
    time is its latency, and unlike wall time it leaves out the time a
    shared host gives the core to others."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls),
        "cpu_s": sum(cpu),
        "op_p50_ms": 1000 * statistics.median(op_cpus),
        "op_p90_ms": 1000 * percentile(op_cpus, 90),
        "peak_rss_mb": max(rss),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer(summary: dict, traced_wall: float, untraced_wall: float,
          exit_nonzero: int) -> dict:
    """Per-layer metrics from a merged trace summary; a metric whose target
    is missing from the program reads None."""
    spans, counters, extra = summary["spans"], summary["counters"], summary["extra"]
    missing = set(summary["missing"])

    def span(name, field="self_s"):
        return spans.get(name, {}).get(field, 0)

    def counter(name, i=0):
        return counters.get(name, [0, 0.0, 0])[i]

    timed = {name: vals[1] for name, vals in counters.items()}
    self_by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for name, agg in spans.items():
        self_by_layer[name.split(".")[0]] += agg["self_s"]
    for name, seconds in timed.items():
        self_by_layer[name.split(".")[0]] += seconds
    y_calls = span("alcove.y_alpha", "calls")
    out = {
        "liealg.enumerate_weyl.calls": span("liealg.enumerate_weyl", "calls"),
        "liealg.enumerate_weyl.self_s": span("liealg.enumerate_weyl"),
        "liealg.weyl_elements": extra.get("liealg.weyl_elements", 0),
        "liealg.build_root_system.hit_ratio": _ratio(
            extra.get("liealg.build_root_system.hits", 0),
            span("liealg.build_root_system", "calls")),
        "liealg.all_reduced_words.self_s": span("liealg.all_reduced_words"),
        "shift.system.self_s": span("shift.system"),
        "shift.system.hit_ratio": _ratio(extra.get("shift.system.hits", 0),
                                         span("shift.system", "calls")),
        "shift.verify_axioms.self_s": span("shift.verify_axioms"),
        "shift.condition_report.self_s": span("shift.condition_report"),
        "shift.axiom_checks": extra.get("shift.axiom_checks", 0),
        "shift.checks_per_s": _ratio(extra.get("shift.axiom_checks", 0),
                                     span("shift.verify_axioms", "dur_s")),
        "shift.act_index.calls": counter("shift.act_index"),
        "shift.act_entries": extra.get("shift.act_entries", 0),
        "shift.table_fill": _ratio(extra.get("shift.act_entries", 0),
                                   extra.get("shift.table_cells", 0)),
        "shift.shift_value.calls": counter("shift.shift_value"),
        "qseries.convolve.calls": span("qseries.convolve", "calls"),
        "qseries.convolve.self_s": span("qseries.convolve"),
        "qseries.convolve.coeffs_out": extra.get("qseries.convolve.coeffs_out", 0),
        "qseries.add.calls": counter("qseries.add"),
        "qseries.add.self_s": counter("qseries.add", 1),
        "qseries.add.coeffs_out": counter("qseries.add", 2),
        "qseries.fermion_char.hit_ratio": _ratio(
            extra.get("qseries.fermion_char.hits", 0),
            span("qseries.fermion_char", "calls")),
        "characters.multiplet_char.calls": span("characters.multiplet_char", "calls"),
        "characters.multiplet_char.self_s": span("characters.multiplet_char"),
        "characters.multiplet_superchar.self_s": span("characters.multiplet_superchar"),
        "characters.ft_char.self_s": span("characters.ft_char"),
        "characters.fock_delta.calls": counter("characters.fock_delta"),
        "characters.weight_space_char.calls": counter("characters.weight_space_char"),
        "characters.route_mismatch": span("characters.multiplet_char", "errors"),
        "alcove.dominant_reduce.calls": span("alcove.dominant_reduce", "calls"),
        "alcove.dominant_reduce.self_s": span("alcove.dominant_reduce"),
        "alcove.alcove_json.self_s": span("alcove.alcove_json"),
        "alcove.y_alpha.useful_ratio": _ratio(
            y_calls - span("alcove.y_alpha", "errors"),
            extra.get("alcove.y_alpha_reductions", 0)),
        "cli.main.self_s": span("cli.main"),
        "cli.import_s": span("cli.import", "dur_s"),
        "cli.exit_nonzero": exit_nonzero,
        "trace.outside_s": traced_wall - sum(self_by_layer.values()),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in LAYERS + ("bench",):
        out[f"{name}.self_s"] = self_by_layer[name]
    for name in out:
        # a missing target covers every metric named after it; a failed
        # probe covers the metrics it feeds
        target = ".".join(name.split(".")[:2])
        sources = {target, name} | {p for p, fed in PROBES.items() if name in fed}
        if sources & missing:
            out[name] = None
    return {name: out[name] for name in LAYER}
