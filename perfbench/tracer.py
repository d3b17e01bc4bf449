"""Outside-in tracing of shiftlab's public entry points.

The tracer patches module and class attributes of an imported shiftlab; the
library itself is not changed.  Calls that do a unit of work a caller asked
for get a span (name, parent span, start, end).  Per-element methods, called
hundreds of thousands of times in one sweep, get aggregated counters instead,
because a span per call would cost more than the call.  A timed counter's
time is charged to the span it ran under, so self times stay disjoint.

A target that no longer exists is listed in ``missing`` and the metrics
that depend on it read as missing; tracing never fails because the program
changed shape.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path) of each span target; the span is named
# "<module>.<last path part>" and its layer is the module.
SPANS = (
    ("liealg", "build_root_system"),
    ("liealg", "RootSystem.enumerate_weyl"),
    ("liealg", "RootSystem.all_reduced_words"),
    ("shift", "make_case"),
    ("shift", "lambda_from"),
    ("shift", "system"),
    ("shift", "verify_axioms"),
    ("shift", "condition_report"),
    ("qseries", "convolve"),
    ("qseries", "QSeries.mul"),
    ("qseries", "eta_inv_pow"),
    ("qseries", "fermion_char"),
    ("characters", "multiplet_char"),
    ("characters", "multiplet_superchar"),
    ("characters", "multiplet_ramond_char"),
    ("characters", "ft_char"),
    ("characters", "walg_vacuum_oracle"),
    ("characters", "verma_char_super"),
    ("alcove", "dominant_reduce"),
    ("alcove", "y_alpha"),
    ("alcove", "alcove_json"),
    ("cli", "main"),
)

# (module, attribute path, timed): per-element methods.
COUNTERS = (
    ("shift", "ShiftSystem.act_index", False),
    ("shift", "ShiftSystem.shift_value", False),
    ("characters", "fock_delta", False),
    ("characters", "weight_space_char", False),
    ("qseries", "QSeries.add", True),
)


def _lru_hits(fn) -> int:
    return fn.cache_info().hits


class Tracer:
    def __init__(self):
        # span: [id, parent id, name, start, end, time of timed counters run
        # directly under it, exception name or None]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: dict[str, list] = {}   # name -> [calls, seconds, units]
        self.extra: dict[str, float] = {}
        self.missing: list[str] = []
        self._systems: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), parent, name, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        span[3] = perf_counter()
        return span

    def close(self, span: list, error: str | None = None) -> None:
        span[4] = perf_counter()
        self.stack.pop()
        span[6] = error

    def _add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        import shiftlab  # noqa: F401  (the package must be importable)

        for mod, path in SPANS:
            self._patch(mod, path, lambda fn, name: self._span(name, fn))
        for mod, path, timed in COUNTERS:
            self._patch(mod, path, lambda fn, name, t=timed: self._counter(name, fn, t))
        return self

    def _patch(self, mod: str, path: str, make) -> None:
        name = f"{mod}.{path.split('.')[-1]}"
        module = sys.modules.get(f"shiftlab.{mod}")
        if module is None:
            try:
                module = __import__(f"shiftlab.{mod}", fromlist=["_"])
            except ImportError:
                self.missing.append(name)
                return
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        orig = getattr(owner, parts[-1], None) if owner is not None else None
        if orig is None:
            self.missing.append(name)
            return
        wrapped = make(orig, name)
        if len(parts) > 1:
            setattr(owner, parts[-1], wrapped)
            return
        # every shiftlab namespace that imported the name calls it through
        # its own global, so each one is patched
        for modname, m in list(sys.modules.items()):
            if modname == "shiftlab" or modname.startswith("shiftlab."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _span(self, name: str, fn):
        before, after = self._probes(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            if after:
                try:
                    after(state, result)
                except (AttributeError, KeyError, TypeError):
                    tracer.missing.append(f"{name}.probe")
            return result

        return wrapper

    def _counter(self, name: str, fn, timed: bool):
        slot = self.counters.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        tracer = self
        if timed:
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    slot[0] += 1
                    slot[1] += dt
                    if stack:
                        stack[-1][5] += dt
                coeffs = getattr(result, "coeffs", None)
                if coeffs is None:
                    tracer.missing.append(f"{name}.probe")
                else:
                    slot[2] += len(coeffs)
                return result
        else:
            def wrapper(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _probes(self, name: str, fn):
        """(before, after) hooks that read counts off a span target's inputs,
        results or caches."""
        if name in ("liealg.build_root_system", "shift.system", "qseries.fermion_char"):
            key = name + ".hits"

            def after_hits(hits, result):
                self._add(key, _lru_hits(fn) - hits)
                if name == "shift.system":
                    self._systems[id(result)] = result
            return (lambda: _lru_hits(fn)), after_hits
        if name == "liealg.enumerate_weyl":
            cached = getattr(sys.modules["shiftlab.liealg"], "_enumerate_weyl_cached", None)
            if cached is None:
                self.missing.append("liealg.weyl_elements")
                return None, None

            def after_enum(misses, result):
                if cached.cache_info().misses > misses:
                    self._add("liealg.weyl_elements", len(result))
            return (lambda: cached.cache_info().misses), after_enum
        if name == "shift.verify_axioms":
            return None, lambda _, report: self._add("shift.axiom_checks",
                                                     report.counts["checks"])
        if name == "qseries.convolve":
            return None, lambda _, out: self._add("qseries.convolve.coeffs_out", len(out))
        return None, None

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates of everything recorded, summable across processes."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        spans: dict[str, dict] = {}
        y_alpha_reductions = 0
        for sid, parent, name, t0, t1, covered, error in self.spans:
            agg = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "dur_s": 0.0,
                                          "errors": 0})
            agg["calls"] += 1
            agg["dur_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[sid] - covered
            agg["errors"] += error is not None
            if (name == "alcove.dominant_reduce" and parent >= 0
                    and self.spans[parent][2] == "alcove.y_alpha"):
                y_alpha_reductions += 1
        extra = dict(self.extra)
        extra["alcove.y_alpha_reductions"] = y_alpha_reductions
        entries = cells = 0
        for s in self._systems.values():
            table = getattr(s, "_act", None)
            if table is None:
                self.missing.append("shift.act_entries")
                break
            entries += len(table)
            cells += len(s.weyl) * len(s.lambdas)
        extra["shift.act_entries"] = entries
        extra["shift.table_cells"] = cells
        return {"spans": spans, "counters": self.counters, "extra": extra,
                "missing": sorted(set(self.missing))}


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries into one."""
    out = {"spans": {}, "counters": {}, "extra": {}, "missing": set()}
    for s in summaries:
        for name, agg in s["spans"].items():
            tgt = out["spans"].setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                tgt[k] += v
        for name, vals in s["counters"].items():
            tgt = out["counters"].setdefault(name, [0] * len(vals))
            for i, v in enumerate(vals):
                tgt[i] += v
        for k, v in s["extra"].items():
            out["extra"][k] = out["extra"].get(k, 0) + v
        out["missing"] |= set(s["missing"])
    out["missing"] = sorted(out["missing"])
    return out
