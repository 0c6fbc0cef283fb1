"""Layer tracing from outside the package, for the traced run only.

``Tracer.install`` replaces public functions of the muspec modules with
wrappers by patching module attributes, in every muspec module that holds a
reference to the same function object (``theorems`` imports
``compute_spectrum`` by name, for example).  ``uninstall`` puts the
originals back.  Nothing here is imported by a timed run.

Three kinds of wrapper:

* span: records [name, start, end, parent index] in memory; calls and time
  of a function count its outermost calls only (a call made while another
  call of the same function is active is part of that call);
* counter: counts calls, for functions called tens of thousands of times;
* expression: counts and times the outermost ``evaluate_env`` /
  ``evaluate_log_abs`` calls.  While one is active, the module attributes
  point at the originals again, so the evaluator's own recursion runs
  unwrapped and is not counted.

With ``memory=True`` the tracer instead runs ``tracemalloc`` and records,
per layer, the largest peak above the starting level seen during any
outermost spectrum or relations call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from muspec import evolution, exprparse, rates
from muspec.params import Params

SPANS = (
    ("cli", "main"),
    ("theorems", "run_all"),
    ("spectrum", "compute_spectrum"),
    ("relations", "check_faster"),
    ("relations", "check_weakly_faster"),
    ("relations", "check_almost"),
    ("relations", "chain_check"),
    ("relations", "classify_pair"),
    ("evolution", "component_log_grid"),
    ("evolution", "scaled_grids"),
    ("evolution", "operator_norm_bounds"),
    ("rates", "log_rate_values"),
)
COUNTERS = (("evolution", "propagate"), ("evolution", "coefficient_matrix"))
EXPRESSION = ("evaluate_env", "evaluate_log_abs")
MEMORY = {"spectrum.compute_spectrum": "spectrum",
          **{f"relations.{fn}": "relations" for mod, fn in SPANS if mod == "relations"}}


def _pairs(points: int) -> int:
    return points * (points - 1) // 2


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self.peaks: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._seen: set = set()
        self._patched: list = []
        self._grid_cache0 = None

    # -- installation -----------------------------------------------------

    def install(self):
        if self.memory:
            for qualified in MEMORY:
                mod, fn = qualified.split(".")
                self._patch(mod, fn, self._memory_wrapper(MEMORY[qualified]))
            tracemalloc.start()
            return
        for mod, fn in SPANS:
            self._patch(mod, fn, self._span_wrapper(f"{mod}.{fn}"))
        for mod, fn in COUNTERS:
            self._patch(mod, fn, self._counter_wrapper(f"{mod}.{fn}"))
        originals = {name: getattr(exprparse, name) for name in EXPRESSION}
        wrapped: dict = {}
        for name in EXPRESSION:
            self._patch("exprparse", name, self._expression_wrapper(originals, wrapped))
        wrapped.update({name: getattr(exprparse, name) for name in EXPRESSION})
        self._grid_cache0 = rates.log_rate_grid.cache_info()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, mod_name: str, fn_name: str, make):
        module = importlib.import_module(f"muspec.{mod_name}")
        original = getattr(module, fn_name)
        wrapper = functools.update_wrapper(make(original), original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "muspec" or name.startswith("muspec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def make(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                outer = active[name] == 0
                active[name] += 1
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1, outer])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][2] = clock()
                    stack.pop()
                    active[name] -= 1
                self._observe(name, signature, args, kwargs, result, outer)
                return result

            return wrapper

        return make

    def _counter_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _expression_wrapper(self, originals: dict, wrapped: dict):
        counts, totals = self.counts, self.totals
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                vars(exprparse).update(originals)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    totals["exprparse.eval_s"] += clock() - start
                    counts["exprparse.evals"] += 1
                    vars(exprparse).update(wrapped)

            return wrapper

        return make

    def _memory_wrapper(self, layer: str):
        active, peaks = self._active, self.peaks

        def make(fn):
            def wrapper(*args, **kwargs):
                outer = active[layer] == 0
                active[layer] += 1
                if outer:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[layer] -= 1
                    if outer:
                        peak = tracemalloc.get_traced_memory()[1] - base
                        peaks[layer] = max(peaks[layer], peak)

            return wrapper

        return make

    # -- per-call observations ------------------------------------------------

    def _observe(self, name, signature, args, kwargs, result, outer):
        counts = self.counts
        if name == "spectrum.compute_spectrum":
            # Computed, not counted: each window [-w, w] of the integer grid
            # holds 2w+1 points, and every estimate scans all their pairs.
            estimates = result.component_estimates
            windows = [int(w) for w in result.windows]
            counts["spectrum.windows_used"] += len(windows)
            counts["spectrum.pairs_enumerated"] += len(estimates) * sum(
                _pairs(2 * w + 1) for w in windows)
            counts["spectrum.pairs_last_window"] += len(estimates) * _pairs(2 * windows[-1] + 1)
            counts["spectrum.pairs_admissible"] += sum(e.pairs_used for e in estimates)
            if self._active["theorems.run_all"]:
                counts["theorems.spectrum_calls"] += 1
                if not self._first(name, signature, args, kwargs):
                    counts["theorems.spectrum_repeats"] += 1
        elif name.startswith("relations."):
            counts["relations.calls"] += 1
            if not self._first(name, signature, args, kwargs):
                counts["relations.repeats"] += 1
        elif name == "evolution.component_log_grid" and outer:
            counts["evolution.component_log_grid.points"] += result[1].size
        elif name == "theorems.run_all":
            for report in result:
                counts[f"theorems.reports.{report.status}"] += 1

    def _first(self, name, signature, args, kwargs) -> bool:
        """Whether this function + canonical arguments is new in the run."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = json.dumps([name, {k: _canon(v) for k, v in bound.arguments.items()}],
                         sort_keys=True, default=repr)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # -- results ------------------------------------------------------------

    def record(self) -> dict:
        """What the run process writes out when the run ends."""
        out = {"spans": self.spans, "counts": dict(self.counts), "totals": dict(self.totals),
               "peaks": dict(self.peaks)}
        if self._grid_cache0 is not None:
            now = rates.log_rate_grid.cache_info()
            out["grid_cache"] = [now.hits - self._grid_cache0.hits,
                                 now.misses - self._grid_cache0.misses]
        return out


def _canon(value):
    if isinstance(value, (rates.PowerExp, rates.Polynomial, rates.ExpressionRate, rates.Glued)):
        return rates.rate_to_descriptor(value)
    if isinstance(value, evolution.LinearSystem):
        return evolution.system_to_descriptor(value)
    if isinstance(value, evolution.WeightedSystem):
        return {"base": _canon(value.base), "rate": _canon(value.rate), "gamma": value.gamma}
    if isinstance(value, Params):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run's record


def summarize(record: dict) -> dict:
    """Per-layer numbers of one traced run process (name -> value)."""
    spans = record["spans"]
    counts = Counter(record["counts"])
    totals = record["totals"]
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    calls, inclusive, exclusive = Counter(), defaultdict(float), defaultdict(float)
    relations_s = 0.0
    for i, (name, _, _, parent, outer) in enumerate(spans):
        exclusive[name] += duration[i] - children[i]
        if outer:
            calls[name] += 1
            inclusive[name] += duration[i]
        if name.startswith("relations.") and (
                parent < 0 or not spans[parent][0].startswith("relations.")):
            relations_s += duration[i]

    m = {
        "exprparse.evals": counts["exprparse.evals"],
        "exprparse.eval_s": totals.get("exprparse.eval_s", 0.0),
        "evolution.component_log_grid.calls": calls["evolution.component_log_grid"],
        "evolution.component_log_grid.s": inclusive["evolution.component_log_grid"],
        "evolution.component_log_grid.points": counts["evolution.component_log_grid.points"],
        "evolution.scaled_grids.calls": calls["evolution.scaled_grids"],
        "evolution.scaled_grids.s": inclusive["evolution.scaled_grids"],
        "evolution.propagate.calls": counts["evolution.propagate"],
        "evolution.coefficient_matrix.calls": counts["evolution.coefficient_matrix"],
        "evolution.operator_norm_bounds.calls": calls["evolution.operator_norm_bounds"],
        "evolution.operator_norm_bounds.s": inclusive["evolution.operator_norm_bounds"],
        "spectrum.compute_spectrum.calls": calls["spectrum.compute_spectrum"],
        "spectrum.compute_spectrum.s": inclusive["spectrum.compute_spectrum"],
        "spectrum.scan_self_s": exclusive["spectrum.compute_spectrum"],
        "spectrum.pairs_enumerated": counts["spectrum.pairs_enumerated"],
        "spectrum.pairs_admissible": counts["spectrum.pairs_admissible"],
        "spectrum.admissible_ratio": _ratio(counts["spectrum.pairs_admissible"],
                                            counts["spectrum.pairs_last_window"]),
        "spectrum.windows_used": counts["spectrum.windows_used"],
    }
    for mod, fn in SPANS:
        if mod == "relations":
            m[f"relations.{fn}.calls"] = calls[f"relations.{fn}"]
            m[f"relations.{fn}.s"] = inclusive[f"relations.{fn}"]
    m.update({
        "relations.s": relations_s,
        "relations.repeat_ratio": _ratio(counts["relations.repeats"], counts["relations.calls"]),
        "theorems.run_all.s": inclusive["theorems.run_all"],
        "theorems.self_s": exclusive["theorems.run_all"],
        "theorems.reports.pass": counts["theorems.reports.pass"],
        "theorems.reports.skipped": counts["theorems.reports.skipped"],
        "theorems.reports.fail": counts["theorems.reports.fail"],
        "theorems.spectrum_repeat_ratio": _ratio(counts["theorems.spectrum_repeats"],
                                                 counts["theorems.spectrum_calls"]),
        "rates.log_rate_values.calls": calls["rates.log_rate_values"],
        "rates.log_rate_values.s": inclusive["rates.log_rate_values"],
        "rates.log_rate_grid.hit_ratio": _ratio(record["grid_cache"][0], sum(record["grid_cache"])),
        "cli.main.s": inclusive["cli.main"],
        "cli.self_s": exclusive["cli.main"],
    })
    return m


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Every per-layer metric of a traced run: name -> (unit, better).
PER_LAYER = {
    "exprparse.evals": ("count", "lower"),
    "exprparse.eval_s": ("s", "lower"),
    "evolution.component_log_grid.calls": ("count", "lower"),
    "evolution.component_log_grid.s": ("s", "lower"),
    "evolution.component_log_grid.points": ("count", "lower"),
    "evolution.scaled_grids.calls": ("count", "lower"),
    "evolution.scaled_grids.s": ("s", "lower"),
    "evolution.propagate.calls": ("count", "lower"),
    "evolution.coefficient_matrix.calls": ("count", "lower"),
    "evolution.operator_norm_bounds.calls": ("count", "lower"),
    "evolution.operator_norm_bounds.s": ("s", "lower"),
    "spectrum.compute_spectrum.calls": ("count", "lower"),
    "spectrum.compute_spectrum.s": ("s", "lower"),
    "spectrum.scan_self_s": ("s", "lower"),
    "spectrum.pairs_enumerated": ("count", "lower"),
    "spectrum.pairs_admissible": ("count", "higher"),
    "spectrum.admissible_ratio": ("ratio", "higher"),
    "spectrum.windows_used": ("count", "lower"),
    "spectrum.peak_mb": ("MB", "lower"),
    **{f"relations.{fn}.{kind}": ("count" if kind == "calls" else "s", "lower")
       for mod, fn in SPANS if mod == "relations" for kind in ("calls", "s")},
    "relations.s": ("s", "lower"),
    "relations.repeat_ratio": ("ratio", "lower"),
    "relations.peak_mb": ("MB", "lower"),
    "theorems.run_all.s": ("s", "lower"),
    "theorems.self_s": ("s", "lower"),
    "theorems.reports.pass": ("count", "higher"),
    "theorems.reports.skipped": ("count", "lower"),
    "theorems.reports.fail": ("count", "lower"),
    "theorems.spectrum_repeat_ratio": ("ratio", "lower"),
    "rates.log_rate_values.calls": ("count", "lower"),
    "rates.log_rate_values.s": ("s", "lower"),
    "rates.log_rate_grid.hit_ratio": ("ratio", "higher"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.tracemalloc_ratio": ("ratio", "lower"),
}
