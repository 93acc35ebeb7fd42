"""Spans around the calls into each famsel module, for the traced run.

The tracer replaces each hooked function with a wrapper that records a span:
its duration, minus the duration of the spans opened inside it, is added to
the span's self time. Counts are taken at the same boundaries. A module-level
function is replaced in every famsel module that holds it by name, because
callers look up the binding they imported (`adjust` and `sim` each import
`_r_min_scan`, `cli` imports `selection_adjusted`); a method is replaced on
its class. A hook whose target no longer exists is reported as missing, and
the metrics that depend on it are left out of the traced run's result.
"""

import importlib
import sys
import time
from collections import defaultdict
from functools import wraps


def _rows(args, result, parent):
    return {"cli.rows": sum(int(p.size) for p in result[1])}


def _replicates(args, result, parent):
    config = args[0] if args else None
    return {"sim.replicates": int(getattr(config, "replicates", 0))}


def _selected(args, result, parent):
    # Inside the R_min scan every selection is one candidate summary value;
    # elsewhere it is a real selection.
    if parent == "selection.rmin":
        return {"selection.rmin_candidates": 1}
    return {"selection.families_selected": int(result.size)}


# (span, module, attribute path, count hook).
HOOKS = (
    ("cli", "famsel.cli", "main", None),
    ("cli.read_csv", "famsel.cli", "_read_families_csv", _rows),
    ("cli.emit", "famsel.cli", "_emit_json", None),
    ("core.ensemble", "famsel.core", "PValueEnsemble.__init__", None),
    ("selection.summaries", "famsel.selection", "MinPThreshold.summaries", None),
    ("selection.summaries", "famsel.selection", "TopKMinP.summaries", None),
    ("selection.summaries", "famsel.selection", "GlobalNullTest.summaries", None),
    ("selection.select", "famsel.selection", "MinPThreshold.select_from_summaries", _selected),
    ("selection.select", "famsel.selection", "TopKMinP.select_from_summaries", _selected),
    ("selection.select", "famsel.selection", "GlobalNullTest.select_from_summaries", _selected),
    ("selection.rmin", "famsel.selection", "_r_min_scan", None),
    ("procedures.apply", "famsel.procedures", "Procedure.apply", None),
    ("adjust", "famsel.adjust", "selection_adjusted", None),
    ("adjust", "famsel.adjust", "simple_selection_adjusted", None),
    ("adjust", "famsel.adjust", "unadjusted_analysis", None),
    ("sim", "famsel.sim", "estimate", _replicates),
    ("sim.generate", "famsel.sim", "generate", None),
    ("sim.kernel", "famsel.sim", "_batch_test_counts", None),
    ("sim.kernel", "famsel.sim", "_metric_values", None),
)

# Per-layer metric -> (spans it needs, how it is read). "self" is the span's
# self time in seconds; "calls" its number of calls; any other string names a
# count from a count hook.
METRICS = {
    "cli.read_csv_s": (("cli.read_csv",), "self"),
    "cli.emit_s": (("cli.emit",), "self"),
    "cli.self_s": (("cli",), "self"),
    "cli.rows": (("cli.read_csv",), "cli.rows"),
    "core.ensemble_s": (("core.ensemble",), "self"),
    "core.ensembles": (("core.ensemble",), "calls"),
    "selection.summaries_s": (("selection.summaries",), "self"),
    "selection.select_s": (("selection.select",), "self"),
    "selection.families_selected": (
        ("selection.select", "selection.rmin"),
        "selection.families_selected",
    ),
    "selection.rmin_s": (("selection.rmin",), "self"),
    "selection.rmin_families": (("selection.rmin",), "calls"),
    "selection.rmin_candidates": (
        ("selection.select", "selection.rmin"),
        "selection.rmin_candidates",
    ),
    "selection.rmin_candidates_per_family": (
        ("selection.select", "selection.rmin"),
        "per_family",
    ),
    "procedures.apply_s": (("procedures.apply",), "self"),
    "procedures.apply_calls": (("procedures.apply",), "calls"),
    "adjust.self_s": (("adjust",), "self"),
    "sim.generate_s": (("sim.generate",), "self"),
    "sim.generate_calls": (("sim.generate",), "calls"),
    "sim.kernel_s": (("sim.kernel",), "self"),
    "sim.self_s": (("sim",), "self"),
    "sim.replicates": (("sim",), "sim.replicates"),
}


def metric_unit(name: str) -> str:
    return "s" if METRICS[name][1] == "self" else "count"


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a hook target, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self._stack = []
        self._self = defaultdict(float)
        self._calls = defaultdict(int)
        self._counts = defaultdict(int)
        self._restore = []
        self.installed = set()
        self.missing = []

    def _wrap(self, span, fn, count):
        stack, self_time, calls, counts = (
            self._stack,
            self._self,
            self._calls,
            self._counts,
        )
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[span] += elapsed - frame[1]
                calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                for key, value in count(args, result, parent).items():
                    counts[key] += value
            return result

        return traced

    def install(self):
        for span, module_name, path, count in HOOKS:
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr = target
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, count)
            if "." in path:
                self._replace(owner, attr, original, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if module is None or not (
                        name == "famsel" or name.startswith("famsel.")
                    ):
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, binding, original, wrapper)
            self.installed.add(span)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self):
        self._self.clear()
        self._calls.clear()
        self._counts.clear()

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for name, (spans, how) in METRICS.items():
            if not all(s in self.installed for s in spans):
                continue
            if how == "self":
                out[name] = self._self[spans[0]]
            elif how == "calls":
                out[name] = self._calls[spans[0]]
            elif how == "per_family":
                families = self._calls["selection.rmin"]
                candidates = self._counts["selection.rmin_candidates"]
                out[name] = candidates / families if families else 0.0
            else:
                out[name] = self._counts[how]
        return out
