"""The benchmark's tracer finds every function it hooks.

A traced benchmark run (`bench/run.py --trace 1`) reports a per-layer
metric only if every hook it reads found its target in famsel; a renamed
or deleted target drops the metric and the run still exits 0. This test
installs the tracer on the famsel modules, as the benchmark worker does,
checks that every per-layer metric `BENCHMARK.json` declares is reported
and that no hook target is missing beyond the one already gone, and that
uninstalling puts every hooked attribute back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import famsel.adjust
import famsel.cli
import famsel.core
import famsel.procedures
import famsel.selection
import famsel.sim

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "famsel_bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def famsel_bindings(tracer) -> dict:
    """Every binding a hook may replace: each famsel module's globals and
    each hooked class's attributes, by (owner, name)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "famsel" or name.startswith("famsel.")):
            for binding, value in vars(module).items():
                out[(name, binding)] = value
    for _, module_name, path, _ in tracer.HOOKS:
        *outer, attr = path.split(".")
        if outer:
            owner = sys.modules[module_name]
            for part in outer:
                owner = getattr(owner, part)
            out[(owner, attr)] = getattr(owner, attr)
    return out


def test_tracer_reports_every_per_layer_metric_and_uninstalls():
    tracer = load_tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in declared["per_layer"]]
    before = famsel_bindings(tracer)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert sorted(set(names) - set(traced.snapshot())) == []
        # a span counts as installed when any one of its hooks resolves, so
        # each target is checked too; this one left famsel before the test
        assert traced.missing == ["famsel.sim._batch_test_counts"]
        # the hooks are in place: famsel functions and methods were replaced
        assert changed(before, famsel_bindings(tracer))
    finally:
        traced.uninstall()
    assert changed(before, famsel_bindings(tracer)) == []


def changed(before: dict, after: dict) -> list:
    return [key for key, value in before.items() if after.get(key) is not value]
