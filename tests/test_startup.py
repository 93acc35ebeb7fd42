"""Start-up guard: the CLI loads SciPy, numpy.random and the process pool
only where a command needs them.

Each check runs in a fresh interpreter with PYTHONPATH set to this
checkout's src directory, and reads the modules the process holds at its
end. `-X importtime` would not do: it misses the submodules SciPy loads
through importlib.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import famsel
from famsel.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Needed only by the Fisher and Stouffer combiners, by simulations (SciPy
# only where they draw normal scores) and by a Monte Carlo estimate on two
# or more workers.
DEFERRED = ("scipy", "numpy.random", "concurrent.futures", "multiprocessing")

MARK = "\n# modules\n"
# Runs STATEMENT, then writes MARK and sys.modules to stderr, also when
# STATEMENT exits.
PROBE = """import sys
try:
    {}
finally:
    sys.stderr.write({!r} + "\\n".join(sys.modules))
"""

CSV = """family,hypothesis,p_value
g1,h1,0.001
g1,h2,0.3
g2,h3,0.5
g2,h4,0.8
g3,h5,0.01
g3,h6,0.6
"""


def run_fresh(args, cwd):
    """`python ARGS` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def probe(statement, args, cwd):
    """(exit code, stdout, deferred modules loaded) of a fresh interpreter
    that runs statement with sys.argv[1:] == args."""
    proc = run_fresh(["-c", PROBE.format(statement, MARK), *args], cwd)
    loaded = proc.stderr.rpartition(MARK)[2].split("\n")
    deferred = sorted(
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in DEFERRED)
    )
    return proc.returncode, proc.stdout, deferred


def probe_cli(args, cwd):
    """probe of `python -m famsel ARGS`."""
    statement = "import runpy; runpy.run_module('famsel', run_name='__main__')"
    return probe(statement, args, cwd)


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "pvalues.csv"
    path.write_text(CSV)
    return str(path)


def in_process(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_parser_loads_no_deferred_module(tmp_path):
    # the command the benchmark's setup_s times; `import famsel` runs first
    statement = "import famsel.cli; famsel.cli.build_parser()"
    code, _, deferred = probe(statement, [], tmp_path)
    assert code == 0 and deferred == []


def test_module_entry_point_prints_version(tmp_path):
    proc = run_fresh(["-m", "famsel", "--version"], tmp_path)
    assert proc.returncode == 0 and proc.stdout == famsel.__version__ + "\n"


@pytest.mark.parametrize(
    "rule", ["minp:0.05", "topk:2", "global:simes:bh", "global:simes:twostage"]
)
def test_analyze_loads_no_deferred_module(rule, csv_path, tmp_path, capsys):
    args = ["analyze", csv_path, "--rule", rule]
    code, out, deferred = probe_cli(args, tmp_path)
    assert (code, out) == in_process(args, capsys) and code == 0
    assert deferred == []


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "CSV", "--rule", "global:fisher:bh"],
        ["analyze", "CSV", "--rule", "global:stouffer:bh"],
        ["simulate", "--m", "5", "--n", "2", "--reps", "50"]
        + ["--pi1", "0.5", "--mu", "2.5"],
    ],
)
def test_deferred_imports_resolve(args, csv_path, tmp_path, capsys):
    args = [csv_path if a == "CSV" else a for a in args]
    code, out, deferred = probe_cli(args, tmp_path)
    assert (code, out) == in_process(args, capsys) and code == 0
    # the probe sees SciPy when a command loads it
    assert "scipy.special" in deferred


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--m", "5", "--n", "2", "--reps", "50"],
        ["simulate", "--m", "3", "--n", "4", "--reps", "50", "--procedure", "bh"],
        ["table1", "--reps", "50"],
    ],
)
def test_all_null_simulations_load_no_scipy(args, tmp_path, capsys):
    # all-null independent p-values are uniform words: no normal scores
    code, out, deferred = probe_cli(args, tmp_path)
    assert (code, out) == in_process(args, capsys) and code == 0
    assert "numpy.random" in deferred
    assert [name for name in deferred if name.split(".")[0] == "scipy"] == []
