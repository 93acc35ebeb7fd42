"""famsel benchmark: one workload, its end-to-end or per-layer metrics, and
checks of every output against computations made apart from famsel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; famsel is imported from the checkout's
src directory and nothing is installed. The script measures set-up time in
fresh interpreters, writes the workload's inputs from the seed, runs
worker.py in its own process for --seconds, checks the outputs with
oracle.py, and prints a summary on stderr and, as the last line of stdout,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from tracer.py. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
# Room, beyond --seconds, for the worker's imports, warm-up round and
# two-worker check; a worker that takes longer is stopped.
WORKER_SLACK_S = 120

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import famsel.cli; famsel.cli.build_parser()"
)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports famsel.cli and
    builds its parser."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(args, workdir: Path) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    # The worker gets its own process group, so that a stopped worker takes
    # any pool processes it started with it. Its stdout goes to our stderr:
    # our stdout carries only the result.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"worker did not finish within {args.seconds + WORKER_SLACK_S} s")
    if code != 0:
        fail(f"worker exited with {code}")
    with open(workdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(name, spec, result, pvalues, workdir) -> list:
    """Problems with each operation's reference output, one list per op."""
    if spec["kind"] == "mc":
        check = oracle.check_null_minp if name == "mc-null-minp" else oracle.check_signal
        return [
            check(op, res["reference"], spec["replicates"]) if res["reference"] else ["no output"]
            for op, res in zip(spec["ops"], result["ops"])
        ]
    res = result["ops"][0]
    if res["reference"] is None:
        return [["no output"]]
    from famsel.cli import REPORT_SCHEMA

    with open(workdir / "reference.json", encoding="utf-8") as fh:
        report = json.load(fh)
    check = oracle.check_wide_report if name == "analyze-wide" else oracle.check_rmin_report
    return [check(report, pvalues, REPORT_SCHEMA)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "famsel" / "__init__.py").is_file():
        fail(f"no famsel sources under {SRC}")
    if not 0 <= args.seed < 2**63:
        fail("--seed must lie in [0, 2^63)")
    sys.path.insert(0, str(SRC))

    spec = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else setup_seconds()
        pvalues = None
        if spec["kind"] == "analyze":
            pvalues = workloads.analyze_pvalues(args.workload, args.seed)
            workloads.write_csv(workdir / "input.csv", pvalues)
        result = run_worker(args, workdir)
        problems = check_outputs(args.workload, spec, result, pvalues, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = failed = 0
    for res, bad in zip(result["ops"], problems):
        for rnd in res["rounds"]:
            attempted += 1
            failed += bool(bad or rnd["error"] or not rnd["identical"])
    correct = not any(problems) and result["workers_identical"] is not False

    round_cost = statistics.median(result["round_cost"])
    print(
        f"{args.workload} seed={args.seed} rounds={result['rounds']} "
        f"round_s={statistics.median(result['round_s']):.6f} "
        f"yardstick_s={statistics.median(result['yardstick_s']):.6f} "
        f"round_cost={round_cost:.4f} attempted={attempted} failed={failed}",
        file=sys.stderr,
    )
    for k, bad in enumerate(problems):
        for line in bad:
            print(f"  op {k}: {line}", file=sys.stderr)
    if result["workers_identical"] is False:
        print("  two workers did not reproduce one worker's estimate", file=sys.stderr)

    if args.trace:
        trace = result["trace"]
        for hook in trace["missing"]:
            print(f"  hook target missing: {hook}", file=sys.stderr)
        metrics = {
            name: {"value": value, "unit": tracer.metric_unit(name)}
            for name, value in trace["metrics"].items()
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_cost": {"value": round_cost, "unit": "yardstick"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
