"""Runs one workload's operations in a closed loop and records their outputs.

run.py starts this script as its own process, so that its peak resident
memory is the workload's alone, and checks what it writes. One caller sends
the next operation only after the previous one returned. A warm-up round
runs first; its outputs are the reference that every timed round must repeat
bit for bit. Timed rounds run until the next one would end past --seconds,
and at least MIN_ROUNDS of them.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
# Replicates of the short run repeated with two workers.
WORKER_CHECK_REPLICATES = 200


def import_famsel():
    """famsel from this checkout's src, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import famsel

    if Path(famsel.__file__).resolve().parent != (src / "famsel").resolve():
        raise SystemExit(f"famsel was imported from {famsel.__file__}, not {src}")
    from famsel import cli, sim

    return cli, sim


def mc_operations(spec, seed, cli, sim):
    configs = [
        sim.ScenarioConfig(
            m=op["m"],
            n=op["n"],
            q=workloads.Q,
            rule=cli.parse_rule(op["rule"], workloads.Q),
            procedure=cli.parse_procedure(op["procedure"]),
            metric=cli.parse_metric(op["metric"]),
            replicates=spec["replicates"],
            seed=seed,
            pi1=op["pi1"],
            mu=op["mu"],
            adjustment=op["adjustment"],
        )
        for op in spec["ops"]
    ]

    def operation(config):
        def call():
            # Looked up at call time, so that a traced run sees its wrapper.
            est = sim.estimate(config, workers=1)
            return [est.e_cs_hat, est.e_sel_frac_hat, est.se, est.replicates]

        return call, lambda value: value

    return [operation(c) for c in configs], configs


def analyze_operation(name, workdir, cli):
    out = workdir / "report.json"
    argv = workloads.analyze_argv(name, workdir / "input.csv", out)

    def call():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"famsel analyze exited with {code}")

    def output(_):
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    return call, output


_YARDSTICK_ROWS = np.random.default_rng(0).uniform(size=(64, 8))


def yardstick() -> float:
    """Wall time of a fixed computation that never touches famsel.

    A shared machine's speed can swing by a third within minutes as other
    tenants load it. A round's wall time divided by the mean of the
    yardsticks measured right before and after it cancels most of that
    swing. The yardstick mixes the kinds of work famsel spends its time on:
    interpreted arithmetic, string and float parsing with dict grouping, and
    NumPy calls on small arrays.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    groups = {}
    for i in range(20_000):
        key, text = f"g{i % 997},{i * 0.1!r}".split(",")
        groups.setdefault(key, []).append(float(text))
    for _ in range(300):
        np.sort(_YARDSTICK_ROWS, axis=1).min(axis=1)
    return time.perf_counter() - start


def run_round(ops):
    """[(seconds, output, error)] for one pass over the operations."""
    results = []
    for call, output in ops:
        start = time.perf_counter()
        try:
            value = call()
        except (Exception, SystemExit) as err:  # a failed operation is counted
            results.append((time.perf_counter() - start, None, repr(err)))
            continue
        results.append((time.perf_counter() - start, output(value), None))
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    cli, sim = import_famsel()
    spec = workloads.WORKLOADS[args.workload]
    configs = []
    if spec["kind"] == "mc":
        ops, configs = mc_operations(spec, args.seed, cli, sim)
    else:
        ops = [analyze_operation(args.workload, args.workdir, cli)]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    reference = run_round(ops)
    if spec["kind"] == "analyze" and reference[0][2] is None:
        shutil.copyfile(args.workdir / "report.json", args.workdir / "reference.json")

    rounds, traces, yardsticks = [], [], [yardstick()]
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        rounds.append(run_round(ops))
        yardsticks.append(yardstick())
        if tracer:
            traces.append(tracer.snapshot())
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    workers_identical = None
    if configs:
        short = replace(configs[0], replicates=WORKER_CHECK_REPLICATES)
        workers_identical = sim.estimate(short, workers=1) == sim.estimate(short, workers=2)

    round_s = [sum(r[0] for r in rnd) for rnd in rounds]
    result = {
        "rounds": len(rounds),
        "round_s": round_s,
        "yardstick_s": yardsticks,
        "round_cost": [
            t / ((before + after) / 2.0)
            for t, before, after in zip(round_s, yardsticks, yardsticks[1:])
        ],
        "peak_rss_mb": peak_rss_mb,
        "ops": [
            {
                "reference": ref[1],
                "reference_error": ref[2],
                "rounds": [
                    {"error": rnd[k][2], "identical": rnd[k][1] == ref[1]}
                    for rnd in rounds
                ],
            }
            for k, ref in enumerate(reference)
        ],
        "workers_identical": workers_identical,
        "trace": None,
    }
    if tracer:
        result["trace"] = {
            "missing": tracer.missing,
            "metrics": {
                name: statistics.median(t[name] for t in traces) for name in traces[0]
            },
        }
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
