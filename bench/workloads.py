"""Workload definitions and seeded input generation.

A workload is a fixed round of operations. An operation is one scenario
estimate (`famsel.sim.estimate`, workers = 1) or one
`famsel.cli.main(["analyze", ...])` call. Every round repeats the same
operations on the same inputs, so each round's outputs must be bit-identical
to the first round's and per-round counts repeat exactly. Inputs depend only
on the seed.

This module imports no part of famsel: the checker and the worker process
both read the definitions from here.
"""

import numpy as np
from scipy import special

Q = 0.05

# The four table1 scenarios: (m families, n hypotheses per family).
TABLE1_ROWS = ((20, 100), (100, 20), (100, 10), (100, 2))

WORKLOADS = {
    # All-null min-p selection with Bonferroni at the unadjusted level: the
    # n = 2 row is bound by per-replicate Python overhead and the n = 100
    # row by p-value generation. Has a closed form to check against.
    "mc-null-minp": {
        "kind": "mc",
        "replicates": 500,
        "ops": [
            {
                "m": m,
                "n": n,
                "rule": "minp:0.05",
                "procedure": "bonferroni",
                "metric": "fwer",
                "adjustment": "none",
                "pi1": 0.0,
                "mu": 0.0,
            }
            for m, n in TABLE1_ROWS
        ],
    },
    # Signal with Simes/BH global-null selection and BH or Holm inside at
    # R*q/m: normal draws, the sort-based combiner, step-up and step-down
    # kernels and non-zero false-rejection counts.
    "mc-signal-simes": {
        "kind": "mc",
        "replicates": 1000,
        "ops": [
            {
                "m": 20,
                "n": 6,
                "rule": "global:simes:bh",
                "procedure": procedure,
                "metric": metric,
                "adjustment": "simple",
                "pi1": 1.0 / 3.0,
                "mu": 2.5,
            }
            for procedure, metric in (("bh", "fdr"), ("holm", "fwer"))
        ],
    },
    # 2*10^4 families x 5 hypotheses: CSV parsing and JSON emission dominate,
    # and the rule is simple, so no R_min scan runs. One call takes about a
    # second, so a run holds enough rounds for a steady median.
    "analyze-wide": {
        "kind": "analyze",
        "families": 20_000,
        "size": 5,
        "rule": "minp:0.05",
        "procedure": "bh",
        "adjust": "rmin",
    },
    # A few dozen families under the adaptive two-stage global rule: the
    # exact R_min scan dominates and I/O is negligible.
    "analyze-rmin": {
        "kind": "analyze",
        "families": 40,
        "size": 5,
        "strong_families": 8,
        "moderate_families": 4,
        "rule": "global:simes:twostage",
        "procedure": "bh",
        "adjust": "rmin",
    },
}

# Distinct stream per analyze input, so that two workloads never share draws.
_INPUT_TAGS = {"analyze-wide": 1, "analyze-rmin": 2}


def analyze_pvalues(name: str, seed: int) -> np.ndarray:
    """The (families, size) p-value matrix of an analyze workload."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, _INPUT_TAGS[name]])
    m, n = spec["families"], spec["size"]
    if name == "analyze-wide":
        # All hypotheses null except the first one in about 10% of the
        # families, which is a one-sided normal p-value with shift 3.5.
        p = rng.uniform(size=(m, n))
        signal = rng.uniform(size=m) < 0.1
        p[signal, 0] = special.ndtr(-(rng.standard_normal(int(signal.sum())) + 3.5))
        return p
    # analyze-rmin: every p-value lies in [0.2, 1] except one per family in
    # the first strong + moderate families. A strong family's Simes p-value
    # is at most 1e-3, so both stages of the two-stage rule select it. A
    # moderate family's lies in [0.01735, 0.01783]: above every stage-one
    # cutoff it could meet, and below the stage-two cutoff at rank 12 only
    # while all 8 strong families pass stage one (12*q'/32 = 0.017857, while
    # 12*q'/33 = 0.017316). So R = 12, a moderate family has R_min = 12, and
    # a strong family has R_min = 8: raised just past its stage-one cutoff,
    # it stays selected and the moderate families drop out. The selected
    # count, and with it the R_min scan's work, is the same for every seed.
    strong, moderate = spec["strong_families"], spec["moderate_families"]
    p = rng.uniform(0.2, 1.0, size=(m, n))
    p[:strong] = rng.uniform(size=(strong, n))
    picked = np.arange(strong + moderate)
    p[picked, rng.integers(n, size=picked.size)] = np.concatenate(
        [rng.uniform(1e-7, 2e-4, size=strong), rng.uniform(0.01735, 0.01783, size=moderate) / n]
    )
    return p


def family_ids(m: int) -> list:
    return [f"g{i:06d}" for i in range(m)]


def hypothesis_ids(n: int) -> list:
    return [f"h{j + 1}" for j in range(n)]


def write_csv(path, pvalues: np.ndarray):
    """famsel's input layout, with p-values as round-trip decimals."""
    m, n = pvalues.shape
    hyps = hypothesis_ids(n)
    lines = ["family,hypothesis,p_value"]
    for fid, row in zip(family_ids(m), pvalues.tolist()):
        lines.extend(f"{fid},{h},{p!r}" for h, p in zip(hyps, row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def analyze_argv(name: str, csv_path, out_path) -> list:
    spec = WORKLOADS[name]
    return [
        "analyze",
        str(csv_path),
        "--rule",
        spec["rule"],
        "--procedure",
        spec["procedure"],
        "--q",
        repr(Q),
        "--adjust",
        spec["adjust"],
        "--output",
        str(out_path),
    ]
