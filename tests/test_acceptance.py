"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Monte Carlo tolerances are three standard errors (or the fixed
margins stated inline), with every run seeded, so the suite is deterministic.
"""

import numpy as np
import pytest

from famsel.adjust import guaranteed_rejection_analysis, iterative_simple_adjusted
from famsel.core import ErrorMetric, PValueEnsemble
from famsel.procedures import Procedure, bh
from famsel.selection import (
    GlobalNullTest,
    MinPThreshold,
    TopKMinP,
    _r_min_scan,
    check_simple,
    select,
)
from famsel.sim import (
    ScenarioConfig,
    closed_form_example1,
    estimate,
    prds_control_check,
)

TABLE_ROWS = {
    (20, 100): (0.049, 0.99),
    (100, 20): (0.076, 0.64),
    (100, 10): (0.122, 0.40),
    (100, 2): (0.506, 0.1),
}


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {name}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _example1_config(m, n, reps, seed, adjustment="none"):
    return ScenarioConfig(
        m=m,
        n=n,
        q=0.05,
        rule=MinPThreshold(0.05),
        procedure=Procedure("bonferroni"),
        metric=ErrorMetric("fwer"),
        replicates=reps,
        seed=seed,
        adjustment=adjustment,
    )


def test_criterion_01_closed_form_table():
    """Closed form reproduces the four benchmark rows at their precision."""
    failures = []
    for (m, n), (e_cs, sel) in TABLE_ROWS.items():
        got_cs, got_sel = closed_form_example1(0.05, m, n)
        if abs(round(got_cs, 3) - e_cs) > 5e-4:
            failures.append(f"e_cs({m},{n})={got_cs:.4f}")
        sel_decimals = len(str(sel).split(".")[1])
        if abs(round(got_sel, sel_decimals) - sel) > 5e-4:
            failures.append(f"sel({m},{n})={got_sel:.4f}")
    _criterion(1, "closed-form table values", not failures, "; ".join(failures))


def test_criterion_02_table_monte_carlo():
    """10^5-replicate estimates agree with the closed form within 3 SE."""
    details = []
    ok = True
    estimates = []
    for seed, (m, n) in enumerate(TABLE_ROWS):
        est = estimate(_example1_config(m, n, reps=10**5, seed=seed))
        e_cs, _ = closed_form_example1(0.05, m, n)
        gap = abs(est.e_cs_hat - e_cs)
        ok &= gap <= 3 * est.se and est.se <= 0.002
        details.append(f"({m},{n}): {est.e_cs_hat:.4f} vs {e_cs:.4f} se={est.se:.4f}")
        estimates.append(est.e_cs_hat)
    # the bias ordering across rows is reproduced as the selection sharpens
    ok &= estimates == sorted(estimates)
    _criterion(2, "table Monte Carlo vs closed form", ok, "; ".join(details))


def test_criterion_03_average_control_grid():
    """Adjusted testing controls E(C_S) over rules x procedures x truths."""
    q = 0.05
    rules = [
        MinPThreshold(0.05),
        TopKMinP(5),
        GlobalNullTest("simes", Procedure("bh"), level=0.05),
    ]
    procedures = {
        "bonferroni": ErrorMetric("fwer"),
        "holm": ErrorMetric("fwer"),
        "bh": ErrorMetric("fdr"),
    }
    truths = {"all-null": (0.0, 0.0), "mixed": (1.0 / 3.0, 2.5)}
    ok = True
    worst = ""
    worst_margin = -np.inf
    seed = 100
    for rule in rules:
        for kind, metric in procedures.items():
            for label, (pi1, mu) in truths.items():
                seed += 1
                config = ScenarioConfig(
                    m=20,
                    n=6,
                    q=q,
                    rule=rule,
                    procedure=Procedure(kind),
                    metric=metric,
                    replicates=50000,
                    seed=seed,
                    pi1=pi1,
                    mu=mu,
                    adjustment="simple",
                )
                est = estimate(config)
                margin = est.e_cs_hat - (q + 3 * est.se)
                if margin > worst_margin:
                    worst_margin = margin
                    worst = (
                        f"{rule.describe()}/{kind}/{label}: "
                        f"{est.e_cs_hat:.4f} (se={est.se:.4f})"
                    )
                ok &= margin <= 0
    # and the unadjusted sharp-selection case still shows the inflation
    biased = estimate(_example1_config(100, 2, reps=50000, seed=997))
    ok &= biased.e_cs_hat >= 0.49
    _criterion(
        3,
        "average-over-selected control grid",
        ok,
        f"worst cell {worst}; unadjusted inflation {biased.e_cs_hat:.3f}",
    )


def test_criterion_04_top_k_adjustment_necessity():
    """Top-k selection: unadjusted level overshoots by m/k, adjusted holds q."""
    common = dict(
        m=100,
        n=10,
        q=0.05,
        rule=TopKMinP(75),
        procedure=Procedure("bonferroni"),
        metric=ErrorMetric("pfer"),
        replicates=30000,
    )
    biased = estimate(ScenarioConfig(seed=41, adjustment="none", **common))
    adjusted = estimate(ScenarioConfig(seed=42, adjustment="simple", **common))
    expected_biased = 100 * 0.05 / 75
    ok = abs(biased.e_cs_hat - expected_biased) <= 0.01
    ok &= abs(adjusted.e_cs_hat - 0.05) <= 0.01
    _criterion(
        4,
        "top-k adjustment necessity",
        ok,
        f"unadjusted {biased.e_cs_hat:.4f} (target {expected_biased:.4f}), "
        f"adjusted {adjusted.e_cs_hat:.4f} (target 0.05)",
    )


def test_criterion_05_iterative_bh_equivalence():
    """Iterative adjustment on singleton families is exactly pooled BH."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for t in range(1000):
        m = int(rng.integers(1, 51))
        q = (0.01, 0.05, 0.1)[t % 3]
        pooled = rng.uniform(size=m)
        ens = PValueEnsemble(pooled[:, None])
        analysis = iterative_simple_adjusted(
            ens, MinPThreshold(q), Procedure("bonferroni"), q
        )
        got = {d.family_id for d in analysis.decisions}
        if got != set(bh(pooled, q).tolist()):
            mismatches += 1
    _criterion(
        5,
        "iterative equivalence with pooled BH",
        mismatches == 0,
        f"{mismatches} mismatches in 1000 ensembles",
    )


def test_criterion_06_simpleness_checks():
    """Stepwise selection shows no witness; adaptive selection shows 3 -> 2."""
    trials = 10**4
    ok = True
    details = []
    # step-up and step-down global-null selection on a probe with selections
    probe_values = np.random.default_rng(300).uniform(size=(5, 3))
    probe_values[0, 0] = 1e-4
    probe_values[1, 0] = 5e-4
    probe_values[2, 0] = 2e-3
    probe = PValueEnsemble(probe_values)
    for procedure in (Procedure("bh"), Procedure("holm")):
        rule = GlobalNullTest("simes", procedure, level=0.3)
        outcome = select(rule, probe)
        ok &= outcome.r > 0
        for i in sorted(outcome.selected):
            report = check_simple(rule, probe, i, trials, seed=17)
            if report.witness_found:
                ok = False
                details.append(f"{procedure.kind} witness at family {i}")
    # the adaptive two-stage construction: three singletons at
    # (q'/6 < q'/3, q'/3 < q'/2 < 2q'/3, 3q'/2 < 2q' < 3q') scaled to q=0.05
    two_stage = GlobalNullTest("bonferroni_min", Procedure("two_stage"), level=0.05)
    ens = PValueEnsemble([[0.01], [0.02], [0.10]])
    report = check_simple(two_stage, ens, 1, trials, seed=18)
    ok &= report.witness_found
    ok &= (report.r_observed, report.r_witness) == (3, 2)
    details.append(
        f"two-stage witness {report.r_observed}->{report.r_witness} "
        f"after {report.trials} trials"
    )
    _criterion(6, "simpleness falsifier", ok, "; ".join(details))


def test_criterion_07_r_min_scan_vs_grid():
    """Breakpoint scan equals a 10^3-point grid minimization on m <= 6."""
    rng = np.random.default_rng(5150)
    grid = np.linspace(0.0, 1.0, 1000)
    procedures = [
        Procedure("bh"),
        Procedure("holm"),
        Procedure("hochberg"),
        Procedure("bonferroni"),
        Procedure("two_stage"),
    ]
    combiners = ["simes", "bonferroni_min", "fisher", "stouffer"]
    cases = 0
    mismatches = 0
    while cases < 500:
        m = int(rng.integers(2, 7))
        rule = GlobalNullTest(
            combiners[cases % 4],
            procedures[cases % 5],
            level=float(rng.uniform(0.1, 0.5)),
        )
        summaries = rng.uniform(size=m)
        i = int(rng.integers(m))
        # every grid point is one row; select_from_summaries is the 1-row case
        work = np.tile(summaries, (grid.size, 1))
        work[:, i] = grid
        picked = rule.select_block(work)
        sizes = picked.sum(axis=1)[picked[:, i]]
        if sizes.size == 0:
            continue
        best = int(sizes.min())
        cases += 1
        if _r_min_scan(rule, summaries, i) != best:
            mismatches += 1
    _criterion(
        7,
        "R_min scan vs brute-force grid",
        mismatches == 0,
        f"{mismatches} mismatches in {cases} cases",
    )


def test_criterion_08_dependent_control():
    """Equicorrelated ensembles keep the dependent-case quantity at q."""
    q = 0.05
    ok = True
    details = []
    scenarios = [
        (MinPThreshold(0.05), "bonferroni", 0.0, 0.0),
        (TopKMinP(5), "bh", 0.3, 2.5),
    ]
    seed = 700
    for rho in (0.25, 0.5, 0.9):
        for rule, kind, pi1, mu in scenarios:
            seed += 1
            config = ScenarioConfig(
                m=20,
                n=5,
                q=q,
                rule=rule,
                procedure=Procedure(kind),
                metric=ErrorMetric("pfer"),  # replaced by the check itself
                replicates=50000,
                seed=seed,
                pi1=pi1,
                mu=mu,
                dependence="equicorrelated",
                rho=rho,
            )
            est = prds_control_check(config)
            ok &= est.e_cs_hat <= q + 3 * est.se
            details.append(f"rho={rho}/{kind}: {est.e_cs_hat:.4f}")
    _criterion(8, "dependent-case control", ok, "; ".join(details))


def test_criterion_09_guaranteed_rejection():
    """Simes/BH-matched analysis rejects in every selected family."""
    rng = np.random.default_rng(888)
    violations = 0
    selected_total = 0
    for _ in range(10**4):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        ens = PValueEnsemble(rng.uniform(size=(m, n)) ** 2)
        try:
            analysis = guaranteed_rejection_analysis(ens, 0.05)
        except AssertionError:
            violations += 1
            continue
        selected_total += analysis.selection.r
        violations += sum(1 for d in analysis.decisions if d.rejected.size == 0)
    _criterion(
        9,
        "guaranteed rejection in selected families",
        violations == 0 and selected_total > 0,
        f"{violations} violations, {selected_total} selections observed",
    )


def test_criterion_10_worker_determinism():
    """Identical (config, seed) gives bit-identical output at 1/4/16 workers."""
    config = ScenarioConfig(
        m=12,
        n=4,
        q=0.05,
        rule=GlobalNullTest("simes", Procedure("bh"), level=0.1),
        procedure=Procedure("bh"),
        metric=ErrorMetric("fdr"),
        replicates=192,
        seed=31337,
        pi1=0.25,
        mu=2.0,
        adjustment="simple",
    )
    serial = estimate(config, workers=1)
    four = estimate(config, workers=4)
    sixteen = estimate(config, workers=16)
    ok = serial == four == sixteen
    _criterion(
        10,
        "bit-identical output across worker counts",
        ok,
        f"e_cs_hat={serial.e_cs_hat!r}",
    )
