"""Expected outputs, computed apart from famsel.

Nothing here calls famsel: the closed form of the selection-bias example,
min-p selection, Simes combination, BH step-up and the adaptive two-stage
rule are written out again in NumPy. Each check returns a list of problems;
an empty list means the output passed.
"""

import math

import numpy as np

from workloads import Q, family_ids, hypothesis_ids

# Standard errors a Monte Carlo estimate may stray from its target. A full set
# of benchmark runs makes several hundred of these checks on correct code: at
# 3 SE about one check in 370 would fail, at 6 SE about one in 500 million.
Z = 6.0


def closed_form_example1(q: float, m: int, n: int):
    """(E(C_S), E(|S|/m)) for all-null min-p selection at q with Bonferroni
    at the unadjusted level q inside and C the FWER indicator."""
    sel = 1.0 - (1.0 - q) ** n
    return (1.0 - (1.0 - q / n) ** n) * (1.0 - (1.0 - q) ** (n * m)) / sel, sel


def _check_se(est, replicates):
    e_cs, e_sel, se, reps = est
    problems = []
    if reps != replicates:
        problems.append(f"{reps} replicates reported, {replicates} asked")
    # C_S lies in [0, 1], so its sample standard deviation is at most 1/2
    # (times the ddof=1 correction).
    if not 0.0 <= se <= 0.5 * math.sqrt(1.0 / (replicates - 1)):
        problems.append(f"se {se!r} outside [0, 0.5/sqrt(R-1)]")
    if not (0.0 <= e_cs <= 1.0 and 0.0 <= e_sel <= 1.0):
        problems.append(f"estimates {e_cs!r}, {e_sel!r} outside [0, 1]")
    return problems


def check_null_minp(op, est, replicates):
    """Both estimates within Z SE of the closed form."""
    problems = _check_se(est, replicates)
    e_cs, e_sel, se = est[0], est[1], est[2]
    want_cs, want_sel = closed_form_example1(Q, op["m"], op["n"])
    if abs(e_cs - want_cs) > Z * se:
        problems.append(f"e_cs_hat {e_cs:.5f}, closed form {want_cs:.5f}, se {se:.2e}")
    # E(|S|/m) averages m * R independent selection indicators.
    sel_se = math.sqrt(want_sel * (1.0 - want_sel) / (op["m"] * replicates))
    if abs(e_sel - want_sel) > Z * sel_se:
        problems.append(f"e_sel_frac_hat {e_sel:.5f}, closed form {want_sel:.5f}")
    return problems


def check_signal(op, est, replicates):
    """The paper's guarantee: the average error over the selected families
    stays at or below q."""
    problems = _check_se(est, replicates)
    if est[0] > Q + Z * est[2]:
        problems.append(f"e_cs_hat {est[0]:.5f} above q + {Z:g} se ({est[2]:.2e})")
    return problems


def step_up_counts(sorted_rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """BH rejection count of each row of ascending p-values at its level."""
    n = sorted_rows.shape[1]
    hits = sorted_rows <= np.arange(1, n + 1) * levels[:, None] / n
    last = n - np.argmax(hits[:, ::-1], axis=1)
    return np.where(hits.any(axis=1), last, 0)


def bh_rejected(pvalues: np.ndarray, level: float) -> np.ndarray:
    """Mask of the hypotheses BH rejects in one family."""
    k = step_up_counts(np.sort(pvalues)[None, :], np.array([level]))[0]
    if k == 0:
        return np.zeros(pvalues.size, dtype=bool)
    return pvalues <= np.sort(pvalues)[k - 1]


def simes(p: np.ndarray) -> np.ndarray:
    n = p.shape[1]
    return np.clip((np.sort(p, axis=1) * n / np.arange(1, n + 1)).min(axis=1), 0.0, 1.0)


def two_stage_counts(sorted_rows: np.ndarray, q: float) -> np.ndarray:
    """Selected count of the adaptive two-stage BH rule on each row."""
    g, m = sorted_rows.shape
    q1 = q / (1.0 + q)
    r1 = step_up_counts(sorted_rows, np.full(g, q1))
    m0 = m - r1
    r2 = step_up_counts(sorted_rows, q1 * m / np.maximum(m0, 1))
    return np.where(m0 == 0, m, r2)


def _check_family(rec, fid, selected, level, pvalues, hyps):
    problems = []
    if rec["family_id"] != fid:
        return [f"family {fid}: report has {rec['family_id']!r}"]
    if rec["selected"] != selected:
        problems.append(f"family {fid}: selected {rec['selected']}, expected {selected}")
    elif not selected:
        if rec["r_min"] is not None or rec["adjusted_level"] is not None or rec["rejected"]:
            problems.append(f"family {fid}: unselected family has a level or rejections")
    else:
        if rec["adjusted_level"] is None or not math.isclose(
            rec["adjusted_level"], level, rel_tol=1e-12
        ):
            problems.append(f"family {fid}: level {rec['adjusted_level']}, expected {level!r}")
        want = [h for h, hit in zip(hyps, bh_rejected(pvalues, level)) if hit]
        if rec["rejected"] != want:
            problems.append(f"family {fid}: rejected {rec['rejected']}, expected {want}")
    return problems


def _check_layout(report, m, schema):
    import jsonschema

    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as err:
        return [f"report does not match REPORT_SCHEMA: {err.message}"]
    if len(report["selection"]["families"]) != m:
        return [f"{len(report['selection']['families'])} family records, {m} families"]
    return []


def check_wide_report(report, pvalues, schema):
    """Min-p selection at 0.05, then BH inside every selected family at
    R*q/m with r_min = R."""
    m, n = pvalues.shape
    problems = _check_layout(report, m, schema)
    if problems:
        return problems
    selected = pvalues.min(axis=1) <= 0.05
    r = int(selected.sum())
    if report["selection"]["r"] != r:
        problems.append(f"r {report['selection']['r']}, expected {r}")
    level = r * Q / m
    hyps = hypothesis_ids(n)
    for i, (fid, rec) in enumerate(zip(family_ids(m), report["selection"]["families"])):
        if selected[i] and rec["r_min"] != r:
            problems.append(f"family {fid}: r_min {rec['r_min']}, expected R = {r}")
        problems += _check_family(rec, fid, bool(selected[i]), level, pvalues[i], hyps)
        if len(problems) > 10:
            break
    return problems


def grid_r_min(summaries: np.ndarray, i: int, q: float):
    """Smallest selected count with family i selected, over a grid of i's
    summary value.

    The grid is built from every other family's summary and every j*q'/d
    cutoff of the two-stage rule (q' = q/(1+q), j, d <= m). Counts are taken
    at the midpoints between neighbouring grid values: the selected set is
    constant between them, and a midpoint sits where float rounding of a
    cutoff cannot decide a comparison.
    """
    m = summaries.size
    q1 = q / (1.0 + q)
    j = np.arange(1, m + 1, dtype=np.float64)
    cutoffs = (j[:, None] * q1 / j[None, :]).ravel()
    others = np.delete(summaries, i)
    values = np.unique(np.concatenate([[0.0, 1.0], others, cutoffs[cutoffs <= 1.0]]))
    points = (values[:-1] + values[1:]) / 2.0
    rows = np.repeat(summaries[None, :], points.size, axis=0)
    rows[:, i] = points
    ordered = np.sort(rows, axis=1)
    counts = two_stage_counts(ordered, q)
    kept = (counts > 0) & (points <= ordered[np.arange(points.size), np.maximum(counts, 1) - 1])
    return int(counts[kept].min()) if kept.any() else None


def check_rmin_report(report, pvalues, schema):
    """Simes combination, two-stage BH selection at q, and BH inside each
    selected family at r_min*q/m, with 1 <= r_min <= R and r_min no larger
    than the grid minimum."""
    m, n = pvalues.shape
    problems = _check_layout(report, m, schema)
    if problems:
        return problems
    summaries = simes(pvalues)
    r = int(two_stage_counts(np.sort(summaries)[None, :], Q)[0])
    selected = summaries <= np.sort(summaries)[r - 1] if r else np.zeros(m, dtype=bool)
    if report["selection"]["r"] != r:
        problems.append(f"r {report['selection']['r']}, expected {r}")
    hyps = hypothesis_ids(n)
    for i, (fid, rec) in enumerate(zip(family_ids(m), report["selection"]["families"])):
        r_min = rec["r_min"]
        if selected[i]:
            if not (isinstance(r_min, int) and 1 <= r_min <= r):
                problems.append(f"family {fid}: r_min {r_min!r} outside [1, {r}]")
                continue
            bound = grid_r_min(summaries, i, Q)
            if bound is None or r_min > bound:
                problems.append(f"family {fid}: r_min {r_min} above the grid minimum {bound}")
        level = r_min * Q / m if selected[i] else None
        problems += _check_family(rec, fid, bool(selected[i]), level, pvalues[i], hyps)
    return problems
