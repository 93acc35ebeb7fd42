"""The textbook procedures, one family at a time.

famsel runs every procedure through one batched test,
`famsel.procedures.rejected_entries`, with the named procedures and
`Procedure.apply` as its one-row case. These are the per-family loops that
batched test replaced, kept as the reference the tests compare it against.
The generic step_up and step_down here sort and step once per family,
apart from the batched step counts that famsel's own run on. `decision`
tests one family with one textbook call.
`looped_decide` stands in for `famsel.adjust._decide`: it tests the selected
families of an analysis one `decision` at a time and writes what they
reject into the columns of a `famsel.adjust.DecisionColumns`, family after
family, with no batched test and no mask. The tests check the columns'
per-family view against `decision` on its own.
"""

import numpy as np

from famsel.adjust import DecisionColumns
from famsel.core import FamilyDecision, metric_value
from famsel.procedures import (
    bh_critical_values,
    holm_critical_values,
    lr_kfwer_critical_values,
    stage_one_level,
    stage_two_level,
)


def step_up(pvalues, critical_values) -> np.ndarray:
    """Generic step-up: reject the k* smallest p-values, k* = max{k : p_(k) <= c_k}."""
    p = np.asarray(pvalues, dtype=np.float64)
    crit = np.asarray(critical_values, dtype=np.float64)
    if crit.shape != p.shape:
        raise ValueError("need exactly one critical value per p-value")
    order = np.argsort(p, kind="stable")
    hits = np.flatnonzero(p[order] <= crit)
    if hits.size == 0:
        return np.empty(0, dtype=np.intp)
    rejected = order[: hits[-1] + 1]
    rejected.sort()
    return rejected


def step_down(pvalues, critical_values) -> np.ndarray:
    """Generic step-down: reject the k* smallest, k* = max{k : p_(j) <= c_j for all j <= k}."""
    p = np.asarray(pvalues, dtype=np.float64)
    crit = np.asarray(critical_values, dtype=np.float64)
    if crit.shape != p.shape:
        raise ValueError("need exactly one critical value per p-value")
    order = np.argsort(p, kind="stable")
    ok = p[order] <= crit
    kstar = ok.size if ok.all() else int(np.argmin(ok))
    rejected = order[:kstar]
    rejected.sort()
    return rejected


def bonferroni(pvalues, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    return np.flatnonzero(p <= level / p.size)


def bh(pvalues, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    return step_up(p, bh_critical_values(p.size, level))


def holm(pvalues, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    return step_down(p, holm_critical_values(p.size, level))


def hochberg(pvalues, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    return step_up(p, holm_critical_values(p.size, level))


def two_stage_adaptive(pvalues, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    q1 = stage_one_level(level)
    r1 = bh(p, q1).size
    m0_hat = p.size - r1
    if m0_hat == 0:
        return np.arange(p.size, dtype=np.intp)
    return bh(p, stage_two_level(q1, p.size, m0_hat))


def lehmann_romano_kfwer(pvalues, level: float, k: int) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if not 1 <= k <= p.size:
        raise ValueError(f"k={k} out of range for {p.size} hypotheses")
    return step_down(p, lr_kfwer_critical_values(p.size, level, k))


def apply(procedure, pvalues, level=None) -> np.ndarray:
    """What ``procedure.apply(pvalues, level)`` returns, or the error it raises."""
    p = np.asarray(pvalues, dtype=np.float64)
    kind = procedure.kind
    if kind in ("step_up", "step_down"):
        if level is not None:
            raise ValueError(
                f"{kind} carries fixed critical values and cannot be applied "
                "at a level"
            )
        crit = np.asarray(procedure.critical_values)
        return step_up(p, crit) if kind == "step_up" else step_down(p, crit)
    if level is None:
        raise ValueError(f"a level is required for {kind}")
    if kind == "lr_kfwer":
        return lehmann_romano_kfwer(p, level, procedure.k)
    named = {
        "bonferroni": bonferroni,
        "holm": holm,
        "hochberg": hochberg,
        "bh": bh,
        "two_stage": two_stage_adaptive,
    }
    return named[kind](p, level)


def decision(ensemble, i, level, procedure, metric) -> FamilyDecision:
    """The decision for family i tested at level, from one textbook
    procedure call."""
    rejected = apply(procedure, ensemble.family(i), level)
    decision = FamilyDecision(ensemble.id_of(i), level, rejected)
    truth = ensemble.truth_family(i)
    if truth is not None:
        r = int(rejected.size)
        v = int(truth[rejected].sum())
        decision.v = v
        decision.q_i = v / max(r, 1)
        if metric is not None:
            decision.realized_c = metric_value(metric, v, r)
    return decision


def looped_decide(ensemble, families, counts, levels, procedure, metric):
    """What `famsel.adjust._decide` returns, one textbook procedure call per
    selected family: the per-family decisions its batched test replaced,
    written into the columns of a `DecisionColumns` one family at a time."""
    start, starts = 0, []  # where each family's cells start
    for i in range(ensemble.m):
        starts.append(start)
        start += ensemble.size(i)
    r, cells, v, c = [], [], [], []
    for k, i in enumerate(families.tolist()):
        level = None if levels is None else float(levels[k])
        d = decision(ensemble, i, level, procedure, metric)
        r.append(d.rejected.size)
        cells.extend(starts[i] + j for j in d.rejected.tolist())
        v.append(d.v)
        c.append(d.realized_c)
    return DecisionColumns(
        ensemble,
        families,
        counts,
        levels,
        np.array(r, dtype=np.intp),
        np.array(cells, dtype=np.intp),
        np.array(v, dtype=np.intp) if ensemble.has_truth() else None,
        np.array(c) if ensemble.has_truth() and metric is not None else None,
    )
