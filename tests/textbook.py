"""The textbook procedures, one family at a time.

famsel runs every procedure through one batched test,
`famsel.procedures.rejected_entries`, with the named procedures and
`Procedure.apply` as its one-row case. These are the per-family loops that
batched test replaced, kept as the reference the tests compare it against.
The generic step_up and step_down are famsel's own, which keep their
per-family code.
"""

import numpy as np

from famsel.procedures import (
    bh_critical_values,
    holm_critical_values,
    lr_kfwer_critical_values,
    stage_one_level,
    stage_two_level,
    step_down,
    step_up,
)


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
