"""Within-family multiple testing procedures applied at a given level.

All procedures take a 1d array-like of p-values and return the rejected
indices as a sorted integer array. Comparisons against critical values use
<=, so ties at a cutoff are always rejected together.

One batched test, `rejected_entries`, runs a `Procedure` on many families
of one size at once, each at its own level; `Procedure.apply` and the named
procedures are its one-row case. `step_up` and `step_down` keep their own
code: they accept decreasing critical values, which can split a tie.
"""

from dataclasses import dataclass

import numpy as np

from .core import _last_axis_first

PROCEDURE_KINDS = (
    "bonferroni",
    "holm",
    "hochberg",
    "bh",
    "two_stage",
    "lr_kfwer",
    "step_up",
    "step_down",
)

_STEPWISE = {
    "bonferroni": "single-step",
    "holm": "step-down",
    "hochberg": "step-up",
    "bh": "step-up",
    "two_stage": "adaptive",
    "lr_kfwer": "step-down",
    "step_up": "step-up",
    "step_down": "step-down",
}


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


def bh_critical_values(n: int, level: float) -> np.ndarray:
    return np.arange(1, n + 1) * (level / n)


def holm_critical_values(n: int, level: float) -> np.ndarray:
    return level / np.arange(n, 0, -1)


def lr_kfwer_critical_values(n: int, level: float, k: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.where(i <= k, k * level / n, k * level / (n + k - i))


def stage_one_level(level):
    """BH level q' = level / (1 + level) of the two-stage procedure's first stage."""
    return level / (1.0 + level)


def stage_two_level(q1, n, m0_hat):
    """BH level (n / m0_hat) * q' of the second stage, as every caller rounds it."""
    return q1 * n / m0_hat


@dataclass(frozen=True)
class Procedure:
    """A named within-family testing procedure.

    Parametric kinds (bonferroni, holm, hochberg, bh, two_stage, lr_kfwer)
    are applied at a caller-supplied level. The generic kinds step_up and
    step_down carry explicit critical values instead and cannot be re-leveled.
    """

    kind: str
    critical_values: tuple | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in PROCEDURE_KINDS:
            raise ValueError(f"unknown procedure kind {self.kind!r}")
        generic = self.kind in ("step_up", "step_down")
        if generic != (self.critical_values is not None):
            raise ValueError(
                "critical_values must be given exactly for step_up/step_down"
            )
        if self.critical_values is not None:
            crit = tuple(float(c) for c in self.critical_values)
            object.__setattr__(self, "critical_values", crit)
            arr = np.asarray(crit)
            if arr.size == 0 or np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError("critical values must lie in [0, 1]")
            if np.any(np.diff(arr) < 0.0):
                raise ValueError("critical values must be nondecreasing")
        if (self.k is not None) != (self.kind == "lr_kfwer"):
            raise ValueError("k must be given exactly for lr_kfwer")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def stepwise(self) -> str:
        """One of single-step / step-up / step-down / adaptive."""
        return _STEPWISE[self.kind]

    def apply(self, pvalues, level: float | None = None) -> np.ndarray:
        """Rejected index set when run at the given level."""
        p = np.asarray(pvalues, dtype=np.float64).ravel()
        if p.size == 0:
            raise ValueError("cannot test an empty family")
        levels = None if level is None else np.array([level], dtype=np.float64)
        return np.flatnonzero(rejected_entries(self, p[None, :], levels)[0])

    def thresholds(self, n: int, level: float | None = None) -> np.ndarray:
        """Every constant the rejection decision compares a p-value against:
        the breakpoints that make a selection rule's R_min search exact. For
        two_stage these are all n**2 stage-two constants; the R_min bisection
        needs only stage one's, then one null count's stage-two ones.
        """
        if self.kind in ("step_up", "step_down"):
            return np.asarray(self.critical_values)
        if level is None:
            raise ValueError(f"a level is required for {self.kind}")
        if self.kind == "bonferroni":
            return np.array([level / n])
        if self.kind == "bh":
            return bh_critical_values(n, level)
        if self.kind in ("holm", "hochberg"):
            return holm_critical_values(n, level)
        if self.kind == "lr_kfwer":
            return lr_kfwer_critical_values(n, level, self.k)
        # two_stage: stage one compares against BH constants at q', stage two
        # against BH constants at (n/m0_hat)*q' for every possible m0_hat,
        # rounded exactly as two_stage_adaptive rounds them.
        q1 = stage_one_level(level)
        d = np.arange(1, n + 1)[:, None]
        stage_two = bh_critical_values(n, stage_two_level(q1, n, d))
        return np.unique(np.concatenate([bh_critical_values(n, q1), stage_two.ravel()]))

    def describe(self) -> str:
        if self.kind == "lr_kfwer":
            return f"lr_kfwer:{self.k}"
        if self.kind in ("step_up", "step_down"):
            return f"{self.kind}[{len(self.critical_values)}]"
        return self.kind


def _step_up_counts(ps: np.ndarray, crit: np.ndarray) -> np.ndarray:
    # A row's count is the rank of its last hit: the first in the reversed
    # row, where an appended hit stands for a count of 0.
    hits = (ps <= crit)[:, ::-1]
    hits = np.concatenate([hits, np.ones((len(ps), 1), dtype=bool)], axis=1)
    return ps.shape[1] - np.argmax(hits, axis=1)


def _step_down_counts(ps: np.ndarray, crit: np.ndarray) -> np.ndarray:
    # A row's count is the rank before its first miss; an appended miss
    # stops a row that passes throughout.
    ok = np.concatenate([ps <= crit, np.zeros((len(ps), 1), dtype=bool)], axis=1)
    return np.argmin(ok, axis=1)


def rejection_counts(procedure: Procedure, ps: np.ndarray, levels=None) -> np.ndarray:
    """Number of rejections in each row of a row-sorted (s, n) p-value matrix.

    levels holds one testing level per row, or is None for step_up and
    step_down. The critical values come from `bh_critical_values`,
    `holm_critical_values` and `lr_kfwer_critical_values` at each row's
    level, so each count equals the one `step_up` or `step_down` gives over
    them. Critical values never decrease, so a count never splits tied
    p-values: the rejected set of a row is exactly its first r entries.
    """
    n = ps.shape[1]
    kind = procedure.kind
    if kind in ("step_up", "step_down"):
        if levels is not None:
            raise ValueError(
                f"{kind} carries fixed critical values and cannot be applied "
                "at a level"
            )
        crit = np.asarray(procedure.critical_values)
        if crit.size != n:
            raise ValueError("need exactly one critical value per p-value")
        counts = _step_up_counts if kind == "step_up" else _step_down_counts
        return counts(ps, crit)
    if levels is None:
        raise ValueError(f"a level is required for {kind}")
    levels = np.asarray(levels, dtype=np.float64)[:, None]
    if kind == "bonferroni":
        return np.add.reduce(_last_axis_first(ps <= levels / n), axis=0)
    if kind == "bh":
        return _step_up_counts(ps, bh_critical_values(n, levels))
    if kind == "hochberg":
        return _step_up_counts(ps, holm_critical_values(n, levels))
    if kind == "holm":
        return _step_down_counts(ps, holm_critical_values(n, levels))
    if kind == "lr_kfwer":
        k = procedure.k
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for {n} hypotheses")
        return _step_down_counts(ps, lr_kfwer_critical_values(n, levels, k))
    q1 = stage_one_level(levels)
    m0 = n - _step_up_counts(ps, bh_critical_values(n, q1))
    level2 = stage_two_level(q1, n, np.maximum(m0, 1)[:, None])
    r2 = _step_up_counts(ps, bh_critical_values(n, level2))
    return np.where(m0 == 0, n, r2)


def rejected_by_counts(ps: np.ndarray, r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each value falls in its row's rejected set.

    ps is a row-sorted (s, n) matrix, r its rejection counts and values an
    (s,) or (s, k) array of values on the same scale. Counts never split a
    tie, so row i rejects exactly the values <= ps[i, r[i]-1] when r[i] > 0,
    and none (no value is <= -inf) when r[i] = 0.
    """
    kth = np.where(r > 0, ps[np.arange(r.size), r - 1], -np.inf)
    return values <= kth.reshape((-1,) + (1,) * (values.ndim - 1))


def rejected_entries(procedure: Procedure, rows: np.ndarray, levels=None):
    """Which entries of each family the procedure rejects, and how many.

    rows is an (s, n) matrix of families of one size and levels holds one
    level per row, or is None for step_up and step_down. Returns the
    (s, n) rejected-entry mask and the (s,) rejection counts. Families of
    mixed sizes are tested one `core.size_groups` group at a time.
    """
    if levels is not None:
        levels = np.asarray(levels, dtype=np.float64)
        if procedure.kind == "bonferroni":
            # single step: no sort; the cutoff `rejection_counts` compares
            # against, applied one column of all the rows at a time
            hit = _last_axis_first(rows) <= levels / rows.shape[1]
            return hit.T, np.add.reduce(hit, axis=0)
    ps = np.sort(rows, axis=1)
    r = rejection_counts(procedure, ps, levels)
    return rejected_by_counts(ps, r, rows), r


def bonferroni(pvalues, level: float) -> np.ndarray:
    """Reject every hypothesis with p <= level / n."""
    return Procedure("bonferroni").apply(pvalues, level)


def holm(pvalues, level: float) -> np.ndarray:
    """Holm step-down at the given level."""
    return Procedure("holm").apply(pvalues, level)


def hochberg(pvalues, level: float) -> np.ndarray:
    """Hochberg step-up at the given level."""
    return Procedure("hochberg").apply(pvalues, level)


def bh(pvalues, level: float) -> np.ndarray:
    """Benjamini-Hochberg step-up at the given level."""
    return Procedure("bh").apply(pvalues, level)


def two_stage_adaptive(pvalues, level: float) -> np.ndarray:
    """Two-stage adaptive FDR controller.

    Stage one runs BH at q' = level / (1 + level); the null count is then
    estimated as m0_hat = n - R1 and, unless m0_hat = 0 (reject everything),
    stage two reruns BH at (n / m0_hat) * q'.
    """
    return Procedure("two_stage").apply(pvalues, level)


def lehmann_romano_kfwer(pvalues, level: float, k: int) -> np.ndarray:
    """Step-down control of the probability of k or more false rejections.

    Uses critical values k*level/n for ranks below k and k*level/(n+k-i)
    from rank k on; k = 1 recovers Holm exactly.
    """
    return Procedure("lr_kfwer", k=k).apply(pvalues, level)

