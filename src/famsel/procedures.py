"""Within-family multiple testing procedures applied at a given level.

All procedures take a 1d array-like of p-values and return the rejected
indices as a sorted integer array. Comparisons against critical values use
<=, so ties at a cutoff are always rejected together.

One batched test, `rejected_entries`, runs a `Procedure` on many families
of one size at once, each at its own level; `Procedure.apply` and the named
procedures are its one-row case. It sorts the rows unless the caller has,
and forms the counts and the mask on `core._last_axis_first`'s layout, one
(n, s) column per family: `rejection_counts` copies nothing for sorted rows
that are a view of that layout's memory, as a Monte Carlo block's are.
One table, `_KINDS`, gives each kind its stepwise label and its critical
values on either layout, and the counts and `Procedure.thresholds` both
read it. `step_up` and `step_down` are the one-row case of the step counts
on the stable sort, so a decreasing critical value can split a tie there.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _column_counts, _count_type, _last_axis_first, _positive_int


def _one_row(counts, pvalues, critical_values) -> np.ndarray:
    """Ascending indices of the p-values rejected by the count `counts` makes
    on their stable sort, so a split tie keeps its first entries."""
    p = np.asarray(pvalues, dtype=np.float64)
    crit = np.asarray(critical_values, dtype=np.float64)
    if crit.shape != p.shape:
        raise ValueError("need exactly one critical value per p-value")
    order = np.argsort(p, kind="stable")
    rejected = order[: counts((p[order] <= crit)[:, None])[0]]
    rejected.sort()
    return rejected


def step_up(pvalues, critical_values) -> np.ndarray:
    """Generic step-up: reject the k* smallest p-values, k* = max{k : p_(k) <= c_k}."""
    return _one_row(_step_up_counts, pvalues, critical_values)


def step_down(pvalues, critical_values) -> np.ndarray:
    """Generic step-down: reject the k* smallest, k* = max{k : p_(j) <= c_j for all j <= k}."""
    return _one_row(_step_down_counts, pvalues, critical_values)


@lru_cache(maxsize=32)
def _ranks(n: int) -> np.ndarray:
    """The ranks 1..n as floats, which the critical values are built from:
    an int rank converts to the same float, so the values keep their bits.
    Each n's array is built once and is read-only."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


# Critical values at a level for ranks i, an (n,) row of 1..n with a scalar
# level or an (s, 1) column of row levels, or an (n, 1) column of 1..n with
# an (s,) row of levels for `_last_axis_first`'s layout; out, if given, is
# the memory of the (n, s) values of the last layout.
def _bh(i, level, out=None):
    return np.multiply(i, level / i.size, out=out)


def _holm(i, level, out=None):
    return np.divide(level, i.size + 1.0 - i, out=out)


def _lr_kfwer(i, level, k, out=None):
    # k * level / n up to rank k, k * level / (n + k - i) after it
    n = i.size
    return np.divide(k * level, np.where(i <= k, n, n + k - i), out=out)


def _fixed(procedure, i):
    """A generic procedure's own critical values, laid out as the ranks i."""
    return np.reshape(procedure.critical_values, (-1,) + i.shape[1:])


def bh_critical_values(n: int, level: float) -> np.ndarray:
    return _bh(_ranks(n), level)


def holm_critical_values(n: int, level: float) -> np.ndarray:
    return _holm(_ranks(n), level)


def lr_kfwer_critical_values(n: int, level: float, k: int) -> np.ndarray:
    return _lr_kfwer(_ranks(n), level, k)


def stage_one_level(level):
    """BH level q' = level / (1 + level) of the two-stage procedure's first stage."""
    return level / (1.0 + level)


def stage_two_level(q1, n, m0_hat):
    """BH level (n / m0_hat) * q' of the second stage, as every caller rounds it."""
    return q1 * n / m0_hat


def _stage_two_cutoffs(i, level, m0_hat, out=None) -> np.ndarray:
    """The two-stage procedure's stage-two critical values for ranks i at a
    level (`_bh`), one row for each null-count estimate in the column
    m0_hat, or one column for each in the row m0_hat."""
    return _bh(i, stage_two_level(stage_one_level(level), i.size, m0_hat), out)


# Each kind's stepwise label and its critical values for ranks i at a level,
# on either layout (see `_bh`): every cutoff that `rejection_counts`
# compares a p-value against, save two_stage's second stage
# (`_stage_two_cutoffs`); two_stage's are its first stage's, and the single
# step's is one value per level. A kind run at a level writes its (n, s)
# values into out when given, save the single step, whose values are (s,).
_KINDS = {
    "bonferroni": ("single-step", lambda proc, i, level, out=None: level / i.size),
    "holm": ("step-down", lambda proc, i, level, out=None: _holm(i, level, out)),
    "hochberg": ("step-up", lambda proc, i, level, out=None: _holm(i, level, out)),
    "bh": ("step-up", lambda proc, i, level, out=None: _bh(i, level, out)),
    "two_stage": (
        "adaptive",
        lambda proc, i, level, out=None: _bh(i, stage_one_level(level), out),
    ),
    "lr_kfwer": (
        "step-down",
        lambda proc, i, level, out=None: _lr_kfwer(i, level, proc.k, out),
    ),
    "step_up": ("step-up", lambda proc, i, level, out=None: _fixed(proc, i)),
    "step_down": ("step-down", lambda proc, i, level, out=None: _fixed(proc, i)),
}

PROCEDURE_KINDS = tuple(_KINDS)


def _cutoffs(procedure, n: int, level) -> np.ndarray:
    """The procedure's critical values in `_KINDS` for n p-values at level,
    a scalar or an (s, 1) column."""
    return _KINDS[procedure.kind][1](procedure, _ranks(n), level)


def _entry_cutoffs(procedure, n: int, levels) -> np.ndarray:
    """The entry cutoff of a family of n p-values at each of the 1-d levels
    (None for step_up and step_down): the procedure rejects nothing in a
    family whose smallest p-value lies above it.

    It is the first critical value in `_KINDS` of a single step or a step
    down, which must pass first, and the last one of a step up, as critical
    values never decrease. Two-stage rejects something only once stage one
    does, or else stage two at m0_hat = n, which runs at q1 * n / n and can
    round one ulp above q1: its cutoff is the larger of the two last ones.
    """
    column = None if levels is None else np.asarray(levels, dtype=np.float64)[:, None]
    crit = np.atleast_2d(_cutoffs(procedure, n, column))
    if procedure.stepwise == "step-up":
        return crit[:, -1]
    if procedure.stepwise == "adaptive":
        return np.maximum(crit[:, -1], _stage_two_cutoffs(_ranks(n), column, n)[:, -1])
    return crit[:, 0]


def _check_level(level):
    """Refuse a level that is not None and is NaN or outside [0, 1]."""
    if level is not None and not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")


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
        if self.k is not None and not _positive_int(self.k):
            raise ValueError("k must be a positive integer")

    @property
    def stepwise(self) -> str:
        """One of single-step / step-up / step-down / adaptive."""
        return _KINDS[self.kind][0]

    def apply(self, pvalues, level: float | None = None) -> np.ndarray:
        """Rejected index set when run at the given level, in [0, 1]."""
        p = np.asarray(pvalues, dtype=np.float64).ravel()
        if p.size == 0:
            raise ValueError("cannot test an empty family")
        _check_level(level)
        levels = None if level is None else np.array([level], dtype=np.float64)
        return np.flatnonzero(rejected_entries(self, p[None, :], levels)[0])

    def thresholds(self, n: int, level: float | None = None) -> np.ndarray:
        """Every constant the rejection decision compares a p-value against,
        the kind's cutoffs in `_KINDS`: with them a candidate scan of a global
        rule's R_min is exact. For two_stage these are its stage-one cutoffs
        and all n**2 stage-two ones (`_r_min_scan` reads none)."""
        if n < 1:
            raise ValueError("n must be at least 1")
        if level is None and self.critical_values is None:
            raise ValueError(f"a level is required for {self.kind}")
        _check_level(level)
        crit = np.atleast_1d(_cutoffs(self, n, level))
        if self.stepwise != "adaptive":
            return crit
        stage_two = _stage_two_cutoffs(_ranks(n), level, np.arange(1, n + 1)[:, None])
        return np.unique(np.concatenate([crit, stage_two.ravel()]))

    def describe(self) -> str:
        if self.kind == "lr_kfwer":
            return f"lr_kfwer:{self.k}"
        if self.kind in ("step_up", "step_down"):
            return f"{self.kind}[{len(self.critical_values)}]"
        return self.kind


def _step_up_counts(hits: np.ndarray) -> np.ndarray:
    """The step-up count of each column of (n, s) hits, the p-values of each
    family in ascending order down its column against its critical values:
    the rank of its last hit. Ranks sized to n keep the product off int64."""
    n = hits.shape[0]
    ranks = np.arange(1, n + 1, dtype=_count_type(n))[:, None]
    return np.maximum.reduce(hits * ranks, axis=0, initial=0).astype(np.intp)


def _step_down_counts(hits: np.ndarray) -> np.ndarray:
    """The step-down count of each column of (n, s) hits: the rank before
    its first miss, the least of n at a hit and rank - 1 at a miss."""
    n = hits.shape[0]
    before = np.arange(n, dtype=_count_type(n))[:, None]
    keys = hits * (n - before) + before
    return np.minimum.reduce(keys, axis=0, initial=n).astype(np.intp)


def _check_testable(procedure: Procedure, n: int, levels):
    """Raise the ValueError `rejection_counts` raises when the procedure
    cannot test families of n p-values at levels (None for no level)."""
    if procedure.critical_values is not None:
        if levels is not None:
            raise ValueError(
                f"{procedure.kind} carries fixed critical values and cannot be "
                "applied at a level"
            )
        if len(procedure.critical_values) != n:
            raise ValueError("need exactly one critical value per p-value")
    elif levels is None:
        raise ValueError(f"a level is required for {procedure.kind}")
    k = procedure.k
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} hypotheses")


def rejection_counts(
    procedure: Procedure, ps: np.ndarray, levels=None, empty=np.empty
) -> np.ndarray:
    """Number of rejections in each row of a row-sorted (s, n) p-value matrix.

    levels holds one testing level per row, or is None for step_up and
    step_down. Each row meets its kind's critical values in `_KINDS` at its
    level, counted as the kind's stepwise label says, so each count equals
    the one `step_up` or `step_down` gives over them. Critical values never
    decrease, so a count never splits tied p-values: the rejected set of a
    row is exactly its first r entries. The rows are compared on
    `_last_axis_first`'s layout, with the critical values built on it, in
    memory from empty (np.empty's signature), as are the hits.
    """
    n = ps.shape[1]
    _check_testable(procedure, n, levels)
    if levels is not None:
        levels = np.asarray(levels, dtype=np.float64)
    ps = _last_axis_first(ps)
    i = _ranks(n)[:, None]
    stepwise, cutoffs = _KINDS[procedure.kind]
    out = None if levels is None or stepwise == "single-step" else empty(ps.shape)
    cut = cutoffs(procedure, i, levels, out)
    hits = np.less_equal(ps, cut, out=empty(ps.shape, bool))
    if stepwise == "single-step":
        return _column_counts(hits)
    if stepwise == "step-down":
        return _step_down_counts(hits)
    r = _step_up_counts(hits)
    if stepwise == "step-up":
        return r
    # adaptive: stage one's count gives the null-count estimate m0_hat
    m0 = n - r
    cuts = _stage_two_cutoffs(i, levels, np.maximum(m0, 1), out)
    return np.where(m0 == 0, n, _step_up_counts(np.less_equal(ps, cuts, out=hits)))


def rejected_by_counts(ps: np.ndarray, r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each value falls in its row's rejected set.

    ps is a row-sorted (s, n) matrix, r its rejection counts and values an
    (s,) or (s, k) array of values on the same scale. Counts never split a
    tie, so row i rejects exactly the values <= ps[i, r[i]-1] when r[i] > 0,
    and none (no value is <= -inf) when r[i] = 0. The mask is compared on
    `_last_axis_first`'s layout, so a first-axis count of it copies nothing.
    """
    at = np.arange(-1, ps.size - 1, ps.shape[1]) + r  # flat index of ps[i, r[i]-1]
    kth = np.where(r > 0, ps.take(at), -np.inf)
    return (_last_axis_first(values) <= kth).T


def rejected_entries(procedure: Procedure, rows: np.ndarray, levels=None):
    """Which entries of each family the procedure rejects, and how many.

    rows is an (s, n) matrix of families of one size and levels holds one
    level per row, or is None for step_up and step_down. Returns the (s, n)
    rejected-entry mask and the (s,) rejection counts. Families of mixed
    sizes are tested one `core.size_groups` group at a time.
    """
    if levels is not None and procedure.stepwise == "single-step":
        # no sort: a single step has one cutoff per row, and levels as they
        # come give them as a row that meets `_last_axis_first`'s columns
        levels = np.asarray(levels, dtype=np.float64)
        hit = _last_axis_first(rows) <= _cutoffs(procedure, rows.shape[1], levels)
        return hit.T, _column_counts(hit)
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

