"""Family selection rules, global-null p-value combiners, and R_min.

A selection rule reduces each family to a scalar summary (its minimal
p-value, or a combined global-null p-value) and selects families from the
vector of summaries. That structure is what makes the exact R_min scan and
the randomized property checks below possible. Every entry point speaks one
protocol (`_check_rule`): block_summaries maps a (B, m, n) stack of B
ensembles of m families of size n to their (B, m) summaries, and
select_block maps (B, m) summaries to a (B, m) selection mask, each row
exactly as one ensemble would select. An ensemble is the one-replicate case
(`_summarize`), summarized one family size at a time: a sum over padding
could group its terms differently. Where R_min is scanned the rule also
names its summary_thresholds; is_simple (default False) and describe are
optional. Only the Fisher and Stouffer combiners import SciPy.
"""

from dataclasses import dataclass

import numpy as np

from .core import PValueEnsemble, SelectionOutcome, _last_axis_first, _number_text
from .core import in_family_order
from .procedures import (
    Procedure,
    bh_critical_values,
    rejected_by_counts,
    rejection_counts,
    stage_one_level,
    stage_two_level,
)

COMBINERS = ("bonferroni_min", "simes", "fisher", "stouffer")

# Transform-based combiners clamp p-values into [floor, 1 - 1ulp] so that
# log(p) and the normal quantile stay finite at both ends.
DEFAULT_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16

# Cells in one block of the R_min scan's rows, and of the randomized checks'
# trials, so that their memory stays bounded at any m.
_SCAN_BLOCK_CELLS = 1 << 16
# Trials in the concordance check's first block; each next block doubles.
_FIRST_TRIAL_BLOCK = 16


class UnsupportedRuleError(ValueError):
    """Raised for a selection rule outside the rule protocol, or when R_min
    cannot be computed for it."""


def _combine_rows(kind: str, rows: np.ndarray, floor: float) -> np.ndarray:
    """Combined global-null p-value for each row of a (k, n) matrix."""
    n = rows.shape[1]
    if kind == "bonferroni_min":
        out = n * rows.min(axis=1)
    elif kind == "simes":
        ranked = np.sort(rows, axis=1) * (n / np.arange(1.0, n + 1.0))
        out = np.minimum.reduce(_last_axis_first(ranked), axis=0)
    elif kind == "fisher":
        from scipy import special
        stat = -2.0 * np.log(np.clip(rows, floor, 1.0)).sum(axis=1)
        out = special.chdtrc(2 * n, stat)
    elif kind == "stouffer":
        from scipy import special
        z = -special.ndtri(np.clip(rows, floor, _P_CEIL))
        out = special.ndtr(-z.sum(axis=1) / np.sqrt(n))
    else:
        raise ValueError(f"unknown combiner {kind!r}")
    return np.clip(out, 0.0, 1.0)


def combine(combiner: str, pvalues, floor: float = DEFAULT_P_FLOOR) -> float:
    """Single valid p-value for a family's intersection (global null) hypothesis.

    bonferroni_min: min(1, n * min p).  simes: min_j n * p_(j) / j.
    fisher: chi-square(2n) upper tail of -2 sum log p.  stouffer: standard
    normal upper tail of sum_j ppf(1 - p_j) / sqrt(n).
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot combine an empty p-value list")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    return float(_combine_rows(combiner, p[None, :], floor)[0])


def combined_pvalues(
    combiner: str, ensemble: PValueEnsemble, floor: float = DEFAULT_P_FLOOR
) -> np.ndarray:
    """Combined p-value of every family in the ensemble."""
    parts = [_combine_rows(combiner, rows, floor) for rows in ensemble.pvalues]
    return in_family_order(ensemble.groups, parts)


def _check_rule(rule, scan: bool = False):
    """Raise UnsupportedRuleError unless rule has block_summaries and
    select_block and, when R_min is scanned, summary_thresholds."""
    names = ("block_summaries", "select_block") + ("summary_thresholds",) * scan
    missing = [name for name in names if not hasattr(rule, name)]
    if missing:
        needed = " and ".join(missing)
        raise UnsupportedRuleError(f"famsel needs a rule with {needed}")


def _summarize(rule, groups, blocks) -> np.ndarray:
    """(B, m) summaries of B ensembles laid out as groups (`size_groups`),
    from one (B, count, n) block per group."""
    return in_family_order(groups, [rule.block_summaries(p) for p in blocks])


def _summaries(rule, ensemble: PValueEnsemble) -> np.ndarray:
    """The ensemble's summaries, the one-replicate case of `_summarize`."""
    _check_rule(rule)
    return _summarize(rule, ensemble.groups, [p[None] for p in ensemble.pvalues])[0]


def _picked(rule, summaries: np.ndarray) -> np.ndarray:
    """The families one summary vector selects, the 1-row case of select_block."""
    return np.flatnonzero(rule.select_block(summaries[None, :])[0])


class _BlockSelection:
    """A shipped rule: its summaries, selection and one family's summary are
    the one-replicate, 1-row and 1-family cases of its two primitives.

    The R_min bisection rests on the shipped rules' shared property: lowering
    family i's summary never deselects i and never lowers the selected count
    R, and R_min is reached at a breakpoint (0, 1, a summary or a cutoff).
    """

    def summaries(self, ensemble: PValueEnsemble) -> np.ndarray:
        return _summaries(self, ensemble)

    def select_from_summaries(self, summaries: np.ndarray) -> np.ndarray:
        return _picked(self, np.asarray(summaries))

    def summary_of(self, pvalues) -> float:
        p = np.asarray(pvalues, dtype=np.float64)
        return float(self.block_summaries(p[None, None, :])[0, 0])


@dataclass(frozen=True)
class MinPThreshold(_BlockSelection):
    """Select every family whose smallest p-value is <= t."""

    t: float

    is_simple = True

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(_last_axis_first(p), axis=0)

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        return summaries <= self.t

    def summary_thresholds(self, m: int) -> np.ndarray:
        return np.array([self.t])

    def describe(self) -> str:
        return f"minp:{_number_text(self.t)}"


@dataclass(frozen=True)
class TopKMinP(_BlockSelection):
    """Select the k families with the smallest minimal p-values.

    Ties are broken in favor of the smaller family index, so exactly k
    families are selected whenever the ensemble has at least k.
    """

    k: int

    is_simple = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(_last_axis_first(p), axis=0)

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        if self.k > summaries.shape[1]:
            raise ValueError(f"k={self.k} exceeds the number of families")
        picked = np.argsort(summaries, axis=1, kind="stable")[:, : self.k]
        mask = np.zeros(summaries.shape, dtype=bool)
        mask[np.arange(len(mask))[:, None], picked] = True
        return mask

    def summary_thresholds(self, m: int) -> np.ndarray:
        return np.empty(0)  # selection depends on ranks only

    def describe(self) -> str:
        return f"topk:{self.k}"


@dataclass(frozen=True)
class GlobalNullTest(_BlockSelection):
    """Combine each family and select those whose global null is rejected.

    The procedure runs on the m combined p-values at `level`; generic
    step_up / step_down procedures carry their own critical values and take
    level=None.
    """

    combiner: str
    procedure: Procedure
    level: float | None = None
    floor: float = DEFAULT_P_FLOOR

    def __post_init__(self):
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.level is not None and not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.level is None and self.procedure.critical_values is None:
            raise ValueError(f"a level is required for {self.procedure.kind}")

    @property
    def is_simple(self) -> bool:
        # Single-step, step-up and step-down testing keeps the rejection
        # count fixed while a rejected value moves below its cutoff; the
        # adaptive two-stage procedure does not.
        return self.procedure.stepwise != "adaptive"

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        rows = p.reshape(-1, p.shape[2])
        return _combine_rows(self.combiner, rows, self.floor).reshape(p.shape[:2])

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        ps = np.sort(summaries, axis=1)
        levels = None if self.level is None else np.full(len(ps), self.level)
        r = rejection_counts(self.procedure, ps, levels)
        return rejected_by_counts(ps, r, summaries)

    def summary_thresholds(self, m: int) -> np.ndarray:
        return self.procedure.thresholds(m, self.level)

    def describe(self) -> str:
        level = "" if self.level is None else f":{_number_text(self.level)}"
        return f"global:{self.combiner}:{self.procedure.describe()}{level}"


def select(rule, ensemble: PValueEnsemble) -> SelectionOutcome:
    """Apply the selection rule; r_min entries are filled later if needed."""
    picked = _picked(rule, _summaries(rule, ensemble))
    return SelectionOutcome(selected=frozenset(picked.tolist()), r=int(picked.size))


def _candidates(summaries: np.ndarray, cutoffs) -> np.ndarray:
    """Candidate summary values: the breakpoints 0, 1, every summary and
    each cutoff in [0, 1], plus the midpoints between consecutive ones."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    inside = cutoffs[(cutoffs >= 0.0) & (cutoffs <= 1.0)]
    pts = np.unique(np.concatenate([summaries, [0.0, 1.0], inside]))
    return np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])


def _looped_r_min(rule, summaries: np.ndarray, i: int) -> int:
    """Smallest selected count keeping i selected, or 0 if no candidate does,
    trying every candidate in `select_block` calls of at most
    _SCAN_BLOCK_CELLS cells."""
    m = summaries.size
    points = _candidates(summaries, rule.summary_thresholds(m))
    best, step = m + 1, max(1, _SCAN_BLOCK_CELLS // m)
    for start in range(0, points.size, step):
        work = np.tile(summaries, (min(step, points.size - start), 1))
        work[:, i] = points[start : start + step]
        mask = rule.select_block(work)
        best = int(mask.sum(axis=1)[mask[:, i]].min(initial=best))
    return best if best <= m else 0


def _bisect(rule, work, fams, grid, lo, hi, r):
    """Move each row's lo to the last index in (lo, hi) of its sorted grid
    whose value, put in family fams[row]'s column of work, keeps that family
    selected, and r to R there; one `select_block` call per step evaluates
    every row still open."""
    while (open_ := np.flatnonzero(hi - lo > 1)).size:
        mid, at, f = (lo[open_] + hi[open_]) // 2, np.arange(open_.size), fams[open_]
        rows = work[open_]
        rows[at, f] = grid[open_, mid]
        mask = rule.select_block(rows)
        kept = mask[at, f]
        lo[open_[kept]], r[open_[kept]] = mid[kept], mask.sum(axis=1)[kept]
        hi[open_[~kept]] = mid[~kept]
    return lo, hi, r


def _boundary_r_min(rule, table: np.ndarray, rows, fams: np.ndarray) -> np.ndarray:
    """R(s*) of family fams[p] in summary row table[rows[p]], or 0 where no
    summary value selects it (`_r_min_scan`). Each row's grid is its sorted
    summaries, 0, 1 and the cutoffs in [0, 1], stage one's for two-stage."""
    m = table.shape[1]
    two_stage = isinstance(rule, GlobalNullTest) and rule.procedure.kind == "two_stage"
    q1 = stage_one_level(rule.level) if two_stage else None
    cutoffs = rule.summary_thresholds(m) if q1 is None else bh_critical_values(m, q1)
    fixed = np.concatenate([[0.0, 1.0], cutoffs[(cutoffs >= 0.0) & (cutoffs <= 1.0)]])
    out = np.empty(len(fams), dtype=np.intp)
    step = max(1, _SCAN_BLOCK_CELLS // (m + fixed.size))
    for start in range(0, len(fams), step):
        work = table[rows[start : start + step]].astype(np.float64, copy=False)
        fam, k = fams[start : start + step], len(work)
        grid = np.sort(np.concatenate([work, np.tile(fixed, (k, 1))], 1), 1)
        lo, hi = np.full(k, -1), np.full(k, grid.shape[1])
        lo, hi, r = _bisect(rule, work, fam, grid, lo, hi, np.zeros(k, dtype=np.intp))
        inner = np.flatnonzero((lo >= 0) & (hi < grid.shape[1]))
        if q1 is not None and inner.size:
            # stage one's count is left-continuous in s, so the null count d
            # on (grid[lo], grid[hi]] is the one at grid[hi], and only that
            # d's stage-two cutoffs can change the outcome in between
            edge, ps, fi = grid[inner, hi[inner]], work[inner], fam[inner]
            ps[np.arange(inner.size), fi] = edge
            ps.sort(axis=1)
            r1 = rejection_counts(Procedure("bh"), ps, np.full(inner.size, q1))
            level2 = stage_two_level(q1, m, np.maximum(m - r1, 1))
            cuts = bh_critical_values(m, level2[:, None])
            lo2 = (cuts <= grid[inner, lo[inner], None]).sum(axis=1) - 1
            hi2 = (cuts < edge[:, None]).sum(axis=1)
            r[inner] = _bisect(rule, work[inner], fi, cuts, lo2, hi2, r[inner])[2]
        out[start : start + step] = r
    return out


def _r_min_scan(rule, summaries: np.ndarray, i, rows=None):
    """Exact minimization of the selected count over family i's summary s,
    for one summary vector and family, or for P families (i an array) of
    the rows of a (B, m) matrix of summary vectors, giving P counts.
    Family i[p] is scanned in row rows[p]; rows defaults to row p for a
    (P, m) matrix and to the one vector for a vector.

    For a shipped rule (a `_BlockSelection`) the values of s that keep i
    selected form a prefix of [0, 1] and R never increases along it, so
    R_min(i) is R at the last breakpoint s* in the prefix. Each row bisects
    over its sorted breakpoints, all rows in lockstep, one `select_block`
    call per step: O(log m) rows per family, in blocks of at most
    _SCAN_BLOCK_CELLS cells, each block gathering its own rows. The
    two-stage rule bisects over stage one's breakpoints, then over the
    stage-two cutoffs just past the last selecting one (`_boundary_r_min`).
    Any other rule, which need not have the prefix property, runs
    `_looped_r_min`.
    """
    _check_rule(rule, scan=True)
    table, fams = np.atleast_2d(summaries), np.atleast_1d(i)
    if rows is None:
        one = np.ndim(summaries) == 1
        rows = np.zeros(fams.size, dtype=np.intp) if one else np.arange(fams.size)
    if isinstance(rule, _BlockSelection):
        best = _boundary_r_min(rule, table, rows, fams)
    else:
        best = [_looped_r_min(rule, table[r], j) for r, j in zip(rows, fams)]
        best = np.array(best, dtype=np.intp)
    if (best == 0).any():
        raise UnsupportedRuleError(
            f"family {fams[best == 0][0]} is never selected for any summary value"
        )
    return int(best[0]) if np.ndim(i) == 0 else best


def _counts(rule, summaries: np.ndarray, fams: np.ndarray, rows, r) -> np.ndarray:
    """The count of each selected family fams[k] of summary row rows[k]: R
    of its row, r[rows[k]], for a simple rule (the count cannot move while a
    selected family stays selected), else its R_min from `_r_min_scan`."""
    # an empty selection scans nothing, whatever the rule
    if fams.size and not getattr(rule, "is_simple", False):
        return _r_min_scan(rule, summaries, fams, rows)
    return r[rows]


def _selecting(rule, ensemble: PValueEnsemble, i: int):
    """The ensemble's summaries and its selected count, which family i is in."""
    summaries = _summaries(rule, ensemble)
    picked = _picked(rule, summaries)
    if not (picked == i).any():
        raise ValueError(f"family {i} is not selected")
    return summaries, picked.size


def r_min(rule, ensemble: PValueEnsemble, i: int) -> int:
    """Minimal number of selected families over replacements of family i's
    p-values that keep family i selected, other families held fixed: R for
    a simple rule, else the exact breakpoint scan (`_counts`). A rule outside
    the rule protocol raises UnsupportedRuleError.
    """
    summaries, r = _selecting(rule, ensemble, i)
    fams, rows = np.array([i]), np.zeros(1, dtype=np.intp)
    return int(_counts(rule, summaries, fams, rows, np.array([r]))[0])


@dataclass
class SimplenessReport:
    """Result of the randomized fixed-count (simpleness) check."""

    witness_found: bool
    family: int
    r_observed: int
    r_witness: int | None = None
    replacement: np.ndarray | None = None
    trials: int = 0


def check_simple(
    rule, ensemble: PValueEnsemble, i: int, trials: int, seed: int = 0
) -> SimplenessReport:
    """Randomized falsifier for simpleness at family i.

    Resamples family i's p-values uniformly, keeps only draws under which i
    stays selected, and reports a witness replacement if the number of
    selected families ever differs from the observed one. Finding no witness
    does not prove simpleness.

    Trials run in blocks of at most _SCAN_BLOCK_CELLS cells: one draw of
    (B, n_i) uniforms takes the same values from the stream as B draws of
    n_i, and the whole block is summarized and selected in one call each.
    The first witness is the one trial by trial would find.
    """
    rng = np.random.default_rng(seed)
    summaries, r_observed = _selecting(rule, ensemble, i)
    n_i = ensemble.size(i)
    step = max(1, _SCAN_BLOCK_CELLS // max(summaries.size, n_i))
    for start in range(0, trials, step):
        replacements = rng.uniform(size=(min(step, trials - start), n_i))
        work = np.repeat(summaries[None, :], len(replacements), axis=0)
        work[:, i] = rule.block_summaries(replacements[:, None, :])[:, 0]
        masks = rule.select_block(work)
        counts = masks.sum(axis=1)
        witnesses = np.flatnonzero(masks[:, i] & (counts != r_observed))
        if witnesses.size:
            t = int(witnesses[0])
            found = (int(counts[t]), replacements[t].copy(), start + t + 1)
            return SimplenessReport(True, i, r_observed, *found)
    return SimplenessReport(False, i, r_observed, None, None, trials)


@dataclass
class ConcordanceReport:
    """Result of the randomized concordance check."""

    witness_found: bool
    family: int | None = None
    r_min_before: int | None = None
    r_min_after: int | None = None
    trials: int = 0


def check_concordant(
    rule, ensemble: PValueEnsemble, trials: int, seed: int = 0
) -> ConcordanceReport:
    """Randomized falsifier for concordance.

    Raising p-values outside a family must never raise that family's
    attainable minimum selected count. Each trial bumps a random subset of
    the other families' p-values toward 1 and compares R_min before and
    after. Finding no witness does not prove concordance. Trials run in
    blocks, one `_r_min_scan` call for every R_min after and one scan per
    family for R_min before, and meet the first witness or error in order.
    The blocks start at _FIRST_TRIAL_BLOCK trials and double up to
    _SCAN_BLOCK_CELLS cells, so an early witness costs few trials past it.
    """
    rng = np.random.default_rng(seed)
    summaries = _summaries(rule, ensemble)
    before = {}
    cap = max(1, _SCAN_BLOCK_CELLS // summaries.size)
    start, step = 0, min(_FIRST_TRIAL_BLOCK, cap)
    while start < trials:
        block = min(step, trials - start)
        step = min(2 * step, cap)
        fams, bumped = _bumped_trials(rule, ensemble, summaries, rng, block)
        try:
            after = _r_min_scan(rule, bumped, fams).tolist()
        except UnsupportedRuleError:
            after = [None] * block  # rescanned one trial at a time below
        for t, (i, r) in enumerate(zip(fams.tolist(), after)):
            if i not in before:
                before[i] = _r_min_scan(rule, summaries, i)
            r = _r_min_scan(rule, bumped[t], i) if r is None else r
            if r > before[i]:
                return ConcordanceReport(True, i, before[i], r, start + t + 1)
        start += block
    return ConcordanceReport(False, None, None, None, trials)


def _bumped_trials(rule, ensemble, summaries, rng, trials):
    """Each trial's family i and summaries with a random subset of the other
    families' p-values raised toward 1, drawn as one trial at a time draws
    them: i, a coin per other family, then each raised family's uniforms.
    Each family is summarized once for all the trials that raise it."""
    m, sizes = summaries.size, ensemble.sizes.tolist()
    fams = np.empty(trials, dtype=np.intp)
    drawn = [([], []) for _ in range(m)]
    for t in range(trials):
        i = fams[t] = rng.integers(m)
        others = [j for j in range(m) if j != i]
        coins = (rng.uniform(size=m - 1) < 0.5).tolist()
        chosen = [j for j, c in zip(others, coins) if c] or others[:1]
        u, at = rng.uniform(size=sum(sizes[j] for j in chosen)), 0
        for j in chosen:
            drawn[j][0].append(t)
            drawn[j][1].append(u[at : at + sizes[j]])
            at += sizes[j]
    bumped = np.repeat(summaries[None, :], trials, axis=0)
    for j, (at, u) in enumerate(drawn):
        if not at:
            continue
        p = ensemble.family(j)
        raised = p + np.array(u) * (1.0 - p)
        bumped[at, j] = rule.block_summaries(raised[None])[0]
    return fams, bumped
