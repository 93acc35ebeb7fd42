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
optional, and so is ranks_rows (default False): such a rule's summaries
read sorted rows, and block_summaries(p, ranked) takes p's rows sorted from
a caller that sorts them once for its tests too. ranked is a row-sorted
(B * m, n) array that may be a view of first-axis memory, the transpose of
a C-contiguous (n, B * m) array, as a Monte Carlo block passes it. Only the
Fisher and Stouffer combiners import SciPy.
"""

from dataclasses import dataclass

import numpy as np

from .core import PValueEnsemble, SelectionOutcome, _last_axis_min, _number_text
from .core import _positive_int, _row_chunks, in_family_order
from .procedures import Procedure, _cutoffs, _ranks, _stage_two_cutoffs
from .procedures import rejected_entries

COMBINERS = ("bonferroni_min", "simes", "fisher", "stouffer")

# Transform-based combiners clamp p-values into [floor, 1 - 1ulp] so that
# log(p) and the normal quantile stay finite at both ends.
DEFAULT_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16

# Cells in one block of the R_min scan's rows, and of the randomized checks'
# trial words, so that their memory stays bounded at any m.
_SCAN_BLOCK_CELLS = 1 << 16
# Trials in a randomized check's first block; each next block doubles.
_FIRST_TRIAL_BLOCK = 16


class UnsupportedRuleError(ValueError):
    """Raised for a selection rule outside the rule protocol, or when R_min
    cannot be computed for it."""


def _combine_rows(kind: str, rows: np.ndarray, floor: float, ranked=None) -> np.ndarray:
    """Combined global-null p-value for each row of a (k, n) matrix. Only
    Simes reads ranked, the rows sorted; a sum in sorted order can change bits."""
    n = rows.shape[1]
    if kind == "bonferroni_min":
        out = n * rows.min(axis=1)
    elif kind == "simes":
        ranked = np.sort(rows, axis=1) if ranked is None else ranked
        out = _last_axis_min(ranked, n / _ranks(n))
    elif kind in ("fisher", "stouffer"):
        # each row is transformed and summed on its own, so row chunks
        # change no bit
        out = np.empty(len(rows))
        for rows_at in _row_chunks(len(rows), n):
            out[rows_at] = _transform_combined(kind, rows[rows_at], floor)
    else:
        raise ValueError(f"unknown combiner {kind!r}")
    return np.clip(out, 0.0, 1.0, out=out)


def _transform_combined(kind: str, rows: np.ndarray, floor: float) -> np.ndarray:
    """The Fisher or Stouffer combined p-value of each row of a (k, n) matrix."""
    from scipy import special
    n = rows.shape[1]
    if kind == "fisher":
        stat = -2.0 * np.log(np.clip(rows, floor, 1.0)).sum(axis=1)
        return special.chdtrc(2 * n, stat)
    z = -special.ndtri(np.clip(rows, floor, _P_CEIL))
    return special.ndtr(-z.sum(axis=1) / np.sqrt(n))


def _check_floor(floor):
    """Refuse a combiner floor that is NaN or outside (0, 1)."""
    if not 0.0 < floor < 1.0:
        raise ValueError("floor must lie in (0, 1)")


def combine(combiner: str, pvalues, floor: float = DEFAULT_P_FLOOR) -> float:
    """Single valid p-value for a family's intersection (global null) hypothesis.

    bonferroni_min: min(1, n * min p).  simes: min_j n * p_(j) / j.
    fisher: chi-square(2n) upper tail of -2 sum log p.  stouffer: standard
    normal upper tail of sum_j ppf(1 - p_j) / sqrt(n).
    """
    p = np.asarray(pvalues, dtype=np.float64).ravel()
    if p.size == 0:
        raise ValueError("cannot combine an empty p-value list")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    _check_floor(floor)
    return float(_combine_rows(combiner, p[None, :], floor)[0])


def combined_pvalues(
    combiner: str, ensemble: PValueEnsemble, floor: float = DEFAULT_P_FLOOR
) -> np.ndarray:
    """Combined p-value of every family in the ensemble."""
    _check_floor(floor)
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


def _summarize(rule, groups, blocks, ranked=None) -> np.ndarray:
    """(B, m) summaries of B ensembles laid out as groups (`size_groups`),
    from one (B, count, n) block per group and, for a rule that ranks rows,
    ranked: each block's (B * count, n) rows, sorted along each row."""
    args = [(p,) for p in blocks] if ranked is None else zip(blocks, ranked)
    return in_family_order(groups, [rule.block_summaries(*a) for a in args])


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

    The exact R_min scan rests on the shipped rules' shared property:
    lowering family i's summary never deselects i and never lowers the
    selected count R, so `_r_min_scan` needs no search.
    """

    def summaries(self, ensemble: PValueEnsemble) -> np.ndarray:
        return _summaries(self, ensemble)

    def select_from_summaries(self, summaries: np.ndarray) -> np.ndarray:
        return _picked(self, np.asarray(summaries))

    def summary_of(self, pvalues) -> float:
        p = np.asarray(pvalues, dtype=np.float64).ravel()
        return float(self.block_summaries(p[None, None, :])[0, 0])


class _MinPSelection(_BlockSelection):
    """A shipped rule whose summary of a family is its smallest p-value."""

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        return _last_axis_min(p)


@dataclass(frozen=True)
class MinPThreshold(_MinPSelection):
    """Select every family whose smallest p-value is <= t."""

    t: float

    is_simple = True

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        return summaries <= self.t

    def summary_thresholds(self, m: int) -> np.ndarray:
        return np.array([self.t])

    def describe(self) -> str:
        return f"minp:{_number_text(self.t)}"


@dataclass(frozen=True)
class TopKMinP(_MinPSelection):
    """Select the k families with the smallest minimal p-values.

    Ties are broken in favor of the smaller family index, so exactly k
    families are selected whenever the ensemble has at least k.
    """

    k: int

    is_simple = True

    def __post_init__(self):
        if not _positive_int(self.k):
            raise ValueError("k must be a positive integer")

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
        _check_floor(self.floor)

    @property
    def is_simple(self) -> bool:
        # Single-step, step-up and step-down testing keeps the rejection
        # count fixed while a rejected value moves below its cutoff; the
        # adaptive two-stage procedure does not.
        return self.procedure.stepwise != "adaptive"

    @property
    def ranks_rows(self) -> bool:
        return self.combiner == "simes"

    def block_summaries(self, p: np.ndarray, ranked=None) -> np.ndarray:
        rows = p.reshape(-1, p.shape[2])
        out = _combine_rows(self.combiner, rows, self.floor, ranked)
        return out.reshape(p.shape[:2])

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        levels = None if self.level is None else np.full(len(summaries), self.level)
        return rejected_entries(self.procedure, summaries, levels)[0]

    def summary_thresholds(self, m: int) -> np.ndarray:
        return self.procedure.thresholds(m, self.level)

    def describe(self) -> str:
        level = "" if self.level is None else f":{_number_text(self.level)}"
        return f"global:{self.combiner}:{self.procedure.describe()}{level}"


def select(rule, ensemble: PValueEnsemble) -> SelectionOutcome:
    """Apply the selection rule; r_min entries are filled later if needed."""
    picked = _picked(rule, _summaries(rule, ensemble))
    return SelectionOutcome(selected=frozenset(picked.tolist()), r=int(picked.size))


def _placed(rule, table: np.ndarray, rows, fams: np.ndarray, values) -> np.ndarray:
    """R with family fams[p]'s summary set to values[p] in row table[rows[p]],
    or 0 where that does not select it; blocks keep to _SCAN_BLOCK_CELLS."""
    out = np.empty(fams.size, dtype=np.intp)
    step = max(1, _SCAN_BLOCK_CELLS // table.shape[1])
    for start in range(0, fams.size, step):
        work = table[rows[start : start + step]].astype(np.float64)
        at, f = np.arange(len(work)), fams[start : start + step]
        work[at, f] = values[start : start + step]
        mask = rule.select_block(work)
        out[start : start + step] = np.where(mask[at, f], mask.sum(axis=1), 0)
    return out


def _looped_r_min(rule, summaries: np.ndarray, i: int) -> int:
    """Smallest selected count keeping i selected, or 0 if none does, over
    the candidates 0, 1, every summary and each cutoff in [0, 1], and the
    midpoints between consecutive ones."""
    cutoffs = np.asarray(rule.summary_thresholds(summaries.size))
    inside = cutoffs[(cutoffs >= 0.0) & (cutoffs <= 1.0)].astype(np.float64)
    pts = np.unique(np.concatenate([summaries, [0.0, 1.0], inside]))
    points = np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])
    at = np.zeros(points.size, dtype=np.intp)
    kept = _placed(rule, summaries[None], at, at + i, points)
    return int(kept[kept > 0].min(initial=kept.max()))


def _moved_counts(ps, cuts, at, j):
    """Step-up counts of row at[k] of the row-sorted ps at its cutoffs (a
    row of cuts, or cuts itself if 1-d) with its entry of rank j[k] (from
    0) moved below every cutoff, and moved above every cutoff."""
    ranks = np.arange(1, ps.shape[1] + 1)
    hits = np.maximum.accumulate(np.where(ps <= cuts, ranks, 0), axis=1)
    last, up = hits[at, -1], np.where(j > 0, hits[at, j - 1], 0)
    # below: the moved entry is rank 1, ranks 2 to j+1 meet the one a rank down
    down = np.concatenate([ps[:, :1], ps[:, :-1]], axis=1) <= cuts
    down = np.maximum.accumulate(np.where(down, ranks, 0), axis=1)[at, j]
    # above: ranks j+1 to m-1 meet the entries one rank up
    past = np.where(ps[:, 1:] <= cuts[..., :-1], ranks[:-1], 0).max(1, initial=0)[at]
    below = np.maximum(np.maximum(down, 1), np.where(last > j + 1, last, 0))
    return below, np.maximum(up, np.where(past > j, past, 0))


def _two_stage_r_min(rule, table: np.ndarray, rows, fams: np.ndarray) -> np.ndarray:
    """R_min of family fams[p] in summary row table[rows[p]] under the
    two-stage rule: stage two's count with i moved below every cutoff at the
    null count d = m - B1 (m if d = 0), or the smaller one at d = m - A1 if i
    stays selected just above c1[B1], where B1 and A1 are stage one's counts
    with i moved below and above every cutoff. Each row is sorted once."""
    m, out = table.shape[1], np.empty(fams.size, dtype=np.intp)
    c1 = _cutoffs(rule.procedure, m, rule.level)
    step = max(1, _SCAN_BLOCK_CELLS // m)
    names, row_of = np.unique(rows, return_inverse=True)
    for start in range(0, names.size, step):
        mine = np.flatnonzero((row_of >= start) & (row_of < start + step))
        work = table[names[start : start + step]].astype(np.float64)
        ps, at = np.sort(work, axis=1), row_of[mine] - start
        j = work.argsort(axis=1).argsort(axis=1)[at, fams[mine]]
        b1, a1 = _moved_counts(ps, c1, at, j)
        at, j = np.concatenate([at, at]), np.concatenate([j, j])
        d = np.maximum(m - np.concatenate([b1, a1]), 1)
        names2, profile = np.unique(at * (m + 1) + d, return_inverse=True)
        r2, edge = np.empty(d.size, dtype=np.intp), np.empty(d.size)
        for first in range(0, names2.size, step):
            sel = np.flatnonzero((profile >= first) & (profile < first + step))
            row2, null = np.divmod(names2[first : first + step], m + 1)
            cuts = _stage_two_cutoffs(_ranks(m), rule.level, null[:, None])
            p = profile[sel] - first
            r2[sel] = _moved_counts(ps[row2], cuts, p, j[sel])[0]
            edge[sel] = cuts[p, r2[sel] - 1]
        r2, edge = r2.reshape(2, -1), edge.reshape(2, -1)
        r0 = np.where(b1 == m, m, r2[0])
        later = (a1 < b1) & (edge[1] > c1[b1 - 1])
        out[mine] = np.where(later, np.minimum(r0, r2[1]), r0)
    return out


def _r_min_counts(rule, table: np.ndarray, fams: np.ndarray, rows) -> np.ndarray:
    """R_min of family fams[p] in summary row table[rows[p]] (`_r_min_scan`),
    or 0 where no summary value selects it."""
    _check_rule(rule, scan=True)
    kinds = (MinPThreshold, TopKMinP, GlobalNullTest)
    shipped = [c.select_block for c in kinds if isinstance(rule, c)]
    if shipped != [type(rule).select_block]:
        best = [_looped_r_min(rule, table[r], j) for r, j in zip(rows, fams)]
        return np.array(best, dtype=np.intp)
    if isinstance(rule, GlobalNullTest) and rule.procedure.kind == "two_stage":
        return _two_stage_r_min(rule, table, rows, fams)
    return _placed(rule, table, rows, fams, np.zeros(fams.size))


def _r_min_scan(rule, summaries: np.ndarray, i, rows=None):
    """Exact minimization of the selected count over family i's summary s,
    for one summary vector and family, or for P families (i an array) of
    the rows of a (B, m) matrix of summary vectors, giving P counts.
    Family i[p] is scanned in row rows[p]; rows defaults to row p for a
    (P, m) matrix and to the one vector for a vector.

    For a shipped rule the values of s that keep i selected form a prefix
    of [0, 1] and R never increases along it (`_BlockSelection`), so no
    search is needed: a simple rule's R_min(i) is R at s = 0 (`_placed`),
    and the two-stage rule's comes from counts on each sorted row
    (`_two_stage_r_min`), in blocks of at most _SCAN_BLOCK_CELLS cells. A
    rule that overrides select_block, or any other, runs `_looped_r_min`.
    """
    table, fams = np.atleast_2d(summaries), np.atleast_1d(i)
    if rows is None:
        one = np.ndim(summaries) == 1
        rows = np.zeros(fams.size, dtype=np.intp) if one else np.arange(fams.size)
    best = _r_min_counts(rule, table, fams, rows)
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


def _trial_blocks(rng, trials: int, width: int, m: int):
    """(first trial, (B, width) words) per block of B trials, trial t reading
    words [t*width, (t+1)*width) of rng's stream. Blocks start at
    _FIRST_TRIAL_BLOCK trials and double up to _SCAN_BLOCK_CELLS cells."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cap = max(1, _SCAN_BLOCK_CELLS // max(width, m))
    first, step = 0, min(_FIRST_TRIAL_BLOCK, cap)
    while first < trials:
        block = min(step, trials - first)
        yield first, rng.random((block, width))
        first, step = first + block, min(2 * step, cap)


def check_simple(
    rule, ensemble: PValueEnsemble, i: int, trials: int, seed: int = 0
) -> SimplenessReport:
    """Randomized falsifier for simpleness at family i.

    Resamples family i's p-values uniformly, keeps only draws under which i
    stays selected, and reports a witness replacement if the number of
    selected families ever differs from the observed one. Finding no witness
    does not prove simpleness.

    Trial t's replacement is words [t*n_i, (t+1)*n_i) of the seed's stream
    (`_trial_blocks`), and each block is summarized and placed in one call.
    """
    rng = np.random.default_rng(seed)
    summaries, r_observed = _selecting(rule, ensemble, i)
    for first, words in _trial_blocks(rng, trials, ensemble.size(i), summaries.size):
        at = np.zeros(len(words), dtype=np.intp)
        values = rule.block_summaries(words[:, None, :])[:, 0]
        counts = _placed(rule, summaries[None], at, at + i, values)
        witnesses = np.flatnonzero((counts > 0) & (counts != r_observed))
        if witnesses.size:
            t = int(witnesses[0])
            found = (int(counts[t]), words[t].copy(), first + t + 1)
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
    after. Finding no witness does not prove concordance. Trial t reads its
    own words of the seed's stream (`_bumped_trials`), whatever the data and
    the blocks; the first trial that shows a witness, or a family that no
    summary value selects, ends the check.
    """
    rng = np.random.default_rng(seed)
    summaries = _summaries(rule, ensemble)
    m = summaries.size
    for first, words in _trial_blocks(rng, trials, 1 + m + ensemble.sizes.sum(), m):
        if first == 0:  # R_min before, of every family
            every = np.arange(m)
            before = _r_min_counts(rule, summaries[None], every, 0 * every)
        fams, bumped = _bumped_trials(rule, ensemble, summaries, words)
        after = _r_min_counts(rule, bumped, fams, np.arange(len(fams)))
        was = before[fams]
        stops = np.flatnonzero((after > was) | (np.minimum(after, was) == 0))
        if stops.size:
            t, i = int(stops[0]), int(fams[stops[0]])
            if not min(after[t], was[t]):
                raise UnsupportedRuleError(
                    f"family {i} is never selected for any summary value"
                )
            return ConcordanceReport(True, i, int(was[t]), int(after[t]), first + t + 1)
    return ConcordanceReport(False, None, None, None, trials)


def _bumped_trials(rule, ensemble, summaries, words):
    """Each trial's family i and summaries, from its row of words: word 0
    picks i, word 1 + j is family j's coin (below 0.5 raises j; i's is
    ignored, and the first other family is raised if none comes up), and the
    last N hold a u per p-value, family after family, to raise p to p + u(1 - p)."""
    m, at = summaries.size, np.arange(len(words))
    fams = np.minimum((words[:, 0] * m).astype(np.intp), m - 1)
    coins = words[:, 1 : m + 1] < 0.5
    coins[at, fams] = False
    other = np.minimum(fams == 0, m - 1)  # the first family but i, or i if m = 1
    coins[at, other] |= (other != fams) & ~coins.any(axis=1)
    starts = 1 + m + np.cumsum(ensemble.sizes) - ensemble.sizes
    raised = [
        p + words[:, starts[f, None] + np.arange(n)] * (1.0 - p)
        for (n, f), p in zip(ensemble.groups, ensemble.pvalues)
    ]
    return fams, np.where(coins, _summarize(rule, ensemble.groups, raised), summaries)
