"""Family selection rules, global-null p-value combiners, and R_min.

Every shipped rule reduces each family to a scalar summary (its minimal
p-value, or a combined global-null p-value) and selects families from the
vector of summaries. That structure is what makes the exact R_min scan and
the randomized property checks below possible. Each shipped rule also
summarizes and selects a stack of rectangular ensembles at once
(block_summaries, select_block), which the Monte Carlo harness uses; its
select_from_summaries is the one-row case of select_block.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import PValueEnsemble, SelectionOutcome
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

# Cells in one block of candidate rows of the batched R_min scan, so that
# its memory stays bounded however many candidates a family has.
_SCAN_BLOCK_CELLS = 1 << 16


class UnsupportedRuleError(ValueError):
    """Raised when R_min cannot be computed for a selection rule."""


def _combine_rows(kind: str, rows: np.ndarray, floor: float) -> np.ndarray:
    """Combined global-null p-value for each row of a (k, n) matrix."""
    n = rows.shape[1]
    if kind == "bonferroni_min":
        out = n * rows.min(axis=1)
    elif kind == "simes":
        ranked = np.sort(rows, axis=1)
        out = _min_last_axis(ranked * (n / np.arange(1.0, n + 1.0)))
    elif kind == "fisher":
        stat = -2.0 * np.log(np.clip(rows, floor, 1.0)).sum(axis=1)
        out = special.chdtrc(2 * n, stat)
    elif kind == "stouffer":
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
    return float(_combine_rows(combiner, p[None, :], floor)[0])


def combined_pvalues(
    combiner: str, ensemble: PValueEnsemble, floor: float = DEFAULT_P_FLOOR
) -> np.ndarray:
    """Combined p-value of every family in the ensemble."""
    if ensemble.rect is not None:
        return _combine_rows(combiner, ensemble.rect, floor)
    return np.array([combine(combiner, f, floor) for f in ensemble.families])


def _min_last_axis(a: np.ndarray) -> np.ndarray:
    """Minimum over the last axis.

    NumPy reduces a short last axis one row at a time, at about 50 ns a row,
    so for fewer than 32 columns the minimum over the first axis of a
    transposed contiguous copy is several times cheaper. A minimum is exact
    in any order, so both give the same values.
    """
    if a.shape[-1] >= 32:
        return a.min(axis=-1)
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).min(axis=0)


class _BlockSelection:
    """Selection from one summary vector as the 1-row case of select_block.

    A rule's block_summaries maps a (B, m, n) stack of B rectangular
    ensembles to their (B, m) summaries, and select_block maps those to a
    (B, m) selection mask, each row exactly as one ensemble would select.
    """

    def select_from_summaries(self, summaries: np.ndarray) -> np.ndarray:
        return np.flatnonzero(self.select_block(np.asarray(summaries)[None, :])[0])


@dataclass(frozen=True)
class MinPThreshold(_BlockSelection):
    """Select every family whose smallest p-value is <= t."""

    t: float

    is_simple = True

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")

    def summaries(self, ensemble: PValueEnsemble) -> np.ndarray:
        return ensemble.min_p()

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        return _min_last_axis(p)

    def summary_of(self, pvalues) -> float:
        return float(np.min(pvalues))

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        return summaries <= self.t

    def summary_thresholds(self, m: int) -> np.ndarray:
        return np.array([self.t])

    def describe(self) -> str:
        return f"minp:{self.t:g}"


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

    def summaries(self, ensemble: PValueEnsemble) -> np.ndarray:
        return ensemble.min_p()

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        return _min_last_axis(p)

    def summary_of(self, pvalues) -> float:
        return float(np.min(pvalues))

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

    def summaries(self, ensemble: PValueEnsemble) -> np.ndarray:
        return combined_pvalues(self.combiner, ensemble, self.floor)

    def block_summaries(self, p: np.ndarray) -> np.ndarray:
        rows = p.reshape(-1, p.shape[2])
        return _combine_rows(self.combiner, rows, self.floor).reshape(p.shape[:2])

    def summary_of(self, pvalues) -> float:
        return combine(self.combiner, pvalues, self.floor)

    def select_block(self, summaries: np.ndarray) -> np.ndarray:
        ps = np.sort(summaries, axis=1)
        r = rejection_counts(self.procedure, ps, self._levels(len(ps)))
        return rejected_by_counts(ps, r, summaries)

    def _levels(self, rows: int):
        return None if self.level is None else np.full(rows, self.level)

    def summary_thresholds(self, m: int) -> np.ndarray:
        return self.procedure.thresholds(m, self.level)

    def describe(self) -> str:
        level = "" if self.level is None else f":{self.level:g}"
        return f"global:{self.combiner}:{self.procedure.describe()}{level}"


def select(rule, ensemble: PValueEnsemble) -> SelectionOutcome:
    """Apply the selection rule; r_min entries are filled later if needed."""
    picked = rule.select_from_summaries(rule.summaries(ensemble))
    return SelectionOutcome(selected=frozenset(picked.tolist()), r=int(picked.size))


def _is_summary_rule(rule) -> bool:
    return all(
        hasattr(rule, name)
        for name in ("summaries", "select_from_summaries", "summary_thresholds")
    )


def _candidates(summaries: np.ndarray, cutoffs) -> np.ndarray:
    """Candidate summary values: the breakpoints 0, 1, every summary and
    each cutoff in [0, 1], plus the midpoints between consecutive ones."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    inside = cutoffs[(cutoffs >= 0.0) & (cutoffs <= 1.0)]
    pts = np.unique(np.concatenate([summaries, [0.0, 1.0], inside]))
    return np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])


def _looped_r_min(rule, summaries: np.ndarray, i: int) -> int | None:
    """Smallest selected count keeping i selected, one selection per candidate."""
    best = None
    work = summaries.copy()
    for s in _candidates(summaries, rule.summary_thresholds(summaries.size)):
        work[i] = s
        picked = rule.select_from_summaries(work)
        if (picked == i).any() and (best is None or picked.size < best):
            best = int(picked.size)
    return best


def _inserted_rows(rest: np.ndarray, candidates: np.ndarray):
    """Blocks of (candidates, rows): each row is the sorted `rest` with one
    candidate inserted at its searchsorted position, so rows come out sorted
    without sorting them."""
    m = rest.size + 1
    padded = np.append(rest, 0.0)
    cols = np.arange(m)
    step = max(1, _SCAN_BLOCK_CELLS // m)
    for start in range(0, candidates.size, step):
        block = candidates[start : start + step]
        pos = np.searchsorted(rest, block)
        rows = padded[cols - (cols > pos[:, None])]
        rows[np.arange(block.size), pos] = block
        yield block, rows


def _batched_min_selected(rule, rest: np.ndarray, candidates: np.ndarray):
    best = None
    for block, rows in _inserted_rows(rest, candidates):
        r = rejection_counts(rule.procedure, rows, rule._levels(block.size))
        # the counts of the candidates that keep their family selected
        counts = r[rejected_by_counts(rows, r, block)]
        if counts.size and (best is None or counts.min() < best):
            best = int(counts.min())
    return best


def _batched_r_min(rule, summaries: np.ndarray, i: int) -> int | None:
    """Smallest selected count keeping i selected, for a GlobalNullTest."""
    m = summaries.size
    rest = np.sort(np.delete(summaries, i))
    if rule.procedure.kind != "two_stage":
        return _batched_min_selected(
            rule, rest, _candidates(summaries, rule.summary_thresholds(m))
        )
    # Stage two compares against BH cutoffs at (m/d)*q' only for the null
    # counts d = m - r1 that stage one actually leaves for some s.
    q1 = stage_one_level(rule.level)
    cutoffs = [bh_critical_values(m, q1)]
    null_counts = set()
    for block, rows in _inserted_rows(rest, _candidates(summaries, cutoffs[0])):
        r1 = rejection_counts(Procedure("bh"), rows, np.full(block.size, q1))
        null_counts.update((m - r1).tolist())
    cutoffs += [
        bh_critical_values(m, stage_two_level(q1, m, d))
        for d in sorted(null_counts)
        if d > 0
    ]
    return _batched_min_selected(
        rule, rest, _candidates(summaries, np.concatenate(cutoffs))
    )


def _r_min_scan(rule, summaries: np.ndarray, i: int) -> int:
    """Exact minimization of the selected count over family i's summary.

    The selected set, as a function of summary value s, can only change when
    s crosses another family's summary or one of the rule's own cutoffs, so
    evaluating at those breakpoints and at the midpoints between them covers
    every attainable outcome.

    A GlobalNullTest evaluates all candidates in one batched pass: every
    candidate row is the other summaries, sorted once, with s inserted in
    place, and the procedure kernel counts the rejections of a block of rows
    at a time. For the adaptive two-stage procedure the cutoffs are stage
    one's BH constants at q' plus, for each null count d = m - r1 that stage
    one leaves at some candidate, stage two's BH constants at (m/d)*q'. Each
    reachable d adds m cutoffs and stage one reaches few, so a family has
    O(m) candidates (305 at m = 40 where every j*q'/d would give over 2000).
    Any other summary rule runs one selection per candidate.
    """
    if not _is_summary_rule(rule):
        raise UnsupportedRuleError(
            "R_min needs a rule that consumes one scalar summary per family"
        )
    scan = _batched_r_min if isinstance(rule, GlobalNullTest) else _looped_r_min
    best = scan(rule, summaries, i)
    if best is None:
        raise UnsupportedRuleError(
            f"family {i} is never selected for any summary value"
        )
    return best


def r_min(rule, ensemble: PValueEnsemble, i: int) -> int:
    """Minimal number of selected families over replacements of family i's
    p-values that keep family i selected, other families held fixed.

    Simple rules take the shortcut r_min = R (the count cannot move while a
    selected family stays selected); other summary-based rules get the exact
    breakpoint scan. Rules that consume more than a per-family summary raise
    UnsupportedRuleError.
    """
    if not _is_summary_rule(rule):
        raise UnsupportedRuleError(
            "R_min needs a rule that consumes one scalar summary per family"
        )
    summaries = rule.summaries(ensemble)
    picked = rule.select_from_summaries(summaries)
    if not (picked == i).any():
        raise ValueError(f"family {i} is not selected")
    if getattr(rule, "is_simple", False):
        return int(picked.size)
    return _r_min_scan(rule, summaries, i)


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
    n_i, and a rule with block_summaries and select_block summarizes and
    selects the whole block in one call each. The first witness is the one
    trial by trial would find.
    """
    rng = np.random.default_rng(seed)
    summaries = rule.summaries(ensemble)
    picked = rule.select_from_summaries(summaries)
    if not (picked == i).any():
        raise ValueError(f"family {i} is not selected")
    r_observed = int(picked.size)
    n_i = ensemble.size(i)
    step = max(1, _SCAN_BLOCK_CELLS // max(summaries.size, n_i))
    for start in range(0, trials, step):
        replacements = rng.uniform(size=(min(step, trials - start), n_i))
        masks = _replaced_selections(rule, summaries, i, replacements)
        counts = masks.sum(axis=1)
        witnesses = np.flatnonzero(masks[:, i] & (counts != r_observed))
        if witnesses.size:
            t = int(witnesses[0])
            return SimplenessReport(
                True,
                i,
                r_observed,
                int(counts[t]),
                replacements[t].copy(),
                start + t + 1,
            )
    return SimplenessReport(False, i, r_observed, None, None, trials)


def _replaced_selections(rule, summaries, i, replacements) -> np.ndarray:
    """(B, m) selection masks with family i's p-values replaced by each row."""
    if hasattr(rule, "select_block"):
        work = np.repeat(summaries[None, :], len(replacements), axis=0)
        work[:, i] = rule.block_summaries(replacements[:, None, :])[:, 0]
        return rule.select_block(work)
    masks = np.zeros((len(replacements), summaries.size), dtype=bool)
    work = summaries.copy()
    for mask, replacement in zip(masks, replacements):
        work[i] = rule.summary_of(replacement)
        mask[rule.select_from_summaries(work)] = True
    return masks


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
    after. Finding no witness does not prove concordance.
    """
    if not _is_summary_rule(rule):
        raise UnsupportedRuleError(
            "the concordance check needs a summary-based rule"
        )
    rng = np.random.default_rng(seed)
    summaries = rule.summaries(ensemble)
    m = ensemble.m
    for t in range(trials):
        i = int(rng.integers(m))
        before = _r_min_scan(rule, summaries, i)
        bumped = summaries.copy()
        others = [j for j in range(m) if j != i]
        chosen = [j for j in others if rng.uniform() < 0.5] or others[:1]
        for j in chosen:
            p = ensemble.family(j)
            raised = p + rng.uniform(size=p.size) * (1.0 - p)
            bumped[j] = rule.summary_of(raised)
        after = _r_min_scan(rule, bumped, i)
        if after > before:
            return ConcordanceReport(True, i, before, after, t + 1)
    return ConcordanceReport(False, None, None, None, trials)
