"""Two references for the exact R_min scan of `famsel.selection`.

`_r_min_scan` takes no search: a simple shipped rule's R_min is R with the
family's summary at 0, and the two-stage rule's comes from step-up counts
read off each sorted summary row. This module shares no code with it.

The candidate scan tries every candidate value of family i's summary: the
breakpoints 0, 1, every summary and each of the rule's cutoffs in [0, 1],
and the midpoints between consecutive ones. The smallest selected count
among the candidates that keep i selected is R_min. One family's
candidates are the rows of a (candidates, m) matrix, one `select_block`
call per block of at most _BLOCK_CELLS cells. `candidate_r_min` takes the
rule's `summary_thresholds` as its cutoffs, which for the adaptive
two-stage procedure are all m**2 stage-two constants. `oracle_r_min_scan`
keeps, of those, stage one's BH constants at q' and, for each null count
d = m - r1 that stage one leaves at some candidate, stage two's BH
constants at (m/d)*q'; that is O(m) rows of length m per family.

The boundary bisection (`bisect_r_min_scan`, for a rule with the prefix
property: the values that keep i selected come first and R never
increases along them) is the scan `_r_min_scan` ran before it took counts.
Each family bisects over its sorted breakpoints, one `select_block` call per
step, and under the two-stage rule bisects again over the stage-two
cutoffs just past the last selecting stage-one breakpoint. It makes
O(log m) rows of length m per family, so it reaches m = 10^4.
"""

import numpy as np

from famsel.procedures import (
    Procedure,
    bh_critical_values,
    rejection_counts,
    stage_one_level,
    stage_two_level,
)
from famsel.selection import GlobalNullTest, UnsupportedRuleError

_BLOCK_CELLS = 1 << 20
# Cells in one block of the bisection's rows.
_SCAN_BLOCK_CELLS = 1 << 16


def candidates(summaries: np.ndarray, cutoffs) -> np.ndarray:
    """The breakpoints 0, 1, every summary and each cutoff in [0, 1], plus
    the midpoints between consecutive ones."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    inside = cutoffs[(cutoffs >= 0.0) & (cutoffs <= 1.0)]
    pts = np.unique(np.concatenate([summaries, [0.0, 1.0], inside]))
    return np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0])


def _selections(rule, summaries: np.ndarray, i: int, points: np.ndarray):
    """(kept, counts) of each block of candidates put in family i's place."""
    step = max(1, _BLOCK_CELLS // summaries.size)
    for start in range(0, points.size, step):
        block = points[start : start + step]
        work = np.tile(summaries, (block.size, 1))
        work[:, i] = block
        mask = rule.select_block(work)
        yield mask[:, i], mask.sum(axis=1)


def candidate_r_min(rule, summaries: np.ndarray, i: int, cutoffs=None) -> int | None:
    """Smallest selected count keeping i selected, or None if no candidate
    selects i; cutoffs default to the rule's `summary_thresholds`."""
    if cutoffs is None:
        cutoffs = rule.summary_thresholds(summaries.size)
    points = candidates(summaries, cutoffs)
    best = None
    for kept, counts in _selections(rule, summaries, i, points):
        if kept.any() and (best is None or counts[kept].min() < best):
            best = int(counts[kept].min())
    return best


def reachable_cutoffs(rule, summaries: np.ndarray, i: int) -> np.ndarray:
    """Stage one's BH constants at q', and stage two's at (m/d)*q' for each
    null count d = m - r1 that stage one leaves at some candidate value of
    family i's summary."""
    m = summaries.size
    q1 = stage_one_level(rule.level)
    stage_one = GlobalNullTest(rule.combiner, Procedure("bh"), q1)
    cutoffs = [bh_critical_values(m, q1)]
    points = candidates(summaries, cutoffs[0])
    null_counts = set()
    for _, r1 in _selections(stage_one, summaries, i, points):
        null_counts.update((m - r1).tolist())
    cutoffs += [
        bh_critical_values(m, stage_two_level(q1, m, d))
        for d in sorted(null_counts)
        if d > 0
    ]
    return np.concatenate(cutoffs)


def oracle_r_min_scan(rule, summaries, i, rows=None):
    """`_r_min_scan` through the candidate scan, in its call forms: one
    summary vector and family give an int; P families give P counts, family
    i[p] scanned in row rows[p] of a (B, m) matrix (by default row p), or
    all of them in one summary vector."""
    if not all(
        hasattr(rule, name)
        for name in ("block_summaries", "select_block", "summary_thresholds")
    ):
        raise UnsupportedRuleError("R_min needs a rule of the rule protocol")
    fams = np.atleast_1d(i).tolist()
    if rows is None:
        rows = [0] * len(fams) if np.ndim(summaries) == 1 else range(len(fams))
    table = np.atleast_2d(summaries)
    two_stage = isinstance(rule, GlobalNullTest) and rule.procedure.kind == "two_stage"
    best = []
    for r, j in zip(rows, fams):
        row = np.array(table[r], dtype=np.float64)
        cutoffs = reachable_cutoffs(rule, row, j) if two_stage else None
        count = candidate_r_min(rule, row, j, cutoffs)
        if count is None:
            raise UnsupportedRuleError(
                f"family {j} is never selected for any summary value"
            )
        best.append(count)
    return best[0] if np.ndim(i) == 0 else np.array(best, dtype=np.intp)


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


def bisect_r_min_scan(rule, summaries, i, rows=None):
    """`_r_min_scan` through the bisection, in its call forms, for a rule
    with the prefix property."""
    table, fams = np.atleast_2d(summaries), np.atleast_1d(i)
    if rows is None:
        one = np.ndim(summaries) == 1
        rows = np.zeros(fams.size, dtype=np.intp) if one else np.arange(fams.size)
    best = _boundary_r_min(rule, table, rows, fams)
    if (best == 0).any():
        raise UnsupportedRuleError(
            f"family {fams[best == 0][0]} is never selected for any summary value"
        )
    return int(best[0]) if np.ndim(i) == 0 else best
