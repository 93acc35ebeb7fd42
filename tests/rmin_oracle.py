"""R_min by evaluating every candidate summary value, the reference for the
boundary bisection.

`famsel.selection._r_min_scan` bisects each family's summary over its
sorted breakpoints. This module shares no grid code with it. Every
candidate value of family i's summary is tried: the breakpoints 0, 1, every
summary and each of the rule's cutoffs in [0, 1], and the midpoints between
consecutive ones. The smallest selected count among the candidates that
keep i selected is R_min. One family's candidates are the rows of a
(candidates, m) matrix, one `select_block` call per block of at most
_BLOCK_CELLS cells.

`candidate_r_min` takes the rule's `summary_thresholds` as its cutoffs,
which for the adaptive two-stage procedure are all m**2 stage-two
constants. `oracle_r_min_scan` keeps, of those, stage one's BH constants
at q' and, for each null count d = m - r1 that stage one leaves at some
candidate, stage two's BH constants at (m/d)*q'; that is O(m) rows of
length m per family.
"""

import numpy as np

from famsel.procedures import (
    Procedure,
    bh_critical_values,
    stage_one_level,
    stage_two_level,
)
from famsel.selection import GlobalNullTest, UnsupportedRuleError

_BLOCK_CELLS = 1 << 20


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
