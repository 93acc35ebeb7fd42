"""The candidate scan for R_min that the boundary bisection replaced.

`famsel.selection._r_min_scan` bisects each family's summary over its
sorted breakpoints. This is the scan it replaced, kept as the reference the
tests compare it against: for a GlobalNullTest every candidate summary value
of a family (the breakpoints 0, 1, every summary and each cutoff in [0, 1],
and the midpoints between them) is evaluated, a block of rows at a time,
and the smallest selected count among the candidates that keep the family
selected is R_min. For the adaptive two-stage procedure the cutoffs are
stage one's BH constants at q' plus, for each null count d = m - r1 that
stage one leaves at some candidate, stage two's BH constants at (m/d)*q'.
That is O(m) rows of length m per family. Other rules run
`selection._looped_r_min`.
"""

import numpy as np

from famsel import selection
from famsel.procedures import (
    Procedure,
    bh_critical_values,
    rejected_by_counts,
    rejection_counts,
    stage_one_level,
    stage_two_level,
)
from famsel.selection import (
    GlobalNullTest,
    UnsupportedRuleError,
    _candidates,
    _is_summary_rule,
    _looped_r_min,
)


def inserted_rows(rest: np.ndarray, candidates: np.ndarray):
    """Blocks of (candidates, rows): each row is the sorted `rest` with one
    candidate inserted at its searchsorted position, so rows come out sorted
    without sorting them."""
    m = rest.size + 1
    padded = np.append(rest, 0.0)
    cols = np.arange(m)
    step = max(1, selection._SCAN_BLOCK_CELLS // m)
    for start in range(0, candidates.size, step):
        block = candidates[start : start + step]
        pos = np.searchsorted(rest, block)
        rows = padded[cols - (cols > pos[:, None])]
        rows[np.arange(block.size), pos] = block
        yield block, rows


def batched_min_selected(rule, rest: np.ndarray, candidates: np.ndarray):
    best = None
    for block, rows in inserted_rows(rest, candidates):
        r = rejection_counts(rule.procedure, rows, rule._levels(block.size))
        # the counts of the candidates that keep their family selected
        counts = r[rejected_by_counts(rows, r, block)]
        if counts.size and (best is None or counts.min() < best):
            best = int(counts.min())
    return best


def batched_r_min(rule, summaries: np.ndarray, i: int) -> int | None:
    """Smallest selected count keeping i selected, for a GlobalNullTest."""
    m = summaries.size
    rest = np.sort(np.delete(summaries, i))
    if rule.procedure.kind != "two_stage":
        return batched_min_selected(
            rule, rest, _candidates(summaries, rule.summary_thresholds(m))
        )
    # Stage two compares against BH cutoffs at (m/d)*q' only for the null
    # counts d = m - r1 that stage one actually leaves for some s.
    q1 = stage_one_level(rule.level)
    cutoffs = [bh_critical_values(m, q1)]
    null_counts = set()
    for block, rows in inserted_rows(rest, _candidates(summaries, cutoffs[0])):
        r1 = rejection_counts(Procedure("bh"), rows, np.full(block.size, q1))
        null_counts.update((m - r1).tolist())
    cutoffs += [
        bh_critical_values(m, stage_two_level(q1, m, d))
        for d in sorted(null_counts)
        if d > 0
    ]
    return batched_min_selected(
        rule, rest, _candidates(summaries, np.concatenate(cutoffs))
    )


def oracle_r_min_scan(rule, summaries, i, rows=None):
    """`_r_min_scan` through the candidate scan, in its call forms: one
    summary vector and family give an int; P families give P counts, family
    i[p] scanned in row rows[p] of a (B, m) matrix (by default row p), or
    all of them in one summary vector."""
    if not _is_summary_rule(rule):
        raise UnsupportedRuleError(
            "R_min needs a rule that consumes one scalar summary per family"
        )
    scan = batched_r_min if isinstance(rule, GlobalNullTest) else _looped_r_min
    fams = np.atleast_1d(i).tolist()
    if rows is None:
        rows = [0] * len(fams) if np.ndim(summaries) == 1 else range(len(fams))
    table = np.atleast_2d(summaries)
    best = []
    for r, j in zip(rows, fams):
        count = scan(rule, np.array(table[r], dtype=np.float64), j)
        if count is None:
            raise UnsupportedRuleError(
                f"family {j} is never selected for any summary value"
            )
        best.append(count)
    return best[0] if np.ndim(i) == 0 else np.array(best, dtype=np.intp)
