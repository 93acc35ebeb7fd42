"""Selection-adjusted testing of families.

After selecting R of m families, running any error-controlling procedure
inside each selected family at level R*q/m (or, for selection rules without
the fixed-count property, at R_min(i)*q/m) keeps the expected average error
measure over the selected families at or below q. Unselected families are
never tested, so they contribute 0 to the average.

An analysis keeps its decisions in columns (`DecisionColumns`), a read-only
sequence that builds a family's `FamilyDecision` only when it is indexed.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ErrorMetric,
    FamilyDecision,
    PValueEnsemble,
    SelectionOutcome,
    _last_axis_first,
    _metric_values,
    average_over_selected,
    size_groups,
)
from .procedures import Procedure, rejected_entries
from .selection import GlobalNullTest, _counts, _picked, _summaries


class NonConvergenceError(RuntimeError):
    """Iterative adjustment failed to stabilize within max_iters."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class DecisionColumns(Sequence):
    """The decisions of an analysis in columns, read-only: the selected
    `families`, ascending, their `counts` (R, or R_min under "rmin"),
    `levels` (None when the procedure carries its own critical values) and
    rejection counts `r`, their `v` and `c` (None without a truth mask, c
    also without a metric), and the `cells` of every rejection, family after
    family, a cell being a hypothesis' position among all the families laid
    end to end. Indexing builds one family's FamilyDecision."""

    def __init__(self, ensemble, families, counts, levels, r, cells, v=None, c=None):
        self.families, self.counts, self.levels = families, counts, levels
        self.r, self.cells, self.v, self.c = r, cells, v, c
        self._ids = ensemble.family_ids
        self._offsets = (np.cumsum(ensemble.sizes) - ensemble.sizes)[families]
        self._ends = np.cumsum(r)

    def __len__(self) -> int:
        return self.families.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        k = range(len(self))[k]  # a list's negative indices and IndexError
        i, r, end = int(self.families[k]), int(self.r[k]), int(self._ends[k])
        v = None if self.v is None else int(self.v[k])
        return FamilyDecision(
            i if self._ids is None else self._ids[i],
            None if self.levels is None else float(self.levels[k]),
            self.cells[end - r : end] - self._offsets[k],
            v,
            None if v is None else v / max(r, 1),
            None if self.c is None else float(self.c[k]),
        )

    def __eq__(self, other):
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        shown = [f"{k}={getattr(self, k)!r}" for k in ("families", "counts", "levels")]
        return f"DecisionColumns({', '.join(shown)}, r={self.r!r})"


@dataclass
class AdjustedAnalysis:
    """One full selection-adjusted analysis of an ensemble."""

    selection: SelectionOutcome
    decisions: Sequence = field(default_factory=list)
    q: float = 0.0
    procedure: Procedure | None = None
    metric: ErrorMetric | None = None

    def average_error(self) -> float:
        """Realized average error measure over the selected families; the
        c column is summed left to right, as `average_over_selected` sums."""
        c, r = getattr(self.decisions, "c", None), self.selection.r
        if c is None or r != c.size:
            return average_over_selected(self.decisions, r)
        return float(np.cumsum(c)[-1] / r) if r else 0.0


def _levels(rule, adjustment: str, q, summaries, fams, rows, r):
    """The count and the level of each selected family fams[k] of summary
    row rows[k]: R of its row, r[rows[k]], or its `_counts` count when
    adjustment is "rmin"; count * q / m, q for "none", or None if q is."""
    rmin = adjustment == "rmin"
    counts = _counts(rule, summaries, fams, rows, r) if rmin else r[rows]
    if q is None:
        return counts, None
    m = summaries.shape[-1]
    # q + 0.0 is q, and costs less than np.full's Python wrappers
    levels = q + np.zeros(counts.size) if adjustment == "none" else counts * q / m
    return counts, levels


def _test_rows(procedure: Procedure, matrices, truths, group_of, rows, levels):
    """Rejections r, false rejections v (None when truths is None) and the
    (ks, rejected-entry mask) of each size group, testing rows[k] of
    matrices[group_of[k]] at levels[k], or at no level when levels is None.

    There is one matrix per family size and one truth per matrix: a matrix
    with its rows, or one row they all share. Each size is one
    `rejected_entries` call, sizes in order of their first row, so an error
    is the one the first failing row raises.
    """
    r = np.empty(rows.size, dtype=np.intp)
    v = None if truths is None else np.empty(rows.size, dtype=np.intp)
    masks = []
    # group ids stand in for sizes, one to one
    for g, ks in size_groups(group_of):
        at = rows[ks]
        tested_at = None if levels is None else levels[ks]
        mask, r[ks] = rejected_entries(
            procedure, matrices[g].take(at, axis=0), tested_at
        )
        if v is not None:
            truth = truths[g]
            if truth.ndim == 2:
                truth = truth.take(at, axis=0)
            v[ks] = np.add.reduce(_last_axis_first(mask & truth), axis=0)
        masks.append((ks, mask))
    return r, v, masks


def _decide(ensemble, families, counts, levels, procedure, metric):
    """The decisions for the selected families, ascending, family
    families[k] (of count counts[k]) tested at levels[k], or at no level when
    levels is None: what ``procedure.apply(ensemble.family(i), level)``
    rejects, or the error the first failing family raises there."""
    cells = np.zeros(0, dtype=np.intp)
    if not families.size:
        return DecisionColumns(ensemble, families, counts, levels, cells, cells)
    group_of, rows = ensemble.slots[:, families]
    r, v, masks = _test_rows(
        procedure, ensemble.pvalues, ensemble.truths, group_of, rows, levels
    )
    offsets = (np.cumsum(ensemble.sizes) - ensemble.sizes)[families]
    parts = []
    for ks, mask in masks:
        row_of, cols = np.nonzero(mask)
        parts.append(offsets[ks][row_of] + cols)
    # The families are ascending, so their cells are too: sorting the
    # groups' cells puts the rejections family after family.
    cells = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
    c = None if v is None or metric is None else _metric_values(metric, v, r)
    return DecisionColumns(ensemble, families, counts, levels, r, cells, v, c)


def _check_q(q: float, name: str = "q"):
    if not 0.0 < q < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


def _analysis(ensemble, rule, procedure, q, metric, adjustment: str):
    """Select, then test each selected family at its `_levels` level, as a
    one-replicate Monte Carlo block does; only "rmin" records r_min."""
    summaries = _summaries(rule, ensemble)
    fams = _picked(rule, summaries)
    order = fams.tolist()
    counts, levels = _levels(
        rule, adjustment, q, summaries, fams, np.zeros_like(fams), np.array([fams.size])
    )
    r_min = dict(zip(order, counts.tolist())) if adjustment == "rmin" else {}
    outcome = SelectionOutcome(frozenset(order), len(order), r_min)
    decisions = _decide(ensemble, fams, counts, levels, procedure, metric)
    return AdjustedAnalysis(outcome, decisions, q, procedure, metric)


def simple_selection_adjusted(
    ensemble: PValueEnsemble,
    rule,
    procedure: Procedure,
    q: float,
    metric: ErrorMetric | None = None,
) -> AdjustedAnalysis:
    """Select, then test each selected family at level R*q/m.

    Valid when the selection rule is simple (the caller's assertion;
    ``check_simple`` is available as a falsifier). When the rule selects all
    families this reduces to ordinary per-family testing at q.
    """
    _check_q(q)
    return _analysis(ensemble, rule, procedure, q, metric, "simple")


def selection_adjusted(
    ensemble: PValueEnsemble,
    rule,
    procedure: Procedure,
    q: float,
    metric: ErrorMetric | None = None,
) -> AdjustedAnalysis:
    """Select, then test each selected family i at level R_min(i)*q/m.

    Works for any selection rule R_min supports and coincides with
    ``simple_selection_adjusted`` whenever the rule is simple.
    """
    _check_q(q)
    return _analysis(ensemble, rule, procedure, q, metric, "rmin")


def unadjusted_analysis(
    ensemble: PValueEnsemble,
    rule,
    procedure: Procedure,
    level: float,
    metric: ErrorMetric | None = None,
) -> AdjustedAnalysis:
    """Select, then test each selected family at the unadjusted level.

    This is the selection-blind baseline whose average error measure over
    the selected families inflates as selection gets more stringent; kept as
    an explicit entry point for bias demonstrations. level is None for a
    generic step_up or step_down, which carries its own critical values.
    """
    if level is not None:
        _check_q(level, "level")
    return _analysis(ensemble, rule, procedure, level, metric, "none")


def iterative_simple_adjusted(
    ensemble: PValueEnsemble,
    rule,
    procedure: Procedure,
    q: float,
    max_iters: int | None = None,
    metric: ErrorMetric | None = None,
) -> AdjustedAnalysis:
    """Repeat the simple adjustment until every selected family rejects.

    Each round tests the currently selected families at |S|*q/m and then
    re-selects only those with at least one rejection. The selected set can
    only shrink (a family with no rejection at a level has none at a smaller
    one), so at most m rounds are needed; max_iters, at least 1, defaults
    to m, and a NonConvergenceError carrying the selection trajectory is
    raised if it is ever exceeded.

    With singleton families and a first selection at threshold q, the final
    rejections coincide exactly with BH at level q on the pooled p-values.
    """
    _check_q(q)
    m = ensemble.m
    if max_iters is None:
        max_iters = m
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    selected = _picked(rule, _summaries(rule, ensemble))
    trajectory = [frozenset(selected.tolist())]
    # Each of max_iters rounds tests the selected families. The empty
    # selection is a fixed point that needs no test, so a round may reach it
    # after the last one.
    for rounds in range(max_iters + 1):
        r = selected.size
        if r and rounds == max_iters:
            raise NonConvergenceError(
                f"no fixed point after {max_iters} iterations", trajectory
            )
        decisions = _decide(
            ensemble, selected, np.full(r, r), np.full(r, r * q / m), procedure, metric
        )
        keep = selected[decisions.r > 0]
        if keep.size == r:
            order = selected.tolist()
            final = SelectionOutcome(frozenset(order), r, dict.fromkeys(order, r))
            return AdjustedAnalysis(final, decisions, q, procedure, metric)
        selected = keep
        trajectory.append(frozenset(selected.tolist()))


def guaranteed_rejection_analysis(
    ensemble: PValueEnsemble,
    q: float,
    metric: ErrorMetric | None = None,
) -> AdjustedAnalysis:
    """Simes-combined BH selection with BH inside, at matched levels.

    Family i is selected only when its Simes p-value falls at or below
    R*q/m, which happens exactly when BH at R*q/m rejects something inside
    the family, so every selected family comes with at least one rejection.
    """
    _check_q(q)
    rule = GlobalNullTest("simes", Procedure("bh"), level=q)
    analysis = simple_selection_adjusted(
        ensemble, rule, Procedure("bh"), q, metric=metric
    )
    unrejected = analysis.decisions.families[analysis.decisions.r == 0]
    if unrejected.size:
        raise AssertionError(
            f"selected family {ensemble.id_of(int(unrejected[0]))!r} has no "
            "rejection; this indicates an implementation bug"
        )
    return analysis
