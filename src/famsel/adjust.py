"""Selection-adjusted testing of families.

After selecting R of m families, running any error-controlling procedure
inside each selected family at level R*q/m (or, for selection rules without
the fixed-count property, at R_min(i)*q/m) keeps the expected average error
measure over the selected families at or below q. Unselected families are
never tested, so they contribute 0 to the average.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ErrorMetric,
    FamilyDecision,
    PValueEnsemble,
    SelectionOutcome,
    _metric_values,
    average_over_selected,
    size_groups,
)
from .procedures import Procedure, rejected_entries
from .selection import GlobalNullTest, _r_min_scan, select


class NonConvergenceError(RuntimeError):
    """Iterative adjustment failed to stabilize within max_iters."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class AdjustedAnalysis:
    """One full selection-adjusted analysis of an ensemble."""

    selection: SelectionOutcome
    decisions: list = field(default_factory=list)
    q: float = 0.0
    procedure: Procedure | None = None
    metric: ErrorMetric | None = None

    def average_error(self) -> float:
        """Realized average error measure over the selected families."""
        return average_over_selected(self.decisions, self.selection.r)


def _decide(ensemble, selected, levels, procedure, metric) -> list:
    """Decisions for the families `selected`, family selected[k] tested at levels[k].

    The selected families of each size are tested in one `rejected_entries`
    call, sizes in order of first appearance. Each decision's rejected
    indices equal ``procedure.apply(ensemble.family(i), level)``, and the
    errors raised are the ones the first failing family would raise there.
    """
    if not selected:
        return []
    families = np.asarray(selected, dtype=np.intp)
    tested_at = None if levels[0] is None else np.asarray(levels, dtype=np.float64)
    rejected = [None] * families.size
    r = np.empty(families.size, dtype=np.intp)
    v = np.empty(families.size, dtype=np.intp)
    for _, group in size_groups(ensemble.sizes[families]):
        rows, truth = ensemble._rows(families[group])
        mask, r[group] = rejected_entries(
            procedure, rows, None if tested_at is None else tested_at[group]
        )
        if truth is not None:
            v[group] = (mask & truth).sum(axis=1)
        row_of, cols = np.nonzero(mask)
        bounds = np.searchsorted(row_of, np.arange(len(rows) + 1)).tolist()
        for k, start, end in zip(
            np.arange(families.size)[group].tolist(), bounds[:-1], bounds[1:]
        ):
            rejected[k] = cols[start:end]
    decisions = [
        FamilyDecision(ensemble.id_of(i), level, rej)
        for i, level, rej in zip(selected, levels, rejected)
    ]
    if ensemble.has_truth():
        q_i = (v / np.maximum(r, 1)).tolist()
        c = [None] * families.size
        if metric is not None:
            c = _metric_values(metric, v, r).tolist()
        for decision, v_k, q_k, c_k in zip(decisions, v.tolist(), q_i, c):
            decision.v, decision.q_i, decision.realized_c = v_k, q_k, c_k
    return decisions


def _check_q(q: float):
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")


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
    outcome = select(rule, ensemble)
    level = outcome.r * q / ensemble.m
    order = sorted(outcome.selected)
    decisions = _decide(ensemble, order, [level] * len(order), procedure, metric)
    return AdjustedAnalysis(outcome, decisions, q, procedure, metric)


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
    summaries = rule.summaries(ensemble)
    picked = rule.select_from_summaries(summaries)
    order = sorted(int(j) for j in picked)
    if getattr(rule, "is_simple", False) or not order:
        counts = [len(order)] * len(order)
    else:
        counts = _r_min_scan(rule, summaries, np.array(order)).tolist()
    rmins = dict(zip(order, counts))
    outcome = SelectionOutcome(frozenset(order), len(order), rmins)
    levels = [rmins[i] * q / ensemble.m for i in order]
    decisions = _decide(ensemble, order, levels, procedure, metric)
    return AdjustedAnalysis(outcome, decisions, q, procedure, metric)


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
    an explicit entry point for bias demonstrations.
    """
    outcome = select(rule, ensemble)
    order = sorted(outcome.selected)
    decisions = _decide(ensemble, order, [level] * len(order), procedure, metric)
    return AdjustedAnalysis(outcome, decisions, level, procedure, metric)


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
    one), so at most m rounds are needed; max_iters defaults to m and a
    NonConvergenceError carrying the selection trajectory is raised if it is
    ever exceeded.

    With singleton families and a first selection at threshold q, the final
    rejections coincide exactly with BH at level q on the pooled p-values.
    """
    _check_q(q)
    m = ensemble.m
    if max_iters is None:
        max_iters = m
    outcome = select(rule, ensemble)
    selected = sorted(outcome.selected)
    trajectory = [frozenset(selected)]
    for _ in range(max_iters):
        if not selected:
            break
        level = len(selected) * q / m
        decisions = _decide(
            ensemble, selected, [level] * len(selected), procedure, metric
        )
        keep = [i for i, d in zip(selected, decisions) if d.rejected.size > 0]
        if len(keep) == len(selected):
            r = len(selected)
            final = SelectionOutcome(
                frozenset(selected), r, {i: r for i in selected}
            )
            return AdjustedAnalysis(final, decisions, q, procedure, metric)
        selected = keep
        trajectory.append(frozenset(selected))
    if not selected:
        # the last families dropped out: the empty selection is the fixed point
        return AdjustedAnalysis(
            SelectionOutcome(frozenset(), 0), [], q, procedure, metric
        )
    raise NonConvergenceError(
        f"no fixed point after {max_iters} iterations", trajectory
    )


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
    for decision in analysis.decisions:
        if decision.rejected.size == 0:
            raise AssertionError(
                f"selected family {decision.family_id!r} has no rejection; "
                "this indicates an implementation bug"
            )
    return analysis
