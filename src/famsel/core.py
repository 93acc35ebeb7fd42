"""Domain types and error measures for testing multiple families of hypotheses.

A *family* is an ordered list of p-values. An error metric maps the pair
(false rejections, rejections) of a tested family to a number C, and the
quantity that matters here is the average of C over the *selected* families,
defined as 0 when nothing is selected.
"""

from dataclasses import dataclass, field

import numpy as np

METRIC_KINDS = ("pfer", "fwer", "fdr", "fdx", "kfwer", "kfdr")


@dataclass(frozen=True)
class ErrorMetric:
    """Per-family error measure.

    kind   one of pfer | fwer | fdr | fdx | kfwer | kfdr
    gamma  exceedance threshold in (0, 1); required exactly for fdx
    k      count threshold >= 1; required exactly for kfwer and kfdr
    """

    kind: str
    gamma: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if (self.gamma is not None) != (self.kind == "fdx"):
            raise ValueError("gamma must be given exactly when kind='fdx'")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if (self.k is not None) != (self.kind in ("kfwer", "kfdr")):
            raise ValueError("k must be given exactly when kind is 'kfwer' or 'kfdr'")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be a positive integer")

    def describe(self) -> str:
        if self.kind == "fdx":
            return f"fdx:{self.gamma:g}"
        if self.kind in ("kfwer", "kfdr"):
            return f"{self.kind}:{self.k}"
        return self.kind


def metric_value(metric: ErrorMetric, v: int, r: int) -> float:
    """Error measure C for a family with v false rejections out of r rejections.

    The false discovery proportion with r = 0 is defined as 0, so every
    metric evaluates to 0 for an untested or rejection-free family.
    """
    if v < 0 or r < 0 or v > r:
        raise ValueError(f"invalid counts: v={v}, r={r} (need 0 <= v <= r)")
    kind = metric.kind
    if kind == "pfer":
        return float(v)
    if kind == "fwer":
        return 1.0 if v >= 1 else 0.0
    fdp = v / max(r, 1)
    if kind == "fdr":
        return fdp
    if kind == "fdx":
        return 1.0 if fdp > metric.gamma else 0.0
    if kind == "kfwer":
        return 1.0 if v >= metric.k else 0.0
    return fdp if v >= metric.k else 0.0  # kfdr


class PValueEnsemble:
    """The ensemble of p-value families under analysis.

    Parameters
    ----------
    families : 2d array, or sequence of 1d array-likes
        One row (entry) per family; all values must lie in [0, 1].
        Families may have different sizes.
    family_ids : sequence of labels, optional
        Opaque labels carried into reports; defaults to positional indices.
    truth : same layout as families, optional
        Boolean mask with True where the null hypothesis is actually true,
        enabling realized error measures in simulations.
    """

    def __init__(self, families, family_ids=None, truth=None):
        fams = None
        if isinstance(families, np.ndarray) and families.ndim == 2:
            rect = np.asarray(families, dtype=np.float64)
            if rect.shape[1] == 0:
                raise ValueError("families must be non-empty")
        else:
            fams = [np.asarray(f, dtype=np.float64).ravel() for f in families]
            if not fams:
                raise ValueError("an ensemble needs at least one family")
            for i, f in enumerate(fams):
                if f.size == 0:
                    raise ValueError(f"family {i} is empty")
            rect = np.vstack(fams) if len({f.size for f in fams}) == 1 else None
        flat = rect if rect is not None else np.concatenate(fams)
        if not (np.all(flat >= 0.0) and np.all(flat <= 1.0)):
            raise ValueError("p-values must lie in [0, 1]")
        self.rect = rect
        self._fams = fams
        self.m = rect.shape[0] if rect is not None else len(fams)
        self.family_ids = list(family_ids) if family_ids is not None else None
        if self.family_ids is not None and len(self.family_ids) != self.m:
            raise ValueError("need one family id per family")
        self._truth2d = None
        self._truth = None
        if truth is not None:
            if (
                rect is not None
                and isinstance(truth, np.ndarray)
                and truth.ndim == 2
                and truth.shape == rect.shape
            ):
                self._truth2d = truth.astype(bool, copy=False)
            else:
                masks = [np.asarray(t, dtype=bool).ravel() for t in truth]
                if len(masks) != self.m or any(
                    masks[i].size != self.size(i) for i in range(self.m)
                ):
                    raise ValueError("truth mask must carry one flag per hypothesis")
                self._truth = masks
        self._minp = None

    @property
    def families(self) -> list:
        if self._fams is None:
            self._fams = list(self.rect)
        return self._fams

    @property
    def truth(self):
        if self._truth is None and self._truth2d is not None:
            self._truth = list(self._truth2d)
        return self._truth

    def has_truth(self) -> bool:
        return self._truth is not None or self._truth2d is not None

    def family(self, i: int) -> np.ndarray:
        return self.rect[i] if self.rect is not None else self._fams[i]

    def size(self, i: int) -> int:
        return self.rect.shape[1] if self.rect is not None else self._fams[i].size

    def truth_family(self, i: int):
        if self._truth2d is not None:
            return self._truth2d[i]
        return None if self._truth is None else self._truth[i]

    def id_of(self, i: int):
        return self.family_ids[i] if self.family_ids is not None else i

    def min_p(self) -> np.ndarray:
        """Smallest p-value of each family (cached)."""
        if self._minp is None:
            if self.rect is not None:
                self._minp = self.rect.min(axis=1)
            else:
                self._minp = np.array([f.min() for f in self.families])
        return self._minp


@dataclass
class SelectionOutcome:
    """Which families a selection rule picked.

    r_min maps a selected family's index to the minimal attainable number of
    selected families with that family kept selected; it is filled by the
    adjustment paths that need it and may be empty otherwise.
    """

    selected: frozenset
    r: int
    r_min: dict = field(default_factory=dict)

    def __post_init__(self):
        self.selected = frozenset(int(i) for i in self.selected)
        if self.r != len(self.selected):
            raise ValueError("r must equal the number of selected families")
        for i, k in self.r_min.items():
            if i not in self.selected:
                raise ValueError(f"r_min given for unselected family {i}")
            if not 1 <= k <= self.r:
                raise ValueError(f"r_min[{i}]={k} outside [1, {self.r}]")


@dataclass
class FamilyDecision:
    """Outcome of testing one selected family at its adjusted level.

    v, q_i and realized_c are only available when the ensemble carries a
    truth mask; realized_c additionally needs an error metric.
    """

    family_id: object
    adjusted_level: float
    rejected: np.ndarray
    v: int | None = None
    q_i: float | None = None
    realized_c: float | None = None


def average_over_selected(decisions, r: int) -> float:
    """Average realized error measure over the selected families.

    Returns sum(C_i) / max(r, 1); in particular 0 when nothing is selected.
    """
    if r != len(decisions):
        raise ValueError("r must match the number of decisions")
    if r == 0:
        return 0.0
    total = 0.0
    for d in decisions:
        if d.realized_c is None:
            raise ValueError(
                f"decision for family {d.family_id!r} has no realized error measure"
            )
        total += d.realized_c
    return total / r


def pooled_fdp(decisions) -> float:
    """False discovery proportion of the combined set of rejections."""
    v_total = 0
    r_total = 0
    for d in decisions:
        if d.v is None:
            raise ValueError(
                f"decision for family {d.family_id!r} has no false-rejection count"
            )
        v_total += d.v
        r_total += len(d.rejected)
    return v_total / max(r_total, 1)
