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
        if self.k is not None and not _positive_int(self.k):
            raise ValueError("k must be a positive integer")

    def describe(self) -> str:
        if self.kind == "fdx":
            return f"fdx:{_number_text(self.gamma)}"
        if self.kind in ("kfwer", "kfdr"):
            return f"{self.kind}:{self.k}"
        return self.kind


def _positive_int(k) -> bool:
    """Whether k is an integer, Python's or NumPy's, of at least 1."""
    return isinstance(k, (int, np.integer)) and k >= 1


def _number_text(x: float) -> str:
    """x as `:g` text where that reads back as x, else as round-trip text."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


def metric_value(metric: ErrorMetric, v: int, r: int) -> float:
    """Error measure C for a family with v false rejections out of r rejections.

    The false discovery proportion with r = 0 is defined as 0, so every
    metric evaluates to 0 for an untested or rejection-free family.
    """
    if not (float(v).is_integer() and float(r).is_integer() and 0 <= v <= r):
        raise ValueError(f"invalid counts: v={v}, r={r} (need integers 0 <= v <= r)")
    return float(_metric_values(metric, np.array([v]), np.array([r]))[0])


def _metric_values(metric: ErrorMetric, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Error measure C of each family, from arrays of valid counts v <= r."""
    kind = metric.kind
    if kind == "pfer":
        return v.astype(np.float64)
    if kind == "fwer":
        return (v >= 1).astype(np.float64)
    fdp = v / np.maximum(r, 1)
    if kind == "fdr":
        return fdp
    if kind == "fdx":
        return (fdp > metric.gamma).astype(np.float64)
    if kind == "kfwer":
        return (v >= metric.k).astype(np.float64)
    return np.where(v >= metric.k, fdp, 0.0)  # kfdr


# float64 values in a temporary that a large input builds in row chunks, so
# that it stays below glibc's 128 KiB mmap threshold: an allocation past it
# is mapped afresh, and each of its pages faults, on every call.
_CHUNK_CELLS = 1 << 13


def _row_chunks(rows: int, n: int):
    """Slices of at most _CHUNK_CELLS values' worth of rows of n values each,
    covering rows rows in order."""
    step = max(1, _CHUNK_CELLS // max(n, 1))
    return [slice(a, a + step) for a in range(0, rows, step)]


# NumPy reduces a last axis shorter than this one row at a time, at about
# 50 ns a row, so a reduction over it goes over the first axis instead.
_SHORT_AXIS = 32


def _last_axis_first(a: np.ndarray) -> np.ndarray:
    """a with its last axis moved first, to be reduced over axis 0 in place of
    the last, for a reduction exact in any order (a minimum, a count). Below
    _SHORT_AXIS columns this is a contiguous copy, several times cheaper to
    reduce; else it is a view."""
    moved = a.transpose(-1, *range(a.ndim - 1))
    return np.ascontiguousarray(moved) if a.shape[-1] < _SHORT_AXIS else moved


def _last_axis_min(a: np.ndarray, scale=None) -> np.ndarray:
    """The minimum over a's last axis of a, or of a * scale for scale one
    value per column, bit for bit the reduction of `_last_axis_first`'s
    layout, as a minimum is exact in any order. Where that layout is a
    copy of _CHUNK_CELLS values or more, it is instead a running np.minimum
    over a's columns, each scaled into one spare array: it builds nothing
    of a's size, and the columns are contiguous where a is a transposed
    view of that layout. A smaller copy costs less than the running
    minimum's two calls per column."""
    if a.shape[-1] >= _SHORT_AXIS or a.size < _CHUNK_CELLS:
        scaled = a if scale is None else a * scale
        return np.minimum.reduce(_last_axis_first(scaled), axis=0)
    if scale is None:
        out = a[..., 0].copy()
        for j in range(1, a.shape[-1]):
            np.minimum(out, a[..., j], out=out)
        return out
    out = a[..., 0] * scale[0]
    spare = np.empty_like(out)
    for j in range(1, a.shape[-1]):
        np.minimum(out, np.multiply(a[..., j], scale[j], out=spare), out=out)
    return out


def _count_type(n: int):
    """The integer type for counts and ranks up to n: uint8 where it holds
    them, as a sum or product of bools on int64 casts every entry first and
    takes about twice as long, and intp otherwise. A comparison, unlike
    np.min_scalar_type, adds no measurable cost to a call on a few rows."""
    return np.uint8 if n < 256 else np.intp


def _column_counts(hits: np.ndarray) -> np.ndarray:
    """The number of True entries down each column of a 2-d bool array, as
    intp, summed on `_count_type`."""
    n = hits.shape[0]
    return np.add.reduce(hits, axis=0, dtype=_count_type(n)).astype(np.intp)


# Rows of a size n from 2 to _NETWORK_SIZES are sorted by a compare-exchange
# network (`_sorted_columns`) from _NETWORK_ROWS[n] of them on: the least
# count from which `rejected_entries` on BH ran faster so in each of four
# processes, there and at every larger count up to 1,536 (2-vCPU host, best
# of 15). Network against np.sort, in us: n = 2, 18.4 against 18.9 at 96
# rows; n = 5, 26.5 against 22.3 at 128 and 29.1 against 29.4 at 256;
# n = 10, 68.7 against 58.5 at 512 and 98.0 against 103.9 at 1,024. On whole
# Simes/BH estimates it took 0.74-0.99 of np.sort's time at n = 2..10 and
# 1.05-1.15 at n = 13-16. _NETWORKS holds each size's network once built.
_NETWORK_SIZES = 10
_NETWORK_ROWS = dict(enumerate((96, 128, 256, 256, 320, 512, 1024, 768, 1024), 2))
_NETWORKS = {}


def _merge_exchange(n: int) -> list:
    """The comparators (i, j), i < j, of Batcher's merge exchange for n
    values (Knuth, TAOCP 3, 5.2.2, Algorithm M), in an order that sorts."""
    pairs, t = [], (n - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


def _network(n: int) -> list:
    """The merge exchange for n > 1 values as steps over slots: slot k < n
    is row k of an (n, N) output, slot n a spare row and slot n + 1 + c
    column c of the (N, n) input. A step (a, b, lo, hi) writes the minimum
    of slots a and b to row lo, which holds no live value, and then their
    maximum to row hi, b's own row, so no step overwrites a value still to
    be read. The rows are planned from the last step back, so that the
    sorted values end in the output's rows in order; a value's first step
    reads it from its input column, and every value has one, as a sorting
    network compares each of its n > 1 values."""
    if n not in _NETWORKS:
        pairs = _merge_exchange(n)
        where, spare, steps = list(range(n)), n, []
        for i, j in reversed(pairs):
            lo, hi = where[i], where[j]
            steps.append([spare, hi, lo, hi])
            where[i], spare = spare, lo
        steps.reverse()
        first = {}
        for k, (i, j) in enumerate(pairs):
            first.setdefault(i, (k, 0))
            first.setdefault(j, (k, 1))
        for c, (k, side) in first.items():
            steps[k][side] = n + 1 + c
        _NETWORKS[n] = [tuple(step) for step in steps]
    return _NETWORKS[n]


def _sorted_columns(rows: np.ndarray, empty=np.empty) -> np.ndarray:
    """rows, an (N, n) matrix, with each row sorted, as an (n, N) array:
    row k holds every row's (k+1)-th smallest value. From _NETWORK_ROWS[n]
    rows of a size n from 2 to _NETWORK_SIZES on, the network (`_network`)
    sorts them into `_last_axis_first`'s layout in memory from empty
    (np.empty's signature). Else np.sort's rows come transposed with no
    copy, or past _CHUNK_CELLS values sorted into that layout in row chunks
    (`_row_chunks`). Each comparator's np.fmin and np.maximum move a NaN to
    its larger side, so NaN sorts last, and its values are np.sort's bit for
    bit on rows free of -0.0; it may give a row's 0.0 and -0.0 one sign,
    which changes no <=."""
    count, n = rows.shape
    network = 1 < n <= _NETWORK_SIZES and count >= _NETWORK_ROWS[n]
    if not network and count * n < _CHUNK_CELLS:
        return np.sort(rows, axis=1).T
    out = empty((n, count))
    if not network:
        for rows_at in _row_chunks(count, n):
            np.copyto(out[:, rows_at], np.sort(rows[rows_at], axis=1).T)
        return out
    slots = [*out, empty(count), *rows.T]
    for a, b, lo, hi in _network(n):
        np.fmin(slots[a], slots[b], out=slots[lo])
        np.maximum(slots[a], slots[b], out=slots[hi])
    return out


def size_groups(sizes) -> list:
    """(n, families) for each distinct size n in sizes, sizes in order of
    first appearance, families the ascending indices of size n.

    When every size is equal the one group's families are slice(None), so
    indexing with it copies nothing.
    """
    sizes = np.asarray(sizes)
    if (sizes == sizes[0]).all():
        return [(int(sizes[0]), slice(None))]
    order = np.argsort(sizes, kind="stable")
    starts = np.flatnonzero(np.diff(sizes[order], prepend=-1))
    groups = np.split(order, starts[1:])
    groups.sort(key=lambda g: g[0])
    return [(int(sizes[g[0]]), g) for g in groups]


def id_groups(count: int, group_of) -> list:
    """`size_groups(group_of)` for group ids, which stand in for sizes, from
    count groups: with one, [(0, slice(None))], without reading group_of."""
    return [(0, slice(None))] if count == 1 else size_groups(group_of)


def in_family_order(groups, parts) -> np.ndarray:
    """Per-family values from one array per `size_groups` group, whose last
    axis runs over the group's families. One group's array is returned as
    it is, without a copy."""
    if len(parts) == 1:
        return parts[0]
    m = sum(part.shape[-1] for part in parts)
    out = np.empty(parts[0].shape[:-1] + (m,))
    for (_, families), part in zip(groups, parts):
        out[..., families] = part
    return out


def group_slots(groups, m: int) -> np.ndarray:
    """(2, m) array: the index in groups of each family's group, and the
    family's row among its group's families."""
    slots = np.empty((2, m), dtype=np.intp)
    for g, (_, families) in enumerate(groups):
        rows = np.arange(m)[families]
        slots[0, rows] = g
        slots[1, rows] = np.arange(rows.size)
    return slots


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

    Stored by size, so memory grows with the number of p-values however
    the sizes are spread: `groups` is `size_groups(sizes)`, `pvalues` holds
    each group's (count, n) p-value matrix and `truths` the matching truth
    matrices, or is None. `slots` holds each family's group and its row in
    the group's matrix (`group_slots`). A 2d array is one group and is not
    copied.
    """

    def __init__(self, families, family_ids=None, truth=None):
        if isinstance(families, np.ndarray) and families.ndim == 2:
            rect = np.asarray(families, dtype=np.float64)
            if rect.shape[0] == 0:
                raise ValueError("an ensemble needs at least one family")
            if rect.shape[1] == 0:
                raise ValueError("families must be non-empty")
            sizes = np.full(rect.shape[0], rect.shape[1])
            groups, values = [(rect.shape[1], slice(None))], [rect]
        else:
            fams = [np.asarray(f, dtype=np.float64).ravel() for f in families]
            if not fams:
                raise ValueError("an ensemble needs at least one family")
            sizes = np.array([f.size for f in fams])
            if (sizes == 0).any():
                raise ValueError(f"family {int(np.argmin(sizes))} is empty")
            groups = size_groups(sizes)
            values = _by_size(np.concatenate(fams), sizes, groups)
        if not all(np.all(v >= 0.0) and np.all(v <= 1.0) for v in values):
            raise ValueError("p-values must lie in [0, 1]")
        truths = None
        if truth is not None:
            masks = [np.asarray(t, dtype=bool).ravel() for t in truth]
            if len(masks) != sizes.size or any(
                mask.size != n for mask, n in zip(masks, sizes.tolist())
            ):
                raise ValueError("truth mask must carry one flag per hypothesis")
            truths = _by_size(np.concatenate(masks), sizes, groups)
        self._store(sizes, groups, values, truths)
        self.family_ids = list(family_ids) if family_ids is not None else None
        if self.family_ids is not None and len(self.family_ids) != self.m:
            raise ValueError("need one family id per family")

    @classmethod
    def _from_groups(cls, sizes, groups, values, truths=None, family_ids=None):
        """An ensemble laid out as `size_groups(sizes)` gives groups, from
        each group's checked (count, n) p-value and truth matrices."""
        ensemble = cls.__new__(cls)
        ensemble._store(sizes, groups, values, truths)
        ensemble.family_ids = family_ids
        return ensemble

    def _store(self, sizes, groups, values, truths):
        self.sizes = sizes
        self.m = sizes.size
        self.groups = groups
        self.pvalues = values
        self.truths = truths
        self.slots = group_slots(groups, self.m)

    @property
    def rect(self):
        """The (m, n) p-value matrix when all families have size n, else None."""
        return self.pvalues[0] if len(self.pvalues) == 1 else None

    @property
    def families(self) -> list:
        return [self.family(i) for i in range(self.m)]

    @property
    def truth(self):
        if self.truths is None:
            return None
        return [self.truth_family(i) for i in range(self.m)]

    def has_truth(self) -> bool:
        return self.truths is not None

    def family(self, i: int) -> np.ndarray:
        g, at = self.slots[:, i]
        return self.pvalues[g][at]

    def size(self, i: int) -> int:
        return int(self.sizes[i])

    def truth_family(self, i: int):
        if self.truths is None:
            return None
        g, at = self.slots[:, i]
        return self.truths[g][at]

    def id_of(self, i: int):
        return self.family_ids[i] if self.family_ids is not None else i

    def min_p(self) -> np.ndarray:
        """Smallest p-value of each family."""
        parts = [values.min(axis=1) for values in self.pvalues]
        return in_family_order(self.groups, parts)


def _by_size(flat: np.ndarray, sizes: np.ndarray, groups) -> list:
    """The (count, n) matrix of each size group of the rows of lengths
    `sizes` laid end to end in flat; one group is a view."""
    if len(groups) == 1:
        return [flat.reshape(sizes.size, -1)]
    starts = np.cumsum(sizes) - sizes
    return [flat[starts[fams, None] + np.arange(n)] for n, fams in groups]


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

    def __eq__(self, other):
        # rejected compares by value; the other fields as the dataclass would
        if other.__class__ is not self.__class__:
            return NotImplemented
        rest = ("family_id", "adjusted_level", "v", "q_i", "realized_c")
        mine, theirs = ([getattr(d, k) for k in rest] for d in (self, other))
        return mine == theirs and np.array_equal(self.rejected, other.rejected)


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
