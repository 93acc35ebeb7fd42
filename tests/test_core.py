import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from famsel.core import (
    ErrorMetric,
    FamilyDecision,
    PValueEnsemble,
    SelectionOutcome,
    _last_axis_first,
    average_over_selected,
    metric_value,
    pooled_fdp,
    size_groups,
)


def _decision(i, n_rejected, v, c=None):
    return FamilyDecision(
        family_id=i,
        adjusted_level=0.05,
        rejected=np.arange(n_rejected),
        v=v,
        q_i=v / max(n_rejected, 1),
        realized_c=c,
    )


class TestMetricValue:
    @pytest.mark.parametrize(
        "metric, v, r, expected",
        [
            (ErrorMetric("fdr"), 2, 10, 0.2),
            (ErrorMetric("fwer"), 0, 5, 0.0),
            (ErrorMetric("fwer"), 1, 5, 1.0),
            (ErrorMetric("fdx", gamma=0.1), 2, 10, 1.0),
            (ErrorMetric("fdx", gamma=0.25), 2, 10, 0.0),
            (ErrorMetric("kfwer", k=2), 1, 3, 0.0),
            (ErrorMetric("kfwer", k=2), 2, 3, 1.0),
            (ErrorMetric("pfer"), 3, 7, 3.0),
            (ErrorMetric("kfdr", k=2), 2, 10, 0.2),
            (ErrorMetric("kfdr", k=3), 2, 10, 0.0),
            (ErrorMetric("fdr"), 0, 0, 0.0),
        ],
    )
    def test_examples(self, metric, v, r, expected):
        assert metric_value(metric, v, r) == pytest.approx(expected)

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="invalid counts"):
            metric_value(ErrorMetric("fdr"), 3, 2)
        with pytest.raises(ValueError, match="invalid counts"):
            metric_value(ErrorMetric("fdr"), -1, 2)

    @pytest.mark.parametrize(
        "v, r", [(np.nan, 2), (1, np.nan), (0.5, 1), (1, 2.5), (np.inf, np.inf)]
    )
    def test_counts_are_integers(self, v, r):
        # unchecked, (nan, 2) gives nan under fdr and (0.5, 1) 0.0 under fwer
        for kind in ("fdr", "fwer"):
            with pytest.raises(ValueError, match="invalid counts"):
                metric_value(ErrorMetric(kind), v, r)
        assert metric_value(ErrorMetric("fdr"), np.int64(1), 4.0) == 0.25

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_fdp_never_exceeds_fwer_indicator(self, a, b):
        v, r = min(a, b), max(a, b)
        fdr = metric_value(ErrorMetric("fdr"), v, r)
        fwer = metric_value(ErrorMetric("fwer"), v, r)
        assert fdr <= fwer


class TestErrorMetricValidation:
    def test_gamma_only_for_fdx(self):
        with pytest.raises(ValueError):
            ErrorMetric("fdr", gamma=0.1)
        with pytest.raises(ValueError):
            ErrorMetric("fdx")

    def test_k_only_for_k_metrics(self):
        with pytest.raises(ValueError):
            ErrorMetric("kfwer")
        with pytest.raises(ValueError):
            ErrorMetric("fwer", k=2)
        with pytest.raises(ValueError):
            ErrorMetric("kfdr", k=0)

    def test_k_is_an_integer(self):
        for kind in ("kfwer", "kfdr"):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                ErrorMetric(kind, k=1.5)
            with pytest.raises(ValueError, match="k must be a positive integer"):
                ErrorMetric(kind, k=np.float64(2.0))
            assert ErrorMetric(kind, k=np.int64(2)).describe() == f"{kind}:2"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ErrorMetric("pfdr")


class TestAverageOverSelected:
    def test_empty_selection_is_zero(self):
        assert average_over_selected([], 0) == 0.0

    def test_sparse_false_discoveries(self):
        # 36 clean families plus 4 with FDP one half average to 0.05.
        decisions = [_decision(i, 1, 0, c=0.0) for i in range(36)]
        decisions += [_decision(36 + i, 10, 5, c=0.5) for i in range(4)]
        assert average_over_selected(decisions, 40) == pytest.approx(0.05)

    def test_concentrated_false_discoveries(self):
        decisions = [_decision(i, 2, 1, c=0.5) for i in range(20)]
        decisions += [_decision(20 + i, 18, 0, c=0.0) for i in range(20)]
        assert average_over_selected(decisions, 40) == pytest.approx(0.25)

    def test_r_mismatch(self):
        with pytest.raises(ValueError):
            average_over_selected([_decision(0, 1, 0, c=0.0)], 2)

    def test_missing_realized_c(self):
        with pytest.raises(ValueError, match="realized"):
            average_over_selected([_decision(0, 1, 0)], 1)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.randoms())
    def test_order_invariant_and_bounded(self, values, rnd):
        decisions = [_decision(i, 1, 0, c=c) for i, c in enumerate(values)]
        shuffled = list(decisions)
        rnd.shuffle(shuffled)
        a = average_over_selected(decisions, len(values))
        b = average_over_selected(shuffled, len(values))
        assert a == pytest.approx(b, abs=1e-12)
        assert a <= max(values) + 1e-12


class TestPooledFdp:
    def test_sparse_case_pools_high(self):
        decisions = [_decision(i, 1, 0) for i in range(36)]
        decisions += [_decision(36 + i, 10, 5) for i in range(4)]
        assert pooled_fdp(decisions) == pytest.approx(20 / 76)

    def test_concentrated_case_pools_low(self):
        decisions = [_decision(i, 2, 1) for i in range(20)]
        decisions += [_decision(20 + i, 18, 0) for i in range(20)]
        assert pooled_fdp(decisions) == pytest.approx(0.05)

    def test_no_rejections(self):
        assert pooled_fdp([_decision(i, 0, 0) for i in range(5)]) == 0.0

    def test_average_and_pooled_disagree_both_ways(self):
        # The same decision sets show control of one measure does not give
        # control of the other, in either direction.
        sparse = [_decision(i, 1, 0, c=0.0) for i in range(36)]
        sparse += [_decision(36 + i, 10, 5, c=0.5) for i in range(4)]
        dense = [_decision(i, 2, 1, c=0.5) for i in range(20)]
        dense += [_decision(20 + i, 18, 0, c=0.0) for i in range(20)]
        assert average_over_selected(sparse, 40) <= 0.05 < pooled_fdp(sparse)
        assert pooled_fdp(dense) <= 0.05 < average_over_selected(dense, 40)


class TestPValueEnsemble:
    def test_rect_and_ragged_agree(self):
        rect = PValueEnsemble(np.array([[0.1, 0.2], [0.3, 0.4]]))
        ragged = PValueEnsemble([[0.1, 0.2], [0.3, 0.4]])
        assert rect.m == ragged.m == 2
        assert np.array_equal(rect.family(1), ragged.family(1))
        assert np.array_equal(rect.min_p(), [0.1, 0.3])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PValueEnsemble([[0.1, 1.2]])
        with pytest.raises(ValueError):
            PValueEnsemble([[-0.1]])
        with pytest.raises(ValueError):
            PValueEnsemble([[np.nan]])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            PValueEnsemble([[0.1], []])
        with pytest.raises(ValueError):
            PValueEnsemble([])
        with pytest.raises(ValueError, match="at least one family"):
            PValueEnsemble(np.empty((0, 3)))

    def test_truth_shape_checked(self):
        with pytest.raises(ValueError):
            PValueEnsemble([[0.1, 0.2]], truth=[[True]])
        ens = PValueEnsemble([[0.1, 0.2]], truth=[[True, False]])
        assert ens.truth_family(0).tolist() == [True, False]

    def test_family_ids_preserved(self):
        ens = PValueEnsemble([[0.1], [0.2]], family_ids=["a", "b"])
        assert ens.id_of(1) == "b"
        assert PValueEnsemble([[0.1]]).id_of(0) == 0
        with pytest.raises(ValueError):
            PValueEnsemble([[0.1]], family_ids=["a", "b"])

    def test_mixed_sizes(self):
        ens = PValueEnsemble([[0.1, 0.2, 0.3], [0.5]])
        assert ens.rect is None
        assert ens.size(0) == 3 and ens.size(1) == 1
        assert np.array_equal(ens.min_p(), [0.1, 0.5])

    def test_mixed_sizes_are_stored_by_size(self):
        ens = PValueEnsemble(
            [[0.3, 0.1, 0.2], [0.5], [0.7, 0.8, 0.9]],
            truth=[[True, False, True], [False], [True] * 3],
        )
        assert ens.sizes.tolist() == [3, 1, 3]
        assert [(n, f.tolist()) for n, f in ens.groups] == [(3, [0, 2]), (1, [1])]
        assert [v.tolist() for v in ens.pvalues] == [
            [[0.3, 0.1, 0.2], [0.7, 0.8, 0.9]],
            [[0.5]],
        ]
        assert [t.tolist() for t in ens.truths] == [
            [[True, False, True], [True] * 3],
            [[False]],
        ]
        assert ens.slots.tolist() == [[0, 1, 0], [0, 0, 1]]
        assert [f.tolist() for f in ens.families] == [
            [0.3, 0.1, 0.2],
            [0.5],
            [0.7, 0.8, 0.9],
        ]
        assert [t.tolist() for t in ens.truth] == [
            [True, False, True],
            [False],
            [True] * 3,
        ]
        assert ens.truth_family(1).tolist() == [False]
        assert ens.has_truth()
        assert not PValueEnsemble([[0.1], [0.2, 0.3]]).has_truth()
        assert PValueEnsemble([[0.1], [0.2, 0.3]]).truth is None

    def test_storage_grows_with_the_pvalues(self):
        # one large family among many singletons: a matrix padded to the
        # largest size would hold 2001 x 2000 values, not 4000
        families = [[0.5]] * 2000 + [np.full(2000, 0.25)]
        ens = PValueEnsemble(families, truth=[[True]] * 2000 + [[False] * 2000])
        assert sum(v.size for v in ens.pvalues) == 4000
        assert sum(t.size for t in ens.truths) == 4000
        assert ens.family(2000).size == 2000 and ens.min_p()[-1] == 0.25

    def test_rectangular_array_is_kept_as_it_is(self):
        p = np.random.default_rng(1).uniform(size=(4, 3))
        truth = np.zeros((4, 3), dtype=bool)
        ens = PValueEnsemble(p, truth=truth)
        assert ens.rect is p and ens.pvalues == [p]
        assert np.array_equal(ens.truths[0], truth)
        assert ens.sizes.tolist() == [3] * 4
        # equal sizes given as rows make the same rectangular layout
        rows = PValueEnsemble([list(r) for r in p], truth=list(truth))
        assert np.array_equal(rows.rect, p)
        assert np.array_equal(rows.truths[0], truth)

    def test_size_groups(self):
        groups = size_groups([3, 1, 3, 2, 1])
        assert [(n, g.tolist()) for n, g in groups] == [
            (3, [0, 2]),
            (1, [1, 4]),
            (2, [3]),
        ]
        assert size_groups(np.full(4, 2)) == [(2, slice(None))]


class TestSelectionOutcome:
    def test_r_must_match(self):
        with pytest.raises(ValueError):
            SelectionOutcome(frozenset({1, 2}), 3)

    def test_r_min_bounds(self):
        SelectionOutcome(frozenset({0, 2}), 2, {0: 1, 2: 2})
        with pytest.raises(ValueError):
            SelectionOutcome(frozenset({0, 2}), 2, {0: 3})
        with pytest.raises(ValueError):
            SelectionOutcome(frozenset({0, 2}), 2, {1: 1})


class TestLastAxisFirst:
    """Reductions over axis 0 of _last_axis_first(a) equal those over a's
    last axis: counts of booleans and integers, and minima."""

    @staticmethod
    def layouts(a):
        """a, a copy in Fortran order, and views that are not contiguous."""
        n = a.shape[-1] // 2
        half = a[..., :n]
        return [half, np.asfortranarray(half), a[..., ::2], a[::-1, ..., n:]]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_counts_equal_row_sums(self, n):
        rng = np.random.default_rng(n)
        for rows in (0, 1, 7, 300):
            hits = rng.uniform(size=(rows, 2 * n)) < 0.4
            counts = rng.integers(0, 5, size=(rows, 2 * n))
            for a in self.layouts(hits) + self.layouts(counts):
                got = np.add.reduce(_last_axis_first(a), axis=0)
                want = a.sum(axis=1)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 33, 100])
    def test_minima_equal_row_minima(self, n):
        rng = np.random.default_rng(n)
        for shape in ((4, 3, 2 * n), (0, 3, 2 * n), (9, 2 * n)):
            p = rng.choice([0.0, 0.25, 0.5, 1.0], size=shape) * rng.uniform(size=shape)
            for a in self.layouts(p):
                got = np.minimum.reduce(_last_axis_first(a), axis=0)
                assert got.tobytes() == a.min(axis=-1).tobytes()

    def test_short_rows_are_copied_long_rows_viewed(self):
        a = np.zeros((5, 31))
        assert _last_axis_first(a).flags.c_contiguous
        b = np.zeros((5, 32))
        assert np.shares_memory(_last_axis_first(b), b)
