import re

import numpy as np
import pytest
import textbook
from hypothesis import given
from hypothesis import strategies as st

from famsel.procedures import (
    PROCEDURE_KINDS,
    Procedure,
    bh,
    bonferroni,
    hochberg,
    holm,
    lehmann_romano_kfwer,
    lr_kfwer_critical_values,
    rejected_entries,
    rejection_counts,
    step_down,
    step_up,
    two_stage_adaptive,
)

pvector = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


def rejected(indices):
    return set(int(i) for i in indices)


class TestBonferroni:
    def test_basic(self):
        assert rejected(bonferroni([0.01, 0.2, 0.03], 0.05)) == {0}

    def test_level_zero(self):
        assert rejected(bonferroni([0.5, 0.6], 0.0)) == set()

    def test_threshold_boundary(self):
        # threshold 0.03/3 = 0.01; equality rejects
        assert rejected(bonferroni([0.004, 0.012, 0.04], 0.03)) == {0}
        assert rejected(bonferroni([0.01, 0.5, 0.5], 0.03)) == {0}


class TestStepUp:
    def test_bh_instance(self):
        crit = [i * 0.05 / 4 for i in (1, 2, 3, 4)]
        assert rejected(step_up([0.01, 0.02, 0.04, 0.5], crit)) == {0, 1}

    def test_all_ones(self):
        assert rejected(step_up([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])) == set()

    def test_unit_critical_values(self):
        assert rejected(step_up([0.3, 0.9, 0.5], [1.0, 1.0, 1.0])) == {0, 1, 2}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            step_up([0.1, 0.2], [0.05])


class TestStepDown:
    HOLM3 = [0.05 / 3, 0.05 / 2, 0.05]

    def test_holm_instance(self):
        assert rejected(step_down([0.001, 0.02, 0.03], self.HOLM3)) == {0, 1, 2}

    def test_input_order_invariance(self):
        assert rejected(step_down([0.02, 0.001, 0.03], self.HOLM3)) == {0, 1, 2}

    def test_first_step_fails(self):
        assert rejected(step_down([0.02, 0.02, 0.02], [0.01, 0.025, 0.05])) == set()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            step_down([0.1], [0.05, 0.1])


class TestBH:
    def test_boundary_pair(self):
        # p_(2)=0.04 <= 2*0.05/2, so the step-up count is 2
        assert rejected(bh([0.026, 0.04], 0.05)) == {0, 1}

    def test_single(self):
        assert rejected(bh([0.01], 0.05)) == {0}

    def test_four_values(self):
        assert rejected(bh([0.01, 0.02, 0.04, 0.5], 0.05)) == {0, 1}

    @given(pvector, st.floats(0.01, 0.5))
    def test_matches_generic_step_up(self, pvals, level):
        n = len(pvals)
        crit = np.arange(1, n + 1) * (level / n)
        assert rejected(bh(pvals, level)) == rejected(step_up(pvals, crit))


class TestTwoStageAdaptive:
    def test_all_three_rejected(self):
        # stage one rejects two, m0_hat = 1, stage two runs at 3q'
        assert rejected(two_stage_adaptive([0.01, 0.02, 0.10], 0.05)) == {0, 1, 2}

    def test_two_rejected(self):
        # stage one rejects one, m0_hat = 2, stage two runs at 1.5q'
        assert rejected(two_stage_adaptive([0.01, 0.04, 0.10], 0.05)) == {0, 1}

    def test_all_ones(self):
        assert rejected(two_stage_adaptive([1.0, 1.0], 0.05)) == set()

    def test_reject_all_when_m0_estimate_hits_zero(self):
        assert rejected(two_stage_adaptive([1e-5, 1e-5], 0.05)) == {0, 1}


class TestHolmHochberg:
    def test_both_reject_all(self):
        p = [0.001, 0.02, 0.03]
        assert rejected(holm(p, 0.05)) == {0, 1, 2}
        assert rejected(hochberg(p, 0.05)) == {0, 1, 2}

    def test_level_zero(self):
        assert rejected(holm([0.2, 0.3], 0.0)) == set()
        assert rejected(hochberg([0.2, 0.3], 0.0)) == set()

    @given(pvector, st.floats(0.01, 0.5))
    def test_hochberg_rejects_at_least_holm(self, pvals, level):
        assert rejected(holm(pvals, level)) <= rejected(hochberg(pvals, level))


class TestLehmannRomano:
    @given(pvector, st.floats(0.01, 0.5))
    def test_k1_is_holm(self, pvals, level):
        assert rejected(lehmann_romano_kfwer(pvals, level, 1)) == rejected(
            holm(pvals, level)
        )

    @given(pvector, st.floats(0.01, 0.5))
    def test_matches_direct_critical_values(self, pvals, level):
        # oracle: evaluate the published constants directly and step down
        n = len(pvals)
        for k in range(1, n + 1):
            i = np.arange(1, n + 1)
            crit = np.where(i < k, k * level / n, k * level / (n + k - i))
            assert rejected(lehmann_romano_kfwer(pvals, level, k)) == rejected(
                step_down(pvals, crit)
            )

    def test_k_equals_n_single_step(self):
        p = [0.01, 0.2, 0.04]
        got = rejected(lehmann_romano_kfwer(p, 0.05, 3))
        assert got == {i for i, x in enumerate(p) if x <= 0.05}

    def test_all_ones(self):
        assert rejected(lehmann_romano_kfwer([1.0, 1.0], 0.05, 2)) == set()

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            lehmann_romano_kfwer([0.1, 0.2], 0.05, 3)
        with pytest.raises(ValueError):
            lehmann_romano_kfwer([0.1, 0.2], 0.05, 0)

    def test_critical_values_nondecreasing(self):
        for n in (1, 2, 5, 9):
            for k in range(1, n + 1):
                crit = lr_kfwer_critical_values(n, 0.05, k)
                assert np.all(np.diff(crit) >= 0)


class TestMonotonicity:
    @given(pvector, st.data())
    def test_lowering_a_pvalue_never_shrinks_step_up(self, pvals, data):
        n = len(pvals)
        crit = np.sort(np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))))
        j = data.draw(st.integers(0, n - 1))
        lowered = list(pvals)
        lowered[j] = data.draw(st.floats(0.0, pvals[j]))
        assert rejected(step_up(pvals, crit)) <= rejected(step_up(lowered, crit))

    @given(pvector, st.data())
    def test_lowering_a_pvalue_never_shrinks_step_down(self, pvals, data):
        n = len(pvals)
        crit = np.sort(np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))))
        j = data.draw(st.integers(0, n - 1))
        lowered = list(pvals)
        lowered[j] = data.draw(st.floats(0.0, pvals[j]))
        assert rejected(step_down(pvals, crit)) <= rejected(step_down(lowered, crit))

    @given(pvector, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_raising_the_level_never_shrinks(self, pvals, a, b):
        lo, hi = min(a, b), max(a, b)
        for proc in (bonferroni, holm, hochberg, bh, two_stage_adaptive):
            assert rejected(proc(pvals, lo)) <= rejected(proc(pvals, hi))


@pytest.fixture(scope="module")
def uniforms():
    return np.random.default_rng(181).uniform(size=(10**5, 10))


class TestNullSimulations:
    """All-null uniform simulations: realized error at or below level + 3 SE."""

    LEVEL = 0.05
    N = 10

    def _rate(self, indicator):
        mean = indicator.mean()
        se = indicator.std(ddof=1) / np.sqrt(indicator.size)
        return mean, se

    def test_bonferroni_fwer(self, uniforms):
        any_rejection = (uniforms <= self.LEVEL / self.N).any(axis=1)
        mean, se = self._rate(any_rejection.astype(float))
        assert mean <= self.LEVEL + 3 * se

    def test_bh_fdr(self, uniforms):
        fdp = np.array(
            [bh(row, self.LEVEL).size > 0 for row in uniforms], dtype=float
        )
        mean, se = self._rate(fdp)  # all-null: FDP = 1{any rejection}
        assert mean <= self.LEVEL + 3 * se

    def test_two_stage_fdr(self, uniforms):
        fdp = np.array(
            [two_stage_adaptive(row, self.LEVEL).size > 0 for row in uniforms],
            dtype=float,
        )
        mean, se = self._rate(fdp)
        assert mean <= self.LEVEL + 3 * se


class TestProcedureType:
    def test_dispatch_matches_functions(self):
        p = [0.01, 0.02, 0.04, 0.5, 0.9]
        cases = [
            ("bonferroni", bonferroni, textbook.bonferroni),
            ("bh", bh, textbook.bh),
            ("holm", holm, textbook.holm),
            ("hochberg", hochberg, textbook.hochberg),
            ("two_stage", two_stage_adaptive, textbook.two_stage_adaptive),
        ]
        for kind, public, reference in cases:
            expected = rejected(reference(p, 0.05))
            assert rejected(Procedure(kind).apply(p, 0.05)) == expected
            assert rejected(public(p, 0.05)) == expected
        expected = rejected(textbook.lehmann_romano_kfwer(p, 0.05, 2))
        assert rejected(Procedure("lr_kfwer", k=2).apply(p, 0.05)) == expected
        assert rejected(lehmann_romano_kfwer(p, 0.05, 2)) == expected

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, 0.01, 0.02, 0.3]) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.0, 0.05, 0.3, 0.9]),
        st.integers(1, 4),
    )
    def test_named_procedures_match_textbook(self, pvals, level, k):
        # the one-row case of the batched test, on ties, 0 and 1
        for public, reference in [
            (bonferroni, textbook.bonferroni),
            (bh, textbook.bh),
            (holm, textbook.holm),
            (hochberg, textbook.hochberg),
            (two_stage_adaptive, textbook.two_stage_adaptive),
        ]:
            got = public(pvals, level)
            assert got.tolist() == reference(pvals, level).tolist()
            assert got.dtype == np.intp
        if k <= len(pvals):
            assert (
                lehmann_romano_kfwer(pvals, level, k).tolist()
                == textbook.lehmann_romano_kfwer(pvals, level, k).tolist()
            )
        else:
            with pytest.raises(ValueError, match=f"k={k} out of range"):
                lehmann_romano_kfwer(pvals, level, k)

    def test_generic_kinds_carry_critical_values(self):
        proc = Procedure("step_up", critical_values=(0.01, 0.02, 0.03))
        assert rejected(proc.apply([0.005, 0.5, 0.9])) == {0}
        with pytest.raises(ValueError, match="cannot"):
            proc.apply([0.005, 0.5, 0.9], 0.05)

    def test_empty_family_is_refused(self):
        for kind in PROCEDURE_KINDS:
            generic = kind in ("step_up", "step_down")
            proc = Procedure(
                kind,
                critical_values=(0.05,) if generic else None,
                k=1 if kind == "lr_kfwer" else None,
            )
            with pytest.raises(ValueError, match="empty family"):
                proc.apply([], None if generic else 0.05)
        with pytest.raises(ValueError, match="empty family"):
            bonferroni([], 0.05)

    def test_parametric_kinds_require_level(self):
        with pytest.raises(ValueError, match="level"):
            Procedure("bh").apply([0.01])

    def test_validation(self):
        with pytest.raises(ValueError):
            Procedure("unknown")
        with pytest.raises(ValueError):
            Procedure("bh", critical_values=(0.1,))
        with pytest.raises(ValueError):
            Procedure("step_up")
        with pytest.raises(ValueError):
            Procedure("step_up", critical_values=(0.2, 0.1))
        with pytest.raises(ValueError):
            Procedure("step_up", critical_values=(0.2, 1.5))
        with pytest.raises(ValueError):
            Procedure("lr_kfwer")
        with pytest.raises(ValueError):
            Procedure("bh", k=2)

    def test_stepwise_labels(self):
        assert Procedure("bonferroni").stepwise == "single-step"
        assert Procedure("bh").stepwise == "step-up"
        assert Procedure("holm").stepwise == "step-down"
        assert Procedure("two_stage").stepwise == "adaptive"

    def test_thresholds_cover_rejection_cutoffs(self):
        # every cutoff a p-value is compared against appears in thresholds()
        n, level = 4, 0.2
        assert np.allclose(
            Procedure("bh").thresholds(n, level), np.arange(1, 5) * level / 4
        )
        q1 = level / (1.0 + level)
        grid = Procedure("two_stage").thresholds(n, level)
        for j in range(1, n + 1):
            for d in range(1, n + 1):
                assert np.isclose(grid, j * q1 / d).any()


class TestRejectionCounts:
    """The batched kernel counts exactly what the scalar procedures reject."""

    def test_matches_scalar_procedures(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 13):
            rows = rng.uniform(size=(80, n)) ** 3
            rows[rng.uniform(size=rows.shape) < 0.1] = 0.0
            rows[rng.uniform(size=rows.shape) < 0.1] = 1.0
            rows[::3, -1] = rows[::3, 0]
            ps = np.sort(rows, axis=1)
            levels = rng.uniform(0.01, 0.9, size=rows.shape[0])
            procedures = [
                Procedure(kind)
                for kind in ("bonferroni", "holm", "hochberg", "bh", "two_stage")
            ] + [Procedure("lr_kfwer", k=min(2, n))]
            for proc in procedures:
                expected = [
                    textbook.apply(proc, row, lv).size for row, lv in zip(rows, levels)
                ]
                assert rejection_counts(proc, ps, levels).tolist() == expected
                applied = [proc.apply(row, lv).size for row, lv in zip(rows, levels)]
                assert applied == expected
            crit = tuple(np.sort(rng.uniform(size=n)))
            for kind in ("step_up", "step_down"):
                proc = Procedure(kind, critical_values=crit)
                expected = [textbook.apply(proc, row).size for row in rows]
                assert rejection_counts(proc, ps).tolist() == expected
                assert [proc.apply(row).size for row in rows] == expected

    def test_level_and_shape_errors(self):
        ps = np.array([[0.01, 0.2, 0.5]])
        with pytest.raises(ValueError, match="level"):
            rejection_counts(Procedure("bh"), ps)
        generic = Procedure("step_up", critical_values=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="cannot"):
            rejection_counts(generic, ps, np.array([0.05]))
        with pytest.raises(ValueError, match="one critical value"):
            rejection_counts(generic, ps[:, :2])
        with pytest.raises(ValueError, match="out of range"):
            rejection_counts(Procedure("lr_kfwer", k=4), ps, np.array([0.05]))


class TestRejectedEntries:
    """The one within-family test, on families of one size."""

    @staticmethod
    def _procedure(kind, n):
        if kind in ("step_up", "step_down"):
            return Procedure(kind, critical_values=tuple(np.linspace(0.0, 0.5, n)))
        return Procedure(kind, k=2 if kind == "lr_kfwer" else None)

    def test_rows_match_textbook(self):
        rng = np.random.default_rng(44)
        pool = np.array([0.0, 1.0, 0.01, 0.02, 0.2, 0.5])
        for case in range(60):
            s, n = (int(v) for v in rng.integers(1, 9, size=2))
            rows = rng.choice(pool, size=(s, n)) * rng.uniform(0.5, 1.0, size=(s, 1))
            levels = rng.choice([0.05, 0.3, 0.9], size=s)
            for kind in PROCEDURE_KINDS:
                proc = self._procedure(kind, n if case % 2 else n + 1)
                generic = proc.critical_values is not None
                lv = None if generic else levels
                try:
                    expected = np.zeros(rows.shape, dtype=bool)
                    for i, row in enumerate(rows):
                        level = None if generic else levels[i]
                        expected[i, textbook.apply(proc, row, level)] = True
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        rejected_entries(proc, rows, lv)
                    continue
                mask, counts = rejected_entries(proc, rows, lv)
                assert np.array_equal(mask, expected), (case, kind)
                assert counts.tolist() == expected.sum(axis=1).tolist()

    def test_lr_kfwer_needs_k_at_most_the_size(self):
        rows = np.full((3, 2), 0.01)
        with pytest.raises(ValueError, match="k=3 out of range for 2 hypotheses"):
            rejected_entries(Procedure("lr_kfwer", k=3), rows, [0.1] * 3)
