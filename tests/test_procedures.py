import itertools
import re

import numpy as np
import pytest
import textbook
from hypothesis import given, settings
from hypothesis import strategies as st

from famsel.core import _NETWORK_ROWS
from famsel.procedures import (
    PROCEDURE_KINDS,
    Procedure,
    _entry_cutoffs,
    bh,
    bh_critical_values,
    bonferroni,
    hochberg,
    holm,
    lehmann_romano_kfwer,
    lr_kfwer_critical_values,
    rejected_entries,
    rejection_counts,
    stage_one_level,
    stage_two_level,
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


class TestGenericStepsMatchTextbook:
    """famsel's step_up and step_down, the one-row case of the batched step
    counts, against the per-family loops in tests/textbook.py."""

    VALUES = st.sampled_from([0.0, 1.0, 0.02, 0.05, np.nan]) | st.floats(0.0, 1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(VALUES, max_size=10), st.data())
    def test_rejected_sets(self, pvals, data):
        n = len(pvals)
        size = data.draw(st.sampled_from([n] * 6 + [n + 1, max(n - 1, 0)]))
        crit = data.draw(st.lists(self.VALUES, min_size=size, max_size=size))
        shape = data.draw(st.sampled_from(["nondecreasing", "decreasing", "drawn"]))
        if shape != "drawn":
            crit = sorted(crit, reverse=shape == "decreasing")
        pairs = [(step_up, textbook.step_up), (step_down, textbook.step_down)]
        for ours, reference in pairs:
            try:
                expected = reference(pvals, crit)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    ours(pvals, crit)
                continue
            got = ours(pvals, crit)
            assert got.tolist() == expected.tolist(), (ours.__name__, crit)
            assert got.dtype == expected.dtype == np.intp
            # a Procedure takes nondecreasing critical values in [0, 1]
            nondecreasing = shape == "nondecreasing" and not np.isnan(crit).any()
            if n and size == n and nondecreasing:
                proc = Procedure(ours.__name__, critical_values=tuple(crit))
                assert proc.apply(pvals).tolist() == expected.tolist()

    def test_decreasing_critical_values_split_a_tie(self):
        for step in (step_up, step_down, textbook.step_up, textbook.step_down):
            assert step([0.03, 0.5, 0.03], [0.05, 0.01, 0.2]).tolist() == [0]

    def test_empty_input(self):
        for step in (step_up, step_down):
            got = step([], [])
            assert got.tolist() == [] and got.dtype == np.intp


class TestNaN:
    """Procedure.apply and the named procedures take NaN and never reject
    it, as the textbook loops do."""

    @pytest.mark.parametrize("kind", [k for k in PROCEDURE_KINDS if "step_" not in k])
    def test_parametric_kinds_never_reject_nan(self, kind):
        # on seeded rows of ties, zeros of both signs and NaN
        named = {
            "bonferroni": bonferroni,
            "holm": holm,
            "hochberg": hochberg,
            "bh": bh,
            "two_stage": two_stage_adaptive,
            "lr_kfwer": lambda p, level: lehmann_romano_kfwer(p, level, 2),
        }
        rng = np.random.default_rng(PROCEDURE_KINDS.index(kind))
        pool = np.array([0.0, -0.0, 0.001, 0.01, 0.04, np.nan])
        proc = Procedure(kind, k=2 if kind == "lr_kfwer" else None)
        nans = 0
        for _ in range(3000):
            n = int(rng.integers(2, 11))
            row = np.where(
                rng.uniform(size=n) < 0.6, rng.choice(pool, size=n), rng.uniform(size=n)
            )
            level = float(rng.choice([0.05, 0.3, 0.9]))
            want = textbook.apply(proc, row, level).tolist()
            assert proc.apply(row, level).tolist() == want, (kind, row, level)
            assert named[kind](row, level).tolist() == want
            assert not np.isnan(row[want]).any()
            nans += np.isnan(row).any() and 0 < len(want) < n
        assert nans > 100


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

    # The rows the one-row public wrappers are checked against, row by row.
    CHECKED_ROWS = 2000

    def _any_rejection(self, kind, public, uniforms):
        """1{any rejection} per row from one batched call, checked against
        the public one-row wrapper on the first CHECKED_ROWS rows."""
        levels = np.full(len(uniforms), self.LEVEL)
        mask, r = rejected_entries(Procedure(kind), uniforms, levels)
        for row, hit in zip(uniforms[: self.CHECKED_ROWS], mask):
            assert public(row, self.LEVEL).tolist() == np.flatnonzero(hit).tolist()
        return (r > 0).astype(float)

    def test_bh_fdr(self, uniforms):
        fdp = self._any_rejection("bh", bh, uniforms)
        mean, se = self._rate(fdp)  # all-null: FDP = 1{any rejection}
        assert mean <= self.LEVEL + 3 * se

    def test_two_stage_fdr(self, uniforms):
        fdp = self._any_rejection("two_stage", two_stage_adaptive, uniforms)
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

    @pytest.mark.parametrize("level", [-1.0, -1e-300, 1.0 + 1e-15, 2.0, np.inf, np.nan])
    def test_level_outside_unit_interval_is_refused(self, level):
        for kind in PROCEDURE_KINDS:
            if kind in ("step_up", "step_down"):
                continue
            proc = Procedure(kind, k=1 if kind == "lr_kfwer" else None)
            with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
                proc.apply([0.01, 0.5], level)
        for public in (bonferroni, holm, hochberg, bh, two_stage_adaptive):
            with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
                public([0.01, 0.5], level)
        # the ends of [0, 1] stay valid
        assert rejected(bh([0.01, 0.5], 1.0)) == {0, 1}
        assert rejected(two_stage_adaptive([0.01, 0.5], 0.0)) == set()

    def test_thresholds_refuse_what_apply_refuses(self):
        # unchecked, thresholds(0, 0.05) divides by zero and a level above 1
        # gives cutoffs above 1
        for kind in PROCEDURE_KINDS:
            if kind in ("step_up", "step_down"):
                continue
            proc = Procedure(kind, k=1 if kind == "lr_kfwer" else None)
            for n in (0, -2):
                with pytest.raises(ValueError, match="n must be at least 1"):
                    proc.thresholds(n, 0.05)
            for level in (-1e-300, 1.5, np.inf, np.nan):
                with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
                    proc.thresholds(3, level)
            # the ends of [0, 1] stay valid
            assert np.isfinite(proc.thresholds(3, 1.0)).all()
            assert not proc.thresholds(3, 0.0).any()
        generic = Procedure("step_up", critical_values=(0.1,))
        assert generic.thresholds(1).tolist() == [0.1]

    def test_lr_kfwer_k_is_an_integer(self):
        for k in (1.5, np.float64(2.0)):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                Procedure("lr_kfwer", k=k)
        proc = Procedure("lr_kfwer", k=np.int64(2))
        assert proc.describe() == "lr_kfwer:2"
        assert rejected(proc.apply([0.01, 0.02, 0.5], 0.05)) == {0, 1}

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

    def test_thresholds_cover_rejection_cutoffs(self, monkeypatch):
        # every critical value a textbook procedure compares a p-value
        # against appears in thresholds() exactly; r zeros before n - r ones
        # make stage one of two_stage reject r, so stage two runs at every
        # null-count estimate m0_hat = n - r
        seen = []
        for name in ("step_up", "step_down"):
            step = getattr(textbook, name)
            recorded = lambda p, crit, step=step: seen.append(crit) or step(p, crit)
            monkeypatch.setattr(textbook, name, recorded)
        rng = np.random.default_rng(8)
        for kind, n in itertools.product(PROCEDURE_KINDS, range(1, 13)):
            for level in (0.01, 0.05, 0.1, 0.2, 0.5, 0.9):
                if kind in ("step_up", "step_down"):
                    crit = tuple(np.sort(rng.uniform(0.0, level, size=n)))
                    procs, level = [Procedure(kind, critical_values=crit)], None
                elif kind == "lr_kfwer":
                    procs = [Procedure(kind, k=k) for k in range(1, n + 1)]
                else:
                    procs = [Procedure(kind)]
                for proc in procs:
                    seen.clear()
                    for r in range(n + 1):
                        textbook.apply(proc, [0.0] * r + [1.0] * (n - r), level)
                    # textbook.bonferroni compares against level / n itself
                    cutoffs = np.concatenate(seen) if seen else np.array([level / n])
                    got = proc.thresholds(n, level)
                    assert np.isin(cutoffs, got).all(), (proc, n, level)


class TestRejectionCounts:
    """The batched kernel counts exactly what the scalar procedures reject."""

    def test_matches_scalar_procedures(self):
        # sizes on both sides of the 32 columns at which `_last_axis_first`
        # turns from a copy into a view, and of the 255 up to which counts
        # run on uint8, with a row that every procedure rejects in full
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 13, 31, 32, 40, 255, 256):
            rows = rng.uniform(size=(80, n)) ** 3
            rows[rng.uniform(size=rows.shape) < 0.1] = 0.0
            rows[rng.uniform(size=rows.shape) < 0.1] = 1.0
            rows[::3, -1] = rows[::3, 0]
            rows[1] = 0.0
            ps = np.sort(rows, axis=1)
            levels = rng.uniform(0.01, 0.9, size=rows.shape[0])
            procedures = [
                Procedure(kind)
                for kind in ("bonferroni", "holm", "hochberg", "bh", "two_stage")
            ] + [Procedure("lr_kfwer", k=min(2, n))]
            crit = tuple(np.sort(rng.uniform(size=n)))
            procedures += [
                Procedure(kind, critical_values=crit)
                for kind in ("step_up", "step_down")
            ]
            for proc in procedures:
                lv = None if proc.critical_values else levels
                row_levels = [None] * len(rows) if lv is None else lv
                expected = np.zeros(rows.shape, dtype=bool)
                for i, (row, level) in enumerate(zip(rows, row_levels)):
                    expected[i, textbook.apply(proc, row, level)] = True
                counts = expected.sum(axis=1).tolist()
                assert rejection_counts(proc, ps, lv).tolist() == counts
                applied = [proc.apply(*args).size for args in zip(rows, row_levels)]
                assert applied == counts
                mask, r = rejected_entries(proc, rows, lv)
                assert np.array_equal(mask, expected), (n, proc)
                assert r.tolist() == counts
                # the sorted rows as a view of first-axis memory
                columns = np.ascontiguousarray(ps.T)
                assert rejection_counts(proc, columns.T, lv).tolist() == counts

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


def two_stage_ulp_case():
    """A (level, n) at which stage two at m0_hat = n runs at q1 * n / n one
    ulp above q1, and its last cutoff lies above stage one's: n p-values
    tied just above stage one's last cutoff are all rejected."""
    for level in np.linspace(0.01, 0.5, 50):
        for n in range(2, 7):
            q1 = stage_one_level(level)
            c2 = bh_critical_values(n, stage_two_level(q1, n, n))[-1]
            if c2 > bh_critical_values(n, q1)[-1]:
                return float(level), n
    raise AssertionError("no level rounds stage two up")


class TestEntryCutoffs:
    """A family whose smallest p-value lies above its entry cutoff rejects
    nothing, and for a single step or a step down one at or below it does."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(PROCEDURE_KINDS),
        case=st.just(two_stage_ulp_case())
        | st.tuples(st.sampled_from([0.05, 0.3]) | st.floats(1e-3, 0.99), st.integers(1, 6)),
        data=st.data(),
    )
    def test_a_rejection_needs_the_minimum_at_the_cutoff(self, kind, case, data):
        (level, n), pool = case, [0.0, 1.0, 0.01, 0.05, 0.2]
        if kind in ("step_up", "step_down"):
            crit = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
            procedure, level = Procedure(kind, critical_values=crit), None
        else:
            k = data.draw(st.integers(1, n)) if kind == "lr_kfwer" else None
            procedure = Procedure(kind, k=k)
        # every value the procedure compares against, and one ulp either side
        cuts = procedure.thresholds(n, level)
        pool += [*cuts, *np.nextafter(cuts, 0.0), *np.nextafter(cuts, 1.0)]
        values = st.sampled_from(pool) | st.floats(0.0, 1.0)
        rows = data.draw(
            st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=8)
        )
        # and rows of ties at each of those values
        rows += [[v] * n for v in pool[5:]]
        ps = np.sort(np.array(rows), axis=1)
        levels = None if level is None else np.full(len(ps), level)
        r = rejection_counts(procedure, ps, levels)
        meets = ps[:, 0] <= _entry_cutoffs(procedure, n, levels)
        assert not (r > 0)[~meets].any()
        if procedure.stepwise in ("single-step", "step-down"):
            assert np.array_equal(r > 0, meets)


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

    def test_rows_on_both_sides_of_the_network_cutoff(self):
        # families of n from 2 to 10 sort by the network from
        # _NETWORK_ROWS[n] rows on and by np.sort below; with ties, zeros of
        # both signs and NaN each mask and count is the textbook's, row by row
        rng = np.random.default_rng(45)
        pool = np.array([0.0, -0.0, 0.001, 0.01, 0.04, 0.2, np.nan])
        for n, below in itertools.product((2, 5, 10), (None, 1, 0)):
            s = 1 if below is None else _NETWORK_ROWS[n] - below
            rows = rng.choice(pool, size=(s, n))
            drawn = rng.uniform(size=(s, n))
            rows = np.where(rng.uniform(size=(s, n)) < 0.3, drawn, rows)
            levels = rng.choice([0.05, 0.3, 0.9], size=s)
            for kind in PROCEDURE_KINDS:
                proc = self._procedure(kind, n)
                lv = None if proc.critical_values else levels
                mask, counts = rejected_entries(proc, rows, lv)
                for i, row in enumerate(rows):
                    level = None if lv is None else lv[i]
                    want = textbook.apply(proc, row, level).tolist()
                    assert np.flatnonzero(mask[i]).tolist() == want, (n, s, kind)
                assert counts.tolist() == mask.sum(axis=1).tolist()

    def test_lr_kfwer_needs_k_at_most_the_size(self):
        rows = np.full((3, 2), 0.01)
        with pytest.raises(ValueError, match="k=3 out of range for 2 hypotheses"):
            rejected_entries(Procedure("lr_kfwer", k=3), rows, [0.1] * 3)
