import math

import mpmath
import numpy as np
import pytest
import textbook
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from famsel import selection
from famsel.core import PValueEnsemble
from famsel.procedures import Procedure
from famsel.selection import (
    COMBINERS,
    GlobalNullTest,
    MinPThreshold,
    TopKMinP,
    UnsupportedRuleError,
    _looped_r_min,
    _r_min_scan,
    check_concordant,
    check_simple,
    combine,
    combined_pvalues,
    r_min,
    select,
)

mpmath.mp.dps = 40


def singleton_ensemble(values):
    return PValueEnsemble([[v] for v in values])


# the adaptive two-stage configuration where the selected count moves while
# the middle family stays selected: q' = 0.05/1.05, values in the regions
# (0, q'/3), (q'/3, 2q'/3), (3q'/2, 3q')
TWO_STAGE_RULE = GlobalNullTest("bonferroni_min", Procedure("two_stage"), level=0.05)
TWO_STAGE_ENSEMBLE = singleton_ensemble([0.01, 0.02, 0.10])


class TestCombine:
    def test_simes(self):
        assert combine("simes", [0.01, 0.04, 0.09]) == pytest.approx(0.03)

    def test_bonferroni_min(self):
        assert combine("bonferroni_min", [0.2, 0.3]) == pytest.approx(0.4)
        assert combine("bonferroni_min", [0.9, 0.9]) == 1.0

    def test_fisher_half_half(self):
        # chi-square(4) survival at -2*log(0.25) via the exact even-df sum
        stat = -2.0 * math.log(0.25)
        oracle = math.exp(-stat / 2.0) * (1.0 + stat / 2.0)
        assert oracle == pytest.approx(0.5966, abs=5e-5)
        assert combine("fisher", [0.5, 0.5]) == pytest.approx(oracle, rel=1e-12)

    def test_stouffer_symmetry(self):
        assert combine("stouffer", [0.5, 0.5]) == pytest.approx(0.5)
        assert combine("stouffer", [0.1, 0.9]) == pytest.approx(0.5)

    def test_zero_and_one_pvalues_stay_finite(self):
        for kind in ("bonferroni_min", "simes", "fisher", "stouffer"):
            for p in ([0.0, 0.5], [1.0, 1.0], [0.0, 1.0]):
                value = combine(kind, p)
                assert 0.0 <= value <= 1.0

    def test_floor_is_configurable(self):
        tight = combine("fisher", [1e-200, 0.5], floor=1e-10)
        loose = combine("fisher", [1e-200, 0.5], floor=1e-300)
        assert loose < tight

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine("simes", [])

    def test_unknown_combiner(self):
        with pytest.raises(ValueError):
            combine("tippett", [0.1])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_output_in_unit_interval(self, pvals):
        for kind in ("bonferroni_min", "simes", "fisher", "stouffer"):
            assert 0.0 <= combine(kind, pvals) <= 1.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(size=(50, 4))
        ens = PValueEnsemble(rows)
        for kind in ("bonferroni_min", "simes", "fisher", "stouffer"):
            batch = combined_pvalues(kind, ens)
            each = np.array([combine(kind, row) for row in rows])
            assert np.array_equal(batch, each)

    def test_mixed_sizes_match_scalar(self):
        # each size is combined on its unpadded columns: a sum over padded
        # rows would group the terms differently and change low-order bits
        rng = np.random.default_rng(6)
        sizes = np.concatenate([np.arange(1, 70), rng.integers(1, 70, size=70)])
        families = [rng.uniform(size=n) ** 3 for n in sizes]
        families[3][0] = 0.0
        families[4][-1] = 1.0
        ens = PValueEnsemble(families)
        assert ens.rect is None
        for kind in ("bonferroni_min", "simes", "fisher", "stouffer"):
            batch = combined_pvalues(kind, ens)
            each = np.array([combine(kind, f) for f in families])
            assert batch.tobytes() == each.tobytes(), kind

    def test_simes_transposed_minimum_is_bit_identical(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 6, 31, 32, 40):
            rows = rng.uniform(size=(300, n)) ** 4
            rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
            rows[rng.uniform(size=rows.shape) < 0.2] = 1.0
            rows[:, -1] = rows[:, 0]  # ties
            ranked = np.sort(rows, axis=1)
            want = np.clip(
                (ranked * (n / np.arange(1.0, n + 1.0))).min(axis=1), 0.0, 1.0
            )
            got = selection._combine_rows("simes", rows, selection.DEFAULT_P_FLOOR)
            assert got.tobytes() == want.tobytes()


class TestSurvivalFunctionAccuracy:
    """The scipy-backed tails agree with independent high-precision oracles."""

    def test_chi_square_even_df_against_poisson_sum(self):
        # for df = 2k the survival function is exp(-x/2) * sum_{j<k} (x/2)^j / j!
        for k in (1, 2, 3, 5, 10):
            for x in (1e-6, 0.5, 2.7726, 10.0, 30.0, 80.0):
                half = mpmath.mpf(x) / 2
                oracle = mpmath.exp(-half) * mpmath.nsum(
                    lambda j: half**j / mpmath.factorial(j), [0, k - 1]
                )
                got = special.chdtrc(2 * k, x)
                assert abs(got - float(oracle)) <= 1e-12 * float(oracle)

    def test_normal_tail_against_erfc(self):
        for z in (-8.0, -3.0, -1.0, 0.0, 0.5, 1.6449, 3.0, 8.0):
            oracle = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2
            got = special.ndtr(-z)
            assert abs(got - float(oracle)) <= 1e-12 * float(oracle)

    def test_normal_quantile_roundtrip(self):
        for p in (1e-300, 1e-12, 0.01, 0.5, 0.99, 1 - 1e-12):
            z = special.ndtri(p)
            assert special.ndtr(z) == pytest.approx(p, rel=1e-10)


class TestSelect:
    ENSEMBLE = PValueEnsemble(
        [[0.01, 0.6, 0.7], [0.2, 0.5, 0.9], [0.04, 0.3, 0.8]]
    )

    def test_min_p_threshold(self):
        out = select(MinPThreshold(0.05), self.ENSEMBLE)
        assert out.selected == {0, 2} and out.r == 2

    def test_top_k(self):
        out = select(TopKMinP(2), self.ENSEMBLE)
        assert out.selected == {0, 2}

    def test_top_k_selects_all_when_k_equals_m(self):
        assert select(TopKMinP(3), self.ENSEMBLE).r == 3

    def test_top_k_ties_take_lower_index(self):
        ens = PValueEnsemble([[0.2], [0.1], [0.1], [0.1]])
        assert select(TopKMinP(2), ens).selected == {1, 2}

    def test_top_k_larger_than_m(self):
        with pytest.raises(ValueError):
            select(TopKMinP(4), self.ENSEMBLE)

    def test_global_null_bh(self):
        ens = singleton_ensemble([0.01, 0.02, 0.9])
        rule = GlobalNullTest("simes", Procedure("bh"), level=0.05)
        # BH on the combined values (0.01, 0.02, 0.9): two smallest rejected
        assert select(rule, ens).selected == {0, 1}

    def test_threshold_boundary_selects(self):
        ens = PValueEnsemble([[0.05], [0.06]])
        assert select(MinPThreshold(0.05), ens).selected == {0}

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            MinPThreshold(0.0)
        with pytest.raises(ValueError):
            TopKMinP(0)
        with pytest.raises(ValueError):
            GlobalNullTest("median", Procedure("bh"), level=0.05)
        with pytest.raises(ValueError):
            GlobalNullTest("simes", Procedure("bh"), level=1.5)
        with pytest.raises(ValueError, match="level is required"):
            GlobalNullTest("simes", Procedure("bh"))
        generic = Procedure("step_up", critical_values=(0.01, 0.05))
        assert GlobalNullTest("simes", generic).level is None

    @given(st.data())
    def test_decreasing_own_pvalue_keeps_family_selected(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        pvals = rng.uniform(size=(5, 3))
        ens = PValueEnsemble(pvals)
        for rule in (
            MinPThreshold(0.5),
            GlobalNullTest("simes", Procedure("bh"), level=0.5),
        ):
            before = select(rule, ens).selected
            if not before:
                continue
            i = sorted(before)[0]
            lowered = pvals.copy()
            lowered[i] = lowered[i] * data.draw(st.floats(0.0, 1.0))
            after = select(rule, PValueEnsemble(lowered)).selected
            assert i in after


class TestSelectBlock:
    """select_block on a stack of summary rows against one row at a time."""

    def _rules(self, m, rng):
        yield MinPThreshold(float(rng.uniform(0.05, 1.0)))
        yield MinPThreshold(1.0)
        yield TopKMinP(int(rng.integers(1, m + 1)))
        crit = tuple(np.sort(rng.uniform(0.0, 0.6, m)))
        level = float(rng.uniform(0.05, 0.6))
        for combiner in COMBINERS:
            for kind in SCAN_KINDS:
                yield scan_rule(combiner, kind, level, int(rng.integers(1, m + 1)), crit)

    @staticmethod
    def _oracle(rule, row):
        """The selected indices by each rule's definition, not via select_block."""
        if isinstance(rule, MinPThreshold):
            return np.flatnonzero(row <= rule.t)
        if isinstance(rule, TopKMinP):
            return np.sort(np.argsort(row, kind="stable")[: rule.k])
        return textbook.apply(rule.procedure, row, rule.level)

    def test_rows_agree_with_one_row_selection(self):
        rng = np.random.default_rng(505)
        checked = 0
        for case in range(40):
            m = int(rng.integers(1, 25))
            block = rng.uniform(size=(6, m)) ** rng.uniform(1.0, 5.0)
            # ties within a row, and summaries of exactly 0 and 1
            block[rng.uniform(size=block.shape) < 0.3] = block[0, 0]
            block[rng.uniform(size=block.shape) < 0.1] = 0.0
            block[rng.uniform(size=block.shape) < 0.1] = 1.0
            block[1] = block[0, 0]
            for rule in self._rules(m, rng):
                mask = rule.select_block(block)
                assert mask.shape == block.shape and mask.dtype == bool
                for row, picked in zip(block, mask):
                    one = rule.select_from_summaries(row)
                    assert np.array_equal(np.flatnonzero(picked), one), rule
                    assert np.array_equal(one, self._oracle(rule, row)), rule
                    checked += one.size > 0
        assert checked > 2000

    def test_errors_match_the_scalar_path(self):
        block = np.full((2, 3), 0.01)
        with pytest.raises(ValueError, match="k=4 exceeds the number of families"):
            TopKMinP(4).select_block(block)
        for rule in (
            GlobalNullTest("simes", Procedure("lr_kfwer", k=4), level=0.1),
            GlobalNullTest("simes", Procedure("step_up", critical_values=(0.1,))),
        ):
            with pytest.raises(ValueError) as block_error:
                rule.select_block(block)
            with pytest.raises(ValueError) as row_error:
                self._oracle(rule, block[0])
            assert str(block_error.value) == str(row_error.value)

    def test_block_summaries_match_each_ensemble(self):
        rng = np.random.default_rng(9)
        for n in (1, 3, 40):
            p = rng.uniform(size=(5, 7, n))
            p[0, 0] = 0.0
            p[1, 1] = 1.0
            for rule in [MinPThreshold(0.5), TopKMinP(2)] + [
                GlobalNullTest(c, Procedure("bh"), 0.1) for c in COMBINERS
            ]:
                got = rule.block_summaries(p)
                want = [rule.summaries(PValueEnsemble(block)) for block in p]
                assert np.array_equal(got, np.array(want)), (rule, n)

    def test_mixed_size_summaries_match_each_family(self):
        rng = np.random.default_rng(10)
        sizes = [3, 1, 7, 3, 40, 1, 9]
        for trial in range(5):
            families = [rng.uniform(size=n) ** 2 for n in sizes]
            families[0][1] = 0.0 if trial == 0 else families[0][1]
            families[2][6] = 1.0 if trial == 1 else families[2][6]
            ensemble = PValueEnsemble(families)
            for rule in [MinPThreshold(0.5), TopKMinP(2)] + [
                GlobalNullTest(c, Procedure("bh"), 0.1) for c in COMBINERS
            ]:
                if isinstance(rule, GlobalNullTest):
                    want = [combine(rule.combiner, f, rule.floor) for f in families]
                else:
                    want = [np.min(f) for f in families]
                got = rule.summaries(ensemble)
                assert got.tobytes() == np.array(want).tobytes(), rule
                assert want == [rule.summary_of(f) for f in families], rule


class TestRMin:
    def test_simple_rules_shortcut_to_r(self):
        ens = PValueEnsemble(np.random.default_rng(1).uniform(size=(6, 3)))
        for rule in (
            MinPThreshold(0.9),
            TopKMinP(4),
            GlobalNullTest("simes", Procedure("bh"), level=0.5),
            GlobalNullTest("fisher", Procedure("holm"), level=0.5),
        ):
            out = select(rule, ens)
            for i in sorted(out.selected):
                assert r_min(rule, ens, i) == out.r

    def test_two_stage_drops_to_two(self):
        out = select(TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE)
        assert out.selected == {0, 1, 2}
        assert r_min(TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE, 1) == 2

    def test_unselected_family_rejected(self):
        ens = singleton_ensemble([0.001, 0.9])
        with pytest.raises(ValueError, match="not selected"):
            r_min(MinPThreshold(0.05), ens, 1)

    def test_non_summary_rule_refused(self):
        class OpaqueRule:
            def select(self, ensemble):
                return [0]

        with pytest.raises(UnsupportedRuleError):
            r_min(OpaqueRule(), TWO_STAGE_ENSEMBLE, 0)

    def _grid_r_min(self, rule, summaries, i, points=1000):
        # brute-force oracle: sweep the summary over a uniform grid, one row
        # per grid point (select_from_summaries is the 1-row case)
        work = np.tile(summaries, (points, 1))
        work[:, i] = np.linspace(0.0, 1.0, points)
        picked = rule.select_block(work)
        sizes = picked.sum(axis=1)[picked[:, i]]
        return int(sizes.min()) if sizes.size else None

    def test_scan_matches_grid_oracle(self):
        rng = np.random.default_rng(77)
        procedures = [
            Procedure("bh"),
            Procedure("holm"),
            Procedure("bonferroni"),
            Procedure("two_stage"),
        ]
        checked = 0
        for case in range(120):
            m = int(rng.integers(2, 7))
            rule = GlobalNullTest(
                "simes",
                procedures[case % len(procedures)],
                level=float(rng.uniform(0.1, 0.5)),
            )
            summaries = rng.uniform(size=m)
            for i in range(m):
                scan = _r_min_scan(rule, summaries, i)
                grid = self._grid_r_min(rule, summaries, i)
                if grid is not None:
                    assert scan == grid, (case, i, summaries)
                    checked += 1
        assert checked > 300


SCAN_KINDS = (
    "bonferroni",
    "holm",
    "hochberg",
    "bh",
    "two_stage",
    "lr_kfwer",
    "step_up",
    "step_down",
)


def scan_rule(combiner, kind, level, k, crit):
    if kind in ("step_up", "step_down"):
        return GlobalNullTest(combiner, Procedure(kind, critical_values=crit))
    procedure = Procedure(kind, k=k if kind == "lr_kfwer" else None)
    return GlobalNullTest(combiner, procedure, level=level)


def two_stage_cutoffs(level, m, rng, size):
    """Stage-two cutoffs j*((q'*m/d)/m), as the procedure rounds them, each
    possibly moved one ulp up or down, where other summaries decide R_min."""
    q1 = level / (1.0 + level)
    j = rng.integers(1, m + 1, size=size)
    d = rng.integers(1, m + 1, size=size)
    cut = j * ((q1 * m / d) / m)
    shift = rng.integers(-1, 2, size=size)
    return np.clip(np.nextafter(cut, cut + shift), 0.0, 1.0)


def scan_or_none(rule, summaries, i):
    try:
        return _r_min_scan(rule, summaries, i)
    except UnsupportedRuleError:
        return None


class TestBatchedScan:
    """The batched GlobalNullTest scan against the per-candidate loop."""

    def _seeded_cases(self, seed):
        rng = np.random.default_rng(seed)
        for combiner in COMBINERS:
            for kind in SCAN_KINDS:
                for m in (int(rng.integers(1, 13)), int(rng.integers(13, 40)), 40):
                    n = int(rng.integers(1, 5))
                    pvals = rng.uniform(size=(m, n)) ** rng.uniform(1.0, 6.0)
                    pvals[rng.uniform(size=pvals.shape) < 0.1] = 0.0
                    pvals[rng.uniform(size=pvals.shape) < 0.1] = 1.0
                    crit = tuple(np.sort(rng.choice(rng.uniform(0, 0.6, m), m)))
                    level = float(rng.uniform(0.05, 0.6))
                    k = int(rng.integers(1, m + 1))
                    rule = scan_rule(combiner, kind, level, k, crit)
                    summaries = rule.summaries(PValueEnsemble(pvals))
                    # ties with other families and summaries of exactly 0 and 1
                    tied = rng.uniform(size=m) < 0.3
                    summaries[tied] = rng.choice(summaries, size=int(tied.sum()))
                    summaries[rng.uniform(size=m) < 0.1] = 0.0
                    summaries[rng.uniform(size=m) < 0.1] = 1.0
                    on_cutoff = rng.uniform(size=m) < 0.4
                    summaries[on_cutoff] = two_stage_cutoffs(
                        level, m, rng, int(on_cutoff.sum())
                    )
                    families = rng.choice(m, size=min(m, 3), replace=False)
                    yield rule, summaries, families

    def test_matches_loop_on_seeded_cases(self):
        selected = 0
        for rule, summaries, families in self._seeded_cases(2024):
            for i in families:
                scan = scan_or_none(rule, summaries, int(i))
                assert scan == _looped_r_min(rule, summaries, int(i)), (rule, i)
                selected += scan is not None
        assert selected > 250

    def test_two_stage_matches_loop_near_its_cutoffs(self):
        # Summaries spread over (0, 3q') make stage two's cutoffs decide
        # R_min for some families, which uniform summaries rarely do.
        rng = np.random.default_rng(11)
        for case in range(100):
            m = int(rng.integers(2, 16))
            level = float(rng.uniform(0.05, 0.6))
            rule = GlobalNullTest(COMBINERS[case % 4], Procedure("two_stage"), level)
            summaries = rng.uniform(0.0, 3.0 * level / (1.0 + level), size=m)
            for i in range(m):
                assert scan_or_none(rule, summaries, i) == _looped_r_min(
                    rule, summaries, i
                ), (case, i)

    def test_small_blocks_give_the_same_answer(self, monkeypatch):
        cases = list(self._seeded_cases(7))
        expected = [
            [scan_or_none(rule, s, int(i)) for i in fams] for rule, s, fams in cases
        ]
        monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", 50)
        for (rule, s, fams), want in zip(cases, expected):
            assert [scan_or_none(rule, s, int(i)) for i in fams] == want

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.01, 0.02]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(SCAN_KINDS),
        st.floats(0.01, 0.9),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_matches_loop_property(self, values, kind, level, seed, data):
        summaries = np.array(values)
        m = summaries.size
        rng = np.random.default_rng(seed)
        on_cutoff = rng.uniform(size=m) < 0.5
        summaries[on_cutoff] = two_stage_cutoffs(
            level, m, rng, int(on_cutoff.sum())
        )
        k = data.draw(st.integers(1, m))
        crit = tuple(
            sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        )
        rule = scan_rule("simes", kind, level, k, crit)
        for i in range(m):
            assert scan_or_none(rule, summaries, i) == _looped_r_min(rule, summaries, i)

    def test_outcome_only_at_an_exact_cutoff(self):
        # Family 0 is selected with one other family only at exactly the
        # stage-two cutoff 2 * ((q' * 5 / 5) / 5), one ulp above 2 * q' / 5
        # because q' * 5 / 5 rounds up; one ulp lower the count is 3, one ulp
        # higher family 0 drops out.
        rule = GlobalNullTest(
            "fisher", Procedure("two_stage"), level=0.319671458930628
        )
        summaries = np.array(
            [
                0.7704611920444101,
                0.45658735613543766,
                0.4271714423304889,
                0.05864103097795368,
                0.23208717823845054,
            ]
        )
        assert _r_min_scan(rule, summaries, 0) == 2
        work = summaries.copy()
        work[0] = 0.09689425554135059
        assert rule.select_from_summaries(work).tolist() == [0, 3]


def looped_check_simple(rule, ensemble, i, trials, seed=0):
    """check_simple one trial at a time, as it ran before it ran in blocks."""
    rng = np.random.default_rng(seed)
    summaries = rule.summaries(ensemble)
    picked = rule.select_from_summaries(summaries)
    if not (picked == i).any():
        raise ValueError(f"family {i} is not selected")
    r_observed = int(picked.size)
    work = summaries.copy()
    for t in range(trials):
        replacement = rng.uniform(size=ensemble.size(i))
        work[i] = rule.summary_of(replacement)
        picked = rule.select_from_summaries(work)
        if (picked == i).any() and picked.size != r_observed:
            return (True, r_observed, int(picked.size), replacement.tobytes(), t + 1)
    return (False, r_observed, None, None, trials)


def report_tuple(report):
    replacement = None if report.replacement is None else report.replacement.tobytes()
    return (
        report.witness_found,
        report.r_observed,
        report.r_witness,
        replacement,
        report.trials,
    )


class TestCheckSimple:
    def test_min_p_has_no_witness(self):
        ens = PValueEnsemble(np.random.default_rng(3).uniform(size=(5, 3)))
        rule = MinPThreshold(0.9)
        for i in sorted(select(rule, ens).selected):
            assert not check_simple(rule, ens, i, 500, seed=9).witness_found

    def test_step_up_selection_has_no_witness(self):
        ens = PValueEnsemble(np.random.default_rng(4).uniform(size=(5, 3)) ** 2)
        rule = GlobalNullTest("simes", Procedure("bh"), level=0.3)
        out = select(rule, ens)
        assert out.r > 0
        for i in sorted(out.selected):
            assert not check_simple(rule, ens, i, 500, seed=9).witness_found

    def test_two_stage_witness_found(self):
        report = check_simple(TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE, 1, 10**4, seed=5)
        assert report.witness_found
        assert (report.r_observed, report.r_witness) == (3, 2)
        # the witness replacement indeed reproduces the count change
        witness = TWO_STAGE_ENSEMBLE.families.copy()
        witness[1] = report.replacement
        out = select(TWO_STAGE_RULE, PValueEnsemble(witness))
        assert 1 in out.selected and out.r == 2
        # the blocked trials find the witness the per-trial loop finds
        assert report_tuple(report) == looped_check_simple(
            TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE, 1, 10**4, seed=5
        )

    def test_requires_selected_family(self):
        ens = singleton_ensemble([0.001, 0.9])
        with pytest.raises(ValueError, match="not selected"):
            check_simple(MinPThreshold(0.05), ens, 1, 10)


class TestCheckSimpleBlocks:
    """check_simple in blocks against the per-trial loop."""

    def _cases(self):
        rng = np.random.default_rng(77)
        rules = [MinPThreshold(0.3), TopKMinP(2)] + [
            GlobalNullTest(combiner, Procedure(kind), level=0.3)
            for combiner in COMBINERS
            for kind in ("bh", "two_stage", "holm")
        ]
        for rule in rules:
            for _ in range(3):
                m = int(rng.integers(2, 7))
                sizes = rng.integers(1, 5, size=m)
                if rng.uniform() < 0.5:
                    sizes[:] = sizes[0]
                ens = PValueEnsemble(
                    [rng.uniform(size=int(n)) ** 3 for n in sizes]
                )
                for i in sorted(select(rule, ens).selected):
                    yield rule, ens, i, int(rng.integers(0, 2**32))

    def test_matches_the_trial_loop(self, monkeypatch):
        # 50-cell blocks split every run into several blocks
        monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", 50)
        witnesses = checked = 0
        for rule, ens, i, seed in self._cases():
            got = report_tuple(check_simple(rule, ens, i, 300, seed=seed))
            assert got == looped_check_simple(rule, ens, i, 300, seed=seed)
            witnesses += got[0]
            checked += 1
        assert checked > 30 and witnesses > 0

    def test_rule_without_blocks_uses_the_loop(self):
        class ThresholdRule:
            """A min-p rule without block methods, which is not simple."""

            def summaries(self, ensemble):
                return ensemble.min_p()

            def summary_of(self, pvalues):
                return float(np.min(pvalues))

            def select_from_summaries(self, summaries):
                # drops the last selected family whenever family 0's summary is small
                picked = np.flatnonzero(summaries <= 0.5)
                return picked[:-1] if summaries[0] < 0.1 and picked.size > 1 else picked

        ens = PValueEnsemble([[0.3], [0.2], [0.4]])
        rule = ThresholdRule()
        got = report_tuple(check_simple(rule, ens, 0, 200, seed=3))
        assert got == looped_check_simple(rule, ens, 0, 200, seed=3)
        assert got[0]


class TestCheckConcordant:
    def test_concordant_rules_have_no_witness(self):
        ens = PValueEnsemble(np.random.default_rng(8).uniform(size=(5, 3)) ** 2)
        for rule in (
            MinPThreshold(0.3),
            TopKMinP(3),
            GlobalNullTest("simes", Procedure("bh"), level=0.3),
            GlobalNullTest("bonferroni_min", Procedure("holm"), level=0.3),
        ):
            report = check_concordant(rule, ens, 300, seed=11)
            assert not report.witness_found, rule

    def test_discordant_rule_is_caught(self):
        class PanicRule:
            """Selects everything once any summary looks large."""

            is_simple = False

            def summaries(self, ensemble):
                return ensemble.min_p()

            def summary_of(self, pvalues):
                return float(np.min(pvalues))

            def select_from_summaries(self, summaries):
                if (summaries >= 0.9).any():
                    return np.arange(summaries.size)
                return np.flatnonzero(summaries <= 0.1)

            def summary_thresholds(self, m):
                return np.array([0.1, 0.9])

        ens = PValueEnsemble([[0.05], [0.5], [0.5], [0.5]])
        report = check_concordant(PanicRule(), ens, 400, seed=2)
        assert report.witness_found
        assert report.r_min_after > report.r_min_before


class TestCombinerValidity:
    """Combined values are valid p-values under the all-null ensemble."""

    @pytest.mark.parametrize("kind", ["bonferroni_min", "simes", "fisher", "stouffer"])
    def test_uniform_dominance(self, kind):
        rng = np.random.default_rng(99)
        rows = rng.uniform(size=(20000, 5))
        values = combined_pvalues(kind, PValueEnsemble(rows))
        for alpha in (0.01, 0.05, 0.1):
            hit = (values <= alpha).astype(float)
            se = hit.std(ddof=1) / np.sqrt(hit.size)
            assert hit.mean() <= alpha + 3 * se
