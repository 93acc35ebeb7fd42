import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import textbook
from rmin_oracle import (
    bisect_r_min_scan,
    candidate_r_min,
    candidates,
    oracle_r_min_scan,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from famsel import core, procedures, selection
from famsel.adjust import (
    iterative_simple_adjusted,
    selection_adjusted,
    simple_selection_adjusted,
    unadjusted_analysis,
)
from famsel.core import ErrorMetric, PValueEnsemble
from famsel.procedures import Procedure
from famsel.selection import (
    COMBINERS,
    GlobalNullTest,
    MinPThreshold,
    TopKMinP,
    UnsupportedRuleError,
    _r_min_scan,
    check_concordant,
    check_simple,
    combine,
    combined_pvalues,
    r_min,
    select,
)
from famsel.sim import ScenarioConfig, estimate

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

    @pytest.mark.parametrize("floor", [math.nan, 0.0, -1e-300, 1.0, 2.0])
    def test_floor_outside_unit_interval_is_refused(self, floor):
        # unchecked, a NaN floor makes every Fisher summary NaN, so that
        # select returns nothing, and floor 1 makes every summary 1
        ensemble = PValueEnsemble([[1e-6, 0.5], [0.3, 0.9]])
        for kind in COMBINERS:
            with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\)"):
                combine(kind, [0.1, 0.2], floor=floor)
            with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\)"):
                combined_pvalues(kind, ensemble, floor=floor)
            with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\)"):
                GlobalNullTest(kind, Procedure("bh"), 0.05, floor=floor)

    def test_nested_pvalues_are_read_flat(self):
        # as Procedure.apply reads them, so a (1, n) array is one family
        rules = (MinPThreshold(0.05), GlobalNullTest("simes", Procedure("bh"), 0.05))
        for kind in COMBINERS:
            assert combine(kind, [[0.1, 0.2]]) == combine(kind, [0.1, 0.2])
        for rule in rules:
            assert rule.summary_of([[0.1, 0.2]]) == rule.summary_of([0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine("simes", [])

    @pytest.mark.parametrize("kind", COMBINERS)
    def test_pvalues_outside_unit_interval_rejected(self, kind):
        for pvalues in ([-1.0], [2.0, 0.5], [math.nan], [0.1, 1.0 + 1e-12]):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                combine(kind, pvalues)

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
            # from the caller's sorted rows, as a Monte Carlo block passes them
            rule = GlobalNullTest("simes", Procedure("bh"), 0.1)
            block = rows.reshape(3, 100, n)
            assert rule.ranks_rows
            from_ranked = rule.block_summaries(block, ranked)
            assert from_ranked.tobytes() == want.reshape(3, 100).tobytes()

    def test_signed_zeros_keep_np_sort_bits(self):
        # 3,000 families of 5 holding 0.0, -0.0 and ties, enough rows for
        # the network's side of `core._sorted_columns`, which would give a
        # row's zeros one sign and flip some Simes values' signs: every
        # combined p-value keeps the bits of the one np.sort's rows give
        rng = np.random.default_rng(47)
        pool = np.array([0.0, -0.0, 0.01, 0.01, 0.3])
        shape = (3000, 5)
        tied = rng.choice(pool, size=shape)
        rows = np.where(rng.uniform(size=shape) < 0.7, tied, rng.uniform(size=shape))
        assert len(rows) >= core._NETWORK_ROWS[5]
        ens = PValueEnsemble(rows)
        ranked, floor = np.sort(rows, axis=1), selection.DEFAULT_P_FLOOR
        for kind in COMBINERS:
            want = selection._combine_rows(kind, rows, floor, ranked)
            rule = GlobalNullTest(kind, Procedure("bh"), 0.1)
            assert combined_pvalues(kind, ens).tobytes() == want.tobytes(), kind
            each = np.array([combine(kind, row) for row in rows])
            assert each.tobytes() == want.tobytes(), kind
            summaries = np.array([summary_of(rule, row) for row in rows])
            assert summaries.tobytes() == want.tobytes(), kind
            signs = np.signbit(want[want == 0.0])
            assert kind != "simes" or 0 < signs.sum() < signs.size

    def test_row_chunks_and_running_minima_change_no_bit(self, monkeypatch):
        # with _CHUNK_CELLS at 64 every combiner below runs in chunks of a
        # few rows, and every minimum over fewer than 32 columns as a
        # running np.minimum, which the default runs on a copy in one piece
        rng = np.random.default_rng(37)
        simes = GlobalNullTest("simes", Procedure("bh"), 0.1)
        for n in (1, 2, 5, 6, 12, 31, 32, 40):
            rows = rng.uniform(size=(300, n)) ** 4
            rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
            block = rows.reshape(3, 100, n)
            # first-axis memory, as a Monte Carlo block passes sorted rows
            ranked = np.ascontiguousarray(np.sort(rows, axis=1).T).T
            got = []
            for cells in (1 << 30, 64):
                monkeypatch.setattr(core, "_CHUNK_CELLS", cells)
                floor = selection.DEFAULT_P_FLOOR
                got.append(
                    [selection._combine_rows(k, rows, floor) for k in COMBINERS]
                    + [simes.block_summaries(block, ranked)]
                    + [MinPThreshold(0.1).block_summaries(block)]
                )
            assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in got[1]], n

    @pytest.mark.parametrize(
        "kind, row",
        [
            ("fisher", [0.652, 0.235, 0.435, 0.974, 0.898]),
            ("stouffer", [0.719, 0.02, 0.225, 0.948, 0.698]),
        ],
    )
    def test_sums_read_rows_in_their_given_order(self, kind, row):
        # these rows sum to a different last bit in sorted order, so a
        # combiner that read the caller's sorted rows would change its value
        row = np.array(row)
        given = combine(kind, row)
        assert given != combine(kind, np.sort(row))
        rule = GlobalNullTest(kind, Procedure("bh"), 0.1)
        assert not rule.ranks_rows
        got = rule.block_summaries(row[None, None], np.sort(row)[None])
        assert got.tobytes() == np.array([[given]]).tobytes()


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

    def test_top_k_takes_an_integer_k(self):
        for k in (2.5, np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                TopKMinP(k)
        ens = PValueEnsemble([[0.3], [0.01], [0.02]])
        assert select(TopKMinP(np.int64(2)), ens).selected == {1, 2}

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
    """The GlobalNullTest scan against every candidate summary value."""

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
                assert scan == candidate_r_min(rule, summaries, int(i)), (rule, i)
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
                assert scan_or_none(rule, summaries, i) == candidate_r_min(
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
            assert scan_or_none(rule, summaries, i) == candidate_r_min(
                rule, summaries, i
            )

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


def oracle_or_none(rule, summaries, i):
    try:
        return oracle_r_min_scan(rule, summaries, i)
    except UnsupportedRuleError:
        return None


def two_stage_bands(m, rng, level=0.1):
    """Two-stage summaries where R_min differs from R: m // 5 strong families
    pass both stages; m // 10 moderate ones lie between the stage-two
    cutoffs at rank m // 5 + m // 10 for null counts m - m // 5 + 1 and
    m - m // 5, so they stay selected only while every strong family passes
    stage one. The rest lie in (0.5, 1)."""
    q1 = level / (1.0 + level)
    a, b = m // 5, m // 10
    lo, hi = (a + b) * q1 / (m - a + 1), (a + b) * q1 / (m - a)
    summaries = rng.uniform(0.5, 1.0, size=m)
    summaries[:a] = rng.uniform(0.0, 1e-6, size=a)
    summaries[a : a + b] = rng.uniform(lo + (hi - lo) / 10, hi - (hi - lo) / 10, b)
    return summaries


class TestBoundaryScan:
    """The exact scan against the candidate scan, on every shipped rule."""

    def _seeded_cases(self, seed):
        rng = np.random.default_rng(seed)
        for combiner in COMBINERS:
            for kind in SCAN_KINDS:
                for m in (int(rng.integers(1, 13)), int(rng.integers(13, 60)), 150):
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
                    # families selected now and families not selected now
                    picked = rule.select_from_summaries(summaries)
                    others = np.setdiff1d(np.arange(m), picked)
                    families = np.concatenate(
                        [
                            rng.choice(picked, size=min(picked.size, 3), replace=False),
                            rng.choice(others, size=min(others.size, 3), replace=False),
                        ]
                    ).astype(np.intp)
                    yield rule, summaries, families, picked.size

    def test_matches_the_candidate_scan(self):
        unselected = moved = 0
        for rule, summaries, families, r in self._seeded_cases(808):
            want = [oracle_or_none(rule, summaries, int(i)) for i in families]
            got = [scan_or_none(rule, summaries, int(i)) for i in families]
            assert got == want, (rule, summaries.size, families)
            stack = np.tile(summaries, (families.size, 1))
            assert _r_min_scan(rule, stack, families).tolist() == want, rule
            picked = rule.select_from_summaries(summaries)
            unselected += int((~np.isin(families, picked)).sum())
            moved += sum(w != r for w in want)
        assert unselected > 200 and moved > 100

    def test_two_stage_bisects_inside_the_last_interval(self):
        # Summaries over (0, 3q') make many families stay selected just
        # above their last selecting stage-one cutoff, where R_min is stage
        # two's count at the null count A1 leaves.
        rng = np.random.default_rng(31)
        for case in range(60):
            m = int(rng.integers(2, 80))
            level = float(rng.uniform(0.05, 0.6))
            rule = GlobalNullTest(COMBINERS[case % 4], Procedure("two_stage"), level)
            summaries = rng.uniform(0.0, 3.0 * level / (1.0 + level), size=m)
            stack = np.tile(summaries, (m, 1))
            want = oracle_r_min_scan(rule, stack, np.arange(m))
            assert _r_min_scan(rule, stack, np.arange(m)).tolist() == want.tolist()

    def test_rows_of_a_stack_differ(self):
        # one (replicate, family) pair per row, as the Monte Carlo block has
        rng = np.random.default_rng(5)
        for case in range(40):
            m = int(rng.integers(1, 30))
            rule = scan_rule(
                COMBINERS[case % 4],
                SCAN_KINDS[case % 8],
                float(rng.uniform(0.05, 0.6)),
                int(rng.integers(1, m + 1)),
                tuple(np.sort(rng.uniform(0, 0.5, m))),
            )
            rows = rng.uniform(size=(50, m)) ** 3
            families = rng.integers(m, size=50)
            want = oracle_r_min_scan(rule, rows, families)
            assert _r_min_scan(rule, rows, families).tolist() == want.tolist()

    def test_pairs_name_their_row(self, monkeypatch):
        # each (row, family) pair scanned in its own row of a shared matrix,
        # as a Monte Carlo block passes them, and every family of one vector
        rng = np.random.default_rng(9)
        for case in range(16):
            m = int(rng.integers(1, 30))
            rule = scan_rule(
                COMBINERS[case % 4],
                SCAN_KINDS[case % 8],
                float(rng.uniform(0.05, 0.6)),
                int(rng.integers(1, m + 1)),
                tuple(np.sort(rng.uniform(0, 0.5, m))),
            )
            table = rng.uniform(size=(7, m)) ** 3
            rows, families = rng.integers(7, size=40), rng.integers(m, size=40)
            want = oracle_r_min_scan(rule, table[rows], families).tolist()
            assert oracle_r_min_scan(rule, table, families, rows).tolist() == want
            one = oracle_r_min_scan(rule, np.tile(table[0], (m, 1)), np.arange(m))
            for cells in (None, 50):  # a few pairs per block at 50 cells
                with monkeypatch.context() as patch:
                    if cells is not None:
                        patch.setattr(selection, "_SCAN_BLOCK_CELLS", cells)
                    got = _r_min_scan(rule, table, families, rows)
                    assert got.tolist() == want
                    got = _r_min_scan(rule, table[0], np.arange(m))
                    assert got.tolist() == one.tolist()

    def test_errors_match_the_candidate_scan(self):
        # step_up with one critical value too few fails in the kernel, and a
        # rule that never selects a family fails on its first row
        rule = GlobalNullTest("simes", Procedure("step_up", critical_values=(0.1,)))
        summaries = np.array([0.01, 0.2])
        for scan in (_r_min_scan, oracle_r_min_scan):
            with pytest.raises(ValueError, match="one critical value per p-value"):
                scan(rule, summaries, 0)

        class FirstOnly(MinPThreshold):
            def select_block(self, summaries):
                return super().select_block(summaries) & (
                    np.arange(summaries.shape[1]) == 0
                )

        rows = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        for scan in (_r_min_scan, oracle_r_min_scan):
            with pytest.raises(UnsupportedRuleError, match="family 2 is never"):
                scan(FirstOnly(0.5), rows, np.array([0, 2]))
            assert scan(FirstOnly(0.5), rows, np.array([0, 0])).tolist() == [1, 1]

    def test_small_blocks_give_the_same_answer(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = []
        for case in range(16):
            m = int(rng.integers(1, 40))
            rule = scan_rule(
                COMBINERS[case % 4],
                ("two_stage", "bh", "lr_kfwer", "step_down")[case % 4],
                0.3,
                1,
                tuple(np.linspace(0.01, 0.3, m)),
            )
            rows = rng.uniform(0, 0.5, size=(30, m))
            cases.append((rule, rows, rng.integers(m, size=30)))
        want = [_r_min_scan(*case).tolist() for case in cases]
        monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", 50)
        assert [_r_min_scan(*case).tolist() for case in cases] == want
        assert want == [oracle_r_min_scan(*case).tolist() for case in cases]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.01, 0.02]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from(SCAN_KINDS),
        st.sampled_from(COMBINERS),
        st.floats(0.01, 0.9),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_selecting_candidates_form_a_prefix(
        self, values, kind, combiner, level, seed, data
    ):
        # Over the sorted breakpoints and the midpoints between them, the
        # values that keep family i selected come first and R never
        # increases, so R at the last selecting one is R_min; the same holds
        # for min-p thresholds, one of them at a summary, and for top-k.
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
        rules = [scan_rule(combiner, kind, level, k, crit)]
        rules += [MinPThreshold(level), TopKMinP(k)]
        if summaries.max() > 0.0:
            rules.append(MinPThreshold(float(summaries.max())))
        for rule in rules:
            points = np.sort(candidates(summaries, rule.summary_thresholds(m)))
            for i in range(m):
                work = np.tile(summaries, (points.size, 1))
                work[:, i] = points
                picked = rule.select_block(work)
                kept, r = picked[:, i], picked.sum(axis=1)
                last = int(kept.sum()) - 1
                assert kept[: last + 1].all() and not kept[last + 1 :].any()
                assert (np.diff(r) <= 0).all()
                if last < 0:  # top-k with k ties at 0 before family i
                    with pytest.raises(UnsupportedRuleError, match="never selected"):
                        _r_min_scan(rule, summaries, i)
                else:
                    assert _r_min_scan(rule, summaries, i) == r[last]

    def test_min_p_and_top_k_match_the_candidate_scan(self):
        # every family, with ties, summaries of 0 and 1, thresholds at a
        # summary, k = m, and top-k families that k ties at 0 with smaller
        # indices keep from ever being selected
        rng = np.random.default_rng(606)
        never = 0
        for case in range(300):
            m = int(rng.integers(1, 12))
            summaries = rng.uniform(size=m) ** 2
            summaries[rng.uniform(size=m) < 0.3] = 0.0
            summaries[rng.uniform(size=m) < 0.1] = 1.0
            tied = rng.uniform(size=m) < 0.3
            summaries[tied] = rng.choice(summaries, size=int(tied.sum()))
            t = summaries[rng.integers(m)] if case % 2 else rng.uniform(0.01, 1.0)
            rules = [TopKMinP(int(rng.integers(1, m + 1))), TopKMinP(m)]
            rules += [MinPThreshold(float(t))] if t > 0.0 else []
            for rule in rules:
                want = [oracle_or_none(rule, summaries, i) for i in range(m)]
                assert [scan_or_none(rule, summaries, i) for i in range(m)] == want
                stack, families = np.tile(summaries, (m, 1)), np.arange(m)
                if None in want:
                    never += 1
                    with pytest.raises(UnsupportedRuleError, match="never selected"):
                        _r_min_scan(rule, stack, families)
                else:
                    assert _r_min_scan(rule, stack, families).tolist() == want
        assert never > 50


def adversarial_two_stage(rng, m, level):
    """Two-stage summaries on the edges of both stages: stage one's cutoffs
    j*(q'/m) exactly and stage two's one ulp either way (`two_stage_cutoffs`),
    ties, 0 and 1, and in one case in five the k smallest on stage one's
    cutoffs exactly, so that moving any of them changes stage one's count."""
    stage_one = np.arange(1, m + 1) * (level / (1.0 + level) / m)
    summaries = rng.uniform(size=m) ** rng.uniform(1.0, 8.0)
    grid = two_stage_cutoffs(level, m, rng, m)
    grid = np.where(rng.uniform(size=m) < 0.3, rng.choice(stage_one, m), grid)
    on_grid = rng.uniform(size=m) < rng.uniform(0.3, 1.0)
    summaries[on_grid] = grid[on_grid]
    summaries[rng.uniform(size=m) < 0.1] = 0.0
    summaries[rng.uniform(size=m) < 0.1] = 1.0
    tied = rng.uniform(size=m) < 0.3
    summaries[tied] = rng.choice(summaries, size=int(tied.sum()))
    if rng.uniform() < 0.2:
        k = int(rng.integers(0, m + 1))
        summaries = np.sort(summaries)
        summaries[:k] = stage_one[:k]
        rng.shuffle(summaries)
    return np.clip(summaries, 0.0, 1.0)


class OwnSelectTwoStage(GlobalNullTest):
    """The two-stage rule with its own select_block, which also drops the
    last family: an override, so its R_min runs the candidate loop."""

    def select_block(self, summaries):
        kept = super().select_block(summaries)
        kept[:, -1] = False
        return kept


class TestTwoStageCounts:
    """The two-stage counts against the bisection they replaced and the
    candidate scan, seeded."""

    LEVELS = (0.05, 0.2, 0.5)

    def _rule(self, rng, case):
        level = self.LEVELS[case % 3] if case % 4 else float(rng.uniform(0.01, 0.9))
        return GlobalNullTest(COMBINERS[case % 4], Procedure("two_stage"), level)

    def test_small_m_matches_both_references(self):
        rng = np.random.default_rng(2201)
        moved = 0
        for case in range(150):
            m = int(rng.integers(1, 31))
            rule = self._rule(rng, case)
            summaries = adversarial_two_stage(rng, m, rule.level)
            families = np.arange(m)
            want = oracle_r_min_scan(rule, summaries, families).tolist()
            assert bisect_r_min_scan(rule, summaries, families).tolist() == want
            assert _r_min_scan(rule, summaries, families).tolist() == want, case
            i = int(rng.integers(m))
            assert _r_min_scan(rule, summaries, i) == want[i]
            # (B, m) rows, each pair naming its row, as a Monte Carlo block
            table = np.stack([summaries] + [adversarial_two_stage(rng, m, rule.level)])
            rows, fams = rng.integers(2, size=2 * m), rng.integers(m, size=2 * m)
            want = oracle_r_min_scan(rule, table, fams, rows).tolist()
            assert bisect_r_min_scan(rule, table, fams, rows).tolist() == want
            assert _r_min_scan(rule, table, fams, rows).tolist() == want, case
            picked = rule.select_from_summaries(summaries)
            moved += sum(w != picked.size for w in want)
        assert moved > 2000

    @pytest.mark.parametrize("m", [1000, 10_000])
    def test_large_m_matches_the_bisection(self, m):
        rng = np.random.default_rng(m)
        for case in range(4):
            rule = self._rule(rng, case)
            bands = two_stage_bands(m, rng, rule.level)
            table = np.stack([bands, adversarial_two_stage(rng, m, rule.level)])
            fams = np.concatenate(
                [rng.choice(m // 5, 10), m // 5 + rng.choice(m // 10, 10)]
            )
            fams = np.concatenate([fams, rng.choice(m, 20)])
            rows = rng.integers(2, size=fams.size)
            want = bisect_r_min_scan(rule, table, fams, rows).tolist()
            assert _r_min_scan(rule, table, fams, rows).tolist() == want, case
            want = bisect_r_min_scan(rule, bands, fams).tolist()
            assert _r_min_scan(rule, bands, fams).tolist() == want, case
            # the strong families drop to m // 5, the moderate ones keep R
            assert set(want[:20]) == {m // 5, m // 5 + m // 10}

    def test_select_block_override_runs_the_candidate_scan(self):
        rng = np.random.default_rng(2203)
        checked = 0
        for case in range(40):
            m = int(rng.integers(2, 16))
            level = self._rule(rng, case).level
            rule = OwnSelectTwoStage(COMBINERS[case % 4], Procedure("two_stage"), level)
            summaries = adversarial_two_stage(rng, m, level)
            for i in range(m):
                want = oracle_or_none(rule, summaries, i)
                assert scan_or_none(rule, summaries, i) == want, (case, i)
                checked += want is not None
            # the last family is never selected, whatever its summary
            assert scan_or_none(rule, summaries, m - 1) is None
        assert checked > 150


class TestScanWork:
    """The scan's rows and memory stay small at large m."""

    @pytest.mark.parametrize("m", [400, 1000])
    def test_two_stage_rows_per_family(self, monkeypatch, m):
        # a family's row is counted once at stage one's cutoffs and once at
        # each of at most two stage-two null counts: three rows per family
        rule = GlobalNullTest("simes", Procedure("two_stage"), level=0.1)
        summaries = two_stage_bands(m, np.random.default_rng(m))
        picked = rule.select_from_summaries(summaries)
        rows = []
        kernel = selection._moved_counts

        def counted(ps, cuts, at, j):
            rows.append(len(ps))
            return kernel(ps, cuts, at, j)

        monkeypatch.setattr(selection, "_moved_counts", counted)
        for i in picked[:: max(1, picked.size // 20)]:
            rows.clear()
            _r_min_scan(rule, summaries, int(i))
            assert 2 <= sum(rows) <= 3, (i, sum(rows))
        rows.clear()
        stack = np.broadcast_to(summaries, (picked.size, m))
        counts = _r_min_scan(rule, stack, picked)
        assert 2 * picked.size <= sum(rows) <= 3 * picked.size
        # the strong families drop to m // 5, the moderate ones keep R
        assert sorted(set(counts.tolist())) == [m // 5, picked.size]

    @pytest.mark.parametrize(
        "rule", [TopKMinP(50), MinPThreshold(0.05)], ids=lambda rule: rule.describe()
    )
    def test_min_p_and_top_k_rows_per_family(self, monkeypatch, rule):
        m = 1000
        summaries = np.random.default_rng(17).uniform(size=m) ** 2
        picked = rule.select_from_summaries(summaries)
        rows = []
        kernel = type(rule).select_block

        def counted(self, block):
            rows.append(len(block))
            return kernel(self, block)

        monkeypatch.setattr(type(rule), "select_block", counted)
        bound = 4 * math.ceil(math.log2(m))
        for i in picked[:: max(1, picked.size // 20)]:
            rows.clear()
            assert _r_min_scan(rule, summaries, int(i)) == picked.size
            assert sum(rows) <= bound, (i, sum(rows))
        rows.clear()
        stack = np.broadcast_to(summaries, (picked.size, m))
        assert (_r_min_scan(rule, stack, picked) == picked.size).all()
        assert sum(rows) <= bound * picked.size

    def test_memory_of_one_scan_is_bounded(self):
        m = 2000
        rule = GlobalNullTest("simes", Procedure("two_stage"), level=0.1)
        summaries = two_stage_bands(m, np.random.default_rng(3))
        picked = rule.select_from_summaries(summaries)
        assert picked.size >= 300
        stack = np.broadcast_to(summaries, (picked.size, m))
        tracemalloc.start()
        try:
            counts = _r_min_scan(rule, stack, picked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (families, m) float64 stack alone would be 9.6 MB, and the
        # candidate rows of one family 32 MB
        assert peak < 16e6
        assert sorted(set(counts.tolist())) == [m // 5, picked.size]

    def test_two_stage_work_does_not_grow_with_m(self, monkeypatch):
        # every selected family in one scan of one summary vector, as an
        # analysis makes it; the bisection passed 7,500 rows to the kernel
        # at m = 10^3 and 99,000 at m = 10^4
        rule = GlobalNullTest("simes", Procedure("two_stage"), level=0.1)
        rows = []
        kernel, select = procedures.rejection_counts, GlobalNullTest.select_block

        def counted_kernel(procedure, ps, levels=None):
            rows.append(len(ps))
            return kernel(procedure, ps, levels)

        def counted_select(self, block):
            rows.append(len(block))
            return select(self, block)

        work = {}
        for m in (1000, 10_000):
            summaries = two_stage_bands(m, np.random.default_rng(m))
            picked = rule.select_from_summaries(summaries)
            with monkeypatch.context() as patch:
                patch.setattr(procedures, "rejection_counts", counted_kernel)
                patch.setattr(GlobalNullTest, "select_block", counted_select)
                rows.clear()
                tracemalloc.start()
                try:
                    counts = _r_min_scan(rule, summaries, picked)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            work[m] = sum(rows)
            assert peak < 16e6
            assert sorted(set(counts.tolist())) == [m // 5, picked.size]
        assert work[10_000] == work[1000] <= 4


def summary_of(rule, pvalues):
    """One family's summary, as a block of one ensemble of one family."""
    return rule.block_summaries(np.asarray(pvalues)[None, None, :])[0, 0]


def family_summaries(rule, ensemble):
    return np.array([summary_of(rule, f) for f in ensemble.families])


def selected_by(rule, summaries):
    """The families one summary vector selects, as a block of one row."""
    return np.flatnonzero(rule.select_block(summaries[None, :])[0])


def looped_check_simple(rule, ensemble, i, trials, seed=0):
    """check_simple one trial at a time, as it ran before it ran in blocks."""
    rng = np.random.default_rng(seed)
    summaries = family_summaries(rule, ensemble)
    picked = selected_by(rule, summaries)
    if not (picked == i).any():
        raise ValueError(f"family {i} is not selected")
    r_observed = int(picked.size)
    work = summaries.copy()
    for t in range(trials):
        replacement = rng.uniform(size=ensemble.size(i))
        work[i] = summary_of(rule, replacement)
        picked = selected_by(rule, work)
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

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_simple(TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE, 1, trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_concordant(TWO_STAGE_RULE, TWO_STAGE_ENSEMBLE, trials)


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

    @pytest.fixture(scope="class")
    def looped(self):
        """The per-trial loop's outcome of each case, run once for every schedule."""
        cases = self._cases()
        return [looped_check_simple(r, e, i, 300, seed=s) for r, e, i, s in cases]

    @pytest.mark.parametrize("first", [1, 5])
    def test_matches_the_trial_loop(self, monkeypatch, looped, first):
        # 50-cell blocks of 1, 2, 4, ... or 5, 10, ... trials split every
        # run into several blocks
        monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", 50)
        monkeypatch.setattr(selection, "_FIRST_TRIAL_BLOCK", first)
        witnesses = checked = 0
        for (rule, ens, i, seed), want in zip(self._cases(), looped, strict=True):
            got = report_tuple(check_simple(rule, ens, i, 300, seed=seed))
            assert got == want
            witnesses += got[0]
            checked += 1
        assert checked > 30 and witnesses > 0

    def test_rule_without_blocks_uses_the_loop(self):
        class ThresholdRule:
            """A min-p rule outside `_BlockSelection`, which is not simple."""

            def block_summaries(self, p):
                return p.min(axis=2)

            def select_block(self, summaries):
                # drops the last selected family whenever family 0's summary is small
                mask = summaries <= 0.5
                last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
                drop = (summaries[:, 0] < 0.1) & (mask.sum(axis=1) > 1)
                mask[np.flatnonzero(drop), last[drop]] = False
                return mask

        ens = PValueEnsemble([[0.3], [0.2], [0.4]])
        rule = ThresholdRule()
        got = report_tuple(check_simple(rule, ens, 0, 200, seed=3))
        assert got == looped_check_simple(rule, ens, 0, 200, seed=3)
        assert got[0]


class PanicRule:
    """Selects everything once any summary looks large. It is not a
    `_BlockSelection`, so its R_min runs the candidate loop."""

    is_simple = False

    def block_summaries(self, p):
        return p.min(axis=2)

    def select_block(self, summaries):
        return (summaries >= 0.9).any(axis=1, keepdims=True) | (summaries <= 0.1)

    def summary_thresholds(self, m):
        return np.array([0.1, 0.9])


class SwitchRule(PanicRule):
    """Selects nothing once two summaries are large and everything once one
    is very large, so bumps give both witnesses and families that no
    summary value selects."""

    def select_block(self, summaries):
        picked = (summaries >= 0.9).any(axis=1, keepdims=True) | (summaries <= 0.3)
        return picked & ((summaries >= 0.8).sum(axis=1, keepdims=True) < 2)

    def summary_thresholds(self, m):
        return np.array([0.3, 0.8, 0.9])


def looped_check_concordant(rule, ensemble, trials, seed=0):
    """check_concordant one trial at a time, with R_min from the candidate
    scan. Trial t reads its own 1 + m + N words of the seed's stream, N the
    number of p-values: word 0 picks the family i, word 1 + j is family j's
    coin, and the last N words hold one uniform per p-value, family after
    family; a raised family's p-values move to p + u * (1 - p)."""
    rng = np.random.default_rng(seed)
    summaries = family_summaries(rule, ensemble)
    m, families = ensemble.m, ensemble.families
    for t in range(trials):
        words = rng.random(1 + m + sum(p.size for p in families))
        i = min(int(words[0] * m), m - 1)
        before = oracle_r_min_scan(rule, summaries, i)
        others = [j for j in range(m) if j != i]
        chosen = [j for j in others if words[1 + j] < 0.5] or others[:1]
        bumped, at = summaries.copy(), 1 + m
        for j, p in enumerate(families):
            if j in chosen:
                u = words[at : at + p.size]
                bumped[j] = summary_of(rule, p + u * (1.0 - p))
            at += p.size
        after = oracle_r_min_scan(rule, bumped, i)
        if after > before:
            return (True, i, before, after, t + 1)
    return (False, None, None, None, trials)


def concordance_outcome(check, *args, **kwargs):
    try:
        report = check(*args, **kwargs)
    except UnsupportedRuleError as err:
        return ("error", str(err))
    if isinstance(report, tuple):
        return report
    return (
        report.witness_found,
        report.family,
        report.r_min_before,
        report.r_min_after,
        report.trials,
    )


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
        ens = PValueEnsemble([[0.05], [0.5], [0.5], [0.5]])
        report = check_concordant(PanicRule(), ens, 400, seed=2)
        assert report.witness_found
        assert report.r_min_after > report.r_min_before


class TestCheckConcordantBlocks:
    """check_concordant in blocks against the per-trial loop."""

    RULES = [MinPThreshold(0.3), TopKMinP(2), PanicRule()] + [
        GlobalNullTest(combiner, Procedure(kind), level=0.3)
        for combiner in COMBINERS
        for kind in ("bh", "two_stage", "holm")
    ]

    def _cases(self, rules, count):
        rng = np.random.default_rng(4242)
        for rule in rules:
            for _ in range(count):
                m = int(rng.integers(2, 7))
                sizes = rng.integers(1, 5, size=m)
                if rng.uniform() < 0.5:
                    sizes[:] = sizes[0]
                ens = PValueEnsemble(
                    [rng.uniform(size=int(n)) ** 3 for n in sizes]
                )
                yield rule, ens, int(rng.integers(0, 2**32))
            # where the two-stage rule's R_min rises (the CLI's first probe)
            q1 = 0.3 / 1.3
            probe = singleton_ensemble([q1 / 6.0, q1 / 2.0, 2.0 * q1])
            yield rule, probe, int(rng.integers(0, 2**32))

    @pytest.mark.parametrize("switch, cells", [(False, 50), (True, 50), (True, None)])
    def test_matches_the_trial_loop(self, monkeypatch, switch, cells):
        if cells is not None:
            # a few trials per block, so that runs cross block edges
            monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", cells)
        self.check_schedule(switch)

    @pytest.mark.parametrize("first, switch", [(1, False), (5, True)])
    def test_doubling_blocks_match_the_trial_loop(self, monkeypatch, first, switch):
        # blocks of 1, 2, 4, ... or 5, 10, 20, ... trials, up to the cap
        monkeypatch.setattr(selection, "_FIRST_TRIAL_BLOCK", first)
        self.check_schedule(switch)

    def check_schedule(self, switch):
        kinds = {"witness": 0, "none": 0, "error": 0}
        # SwitchRule meets errors, sometimes after a witness in one block
        rules, count = ([SwitchRule()], 20) if switch else (self.RULES, 3)
        for rule, ens, seed in self._cases(rules, count):
            got = concordance_outcome(check_concordant, rule, ens, 100, seed=seed)
            want = concordance_outcome(looped_check_concordant, rule, ens, 100, seed)
            assert got == want, (rule, seed)
            kind = "error" if got[0] == "error" else "witness" if got[0] else "none"
            kinds[kind] += 1
        assert kinds["witness"] >= 3 and kinds["error" if switch else "none"] >= 3


class TestConcordanceWork:
    """check_concordant's calls per block stay fixed, whatever the trials."""

    @pytest.mark.parametrize(
        "rule",
        [
            MinPThreshold(0.3),
            TopKMinP(2),
            GlobalNullTest("simes", Procedure("bh"), level=0.3),
        ],
        ids=lambda rule: rule.describe(),
    )
    def test_one_summary_and_one_scan_per_block(self, monkeypatch, rule):
        # the CLI's first probe at q = 0.3, where none of these rules has a witness
        q1 = 0.3 / 1.3
        probe = singleton_ensemble([q1 / 6.0, q1 / 2.0, 2.0 * q1])
        calls = {"blocks": 0, "trials": 0, "summarize": 0, "counts": 0}
        blocks, summarize = selection._trial_blocks, selection._summarize
        counts = selection._r_min_counts

        def counted_blocks(rng, trials, width, m):
            for first, words in blocks(rng, trials, width, m):
                calls["blocks"] += 1
                calls["trials"] += len(words)
                yield first, words

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(selection, "_trial_blocks", counted_blocks)
        monkeypatch.setattr(selection, "_summarize", counted("summarize", summarize))
        monkeypatch.setattr(selection, "_r_min_counts", counted("counts", counts))
        report = check_concordant(rule, probe, 10**4, seed=5)
        assert not report.witness_found and report.trials == 10**4
        assert calls["trials"] == 10**4
        # blocks of 16, 32, ... trials: 16 * (2**10 - 1) >= 10**4
        assert calls["blocks"] <= 10
        # one more summary for the ensemble, one more scan for R_min before
        assert calls["summarize"] == calls["blocks"] + 1
        assert calls["counts"] == calls["blocks"] + 1


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


class LowPanicRule(PanicRule):
    """Selects everything once any summary is very small, so that a family's
    R_min is not reached at its lowest summary values."""

    def select_block(self, summaries):
        return (summaries < 0.05).any(axis=1, keepdims=True) | (summaries <= 0.5)

    def summary_thresholds(self, m):
        return np.array([0.05, 0.5])


class RowOnlyRule:
    """A rule with summaries, select_from_summaries and summary_thresholds
    only: outside the rule protocol."""

    is_simple = True

    def summaries(self, ensemble):
        return ensemble.min_p()

    def select_from_summaries(self, summaries):
        return np.flatnonzero(summaries <= 0.5)

    def summary_thresholds(self, m):
        return np.array([0.5])


class TestRuleProtocol:
    def test_row_only_rule_refused_by_every_entry_point(self):
        rule, proc = RowOnlyRule(), Procedure("bh")
        ens = PValueEnsemble([[0.1, 0.6], [0.7, 0.8]])
        config = ScenarioConfig(
            m=2,
            n=2,
            q=0.1,
            rule=rule,
            procedure=proc,
            metric=ErrorMetric("fdr"),
            replicates=5,
        )
        calls = [
            lambda: select(rule, ens),
            lambda: simple_selection_adjusted(ens, rule, proc, 0.1),
            lambda: selection_adjusted(ens, rule, proc, 0.1),
            lambda: unadjusted_analysis(ens, rule, proc, 0.1),
            lambda: iterative_simple_adjusted(ens, rule, proc, 0.1),
            lambda: r_min(rule, ens, 0),
            lambda: check_simple(rule, ens, 0, 10),
            lambda: check_concordant(rule, ens, 10),
            lambda: _r_min_scan(rule, np.array([0.1, 0.7]), 0),
            lambda: estimate(config),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(UnsupportedRuleError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {
            "famsel needs a rule with block_summaries and select_block"
        }

    @pytest.mark.parametrize("cells", [None, 1])
    def test_rule_outside_block_selection_matches_the_candidate_scan(
        self, monkeypatch, cells
    ):
        if cells is not None:
            # one candidate per select_block call
            monkeypatch.setattr(selection, "_SCAN_BLOCK_CELLS", cells)
        rng = np.random.default_rng(31)
        found = set()
        for rule in (PanicRule(), SwitchRule(), LowPanicRule()):
            for _ in range(60):
                m = int(rng.integers(1, 8))
                # values on each side of the rules' cutoffs, and anywhere
                summaries = rng.choice([0.01, 0.05, 0.2, 0.5, 0.85, 0.95, 1.0], size=m)
                anywhere = rng.uniform(size=m) < 0.3
                summaries[anywhere] = rng.uniform(size=anywhere.sum())
                i = int(rng.integers(m))
                got = scan_or_none(rule, summaries, i)
                assert got == oracle_or_none(rule, summaries, i), (rule, summaries, i)
                r = selected_by(rule, summaries).size
                found.add("never" if got is None else "below R" if got < r else "R")
        assert found == {"never", "below R", "R"}

