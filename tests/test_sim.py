import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from famsel import sim
from famsel.core import ErrorMetric
from famsel.procedures import Procedure
from famsel.selection import COMBINERS, GlobalNullTest, MinPThreshold, TopKMinP
from famsel.sim import (
    ScenarioConfig,
    _replicate_values,
    _ReplicateStreams,
    closed_form_example1,
    estimate,
    generate,
    prds_control_check,
)


def example1_config(m, n, reps, seed=0, adjustment="none"):
    return ScenarioConfig(
        m=m,
        n=n,
        q=0.05,
        rule=MinPThreshold(0.05),
        procedure=Procedure("bonferroni"),
        metric=ErrorMetric("fwer"),
        replicates=reps,
        seed=seed,
        adjustment=adjustment,
    )


def reference_draw(config, idx):
    """One rectangular replicate from whole-array `uniform` and
    `standard_normal` calls on a fresh generator: the stream layout that
    every estimate's bits depend on."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, idx], dtype=np.uint64))
    )
    m, n = config.m, config.n
    k1 = int(round(config.pi1 * n))
    if config.dependence == "equicorrelated":
        z0 = rng.standard_normal()
        x = np.sqrt(config.rho) * z0 + np.sqrt(1.0 - config.rho) * rng.standard_normal(
            (m, n)
        )
        x[:, :k1] += config.mu
        return special.ndtr(-x)
    out = np.empty((m, n))
    out[:, k1:] = rng.uniform(size=(m, n - k1))
    out[:, :k1] = special.ndtr(-(rng.standard_normal((m, k1)) + config.mu))
    return out


class TestClosedForm:
    # (m, n) -> (E(C_S), E(|S|/m)) for the min-p / Bonferroni benchmark
    CASES = {
        (20, 100): (0.049, 0.99),
        (100, 20): (0.076, 0.64),
        (100, 10): (0.122, 0.40),
        (100, 2): (0.506, 0.1),
    }

    def test_reported_values(self):
        for (m, n), (e_cs, sel) in self.CASES.items():
            got_cs, got_sel = closed_form_example1(0.05, m, n)
            assert round(got_cs, 3) == pytest.approx(e_cs, abs=5e-4)
            decimals = len(str(sel).split(".")[1])
            assert round(got_sel, decimals) == pytest.approx(sel, abs=5e-4)

    def test_monotone_in_selection_stringency(self):
        values = [closed_form_example1(0.05, m, n)[0] for m, n in self.CASES]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_example1(0.0, 10, 10)
        with pytest.raises(ValueError):
            closed_form_example1(0.05, 0, 10)


class TestGenerate:
    def test_all_null_uniform(self):
        cfg = example1_config(200, 50, reps=1)
        pooled = np.concatenate(
            [generate(cfg, k).rect.ravel() for k in range(10)]
        )
        assert pooled.size == 10**5
        stat = stats.kstest(pooled, "uniform").statistic
        assert stat < 1.628 / np.sqrt(pooled.size)  # 1% critical value

    def test_truth_mask_layout(self):
        cfg = ScenarioConfig(
            m=4,
            n=10,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=1,
            pi1=0.3,
            mu=2.0,
        )
        ens = generate(cfg, 0)
        expected = [False] * 3 + [True] * 7
        for i in range(4):
            assert ens.truth_family(i).tolist() == expected

    def test_signal_power(self):
        # P(p <= 0.05) for a one-sided shift of 3 equals Phi(3 - z_0.95)
        cfg = ScenarioConfig(
            m=1,
            n=1,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=1,
            pi1=1.0,
            mu=3.0,
        )
        draws = np.array(
            [generate(cfg, k).rect[0, 0] for k in range(40000)]
        )
        oracle = special.ndtr(3.0 - special.ndtri(0.95))
        hit = (draws <= 0.05).astype(float)
        se = hit.std(ddof=1) / np.sqrt(hit.size)
        assert hit.mean() == pytest.approx(oracle, abs=3 * se)

    def test_equicorrelated_zero_rho_moments(self):
        # rho = 0 must reproduce the independent distribution; check the
        # first two moments of the latent normal scores
        cfg = ScenarioConfig(
            m=100,
            n=20,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=1,
            dependence="equicorrelated",
            rho=0.0,
        )
        p = np.concatenate([generate(cfg, k).rect.ravel() for k in range(10)])
        z = special.ndtri(1.0 - p)
        assert z.mean() == pytest.approx(0.0, abs=3.0 / np.sqrt(z.size))
        assert z.var() == pytest.approx(1.0, abs=0.05)

    def test_equicorrelated_latent_correlation(self):
        cfg = ScenarioConfig(
            m=2,
            n=1,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=1,
            dependence="equicorrelated",
            rho=0.5,
        )
        z = np.array(
            [special.ndtri(1.0 - generate(cfg, k).rect.ravel()) for k in range(20000)]
        )
        corr = np.corrcoef(z.T)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.03)

    def test_deterministic_per_replicate(self):
        cfg = example1_config(10, 5, reps=1, seed=123)
        a = generate(cfg, 7).rect
        b = generate(cfg, 7).rect
        c = generate(cfg, 8).rect
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_streams_match_fresh_ones(self, seed):
        streams = _ReplicateStreams(seed)
        for idx in (0, 1, 2, 7, 2**32, 2**64 - 1):
            key = np.array([seed, idx], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            rekeyed = streams.rekey(idx)
            assert np.array_equal(rekeyed.random(5), fresh.random(5))
            assert np.array_equal(
                rekeyed.standard_normal(3), fresh.standard_normal(3)
            )
            # leave a cached 32-bit half and a part-used buffer behind: the
            # next rekey must clear both
            assert np.array_equal(
                rekeyed.integers(0, 2**32 - 1, size=3, dtype=np.uint32),
                fresh.integers(0, 2**32 - 1, size=3, dtype=np.uint32),
            )
            odd = rekeyed.random(out=np.empty(3))
            assert np.array_equal(odd, fresh.random(out=np.empty(3)))
        fresh = np.random.Generator(
            np.random.Philox(key=np.array([seed, 3], dtype=np.uint64))
        )
        assert np.array_equal(streams.rekey(3).random(9), fresh.random(9))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_block_draw_matches_generate(self, seed, monkeypatch):
        # the block path fills (B, m, n) arrays one C call per distribution
        # and replicate; every block must equal one generate() per replicate
        draw_rect = sim._draw_rect
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 40)
        for n in (1, 5):
            for pi1 in (0.0, 1.0 / 3.0, 1.0):
                for rho in (0.0, 0.6):
                    cfg = ScenarioConfig(
                        m=4,
                        n=n,
                        q=0.2,
                        rule=MinPThreshold(0.3),
                        procedure=Procedure("bh"),
                        metric=ErrorMetric("fdr"),
                        replicates=1,
                        seed=seed,
                        pi1=pi1,
                        mu=1.5,
                        dependence="equicorrelated" if rho else "independent",
                        rho=rho,
                    )
                    start, stop = 5, 19
                    expected = np.stack(
                        [generate(cfg, idx).rect for idx in range(start, stop)]
                    )
                    reference = [reference_draw(cfg, i) for i in range(start, stop)]
                    assert np.array_equal(expected, np.stack(reference))
                    blocks = []

                    def recording(config, rngs, out):
                        draw_rect(config, rngs, out)
                        blocks.append(out.copy())

                    monkeypatch.setattr(sim, "_draw_rect", recording)
                    _replicate_values(cfg, start, stop, fast=True)
                    monkeypatch.setattr(sim, "_draw_rect", draw_rect)
                    case = (n, pi1, rho)
                    assert len(blocks) == -(-(stop - start) // max(1, 40 // (4 * n)))
                    assert np.array_equal(np.concatenate(blocks), expected), case
                    # one direct call over the whole span
                    out = np.empty(expected.shape)
                    streams = _ReplicateStreams(seed)
                    draw_rect(cfg, map(streams.rekey, range(start, stop)), out)
                    assert np.array_equal(out, expected), case

    def test_seeds_above_2_63_key_their_own_streams(self):
        draws = {}
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 1):
            cfg = example1_config(3, 4, reps=1, seed=seed)
            rekeyed = _ReplicateStreams(seed).rekey(5)
            draws[seed] = generate(cfg, 5).rect
            assert np.array_equal(draws[seed], generate(cfg, 5, rng=rekeyed).rect)
        assert len({d.tobytes() for d in draws.values()}) == 4

    def test_broken_rekey_is_caught_at_construction(self, monkeypatch):
        rekey = _ReplicateStreams.rekey
        monkeypatch.setattr(
            _ReplicateStreams, "rekey", lambda self, idx: rekey(self, idx + 1)
        )
        with pytest.raises(RuntimeError, match="Philox"):
            _ReplicateStreams(3)

    def test_ragged_sizes(self):
        cfg = ScenarioConfig(
            m=3,
            n=[2, 5, 1],
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=1,
            pi1=0.5,
            mu=1.0,
        )
        ens = generate(cfg, 0)
        assert [ens.size(i) for i in range(3)] == [2, 5, 1]
        assert ens.truth_family(1).tolist() == [False, False, True, True, True]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            example1_config(0, 5, reps=1)
        with pytest.raises(ValueError):
            ScenarioConfig(
                m=2,
                n=2,
                q=0.05,
                rule=MinPThreshold(0.05),
                procedure=Procedure("bonferroni"),
                metric=ErrorMetric("fwer"),
                replicates=1,
                rho=1.0,
            )
        with pytest.raises(ValueError):
            ScenarioConfig(
                m=2,
                n=2,
                q=0.05,
                rule=MinPThreshold(0.05),
                procedure=Procedure("bonferroni"),
                metric=ErrorMetric("fwer"),
                replicates=0,
            )


class TestEstimate:
    def test_matches_closed_form_within_three_se(self):
        cfg = example1_config(100, 10, reps=20000, seed=11)
        est = estimate(cfg)
        e_cs, sel = closed_form_example1(0.05, 100, 10)
        assert abs(est.e_cs_hat - e_cs) <= 3 * est.se
        sel_se = np.sqrt(sel * (1 - sel) / (100 * cfg.replicates))
        assert abs(est.e_sel_frac_hat - sel) <= 4 * sel_se

    def test_adjusted_variant_is_controlled(self):
        cfg = example1_config(100, 2, reps=20000, seed=12, adjustment="simple")
        est = estimate(cfg)
        assert est.e_cs_hat <= 0.05 + 3 * est.se

    def test_large_family_limit_matches_closed_form(self):
        cfg = example1_config(10, 400, reps=5000, seed=13)
        est = estimate(cfg)
        e_cs, _ = closed_form_example1(0.05, 10, 400)
        assert abs(est.e_cs_hat - e_cs) <= 3 * est.se

    def test_repeatable(self):
        cfg = example1_config(20, 3, reps=500, seed=99)
        assert estimate(cfg) == estimate(cfg)

    def test_worker_count_does_not_change_bits(self):
        cfg = example1_config(20, 3, reps=301, seed=4)
        serial = estimate(cfg, workers=1)
        assert estimate(cfg, workers=2) == serial
        assert estimate(cfg, workers=5) == serial

    def test_fast_and_object_paths_agree_exactly(self, monkeypatch):
        rng = np.random.default_rng(31)
        rules = [
            MinPThreshold(0.2),
            TopKMinP(3),
            GlobalNullTest("simes", Procedure("bh"), 0.3),
            GlobalNullTest("fisher", Procedure("two_stage"), 0.3),
            GlobalNullTest("bonferroni_min", Procedure("holm"), 0.3),
            GlobalNullTest("stouffer", Procedure("hochberg"), 0.3),
            GlobalNullTest(
                "simes",
                Procedure("step_up", critical_values=(0.0, 0.05, 0.1, 0.2, 0.2, 0.4)),
            ),
            # selects nothing in most replicates
            MinPThreshold(1e-4),
        ]
        procedures = [
            Procedure("bonferroni"),
            Procedure("holm"),
            Procedure("hochberg"),
            Procedure("bh"),
            Procedure("two_stage"),
            Procedure("lr_kfwer", k=2),
        ]
        metrics = [
            ErrorMetric("pfer"),
            ErrorMetric("fwer"),
            ErrorMetric("fdr"),
            ErrorMetric("fdx", gamma=0.1),
            ErrorMetric("kfwer", k=2),
            ErrorMetric("kfdr", k=2),
        ]
        # a few replicates per block, so that spans cross block edges
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 100)
        for case in range(48):
            cfg = ScenarioConfig(
                m=6,
                n=5,
                q=0.2,
                rule=rules[case % 8],
                procedure=procedures[case // 8],
                metric=metrics[case % 6],
                replicates=25,
                seed=int(rng.integers(10**6)),
                pi1=0.4,
                mu=2.0,
                dependence=("independent", "equicorrelated")[(case // 3) % 2],
                rho=0.5 if (case // 3) % 2 else 0.0,
                adjustment=("simple", "rmin", "none")[case % 3],
            )
            # a span with start > 0, as one worker would run it
            start = (0, 7)[(case // 5) % 2]
            fast = _replicate_values(cfg, start, 25, fast=True)
            slow = _replicate_values(cfg, start, 25, fast=False)
            assert np.array_equal(fast[0], slow[0]), case
            assert np.array_equal(fast[1], slow[1]), case
            if rules[case % 8] is rules[7]:
                assert (fast[1] == 0.0).any()
        cfg = ScenarioConfig(
            m=3,
            n=4,
            q=0.1,
            rule=TopKMinP(4),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=5,
        )
        for fast in (True, False):
            with pytest.raises(ValueError, match="k=4 exceeds"):
                _replicate_values(cfg, 0, 5, fast=fast)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 6),
        rule_index=st.integers(0, 5),
        kind=st.sampled_from(sim._BATCH_KINDS),
        metric=st.sampled_from(
            [ErrorMetric("fwer"), ErrorMetric("fdr"), ErrorMetric("kfdr", k=2)]
        ),
        adjustment=st.sampled_from(sim.ADJUSTMENTS),
        pi1=st.sampled_from([0.0, 0.3, 1.0]),
        rho=st.sampled_from([0.0, 0.6]),
        seed=st.integers(0, 2**64 - 1),
        block_cells=st.integers(1, 200),
    )
    def test_block_and_object_paths_agree_property(
        self, m, n, rule_index, kind, metric, adjustment, pi1, rho, seed, block_cells
    ):
        if rule_index < 4:
            rule = GlobalNullTest(COMBINERS[rule_index], Procedure("two_stage"), 0.4)
        else:
            rule = (MinPThreshold(0.3), TopKMinP(min(m, 2)))[rule_index - 4]
        cfg = ScenarioConfig(
            m=m,
            n=n,
            q=0.2,
            rule=rule,
            procedure=Procedure(kind, k=1 if kind == "lr_kfwer" else None),
            metric=metric,
            replicates=12,
            seed=seed,
            pi1=pi1,
            mu=2.0,
            dependence="equicorrelated" if rho else "independent",
            rho=rho,
            adjustment=adjustment,
        )
        old_cells = sim._BLOCK_CELLS
        sim._BLOCK_CELLS = block_cells
        try:
            fast = _replicate_values(cfg, 3, 12, fast=True)
        finally:
            sim._BLOCK_CELLS = old_cells
        slow = _replicate_values(cfg, 3, 12, fast=False)
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_ragged_config_uses_object_path(self):
        cfg = ScenarioConfig(
            m=3,
            n=[2, 4, 3],
            q=0.1,
            rule=MinPThreshold(0.3),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=200,
            seed=5,
            adjustment="simple",
        )
        est = estimate(cfg)
        assert est.replicates == 200
        assert 0.0 <= est.e_cs_hat <= 1.0

    def test_single_replicate_has_zero_se(self):
        cfg = example1_config(5, 2, reps=1)
        assert estimate(cfg).se == 0.0


class TestPrdsControlCheck:
    def test_independent_reduction(self):
        cfg = ScenarioConfig(
            m=10,
            n=4,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("pfer"),
            replicates=5000,
            seed=3,
            dependence="equicorrelated",
            rho=0.0,
        )
        est = prds_control_check(cfg)
        assert est.e_cs_hat <= 0.05 + 3 * est.se

    def test_correlated_control(self):
        cfg = ScenarioConfig(
            m=10,
            n=4,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("pfer"),
            replicates=5000,
            seed=3,
            dependence="equicorrelated",
            rho=0.5,
        )
        est = prds_control_check(cfg)
        assert est.e_cs_hat <= 0.05 + 3 * est.se

    def test_rejects_other_procedures(self):
        cfg = ScenarioConfig(
            m=4,
            n=3,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("holm"),
            metric=ErrorMetric("fwer"),
            replicates=10,
            dependence="equicorrelated",
            rho=0.5,
        )
        with pytest.raises(ValueError, match="bonferroni or bh"):
            prds_control_check(cfg)

    def test_rejects_discordant_rule(self):
        class PanicRule:
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

        cfg = ScenarioConfig(
            m=6,
            n=1,
            q=0.05,
            rule=PanicRule(),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("pfer"),
            replicates=10,
            seed=8,
            dependence="equicorrelated",
            rho=0.25,
        )
        with pytest.raises(ValueError, match="concordance"):
            prds_control_check(cfg, concordance_trials=500)
