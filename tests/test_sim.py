import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from famsel import sim
from famsel.adjust import (
    selection_adjusted,
    simple_selection_adjusted,
    unadjusted_analysis,
)
from famsel.core import ErrorMetric, average_over_selected
from famsel.procedures import PROCEDURE_KINDS, Procedure
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
    """One replicate's (m, n_max) p-values, padded with +inf, from
    whole-array `uniform` and `standard_normal` calls on a fresh generator:
    the stream layout that every estimate's bits depend on. Equal sizes
    draw every family's nulls and then every family's non-null scores;
    mixed sizes draw family by family."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, idx], dtype=np.uint64))
    )
    sizes = config.sizes()
    m, n = config.m, max(sizes)
    root, spread = np.sqrt(config.rho), np.sqrt(1.0 - config.rho)
    equicorrelated = config.dependence == "equicorrelated"
    if equicorrelated:
        z0 = rng.standard_normal()
    if len(set(sizes)) == 1:
        k1 = int(round(config.pi1 * n))
        if equicorrelated:
            x = root * z0 + spread * rng.standard_normal((m, n))
            x[:, :k1] += config.mu
            return special.ndtr(-x)
        out = np.empty((m, n))
        out[:, k1:] = rng.uniform(size=(m, n - k1))
        out[:, :k1] = special.ndtr(-(rng.standard_normal((m, k1)) + config.mu))
        return out
    out = np.full((m, n), np.inf)
    for row, n_i in zip(out, sizes):
        k1 = int(round(config.pi1 * n_i))
        if equicorrelated:
            x = root * z0 + spread * rng.standard_normal(n_i)
            x[:k1] += config.mu
            row[:n_i] = special.ndtr(-x)
        else:
            row[k1:n_i] = rng.uniform(size=n_i - k1)
            row[:k1] = special.ndtr(-(rng.standard_normal(k1) + config.mu))
    return out


def padded(ensemble):
    """The ensemble's families as one (m, n_max) matrix padded with +inf."""
    out = np.full((ensemble.m, ensemble.sizes.max()), np.inf)
    for row, family in zip(out, ensemble.families):
        row[: family.size] = family
    return out


def padded_blocks(layout, blocks):
    """The (B, m, n_max) p-values, padded with +inf, of a block drawn as
    `layout.blocks(B)`."""
    out = np.full((len(blocks[0]), layout.sizes.size, layout.sizes.max()), np.inf)
    for (n, families), block in zip(layout.groups, blocks):
        out[:, families, :n] = block
    return out


def object_replicate(config, ens):
    """(C_S, |S|/m) through the full analysis objects: the per-replicate
    path the Monte Carlo blocks replaced, kept as their oracle."""
    rule, proc, q, metric = config.rule, config.procedure, config.q, config.metric
    if config.adjustment == "simple":
        analysis = simple_selection_adjusted(ens, rule, proc, q, metric=metric)
    elif config.adjustment == "rmin":
        analysis = selection_adjusted(ens, rule, proc, q, metric=metric)
    else:
        analysis = unadjusted_analysis(ens, rule, proc, q, metric=metric)
    c_s = average_over_selected(analysis.decisions, analysis.selection.r)
    return c_s, analysis.selection.r / ens.m


def object_values(config, start, stop):
    """`_replicate_values` through `generate` and `object_replicate`."""
    cs = np.empty(stop - start)
    frac = np.empty(stop - start)
    for idx in range(start, stop):
        cs[idx - start], frac[idx - start] = object_replicate(
            config, generate(config, idx)
        )
    return cs, frac


def values_or_error(run, *args):
    """The (C_S, |S|/m) arrays a run returns, or the error it raises."""
    try:
        cs, frac = run(*args)
    except ValueError as err:
        return ("error", type(err), str(err))
    return ("ok", cs.tobytes(), frac.tobytes())


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
        # the block path fills one (B, count, n) array per family size, one
        # C call per distribution and replicate, or per family when sizes
        # differ; every block must equal one generate() per replicate
        draw = sim._draw
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 40)
        for n in (1, 5, [2, 5, 1, 3], [1, 1, 2, 1]):
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
                        [padded(generate(cfg, idx)) for idx in range(start, stop)]
                    )
                    reference = [reference_draw(cfg, i) for i in range(start, stop)]
                    assert np.array_equal(expected, np.stack(reference))
                    drawn = []

                    def recording(config, layout, rngs, blocks):
                        draw(config, layout, rngs, blocks)
                        drawn.append(padded_blocks(layout, blocks))

                    monkeypatch.setattr(sim, "_draw", recording)
                    _replicate_values(cfg, start, stop)
                    monkeypatch.setattr(sim, "_draw", draw)
                    case = (n, pi1, rho)
                    step = max(1, 40 // sum(cfg.sizes()))
                    assert len(drawn) == -(-(stop - start) // step)
                    assert np.array_equal(np.concatenate(drawn), expected), case
                    # one direct call over the whole span
                    layout = sim._Layout(cfg)
                    blocks = layout.blocks(stop - start)
                    streams = _ReplicateStreams(seed)
                    draw(cfg, layout, map(streams.rekey, range(start, stop)), blocks)
                    assert np.array_equal(padded_blocks(layout, blocks), expected)

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
            # a level is always passed, so these fail once anything is selected
            Procedure("step_up", critical_values=(0.01, 0.05, 0.1, 0.2, 0.3)),
            Procedure("step_down", critical_values=(0.01, 0.05, 0.1, 0.2, 0.3)),
        ]
        metrics = [
            ErrorMetric("pfer"),
            ErrorMetric("fwer"),
            ErrorMetric("fdr"),
            ErrorMetric("fdx", gamma=0.1),
            ErrorMetric("kfwer", k=2),
            ErrorMetric("kfdr", k=2),
        ]
        # with size-1 families, where lr_kfwer's k = 2 is out of range
        ragged_sizes = ([5, 2, 7, 5, 3, 4], [1, 5, 3, 1, 6, 2])
        # a few replicates per block, so that spans cross block edges
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 100)
        outcomes = {"ok": 0, "error": 0}
        for case in range(128):
            cfg = ScenarioConfig(
                m=6,
                n=5 if case < 64 else ragged_sizes[case % 2],
                q=0.2,
                rule=rules[case % 8],
                procedure=procedures[(case // 8) % 8],
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
            fast = values_or_error(_replicate_values, cfg, start, 25)
            slow = values_or_error(object_values, cfg, start, 25)
            assert fast == slow, case
            outcomes[fast[0]] += 1
            if rules[case % 8] is rules[7] and fast[0] == "ok":
                assert (np.frombuffer(fast[2]) == 0.0).any()
        assert outcomes["ok"] >= 90 and outcomes["error"] >= 20
        cfg = ScenarioConfig(
            m=3,
            n=4,
            q=0.1,
            rule=TopKMinP(4),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=5,
        )
        for run in (_replicate_values, object_values):
            with pytest.raises(ValueError, match="k=4 exceeds"):
                run(cfg, 0, 5)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 6),
        ragged=st.booleans(),
        rule_index=st.integers(0, 5),
        kind=st.sampled_from(PROCEDURE_KINDS),
        k=st.integers(1, 3),
        metric=st.sampled_from(
            [ErrorMetric("fwer"), ErrorMetric("fdr"), ErrorMetric("kfdr", k=2)]
        ),
        adjustment=st.sampled_from(sim.ADJUSTMENTS),
        pi1=st.sampled_from([0.0, 0.3, 1.0]),
        rho=st.sampled_from([0.0, 0.6]),
        seed=st.integers(0, 2**64 - 1),
        block_cells=st.integers(1, 200),
        data=st.data(),
    )
    def test_block_and_object_paths_agree_property(
        self,
        m,
        n,
        ragged,
        rule_index,
        kind,
        k,
        metric,
        adjustment,
        pi1,
        rho,
        seed,
        block_cells,
        data,
    ):
        if rule_index < 4:
            rule = GlobalNullTest(COMBINERS[rule_index], Procedure("two_stage"), 0.4)
        else:
            rule = (MinPThreshold(0.3), TopKMinP(min(m, 2)))[rule_index - 4]
        if ragged:
            n = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        if kind in ("step_up", "step_down"):
            procedure = Procedure(kind, critical_values=(0.05,) * 3)
        else:
            procedure = Procedure(kind, k=k if kind == "lr_kfwer" else None)
        cfg = ScenarioConfig(
            m=m,
            n=n,
            q=0.2,
            rule=rule,
            procedure=procedure,
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
            fast = values_or_error(_replicate_values, cfg, 3, 12)
        finally:
            sim._BLOCK_CELLS = old_cells
        slow = values_or_error(object_values, cfg, 3, 12)
        assert fast == slow

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
            pi1=0.3,
            mu=2.0,
            adjustment="simple",
        )
        est = estimate(cfg)
        assert est.replicates == 200
        assert 0.0 <= est.e_cs_hat <= 1.0
        # bit for bit the estimate the per-replicate analysis objects give
        cs, frac = object_values(cfg, 0, 200)
        assert est.e_cs_hat == float(cs.mean()) and est.e_cs_hat > 0.0
        assert est.e_sel_frac_hat == float(frac.mean())
        assert est.se == float(cs.std(ddof=1) / np.sqrt(200))
        assert estimate(cfg, workers=2) == est

    def test_skewed_sizes_use_memory_in_proportion(self):
        # 2000 singletons and one family of 2000 hold 4000 p-values per
        # replicate; a block padded to the largest family would hold over
        # 4 million
        cfg = ScenarioConfig(
            m=2001,
            n=[1] * 2000 + [2000],
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=6,
            seed=3,
        )
        tracemalloc.start()
        try:
            est = estimate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1 MB, against 108 MB with padded blocks
        assert peak < 8e6
        cs, frac = object_values(cfg, 0, 6)
        assert est.e_cs_hat == float(cs.mean()) and est.e_sel_frac_hat == float(
            frac.mean()
        )

    def test_rule_without_block_methods_is_refused(self):
        class SummaryOnly:
            is_simple = True

            def summaries(self, ensemble):
                return ensemble.min_p()

            def select_from_summaries(self, summaries):
                return np.flatnonzero(summaries <= 0.3)

        class NoSelectBlock(SummaryOnly):
            def block_summaries(self, p):
                return p.min(axis=2)

        for rule, missing in (
            (SummaryOnly(), "block_summaries and select_block"),
            (NoSelectBlock(), "select_block"),
        ):
            cfg = ScenarioConfig(
                m=3,
                n=2,
                q=0.1,
                rule=rule,
                procedure=Procedure("bh"),
                metric=ErrorMetric("fdr"),
                replicates=10,
            )
            with pytest.raises(ValueError, match=f"needs a rule with {missing}$"):
                estimate(cfg)

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
