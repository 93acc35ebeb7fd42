import argparse
import concurrent.futures
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import textbook
from hypothesis import given, settings
from hypothesis import strategies as st
from rmin_oracle import oracle_r_min_scan
from scipy import special, stats

from famsel import adjust, cli, selection, sim
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
    """One replicate's (m, n_max) p-values, padded with +inf, read from a
    fresh PCG64 stream keyed by the seed's SeedSequence: stream layout 3,
    which every estimate's bits depend on. A replicate takes W words, one
    per p-value plus the shared factor under the equicorrelated model, and
    replicate idx's words start at word idx * W. The independent model
    reads every family's nulls and then every family's non-null scores; the
    equicorrelated model the shared factor and then every family's scores.
    Families are taken in order, each in column order. A score word u is
    the normal ndtri(u), a 0.0 word read as 2**-54."""
    sizes = np.array(config.sizes())
    columns = np.arange(sizes.max())
    cells = columns < sizes[:, None]
    non_null = columns < np.round(config.pi1 * sizes)[:, None]
    equicorrelated = config.dependence == "equicorrelated"
    w = int(sizes.sum()) + equicorrelated
    bitgen = np.random.PCG64(np.random.SeedSequence(config.seed))
    bitgen.advance(idx * w)
    words = np.random.Generator(bitgen).random(w)
    normal = special.ndtri(np.where(words == 0.0, 2.0**-54, words))
    out = np.full(cells.shape, np.inf)
    x = np.zeros(cells.shape)
    if equicorrelated:
        rho = config.rho
        x[cells] = np.sqrt(rho) * normal[0] + np.sqrt(1.0 - rho) * normal[1:]
        scores = cells
    else:
        k = (cells & ~non_null).sum()
        out[cells & ~non_null] = words[:k]
        x[non_null] = normal[k:]
        scores = non_null
    x[non_null] += config.mu
    out[scores] = special.ndtr(-x[scores])
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


def drawn_block(config, start, stop):
    """Replicates [start, stop), drawn by `_draw` as one block, as a (B, m,
    n_max) array padded with +inf."""
    layout = sim._Layout(config)
    blocks = layout.blocks(stop - start)
    sim._draw(config, layout, sim._stream(config, layout, start), blocks)
    return padded_blocks(layout, blocks)


def object_replicate(config, ens):
    """(C_S, |S|/m) through the full analysis objects, one replicate at a
    time. The blocks share the analyses' level rule and within-family
    test, so the tests that use this path as the blocks' oracle patch
    `textbook.looped_decide` in as `adjust._decide`."""
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
        draws = drawn_block(cfg, 0, 40000)[:, 0, 0]
        for k in (0, 1, 20011, 39999):
            assert draws[k] == generate(cfg, k).rect[0, 0]
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
        p = drawn_block(cfg, 0, 20000)[:, :, 0]
        for k in (0, 1, 10007, 19999):
            assert np.array_equal(p[k], generate(cfg, k).rect[:, 0])
        z = special.ndtri(1.0 - p)
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
    def test_block_draw_matches_generate(self, seed, monkeypatch):
        # a block is one fill from the span's first offset; every block must
        # equal one generate() per replicate and the reference draw, for
        # direct and gathered layouts and for spans that start inside a block
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
                    layout = sim._Layout(cfg)
                    expected = np.stack(
                        [padded(generate(cfg, idx)) for idx in range(19)]
                    )
                    reference = [reference_draw(cfg, i) for i in range(19)]
                    assert np.array_equal(expected, np.stack(reference))
                    at_offset = generate(cfg, 7, rng=sim._stream(cfg, layout, 7))
                    assert np.array_equal(padded(at_offset), expected[7])
                    # offsets past 2**64 words
                    for idx in (2**62, 2**64 - 1):
                        assert np.array_equal(
                            padded(generate(cfg, idx)), reference_draw(cfg, idx)
                        )
                    case = (n, pi1, rho)
                    step = max(1, 40 // sum(cfg.sizes()))
                    for start, stop in ((0, 19), (5, 19), (7, 12)):
                        drawn = []

                        def recording(config, layout, rng, blocks):
                            draw(config, layout, rng, blocks)
                            drawn.append(padded_blocks(layout, blocks))

                        monkeypatch.setattr(sim, "_draw", recording)
                        _replicate_values(cfg, start, stop)
                        monkeypatch.setattr(sim, "_draw", draw)
                        assert len(drawn) == -(-(stop - start) // step)
                        want = expected[start:stop]
                        assert np.array_equal(np.concatenate(drawn), want), case
                        # one direct call over the whole span
                        assert np.array_equal(drawn_block(cfg, start, stop), want)

    def test_one_fill_per_block(self, monkeypatch):
        # every layout draws a block with one `random` call of B * W words,
        # whatever its sizes and dependence model
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.fills = rng, []

            def random(self, *, out):
                self.fills.append(out.size)
                return self.rng.random(out=out)

        stream = sim._stream
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 60)
        for n in (5, [2, 5, 1, 3], [4, 6, 8, 10]):
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
                        seed=11,
                        pi1=pi1,
                        mu=1.5,
                        dependence="equicorrelated" if rho else "independent",
                        rho=rho,
                    )
                    rngs = []

                    def counting(config, layout, idx):
                        rngs.append(CountingGenerator(stream(config, layout, idx)))
                        return rngs[-1]

                    monkeypatch.setattr(sim, "_stream", counting)
                    _replicate_values(cfg, 3, 20)
                    monkeypatch.setattr(sim, "_stream", stream)
                    cells = sum(cfg.sizes())
                    step = max(1, 60 // cells)
                    w = cells + bool(rho)
                    blocks = [min(step, 20 - a) for a in range(3, 20, step)]
                    assert len(rngs) == 1
                    assert rngs[0].fills == [b * w for b in blocks], (n, pi1, rho)

    @pytest.mark.parametrize("pi1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "dependence, rho",
        [("independent", 0.0), ("equicorrelated", 0.0), ("equicorrelated", 0.5)],
    )
    def test_zero_words_give_finite_scores(self, dependence, rho, pi1):
        # random() returns 0.0 with probability 2**-53 and ndtri(0.0) is
        # -inf: with rho = 0 a -inf factor would give 0 * -inf = NaN scores
        class ZeroStream:
            def random(self, *, out):
                out[...] = 0.0

        cfg = ScenarioConfig(
            m=3,
            n=[2, 3, 1],
            q=0.2,
            rule=MinPThreshold(0.3),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=1,
            pi1=pi1,
            mu=1.5,
            dependence=dependence,
            rho=rho,
        )
        ens = generate(cfg, 0, rng=ZeroStream())
        # a 0.0 word is the normal score ndtri(2**-54), about -8.3
        z = special.ndtri(2.0**-54)
        if dependence == "equicorrelated":
            z = np.sqrt(rho) * z + np.sqrt(1.0 - rho) * z
        for i, n in enumerate(cfg.sizes()):
            truth = ens.truth_family(i)
            expected = special.ndtr(-np.where(truth, z, z + cfg.mu))
            if dependence == "independent":
                expected[truth] = 0.0
            assert np.array_equal(ens.family(i), expected), (i, n)
        assert np.isfinite(object_replicate(cfg, ens)[0])

    def test_seeds_above_2_63_key_their_own_streams(self):
        draws = {}
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 1):
            cfg = example1_config(3, 4, reps=1, seed=seed)
            bitgen = np.random.PCG64(np.random.SeedSequence(seed))
            bitgen.advance(5 * 12)
            draws[seed] = generate(cfg, 5).rect
            at_offset = generate(cfg, 5, rng=np.random.Generator(bitgen))
            assert np.array_equal(draws[seed], at_offset.rect)
        assert len({d.tobytes() for d in draws.values()}) == 4

    def test_pcg64_advance_skips_whole_doubles(self):
        # stream layout 3 reaches replicate r with advance(r * W): that holds
        # only while PCG64's advance(k) skips exactly k doubles of random()
        seed = np.random.SeedSequence(2**64 - 1)
        words = np.random.Generator(np.random.PCG64(seed)).random(16)
        j = 7
        for k in (0, 1, 3, 5, 2**40, 2**64 - 1):
            bitgen = np.random.PCG64(seed)
            bitgen.advance(k)
            got = np.random.Generator(bitgen).random(j)
            if k + j <= words.size:
                assert np.array_equal(got, words[k : k + j]), k
            else:
                # the same words, reached by two advances and 3 doubles
                split = np.random.PCG64(seed)
                split.advance(k // 2)
                split.advance(k - k // 2 - 3)
                want = np.random.Generator(split).random(j + 3)[3:]
                assert np.array_equal(got, want), k

    @pytest.mark.parametrize("m, n", [(3, 7), (5, 3)])
    def test_all_null_single_size_draws_direct(self, m, n, monkeypatch):
        # W = m * n is not a multiple of 4, and the block is still drawn
        # straight into its array: no gather runs
        cfg = example1_config(m, n, reps=1, seed=2**63 + 1)
        layout = sim._Layout(cfg)
        assert layout.words % 4 and layout.direct

        def refused(*args, **kwargs):
            raise AssertionError("_draw gathered a direct layout")

        monkeypatch.setattr(np, "take", refused)
        for start, stop in ((0, 9), (4, 11)):
            drawn = drawn_block(cfg, start, stop)
            want = [reference_draw(cfg, i) for i in range(start, stop)]
            assert np.array_equal(drawn, np.stack(want))

    @pytest.mark.parametrize("n", [[2, 5, 1, 3], [1, 1, 2, 1], 3])
    def test_block_cells_follow_the_slots(self, n):
        # each (replicate, family) cell of a full block, or of any shorter
        # one, names its replicate, family, group and the row of its group's
        # matrix that holds the family's p-values, at 40-cell blocks
        cfg = replace(example1_config(4, n, reps=1, seed=3), pi1=0.5, mu=1.0)
        layout = sim._Layout(cfg)
        step = max(1, 40 // int(layout.sizes.sum()))
        table = sim._block_cells(layout, step)
        full = layout.blocks(step)
        sim._draw(cfg, layout, sim._stream(cfg, layout, 0), full)
        matrices = [block.reshape(-1, block.shape[2]) for block in full]
        padded_full = padded_blocks(layout, full)
        sizes = layout.sizes
        for b in range(1, step + 1):
            cells = np.arange(b * sizes.size)
            reps, fams, group_of, at = table.take(cells, axis=1)
            assert reps.tolist() == (cells // sizes.size).tolist()
            assert fams.tolist() == (cells % sizes.size).tolist()
            group, row = layout.slots[:, fams]
            assert group_of.tolist() == group.tolist()
            assert at.tolist() == (row + reps * layout.counts[group]).tolist()
            for r, i, g, k in zip(reps, fams, group_of, at):
                got = matrices[g][k]
                assert np.array_equal(got, padded_full[r, i, : sizes[i]])

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

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        opened = []

        class RecordingPool:
            """Runs the spans in process and records the workers asked for."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        # estimate imports the pool where it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("FAMSEL_THREADS", "16")
        # the CLI parses the count as given; estimate caps it
        counts = [
            cli._threads(argparse.Namespace(threads=text)) for text in ("64", "1", None)
        ]
        assert counts == [64, 1, 16]
        cfg = example1_config(20, 3, reps=301, seed=4)
        serial = estimate(cfg)
        for workers in counts:
            assert estimate(cfg, workers=workers) == serial
        assert opened == [2, 2]
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert estimate(cfg, workers=16) == serial
        assert opened == [2, 2]

    @pytest.mark.parametrize("block_cells", [1, 40, 1 << 14])
    def test_split_spans_match_one_span(self, block_cells, monkeypatch):
        # each replicate reads its words at a fixed offset, so any worker
        # split gives the one-span bits, whatever the block size
        monkeypatch.setattr(sim, "_BLOCK_CELLS", block_cells)
        for n, rho in ((3, 0.0), ([2, 5, 1, 3], 0.0), ([2, 5, 1, 3], 0.5)):
            cfg = ScenarioConfig(
                m=4,
                n=n,
                q=0.2,
                rule=GlobalNullTest("simes", Procedure("bh"), 0.3),
                procedure=Procedure("bh"),
                metric=ErrorMetric("fdr"),
                replicates=19,
                seed=2**64 - 3,
                pi1=0.4,
                mu=2.0,
                dependence="equicorrelated" if rho else "independent",
                rho=rho,
            )
            whole = _replicate_values(cfg, 0, 19)
            parts = [_replicate_values(cfg, 0, 7), _replicate_values(cfg, 7, 19)]
            for got, want in zip(map(np.concatenate, zip(*parts)), whole):
                assert got.tobytes() == want.tobytes(), (n, rho)

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
            with monkeypatch.context() as patch:
                patch.setattr(adjust, "_decide", textbook.looped_decide)
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            slow = values_or_error(object_values, cfg, 3, 12)
        assert fast == slow

    @pytest.mark.parametrize(
        "n, procedure, metric",
        [
            (20, "bonferroni", "fwer"),
            ([3, 1, 4, 1, 5, 9, 2, 6], "bonferroni", "pfer"),
            ([3, 1, 4, 1, 5, 9, 2, 6], "bh", "fdr"),
        ],
    )
    def test_all_null_draws_run_no_score_step(self, n, procedure, metric, monkeypatch):
        # all null and independent: every word is a uniform p-value, so no
        # normal score, shift or ndtr runs, and the ragged layouts still
        # gather their blocks; 301 replicates end in a shorter block
        cfg = replace(
            example1_config(8, n, reps=301, seed=2**63 + 5, adjustment="simple"),
            q=0.2,
            procedure=Procedure(procedure),
            metric=ErrorMetric(metric),
        )
        with monkeypatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            cs, frac = object_values(cfg, 0, cfg.replicates)

        def refused(*args, **kwargs):
            raise AssertionError("an all-null draw ran a score step")

        monkeypatch.setattr(special, "ndtri", refused)
        monkeypatch.setattr(special, "ndtr", refused)
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 100)
        est = estimate(cfg)
        assert est.e_cs_hat == float(cs.mean()) and est.e_cs_hat > 0.0
        assert est.e_sel_frac_hat == float(frac.mean())
        assert est.se == float(cs.std(ddof=1) / np.sqrt(cfg.replicates))
        # the draws themselves, block by block, against the reference draw,
        # computed once the score steps are back
        drawn = drawn_block(cfg, 290, 301)
        monkeypatch.undo()
        want = np.stack([reference_draw(cfg, i) for i in range(290, 301)])
        assert np.array_equal(drawn, want)

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


class ScannedGlobalNullTest(GlobalNullTest):
    """A GlobalNullTest that does not declare itself simple, so that an
    `rmin` adjustment scans for R_min rather than taking R."""

    is_simple = False


class TestRMinBlocks:
    """The Monte Carlo block's R_min against the candidate scan, run
    through the per-replicate analysis objects."""

    def test_rmin_estimates_match_the_candidate_scan(self, monkeypatch):
        common = dict(q=0.2, replicates=60, mu=1.5, adjustment="rmin")
        configs = [
            ScenarioConfig(
                m=15,
                n=2,
                rule=GlobalNullTest("fisher", Procedure("two_stage"), level=0.4),
                procedure=Procedure("bh"),
                metric=ErrorMetric("fdr"),
                seed=5,
                pi1=0.5,
                **common,
            ),
            ScenarioConfig(
                m=8,
                n=3,
                rule=ScannedGlobalNullTest(
                    "stouffer",
                    Procedure("step_down", critical_values=np.linspace(0.01, 0.2, 8)),
                ),
                procedure=Procedure("holm"),
                metric=ErrorMetric("fwer"),
                seed=12,
                pi1=1 / 3,
                dependence="equicorrelated",
                rho=0.4,
                **common,
            ),
            ScenarioConfig(
                m=9,
                n=[1, 3, 5, 2, 4, 1, 6, 2, 3],
                rule=GlobalNullTest("simes", Procedure("two_stage"), level=0.5),
                procedure=Procedure("bonferroni"),
                metric=ErrorMetric("pfer"),
                seed=13,
                pi1=0.3,
                **common,
            ),
        ]
        # a few replicates per block, so that runs cross block edges
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 40)
        scanned = []

        def oracle(rule, summaries, i, rows=None):
            scanned.append(np.size(i))
            return oracle_r_min_scan(rule, summaries, i, rows)

        for cfg in configs:
            est = estimate(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(selection, "_r_min_scan", oracle)
                cs, frac = object_values(cfg, 0, cfg.replicates)
            assert est.e_cs_hat == float(cs.mean()), cfg.rule
            assert est.e_sel_frac_hat == float(frac.mean())
            assert est.se == float(cs.std(ddof=1) / np.sqrt(cfg.replicates))
        assert sum(scanned) > 300
        # R_min is below R often enough to move the two-stage estimates
        for cfg in configs[::2]:
            simple = estimate(replace(cfg, adjustment="simple"))
            assert simple.e_cs_hat != estimate(cfg).e_cs_hat


    def test_scan_memory_stays_at_its_block_size(self):
        # every family selected in every replicate: one (replicate, family)
        # pair per family, whose rows the scan gathers block by block
        cfg = ScenarioConfig(
            m=500,
            n=2,
            q=0.05,
            rule=GlobalNullTest("simes", Procedure("two_stage"), level=0.05),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=16,
            seed=7,
            pi1=1.0,
            mu=3.0,
            adjustment="rmin",
        )
        tracemalloc.start()
        try:
            est = estimate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.e_sel_frac_hat == 1.0
        # about 2.4 MB; a copy of the summaries per pair peaked at 34 MB
        assert peak < 12 * 8 * selection._SCAN_BLOCK_CELLS


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

            def block_summaries(self, p):
                return p.min(axis=2)

            def select_block(self, summaries):
                panic = (summaries >= 0.9).any(axis=1, keepdims=True)
                return panic | (summaries <= 0.1)

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
