import argparse
import concurrent.futures
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import textbook
from hypothesis import given, settings
from hypothesis import strategies as st
from rmin_oracle import oracle_r_min_scan
from scipy import special, stats

from famsel import adjust, cli, core, selection, sim
from famsel.adjust import (
    selection_adjusted,
    simple_selection_adjusted,
    unadjusted_analysis,
)
from famsel.core import ErrorMetric, average_over_selected
from famsel.procedures import PROCEDURE_KINDS, Procedure, rejected_entries
from famsel.procedures import _entry_cutoffs
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


def recorded_test_rows(patch):
    """The number of rows of each `sim._test_rows` call, recorded into the
    returned list while patch holds the wrapper."""
    tested = []
    test_rows = sim._test_rows

    def recording(procedure, matrices, truths, group_of, rows, *args):
        tested.append(rows.size)
        return test_rows(procedure, matrices, truths, group_of, rows, *args)

    patch.setattr(sim, "_test_rows", recording)
    return tested


def recorded_blocks(patch):
    """The number of replicates of each block that `sim._draw` fills,
    recorded into the returned list while patch holds the wrapper."""
    drawn = []
    draw = sim._draw

    def recording(config, layout, rng, blocks, *args):
        drawn.append(blocks[0].shape[0])
        return draw(config, layout, rng, blocks, *args)

    patch.setattr(sim, "_draw", recording)
    return drawn


def recorded_workspaces(patch):
    """The `sim._Workspace`s made while patch holds the wrapper, each with
    its number of rewinds so far at each request that did not fit in its
    memory (spills) and at each rewind that grew its memory (grown). A span
    rewinds twice per block, so block k's requests come at 2k - 1 and 2k."""
    made = []

    class Recording(sim._Workspace):
        def __init__(self):
            super().__init__()
            self.rewinds, self.spills, self.grown = 0, [], []
            made.append(self)

        def empty(self, shape, dtype=np.float64):
            out = super().empty(shape, dtype)
            if out.base is not self.memory:
                self.spills.append(self.rewinds)
            return out

        def rewind(self):
            memory = self.memory
            super().rewind()
            self.rewinds += 1
            if self.memory is not memory:
                self.grown.append(self.rewinds)

    patch.setattr(sim, "_Workspace", Recording)
    return made


def entering_families(config, start, stop):
    """The number of families that replicates [start, stop) select under a
    min-p rule, and the number a block tests: those whose smallest p-value
    meets the procedure's entry cutoff at the level of their replicate's R,
    or every selected one under "rmin" when the rule is not simple."""
    rmin = config.adjustment == "rmin" and not config.rule.is_simple
    selected = entering = 0
    for idx in range(start, stop):
        ensemble = generate(config, idx)
        mins = np.array([family.min() for family in ensemble.families])
        picked = np.flatnonzero(config.rule.select_block(mins[None])[0])
        r = picked.size
        level = config.q if config.adjustment == "none" else r * config.q / config.m
        for i in picked:
            cut = _entry_cutoffs(config.procedure, ensemble.size(i), np.array([level]))
            entering += rmin or mins[i] <= cut[0]
        selected += r
    return selected, entering


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

    @pytest.mark.parametrize(
        "m, n, name", [(2.5, 2, "m"), (3, 2.5, "n"), (3.0, 2, "m"), ("3", 2, "m")]
    )
    def test_non_integer_sizes_are_refused(self, m, n, name):
        # 2.5 families of 2 once gave (0.1146, 0.0975)
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            closed_form_example1(0.05, m, n)
        # as a scenario refuses them
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            example1_config(m, n, reps=1)

    def test_numpy_integer_sizes_are_taken(self):
        want = closed_form_example1(0.05, 100, 10)
        assert closed_form_example1(0.05, np.int64(100), np.int32(10)) == want


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

    def test_replicate_index_is_a_nonnegative_integer(self):
        cfg = example1_config(5, 3, reps=1, seed=4)
        want = generate(cfg, 3).rect
        np.testing.assert_array_equal(generate(cfg, np.int64(3)).rect, want)
        np.testing.assert_array_equal(generate(cfg, np.uint8(3)).rect, want)
        with pytest.raises(ValueError, match="replicate_index must be non-negative"):
            generate(cfg, -1)
        with pytest.raises(TypeError):
            generate(cfg, 2.5)

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
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
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

                        def recording(config, layout, rng, blocks, *args):
                            draw(config, layout, rng, blocks, *args)
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
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
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

    def test_one_sort_of_family_rows_per_block(self, monkeypatch):
        # Simes selection and the within-family test share one sort of each
        # size group's rows, by a network or by np.sort; min-p selection
        # with Bonferroni inside sorts nothing. The (B, m) summaries have
        # m = 4 columns, which no family size here has. A full block holds
        # 3 replicates and the last one 2, so a row cutoff of 10 puts full
        # blocks of 5 on the network's side and every last block on
        # np.sort's.
        sorted_shapes, np_sorted = [], []
        sort, sorted_columns = np.sort, core._sorted_columns

        def counting(a, *args, **kwargs):
            np_sorted.append(np.shape(a)[-1])
            return sort(a, *args, **kwargs)

        def counting_columns(rows, *args):
            sorted_shapes.append(rows.shape)
            return sorted_columns(rows, *args)

        monkeypatch.setattr(sim, "_BLOCK_CELLS", 60)
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
        monkeypatch.setattr(sim, "_sorted_columns", counting_columns)
        monkeypatch.setattr(adjust, "_sorted_columns", counting_columns)
        monkeypatch.setattr(np, "sort", counting)
        simes = GlobalNullTest("simes", Procedure("bh"), 0.2)
        sides = set()  # whether a sort at the cutoff of 10 ran the network
        for network_sizes, network_rows, (rule, procedure, sorts), n in itertools.product(
            (core._NETWORK_SIZES, 0),
            [dict.fromkeys(range(2, 11), c) for c in (1, 10)] + [core._NETWORK_ROWS],
            [(simes, "bh", 1), (simes, "holm", 1), (MinPThreshold(0.3), "bonferroni", 0)],
            (5, [2, 5, 1, 3]),
        ):
            monkeypatch.setattr(core, "_NETWORK_SIZES", network_sizes)
            monkeypatch.setattr(core, "_NETWORK_ROWS", network_rows)
            cfg = ScenarioConfig(
                m=4,
                n=n,
                q=0.2,
                rule=rule,
                procedure=Procedure(procedure),
                metric=ErrorMetric("fdr"),
                replicates=1,
                seed=3,
                pi1=0.5,
                mu=2.0,
            )
            sorted_shapes.clear()
            np_sorted.clear()
            _replicate_values(cfg, 3, 20)
            step = max(1, 60 // sum(cfg.sizes()))
            blocks = len(range(3, 20, step))
            want = sorted(list(set(cfg.sizes())) * blocks * sorts)
            assert sorted(w for _, w in sorted_shapes) == want
            # np.sort sorts the rows the network does not, and nothing else
            rows = [w for w in np_sorted if w != cfg.m]
            by_network = [
                (count, w)
                for count, w in sorted_shapes
                if 1 < w <= network_sizes and count >= network_rows[w]
            ]
            assert rows == [w for c, w in sorted_shapes if (c, w) not in by_network]
            if network_rows[2] == 10 and network_sizes:
                sides.update((c, w) in by_network for c, w in sorted_shapes)
            if not sorts:
                assert np_sorted == [], (rule, n)
        assert sides == {False, True}

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
        full = layout.blocks(step)
        sim._draw(cfg, layout, sim._stream(cfg, layout, 0), full)
        matrices = [block.reshape(-1, block.shape[2]) for block in full]
        padded_full = padded_blocks(layout, full)
        sizes = layout.sizes
        for b in range(1, step + 1):
            cells = np.arange(b * sizes.size)
            reps, fams, group_of, at = sim._cells_of(layout, cells)
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
        # the independent model has no shared factor for rho to weight
        with pytest.raises(ValueError, match="rho must be 0 under the independent"):
            ScenarioConfig(
                m=2,
                n=2,
                q=0.05,
                rule=MinPThreshold(0.05),
                procedure=Procedure("bonferroni"),
                metric=ErrorMetric("fwer"),
                replicates=1,
                rho=0.5,
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

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("m", 2.5, "m must be an integer"),
            ("replicates", 20.5, "replicates must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("n", 2.5, "n must be an integer or one integer per family"),
            ("n", [2, 2.5, 3], "n must be an integer or one integer per family"),
            ("replicates", np.int64(20), None),
        ],
    )
    def test_sizes_are_integers(self, field, value, match):
        base = example1_config(3, 2, reps=20)
        if match is None:
            got = estimate(replace(base, **{field: value}))
            assert type(got.replicates) is int and got == estimate(base)
        else:
            with pytest.raises(ValueError, match=match):
                replace(base, **{field: value})


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
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
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
        # all null under the min-p rules, whose selected families mostly miss
        # their entry cutoffs and are not tested
        cases = [
            ScenarioConfig(
                m=6,
                n=5 if case < 16 else ragged_sizes[case % 2],
                q=0.2,
                rule=(MinPThreshold(0.3), TopKMinP(3))[(case // 2) % 2],
                procedure=procedures[(case // 4) % 6],
                metric=metrics[case % 6],
                replicates=25,
                seed=int(rng.integers(10**6)),
                adjustment=("simple", "rmin", "none")[case % 3],
            )
            for case in range(32)
        ]
        # a rule that is not simple: its R_min may lie below R, so no cutoff
        # at R's level applies and every selected family is tested
        cases.append(replace(cases[1], rule=ScannedMinPThreshold(0.3)))
        # two sizes: Bonferroni's cutoff at a count R is R q / (m n)
        cases.append(replace(cases[0], n=[2, 6, 2, 6, 2, 6], rule=MinPThreshold(0.5)))
        # no selected family meets its cutoff, so no block tests a family
        cases.append(replace(cases[0], q=1e-4, rule=MinPThreshold(0.5)))
        dropped = 0
        for case, cfg in enumerate(cases):
            monkeypatch.setattr(sim, "_BLOCK_CELLS", (100, 7)[case % 2])
            with monkeypatch.context() as patch:
                tested = recorded_test_rows(patch)
                fast = values_or_error(_replicate_values, cfg, 3, 25)
            with monkeypatch.context() as patch:
                patch.setattr(adjust, "_decide", textbook.looped_decide)
                slow = values_or_error(object_values, cfg, 3, 25)
            assert fast == slow, case
            if fast[0] == "ok":
                selected = np.rint(np.frombuffer(fast[2]) * 6).sum()
                want = entering_families(cfg, 3, 25)
                assert (selected, sum(tested)) == want, case
                dropped += sum(tested) < selected
        assert dropped >= 20
        scanned, ragged, missing = cases[32:]
        assert sim._entry_table(scanned, sim._Layout(scanned)) is None
        simple = replace(scanned, rule=MinPThreshold(0.3))
        assert entering_families(simple, 3, 25)[1] < entering_families(scanned, 3, 25)[1]
        entry = sim._entry_table(ragged, sim._Layout(ragged))
        assert (entry[0, 1:] > entry[1, 1:]).all()
        # the last case's blocks select families and test none of them
        assert sum(tested) == 0 and entering_families(missing, 3, 25)[0] > 0
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
        old = sim._BLOCK_CELLS, sim._BLOCK_REPLICATES
        sim._BLOCK_CELLS, sim._BLOCK_REPLICATES = block_cells, 1
        try:
            fast = values_or_error(_replicate_values, cfg, 3, 12)
        finally:
            sim._BLOCK_CELLS, sim._BLOCK_REPLICATES = old
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

    @pytest.mark.parametrize("block_cells", [900, 1 << 14])
    def test_sums_add_left_to_right(self, block_cells, monkeypatch):
        # about 90 of 100 families are selected, and their FDP values sum to
        # different floats in different orders; a pairwise sum of a
        # replicate's values would change the estimate's bits
        cfg = ScenarioConfig(
            m=100,
            n=4,
            q=0.2,
            rule=MinPThreshold(0.3),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=40,
            seed=11,
            pi1=0.5,
            mu=1.5,
        )
        monkeypatch.setattr(sim, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
        fast = _replicate_values(cfg, 0, 40)
        monkeypatch.setattr(adjust, "_decide", textbook.looped_decide)
        slow = object_values(cfg, 0, 40)
        for got, want in zip(fast, slow):
            assert got.tobytes() == want.tobytes()
        order_dependent = 0
        for idx in range(40):
            ens = generate(cfg, idx)
            c = simple_selection_adjusted(
                ens, cfg.rule, cfg.procedure, cfg.q, metric=cfg.metric
            ).decisions.c
            order_dependent += np.cumsum(c)[-1] != np.add.reduce(c)
        assert order_dependent >= 10

    @pytest.mark.parametrize(
        "n, procedure", [(20, "bonferroni"), (20, "bh"), ([3, 1, 4, 1, 5], "holm")]
    )
    def test_all_null_blocks_read_no_mask_and_no_values_array(
        self, n, procedure, monkeypatch
    ):
        # with no non-null hypothesis every rejection is false: v is r, and
        # each block sums its tested cells with one weighted bincount,
        # building no (B, m) array. No block builds a rejected-entry mask:
        # none calls rejected_entries, with or without non-nulls.
        cfg = replace(
            example1_config(5, n, reps=60, seed=9, adjustment="simple"),
            q=0.3,
            rule=MinPThreshold(0.3),
            procedure=Procedure(procedure),
            metric=ErrorMetric("pfer"),
        )
        with monkeypatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            cs, frac = object_values(cfg, 0, cfg.replicates)

        def uncalled(*args):
            raise AssertionError("a block tested rows by rejected_entries")

        shapes, weighted = [], []  # of float zeros, of weighted bincounts
        zeros, bincount = np.zeros, np.bincount

        def recording_zeros(*args, **kwargs):
            out = zeros(*args, **kwargs)
            if out.dtype == np.float64:
                shapes.append(out.shape)
            return out

        def recording_bincount(x, weights=None, minlength=0):
            if weights is not None:
                weighted.append(minlength)
            return bincount(x, weights, minlength)

        monkeypatch.setattr(adjust, "rejected_entries", uncalled)
        monkeypatch.setattr(np, "zeros", recording_zeros)
        monkeypatch.setattr(np, "bincount", recording_bincount)
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 200)
        monkeypatch.setattr(sim, "_BLOCK_REPLICATES", 1)
        est = estimate(cfg)
        monkeypatch.undo()
        assert est.e_cs_hat == float(cs.mean()) and est.e_cs_hat > 0.0
        assert est.e_sel_frac_hat == float(frac.mean())
        assert all(len(shape) == 1 for shape in shapes), shapes
        # one sum per block with a tested cell, over that block's replicates
        step = max(1, 200 // sum(cfg.sizes()))
        assert weighted and set(weighted) <= {step, cfg.replicates % step}
        assert len(weighted) <= -(-cfg.replicates // step)
        monkeypatch.setattr(adjust, "rejected_entries", uncalled)
        signal = estimate(replace(cfg, pi1=0.5, mu=1.0))
        assert signal.e_cs_hat > 0.0

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


class TestBlockSize:
    """A block holds _BLOCK_CELLS p-values, or _BLOCK_REPLICATES replicates
    where those fit in 4 * _BLOCK_CELLS; no block size changes a bit."""

    def test_replicate_floor_binds_on_wide_replicates(self, monkeypatch):
        # 8000 p-values per replicate: 8 replicates fill 2**16 cells, and
        # the floor makes blocks of 32 at the shipped constants
        cfg = example1_config(20, 400, reps=70, seed=21, adjustment="simple")
        assert (sim._BLOCK_CELLS, sim._BLOCK_REPLICATES) == (1 << 16, 32)
        with monkeypatch.context() as patch:
            drawn = recorded_blocks(patch)
            floored = _replicate_values(cfg, 0, 70)
        assert drawn == [32, 32, 6]
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_BLOCK_REPLICATES", 1)
            drawn = recorded_blocks(patch)
            cells_only = _replicate_values(cfg, 0, 70)
        assert drawn == [8] * 8 + [6]
        with monkeypatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            slow = object_values(cfg, 0, 70)
        assert floored[0].max() > 0.0
        for got, once, want in zip(floored, cells_only, slow):
            assert got.tobytes() == once.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            # ragged sizes under a min-p rule with BH inside
            ScenarioConfig(
                m=6,
                n=[5, 2, 7, 5, 3, 4],
                q=0.2,
                rule=MinPThreshold(0.2),
                procedure=Procedure("bh"),
                metric=ErrorMetric("fdr"),
                replicates=70,
                seed=31,
                pi1=0.4,
                mu=2.0,
            ),
            # equicorrelated Simes/BH, 800 p-values per replicate: 20
            # replicates fill 2**14 cells, and the floor makes 32
            ScenarioConfig(
                m=20,
                n=40,
                q=0.2,
                rule=GlobalNullTest("simes", Procedure("bh"), 0.3),
                procedure=Procedure("bh"),
                metric=ErrorMetric("fdr"),
                replicates=70,
                seed=2**64 - 7,
                pi1=0.2,
                mu=2.0,
                dependence="equicorrelated",
                rho=0.5,
                adjustment="simple",
            ),
            # Simes/BH selection with Holm inside, 72 p-values per
            # replicate: a block of 67 sorts its 804 rows of 6 with a
            # network, and blocks of 1 and 2 with np.sort
            ScenarioConfig(
                m=12,
                n=6,
                q=0.05,
                rule=GlobalNullTest("simes", Procedure("bh"), 0.05),
                procedure=Procedure("holm"),
                metric=ErrorMetric("fwer"),
                replicates=70,
                seed=17,
                pi1=1 / 3,
                mu=2.5,
                adjustment="simple",
            ),
            # a two-stage global rule under "rmin", on ragged sizes
            ScenarioConfig(
                m=9,
                n=[1, 3, 5, 2, 4, 1, 6, 2, 3],
                q=0.2,
                rule=GlobalNullTest("simes", Procedure("two_stage"), 0.5),
                procedure=Procedure("two_stage"),
                metric=ErrorMetric("pfer"),
                replicates=70,
                seed=13,
                pi1=0.3,
                mu=1.5,
                adjustment="rmin",
            ),
        ],
        ids=["ragged", "equicorrelated-simes", "simes-network", "two-stage-rmin"],
    )
    def test_block_size_does_not_change_bits(self, cfg, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            want = values_or_error(object_values, cfg, 3, 70)
        assert want[0] == "ok" and np.frombuffer(want[1]).max() > 0.0
        steps = set()
        for floor in (1, 32):
            for block_cells in (37, 1 << 14, 1 << 16):
                with monkeypatch.context() as patch:
                    patch.setattr(sim, "_BLOCK_CELLS", block_cells)
                    patch.setattr(sim, "_BLOCK_REPLICATES", floor)
                    drawn = recorded_blocks(patch)
                    got = values_or_error(_replicate_values, cfg, 3, 70)
                assert got == want, (floor, block_cells)
                steps.add(drawn[0])
        assert len(steps) >= 3, steps
        if cfg.n == 6:
            # blocks on both sides of the network's row cutoff
            rows = [step * cfg.m for step in steps]
            assert cfg.n <= core._NETWORK_SIZES
            assert min(rows) < core._NETWORK_ROWS[cfg.n] <= max(rows), rows

    @pytest.mark.parametrize(
        "cfg",
        [
            # Simes/BH selection with Holm inside on ragged sizes, two of
            # them past the network's, and a non-direct stream
            ScenarioConfig(
                m=7,
                n=[6, 2, 12, 6, 3, 1, 6],
                q=0.1,
                rule=GlobalNullTest("simes", Procedure("bh"), 0.3),
                procedure=Procedure("holm"),
                metric=ErrorMetric("fwer"),
                replicates=70,
                seed=41,
                pi1=1 / 3,
                mu=2.5,
                adjustment="simple",
            ),
            # equicorrelated two-stage selection and testing under "rmin"
            ScenarioConfig(
                m=10,
                n=5,
                q=0.2,
                rule=GlobalNullTest("simes", Procedure("two_stage"), 0.4),
                procedure=Procedure("two_stage"),
                metric=ErrorMetric("fdr"),
                replicates=70,
                seed=43,
                pi1=0.4,
                mu=2.0,
                dependence="equicorrelated",
                rho=0.3,
                adjustment="rmin",
            ),
            # Fisher two-stage selection, which ranks no rows, with
            # Hochberg inside: only the tested rows are sorted
            ScenarioConfig(
                m=7,
                n=[6, 2, 12, 6, 3, 1, 6],
                q=0.2,
                rule=GlobalNullTest("fisher", Procedure("two_stage"), 0.3),
                procedure=Procedure("hochberg"),
                metric=ErrorMetric("fdr"),
                replicates=70,
                seed=47,
                pi1=1 / 3,
                mu=2.0,
                adjustment="simple",
            ),
        ],
        ids=["ragged-simes-holm", "equicorrelated-two-stage", "ragged-fisher-hochberg"],
    )
    def test_short_last_block_reuses_the_workspace(self, cfg, monkeypatch):
        # full blocks and then a short last one draw, sort and test in the
        # one workspace of their span, and match the per-replicate analyses
        with monkeypatch.context() as patch:
            patch.setattr(adjust, "_decide", textbook.looped_decide)
            want = values_or_error(object_values, cfg, 3, 70)
        assert want[0] == "ok" and np.frombuffer(want[1]).max() > 0.0
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_BLOCK_CELLS", 500)
            made = recorded_workspaces(patch)
            drawn = recorded_blocks(patch)
            got = values_or_error(_replicate_values, cfg, 3, 70)
        assert got == want
        assert len(drawn) >= 3 and 0 < drawn[-1] < drawn[0] == drawn[-2]
        # the first block sized the workspace, a later one grew it only
        # after asking for more, and the short last one fits in it
        [work] = made
        assert work.rewinds == 2 * len(drawn)
        assert 1 in work.spills and work.grown[0] == 2
        assert all(k - 1 in work.spills for k in work.grown)
        assert max(work.spills) < work.rewinds - 1

    def test_a_span_allocates_its_workspace_in_its_first_block(self, monkeypatch):
        # mc-signal-simes's scenario at the shipped block size: two blocks,
        # the second one short. The first block's draw and score size one
        # workspace, and the second block draws, sorts and tests in it
        cfg = ScenarioConfig(
            m=20,
            n=6,
            q=0.05,
            rule=GlobalNullTest("simes", Procedure("bh"), 0.05),
            procedure=Procedure("bh"),
            metric=ErrorMetric("fdr"),
            replicates=1001,
            seed=5,
            pi1=1 / 3,
            mu=2.5,
        )
        with monkeypatch.context() as patch:
            made = recorded_workspaces(patch)
            drawn = recorded_blocks(patch)
            estimate(cfg)
        assert drawn == [546, 455]
        [work] = made
        assert work.rewinds == 4 and set(work.spills) == {1, 2}
        assert work.grown == [2, 3] and work.memory.size == 2 * work.peak

    def test_blocks_stay_within_four_times_block_cells(self, monkeypatch):
        # 280,000 p-values per replicate: one replicate per block
        wide = example1_config(700, 400, reps=3, seed=5)
        with monkeypatch.context() as patch:
            drawn = recorded_blocks(patch)
            estimate(wide)
        assert drawn == [1, 1, 1]
        # 8000 p-values per replicate: no block passes 2**18 of them
        cfg = example1_config(20, 400, reps=200, seed=5)
        with monkeypatch.context() as patch:
            drawn = recorded_blocks(patch)
            estimate(cfg)
        assert sum(drawn) == 200 and max(drawn) * 8000 <= 1 << 18
        # and over every width up to past 4 * _BLOCK_CELLS, for long spans
        # and for spans shorter than a block
        bound = 4 * sim._BLOCK_CELLS
        for w in range(1, bound + 100):
            step = sim._block_step(w, 10**6)
            assert step * w <= max(bound, w), w
            assert step >= max(1, min(32, bound // w), sim._BLOCK_CELLS // w), w
            assert sim._block_step(w, 5) == min(step, 5), w
        assert sim._block_step(10, 0) == 1


def tie_grids(rng, rows, n):
    """rows x n values on a grid {0, 1/G, ..., 1} of G + 1 values each, G
    from 1 to 4 by row, so that most rows hold ties."""
    grid = rng.integers(1, 5, size=(rows, 1))
    return rng.integers(0, grid + 1, size=(rows, n)) / grid


class TestFirstAxisKernels:
    """A Simes block sorts its rows into `_last_axis_first`'s layout and
    tests the selected rows there, with no copy of the block."""

    @pytest.mark.parametrize("network", [True, False])
    def test_sorted_columns_are_np_sort_byte_for_byte(self, network, monkeypatch):
        # rows on both sides of the network's row cutoff of 256: below it
        # np.sort's rows come transposed, with no copy; NaN sorts last on
        # both sides
        monkeypatch.setattr(core, "_NETWORK_SIZES", 12 if network else 0)
        monkeypatch.setattr(core, "_NETWORK_ROWS", dict.fromkeys(range(2, 13), 256))
        rng = np.random.default_rng(41)
        for n, count in itertools.product(range(1, 13), (20, 255, 256, 300)):
            nans = tie_grids(rng, count, n)
            nans[rng.uniform(size=nans.shape) < 0.2] = np.nan
            for rows in (rng.uniform(size=(count, n)), tie_grids(rng, count, n), nans):
                got = core._sorted_columns(rows)
                assert got.shape == (n, count)
                by_np_sort = count < 256 or not 1 < n <= core._NETWORK_SIZES
                assert (got.T if by_np_sort else got).flags.c_contiguous
                want = np.sort(rows, axis=1)
                assert np.ascontiguousarray(got.T).tobytes() == want.tobytes(), n

    def test_np_sort_in_row_chunks_is_np_sort_byte_for_byte(self, monkeypatch):
        # at 25 cells np.sort sorts rows in chunks of a few rows each
        monkeypatch.setattr(core, "_NETWORK_SIZES", 0)
        monkeypatch.setattr(core, "_CHUNK_CELLS", 25)
        rng = np.random.default_rng(43)
        for n in range(1, 13):
            rows = tie_grids(rng, 300, n)
            got = np.ascontiguousarray(core._sorted_columns(rows).T)
            assert got.tobytes() == np.sort(rows, axis=1).tobytes(), n

    def test_networks_are_merge_exchange(self):
        # Batcher's merge exchange has the fewest comparators known up to 8
        sizes = [len(core._network(n)) for n in range(2, 11)]
        assert sizes == [1, 3, 5, 9, 12, 16, 19, 26, 31]
        # every comparator's two outputs land in rows, one of them the spare,
        # and every input column is read
        for n in range(2, 11):
            steps = core._network(n)
            assert all(lo <= n and hi <= n and lo != hi for _, _, lo, hi in steps)
            read = {a for a, b, _, _ in steps} | {b for a, b, _, _ in steps}
            assert set(range(n + 1, 2 * n + 1)) <= read

    def test_np_sort_outside_network_sizes(self, monkeypatch):
        # from each size's row cutoff on, np.sort sorts only the sizes the
        # network does not; below it, every size
        sorts = []
        sort = np.sort

        def counting(a, *args, **kwargs):
            sorts.append(a.shape)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting)
        top = core._NETWORK_SIZES
        for n, below in itertools.product((1, 2, 5, top, top + 1), (1, 0)):
            count = core._NETWORK_ROWS.get(n, 300) - below
            sorts.clear()
            core._sorted_columns(np.random.default_rng(n).uniform(size=(count, n)))
            # np.sort may sort in row chunks
            sorted_rows = [c for c, w in sorts if w == n]
            by_network = not below and 1 < n <= top
            assert len(sorted_rows) == len(sorts)
            assert sum(sorted_rows) == (0 if by_network else count), (n, count)

    @pytest.mark.parametrize("kind", PROCEDURE_KINDS)
    def test_ranked_rows_test_as_the_rows_do(self, kind, monkeypatch):
        # r and v from the sorted columns against the unsorted rows, which a
        # single step counts where they lie and any other procedure sorts,
        # for every count k1 of leading non-nulls, and against the mask
        # rejected_entries gives; at a row cutoff of 1 every sort but n = 1
        # runs the network, at 151 the ranked matrix's 200 rows do and the
        # 150 tested rows do not, and at the measured cutoffs (256 for 11
        # and 12) the side depends on the size
        rng = np.random.default_rng(PROCEDURE_KINDS.index(kind))
        monkeypatch.setattr(core, "_NETWORK_SIZES", 12)
        measured = {**dict.fromkeys(range(2, 13), 256), **core._NETWORK_ROWS}
        tables = [dict.fromkeys(range(2, 13), c) for c in (1, 151)] + [measured]
        for table, n in itertools.product(tables, range(1, 13)):
            monkeypatch.setattr(core, "_NETWORK_ROWS", table)
            matrix = np.where(
                rng.uniform(size=(200, 1)) < 0.5,
                tie_grids(rng, 200, n) * 0.1,
                rng.uniform(size=(200, n)) ** 3,
            )
            ranked = [core._sorted_columns(matrix).T]
            at = np.sort(rng.choice(200, size=150, replace=False))
            levels = rng.uniform(0.01, 0.9, size=at.size)
            if kind in ("step_up", "step_down"):
                crit = tuple(np.sort(rng.uniform(size=n)))
                proc, levels = Procedure(kind, critical_values=crit), None
            else:
                k = min(2, n) if kind == "lr_kfwer" else None
                proc = Procedure(kind, k=k)
            group_of = np.zeros(at.size, dtype=np.intp)
            mask, counts = rejected_entries(proc, matrix[at], levels)
            for k1 in range(n + 1):
                truth = [k1]
                want_r, want_v = adjust._test_rows(
                    proc, [matrix], truth, group_of, at, levels
                )
                r, v = adjust._test_rows(
                    proc, [matrix], truth, group_of, at, levels, ranked
                )
                assert r.tolist() == want_r.tolist() and v.tolist() == want_v.tolist()
                assert r.dtype == v.dtype == np.intp
                assert r.tolist() == counts.tolist()
                assert v.tolist() == mask[:, k1:].sum(axis=1).tolist()
            assert want_r.sum() > 0, (kind, n)


class MaxPThreshold(MinPThreshold):
    """Selects every family whose largest p-value is <= t: a min-p rule with
    its own summaries, so its families' summaries are not their minima."""

    def block_summaries(self, p):
        return np.maximum.reduce(np.moveaxis(p, -1, 0), axis=0)


class ScannedMinPThreshold(MinPThreshold):
    """A MinPThreshold that does not declare itself simple, so that an
    `rmin` adjustment scans for R_min rather than taking R."""

    is_simple = False


class TestEntryCutoffs:
    """A min-p rule's selected family is tested only if its smallest p-value
    meets the procedure's entry cutoff; the others reject nothing."""

    @pytest.mark.parametrize("t, c_s, frac", [(0.05, 2.0, 1 / 3), (1.0, 2 / 3, 1.0)])
    def test_score_of_a_hand_filled_block(self, t, c_s, frac):
        # every p-value is 1 but family 1's two, which are 0; a threshold
        # of 1 selects the families of 1 too, which miss the cutoff
        cfg = replace(example1_config(3, 2, reps=4), rule=MinPThreshold(t))
        cfg = replace(cfg, metric=ErrorMetric("pfer"), adjustment="simple")
        layout = sim._Layout(cfg)
        blocks = layout.blocks(4)
        blocks[0][:] = 1.0
        blocks[0][:, 1] = 0.0
        matrices = [blocks[0].reshape(-1, 2)]
        for entry in (sim._entry_table(cfg, layout), None):
            cs, got = sim._score(cfg, layout, blocks, matrices, entry)
            assert cs.tolist() == [c_s] * 4 and got.tolist() == [frac] * 4

    @pytest.mark.parametrize(
        "rule, adjustment", [(MinPThreshold(0.05), "none"), (TopKMinP(10), "simple")]
    )
    def test_only_families_that_can_reject_are_tested(
        self, rule, adjustment, monkeypatch
    ):
        # a table-1 scenario: Bonferroni inside rejects something only in a
        # family whose smallest p-value is at most its level / n
        cfg = replace(example1_config(100, 10, reps=200, seed=5), rule=rule)
        cfg = replace(cfg, adjustment=adjustment)
        tested = []
        test_rows = sim._test_rows

        def recording(procedure, matrices, truths, group_of, rows, levels, *args):
            p = matrices[0].take(rows, axis=0)
            assert (p.min(axis=1) <= levels / 10).all()
            tested.append(rows.size)
            return test_rows(procedure, matrices, truths, group_of, rows, levels, *args)

        monkeypatch.setattr(sim, "_test_rows", recording)
        estimate(cfg)
        mins = np.array(
            [[f.min() for f in generate(cfg, i).families] for i in range(200)]
        )
        if adjustment == "none":
            selected, level = mins <= 0.05, 0.05
        else:
            smallest = np.argsort(mins, 1, kind="stable")[:, :10]
            selected = np.zeros(mins.shape, dtype=bool)
            np.put_along_axis(selected, smallest, True, 1)
            level = 10 * 0.05 / 100
        want = (selected & (mins <= level / 10)).sum()
        assert sum(tested) == want and selected.sum() > 5 * want

    @pytest.mark.parametrize(
        "procedure, n, match",
        [
            (Procedure("step_up", critical_values=(1e-9,) * 2), 2, "cannot be"),
            (Procedure("step_down", critical_values=(1e-9,) * 2), 2, "cannot be"),
            (Procedure("lr_kfwer", k=3), 2, "k=3 out of range for 2"),
            (Procedure("lr_kfwer", k=3), [4, 2, 1, 3], "k=3 out of range"),
        ],
    )
    def test_errors_stay_where_every_selected_family_misses(
        self, procedure, n, match
    ):
        # on seed 1 no selected family's smallest p-value meets its entry
        # cutoff, yet the scenario raises what the analyses raise
        cfg = replace(example1_config(4, n, reps=3, seed=1), q=0.01)
        cfg = replace(cfg, rule=MinPThreshold(0.5), procedure=procedure)
        for i in range(3):
            for p in generate(cfg, i).families:
                cut = _entry_cutoffs(procedure, p.size, np.array([0.01]))[0]
                assert p.min() > 0.5 or p.min() > cut
        fast = values_or_error(_replicate_values, cfg, 0, 3)
        assert fast == values_or_error(object_values, cfg, 0, 3)
        assert fast[:2] == ("error", ValueError) and match in fast[2]

    def test_own_summaries_are_not_filtered(self, monkeypatch):
        # the largest p-value is no entry test: a filter on it would drop
        # families that reject
        cfg = replace(example1_config(6, [3, 1, 4, 2, 5, 2], reps=60, seed=8), q=0.2)
        cfg = replace(cfg, rule=MaxPThreshold(0.6), adjustment="simple")
        tested = recorded_test_rows(monkeypatch)
        cs, frac = _replicate_values(cfg, 0, 60)
        monkeypatch.undo()
        assert sum(tested) == np.rint(frac * 6).sum()
        monkeypatch.setattr(adjust, "_decide", textbook.looped_decide)
        want = object_values(cfg, 0, 60)
        assert cs.tobytes() == want[0].tobytes() and frac.tobytes() == want[1].tobytes()
        assert cs.max() > 0.0


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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_concordance_trials_below_one_refused(self, trials):
        cfg = ScenarioConfig(
            m=4,
            n=2,
            q=0.05,
            rule=MinPThreshold(0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("pfer"),
            replicates=10,
            dependence="equicorrelated",
            rho=0.5,
        )
        with pytest.raises(ValueError, match="trials must be at least 1"):
            prds_control_check(cfg, concordance_trials=trials)
