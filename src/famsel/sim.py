"""Monte Carlo harness: data generators and error-rate estimation.

Each replicate draws an ensemble, runs the configured analysis, and
records the realized average error measure over the selected families
together with the selected fraction. Results are bit-identical for any
worker count.

Stream layout 3 (`STREAM_LAYOUT`): the seed keys one PCG64 stream through
`SeedSequence`, read as uniform doubles of one 64-bit word each. A
replicate takes W words, one per p-value plus the shared factor under the
equicorrelated model, and replicate r's words start at word r * W. PCG64's
`advance(k)` skips exactly k doubles, so one `advance` reaches any
replicate, and every replicate's draws are the same whatever block or
worker reads them. A replicate's W words are its null p-values, family by
family, and then its non-null scores, family by family; under the
equicorrelated model they are the shared factor and then every score,
family by family. A score word u becomes the standard normal ndtri(u), with
a 0.0 word read as 2**-54, the middle of the interval [0, 2**-53) it stands
for, so that every score is finite. Both `generate` and the Monte Carlo
blocks draw in this layout (`_draw`), so every estimate's bits follow from
it.

Replicates run in blocks of at most _BLOCK_CELLS p-values, drawn into one
(B, count, n) array per family size, laid out as `PValueEnsemble` stores
an ensemble and allocated once per span, and the block is then summarized
and selected in a few batched calls per size. Its selected families get
their levels and are tested by the steps the public analyses in `adjust`
run (`_levels`, `_test_rows`), so an analysis is the one-replicate case of
a block. The tests compare each estimate with those analyses on every
replicate's `generate` ensemble, with the within-family test swapped for
one textbook call per family and, for R_min, with the candidate scan.
The rule must follow the rule protocol of `selection`, as every shipped
rule does. SciPy (only for normal scores), numpy.random and the process
pool are imported where first used, so importing famsel loads none of them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .adjust import _levels, _test_rows
from .core import ErrorMetric, PValueEnsemble, _last_axis_first, _metric_values
from .core import group_slots, size_groups
from .procedures import Procedure
from .selection import _check_rule, _summarize, check_concordant

ADJUSTMENTS = ("simple", "rmin", "none")
DEPENDENCE_MODELS = ("independent", "equicorrelated")
STREAM_LAYOUT = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario.

    m families of size n (an int, or one size per family). A fraction pi1 of
    each family's hypotheses is non-null with one-sided normal shift mu;
    pi1 = 0 is the all-null case. Under the equicorrelated model every test
    statistic shares a latent factor with weight sqrt(rho), which keeps the
    null p-values positively regression dependent.
    """

    m: int
    n: object
    q: float
    rule: object
    procedure: Procedure
    metric: ErrorMetric
    replicates: int
    seed: int = 0
    pi1: float = 0.0
    mu: float = 0.0
    dependence: str = "independent"
    rho: float = 0.0
    adjustment: str = "simple"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError("pi1 must lie in [0, 1]")
        # written so that NaN fails, as it does every other range check here
        if not 0.0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and nonnegative")
        if self.dependence not in DEPENDENCE_MODELS:
            raise ValueError(f"unknown dependence model {self.dependence!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.adjustment not in ADJUSTMENTS:
            raise ValueError(f"unknown adjustment {self.adjustment!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        sizes = self.sizes()
        if len(sizes) != self.m or any(s < 1 for s in sizes):
            raise ValueError("need one positive family size per family")

    def sizes(self) -> list:
        if isinstance(self.n, (int, np.integer)):
            return [int(self.n)] * self.m
        return [int(s) for s in self.n]


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate of E(C_S) and E(|S|/m)."""

    e_cs_hat: float
    e_sel_frac_hat: float
    se: float
    replicates: int

    def __post_init__(self):
        if self.e_cs_hat < 0.0 or self.se < 0.0:
            raise ValueError("estimates and standard errors are nonnegative")


def generate(
    config: ScenarioConfig, replicate_index: int, rng: np.random.Generator | None = None
) -> PValueEnsemble:
    """Draw one ensemble (with truth mask) under the scenario's model.

    Null p-values are uniform; non-null p-values are one-sided normal
    p-values 1 - Phi(Z + mu). The equicorrelated model builds every
    statistic from a shared factor, X = sqrt(rho) * Z0 + sqrt(1 - rho) * Z
    (+ mu for non-nulls), and sets p = 1 - Phi(X). The leading
    round(pi1 * n_i) hypotheses of each family are the non-null ones.

    The draws are replicate_index's words of the seed's stream, in the
    layout the module docstring gives. rng, when supplied, must sit at that
    replicate's offset, word replicate_index * W of the seed's stream; it is
    left at the next replicate's offset.
    """
    layout = _Layout(config)
    if rng is None:
        rng = _stream(config, layout, replicate_index)
    blocks = layout.blocks(1)
    _draw(config, layout, rng, blocks)
    truths = [
        np.repeat(nulls[None], len(block[0]), axis=0)
        for nulls, block in zip(layout.nulls, blocks)
    ]
    return PValueEnsemble._from_groups(
        layout.sizes, layout.groups, [block[0] for block in blocks], truths
    )


def _non_nulls(config: ScenarioConfig, n: int) -> int:
    """Number of leading non-null hypotheses in a family of size n."""
    return int(round(config.pi1 * n))


class _Layout:
    """A scenario's families, laid out as `PValueEnsemble` stores them, and
    where each p-value comes from in a replicate's stream.

    sizes holds each family's size, groups its `size_groups`, counts the
    number of families in each group, slots the (group, row) of each family
    and nulls each group's truth row: False on the leading non-null
    hypotheses, True after them.

    A replicate's `words` words, in the module docstring's order, open with
    `uniforms` null p-values drawn uniform (none under the equicorrelated
    model); its scores start at word `scores`, and shifted marks which of
    them get + mu. source[g] holds the word of each cell of group g's
    (count, n) matrix, in row-major order, and direct is True when a
    replicate's words are that matrix, so that replicates are drawn straight
    into the one group's block.
    """

    def __init__(self, config: ScenarioConfig):
        self.sizes = np.array(config.sizes())
        self.groups = size_groups(self.sizes)
        self.slots = group_slots(self.groups, self.sizes.size)
        self.counts = np.bincount(self.slots[0], minlength=len(self.groups))
        self.nulls = [np.arange(n) >= _non_nulls(config, n) for n, _ in self.groups]
        # every p-value in family order: its column, and whether it is null
        starts = np.cumsum(self.sizes) - self.sizes
        cells = int(self.sizes.sum())
        column = np.arange(cells) - np.repeat(starts, self.sizes)
        k1 = [_non_nulls(config, n) for n in self.sizes.tolist()]
        null = column >= np.repeat(k1, self.sizes)
        factor = int(config.dependence == "equicorrelated")
        uniform = null & (factor == 0)
        self.uniforms = int(uniform.sum())
        self.scores = self.uniforms + factor
        # uniform p-values first, then the scores, each in family order
        position = np.empty(cells, dtype=np.intp)
        position[np.argsort(~uniform, kind="stable")] = np.arange(cells)
        position[~uniform] += factor
        self.shifted = ~null[~uniform]
        self.words = self.scores + self.shifted.size
        self.source = [
            position[starts[families, None] + np.arange(n)].ravel()
            for n, families in self.groups
        ]
        self.direct = np.array_equal(self.source[0], np.arange(self.words))

    def blocks(self, b: int) -> list:
        """One empty (b, count, n) array per group."""
        return [
            np.empty((b, c, n))
            for (n, _), c in zip(self.groups, self.counts.tolist())
        ]


def _stream(config: ScenarioConfig, layout: _Layout, replicate_index: int):
    """A generator at replicate_index's offset in the seed's stream."""
    bitgen = np.random.PCG64(np.random.SeedSequence(config.seed))
    bitgen.advance(replicate_index * layout.words)
    return np.random.Generator(bitgen)


def _draw(config: ScenarioConfig, layout: _Layout, rng, blocks):
    """Fill blocks, `layout.blocks(B)`, with the next B replicates' p-values.

    rng sits at the first replicate's offset. One `random` fill reads the
    block's B * W words, which leaves rng at the offset of the replicate
    after the block, so the draws are the same for `generate` (B = 1) and
    the Monte Carlo blocks. The normal scores, the equicorrelated mixing,
    the shift and `ndtr` then run once over the block's scores, if any, and
    one gather per size group copies each cell from its word.
    """
    b = blocks[0].shape[0]
    if layout.direct:
        stream = blocks[0].reshape(b, -1)
    else:
        stream = np.empty((b, layout.words))
    rng.random(out=stream)
    k, s, w = layout.uniforms, layout.scores, layout.words
    if k < w:
        from scipy import special
        normal = stream[:, k:w]
        # only a 0.0 word lies below 2**-54; ndtri(0.0) is -inf
        special.ndtri(np.maximum(normal, 2.0**-54, out=normal), out=normal)
        z = stream[:, s:w]
        if config.dependence == "equicorrelated":
            z *= math.sqrt(1.0 - config.rho)
            z += (math.sqrt(config.rho) * stream[:, s - 1])[:, None]
        np.add(z, config.mu, out=z, where=layout.shifted)
        # an exact sign flip: NumPy 2.4's in-place np.negative reads a view
        # whose elements lie 64 bytes apart, such as one score in 8 words,
        # as if it were contiguous
        special.ndtr(np.multiply(z, -1.0, out=z), out=z)
    if not layout.direct:
        for source, block in zip(layout.source, blocks):
            np.take(stream, source, axis=1, out=block.reshape(b, -1), mode="clip")


# p-values drawn per block of replicates (at least one replicate per block).
_BLOCK_CELLS = 1 << 14


def _block_cells(layout: _Layout, step: int):
    """Each (replicate, family) cell of a block of step replicates, in
    row-major order: its replicate, family, group and row in the group's
    (step * count, n) matrix. A shorter block's cells are a prefix."""
    m = layout.sizes.size
    reps, fams = np.divmod(np.arange(step * m), m)
    group, at = layout.slots[:, fams]
    at += reps * layout.counts[group]
    return np.array([reps, fams, group, at])


def _block_values(
    config: ScenarioConfig, layout: _Layout, rng, blocks, matrices, cells
):
    """(C_S, |S|/m) of the next B replicates of rng.

    The block is drawn into blocks, prefixes of a full block's (step,
    count, n) arrays whose (step * count, n) views are matrices and whose
    cells are `_block_cells`, then summarized and selected as (B, m)
    arrays. Its selected (replicate, family) pairs are leveled and tested
    as the analyses do (`_levels`, `_test_rows`), and each replicate's
    metric values are summed in family order, as `average_over_selected`
    sums them, bit for bit.
    """
    rule, q, m = config.rule, config.q, config.m
    _draw(config, layout, rng, blocks)
    summaries = _summarize(rule, layout.groups, blocks)
    picked = rule.select_block(summaries)
    counts = np.add.reduce(_last_axis_first(picked), axis=0)
    values = np.zeros(picked.shape)
    tested = picked.ravel().nonzero()[0]
    if tested.size:
        reps, fams, group_of, at = cells.take(tested, axis=1)
        levels = _levels(rule, config.adjustment, q, summaries, fams, reps, counts)[1]
        r, v, _ = _test_rows(
            config.procedure, matrices, layout.nulls, group_of, at, levels
        )
        values.put(tested, _metric_values(config.metric, v, r))
    # cumsum's accumulation adds left to right, and adding the zeros of
    # unselected families leaves a sum unchanged.
    totals = np.add.accumulate(values, axis=1)[:, -1]
    return totals / np.maximum(counts, 1), counts / m


def _replicate_values(config: ScenarioConfig, start: int, stop: int):
    """Per-replicate (C_S, |S|/m) for replicate indices [start, stop)."""
    cs = np.empty(stop - start)
    frac = np.empty(stop - start)
    layout = _Layout(config)
    rng = _stream(config, layout, start)
    step = max(1, _BLOCK_CELLS // int(layout.sizes.sum()))
    full, cells = layout.blocks(step), _block_cells(layout, step)
    matrices = [block.reshape(-1, block.shape[2]) for block in full]
    for a in range(start, stop, step):
        b = min(a + step, stop)
        blocks = full if b - a == step else [block[: b - a] for block in full]
        block = _block_values(config, layout, rng, blocks, matrices, cells)
        cs[a - start : b - start], frac[a - start : b - start] = block
    return cs, frac


def estimate(config: ScenarioConfig, workers: int = 1) -> SimEstimate:
    """Monte Carlo estimate of E(C_S) and E(|S|/m) with its standard error.

    Replicates may be spread over up to `workers` worker processes, at most
    one per CPU; fixed per-replicate stream offsets and a fixed aggregation
    order make the result independent of workers. A rule outside the rule
    protocol raises UnsupportedRuleError.
    """
    _check_rule(config.rule)
    reps = config.replicates
    workers = min(workers or 1, reps, os.cpu_count() or 1)
    if workers < 2:
        cs, frac = _replicate_values(config, 0, reps)
    else:
        # workers <= reps, so every span holds a replicate
        edges = np.linspace(0, reps, num=workers + 1, dtype=int).tolist()
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_replicate_values, [config] * workers, edges[:-1], edges[1:])
            )
        cs = np.concatenate([p[0] for p in parts])
        frac = np.concatenate([p[1] for p in parts])
    se = float(cs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return SimEstimate(float(cs.mean()), float(frac.mean()), se, reps)


def closed_form_example1(q: float, m: int, n: int):
    """Exact (E(C_S), E(|S|/m)) for the min-p selection bias benchmark.

    The scenario: m all-null families of n uniform p-values, a family is
    selected when its minimal p-value is <= q, and each selected family runs
    Bonferroni at the unadjusted level q with C the at-least-one-error
    indicator. Then E(|S|/m) = 1 - (1-q)^n and

        E(C_S) = (1 - (1 - q/n)^n) * (1 - (1-q)^(n*m)) / (1 - (1-q)^n).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    sel_frac = 1.0 - (1.0 - q) ** n
    e_cs = (1.0 - (1.0 - q / n) ** n) * (1.0 - (1.0 - q) ** (n * m)) / sel_frac
    return e_cs, sel_frac


def prds_control_check(
    config: ScenarioConfig, workers: int = 1, concordance_trials: int = 200
) -> SimEstimate:
    """Estimate the dependent-case control quantity for a concordant rule.

    With Bonferroni inside, the estimated quantity is the expected average
    count of false rejections over the selected families; with BH inside it
    is the expected average false discovery proportion. Both run at the
    R_min-adjusted levels. The rule must survive the randomized concordance
    check; non-concordant rules are rejected.
    """
    if config.procedure.kind == "bonferroni":
        forced_metric = ErrorMetric("pfer")
    elif config.procedure.kind == "bh":
        forced_metric = ErrorMetric("fdr")
    else:
        raise ValueError(
            "the dependent-case guarantee covers bonferroni or bh inside"
        )
    probe = generate(config, 0)
    report = check_concordant(
        config.rule, probe, concordance_trials, seed=config.seed
    )
    if report.witness_found:
        raise ValueError(
            "selection rule failed the concordance check: raising p-values "
            f"outside family {report.family} moved R_min from "
            f"{report.r_min_before} to {report.r_min_after}"
        )
    forced = replace(config, metric=forced_metric, adjustment="rmin")
    return estimate(forced, workers=workers)
