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

Replicates run in blocks (`_block_step`) of _BLOCK_CELLS p-values, or of
_BLOCK_REPLICATES replicates where those fit in 4 * _BLOCK_CELLS p-values,
so that wide replicates do not pay a block's fixed cost a few at a time; a
block holds at most 4 * _BLOCK_CELLS p-values (2 MB of float64) or one
replicate, and never more replicates than its span. A block is drawn (`_draw`)
into one (B, count, n) array per family size, laid out as `PValueEnsemble`
stores an ensemble and allocated once per span, and then scored (`_score`):
summarized and selected in a few batched calls per size. A rule whose
summaries read sorted rows (Simes) has each size's rows sorted once
(`core._sorted_columns`, into `_last_axis_first`'s layout), and reads them
as a row-sorted view of that memory; the test of the selected rows gathers
their columns from it, so no copy of the block is made. Under another
rule the test gathers the tested rows, and sorts them with the same
kernel if the procedure reads ranks. A span also keeps one workspace
(`_Workspace`), sized by its first block: each block reads its stream
words, sorts its rows, and gathers its tested columns and builds their
critical values and hits in it, and the Fisher and Stouffer combiners
and rows past the network's sizes run in row chunks (`core._row_chunks`),
so that a block builds no other array as large as its p-values, only
arrays of one value per (replicate, family) pair. Its selected families
get their levels as the public analyses in `adjust` do (`_levels`) and
are tested with their sort, count and bound (`_test_rows`), so an
analysis is the one-replicate case of a block. Under a min-p rule
(`MinPThreshold`, `TopKMinP`) a selected family's count is its
replicate's R, so before any cell is gathered a block reads each
replicate's entry cutoffs (`procedures._entry_cutoffs`) at the level of
its R, and tests a selected family only if its summary, its smallest
p-value, meets its size's cutoff; any other family rejects nothing, so its
error is 0.0 under every metric. Under "rmin" a rule that is not simple
is not filtered, as its R_min can lie below R. Each family puts its
non-null hypotheses first, so a block's truth is each size's count of
leading non-nulls: a family's false rejections are all its rejections
where that count is 0, as in every all-null scenario, and its rejections
from that column on otherwise. A replicate's total is summed from its
tested cells alone. The tests compare each estimate with those analyses
on every replicate's `generate` ensemble, with the within-family test
swapped for one textbook call per family and, for R_min, with the
candidate scan.
The rule must follow the rule protocol of `selection`, as every shipped
rule does. SciPy (only for normal scores), numpy.random and the process
pool are imported where first used, so importing famsel loads none of them.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .adjust import _level_of, _levels, _test_rows
from .core import ErrorMetric, PValueEnsemble, _last_axis_first, _metric_values
from .core import _sorted_columns, group_slots, size_groups
from .procedures import Procedure, _check_testable, _entry_cutoffs
from .selection import _MinPSelection, _check_rule, _summarize, check_concordant

ADJUSTMENTS = ("simple", "rmin", "none")
DEPENDENCE_MODELS = ("independent", "equicorrelated")
STREAM_LAYOUT = 3


def _check_integer(name: str, value):
    """Refuse a value that is not a Python or NumPy integer, naming it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario.

    m families of size n (an int, or one size per family); m, n's sizes,
    replicates and seed are Python or NumPy integers. A fraction pi1 of
    each family's hypotheses is non-null with one-sided normal shift mu;
    pi1 = 0 is the all-null case. Under the equicorrelated model every test
    statistic shares a latent factor with weight sqrt(rho), which keeps the
    null p-values positively regression dependent; the independent model
    has no such factor, and takes only rho = 0.
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
        for name in ("m", "replicates", "seed"):
            _check_integer(name, getattr(self, name))
        uniform = isinstance(self.n, (int, np.integer))
        if not uniform and not (
            np.iterable(self.n) and all(isinstance(s, (int, np.integer)) for s in self.n)
        ):
            raise ValueError("n must be an integer or one integer per family")
        if not 1 <= self.m < 2**63:
            raise ValueError("m must lie in [1, 2**63)")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        # no float64 array holds 2**60 values, 2**63 bytes
        if self.replicates >= 2**60:
            raise ValueError("replicates must be below 2**60")
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError("pi1 must lie in [0, 1]")
        # written so that NaN fails, as it does every other range check here
        if not 0.0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and nonnegative")
        if self.dependence not in DEPENDENCE_MODELS:
            raise ValueError(f"unknown dependence model {self.dependence!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.rho != 0.0 and self.dependence == "independent":
            raise ValueError("rho must be 0 under the independent dependence model")
        if self.adjustment not in ADJUSTMENTS:
            raise ValueError(f"unknown adjustment {self.adjustment!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        # an int n is checked as it is, before sizes() lists m copies of it
        sizes = [int(self.n)] if uniform else self.sizes()
        if len(sizes) != (1 if uniform else self.m) or any(s < 1 for s in sizes):
            raise ValueError("need one positive family size per family")
        # the layout's int64 index arrays come from np.arange, which raises
        # ValueError, not MemoryError, from 2**60 - 64 elements on
        if (sizes[0] * self.m if uniform else sum(sizes)) >= 2**59:
            raise ValueError("the m family sizes n must total under 2**59 p-values")

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
    replicate_index = operator.index(replicate_index)
    if replicate_index < 0:
        raise ValueError("replicate_index must be non-negative")
    layout = _Layout(config)
    if rng is None:
        rng = _stream(config, layout, replicate_index)
    blocks = layout.blocks(1)
    _draw(config, layout, rng, blocks)
    truths = [
        np.repeat((np.arange(n) >= k1)[None], len(block[0]), axis=0)
        for (n, _), k1, block in zip(layout.groups, layout.non_nulls, blocks)
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
    and non_nulls each group's number of leading non-null hypotheses, its
    families' truth rows being False on those columns and True after them.

    A replicate's `words` words, in the module docstring's order, open with
    `uniforms` null p-values drawn uniform (none under the equicorrelated
    model); its scores start at word `scores`, and offset holds -mu for each
    score that gets + mu and -0.0 for the others. source[g] holds the word of
    each cell of group g's (count, n) matrix, in row-major order, and direct
    is True when a replicate's words are that matrix, so that replicates are
    drawn straight into the one group's block.
    """

    def __init__(self, config: ScenarioConfig):
        self.sizes = np.array(config.sizes())
        self.groups = size_groups(self.sizes)
        self.slots = group_slots(self.groups, self.sizes.size)
        self.counts = np.bincount(self.slots[0], minlength=len(self.groups))
        self.non_nulls = [_non_nulls(config, n) for n, _ in self.groups]
        # every p-value in family order: its column, and whether it is null
        starts = np.cumsum(self.sizes) - self.sizes
        cells = int(self.sizes.sum())
        column = np.arange(cells) - np.repeat(starts, self.sizes)
        k1 = np.array(self.non_nulls)[self.slots[0]]
        null = column >= np.repeat(k1, self.sizes)
        factor = int(config.dependence == "equicorrelated")
        uniform = null & (factor == 0)
        self.uniforms = int(uniform.sum())
        self.scores = self.uniforms + factor
        # uniform p-values first, then the scores, each in family order
        scored = self.scores + np.cumsum(~uniform)
        position = np.where(uniform, np.cumsum(uniform), scored) - 1
        shifted = ~null[~uniform]
        self.offset = np.where(shifted, -config.mu, -0.0)
        self.words = self.scores + shifted.size
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


def _draw(config: ScenarioConfig, layout: _Layout, rng, blocks, empty=np.empty):
    """Fill blocks, `layout.blocks(B)`, with the next B replicates' p-values.

    rng sits at the first replicate's offset. One `random` fill reads the
    block's B * W words, which leaves rng at the offset of the replicate
    after the block, so the draws are the same for `generate` (B = 1) and
    the Monte Carlo blocks. The normal scores, the equicorrelated mixing,
    the shift and `ndtr` then run once over the block's scores, if any, and
    one gather per size group copies each cell from its word. The words are
    read into the blocks where the layout is direct, and else into memory
    from empty (np.empty's signature).
    """
    b = blocks[0].shape[0]
    if layout.direct:
        stream = blocks[0].reshape(b, -1)
    else:
        stream = empty((b, layout.words))
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
        # shift and sign flip in one exact step, as rounding to nearest is
        # symmetric: (-mu) - z is -(z + mu) and -0.0 - z is -z up to a zero's
        # sign, which ndtr ignores. (NumPy 2.4's in-place np.negative reads a
        # view of one score in 8 words, 64 bytes apart, as if contiguous.)
        special.ndtr(np.subtract(layout.offset, z, out=z), out=z)
    if not layout.direct:
        for source, block in zip(layout.source, blocks):
            np.take(stream, source, axis=1, out=block.reshape(b, -1), mode="clip")


# p-values drawn per block of replicates, and the replicates a block holds
# at least if they fit in 4 * _BLOCK_CELLS p-values (`_block_step`). With
# every block-sized array in the span's workspace, a larger block pays its
# fixed cost less often and makes no page fault: on Simes/BH estimates like
# mc-signal-simes's (m = 20, n = 6, 2-vCPU host) a round cost 0.30 of the
# benchmark's yardstick at 2**14, 0.26 at 2**15 and 0.25-0.26 at 2**16 and
# at 2**17, where the workspace and blocks took 2.4 MB more peak memory than
# at 2**16; the table-1 min-p estimates cost 0.41 at 2**14 and 0.40 at 2**16,
# and Fisher, Stouffer and n = 12-20 Simes estimates (m = 20, 1,000
# replicates, in process) took 0.85-0.98 of their time at 2**14 in the code
# before the workspace.
_BLOCK_CELLS = 1 << 16
_BLOCK_REPLICATES = 32


def _block_step(cells: int, span: int) -> int:
    """The replicates a block holds, for replicates of cells p-values each
    and a span of span replicates: _BLOCK_CELLS p-values' worth, or
    _BLOCK_REPLICATES if they fit in 4 * _BLOCK_CELLS p-values, whichever is
    more; at least one, and at most the span, so that a short span builds no
    full-size block."""
    floor = min(_BLOCK_REPLICATES, 4 * _BLOCK_CELLS // cells)
    return max(1, min(span, max(_BLOCK_CELLS // cells, floor)))


def _cells_of(layout: _Layout, tested: np.ndarray):
    """The replicate, family, group and row in the group's (B * count, n)
    matrix of each (replicate, family) cell of a block at the flat indices
    tested, cells being in row-major order: a divmod by m, then the
    family's slot (`layout.slots`) offset by the replicate's rows."""
    m = layout.sizes.size
    reps = tested // m
    fams = tested - reps * m
    group, row = layout.slots[0].take(fams), layout.slots[1].take(fams)
    return reps, fams, group, row + reps * layout.counts.take(group)


class _Workspace:
    """A span's scratch memory: `empty`, with np.empty's signature, hands out
    the next free region of it, at a multiple of 64 bytes, and `rewind` frees
    all of it for the next step. A request past its end is allocated by
    np.empty and still counted, and the next `rewind` grows the memory to
    twice the most that was asked for at once: a span's first block sizes
    it, and a later block that tests more rows than the first still fits,
    while the pages it never touches cost no memory. A short workspace costs
    time, never a bit."""

    def __init__(self):
        self.memory = np.empty(0, dtype=np.uint8)
        self.used = self.peak = 0

    def empty(self, shape, dtype=np.float64):
        try:
            out = np.ndarray(shape, dtype, self.memory, self.used)
        except TypeError:  # past the end of the memory
            out = np.empty(shape, dtype)
        self.used += -(-out.nbytes // 64) * 64
        self.peak = max(self.peak, self.used)
        return out

    def rewind(self):
        if self.peak > self.memory.size:
            self.memory = np.empty(2 * self.peak, dtype=np.uint8)
        self.used = 0


def _entry_table(config: ScenarioConfig, layout: _Layout):
    """Each size group's entry cutoffs (`_entry_cutoffs`) at the level of
    each count 0..m, a (groups, m + 1) array computed at most _BLOCK_CELLS
    critical values at a time, under a rule whose summaries are the shipped
    min-p ones; None under any other, and under "rmin" for a rule that is
    not simple, whose R_min can lie below R. A group the procedure cannot
    test at a level gets +inf, so that its rows reach `_test_rows` and
    raise there as an analysis does."""
    min_p = _MinPSelection.block_summaries
    simple = config.adjustment != "rmin" or getattr(config.rule, "is_simple", False)
    if getattr(type(config.rule), "block_summaries", None) is not min_p or not simple:
        return None
    m, procedure = config.m, config.procedure
    levels = _level_of(config.adjustment, config.q, np.arange(m + 1), m)
    table = np.full((len(layout.groups), m + 1), np.inf)
    for g, (n, _) in enumerate(layout.groups):
        try:
            _check_testable(procedure, n, levels)
        except ValueError:
            continue
        step = max(1, _BLOCK_CELLS // n)
        for a in range(0, m + 1, step):
            table[g, a : a + step] = _entry_cutoffs(procedure, n, levels[a : a + step])
    return table


def _score(
    config: ScenarioConfig, layout: _Layout, blocks, matrices, entry, empty=np.empty
):
    """(C_S, |S|/m) of the B replicates drawn into blocks.

    blocks are prefixes of a full block's (step, count, n) arrays whose
    (step * count, n) views are matrices; they are summarized and selected
    as (B, m) arrays. The selected (replicate, family) pairs are leveled and
    tested as the analyses do (`_levels`, `_test_rows`), with each size's
    count of leading non-nulls for a truth, and each replicate's metric
    values are summed from its tested cells in family order, as
    `average_over_selected` sums them, bit for bit. entry is the span's
    `_entry_table`: where it is not None, each replicate's cutoffs are read
    at its count R before any cell is gathered, and a selected family whose
    summary, its smallest p-value, lies above its size's cutoff is not
    tested. It would reject nothing, so its value is 0.0 under every metric
    and leaves its replicate's sum as it is. Sorted rows and the tests'
    arrays take their memory from empty (np.empty's signature): under a rule
    that ranks rows the block's rows are sorted, and else `_test_rows`
    sorts the tested ones, if its procedure reads ranks.
    """
    rule, q, m, procedure = config.rule, config.q, config.m, config.procedure
    ranked = None
    if getattr(rule, "ranks_rows", False):
        ranked = [_sorted_columns(p.reshape(-1, p.shape[2]), empty).T for p in blocks]
    summaries = _summarize(rule, layout.groups, blocks, ranked)
    picked = rule.select_block(summaries)
    counts = np.add.reduce(_last_axis_first(picked), axis=0)
    if entry is not None:
        cut = entry.take(counts, axis=1).T  # (B, groups)
        cut = cut if cut.shape[1] == 1 else cut.take(layout.slots[0], axis=1)
        picked = picked & (summaries <= cut)
    reps, fams, group_of, at = _cells_of(layout, picked.ravel().nonzero()[0])
    _, levels = _levels(rule, config.adjustment, q, summaries, fams, reps, counts)
    if not reps.size:
        return np.zeros(counts.size), counts / m
    r, v = _test_rows(
        procedure, matrices, layout.non_nulls, group_of, at, levels, ranked, empty
    )
    # bincount adds each weight to its bin in input order, and the tested
    # cells ascend, so each replicate's values are summed left to right in
    # family order, as cumsum and `average_over_selected` sum them.
    totals = np.bincount(
        reps, weights=_metric_values(config.metric, v, r), minlength=counts.size
    )
    return totals / np.maximum(counts, 1), counts / m


def _replicate_values(config: ScenarioConfig, start: int, stop: int):
    """Per-replicate (C_S, |S|/m) for replicate indices [start, stop)."""
    cs = np.empty(stop - start)
    frac = np.empty(stop - start)
    layout = _Layout(config)
    rng = _stream(config, layout, start)
    step = _block_step(int(layout.sizes.sum()), stop - start)
    full = layout.blocks(step)
    matrices = [block.reshape(-1, block.shape[2]) for block in full]
    entry = _entry_table(config, layout)
    work = _Workspace()
    for a in range(start, stop, step):
        b = min(a + step, stop)
        blocks = full if b - a == step else [block[: b - a] for block in full]
        work.rewind()
        _draw(config, layout, rng, blocks, work.empty)
        # the stream is spent once the blocks are drawn
        work.rewind()
        block = _score(config, layout, blocks, matrices, entry, work.empty)
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
    reps = int(config.replicates)
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

    m and n are Python or NumPy integers, as in `ScenarioConfig`.
    """
    _check_integer("m", m)
    _check_integer("n", n)
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
