"""Monte Carlo harness: data generators and error-rate estimation.

Each replicate draws an ensemble from an independent counter-based stream
keyed by (seed, replicate_index), runs the configured analysis, and records
the realized average error measure over the selected families together with
the selected fraction. Results are bit-identical for any worker count.

Replicates run in blocks of at most _BLOCK_CELLS p-values: each replicate
still draws from its own stream, in the order `generate` draws, into one
(B, count, n) array per family size, laid out as `PValueEnsemble` stores
an ensemble, and the block is then summarized, selected and tested in a
few batched calls per size. Every estimate equals, bit for bit, the
realized average error that the public analyses in `adjust` give for each
replicate's `generate` ensemble; the tests keep that per-replicate path as
the oracle.
The rule must summarize and select in blocks (block_summaries and
select_block), as every shipped rule does.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .core import (
    ErrorMetric,
    PValueEnsemble,
    _metric_values,
    group_slots,
    in_family_order,
    size_groups,
)
from .procedures import Procedure, rejected_entries
from .selection import _r_min_scan, check_concordant

ADJUSTMENTS = ("simple", "rmin", "none")
DEPENDENCE_MODELS = ("independent", "equicorrelated")


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


def _replicate_rng(seed: int, replicate_index: int) -> np.random.Generator:
    # Philox is counter based; keying by (seed, replicate) gives every
    # replicate its own stream independent of execution order. The key goes
    # in as uint64: a plain list with a value >= 2**63 passes through float64
    # and loses bits.
    key = np.array([seed, replicate_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _ReplicateStreams:
    """One reusable Philox generator, rekeyed per replicate.

    Resetting the bit generator's state to a fresh (seed, replicate) key
    yields exactly the stream a newly constructed generator would, without
    paying the construction cost inside the replicate loop. One state dict is
    kept at the start of a stream (zero counter, empty buffer, no cached
    32-bit half), and a rekey writes only the replicate slot of its key
    before setting it. The entries are Python ints, which the state setter
    casts to uint64 exactly and reads about twice as fast as a uint64
    array's elements. The state layout is NumPy's own, not a public API, so
    construction checks a rekeyed stream against a fresh one and raises
    RuntimeError if they differ.
    """

    def __init__(self, seed: int):
        self._gen = _replicate_rng(seed, 0)
        self._bitgen = self._gen.bit_generator
        self._key = [int(seed), 0]
        self._state = {
            **self._bitgen.state,
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        fresh = _replicate_rng(seed, 1).random(8)
        if not np.array_equal(self.rekey(1).random(8), fresh):
            raise RuntimeError(
                "rekeying numpy's Philox state no longer reproduces a fresh "
                "(seed, replicate) stream"
            )

    def rekey(self, replicate_index: int) -> np.random.Generator:
        # Setting the state copies the dict's values into the bit generator,
        # so the dict itself stays at the start of a stream.
        self._key[1] = replicate_index
        self._bitgen.state = self._state
        return self._gen


def generate(
    config: ScenarioConfig, replicate_index: int, rng: np.random.Generator | None = None
) -> PValueEnsemble:
    """Draw one ensemble (with truth mask) under the scenario's model.

    Null p-values are uniform; non-null p-values are one-sided normal
    p-values 1 - Phi(Z + mu). The equicorrelated model builds every
    statistic from a shared factor, X = sqrt(rho) * Z0 + sqrt(1 - rho) * Z
    (+ mu for non-nulls), and sets p = 1 - Phi(X). The leading
    round(pi1 * n_i) hypotheses of each family are the non-null ones.

    rng, when supplied, must sit at the start of the (seed, replicate_index)
    stream; the Monte Carlo loop passes a reused, rekeyed generator.
    """
    if rng is None:
        rng = _replicate_rng(config.seed, replicate_index)
    layout = _Layout(config)
    blocks = layout.blocks(1)
    _draw(config, layout, [rng], blocks)
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
    """A scenario's families, laid out as `PValueEnsemble` stores them.

    sizes holds each family's size, groups its `size_groups`, counts the
    number of families in each group, slots the (group, row) of each family
    and nulls each group's truth row: False on the leading non-null
    hypotheses, True after them.
    """

    def __init__(self, config: ScenarioConfig):
        self.sizes = np.array(config.sizes())
        self.groups = size_groups(self.sizes)
        self.slots = group_slots(self.groups, self.sizes.size)
        self.counts = np.bincount(self.slots[0], minlength=len(self.groups))
        self.nulls = [np.arange(n) >= _non_nulls(config, n) for n, _ in self.groups]

    def blocks(self, b: int) -> list:
        """One empty (b, count, n) array per group."""
        return [
            np.empty((b, c, n))
            for (n, _), c in zip(self.groups, self.counts.tolist())
        ]


def _to_pvalues(config: ScenarioConfig, x: np.ndarray, k1: int, z0):
    """Turn the drawn (B, c, n) block x into p-values in place.

    Independent: the k1 leading columns hold standard normal scores and the
    rest uniform p-values. Equicorrelated (z0 holds each replicate's shared
    factor): every column holds a standard normal score.
    """
    if z0 is None:
        if k1:
            z = x[:, :, :k1] + config.mu
            x[:, :, :k1] = special.ndtr(np.negative(z, out=z), out=z)
        return
    x *= math.sqrt(1.0 - config.rho)
    x += (math.sqrt(config.rho) * z0)[:, None, None]
    x[:, :, :k1] += config.mu
    special.ndtr(np.negative(x, out=x), out=x)


def _draw(config: ScenarioConfig, layout: _Layout, rngs, blocks):
    """Fill blocks, `layout.blocks(B)`, with B replicates' p-values.

    rngs yields B generators in turn, each at the start of its replicate's
    stream. This fixes the order of the draws from a replicate's stream for
    both `generate` (B = 1) and the Monte Carlo blocks. When every family
    has n p-values, each replicate costs one C fill per distribution:
    `random` for the null columns (bit for bit what `uniform` draws) and
    `standard_normal` for the non-null ones, or, under the equicorrelated
    model, the shared factor and then every score. Families of different
    sizes are filled one family at a time, straight into the family's row:
    its nulls and then its non-null scores, or, under the equicorrelated
    model, the shared factor first and then each family's scores. The
    transforms are elementwise and run once per group over the block.
    """
    b = len(blocks[0])
    z0 = np.empty(b) if config.dependence == "equicorrelated" else None
    ks = [_non_nulls(config, n) for n, _ in layout.groups]
    if len(blocks) > 1:
        fills = [
            (blocks[g], at, ks[g]) for g, at in zip(*layout.slots.tolist())
        ]
        for j, rng in enumerate(rngs):
            if z0 is not None:
                z0[j] = rng.standard_normal()
                for block, at, _ in fills:
                    rng.standard_normal(out=block[j, at])
            else:
                for block, at, k in fills:
                    row = block[j, at]
                    rng.random(out=row[k:])
                    rng.standard_normal(out=row[:k])
        for block, k in zip(blocks, ks):
            _to_pvalues(config, block, k, z0)
        return
    out, (k1,) = blocks[0], ks
    n = out.shape[2]
    if z0 is not None:
        for j, rng in enumerate(rngs):
            z0[j] = rng.standard_normal()
            rng.standard_normal(out=out[j])
        _to_pvalues(config, out, k1, z0)
        return
    # The null columns are drawn straight into out when there is no
    # non-null column before them; otherwise into a contiguous buffer.
    u = out if k1 == 0 else np.empty((b, out.shape[1], n - k1))
    z = np.empty((b, out.shape[1], k1))
    for j, rng in enumerate(rngs):
        if k1 < n:
            rng.random(out=u[j])
        if k1:
            rng.standard_normal(out=z[j])
    if k1:
        out[:, :, k1:] = u
        z += config.mu
        special.ndtr(np.negative(z, out=z), out=out[:, :, :k1])


# p-values drawn per block of replicates (at least one replicate per block).
_BLOCK_CELLS = 1 << 14


def _batch_test_counts(procedure: Procedure, rows, nulls, levels):
    """Rejection and false-rejection counts of (s, n) tested families of one
    size, at their levels; nulls is their size's truth row."""
    rejected, r = rejected_entries(procedure, rows, levels)
    return r, (rejected & nulls).sum(axis=1)


def _block_values(config: ScenarioConfig, layout: _Layout, streams, start, stop):
    """(C_S, |S|/m) of replicates [start, stop).

    The block is drawn into one (B, count, n) array per size group,
    summarized and selected as (B, m) arrays, and the selected
    (replicate, family) rows of each size are tested in one batched call,
    sizes in the order of their first selected row, so an error is the one
    the first failing row raises. Each replicate's metric values are
    summed in family order, as `average_over_selected` sums them, so every
    value equals the analysis objects' bit for bit.
    """
    rule, q, m = config.rule, config.q, config.m
    blocks = layout.blocks(stop - start)
    _draw(config, layout, map(streams.rekey, range(start, stop)), blocks)
    parts = [rule.block_summaries(p) for p in blocks]
    summaries = in_family_order(layout.groups, parts)
    picked = rule.select_block(summaries)
    counts = picked.sum(axis=1)
    values = np.zeros(picked.shape)
    tested = np.flatnonzero(picked)
    if tested.size:
        reps, fams = np.divmod(tested, m)
        if config.adjustment == "none":
            levels = np.full(reps.size, q)
        elif config.adjustment == "simple" or getattr(rule, "is_simple", False):
            levels = counts[reps] * q / m
        else:
            rmins = [_r_min_scan(rule, summaries[b], i) for b, i in zip(reps, fams)]
            levels = np.array(rmins) * q / m
        # each tested family's group, and its row in the group's block
        # seen as a (B * count, n) matrix
        group_of, at = layout.slots[:, fams]
        at += reps * layout.counts[group_of]
        c = np.empty(reps.size)
        # group ids stand in for sizes, one to one
        for g, rows in size_groups(group_of):
            block = blocks[g]
            r, v = _batch_test_counts(
                config.procedure,
                block.reshape(-1, block.shape[2]).take(at[rows], axis=0),
                layout.nulls[g],
                levels[rows],
            )
            c[rows] = _metric_values(config.metric, v, r)
        values.put(tested, c)
    # cumsum adds left to right, and adding the zeros of unselected
    # families leaves a sum unchanged.
    totals = np.cumsum(values, axis=1)[:, -1]
    return totals / np.maximum(counts, 1), counts / m


def _replicate_values(config: ScenarioConfig, start: int, stop: int):
    """Per-replicate (C_S, |S|/m) for replicate indices [start, stop)."""
    cs = np.empty(stop - start)
    frac = np.empty(stop - start)
    streams = _ReplicateStreams(config.seed)
    layout = _Layout(config)
    step = max(1, _BLOCK_CELLS // int(layout.sizes.sum()))
    for a in range(start, stop, step):
        b = min(a + step, stop)
        block = _block_values(config, layout, streams, a, b)
        cs[a - start : b - start], frac[a - start : b - start] = block
    return cs, frac


def estimate(config: ScenarioConfig, workers: int = 1) -> SimEstimate:
    """Monte Carlo estimate of E(C_S) and E(|S|/m) with its standard error.

    Replicates may be spread over worker processes; per-replicate streams
    and a fixed aggregation order make the result independent of workers.
    The rule must summarize and select in blocks, as every shipped rule does.
    """
    methods = ("block_summaries", "select_block")
    missing = [name for name in methods if not hasattr(config.rule, name)]
    if missing:
        needed = " and ".join(missing)
        raise ValueError(f"the Monte Carlo harness needs a rule with {needed}")
    reps = config.replicates
    if workers is None or workers < 2 or reps < 2:
        cs, frac = _replicate_values(config, 0, reps)
    else:
        edges = np.linspace(0, reps, num=min(workers, reps) + 1, dtype=int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(
                pool.map(
                    _replicate_values,
                    [config] * len(spans),
                    [a for a, _ in spans],
                    [b for _, b in spans],
                )
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
