import numpy as np
import pytest
import textbook

from famsel import adjust
from famsel.adjust import (
    NonConvergenceError,
    guaranteed_rejection_analysis,
    iterative_simple_adjusted,
    selection_adjusted,
    simple_selection_adjusted,
    unadjusted_analysis,
)
from famsel.core import ErrorMetric, FamilyDecision, PValueEnsemble, metric_value
from famsel.procedures import PROCEDURE_KINDS, Procedure, bh
from famsel.selection import GlobalNullTest, MinPThreshold, TopKMinP, combine


def singleton_ensemble(values):
    return PValueEnsemble([[v] for v in values])


class TestSimpleSelectionAdjusted:
    def test_select_all_reduces_to_level_q(self):
        # a rule that always selects everything implies no adjustment
        ens = PValueEnsemble(np.random.default_rng(0).uniform(size=(8, 4)))
        analysis = simple_selection_adjusted(
            ens, MinPThreshold(1.0), Procedure("bh"), 0.05
        )
        assert analysis.selection.r == 8
        assert all(d.adjusted_level == pytest.approx(0.05) for d in analysis.decisions)
        for d, fam in zip(analysis.decisions, ens.families):
            assert set(d.rejected) == set(bh(fam, 0.05))

    def test_adjusted_level_arithmetic(self):
        # 40 of 100 families selected at q=0.05 gives level 0.02 in each
        minp = np.concatenate([np.full(40, 0.001), np.full(60, 0.9)])
        ens = PValueEnsemble(minp[:, None])
        analysis = simple_selection_adjusted(
            ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05
        )
        assert analysis.selection.r == 40
        assert all(
            d.adjusted_level == pytest.approx(0.02) for d in analysis.decisions
        )

    def test_decisions_only_for_selected(self):
        ens = PValueEnsemble([[0.001, 0.2], [0.8, 0.9]])
        analysis = simple_selection_adjusted(
            ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05
        )
        assert analysis.selection.selected == {0}
        assert [d.family_id for d in analysis.decisions] == [0]

    def test_truth_fills_realized_error(self):
        ens = PValueEnsemble(
            [[0.001, 0.002, 0.9]], truth=[[True, False, True]]
        )
        analysis = simple_selection_adjusted(
            ens,
            MinPThreshold(0.05),
            Procedure("bonferroni"),
            0.6,
            metric=ErrorMetric("fdr"),
        )
        (decision,) = analysis.decisions
        assert set(decision.rejected) == {0, 1}
        assert decision.v == 1
        assert decision.q_i == pytest.approx(0.5)
        assert decision.realized_c == pytest.approx(0.5)
        assert analysis.average_error() == pytest.approx(0.5)

    def test_q_validated(self):
        ens = singleton_ensemble([0.5])
        with pytest.raises(ValueError):
            simple_selection_adjusted(ens, MinPThreshold(0.5), Procedure("bh"), 1.5)


class TestSelectionAdjusted:
    def test_reduces_to_simple_for_simple_rules(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ens = PValueEnsemble(
                rng.uniform(size=(6, 3)), truth=rng.uniform(size=(6, 3)) < 0.7
            )
            for rule in (
                MinPThreshold(0.4),
                TopKMinP(3),
                GlobalNullTest("simes", Procedure("bh"), level=0.4),
            ):
                a = simple_selection_adjusted(
                    ens, rule, Procedure("bh"), 0.1, metric=ErrorMetric("fdr")
                )
                b = selection_adjusted(
                    ens, rule, Procedure("bh"), 0.1, metric=ErrorMetric("fdr")
                )
                assert a.selection.selected == b.selection.selected
                for da, db in zip(a.decisions, b.decisions):
                    assert da.adjusted_level == db.adjusted_level
                    assert np.array_equal(da.rejected, db.rejected)
                    assert da.realized_c == db.realized_c

    def test_two_stage_uses_r_min_levels(self):
        # the three-singleton adaptive configuration: R = 3 but the middle
        # family can only guarantee 2 selections, so it is tested at 2q/m
        ens = singleton_ensemble([0.01, 0.02, 0.10])
        rule = GlobalNullTest("bonferroni_min", Procedure("two_stage"), level=0.05)
        analysis = selection_adjusted(ens, rule, Procedure("bonferroni"), 0.05)
        assert analysis.selection.r == 3
        assert analysis.selection.r_min == {0: 3, 1: 2, 2: 3}
        levels = {d.family_id: d.adjusted_level for d in analysis.decisions}
        assert levels[1] == pytest.approx(2 * 0.05 / 3)
        assert levels[0] == pytest.approx(0.05)
        assert levels[2] == pytest.approx(0.05)

    def test_empty_selection(self):
        ens = singleton_ensemble([0.9, 0.95])
        analysis = selection_adjusted(
            ens, MinPThreshold(0.05), Procedure("bh"), 0.05
        )
        assert analysis.selection.r == 0
        assert analysis.decisions == []
        assert analysis.average_error() == 0.0


class TestUnadjusted:
    def test_tests_at_fixed_level(self):
        ens = PValueEnsemble([[0.01, 0.2], [0.9, 0.9], [0.02, 0.3]])
        analysis = unadjusted_analysis(
            ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05
        )
        assert analysis.selection.selected == {0, 2}
        assert all(d.adjusted_level == 0.05 for d in analysis.decisions)


class TestIterative:
    def test_hand_traced_fixed_point(self):
        # selects {0,1} at level 2q/3, rejects only the first, then settles
        ens = singleton_ensemble([0.01, 0.04, 0.2])
        analysis = iterative_simple_adjusted(
            ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05
        )
        assert analysis.selection.selected == {0}
        (decision,) = analysis.decisions
        assert decision.adjusted_level == pytest.approx(0.05 / 3)
        assert set(decision.rejected) == {0}

    def test_all_ones_terminates_empty(self):
        ens = singleton_ensemble([1.0, 1.0, 1.0])
        analysis = iterative_simple_adjusted(
            ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05
        )
        assert analysis.selection.r == 0
        assert analysis.decisions == []

    def test_bh_equivalence_on_random_ensembles(self):
        rng = np.random.default_rng(7)
        for t in range(200):
            m = int(rng.integers(1, 51))
            pooled = rng.uniform(size=m)
            q = (0.01, 0.05, 0.1)[t % 3]
            analysis = iterative_simple_adjusted(
                singleton_ensemble(pooled),
                MinPThreshold(q),
                Procedure("bonferroni"),
                q,
            )
            got = {d.family_id for d in analysis.decisions}
            assert got == set(bh(pooled, q).tolist())

    def test_non_convergence_error_carries_trajectory(self):
        ens = singleton_ensemble([0.01, 0.04, 0.2])
        with pytest.raises(NonConvergenceError) as info:
            iterative_simple_adjusted(
                ens, MinPThreshold(0.05), Procedure("bonferroni"), 0.05, max_iters=1
            )
        assert info.value.trajectory[0] == frozenset({0, 1})

    def test_last_family_dropping_out_is_a_fixed_point(self):
        # one selected family without a rejection: the first round empties
        # the selection, which needs no second round within max_iters = m
        analysis = iterative_simple_adjusted(
            singleton_ensemble([0.04]), MinPThreshold(0.05), Procedure("bonferroni"), 0.01
        )
        assert analysis.selection.r == 0 and analysis.decisions == []

    def test_selected_sets_shrink(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ens = PValueEnsemble(rng.uniform(size=(10, 3)) ** 2)
            analysis = iterative_simple_adjusted(
                ens, MinPThreshold(0.2), Procedure("bh"), 0.1
            )
            assert analysis.selection.r <= ens.m
            for d in analysis.decisions:
                assert d.rejected.size > 0


class TestAdaptiveSelectionControl:
    """R_min-adjusted levels keep E(C_S) at q even for non-simple selection."""

    @pytest.mark.parametrize("pi1, mu, seed", [(0.0, 0.0, 56), (0.5, 2.5, 55)])
    def test_two_stage_selection_stays_controlled(self, pi1, mu, seed):
        from famsel.sim import ScenarioConfig, estimate

        config = ScenarioConfig(
            m=6,
            n=1,
            q=0.05,
            rule=GlobalNullTest("bonferroni_min", Procedure("two_stage"), level=0.05),
            procedure=Procedure("bonferroni"),
            metric=ErrorMetric("fwer"),
            replicates=10000,
            seed=seed,
            pi1=pi1,
            mu=mu,
            adjustment="rmin",
        )
        est = estimate(config)
        assert est.e_cs_hat <= 0.05 + 3 * est.se


class TestGuaranteedRejection:
    def test_every_selected_family_rejects(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 6))
            ens = PValueEnsemble(rng.uniform(size=(m, n)) ** 2)
            analysis = guaranteed_rejection_analysis(ens, 0.05)
            for d in analysis.decisions:
                assert d.rejected.size > 0

    def test_single_family_boundary(self):
        # Simes p-value 0.04 <= q = 0.05 with m = 1: selected, one rejection
        ens = PValueEnsemble([[0.04, 0.9]])
        assert combine("simes", [0.04, 0.9]) == pytest.approx(0.08)
        analysis = guaranteed_rejection_analysis(PValueEnsemble([[0.04]]), 0.05)
        assert analysis.selection.r == 1
        assert analysis.decisions[0].rejected.size == 1

    def test_empty_selection_is_vacuous(self):
        ens = PValueEnsemble([[0.9, 0.95], [0.8, 0.99]])
        analysis = guaranteed_rejection_analysis(ens, 0.05)
        assert analysis.selection.r == 0
        assert analysis.decisions == []


def looped_decide(ensemble, selected, levels, procedure, metric):
    """The per-family decisions the batched _decide replaced: one textbook
    procedure call per selected family."""
    decisions = []
    for i, level in zip(selected, levels):
        rejected = textbook.apply(procedure, ensemble.family(i), level)
        decision = FamilyDecision(ensemble.id_of(i), level, rejected)
        truth = ensemble.truth_family(i)
        if truth is not None:
            r = int(rejected.size)
            v = int(truth[rejected].sum())
            decision.v = v
            decision.q_i = v / max(r, 1)
            if metric is not None:
                decision.realized_c = metric_value(metric, v, r)
        decisions.append(decision)
    return decisions


def analysis_outcome(run):
    """Everything an analysis returns, or the error it raises."""
    try:
        analysis = run()
    except ValueError as err:
        return ("error", type(err), str(err))
    decisions = [
        (
            d.family_id,
            d.adjusted_level,
            type(d.adjusted_level),
            d.rejected.tolist(),
            d.rejected.dtype,
            d.v,
            d.q_i,
            d.realized_c,
        )
        for d in analysis.decisions
    ]
    outcome = analysis.selection
    return ("ok", outcome.selected, outcome.r, outcome.r_min, decisions)


class TestBatchedDecisions:
    """One batched _decide against one textbook procedure call per family."""

    ENTRY_POINTS = ("simple", "rmin", "unadjusted", "iterative")

    @staticmethod
    def _procedure(kind, rng, n):
        if kind in ("step_up", "step_down"):
            crit = np.sort(rng.choice([0.0, 0.01, 0.05, 0.2, 0.4], size=n))
            return Procedure(kind, critical_values=tuple(crit))
        if kind == "lr_kfwer":
            return Procedure(kind, k=int(rng.integers(1, n + 2)))
        return Procedure(kind)

    @staticmethod
    def _ensemble(rng, ragged):
        m = int(rng.integers(1, 12))
        sizes = rng.integers(1, 6, size=m) if ragged else [int(rng.integers(1, 6))] * m
        # a small pool of values gives ties, 0 and 1
        pool = np.concatenate([[0.0, 1.0, 0.01, 0.02], rng.uniform(size=6) ** 3])
        families = [rng.choice(pool, size=int(n)) for n in sizes]
        truth = [rng.uniform(size=int(n)) < 0.6 for n in sizes]
        if not ragged:
            families, truth = np.array(families), np.array(truth)
        ids = [f"f{i}" for i in range(m)] if rng.uniform() < 0.5 else None
        return PValueEnsemble(families, family_ids=ids, truth=truth)

    @staticmethod
    def _run(entry, ensemble, rule, procedure, level):
        metric = ErrorMetric("fdr")
        if entry == "simple":
            return simple_selection_adjusted(ensemble, rule, procedure, level, metric)
        if entry == "rmin":
            return selection_adjusted(ensemble, rule, procedure, level, metric)
        if entry == "iterative":
            return iterative_simple_adjusted(
                ensemble, rule, procedure, level, metric=metric
            )
        if procedure.critical_values is not None:
            level = None
        return unadjusted_analysis(ensemble, rule, procedure, level, metric)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("kind", PROCEDURE_KINDS)
    def test_matches_apply_per_family(self, kind, ragged, monkeypatch):
        rng = np.random.default_rng([PROCEDURE_KINDS.index(kind), ragged])
        rules = (
            MinPThreshold(0.3),
            TopKMinP(1),
            GlobalNullTest("simes", Procedure("two_stage"), level=0.4),
            GlobalNullTest("bonferroni_min", Procedure("bh"), level=0.3),
        )
        decided = errors = 0
        for case in range(40):
            ensemble = self._ensemble(rng, ragged)
            procedure = self._procedure(kind, rng, ensemble.size(0))
            rule = rules[case % len(rules)]
            level = float(rng.choice([0.05, 0.3, 0.9]))
            for entry in self.ENTRY_POINTS:
                batched = analysis_outcome(
                    lambda: self._run(entry, ensemble, rule, procedure, level)
                )
                with monkeypatch.context() as patch:
                    patch.setattr(adjust, "_decide", looped_decide)
                    looped = analysis_outcome(
                        lambda: self._run(entry, ensemble, rule, procedure, level)
                    )
                assert batched == looped, (case, entry)
                decided += batched[0] == "ok" and len(batched[4]) > 0
                errors += batched[0] == "error"
        assert decided >= 5
        if kind in ("step_up", "step_down"):
            assert errors > 0

    def test_guaranteed_rejection_matches_apply(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ensemble = self._ensemble(rng, ragged=bool(rng.integers(2)))
            batched = analysis_outcome(
                lambda: guaranteed_rejection_analysis(ensemble, 0.2)
            )
            with monkeypatch.context() as patch:
                patch.setattr(adjust, "_decide", looped_decide)
                looped = analysis_outcome(
                    lambda: guaranteed_rejection_analysis(ensemble, 0.2)
                )
            assert batched == looped
