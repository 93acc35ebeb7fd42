import numpy as np
import pytest
import textbook

from famsel import adjust
from famsel.adjust import (
    AdjustedAnalysis,
    NonConvergenceError,
    guaranteed_rejection_analysis,
    iterative_simple_adjusted,
    selection_adjusted,
    simple_selection_adjusted,
    unadjusted_analysis,
)
from famsel.core import (
    ErrorMetric,
    FamilyDecision,
    PValueEnsemble,
    average_over_selected,
    pooled_fdp,
)
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

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_level_validated(self, level):
        ens = singleton_ensemble([0.01, 0.5])
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            unadjusted_analysis(ens, MinPThreshold(0.5), Procedure("bh"), level)


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

    @pytest.mark.parametrize("max_iters", [0, -2])
    def test_max_iters_below_one_rejected(self, max_iters):
        for values in ([0.01, 0.04, 0.2], [0.9]):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                iterative_simple_adjusted(
                    singleton_ensemble(values),
                    MinPThreshold(0.05),
                    Procedure("bonferroni"),
                    0.05,
                    max_iters=max_iters,
                )

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


class TestDecisionColumns:
    """The read-only sequence the analyses keep their decisions in."""

    @staticmethod
    def _analysis(threshold=0.05):
        # ragged, with truth and a metric: at R = 2 of m = 3 the level is
        # 0.4, so family "a" rejects its first two hypotheses, one of them a
        # true null, and family "c" its first, a false null
        ensemble = PValueEnsemble(
            [[0.001, 0.002, 0.9], [0.8, 0.9], [0.004, 0.5]],
            family_ids=["a", "b", "c"],
            truth=[[True, False, True], [True, True], [False, True]],
        )
        return simple_selection_adjusted(
            ensemble,
            MinPThreshold(threshold),
            Procedure("bonferroni"),
            0.6,
            metric=ErrorMetric("fdr"),
        )

    def test_sequence_behaviour(self):
        decisions = self._analysis().decisions
        assert len(decisions) == 2
        assert [d.family_id for d in decisions] == ["a", "c"]
        assert decisions[-1].family_id == "c" and decisions[-2].family_id == "a"
        assert [d.family_id for d in decisions[::-1]] == ["c", "a"]
        for k in (2, -3):
            with pytest.raises(IndexError):
                decisions[k]
        with pytest.raises(TypeError):
            decisions[0] = decisions[1]
        a, c = decisions
        assert type(a.adjusted_level) is float
        assert a.adjusted_level == pytest.approx(0.4)
        assert a.rejected.tolist() == [0, 1] and a.rejected.dtype == np.intp
        assert (a.v, a.q_i, a.realized_c) == (1, 0.5, 0.5)
        assert c.rejected.tolist() == [0]
        assert (c.v, c.q_i, c.realized_c) == (0, 0.0, 0.0)
        assert decisions.counts.tolist() == [2, 2]
        assert decisions.r.tolist() == [2, 1]
        assert decisions.cells.tolist() == [0, 1, 5]

    def test_repr_shows_the_columns(self):
        analysis = self._analysis()
        text = repr(analysis.decisions)
        assert text == (
            "DecisionColumns(families=array([0, 2]), counts=array([2, 2]), "
            "levels=array([0.4, 0.4]), r=array([2, 1]))"
        )
        assert f"decisions={text}" in repr(analysis)
        assert " object at " not in repr(analysis)

    def test_empty(self):
        decisions = self._analysis(threshold=1e-4).decisions
        assert decisions == [] and [] == decisions
        assert len(decisions) == 0 and list(decisions) == []
        with pytest.raises(IndexError):
            decisions[0]

    def test_analyses_compare_by_value(self):
        # selected families with two or more rejections, whose rejected
        # arrays a field-by-field dataclass comparison cannot compare
        ensemble = PValueEnsemble(
            [[0.001, 0.002, 0.5], [0.2, 0.9, 0.3], [0.01, 0.04, 0.02]]
        )
        args = (MinPThreshold(0.05), Procedure("bh"), 0.5)
        a = simple_selection_adjusted(ensemble, *args)
        b = simple_selection_adjusted(ensemble, *args)
        assert [d.rejected.size for d in a.decisions] == [2, 3]
        assert a.decisions == list(a.decisions) and list(a.decisions) == a.decisions
        assert a.decisions == b.decisions and a == b
        assert a.decisions != list(a.decisions)[:1]
        moved = list(a.decisions)
        moved[1] = FamilyDecision(2, moved[1].adjusted_level, np.array([0, 2]))
        assert a.decisions != moved and moved != a.decisions
        assert a.decisions != tuple(a.decisions) and a.decisions != "decisions"
        other = simple_selection_adjusted(ensemble, MinPThreshold(0.005), *args[1:])
        assert a.decisions != other.decisions and a != other

    def test_hand_built_analysis_takes_a_list(self):
        computed = self._analysis()
        decisions = [
            FamilyDecision("a", 0.4, np.array([0, 1]), v=1, q_i=0.5, realized_c=0.5),
            FamilyDecision("c", 0.4, np.array([0]), v=0, q_i=0.0, realized_c=0.0),
        ]
        analysis = AdjustedAnalysis(
            computed.selection,
            decisions,
            0.6,
            Procedure("bonferroni"),
            ErrorMetric("fdr"),
        )
        assert analysis.average_error() == computed.average_error() == 0.25
        assert pooled_fdp(analysis.decisions) == pooled_fdp(computed.decisions)
        assert pooled_fdp(analysis.decisions) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_average_error_sums_the_c_column(self, seed, monkeypatch):
        # bit for bit the sum over the decisions as a list, built before
        # FamilyDecision is patched to raise; the threshold 1e-9 selects
        # nothing, so r = 0 is among the cases
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 7, size=300)
        truth = [rng.random(n) > 0.3 for n in sizes]
        families = [
            np.where(t, rng.random(t.size), rng.random(t.size) * 1e-3) for t in truth
        ]
        ensemble = PValueEnsemble(families, truth=truth)
        cases = []
        for kind, threshold in (("fdr", 0.05), ("fwer", 0.2), ("pfer", 1e-9)):
            metric = ErrorMetric(kind)
            rule, proc = MinPThreshold(threshold), Procedure("bh")
            cases += [
                simple_selection_adjusted(ensemble, rule, proc, 0.1, metric=metric),
                selection_adjusted(ensemble, rule, proc, 0.1, metric=metric),
                unadjusted_analysis(ensemble, rule, proc, 0.1, metric=metric),
                iterative_simple_adjusted(ensemble, rule, proc, 0.1, metric=metric),
            ]
        expected = [
            average_over_selected(list(a.decisions), a.selection.r) for a in cases
        ]
        assert 0 in [a.selection.r for a in cases]
        assert any(e > 0.0 for e in expected)

        def refused(*args, **kwargs):
            raise AssertionError("average_error built a FamilyDecision")

        monkeypatch.setattr(adjust, "FamilyDecision", refused)
        for analysis, want in zip(cases, expected):
            got = analysis.average_error()
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_average_error_without_truth_is_refused(self):
        ensemble = PValueEnsemble([[0.001, 0.5], [0.9, 0.8]])
        analysis = simple_selection_adjusted(
            ensemble, MinPThreshold(0.05), Procedure("bh"), 0.1
        )
        assert analysis.selection.r == 1
        with pytest.raises(ValueError, match="no realized error measure"):
            analysis.average_error()


def decision_fields(d) -> tuple:
    """Every field of a FamilyDecision, with the types that must match."""
    return (
        d.family_id,
        d.adjusted_level,
        type(d.adjusted_level),
        d.rejected.tolist(),
        d.rejected.dtype,
        d.v,
        d.q_i,
        d.realized_c,
    )


def analysis_outcome(run):
    """Everything an analysis returns, or the error it raises."""
    try:
        analysis = run()
    except ValueError as err:
        return ("error", type(err), str(err))
    decisions = [decision_fields(d) for d in analysis.decisions]
    outcome = analysis.selection
    return ("ok", outcome.selected, outcome.r, outcome.r_min, decisions)


def checked_against_apply(analysis, ensemble, procedure):
    """The analysis, once each decisions[k] has matched the decision one
    textbook procedure call makes on its family at its level."""
    decisions = analysis.decisions
    assert len(decisions) == analysis.selection.r
    assert decisions.families.tolist() == sorted(analysis.selection.selected)
    levels = [None] * len(decisions)
    if decisions.levels is not None:
        levels = decisions.levels.tolist()
    for k, (i, level) in enumerate(zip(decisions.families.tolist(), levels)):
        expected = textbook.decision(ensemble, i, level, procedure, analysis.metric)
        assert decision_fields(decisions[k]) == decision_fields(expected), (k, i)
    return analysis


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
                    lambda: checked_against_apply(
                        self._run(entry, ensemble, rule, procedure, level),
                        ensemble,
                        procedure,
                    )
                )
                with monkeypatch.context() as patch:
                    patch.setattr(adjust, "_decide", textbook.looped_decide)
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
                lambda: checked_against_apply(
                    guaranteed_rejection_analysis(ensemble, 0.2),
                    ensemble,
                    Procedure("bh"),
                )
            )
            with monkeypatch.context() as patch:
                patch.setattr(adjust, "_decide", textbook.looped_decide)
                looped = analysis_outcome(
                    lambda: guaranteed_rejection_analysis(ensemble, 0.2)
                )
            assert batched == looped
