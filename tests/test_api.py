"""The public API: every exported name, every parameter name of the public
functions and class constructors, and the public members of the classes.

A change that removes or renames one of these breaks callers, so it has to
show up here as a failing test rather than pass unnoticed."""

import inspect

import numpy as np

import famsel

FUNCTIONS = {
    "average_over_selected": ["decisions", "r"],
    "bh": ["pvalues", "level"],
    "bonferroni": ["pvalues", "level"],
    "check_concordant": ["rule", "ensemble", "trials", "seed"],
    "check_simple": ["rule", "ensemble", "i", "trials", "seed"],
    "closed_form_example1": ["q", "m", "n"],
    "combine": ["combiner", "pvalues", "floor"],
    "combined_pvalues": ["combiner", "ensemble", "floor"],
    "estimate": ["config", "workers"],
    "generate": ["config", "replicate_index", "rng"],
    "guaranteed_rejection_analysis": ["ensemble", "q", "metric"],
    "hochberg": ["pvalues", "level"],
    "holm": ["pvalues", "level"],
    "iterative_simple_adjusted": [
        "ensemble",
        "rule",
        "procedure",
        "q",
        "max_iters",
        "metric",
    ],
    "lehmann_romano_kfwer": ["pvalues", "level", "k"],
    "metric_value": ["metric", "v", "r"],
    "pooled_fdp": ["decisions"],
    "prds_control_check": ["config", "workers", "concordance_trials"],
    "r_min": ["rule", "ensemble", "i"],
    "select": ["rule", "ensemble"],
    "selection_adjusted": ["ensemble", "rule", "procedure", "q", "metric"],
    "simple_selection_adjusted": ["ensemble", "rule", "procedure", "q", "metric"],
    "step_down": ["pvalues", "critical_values"],
    "step_up": ["pvalues", "critical_values"],
    "two_stage_adaptive": ["pvalues", "level"],
    "unadjusted_analysis": ["ensemble", "rule", "procedure", "level", "metric"],
}

_RULE_MEMBERS = [
    "block_summaries",
    "describe",
    "is_simple",
    "select_block",
    "select_from_summaries",
    "summaries",
    "summary_of",
    "summary_thresholds",
]

# class -> (constructor parameters, public members of the class)
CLASSES = {
    "AdjustedAnalysis": (
        ["selection", "decisions", "q", "procedure", "metric"],
        ["average_error", "metric", "procedure", "q"],
    ),
    "ErrorMetric": (["kind", "gamma", "k"], ["describe", "gamma", "k"]),
    "FamilyDecision": (
        ["family_id", "adjusted_level", "rejected", "v", "q_i", "realized_c"],
        ["q_i", "realized_c", "v"],
    ),
    "GlobalNullTest": (
        ["combiner", "procedure", "level", "floor"],
        ["floor", "level"] + _RULE_MEMBERS,
    ),
    "MinPThreshold": (["t"], _RULE_MEMBERS),
    "NonConvergenceError": (["message", "trajectory"], []),
    "PValueEnsemble": (
        ["families", "family_ids", "truth"],
        [
            "families",
            "family",
            "has_truth",
            "id_of",
            "min_p",
            "size",
            "truth",
            "truth_family",
        ],
    ),
    "Procedure": (
        ["kind", "critical_values", "k"],
        ["apply", "critical_values", "describe", "k", "stepwise", "thresholds"],
    ),
    "ScenarioConfig": (
        [
            "m",
            "n",
            "q",
            "rule",
            "procedure",
            "metric",
            "replicates",
            "seed",
            "pi1",
            "mu",
            "dependence",
            "rho",
            "adjustment",
        ],
        ["adjustment", "dependence", "mu", "pi1", "rho", "seed", "sizes"],
    ),
    "SelectionOutcome": (["selected", "r", "r_min"], []),
    "SimEstimate": (["e_cs_hat", "e_sel_frac_hat", "se", "replicates"], []),
    "TopKMinP": (["k"], _RULE_MEMBERS),
    "UnsupportedRuleError": (["args", "kwargs"], []),
}


def parameters(obj) -> list:
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return list(inspect.signature(obj.__init__).parameters)[1:]
    return list(inspect.signature(obj).parameters)


def test_all_is_pinned():
    assert sorted(famsel.__all__) == sorted(FUNCTIONS.keys() | CLASSES.keys())
    assert len(set(famsel.__all__)) == len(famsel.__all__)
    for name in famsel.__all__:
        assert hasattr(famsel, name), name


def test_function_parameters():
    for name, expected in FUNCTIONS.items():
        assert parameters(getattr(famsel, name)) == expected, name


def test_class_constructors_and_members():
    for name, (expected, members) in CLASSES.items():
        cls = getattr(famsel, name)
        assert parameters(cls) == expected, name
        missing = [m for m in members if not hasattr(cls, m)]
        assert not missing, (name, missing)


def test_ensemble_instance_members():
    # rect, m and family_ids live on the instance, in both layouts
    layouts = [
        (np.array([[0.1, 0.2], [0.3, 0.4]]), np.ones((2, 2), dtype=bool)),
        ([[0.1, 0.2], [0.3]], [[True, False], [True]]),
    ]
    for families, truth in layouts:
        ensemble = famsel.PValueEnsemble(families, family_ids=["a", "b"], truth=truth)
        for member in ("rect", "m", "family_ids"):
            assert hasattr(ensemble, member), member
        assert ensemble.m == 2 and ensemble.family_ids == ["a", "b"]
        assert (ensemble.rect is None) == isinstance(families, list)
        assert ensemble.has_truth()
