"""Command line front end for selection-adjusted family testing.

Subcommands: analyze a CSV of family-grouped p-values, reproduce the
selection-bias benchmark table, run Monte Carlo scenarios, and run
property-check suites. Exit codes: 0 success, 1 property violation,
2 input error, 3 configuration error.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .adjust import selection_adjusted, simple_selection_adjusted
from .core import ErrorMetric, PValueEnsemble
from .procedures import Procedure
from .selection import (
    GlobalNullTest,
    MinPThreshold,
    TopKMinP,
    UnsupportedRuleError,
    check_concordant,
    check_simple,
    select,
)
from .sim import ScenarioConfig, closed_form_example1, estimate

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

TABLE1_ROWS = ((20, 100), (100, 20), (100, 10), (100, 2))

_COMBINER_ALIASES = {
    "bonferroni": "bonferroni_min",
    "bonferroni_min": "bonferroni_min",
    "bonfmin": "bonferroni_min",
    "simes": "simes",
    "fisher": "fisher",
    "stouffer": "stouffer",
}

# Schema of every JSON report the tool emits (analyze and simulate).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["config", "metadata"],
    "properties": {
        "config": {"type": "object"},
        "metadata": {
            "type": "object",
            "required": ["version"],
            "properties": {
                "version": {"type": "string"},
                "input_digest": {"type": "string"},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "selection": {
            "type": "object",
            "required": ["r", "families"],
            "properties": {
                "r": {"type": "integer", "minimum": 0},
                "families": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "family_id",
                            "selected",
                            "r_min",
                            "adjusted_level",
                            "rejected",
                        ],
                        "properties": {
                            "family_id": {"type": ["string", "integer"]},
                            "selected": {"type": "boolean"},
                            "r_min": {"type": ["integer", "null"]},
                            "adjusted_level": {"type": ["number", "null"]},
                            "rejected": {
                                "type": "array",
                                "items": {"type": ["string", "integer"]},
                            },
                        },
                    },
                },
            },
        },
        "estimates": {
            "type": "object",
            "required": ["e_cs_hat", "e_sel_frac_hat", "se", "replicates"],
            "properties": {
                "e_cs_hat": {"type": "number"},
                "e_sel_frac_hat": {"type": "number"},
                "se": {"type": "number"},
                "replicates": {"type": "integer"},
            },
        },
    },
}

CSV_COLUMNS = (
    "family_id",
    "selected",
    "r_min",
    "adjusted_level",
    "n_rejected",
    "rejected",
)


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def parse_procedure(text: str) -> Procedure:
    token = text.strip().lower().replace("-", "_")
    if token in ("bonferroni", "holm", "hochberg", "bh"):
        return Procedure(token)
    if token in ("twostage", "two_stage"):
        return Procedure("two_stage")
    if token.startswith("lr_kfwer:"):
        try:
            return Procedure("lr_kfwer", k=int(token.split(":", 1)[1]))
        except ValueError as err:
            raise CliError(EXIT_CONFIG, f"bad procedure {text!r}: {err}")
    raise CliError(EXIT_CONFIG, f"unknown procedure {text!r}")


def parse_rule(text: str, q: float):
    """Rule syntax: minp:T | topk:K | global:COMBINER:PROCEDURE[:LEVEL].

    A global rule's level defaults to q when omitted.
    """
    parts = text.strip().lower().split(":")
    try:
        if parts[0] == "minp" and len(parts) == 2:
            return MinPThreshold(float(parts[1]))
        if parts[0] == "topk" and len(parts) == 2:
            return TopKMinP(int(parts[1]))
        if parts[0] == "global" and len(parts) in (3, 4):
            combiner = _COMBINER_ALIASES.get(parts[1])
            if combiner is None:
                raise CliError(EXIT_CONFIG, f"unknown combiner {parts[1]!r}")
            procedure = parse_procedure(parts[2])
            level = float(parts[3]) if len(parts) == 4 else q
            return GlobalNullTest(combiner, procedure, level=level)
    except CliError:
        raise
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"bad rule {text!r}: {err}")
    raise CliError(EXIT_CONFIG, f"unknown rule {text!r}")


def parse_metric(text: str) -> ErrorMetric:
    parts = text.strip().lower().split(":")
    try:
        if parts[0] in ("pfer", "fwer", "fdr") and len(parts) == 1:
            return ErrorMetric(parts[0])
        if parts[0] == "fdx" and len(parts) == 2:
            return ErrorMetric("fdx", gamma=float(parts[1]))
        if parts[0] in ("kfwer", "kfdr") and len(parts) == 2:
            return ErrorMetric(parts[0], k=int(parts[1]))
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"bad metric {text!r}: {err}")
    raise CliError(EXIT_CONFIG, f"unknown metric {text!r}")


def _read_families_csv(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise CliError(EXIT_INPUT, str(err))
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CliError(EXIT_INPUT, f"not valid UTF-8: {err}")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != [
        "family",
        "hypothesis",
        "p_value",
    ]:
        raise CliError(
            EXIT_INPUT, "line 1: expected header 'family,hypothesis,p_value'"
        )
    families = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise CliError(
                EXIT_INPUT, f"line {lineno}: expected 3 columns, got {len(row)}"
            )
        fam, hyp, p_text = (col.strip() for col in row)
        try:
            p = float(p_text)
        except ValueError:
            raise CliError(
                EXIT_INPUT, f"line {lineno}: p_value {p_text!r} is not a number"
            )
        if not 0.0 <= p <= 1.0:
            raise CliError(
                EXIT_INPUT, f"line {lineno}: p_value {p_text} outside [0, 1]"
            )
        # Each family maps its hypothesis ids to the line they came from.
        entry = families.setdefault(fam, ({}, []))
        first = entry[0].setdefault(hyp, lineno)
        if first != lineno:
            raise CliError(
                EXIT_INPUT,
                f"line {lineno}: duplicate hypothesis {hyp!r} in family "
                f"{fam!r} (first on line {first})",
            )
        entry[1].append(p)
    if not families:
        raise CliError(EXIT_INPUT, "no data rows found")
    ids = list(families)
    pvalues = [np.array(families[f][1]) for f in ids]
    hypotheses = {f: list(families[f][0]) for f in ids}
    return ids, pvalues, hypotheses, digest


def _threads(args) -> int:
    """Worker count from --threads or FAMSEL_THREADS, capped at the CPU count."""
    text = args.threads
    if text is None:
        text = os.environ.get("FAMSEL_THREADS", "1")
    try:
        count = int(text)
    except ValueError:
        raise CliError(EXIT_CONFIG, f"thread count {text!r} is not an integer")
    if count < 1:
        raise CliError(EXIT_CONFIG, f"thread count {count} is below 1")
    return min(count, os.cpu_count() or 1)


def _write_text(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, output):
    _write_text(json.dumps(report, indent=2) + "\n", output)


def cmd_analyze(args) -> int:
    ids, pvalues, hypotheses, digest = _read_families_csv(args.input)
    if not 0.0 < args.q < 1.0:
        raise CliError(EXIT_CONFIG, "q must lie in (0, 1)")
    rule = parse_rule(args.rule, args.q)
    procedure = parse_procedure(args.procedure)
    ensemble = PValueEnsemble(pvalues, family_ids=ids)
    try:
        if args.adjust == "simple":
            analysis = simple_selection_adjusted(ensemble, rule, procedure, args.q)
        else:
            analysis = selection_adjusted(ensemble, rule, procedure, args.q)
    except (UnsupportedRuleError, ValueError) as err:
        raise CliError(EXIT_CONFIG, str(err))

    outcome = analysis.selection
    decisions = {d.family_id: d for d in analysis.decisions}
    records = []
    for i in range(ensemble.m):
        fid = ensemble.id_of(i)
        selected = i in outcome.selected
        decision = decisions.get(fid)
        records.append(
            {
                "family_id": fid,
                "selected": selected,
                "r_min": outcome.r_min.get(i, outcome.r) if selected else None,
                "adjusted_level": decision.adjusted_level if decision else None,
                "rejected": [hypotheses[fid][j] for j in decision.rejected]
                if decision
                else [],
            }
        )
    report = {
        "config": {
            "q": args.q,
            "rule": rule.describe(),
            "procedure": procedure.describe(),
            "adjust": args.adjust,
        },
        "selection": {"r": outcome.r, "families": records},
        "metadata": {
            "input_digest": "sha256:" + digest,
            "version": __version__,
            "seed": None,
        },
    }
    if args.format == "json":
        _emit_json(report, args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec["family_id"],
                    int(rec["selected"]),
                    "" if rec["r_min"] is None else rec["r_min"],
                    "" if rec["adjusted_level"] is None else repr(rec["adjusted_level"]),
                    len(rec["rejected"]),
                    ";".join(str(h) for h in rec["rejected"]),
                ]
            )
        _write_text(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_table1(args) -> int:
    workers = _threads(args)
    rows = []
    rows.append(
        "# selection bias benchmark: all-null families, min-p selection at "
        "0.05, Bonferroni at unadjusted level 0.05"
    )
    if args.reps > 0:
        rows.append(f"# replicates={args.reps} seed={args.seed}")
        rows.append(
            f"{'m':>5} {'n':>5} {'sel_frac':>10} {'e_cs':>8} "
            f"{'sel_frac_mc':>12} {'e_cs_mc':>9} {'se':>10}  flag"
        )
    else:
        rows.append(f"{'m':>5} {'n':>5} {'sel_frac':>10} {'e_cs':>8}")
    for m, n in TABLE1_ROWS:
        e_cs, sel_frac = closed_form_example1(0.05, m, n)
        if args.reps == 0:
            rows.append(f"{m:>5} {n:>5} {sel_frac:>10.4f} {e_cs:>8.4f}")
            continue
        try:
            config = ScenarioConfig(
                m=m,
                n=n,
                q=0.05,
                rule=MinPThreshold(0.05),
                procedure=Procedure("bonferroni"),
                metric=ErrorMetric("fwer"),
                replicates=args.reps,
                seed=args.seed,
                adjustment="none",
            )
            est = estimate(config, workers=workers)
        except ValueError as err:
            raise CliError(EXIT_CONFIG, str(err))
        flag = "*" if abs(est.e_cs_hat - e_cs) > 3.0 * est.se else ""
        rows.append(
            f"{m:>5} {n:>5} {sel_frac:>10.4f} {e_cs:>8.4f} "
            f"{est.e_sel_frac_hat:>12.4f} {est.e_cs_hat:>9.4f} {est.se:>10.3e}  {flag}"
        )
    print("\n".join(rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    workers = _threads(args)
    rule = parse_rule(args.rule, args.q)
    procedure = parse_procedure(args.procedure)
    metric = parse_metric(args.metric)
    adjustment = "none" if args.unadjusted else args.adjust
    pi1 = 0.0 if args.all_null else args.pi1
    dependence = (
        "equicorrelated" if (args.equicorrelated or args.rho > 0) else "independent"
    )
    try:
        config = ScenarioConfig(
            m=args.m,
            n=args.n,
            q=args.q,
            rule=rule,
            procedure=procedure,
            metric=metric,
            replicates=args.reps,
            seed=args.seed,
            pi1=pi1,
            mu=args.mu,
            dependence=dependence,
            rho=args.rho,
            adjustment=adjustment,
        )
        est = estimate(config, workers=workers)
    except (UnsupportedRuleError, ValueError) as err:
        raise CliError(EXIT_CONFIG, str(err))
    report = {
        "config": {
            "m": args.m,
            "n": args.n,
            "q": args.q,
            "rule": rule.describe(),
            "procedure": procedure.describe(),
            "metric": metric.describe(),
            "pi1": pi1,
            "mu": args.mu,
            "dependence": dependence,
            "rho": args.rho,
            "adjustment": adjustment,
            "replicates": args.reps,
        },
        "estimates": {
            "e_cs_hat": est.e_cs_hat,
            "e_sel_frac_hat": est.e_sel_frac_hat,
            "se": est.se,
            "replicates": est.replicates,
        },
        "metadata": {"version": __version__, "seed": args.seed},
    }
    _emit_json(report, args.output)
    return EXIT_OK


def _probe_ensembles(q: float):
    """Small ensembles the property suites exercise rules on.

    The first puts three singleton families in the region where adaptive
    two-stage selection changes its count while the middle family stays
    selected; the second is a seeded random ensemble with planted signal.
    """
    q1 = q / (1.0 + q)
    canonical = PValueEnsemble([[q1 / 6.0], [q1 / 2.0], [2.0 * q1]])
    rng = np.random.default_rng(20110520)
    pvals = rng.uniform(size=(6, 4))
    pvals[0, 0] = 1e-4
    pvals[1, 0] = 2e-3
    pvals[2, 0] = 0.02
    random_probe = PValueEnsemble(pvals)
    return [canonical, random_probe]


def cmd_check(args) -> int:
    workers = _threads(args)
    rule = parse_rule(args.rule, args.q)
    if args.suite == "simple":
        for ens in _probe_ensembles(args.q):
            try:
                outcome = select(rule, ens)
            except ValueError as err:
                raise CliError(EXIT_CONFIG, str(err))
            for i in sorted(outcome.selected):
                report = check_simple(rule, ens, i, args.trials, seed=args.seed)
                if report.witness_found:
                    print(
                        json.dumps(
                            {
                                "suite": "simple",
                                "violation": True,
                                "rule": rule.describe(),
                                "family": report.family,
                                "selected_before": report.r_observed,
                                "selected_after": report.r_witness,
                                "replacement": report.replacement.tolist(),
                            }
                        )
                    )
                    return EXIT_VIOLATION
        print(
            json.dumps(
                {
                    "suite": "simple",
                    "violation": False,
                    "rule": rule.describe(),
                    "trials": args.trials,
                }
            )
        )
        return EXIT_OK
    if args.suite == "concordant":
        for ens in _probe_ensembles(args.q):
            try:
                report = check_concordant(rule, ens, args.trials, seed=args.seed)
            except (UnsupportedRuleError, ValueError) as err:
                raise CliError(EXIT_CONFIG, str(err))
            if report.witness_found:
                print(
                    json.dumps(
                        {
                            "suite": "concordant",
                            "violation": True,
                            "rule": rule.describe(),
                            "family": report.family,
                            "r_min_before": report.r_min_before,
                            "r_min_after": report.r_min_after,
                        }
                    )
                )
                return EXIT_VIOLATION
        print(
            json.dumps(
                {
                    "suite": "concordant",
                    "violation": False,
                    "rule": rule.describe(),
                    "trials": args.trials,
                }
            )
        )
        return EXIT_OK
    # control: quick Monte Carlo check that the adjusted analysis holds the
    # nominal level under both truth models.
    procedure = parse_procedure(args.procedure)
    metric = parse_metric(args.metric)
    violations = []
    for pi1, mu in ((0.0, 0.0), (0.4, 2.5)):
        try:
            config = ScenarioConfig(
                m=20,
                n=5,
                q=args.q,
                rule=rule,
                procedure=procedure,
                metric=metric,
                replicates=args.reps,
                seed=args.seed,
                pi1=pi1,
                mu=mu,
                adjustment="rmin",
            )
            est = estimate(config, workers=workers)
        except (UnsupportedRuleError, ValueError) as err:
            raise CliError(EXIT_CONFIG, str(err))
        if est.e_cs_hat > args.q + 3.0 * est.se:
            violations.append(
                {"pi1": pi1, "e_cs_hat": est.e_cs_hat, "se": est.se}
            )
    print(
        json.dumps(
            {
                "suite": "control",
                "violation": bool(violations),
                "rule": rule.describe(),
                "procedure": procedure.describe(),
                "metric": metric.describe(),
                "q": args.q,
                "replicates": args.reps,
                "violations": violations,
            }
        )
    )
    return EXIT_VIOLATION if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famsel",
        description="Selection-adjusted testing of families of hypotheses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="selection-adjusted analysis of a p-value CSV"
    )
    analyze.add_argument("input", help="CSV with header family,hypothesis,p_value")
    analyze.add_argument("--rule", default="minp:0.05")
    analyze.add_argument("--procedure", default="bh")
    analyze.add_argument("--q", type=float, default=0.05)
    analyze.add_argument("--adjust", choices=["simple", "rmin"], default="rmin")
    analyze.add_argument("--format", choices=["json", "csv"], default="json")
    analyze.add_argument("--output")

    table1 = sub.add_parser(
        "table1", help="closed form vs Monte Carlo selection-bias table"
    )
    table1.add_argument("--reps", type=int, default=20000)
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--threads")

    simulate = sub.add_parser("simulate", help="Monte Carlo scenario estimate")
    simulate.add_argument("--m", type=int, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--q", type=float, default=0.05)
    simulate.add_argument("--rule", default="minp:0.05")
    simulate.add_argument("--procedure", default="bonferroni")
    simulate.add_argument("--metric", default="fwer")
    simulate.add_argument("--pi1", type=float, default=0.0)
    simulate.add_argument("--mu", type=float, default=0.0)
    simulate.add_argument("--all-null", action="store_true", dest="all_null")
    simulate.add_argument("--rho", type=float, default=0.0)
    simulate.add_argument("--equicorrelated", action="store_true")
    simulate.add_argument(
        "--adjust", choices=["simple", "rmin", "none"], default="simple"
    )
    simulate.add_argument("--unadjusted", action="store_true")
    simulate.add_argument("--reps", type=int, default=10000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--threads")
    simulate.add_argument("--output")

    check = sub.add_parser("check", help="property-check suites")
    check.add_argument(
        "--suite", choices=["simple", "concordant", "control"], required=True
    )
    check.add_argument("--rule", default="minp:0.05")
    check.add_argument("--procedure", default="bonferroni")
    check.add_argument("--metric", default="fwer")
    check.add_argument("--q", type=float, default=0.05)
    check.add_argument("--trials", type=int, default=10000)
    check.add_argument("--reps", type=int, default=2000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--threads")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "table1":
            return cmd_table1(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_check(args)
    except CliError as err:
        print(f"famsel: {err}", file=sys.stderr)
        return err.code


def run():
    raise SystemExit(main())
