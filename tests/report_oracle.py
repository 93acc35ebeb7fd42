"""The dict-building `famsel analyze` report that the columnar one replaced.

`famsel.cli` writes the report's family records from columns. This is the
emitter it replaced, kept as the reference the tests compare it against:
one record dict per family, updated for each selected family, then
`json.dumps` of the whole report, or one `csv.writer` row per record.
"""

import csv
import io
import json

import numpy as np

from famsel import __version__, cli
from famsel.adjust import selection_adjusted, simple_selection_adjusted
from famsel.core import PValueEnsemble
from famsel.selection import UnsupportedRuleError


def oracle_report(
    path, rule="minp:0.05", procedure="bh", q=0.05, adjust="rmin", fmt="json"
):
    """The text `famsel analyze` writes for these options, or the CliError
    it exits with."""
    if not 0.0 < q < 1.0:
        raise cli.CliError(cli.EXIT_CONFIG, "q must lie in (0, 1)")
    rule_obj = cli.parse_rule(rule, q)
    procedure_obj = cli.parse_procedure(procedure)
    ids, pvalues, names, codes, digest = cli._read_families_csv(str(path))
    names = np.array(names, dtype=object)
    if isinstance(codes, np.ndarray):
        hypotheses = names[codes]
    else:
        hypotheses = [names[c] for c in codes]
    ensemble = PValueEnsemble(pvalues, family_ids=ids)
    try:
        if adjust == "simple":
            analysis = simple_selection_adjusted(ensemble, rule_obj, procedure_obj, q)
        else:
            analysis = selection_adjusted(ensemble, rule_obj, procedure_obj, q)
    except (UnsupportedRuleError, ValueError) as err:
        raise cli.CliError(cli.EXIT_CONFIG, str(err))

    outcome = analysis.selection
    records = [
        {
            "family_id": fid,
            "selected": False,
            "r_min": None,
            "adjusted_level": None,
            "rejected": [],
        }
        for fid in ids
    ]
    # The decisions come in the order of the selected families' indices.
    for i, decision in zip(sorted(outcome.selected), analysis.decisions):
        records[i].update(
            selected=True,
            r_min=outcome.r_min.get(i, outcome.r),
            adjusted_level=decision.adjusted_level,
            rejected=hypotheses[i][decision.rejected].tolist(),
        )
    report = {
        "config": {
            "q": q,
            "rule": rule_obj.describe(),
            "procedure": procedure_obj.describe(),
            "adjust": adjust,
        },
        "selection": {"r": outcome.r, "families": records},
        "metadata": {
            "input_digest": "sha256:" + digest,
            "version": __version__,
            "seed": None,
        },
    }
    if fmt == "json":
        return json.dumps(report) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli.CSV_COLUMNS)
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
    return buf.getvalue()
