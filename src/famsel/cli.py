"""Command line front end for selection-adjusted family testing.

Subcommands: analyze a CSV of family-grouped p-values, reproduce the
selection-bias benchmark table, run Monte Carlo scenarios, and run
property-check suites. Exit codes: 0 success, 1 property violation,
2 input error, 3 configuration error.
"""

import argparse
import collections
import csv
import functools
import hashlib
import io
import json
import os
import sys
from itertools import repeat

import numpy as np

from . import __version__
from .adjust import selection_adjusted, simple_selection_adjusted
from .core import ErrorMetric, PValueEnsemble
from .procedures import Procedure
from .selection import (
    GlobalNullTest,
    MinPThreshold,
    TopKMinP,
    check_concordant,
    check_simple,
    select,
)
from .sim import STREAM_LAYOUT, ScenarioConfig, closed_form_example1, estimate

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
                "stream_layout": {"type": "integer"},
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


def _scan_records(raw: bytes, text: str):
    """Tokenise text that holds no '"' and no '\\r' from one scan of its bytes.

    For such text every record of `csv`'s default dialect is one line split
    at each comma, and an empty line is an empty record. NumPy scans of
    `raw`, the UTF-8 bytes of `text`, find the line breaks, each line's
    commas and each line's length; the fields then come from one split of
    `text`. Returns what `_reader_records` returns for well-formed text, or
    None for a non-blank line that is not 3 fields or a line longer in
    bytes than the csv field limit: `csv.reader` then gives the message.
    """
    if not raw:
        return None, np.empty(0, dtype=np.intp), [], [], [], None
    b = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(b == 10)
    ends = breaks if raw.endswith(b"\n") else np.append(breaks, len(raw))
    lengths = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(b == 44), ends), prepend=0)
    if lengths.max() > csv.field_size_limit() or (
        (commas != 2) & (lengths > 0)
    ).any():
        return None
    # In ASCII text every character str.strip() removes is a byte <= 32, so
    # when the line breaks are the only such bytes no field is padded.
    padded = b.max() >= 128 or np.count_nonzero(b <= 32) > breaks.size
    fields = text.replace("\n", ",").split(",")
    header = fields[: commas[0] + 1]
    first = np.cumsum(commas + 1)[:-1]  # index of each data line's first field
    keep = np.flatnonzero(commas[1:] == 2)
    if keep.size == lengths.size - 1:
        start = int(first[0]) if keep.size else 0
        end = start + 3 * keep.size
        columns = [fields[start + j : end : 3] for j in range(3)]
    else:  # blank lines
        at = first[keep]
        columns = [list(map(fields.__getitem__, (at + j).tolist())) for j in (0, 1, 2)]
    del fields
    fams, hyps, p_texts = columns
    if padded:
        fams, hyps = list(map(str.strip, fams)), list(map(str.strip, hyps))
    return header, keep + 2, fams, hyps, p_texts, None


def _csv_error_message(err) -> str:
    text = str(err)
    if text.startswith("new-line character"):
        return "carriage return inside an unquoted field"
    return text


def _reader_records(text: str):
    """Tokenise text with `csv.reader`.

    Returns (header, linenos, fams, hyps, p_texts, stop): the header record
    (None for empty text), the line number of each 3-field data record
    before the first malformed one, their three fields as columns, the
    first two stripped, and (line number, message) of the first record that
    is not 3 fields or that `csv` cannot read, or None. Empty records are
    skipped. A record's line number is the physical line it starts on, so a
    quoted field that holds a line break moves the records after it down a
    line.
    """
    reader = csv.reader(io.StringIO(text))
    records = []
    starts = []
    stop = None
    start = 1
    try:
        for row in reader:
            records.append(row)
            starts.append(start)
            start = reader.line_num + 1
    except csv.Error as err:
        stop = (start, _csv_error_message(err))
    if not records:
        if stop is not None:
            raise CliError(EXIT_INPUT, f"line {stop[0]}: {stop[1]}")
        return None, np.empty(0, dtype=np.intp), [], [], [], None
    linenos, fields = [], []
    for lineno, row in zip(starts[1:], records[1:]):
        if not row:
            continue
        if len(row) != 3:
            stop = (lineno, f"expected 3 columns, got {len(row)}")
            break
        linenos.append(lineno)
        fields.extend(row)
    fams = list(map(str.strip, fields[0::3]))
    hyps = list(map(str.strip, fields[1::3]))
    linenos = np.array(linenos, dtype=np.intp)
    return records[0], linenos, fams, hyps, fields[2::3], stop


def _first_non_number(texts) -> int:
    for k, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return k
    raise AssertionError("every text parses")


def _first_appearance_codes(values):
    """The distinct values in order of first appearance, and each value's
    position among them as an integer array."""
    n = len(values)
    first_row = {}  # each distinct value's first row, in ascending order
    rows = np.fromiter(map(first_row.setdefault, values, range(n)), np.intp, n)
    starts = np.fromiter(first_row.values(), np.intp, len(first_row))
    position = np.empty(n, dtype=np.intp)
    position[starts] = np.arange(starts.size)
    return list(first_row), position[rows]


def _read_families_csv(path: str):
    """Families of a `family,hypothesis,p_value` CSV, in order of first appearance.

    Returns (ids, pvalues, names, codes, digest). pvalues is an (m, n)
    matrix when every family has n rows and a list of m rows otherwise, each
    family's rows in file order. names are the distinct hypothesis ids in
    order of first appearance, and codes holds each row's position among
    them, as integers in the layout of pvalues. Text with no '"' and no
    '\\r' is tokenised from NumPy scans of its bytes, any other by
    `csv.reader`; the columns are then checked one by one. On a bad input
    the message names the earliest bad record; within one record the checks
    run in the order width, number, range, duplicate.
    """
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
    tokens = None
    if b'"' not in raw and b"\r" not in raw:
        tokens = _scan_records(raw, text)
    del raw
    if tokens is None:
        tokens = _reader_records(text)
    del text
    # float() ignores the surrounding whitespace that strip() removes, so
    # the p-value texts are stripped only where a message quotes them.
    header, linenos, fams, hyps, p_texts, stop = tokens
    del tokens
    if header is None or [h.strip() for h in header] != [
        "family",
        "hypothesis",
        "p_value",
    ]:
        raise CliError(
            EXIT_INPUT, "line 1: expected header 'family,hypothesis,p_value'"
        )

    # (line, check order, message) of the first failure of each check.
    errors = [] if stop is None else [(stop[0], 0, stop[1])]
    try:
        p = np.fromiter(map(float, p_texts), np.float64, len(p_texts))
    except ValueError:
        k = _first_non_number(p_texts)
        errors.append(
            (
                int(linenos[k]),
                1,
                f"p_value {p_texts[k].strip()!r} is not a number",
            )
        )
        p = np.array([float(t) for t in p_texts[:k]])
    outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if outside.size:
        k = int(outside[0])
        errors.append(
            (int(linenos[k]), 2, f"p_value {p_texts[k].strip()} outside [0, 1]")
        )
    ids, family_of = _first_appearance_codes(fams)
    names, name_of = _first_appearance_codes(hyps)
    pair = family_of * len(names) + name_of
    by_pair = np.argsort(pair, kind="stable")
    later = by_pair[1:]
    repeats = later[pair[later] == pair[by_pair[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        first = int(np.flatnonzero(pair == pair[k])[0])
        errors.append(
            (
                int(linenos[k]),
                3,
                f"duplicate hypothesis {hyps[k]!r} in family {fams[k]!r} "
                f"(first on line {int(linenos[first])})",
            )
        )
    if errors:
        lineno, _, message = min(errors)
        raise CliError(EXIT_INPUT, f"line {lineno}: {message}")
    if not fams:
        raise CliError(EXIT_INPUT, "no data rows found")

    # Group the rows by family in order of first appearance; the stable
    # sort keeps each family's rows in file order.
    order = np.argsort(family_of, kind="stable")
    sizes = np.bincount(family_of, minlength=len(ids))
    p = p[order]
    name_of = name_of[order]
    if (sizes == sizes[0]).all():
        shape = (len(ids), int(sizes[0]))
        return ids, p.reshape(shape), names, name_of.reshape(shape), digest
    bounds = np.cumsum(sizes)[:-1]
    return ids, np.split(p, bounds), names, np.split(name_of, bounds), digest


def _threads(args) -> int:
    """Worker count from --threads or FAMSEL_THREADS (`estimate` caps it)."""
    text = args.threads
    if text is None:
        text = os.environ.get("FAMSEL_THREADS", "1")
    try:
        count = int(text)
    except ValueError:
        raise CliError(EXIT_CONFIG, f"thread count {text!r} is not an integer")
    if count < 1:
        raise CliError(EXIT_CONFIG, f"thread count {count} is below 1")
    return count


def _write_text(text: str, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(EXIT_CONFIG, f"cannot write --output: {err}")
    else:
        sys.stdout.write(text)


# The columns of an analyze report. ids: every family's id; selected: the
# selected families' indices, ascending; r_min, levels and counts: each
# selected family's R_min, test level and number of rejections, in that
# order; names: the distinct hypothesis ids; rejected: the position in names
# of every rejection, the selected families' one after another.
_FamilyColumns = collections.namedtuple(
    "_FamilyColumns", "ids selected r_min levels counts names rejected"
)

# An unselected family's JSON record after its id, as json.dumps writes it.
_UNSELECTED_JSON = (
    ', "selected": false, "r_min": null, "adjusted_level": null, "rejected": []}'
)


def _family_columns(ensemble, names, codes, analysis) -> _FamilyColumns:
    """The report columns of an analysis of the families a CSV holds;
    names and codes are as `_read_families_csv` returns them."""
    outcome = analysis.selection
    selected = sorted(outcome.selected)  # the order of analysis.decisions
    rejected = [decision.rejected for decision in analysis.decisions]
    counts = np.fromiter(map(len, rejected), np.intp, len(rejected))
    flat = codes.ravel() if isinstance(codes, np.ndarray) else np.concatenate(codes)
    starts = np.cumsum(ensemble.sizes) - ensemble.sizes
    at = np.repeat(starts[selected], counts)
    if rejected:
        at += np.concatenate(rejected)
    return _FamilyColumns(
        ids=ensemble.family_ids,
        selected=selected,
        r_min=list(map(outcome.r_min.get, selected, repeat(outcome.r))),
        levels=[decision.adjusted_level for decision in analysis.decisions],
        counts=counts,
        names=names,
        rejected=flat[at],
    )


def _joined(texts, codes, counts, sep: str) -> list:
    """For each run of `counts` consecutive entries of `codes`, the texts at
    those codes joined with sep, cut out of one joined string."""
    picked = list(map(texts.__getitem__, codes.tolist()))
    whole = sep.join(picked)
    lengths = np.fromiter(map(len, picked), np.intp, len(picked))
    offsets = np.zeros(len(picked) + 1, dtype=np.intp)  # where each text starts
    np.cumsum(lengths + len(sep), out=offsets[1:])
    ends = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ends[1:])
    first = offsets[ends[:-1]]
    past = np.maximum(offsets[ends[1:]] - len(sep), first)  # no text: no sep
    return list(map(whole.__getitem__, map(slice, first.tolist(), past.tolist())))


def _families_json(families: _FamilyColumns) -> str:
    """The JSON array of an analyze report's family records, byte for byte
    what json.dumps writes, from one table of texts with a row per family:
    every id and hypothesis name is encoded once, with the C encoder
    json.dumps uses, and every unselected family shares one text."""
    encode = json.encoder.encode_basestring_ascii
    selected = np.asarray(families.selected, dtype=np.intp)
    # Equal positive floats have one repr, so each distinct level is
    # written once.
    level_text = {level: float.__repr__(level) for level in set(families.levels)}
    text = np.full((len(families.ids), 9), "", dtype=object)
    text[:, 0] = ', {"family_id": '
    text[0, 0] = '{"family_id": '
    text[:, 1] = list(map(encode, families.ids))
    text[:, 2] = _UNSELECTED_JSON
    text[selected, 2] = ', "selected": true, "r_min": '
    text[selected, 3] = list(map(int.__repr__, families.r_min))
    text[selected, 4] = ', "adjusted_level": '
    text[selected, 5] = list(map(level_text.__getitem__, families.levels))
    text[selected, 6] = ', "rejected": ['
    text[selected, 7] = _joined(
        list(map(encode, families.names)), families.rejected, families.counts, ", "
    )
    text[selected, 8] = "]}"
    return "[" + "".join(text.ravel().tolist()) + "]"


def _families_csv(families: _FamilyColumns) -> str:
    """The CSV report, one row per family, written by `csv.writer` from
    columns."""
    m, selected = len(families.ids), families.selected

    def spread(values, fill) -> list:
        """A column of every family: values for the selected ones."""
        column = np.full(m, fill, dtype=object)
        column[selected] = values
        return column.tolist()

    rejected = _joined(families.names, families.rejected, families.counts, ";")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        zip(
            families.ids,
            spread(1, 0),
            spread(families.r_min, ""),
            spread(list(map(float.__repr__, families.levels)), ""),
            spread(families.counts, 0),
            spread(rejected, ""),
        )
    )
    return buf.getvalue()


def _emit_json(report: dict, output, families: _FamilyColumns | None = None):
    """One-line JSON report, byte for byte what json.dumps(report) writes
    (without indent it uses its C encoder). `families`, when given, is
    written from its columns as the last key of report["selection"]."""
    if families is None:
        _write_text(json.dumps(report) + "\n", output)
        return
    # json.dumps writes a dict as "{" + ", ".join(key + ": " + value) + "}".
    parts = {key: json.dumps(value) for key, value in report.items()}
    parts["selection"] = (
        parts["selection"][:-1] + ', "families": ' + _families_json(families) + "}"
    )
    members = (json.dumps(key) + ": " + value for key, value in parts.items())
    _write_text("{" + ", ".join(members) + "}\n", output)


def cmd_analyze(args) -> int:
    # The configuration is checked before the input is read, so an input
    # with both kinds of error exits 3, and a bad option costs no read.
    if not 0.0 < args.q < 1.0:
        raise CliError(EXIT_CONFIG, "q must lie in (0, 1)")
    rule = parse_rule(args.rule, args.q)
    procedure = parse_procedure(args.procedure)
    ids, pvalues, names, codes, digest = _read_families_csv(args.input)
    ensemble = PValueEnsemble(pvalues, family_ids=ids)
    try:
        if args.adjust == "simple":
            analysis = simple_selection_adjusted(ensemble, rule, procedure, args.q)
        else:
            analysis = selection_adjusted(ensemble, rule, procedure, args.q)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, str(err))

    families = _family_columns(ensemble, names, codes, analysis)
    if args.format == "csv":
        _write_text(_families_csv(families), args.output)
        return EXIT_OK
    report = {
        "config": {
            "q": args.q,
            "rule": rule.describe(),
            "procedure": procedure.describe(),
            "adjust": args.adjust,
        },
        "selection": {"r": analysis.selection.r},
        "metadata": {
            "input_digest": "sha256:" + digest,
            "version": __version__,
            "seed": None,
        },
    }
    _emit_json(report, args.output, families)
    return EXIT_OK


def _estimate(workers: int, **scenario):
    """`estimate` of the `ScenarioConfig` the keywords give; a scenario that
    is invalid or too large to run exits with EXIT_CONFIG."""
    try:
        return estimate(ScenarioConfig(**scenario), workers=workers)
    except (ValueError, MemoryError) as err:
        raise CliError(EXIT_CONFIG, str(err))


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
        est = _estimate(
            workers,
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
    est = _estimate(
        workers,
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
        "metadata": {
            "version": __version__,
            "seed": args.seed,
            "stream_layout": STREAM_LAYOUT,
        },
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


def _print_check(args, rule, violation: bool, **fields) -> int:
    """Print a `check` suite's one-line JSON result and return its exit code."""
    head = {"suite": args.suite, "violation": violation, "rule": rule.describe()}
    print(json.dumps({**head, **fields}))
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_check(args) -> int:
    workers = _threads(args)
    if not 0.0 < args.q < 1.0:
        raise CliError(EXIT_CONFIG, "q must lie in (0, 1)")
    if not 0 <= args.seed < 2**64:
        raise CliError(EXIT_CONFIG, "seed must lie in [0, 2**64)")
    if args.trials < 1:
        raise CliError(EXIT_CONFIG, "trials must be at least 1")
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
                    return _print_check(
                        args,
                        rule,
                        True,
                        family=report.family,
                        selected_before=report.r_observed,
                        selected_after=report.r_witness,
                        replacement=report.replacement.tolist(),
                    )
        return _print_check(args, rule, False, trials=args.trials)
    if args.suite == "concordant":
        for ens in _probe_ensembles(args.q):
            try:
                report = check_concordant(rule, ens, args.trials, seed=args.seed)
            except ValueError as err:
                raise CliError(EXIT_CONFIG, str(err))
            if report.witness_found:
                return _print_check(
                    args,
                    rule,
                    True,
                    family=report.family,
                    r_min_before=report.r_min_before,
                    r_min_after=report.r_min_after,
                )
        return _print_check(args, rule, False, trials=args.trials)
    # control: quick Monte Carlo check that the adjusted analysis holds the
    # nominal level under both truth models.
    procedure = parse_procedure(args.procedure)
    metric = parse_metric(args.metric)
    violations = []
    for pi1, mu in ((0.0, 0.0), (0.4, 2.5)):
        est = _estimate(
            workers,
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
        if est.e_cs_hat > args.q + 3.0 * est.se:
            violations.append(
                {"pi1": pi1, "e_cs_hat": est.e_cs_hat, "se": est.se}
            )
    return _print_check(
        args,
        rule,
        bool(violations),
        procedure=procedure.describe(),
        metric=metric.describe(),
        q=args.q,
        replicates=args.reps,
        violations=violations,
    )


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parse_args returns a new
    namespace on every call and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
