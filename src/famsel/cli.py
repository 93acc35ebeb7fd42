"""Command line front end for selection-adjusted family testing.

Subcommands: analyze a CSV of family-grouped p-values, reproduce the
selection-bias benchmark table, run Monte Carlo scenarios, and run
property-check suites. Exit codes: 0 success, 1 property violation,
2 input error, 3 configuration error.
"""

import argparse
import codecs
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .adjust import selection_adjusted, simple_selection_adjusted
from .core import ErrorMetric, PValueEnsemble, _by_size, size_groups
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
    """Rule syntax: minp:T | topk:K | global:COMBINER:PROCEDURE[:LEVEL],
    where PROCEDURE may be lr_kfwer:K.

    A global rule's level defaults to q when omitted.
    """
    parts = text.strip().lower().split(":")
    if parts[0] == "global" and len(parts) > 3 and parts[2] in ("lr_kfwer", "lr-kfwer"):
        parts[2:4] = [f"{parts[2]}:{parts[3]}"]
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


# Data lines (or csv records) read and checked at a time.
_CHUNK_LINES = 1 << 10


def _scan_records(raw: bytes):
    """Tokenise UTF-8 bytes from one NumPy scan; yields what `_reader_records` yields.

    In text with no '"' and no '\\r' every record of `csv`'s default dialect
    is one line split at each comma, and an empty line is an empty record.
    The scan finds each line's end, commas and length; each chunk of
    `_CHUNK_LINES` lines is then decoded from its own bytes (a newline byte
    never falls inside a multi-byte character) and split. Other text, and a
    non-blank line that is not 3 fields or is longer in bytes than the csv
    field limit, go to `_reader_records`, so that `csv.reader` reads them.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(b == 10)
    ends = breaks if raw.endswith(b"\n") else np.append(breaks, len(raw))
    lengths = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(b == 44), ends), prepend=0)
    too_long = lengths.max() > csv.field_size_limit()
    if b'"' in raw or b"\r" in raw or too_long or ((commas != 2) & (lengths > 0)).any():
        yield from _reader_records(raw)
        return
    # In ASCII text every character str.strip() removes is a byte <= 32, so
    # when the line breaks are the only such bytes no field is padded.
    padded = not raw.isascii() or np.count_nonzero(b <= 32) > breaks.size
    view, starts = memoryview(raw), ends - lengths
    yield str(view[: ends[0]], "utf-8").split(",")
    for lo in range(1, ends.size, _CHUNK_LINES):
        hi = min(lo + _CHUNK_LINES, ends.size)
        text = str(view[starts[lo] : ends[hi - 1]], "utf-8")
        fields = text.replace("\n", ",").split(",")
        keep = np.flatnonzero(commas[lo:hi] == 2)
        if keep.size == hi - lo:
            fams, hyps, p_texts = (fields[j::3] for j in range(3))
        else:  # blank lines
            first = (np.cumsum(commas[lo:hi] + 1) - commas[lo:hi] - 1)[keep]
            at = ((first + j).tolist() for j in range(3))  # each kept line's fields
            fams, hyps, p_texts = (list(map(fields.__getitem__, a)) for a in at)
        if padded:
            fams, hyps = list(map(str.strip, fams)), list(map(str.strip, hyps))
        yield keep + lo + 1, fams, hyps, p_texts, None


def _csv_error_message(err) -> str:
    text = str(err)
    if text.startswith("new-line character"):
        return "carriage return inside an unquoted field"
    return text


def _reader_records(raw: bytes):
    """Tokenise UTF-8 bytes with `csv.reader`, one line at a time.

    Yields the header record (None for empty input), then the data records
    in chunks of at most `_CHUNK_LINES`, as (linenos, fams, hyps, p_texts,
    stop): each record's line number, its three fields as columns, the
    first two stripped, and (line number, message) of the first record that
    is not 3 fields or that `csv` cannot read, which ends the chunks, or
    None. Empty records are skipped. A record's line number is the physical
    line it starts on, so a quoted field that holds a line break moves the
    records after it down a line.
    """
    reader = csv.reader(map(bytes.decode, io.BytesIO(raw)))
    try:
        yield next(reader, None)
    except csv.Error as err:
        raise CliError(EXIT_INPUT, f"line 1: {_csv_error_message(err)}")
    stop, start = None, reader.line_num + 1
    linenos, fields = [], []
    try:
        for row in reader:
            if row and len(row) != 3:
                stop = (start, f"expected 3 columns, got {len(row)}")
                break
            if row:
                linenos.append(start)
                fields.extend(row)
            start = reader.line_num + 1
            if len(linenos) == _CHUNK_LINES:
                yield np.array(linenos, dtype=np.intp), *_columns(fields), None
                linenos, fields = [], []
    except csv.Error as err:
        stop = (start, _csv_error_message(err))
    yield np.array(linenos, dtype=np.intp), *_columns(fields), stop


def _columns(fields) -> list:
    """Records laid end to end as 3 columns, the first two stripped."""
    fams, hyps = fields[0::3], fields[1::3]
    return [list(map(str.strip, fams)), list(map(str.strip, hyps)), fields[2::3]]


def _first_non_number(texts) -> int:
    for k, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return k
    raise AssertionError("every text parses")


def _read_families_csv(path: str):
    """Families of a `family,hypothesis,p_value` CSV, in order of first appearance.

    Returns (ids, pvalues, sizes, names, codes, digest). pvalues holds the
    checked p-values family after family, each family's rows in file order,
    in one flat array, and sizes each family's number of rows. names are
    the distinct hypothesis ids in order of first appearance, and codes
    holds each row's position among them, in the order of pvalues. One
    leading byte-order mark is skipped; digest is the hash of the file as it
    is. Text with no '"' and no '\\r' is tokenised from NumPy scans of its
    bytes, any other by `csv.reader`; the records are then checked a chunk
    at a time, and the first chunk with a bad record is the last one read.
    On a bad input the message names the earliest bad record; within one
    record the checks run in the order width, number, range, duplicate.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise CliError(EXIT_INPUT, str(err))
    digest = hashlib.sha256(raw).hexdigest()
    try:
        if not raw.isascii():
            raw.decode("utf-8")  # checked whole, then decoded chunk by chunk
    except UnicodeDecodeError as err:
        raise CliError(EXIT_INPUT, f"not valid UTF-8: {err}")
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    chunks = _scan_records(raw)
    header = next(chunks)
    if header is None or [h.strip() for h in header] != [
        "family",
        "hypothesis",
        "p_value",
    ]:
        raise CliError(
            EXIT_INPUT, "line 1: expected header 'family,hypothesis,p_value'"
        )

    # (line, check order, message) of the first failure of each check, and
    # each distinct family and hypothesis id's first row.
    errors, family_rows, name_rows = [], {}, {}
    parts, n = [], 0  # (linenos, p, family rows, name rows) of each chunk
    for linenos, fams, hyps, p_texts, stop in chunks:
        if stop is not None:
            errors.append((stop[0], 0, stop[1]))
        # float() ignores the surrounding whitespace that strip() removes,
        # so the p-value texts are stripped only where a message quotes them.
        try:
            p = np.fromiter(map(float, p_texts), np.float64, len(p_texts))
        except ValueError:
            k = _first_non_number(p_texts)
            message = f"p_value {p_texts[k].strip()!r} is not a number"
            errors.append((int(linenos[k]), 1, message))
            p = np.array([float(t) for t in p_texts[:k]])
        outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
        if outside.size:
            k = int(outside[0])
            message = f"p_value {p_texts[k].strip()} outside [0, 1]"
            errors.append((int(linenos[k]), 2, message))
        rows = range(n, n + len(fams))
        family_of = np.fromiter(map(family_rows.setdefault, fams, rows), np.intp)
        name_of = np.fromiter(map(name_rows.setdefault, hyps, rows), np.intp)
        parts.append((linenos, p, family_of, name_of))
        n += len(rows)
        if errors:  # a later chunk holds only later lines
            break
    if n:
        linenos, p, family_of, name_of = map(np.concatenate, zip(*parts))
        del parts
        ids, family_of = _first_appearance_codes(family_rows, family_of)
        names, name_of = _first_appearance_codes(name_rows, name_of)
        pair = family_of * len(names) + name_of
        by_pair = np.argsort(pair, kind="stable")
        later = by_pair[1:]
        repeats = later[pair[later] == pair[by_pair[:-1]]]
        if repeats.size:
            k = int(repeats.min())
            first = int(linenos[np.flatnonzero(pair == pair[k])[0]])
            message = f"duplicate hypothesis {names[name_of[k]]!r} in family "
            message += f"{ids[family_of[k]]!r} (first on line {first})"
            errors.append((int(linenos[k]), 3, message))
    if errors:
        lineno, _, message = min(errors)
        raise CliError(EXIT_INPUT, f"line {lineno}: {message}")
    if not n:
        raise CliError(EXIT_INPUT, "no data rows found")

    # Group the rows by family in order of first appearance; the stable
    # sort keeps each family's rows in file order.
    order = np.argsort(family_of, kind="stable")
    sizes = np.bincount(family_of, minlength=len(ids))
    return ids, p[order], sizes, names, name_of[order], digest


def _first_appearance_codes(first_row: dict, rows):
    """The keys of first_row, whose first rows ascend, and each row's key's
    position among them."""
    starts = np.fromiter(first_row.values(), np.intp, len(first_row))
    return list(first_row), np.searchsorted(starts, rows)


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


@contextlib.contextmanager
def _output(path):
    """The stream a command writes its result onto: the --output file, or
    stdout, flushed at the end. A failed write exits with EXIT_CONFIG."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as err:
        target = "--output" if path else "stdout"
        raise CliError(EXIT_CONFIG, f"cannot write {target}: {err}")


def _write_text(text: str, output):
    with _output(output) as out:
        out.write(text)


# An unselected family's JSON record after its id, as json.dumps writes it.
_UNSELECTED_JSON = (
    ', "selected": false, "r_min": null, "adjusted_level": null, "rejected": []}'
)

# Families whose report rows are built and written at a time.
_REPORT_FAMILIES = 1 << 10


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


def _report_blocks(ids, names, decisions, rejected, sep: str):
    """For each block of at most `_REPORT_FAMILIES` families: their ids, the
    positions in the block of the selected ones, and the columns of those:
    counts, level texts, rejection counts and the names at their rejected
    positions, joined with sep."""
    # Equal positive floats have one repr, so each distinct level is
    # written once.
    level_text = {v: float.__repr__(v) for v in set(decisions.levels.tolist())}
    ends = np.append(0, np.cumsum(decisions.r))
    for a in range(0, len(ids), _REPORT_FAMILIES):
        lo, hi = np.searchsorted(decisions.families, [a, a + _REPORT_FAMILIES])
        r = decisions.r[lo:hi]
        yield (
            ids[a : a + _REPORT_FAMILIES],
            decisions.families[lo:hi] - a,
            decisions.counts[lo:hi].tolist(),
            list(map(level_text.__getitem__, decisions.levels[lo:hi].tolist())),
            r,
            _joined(names, rejected[ends[lo] : ends[hi]], r, sep),
        )


def _families_json(ids, names, decisions, rejected):
    """The JSON array of an analyze report's family records, byte for byte
    what json.dumps writes, in pieces of `_REPORT_FAMILIES` records, each
    from one table of texts with a row per family: every id and hypothesis
    name is encoded once, with the C encoder json.dumps uses, and every
    unselected family shares one text. rejected holds the position in names
    of each of the decisions' rejections."""
    encode = json.encoder.encode_basestring_ascii
    blocks = _report_blocks(ids, list(map(encode, names)), decisions, rejected, ", ")
    for k, (ids, selected, counts, levels, _, joined) in enumerate(blocks):
        text = np.full((len(ids), 9), "", dtype=object)
        text[:, 0] = ', {"family_id": '
        if k == 0:
            text[0, 0] = '[{"family_id": '
        text[:, 1] = list(map(encode, ids))
        text[:, 2] = _UNSELECTED_JSON
        text[selected, 2] = ', "selected": true, "r_min": '
        text[selected, 3] = list(map(int.__repr__, counts))
        text[selected, 4] = ', "adjusted_level": '
        text[selected, 5] = levels
        text[selected, 6] = ', "rejected": ['
        text[selected, 7] = joined
        text[selected, 8] = "]}"
        yield "".join(text.ravel().tolist())
    yield "]"


def _families_csv(out, ids, names, decisions, rejected):
    """Write the CSV report onto the stream out, one row per family, by
    `csv.writer` from one table per `_REPORT_FAMILIES` families; the other
    arguments are those of `_families_json`."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for ids, selected, *columns in _report_blocks(ids, names, decisions, rejected, ";"):
        table = np.full((len(ids), 6), "", dtype=object)
        table[:, 0], table[:, 1], table[:, 4] = ids, 0, 0
        table[selected, 1] = 1
        table[selected, 2:] = np.array(columns, dtype=object).T
        writer.writerows(table.tolist())


def _emit_json(report: dict, output, families: tuple | None = None):
    """One-line JSON report, byte for byte what json.dumps(report) writes
    (without indent it uses its C encoder). `families`, when given, are the
    arguments of `_families_json`, whose records are written a block at a
    time in place of report["selection"]["families"], an empty list."""
    head, _, tail = (json.dumps(report) + "\n").partition('"families": []')
    with _output(output) as out:
        out.write(head)
        if families is not None:
            out.write('"families": ')
            out.writelines(_families_json(*families))
        out.write(tail)


def cmd_analyze(args) -> int:
    # The configuration is checked before the input is read, so an input
    # with both kinds of error exits 3, and a bad option costs no read.
    if not 0.0 < args.q < 1.0:
        raise CliError(EXIT_CONFIG, "q must lie in (0, 1)")
    rule = parse_rule(args.rule, args.q)
    procedure = parse_procedure(args.procedure)
    ids, pvalues, sizes, names, codes, digest = _read_families_csv(args.input)
    groups = size_groups(sizes)  # the reader has range-checked the rows
    values = _by_size(pvalues, sizes, groups)
    ensemble = PValueEnsemble._from_groups(sizes, groups, values, family_ids=ids)
    try:
        if args.adjust == "simple":
            analysis = simple_selection_adjusted(ensemble, rule, procedure, args.q)
        else:
            analysis = selection_adjusted(ensemble, rule, procedure, args.q)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, str(err))

    families = (ids, names, analysis.decisions, codes[analysis.decisions.cells])
    if args.format == "csv":
        with _output(args.output) as out:
            _families_csv(out, *families)
        return EXIT_OK
    report = {
        "config": {
            "q": args.q,
            "rule": rule.describe(),
            "procedure": procedure.describe(),
            "adjust": args.adjust,
        },
        "selection": {"r": analysis.selection.r, "families": []},
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
    _write_text("\n".join(rows) + "\n", None)
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
    _write_text(json.dumps({**head, **fields}) + "\n", None)
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
