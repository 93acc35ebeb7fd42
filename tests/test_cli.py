import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tracemalloc
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import famsel
from famsel import cli, core, sim
from famsel.cli import CSV_COLUMNS, REPORT_SCHEMA, main
from famsel.core import METRIC_KINDS, ErrorMetric
from famsel.procedures import Procedure
from famsel.selection import COMBINERS, GlobalNullTest, MinPThreshold, TopKMinP
from report_oracle import oracle_report

THREE_FAMILY_CSV = """family,hypothesis,p_value
g1,h1,0.001
g1,h2,0.7
g2,h3,0.5
g2,h4,0.8
g3,h5,0.01
g3,h6,0.6
"""

IDS_CSV = (
    "family,hypothesis,p_value\n"
    '"g,1",h1,0.001\n'
    '"g,1","h ""2""",0.002\n'
    "fé,h;3,0.9\n"
    '" padded ","a,b",0.0001\n'
    "fé,h4,0.2\n"
)


@pytest.fixture
def three_family_csv(tmp_path):
    path = tmp_path / "pvalues.csv"
    path.write_text(THREE_FAMILY_CSV)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_adjusted_levels_and_schema(self, three_family_csv, capsys):
        code, out, _ = run_cli(
            [
                "analyze",
                three_family_csv,
                "--rule",
                "minp:0.05",
                "--procedure",
                "bonferroni",
                "--q",
                "0.05",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("\n") == 1  # the report is one line
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["selection"]["r"] == 2
        families = {rec["family_id"]: rec for rec in report["selection"]["families"]}
        assert set(families) == {"g1", "g2", "g3"}
        assert families["g1"]["selected"] and families["g3"]["selected"]
        assert not families["g2"]["selected"]
        assert families["g1"]["adjusted_level"] == pytest.approx(2 * 0.05 / 3)
        assert families["g1"]["rejected"] == ["h1"]
        assert families["g2"]["adjusted_level"] is None
        assert report["metadata"]["input_digest"].startswith("sha256:")
        # JSON round-trips losslessly
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("procedure", ["holm", "bh"])
    def test_signed_zeros_and_ties_test_as_one_call_per_family(
        self, procedure, tmp_path, capsys
    ):
        # 300 families of 5 holding 0, -0.0 and ties, each selected and
        # tested at q: enough rows for the network's side of the shared
        # sort, which gives a row's zeros one sign, against one call of the
        # named procedure on each row, the one-row np.sort side
        rng = np.random.default_rng(53)
        values = rng.choice(["0", "-0.0", "0.01", "0.01", "0.02", "0.5"], size=(300, 5))
        rows = ["family,hypothesis,p_value"] + [
            f"f{i},h{j},{v}" for i, row in enumerate(values) for j, v in enumerate(row)
        ]
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(rows) + "\n")
        args = ["analyze", str(path), "--rule", "minp:1", "--procedure", procedure]
        code, out, _ = run_cli(args + ["--adjust", "simple"], capsys)
        assert code == 0
        families = json.loads(out)["selection"]["families"]
        assert len(families) == len(values) >= core._NETWORK_ROWS[5]
        named = getattr(famsel, procedure)
        rejections = 0
        for rec, row in zip(families, values):
            assert rec["selected"] and rec["adjusted_level"] == pytest.approx(0.05)
            want = named(row.astype(float), rec["adjusted_level"])
            assert rec["rejected"] == [f"h{j}" for j in want], rec["family_id"]
            rejections += 0 < want.size < row.size
        assert rejections > 50

    def test_guaranteed_rejection_combination(self, tmp_path, capsys):
        rows = ["family,hypothesis,p_value"]
        values = {
            "f1": [0.0001, 0.3, 0.9],
            "f2": [0.002, 0.004, 0.5],
            "f3": [0.6, 0.7, 0.8],
            "f4": [0.01, 0.9, 0.95],
        }
        for fam, ps in values.items():
            rows += [f"{fam},{fam}_h{j},{p}" for j, p in enumerate(ps)]
        path = tmp_path / "g.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            [
                "analyze",
                str(path),
                "--rule",
                "global:simes:bh",
                "--procedure",
                "bh",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        for rec in report["selection"]["families"]:
            if rec["selected"]:
                assert len(rec["rejected"]) >= 1

    def test_empty_selection_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "none.csv"
        path.write_text("family,hypothesis,p_value\nf1,h1,0.9\nf2,h2,0.95\n")
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["selection"]["r"] == 0
        assert all(
            rec["rejected"] == [] for rec in report["selection"]["families"]
        )

    def test_csv_format_layout(self, three_family_csv, capsys):
        code, out, _ = run_cli(
            [
                "analyze",
                three_family_csv,
                "--rule",
                "minp:0.05",
                "--procedure",
                "bonferroni",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 4
        byfam = {r[0]: r for r in rows[1:]}
        assert byfam["g1"][1] == "1" and byfam["g2"][1] == "0"
        assert byfam["g1"][5] == "h1"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("family,hypothesis,p_value\nf1,h1,0.1\nf2,h2\n")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert "line 3" in err

    def test_pvalue_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("family,hypothesis,p_value\nf1,h1,1.5\n")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_duplicate_hypothesis_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(
            "family,hypothesis,p_value\ng1,h1,0.01\ng2,h1,0.2\ng1,h1,0.03\n"
        )
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2 and out == ""
        assert "line 4" in err and "line 2" in err and "'h1'" in err

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("fam,hyp,p\nf1,h1,0.5\n")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert "header" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/x.csv"], capsys)
        assert code == 2

    def test_unsupported_configuration(self, three_family_csv, capsys):
        # k larger than the number of families is a configuration error
        code, _, err = run_cli(
            ["analyze", three_family_csv, "--rule", "topk:10"], capsys
        )
        assert code == 3
        code, _, err = run_cli(
            ["analyze", three_family_csv, "--rule", "minp:2.0"], capsys
        )
        assert code == 3
        code, _, err = run_cli(
            ["analyze", three_family_csv, "--procedure", "tukey"], capsys
        )
        assert code == 3

    def test_configuration_checked_before_input(
        self, three_family_csv, monkeypatch, capsys
    ):
        def no_read(path):
            raise AssertionError("the input was read before the options")

        monkeypatch.setattr(cli, "_read_families_csv", no_read)
        for options in (
            ["--q", "2"],
            ["--q", "0"],
            ["--rule", "bogus:1"],
            ["--rule", "minp:2.0"],
            ["--procedure", "tukey"],
        ):
            code, out, err = run_cli(["analyze", three_family_csv] + options, capsys)
            assert (code, out) == (3, ""), options
            assert err.startswith("famsel: "), options

    def test_configuration_error_wins_over_input_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run_cli(["analyze", missing, "--q", "2"], capsys)
        assert (code, err) == (3, "famsel: q must lie in (0, 1)\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("family,hypothesis,p_value\nf1,h1,1.5\n")
        code, _, _ = run_cli(["analyze", str(bad), "--procedure", "tukey"], capsys)
        assert code == 3
        code, _, _ = run_cli(["analyze", missing], capsys)
        assert code == 2

    def test_output_file(self, three_family_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", three_family_csv, "--output", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(out_path.read_text()), REPORT_SCHEMA)

    def test_unwritable_output_exits_config(self, three_family_csv, tmp_path, capsys):
        # a missing directory and a directory in place of the file
        simulate = ["simulate", "--m", "4", "--n", "2", "--reps", "10"]
        for target in (tmp_path / "missing" / "out", tmp_path):
            for args in (
                ["analyze", three_family_csv],
                ["analyze", three_family_csv, "--format", "csv"],
                simulate,
            ):
                code, out, err = run_cli(args + ["--output", str(target)], capsys)
                assert (code, out) == (3, ""), args
                assert err.startswith("famsel: cannot write --output: "), args
                assert err.count("\n") == 1 and err.endswith(f"{target}'\n"), args

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_write_exits_config(
        self, three_family_csv, monkeypatch, capsys, failing
    ):
        class FullStdout(io.StringIO):
            """A stdout whose writes, or whose flush, fail as on a full disk."""

            def write(self, text):
                if failing == "write":
                    raise OSError(28, "No space left on device")
                return super().write(text)

            def flush(self):
                if failing == "flush":
                    raise OSError(28, "No space left on device")

        for args in (
            ["analyze", three_family_csv],
            ["analyze", three_family_csv, "--format", "csv"],
            ["simulate", "--m", "4", "--n", "2", "--reps", "10"],
            ["check", "--suite", "simple", "--trials", "20"],
            ["table1", "--reps", "0"],
        ):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", FullStdout())
                code = main(args)
            out, err = capsys.readouterr()
            assert (code, out) == (3, ""), args
            assert err == (
                "famsel: cannot write stdout: [Errno 28] No space left on device\n"
            )

    @pytest.mark.parametrize(
        "row, refused",
        [
            ("fé,x,0.001\n", "family id 'fé'"),
            ("f,hé,0.001\n", "hypothesis 'hé'"),
            # a name that is never rejected is never written
            ("a,hé,0.9\n", None),
        ],
    )
    def test_csv_report_on_an_ascii_stdout_is_all_or_nothing(
        self, tmp_path, monkeypatch, capsys, row, refused
    ):
        # stdout as PYTHONIOENCODING=ascii leaves it: a CSV report with a
        # text that the encoding cannot hold writes no byte and exits 3;
        # the JSON report escapes every non-ASCII character
        path = tmp_path / "ids.csv"
        path.write_text(f"family,hypothesis,p_value\na,x,0.001\n{row}", "utf-8")
        for fmt in ("csv", "json"):
            raw = io.BytesIO()
            stdout = io.TextIOWrapper(raw, encoding="ascii", errors="strict")
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                code = main(["analyze", str(path), "--format", fmt])
            stdout.flush()
            out, err = capsys.readouterr()
            assert out == ""
            if fmt == "csv" and refused:
                assert (code, raw.getvalue()) == (3, b"")
                assert err == (
                    f"famsel: cannot write stdout: {refused} does not encode in "
                    "'ascii'\n"
                )
            else:
                assert (code, err) == (0, "")
                want = run_cli(["analyze", str(path), "--format", fmt], capsys)
                assert raw.getvalue().decode("ascii") == want[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_cut_off_by_a_full_disk_is_left_as_written(
        self, three_family_csv, tmp_path, monkeypatch, capsys, fmt
    ):
        # a disk that fills after 100 characters: exit 3 with the --output
        # context, and the part written stays in the file the user named
        class FullDisk:
            """The named file, which takes 100 characters and then fails as
            a full disk does."""

            def __init__(self, path, mode, **kwargs):
                self.fh, self.room = open(path, mode, **kwargs), 100

            def write(self, text):
                self.fh.write(text[: self.room])
                if len(text) > self.room:
                    self.room = 0
                    raise OSError(28, "No space left on device")
                self.room -= len(text)
                return len(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def opening(path, mode="r", **kwargs):
            return (FullDisk if "w" in mode else open)(path, mode, **kwargs)

        args = ["analyze", three_family_csv, "--format", fmt, "--output"]
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert run_cli(args + [str(whole)], capsys) == (0, "", "")
        monkeypatch.setattr(cli, "open", opening, raising=False)
        code, out, err = run_cli(args + [str(cut)], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "famsel: cannot write --output: [Errno 28] No space left on device\n"
        )
        assert len(whole.read_bytes()) > 100
        assert cut.read_bytes() == whole.read_bytes()[:100]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("text", [THREE_FAMILY_CSV, IDS_CSV])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys, text, fmt):
        # Excel's "CSV UTF-8" export starts the file with one; IDS_CSV is
        # quoted, so it goes through csv.reader
        args = ["--rule", "minp:0.5", "--format", fmt]
        reports = []
        for mark in ("", "\ufeff"):
            path = tmp_path / "marked.csv"
            path.write_text(mark + text, encoding="utf-8")
            code, out, err = run_cli(["analyze", str(path)] + args, capsys)
            assert (code, err) == (0, "")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            reports.append(out.replace(digest, "<digest>"))
        assert reports[0] == reports[1]
        assert ("<digest>" in reports[0]) == (fmt == "json")
        path.write_text("\ufeff\ufeff" + text, encoding="utf-8")  # only one is skipped
        code, _, err = run_cli(["analyze", str(path)] + args, capsys)
        assert code == 2
        assert err == "famsel: line 1: expected header 'family,hypothesis,p_value'\n"

    def test_stray_carriage_return_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"family,hypothesis,p_value\ng1,h1,0.1\ng1,h\r2,0.2\n")
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "famsel: line 3: carriage return inside an unquoted field\n"

    def test_overlong_field_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        limit = csv.field_size_limit()
        path.write_text(
            "family,hypothesis,p_value\ng1,h1,0.1\ng1," + "h" * (limit + 1) + ",0.2\n"
        )
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"famsel: line 3: field larger than field limit ({limit})\n"

    def test_field_at_the_limit_is_read(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        name = "h" * csv.field_size_limit()
        path.write_text(f"family,hypothesis,p_value\ng1,{name},0.01\n")
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["selection"]["families"][0]["rejected"] == [name]

    def test_ids_survive_both_formats(self, tmp_path, capsys):
        path = tmp_path / "ids.csv"
        path.write_text(IDS_CSV, encoding="utf-8")
        args = ["analyze", str(path), "--rule", "minp:0.5", "--procedure", "bh"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        families = json.loads(out)["selection"]["families"]
        assert [rec["family_id"] for rec in families] == ["g,1", "fé", "padded"]
        assert [rec["rejected"] for rec in families] == [
            ["h1", 'h "2"'],
            [],
            ["a,b"],
        ]
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(r[0], r[5]) for r in rows] == [
            ("g,1", 'h1;h "2"'),
            ("fé", ""),
            ("padded", "a,b"),
        ]


    def test_skewed_sizes_use_memory_in_proportion(self, tmp_path, capsys):
        # 2000 singletons and one family of 2000: 4000 p-values, where a
        # matrix padded to the largest family would hold over 4 million
        lines = ["family,hypothesis,p_value"]
        lines += [f"s{i},h,{(i + 1) / 2001!r}" for i in range(2000)]
        lines += [f"big,h{j},{(j + 1) / 4001!r}" for j in range(2000)]
        path = tmp_path / "skewed.csv"
        path.write_text("\n".join(lines) + "\n")
        args = ["analyze", str(path), "--rule", "minp:0.5", "--procedure", "bh"]
        tracemalloc.start()
        try:
            code, out, _ = run_cli(args, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        families = json.loads(out)["selection"]["families"]
        assert len(families) == 2001 and families[-1]["selected"]
        # about 3 MB, against 51 MB with a padded matrix
        assert peak < 16e6

# Option texts for the analyze argv property: extreme and malformed values
# next to valid ones. argparse itself rejects a --q that is no float and an
# --adjust or --format outside its choices (exit 2).
LEVEL_TEXTS = ["nan", "NaN", "0", "1", "inf", "-inf", "1e-300", "0.5", "-0", "1e309"]
LEVEL_TEXTS += ["", "abc", "0x1p-2", "1_0", " 0.2", "2", "-0.1", str(2**63), str(2**64)]
RULE_TEXTS = st.one_of(
    st.sampled_from(
        [
            "minp:0.05",
            "topk:2",
            "topk:10",
            "topk:0",
            f"topk:{2**63}",
            "topk:-1",
            "global:simes:bh",
            "global:simes:twostage",
            "global:simes:twostage:0.3",
            "global:bonferroni_min:twostage:0.05",
            "global:fisher:twostage:0.1",
            "global:stouffer:lr_kfwer:2:0.2",
            "global:bonferroni:lr_kfwer:x",
            "global:simes",
            "global::twostage",
            ":",
            "",
        ]
    ),
    st.builds(
        "global:{}:twostage:{}".format,
        st.sampled_from(COMBINERS),
        st.sampled_from(["0.05", "0.1", "0.3"]),
    ),
    st.builds(
        "global:{}:{}:{}".format,
        st.sampled_from(COMBINERS + ("bonf", "SIMES", "nope", "")),
        st.sampled_from(["twostage", "two_stage", "two-stage", "bh", "tukey"]),
        st.sampled_from(LEVEL_TEXTS),
    ),
    st.builds("minp:{}".format, st.sampled_from(LEVEL_TEXTS)),
    st.builds("topk:{}".format, st.sampled_from(LEVEL_TEXTS)),
    st.text(alphabet="globaminpktwostage:0123456789.-enif ", max_size=30),
)


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """A valid three-family file, a 12-family file that the two-stage rule
    selects from, a file with a bad p-value and a missing path."""
    folder = tmp_path_factory.mktemp("argv")
    rows = ["family,hypothesis,p_value"]
    for f, p in enumerate([1e-5] * 3 + [0.004] * 2 + [0.6] * 7):
        rows += [f"g{f},h{f}a,{p}", f"g{f},h{f}b,0.9"]
    files = {
        "three.csv": THREE_FAMILY_CSV,
        "twelve.csv": "\n".join(rows) + "\n",
        "bad.csv": "family,hypothesis,p_value\nf1,h1,1.5\n",
    }
    for name, text in files.items():
        (folder / name).write_text(text)
    return [str(folder / name) for name in files] + [str(folder / "missing.csv")]


def assert_documented_exit(argv):
    """main(argv) ends in exit code 0-3 with no traceback; a nonzero exit
    writes one non-empty `famsel: ` line to stderr and nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's own errors
            code = stop.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code in (0, 1):
        assert err == "" and out, argv
    else:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1, (argv, err)
        assert lines[0].startswith("famsel: "), (argv, err)
        assert lines[0].split(": ", 1)[1].strip(), argv
    return code, err


class TestAnalyzeArgv:
    """`famsel analyze` on drawn option texts ends in a documented exit code,
    with one `famsel: ` line and no traceback on failure."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from([0, 1, 1, 1, 2, 3]),
        RULE_TEXTS,
        st.sampled_from(["bh"] * 3 + ["holm", "twostage", "lr_kfwer:0", "tukey"]),
        st.one_of(st.sampled_from(["0.05", "0.2", "0.5"]), st.sampled_from(LEVEL_TEXTS)),
        st.sampled_from(["simple", "rmin"] * 4 + ["none", "RMIN", ""]),
        st.sampled_from(["json", "csv"] * 4 + ["xml"]),
    )
    def test_exit_codes(self, argv_inputs, which, rule, procedure, q, adjust, fmt):
        argv = ["analyze", argv_inputs[which], "--rule", rule, "--procedure"]
        argv += [procedure, "--q", q, "--adjust", adjust, "--format", fmt]
        assert_documented_exit(argv)


class TestCheckArgv:
    """`famsel check` on drawn option texts ends in a documented exit code,
    with one `famsel: ` line and no traceback on failure. --trials and --reps
    stay small, and no thread count above 1 is drawn, so no pool starts."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["simple", "concordant", "control"] * 6 + ["bogus", ""]),
        RULE_TEXTS,
        st.sampled_from(["0.05", "0.2", "0.5"] * 6 + LEVEL_TEXTS),
        st.sampled_from(["0", "7", str(2**64 - 1)] * 6 + [str(2**64), "-1", "nan", ""]),
        st.sampled_from(["bonferroni", "bh", "holm"] * 6 + ["lr_kfwer:0", "tukey", ""]),
        st.sampled_from(["fwer", "fdr", "kfwer:2"] * 6 + ["fdx:nan", "kfdr:-1", ""]),
        st.sampled_from(
            ["1", "50", "200"] * 6
            + ["0", "-3", "nan", "1e3", "", str(10**12), str(2**64)]
        ),
        st.sampled_from(["1", "20", "50"] * 6 + ["0", "-1", "nan", ""]),
        st.sampled_from([None, "1"] * 6 + ["0", "-2", "abc", ""]),
    )
    def test_exit_codes(
        self, suite, rule, q, seed, procedure, metric, trials, reps, threads
    ):
        argv = ["check", "--suite", suite, "--rule", rule, "--q", q, "--seed", seed]
        argv += ["--procedure", procedure, "--metric", metric]
        argv += ["--trials", trials, "--reps", reps]
        argv += [] if threads is None else ["--threads", threads]
        # an absent --threads reads FAMSEL_THREADS; keep it from the environment
        with mock.patch.dict(os.environ):
            os.environ.pop("FAMSEL_THREADS", None)
            assert_documented_exit(argv)


SEED_TEXTS = ["0", "7", str(2**64 - 1)] * 6 + [str(2**64), "-1", "nan", ""]
THREAD_TEXTS = [None, "1"] * 6 + ["0", "-2", "abc", ""]
# too large to store, refused before anything is allocated, or unparsable
HUGE_TEXTS = [str(2**63), str(2**64)]
# A failure line about an allocation or an array's size names the options
# behind it: the scenario's own size checks name their field, and any other
# MemoryError is prefixed with m, n and replicates.
SIZE_FAILURE = re.compile(r"allocat|array|dimension|p-values")
SIZES_NAMED = re.compile(
    r"famsel: (m=-?\d+, n=-?\d+, replicates=\d+: "
    r"|m must lie|replicates must|the m family sizes n)"
)


def assert_sizes_named(argv):
    """assert_documented_exit(argv), and a failure line about a size names
    the options; returns the exit code and the line."""
    code, err = assert_documented_exit(argv)
    assert not SIZE_FAILURE.search(err) or SIZES_NAMED.match(err), (argv, err)
    return code, err


class TestSimulateArgv:
    """`famsel simulate` on drawn option texts ends in a documented exit
    code, with one `famsel: ` line and no traceback on failure. A scenario
    that runs has m <= 20, n <= 5 and at most 20 replicates; the only larger
    sizes are ones refused or failing to allocate at once, m = 10^11 among
    them. No thread count above 1 is drawn, so no pool starts."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["1", "3", "20"] * 6 + ["0", "-1", "", str(10**11)] + HUGE_TEXTS),
        st.sampled_from(["1", "2", "5"] * 6 + ["0", "-3", "nan", ""] + HUGE_TEXTS),
        st.sampled_from(["0.05", "0.2", "0.5"] * 6 + LEVEL_TEXTS),
        RULE_TEXTS,
        st.sampled_from(["bonferroni", "bh", "holm"] * 6 + ["lr_kfwer:0", "tukey", ""]),
        st.sampled_from(["fwer", "fdr", "kfwer:2"] * 6 + ["fdx:nan", "kfdr:-1", ""]),
        st.sampled_from(["0", "0.3", "1"] * 6 + ["nan", "-0.1", "1.5", "inf", ""]),
        st.sampled_from(["0", "2.5"] * 6 + ["nan", "inf", "-1", ""]),
        st.sampled_from(["0", "0.5"] * 6 + ["nan", "1", "-0.5", ""]),
        st.sampled_from(["simple", "rmin", "none"] * 4 + ["RMIN", ""]),
        st.lists(st.sampled_from(["--all-null", "--equicorrelated", "--unadjusted"])),
        st.sampled_from(["1", "5", "20"] * 6 + ["0", "-1", "nan", ""] + HUGE_TEXTS),
        st.sampled_from(SEED_TEXTS),
        st.sampled_from(THREAD_TEXTS),
    )
    def test_exit_codes(
        self, m, n, q, rule, procedure, metric, pi1, mu, rho, adjust, flags, reps,
        seed, threads,
    ):
        argv = ["simulate", "--m", m, "--n", n, "--q", q, "--rule", rule]
        argv += ["--procedure", procedure, "--metric", metric, "--pi1", pi1]
        argv += ["--mu", mu, "--rho", rho, "--adjust", adjust, *flags]
        argv += ["--reps", reps, "--seed", seed]
        argv += [] if threads is None else ["--threads", threads]
        with mock.patch.dict(os.environ):
            os.environ.pop("FAMSEL_THREADS", None)
            assert_sizes_named(argv)

    def test_every_pair_of_sizes(self):
        # the drawn examples rarely pair a huge size with otherwise valid
        # options, so every pair runs here; m * n = 2**64 once wrapped to 0
        sizes = ["1", "4", "0", "-1", str(10**11), str(2**62)] + HUGE_TEXTS
        with mock.patch.dict(os.environ):
            os.environ.pop("FAMSEL_THREADS", None)
            for m, n in itertools.product(sizes, sizes):
                argv = ["simulate", "--m", m, "--n", n, "--reps", "5"]
                code, err = assert_sizes_named(argv)
                # a size too large to run fails on its size, naming it
                if int(m) > 0 and int(n) > 0 and max(int(m), int(n)) > 4:
                    assert code == 3 and SIZES_NAMED.match(err), (argv, err)


class TestTable1Argv:
    """`famsel table1` on drawn option texts ends in a documented exit code,
    with one `famsel: ` line and no traceback on failure. At most 20
    replicates run per row, and no thread count above 1 is drawn."""

    @settings(
        derandomize=True,
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["0", "1", "20"] * 6 + ["-1", "nan", "1e3", ""] + HUGE_TEXTS),
        st.sampled_from(SEED_TEXTS),
        st.sampled_from(THREAD_TEXTS),
    )
    def test_exit_codes(self, reps, seed, threads):
        argv = ["table1", "--reps", reps, "--seed", seed]
        argv += [] if threads is None else ["--threads", threads]
        with mock.patch.dict(os.environ):
            os.environ.pop("FAMSEL_THREADS", None)
            assert_sizes_named(argv)


def _boom(*args, **kwargs):
    raise ValueError("boom")


class TestLibraryValueError:
    """A ValueError from any library call a command makes exits 3 with its
    text as the one stderr line and nothing on stdout."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("simple_selection_adjusted", ["analyze", "CSV", "--adjust", "simple"]),
            ("selection_adjusted", ["analyze", "CSV", "--adjust", "rmin"]),
            ("estimate", ["simulate", "--m", "3", "--n", "2", "--reps", "10"]),
            ("estimate", ["table1", "--reps", "10"]),
            ("estimate", ["check", "--suite", "control", "--reps", "10"]),
            ("select", ["check", "--suite", "simple", "--trials", "10"]),
            ("check_simple", ["check", "--suite", "simple", "--trials", "10"]),
            ("check_concordant", ["check", "--suite", "concordant", "--trials", "10"]),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_exits_config(self, name, argv, three_family_csv, monkeypatch, capsys):
        monkeypatch.setattr(cli, name, _boom)
        argv = [three_family_csv if a == "CSV" else a for a in argv]
        assert run_cli(argv, capsys) == (3, "", "famsel: boom\n")


class TestParser:
    def test_main_calls_share_no_state(
        self, three_family_csv, tmp_path, monkeypatch, capsys
    ):
        # main reuses one parser; each call must parse as a new parser would
        seen = []
        for name in ("cmd_analyze", "cmd_table1", "cmd_simulate", "cmd_check"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        argvs = [
            ["analyze", three_family_csv, "--q", "0.1", "--format", "csv"],
            ["simulate", "--m", "3", "--n", "2", "--rho", "0.5", "--equicorrelated"],
            ["analyze", three_family_csv],
            ["check", "--suite", "simple", "--trials", "7"],
            ["simulate", "--m", "4", "--n", "1", "--unadjusted", "--threads", "2"],
            ["table1", "--reps", "3"],
            ["simulate", "--m", "3", "--n", "2"],
            ["check", "--suite", "control"],
        ]
        for argv in argvs:
            assert main(argv) == 0
        assert [vars(a) for a in seen] == [
            vars(cli.build_parser().parse_args(argv)) for argv in argvs
        ]
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_successive_runs_match_fresh_ones(self, three_family_csv, capsys):
        first = run_cli(["analyze", three_family_csv, "--format", "csv"], capsys)
        second = run_cli(
            ["analyze", three_family_csv, "--q", "0.3", "--adjust", "simple"], capsys
        )
        third = run_cli(["analyze", three_family_csv], capsys)
        assert first[0] == second[0] == third[0] == 0
        assert first[1].startswith(",".join(CSV_COLUMNS))
        assert json.loads(second[1])["config"]["q"] == 0.3
        assert json.loads(third[1])["config"] == {
            "q": 0.05,
            "rule": "minp:0.05",
            "procedure": "bh",
            "adjust": "rmin",
        }


LEVELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def rules_and_metrics(draw):
    """A rule and a metric of every kind the CLI parses, at any level."""
    kind = draw(st.sampled_from(["minp", "topk", "global"]))
    if kind == "minp":
        rule = MinPThreshold(draw(LEVELS | st.just(1.0)))
    elif kind == "topk":
        rule = TopKMinP(draw(st.integers(1, 10**6)))
    else:
        name = draw(st.sampled_from(["bonferroni", "holm", "hochberg", "bh"]))
        name = draw(st.sampled_from([name, "two_stage", "lr_kfwer"]))
        k = draw(st.integers(1, 50)) if name == "lr_kfwer" else None
        combiner = draw(st.sampled_from(COMBINERS))
        rule = GlobalNullTest(combiner, Procedure(name, k=k), level=draw(LEVELS))
    kind = draw(st.sampled_from(METRIC_KINDS))
    if kind == "fdx":
        metric = ErrorMetric(kind, gamma=draw(LEVELS))
    elif kind in ("kfwer", "kfdr"):
        metric = ErrorMetric(kind, k=draw(st.integers(1, 10**6)))
    else:
        metric = ErrorMetric(kind)
    return rule, metric


class TestDescribe:
    """A report names the rule and metric it applied, in text the CLI reads
    back as that rule and metric."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(rules_and_metrics(), st.sampled_from([0.05, 0.2]))
    def test_round_trip(self, rule_and_metric, q):
        rule, metric = rule_and_metric
        assert cli.parse_rule(rule.describe(), q) == rule
        assert cli.parse_metric(metric.describe()) == metric

    @pytest.mark.parametrize(
        "rule, text",
        [
            (MinPThreshold(0.05), "minp:0.05"),
            (MinPThreshold(1e-9), "minp:1e-09"),
            (MinPThreshold(0.123456789), "minp:0.123456789"),
            (
                GlobalNullTest("simes", Procedure("two_stage"), 0.05),
                "global:simes:two_stage:0.05",
            ),
            (
                GlobalNullTest("simes", Procedure("bh"), 0.0123456789),
                "global:simes:bh:0.0123456789",
            ),
            (
                GlobalNullTest("fisher", Procedure("lr_kfwer", k=2), 0.05),
                "global:fisher:lr_kfwer:2:0.05",
            ),
            (ErrorMetric("fdx", gamma=0.1), "fdx:0.1"),
            (ErrorMetric("fdx", gamma=0.123456789), "fdx:0.123456789"),
        ],
    )
    def test_exact_short_text_is_kept(self, rule, text):
        # :g text where it reads back exactly, as every README example does
        assert rule.describe() == text

    def test_lossy_rule_is_reported_as_applied(self, three_family_csv, capsys):
        args = ["analyze", three_family_csv, "--rule", "minp:0.123456789"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["config"]["rule"] == "minp:0.123456789"
        args = ["simulate", "--m", "3", "--n", "2", "--reps", "20"]
        code, out, _ = run_cli(args + ["--metric", "fdx:0.123456789"], capsys)
        assert code == 0 and json.loads(out)["config"]["metric"] == "fdx:0.123456789"


class TestGlobalLrKfwer:
    """global:COMBINER:lr_kfwer:K[:LEVEL] names the Lehmann-Romano step-down."""

    @pytest.mark.parametrize(
        "text, level",
        [
            ("global:fisher:lr_kfwer:2", 0.05),
            ("global:fisher:lr_kfwer:2:0.1", 0.1),
            ("global:simes:lr-kfwer:3:0.2", 0.2),
        ],
    )
    def test_parses(self, text, level):
        k = int(text.split(":")[3])
        rule = cli.parse_rule(text, 0.05)
        assert rule == GlobalNullTest(
            rule.combiner, Procedure("lr_kfwer", k=k), level=level
        )
        assert cli.parse_rule(rule.describe(), 0.05) == rule

    def test_analyze_matches_the_oracle(self, three_family_csv, tmp_path):
        out = tmp_path / "out.json"
        rule = "global:simes:lr_kfwer:2:0.2"
        args = ["analyze", three_family_csv, "--rule", rule, "--output", str(out)]
        assert main(args) == 0
        assert out.read_text() == oracle_report(three_family_csv, rule, "bh", 0.05)
        assert json.loads(out.read_text())["config"]["rule"] == rule

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("global:fisher:lr_kfwer:0", "k must be a positive integer"),
            ("global:fisher:lr_kfwer:0:0.05", "k must be a positive integer"),
            ("global:fisher:lr_kfwer", "unknown procedure 'lr_kfwer'"),
            ("global:fisher:lr_kfwer:x", "bad procedure 'lr_kfwer:x'"),
            ("global:fisher:lr_kfwer:1.5:0.05", "bad procedure 'lr_kfwer:1.5'"),
            ("global:fisher:lr_kfwer:2:0.05:1", "unknown rule"),
            ("global:fisher:lr_kfwer:9", "k=9 out of range for 3 hypotheses"),
        ],
    )
    def test_bad_k_exits_config(self, rule, message, three_family_csv, capsys):
        args = ["analyze", three_family_csv, "--rule", rule]
        code, out, err = run_cli(args, capsys)
        assert code == 3 and out == ""
        assert err.startswith("famsel: ") and message in err


class TestTable1:
    def test_closed_form_only(self, capsys):
        code, out, _ = run_cli(["table1", "--reps", "0"], capsys)
        assert code == 0
        assert "0.5064" in out and "0.0491" in out

    def test_seeded_runs_are_identical(self, capsys):
        code_a, out_a, _ = run_cli(["table1", "--reps", "400", "--seed", "7"], capsys)
        code_b, out_b, _ = run_cli(["table1", "--reps", "400", "--seed", "7"], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize(
        "args", [["--reps", "-1"], ["--reps", "5", "--seed", "-1"]]
    )
    def test_bad_numbers_exit_config(self, args, capsys):
        code, out, err = run_cli(["table1", *args], capsys)
        assert code == 3 and out == ""
        assert err.startswith("famsel: ")


class TestSimulate:
    def test_unadjusted_bias_reproduced(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--m",
                "100",
                "--n",
                "2",
                "--all-null",
                "--unadjusted",
                "--reps",
                "4000",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["estimates"]["e_cs_hat"] == pytest.approx(0.506, abs=0.03)
        assert report["config"]["adjustment"] == "none"

    def test_report_names_its_stream_layout(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--m", "4", "--n", "3", "--reps", "50", "--equicorrelated"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert list(report["metadata"]) == ["version", "seed", "stream_layout"]
        assert report["metadata"]["stream_layout"] == 3
        report["metadata"]["stream_layout"] = "3"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_seed_reproducibility(self, capsys):
        args = ["simulate", "--m", "10", "--n", "3", "--reps", "300", "--seed", "5"]
        _, out_a, _ = run_cli(args, capsys)
        _, out_b, _ = run_cli(args, capsys)
        assert out_a == out_b

    def test_bad_flags_exit_config(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--m", "10", "--n", "3", "--rho", "1.5"], capsys
        )
        assert code == 3

    @pytest.mark.parametrize("mu", ["nan", "inf", "-1"])
    def test_mu_must_be_finite_and_nonnegative(self, mu, capsys):
        code, out, err = run_cli(
            ["simulate", "--m", "4", "--n", "2", "--reps", "10", "--mu", mu], capsys
        )
        assert code == 3 and out == ""
        assert "mu must be finite and nonnegative" in err

    def test_scenario_too_large_exits_config_everywhere(self, capsys, monkeypatch):
        # NumPy raises MemoryError when it refuses an allocation; no large
        # scenario runs here
        def refuse(config):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(sim, "_Layout", refuse)
        for args, sizes in (
            (["simulate", "--m", "4", "--n", "2", "--reps", "10"], "m=4, n=2"),
            (["table1", "--reps", "10"], "m=20, n=100"),
            (["check", "--suite", "control", "--reps", "10"], "m=20, n=5"),
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 3 and out == "", args
            line = f"famsel: {sizes}, replicates=10: Unable to allocate 745. GiB\n"
            assert err == line

    def test_bare_memory_error_names_the_failure(self, capsys):
        # the size list of 10^11 families cannot be allocated, so Python
        # raises a MemoryError without text at once
        code, out, err = run_cli(
            ["simulate", "--m", str(10**11), "--n", "2", "--reps", "10"], capsys
        )
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("famsel: ") and line[len("famsel: ") :].strip()

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_bad_size_is_refused_before_the_size_list(self, n, capsys):
        # 10^11 families would need a size list too large to allocate
        code, out, err = run_cli(
            ["simulate", "--m", str(10**11), "--n", n, "--reps", "5"], capsys
        )
        assert code == 3 and out == ""
        assert err == "famsel: need one positive family size per family\n"

    def test_thread_env_fallback(self, capsys, monkeypatch):
        args = ["simulate", "--m", "8", "--n", "2", "--reps", "120", "--seed", "2"]
        _, serial, _ = run_cli(args, capsys)
        monkeypatch.setenv("FAMSEL_THREADS", "3")
        _, threaded, _ = run_cli(args, capsys)
        assert serial == threaded


class TestThreads:
    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1"])
    def test_bad_env_value_exits_config_everywhere(self, value, capsys, monkeypatch):
        monkeypatch.setenv("FAMSEL_THREADS", value)
        for args in (
            ["table1", "--reps", "10"],
            ["simulate", "--m", "4", "--n", "2", "--reps", "10"],
            ["check", "--suite", "control", "--reps", "10"],
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 3 and out == "", args
            assert "thread count" in err

    @pytest.mark.parametrize("value", ["many", "0"])
    def test_bad_flag_exits_config(self, value, capsys):
        code, _, err = run_cli(["table1", "--reps", "10", "--threads", value], capsys)
        assert code == 3 and "thread count" in err


class TestCheck:
    def test_simple_suite_passes_for_min_p(self, capsys):
        code, out, _ = run_cli(
            ["check", "--suite", "simple", "--rule", "minp:0.05", "--trials", "2000"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["violation"] is False

    def test_simple_suite_flags_two_stage(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--suite",
                "simple",
                "--rule",
                "global:bonferroni:twostage",
                "--trials",
                "10000",
            ],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["violation"] is True
        assert (report["selected_before"], report["selected_after"]) == (3, 2)

    def test_simes_bh_selection_is_simple(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--suite",
                "simple",
                "--rule",
                "global:simes:bh",
                "--trials",
                "2000",
            ],
            capsys,
        )
        assert code == 0

    def test_concordant_suite(self, capsys):
        code, out, _ = run_cli(
            ["check", "--suite", "concordant", "--rule", "topk:2", "--trials", "200"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["violation"] is False

    def test_control_suite(self, capsys):
        code, out, _ = run_cli(
            [
                "check",
                "--suite",
                "control",
                "--rule",
                "minp:0.05",
                "--procedure",
                "bonferroni",
                "--metric",
                "fwer",
                "--reps",
                "1500",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["violation"] is False

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--suite", "simple", "--q", "2"], "q must lie in (0, 1)"),
            (["--suite", "simple", "--q", "nan"], "q must lie in (0, 1)"),
            (["--suite", "concordant", "--seed", "-3"], "seed must lie in"),
            (["--suite", "simple", "--seed", str(2**64)], "seed must lie in"),
            (["--suite", "simple", "--trials", "-1"], "trials must be at least 1"),
            (["--suite", "control", "--trials", "0"], "trials must be at least 1"),
            (["--suite", "simple", "--trials", str(10**7 + 1)], "at most 10000000"),
            (["--suite", "concordant", "--trials", str(2**64)], "at most 10000000"),
        ],
    )
    def test_bad_numbers_exit_config(self, args, message, capsys):
        code, out, err = run_cli(["check", *args], capsys)
        assert code == 3 and out == ""
        assert err.startswith("famsel: ") and message in err

    def test_argparse_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--suite", "bogus"])
        assert info.value.code == 2


def row_loop_reader(path):
    """famsel's row-by-row CSV reader before the columnar one, kept as the
    oracle. Three changes: a record `csv` cannot read is an input error at
    its line number, where the loop used to end in a traceback, a record's
    line number is the physical line it starts on, not its record count,
    and one leading byte-order mark is skipped."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise cli.CliError(2, f"not valid UTF-8: {err}")
    if text.startswith("\ufeff"):  # one leading byte-order mark
        text = text[1:]
    reader = csv.reader(io.StringIO(text))

    def records():
        lineno = 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as err:
                raise cli.CliError(2, f"line {lineno}: {cli._csv_error_message(err)}")
            yield lineno, row
            lineno = reader.line_num + 1

    rows = records()
    _, header = next(rows, (None, None))
    if header is None or [h.strip() for h in header] != [
        "family",
        "hypothesis",
        "p_value",
    ]:
        raise cli.CliError(2, "line 1: expected header 'family,hypothesis,p_value'")
    families = {}
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != 3:
            raise cli.CliError(2, f"line {lineno}: expected 3 columns, got {len(row)}")
        fam, hyp, p_text = (col.strip() for col in row)
        try:
            p = float(p_text)
        except ValueError:
            raise cli.CliError(2, f"line {lineno}: p_value {p_text!r} is not a number")
        if not 0.0 <= p <= 1.0:
            raise cli.CliError(2, f"line {lineno}: p_value {p_text} outside [0, 1]")
        entry = families.setdefault(fam, ({}, []))
        first = entry[0].setdefault(hyp, lineno)
        if first != lineno:
            raise cli.CliError(
                2,
                f"line {lineno}: duplicate hypothesis {hyp!r} in family "
                f"{fam!r} (first on line {first})",
            )
        entry[1].append(p)
    if not families:
        raise cli.CliError(2, "no data rows found")
    ids = list(families)
    pvalues = [np.array(families[f][1]) for f in ids]
    hypotheses = [list(families[f][0]) for f in ids]
    return ids, pvalues, hypotheses, digest


def read_outcome(reader, path):
    """What a reader returns, with every p-value row as raw bytes and every
    hypothesis id as its name, or the exit code and message it fails with."""
    try:
        result = reader(path)
    except cli.CliError as err:
        return ("error", err.code, str(err))
    if len(result) == 6:  # rows family after family, hypotheses as codes
        ids, pvalues, sizes, distinct, codes, digest = result
        bounds = np.cumsum(sizes)[:-1]
        pvalues = np.split(pvalues, bounds)
        rows = np.split(codes, bounds)
        hypotheses = [[distinct[c] for c in row] for row in rows]
    else:
        ids, pvalues, hypotheses, digest = result
    rows = [np.asarray(row, dtype=np.float64).tobytes() for row in pvalues]
    names = [list(np.asarray(h, dtype=object).tolist()) for h in hypotheses]
    return ("ok", ids, rows, names, digest)


FAMILY_FIELDS = ["g1", "g2", "g3", " g1", "g2 ", '"g,1"', '"a ""b"""', '"x\ny"', "fé", ""]
HYPOTHESIS_FIELDS = ["h1", "h2", "h3", "h4", " h1 ", '"h,1"', "\th2", ""]
GOOD_P = ["0", "1", "0.5", "0.0", "1.0", " 0.25 ", "1e-300", "-0", "0.05", "0.5"]
BAD_P = ["nan", "abc", "1.5", "-0.1", "inf", "", " ", "0,5"]


@st.composite
def csv_texts(draw):
    """CSV texts around famsel's layout: quoted ids with commas and line
    breaks, CRLF or LF line ends, blank lines, padded fields, ragged
    families, ties, p-values of 0 and 1, and now and then a bad header,
    width, number, range, duplicate, a stray carriage return or a leading
    byte-order mark or two."""
    header = draw(
        st.sampled_from(
            ["family,hypothesis,p_value"] * 6
            + [" family , hypothesis,p_value ", "fam,hyp,p"]
        )
    )
    # one bad line in bad_every, drawn from sampled_from, which draws
    # uniformly, where Hypothesis draws floats near 0 more often
    bad_every = draw(st.sampled_from([0, 20, 4]))
    lines = [header]
    for _ in range(draw(st.sampled_from(range(15)))):
        kind = draw(st.sampled_from(["blank"] + ["row"] * 15 + ["bad"] * bad_every))
        if kind == "blank":
            lines.append("")
        elif kind == "bad" and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["g1,h1", "g1,h1,0.5,extra", "g1", " "])))
        else:
            p = draw(
                st.sampled_from(BAD_P if kind == "bad" else GOOD_P)
                | st.floats(0.0, 1.0).map(repr)
            )
            family = draw(st.sampled_from(FAMILY_FIELDS))
            hypothesis = draw(st.sampled_from(HYPOTHESIS_FIELDS))
            lines.append(",".join([family, hypothesis, p]))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.sampled_from([False] * 11 + [True])):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return draw(st.sampled_from([""] * 10 + ["\ufeff", "\ufeff\ufeff"])) + text


class TestReadFamiliesCsv:
    """The columnar reader against the row loop it replaced."""

    @settings(
        derandomize=True,
        max_examples=600,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(csv_texts(), st.sampled_from([None, 6]), st.sampled_from([None, 1, 2, 3]))
    def test_matches_row_loop(self, tmp_path_factory, text, field_limit, chunk):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        saved = csv.field_size_limit(), cli._CHUNK_LINES
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        if chunk is not None:
            cli._CHUNK_LINES = chunk
        try:
            got = read_outcome(cli._read_families_csv, path)
            want = read_outcome(row_loop_reader, path)
        finally:
            csv.field_size_limit(saved[0])
            cli._CHUNK_LINES = saved[1]
        assert got == want

    @pytest.mark.parametrize(
        "first, second",
        [
            ("g1,h1,1.5", "g1,h1,0.2"),  # range, then a duplicate
            ("g2,h1,0.2", "g2,h9,abc"),  # duplicate (of line 2), then a number
            ("g1,h1", "g1,h2,abc"),  # width, then a number
            ("g1,h2,abc", "g1,h3"),  # number, then width
            ("g1,h2,-1", "g1,h\r3,0.1"),  # range, then a stray carriage return
            ("g1,h\r2,0.1", "g1,h3,-1"),  # stray carriage return, then range
            ("g1,h1,2", "g1,h3,0.1,0.2"),  # a duplicate out of range, then width
        ],
    )
    def test_earliest_of_two_errors_wins(self, tmp_path, first, second):
        for lines in ((first, second), (second, first)):
            path = tmp_path / "two.csv"
            text = "family,hypothesis,p_value\ng2,h1,0.3\ng1,h1,0.01\n"
            path.write_text(text + "\n".join(lines) + "\n", newline="")
            got = read_outcome(cli._read_families_csv, path)
            assert got[0] == "error"
            assert got == read_outcome(row_loop_reader, path)

    # Data rows on lines 2-7, so that chunks of 2 lines hold lines 2-3, 4-5
    # and 6-7.
    ROWS = ["g1,h1,0.1", "g1,h2,0.2", "g2,h1,0.3", "g2,h2,0.4", "g3,h1,0.5", "g3,h2,0.6"]

    @pytest.mark.parametrize(
        "edits, message",
        [
            # errors on the first and on the last line of a chunk
            ({2: "g2,h1,abc"}, "line 4: p_value 'abc' is not a number"),
            ({3: "g2,h2,1.5"}, "line 5: p_value 1.5 outside [0, 1]"),
            # a duplicate of a row in an earlier chunk
            (
                {4: "g1,h2,0.5"},
                "line 6: duplicate hypothesis 'h2' in family 'g1' (first on line 3)",
            ),
            # a duplicate and a bad number two chunks apart, either way round
            (
                {1: "g1,h1,0.2", 4: "g3,h1,abc"},
                "line 3: duplicate hypothesis 'h1' in family 'g1' (first on line 2)",
            ),
            ({0: "g1,h1,x", 5: "g1,h1,0.9"}, "line 2: p_value 'x' is not a number"),
            ({3: "g2,h2,-1", 4: "g3,h1"}, "line 5: p_value -1 outside [0, 1]"),
            ({2: "g2,h1,0.3,0.4", 5: "g3,h2,abc"}, "line 4: expected 3 columns, got 4"),
            # blank lines and padded non-ASCII ids at the boundaries
            (
                {1: "", 2: " f\u00e9 ,h1,0.3", 3: "", 4: "f\u00e9, h1 ,0.5"},
                "line 6: duplicate hypothesis 'h1' in family 'f\u00e9' (first on line 4)",
            ),
            ({1: "", 2: " f\u00e9 ,h1,0.3", 3: "", 4: "f\u00e9, h2 ,0.5"}, None),
            # quoted files, read by csv.reader
            (
                {0: '"g,1",h1,0.1', 3: '"g,1",h1,0.4'},
                "line 5: duplicate hypothesis 'h1' in family 'g,1' (first on line 2)",
            ),
            ({0: '"g\n1",h1,0.1', 2: "g2,h1,x"}, "line 5: p_value 'x' is not a number"),
            ({0: '"g,1",h1,0.1', 4: "g3,h1"}, "line 6: expected 3 columns, got 2"),
            ({0: '"g,1",h1,0.1', 1: ""}, None),
        ],
    )
    def test_chunk_boundaries(self, tmp_path, monkeypatch, edits, message):
        monkeypatch.setattr(cli, "_CHUNK_LINES", 2)
        rows = [edits.get(k, row) for k, row in enumerate(self.ROWS)]
        path = tmp_path / "chunks.csv"
        path.write_text("family,hypothesis,p_value\n" + "\n".join(rows) + "\n")
        got = read_outcome(cli._read_families_csv, path)
        assert got == read_outcome(row_loop_reader, path)
        assert got[0] == "ok" if message is None else got == ("error", 2, message)

    @pytest.mark.parametrize("text", ["g1,h1,abc", "g1,h1,1.5", "g1,h1", '"g1",h1,abc'])
    def test_reading_stops_at_the_first_bad_chunk(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(cli, "_CHUNK_LINES", 2)
        path = tmp_path / "stop.csv"
        lines = ["family,hypothesis,p_value", text] + self.ROWS
        path.write_text("\n".join(lines) + "\n")
        scan, chunks = cli._scan_records, []

        def counted(raw):
            for chunk in scan(raw):
                chunks.append(chunk)
                yield chunk

        monkeypatch.setattr(cli, "_scan_records", counted)
        assert read_outcome(cli._read_families_csv, path)[0] == "error"
        assert len(chunks) == 2  # the header and the first chunk of rows

    def test_lines_are_numbered_as_an_editor_shows_them(self, tmp_path, capsys):
        # the quoted id spans lines 2 and 3, so the bad p-value is on line 4
        path = tmp_path / "multiline.csv"
        path.write_text('family,hypothesis,p_value\n"a\nb",h1,0.5\ng2,h2,abc\n')
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert "line 4: p_value 'abc' is not a number" in err
        assert read_outcome(row_loop_reader, path) == (
            "error",
            2,
            "line 4: p_value 'abc' is not a number",
        )
        path.write_text('family,hypothesis,p_value\n"a\n\nb",h1,0.5\n\ng2,h2\n')
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2 and "line 6: expected 3 columns, got 2" in err

    def test_rectangular_input_gives_a_matrix(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text(
            "family,hypothesis,p_value\ng2,a,0.5\ng1,b,0.25\ng2,c,1\ng1,d,0\n"
        )
        ids, pvalues, sizes, names, codes, _ = cli._read_families_csv(str(path))
        assert ids == ["g2", "g1"]
        assert sizes.tolist() == [2, 2]
        assert pvalues.tolist() == [0.5, 1.0, 0.25, 0.0]
        assert names == ["a", "b", "c", "d"]
        assert codes.tolist() == [0, 2, 1, 3]

    def test_ragged_input_gives_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("family,hypothesis,p_value\ng1,a,0.5\ng2,b,0.25\ng1,c,1\n")
        ids, pvalues, sizes, names, codes, _ = cli._read_families_csv(str(path))
        assert ids == ["g1", "g2"]
        assert sizes.tolist() == [2, 1]
        assert pvalues.tolist() == [0.5, 1.0, 0.25]
        assert names == ["a", "b", "c"]
        assert codes.tolist() == [0, 2, 1]


# Characters that JSON must escape (quote, backslash, controls, non-ASCII,
# a line separator, a character outside the BMP) or that CSV must quote.
ID_CHARS = ["g", "h", "1", " ", ",", ";", '"', "\\", "\x00", "\x1f", "\t", "\n", "\r"]
ID_CHARS += ["\x7f", "é", "\u2028", "\U0001f600"]
ID_TEXTS = st.text(st.sampled_from(ID_CHARS + ["g", "h", "1"] * 6), max_size=4)
REPORT_P = st.sampled_from([0.0, 1e-6, 0.001, 0.01, 0.2, 1.0]) | st.floats(0.0, 1.0)


def csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def report_inputs(draw):
    """Analyze inputs whose ids need JSON escapes or CSV quotes now and
    then: families of one size or ragged, their rows in file order or
    interleaved."""
    fams = draw(st.lists(ID_TEXTS, min_size=1, max_size=8, unique_by=str.strip))
    size = draw(st.sampled_from([None, 1, 3]))
    rows = []
    for fam in fams:
        n = size or draw(st.integers(1, 4))
        names = draw(st.lists(ID_TEXTS, min_size=n, max_size=n, unique_by=str.strip))
        rows += [(fam, name, draw(REPORT_P)) for name in names]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lines = ["family,hypothesis,p_value"]
    lines += [f"{csv_field(f)},{csv_field(h)},{p!r}" for f, h, p in rows]
    return "\n".join(lines) + "\n"


REPORT_RULES = [
    "minp:1e-9",  # nothing selected, unless a family holds a 0
    "minp:1",  # everything selected
    "minp:0.05",
    "topk:2",
    "global:simes:bh",
    "global:simes:twostage",  # not simple: R_min is scanned
]


class TestReportFromColumns:
    """The columnar report against the dict-building emitter it replaced."""

    def check(self, path, out, rule, procedure, adjust, fmt):
        try:
            want = oracle_report(path, rule, procedure, 0.05, adjust, fmt)
        except cli.CliError as err:
            want = ("exit", err.code)
        if out.exists():
            out.unlink()
        args = ["analyze", str(path), "--rule", rule, "--procedure", procedure]
        args += ["--adjust", adjust, "--format", fmt, "--output", str(out)]
        code = main(args)
        got = out.read_bytes().decode("utf-8") if code == 0 else ("exit", code)
        assert got == want
        return got

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        report_inputs(),
        st.sampled_from(REPORT_RULES),
        st.sampled_from(["bh", "holm", "twostage"]),
        st.sampled_from(["simple", "rmin"]),
        st.sampled_from(["json", "csv"]),
    )
    def test_matches_dict_emitter(
        self, tmp_path_factory, text, rule, procedure, adjust, fmt
    ):
        base = tmp_path_factory.getbasetemp()
        path = base / "report_input.csv"
        path.write_bytes(text.encode("utf-8"))
        self.check(path, base / "report_output", rule, procedure, adjust, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("adjust", ["simple", "rmin"])
    @pytest.mark.parametrize("rule, selected", [("minp:1e-9", 0), ("minp:1", 4)])
    def test_nothing_or_everything_selected(
        self, tmp_path, rule, selected, adjust, fmt
    ):
        fams = ['a"b', "c\\d", "e\x01f", "é\u2028\U0001f600"]
        rows = [(f, h, p) for f in fams for h, p in (('x"', 0.001), ("y\\", 0.5))]
        rows.append((fams[3], "z", 0.002))  # ragged
        path = tmp_path / "in.csv"
        path.write_text(
            "family,hypothesis,p_value\n"
            + "".join(f"{csv_field(f)},{csv_field(h)},{p!r}\n" for f, h, p in rows),
            encoding="utf-8",
        )
        got = self.check(path, tmp_path / "out", rule, "bh", adjust, fmt)
        if fmt == "json":
            families = json.loads(got)["selection"]["families"]
            assert [rec["family_id"] for rec in families] == fams
            assert sum(rec["selected"] for rec in families) == selected
            assert sum(len(rec["rejected"]) for rec in families) == 5 * (selected > 0)

    @staticmethod
    def guard_input(shape) -> str:
        """A CSV of rectangular, ragged or mostly singleton families, with
        selected families that reject and, for "singletons" under the
        adaptive two-stage rule, one that rejects nothing and R_min < R."""
        if shape == "singletons":
            q1 = 0.05 / 1.05
            ps = [[q1 / 6], [q1 / 2], [2 * q1], [0.003, 0.5], [0.9]]
            ps.append([0.02, 0.001, 0.7])
        else:
            sizes = [4] * 30 if shape == "rect" else [1 + i % 5 for i in range(25)]
            ps = [
                [round(0.9 - 0.13 * j - 0.02 * (i % 7), 4) for j in range(n)]
                for i, n in enumerate(sizes)
            ]
            for i in range(0, len(ps), 3):
                ps[i][-1] = 1e-5 * (i + 1)
                ps[i][0] = min(ps[i][0], 2e-4 * (i + 1))
        return "family,hypothesis,p_value\n" + "".join(
            f"g{i},h{j},{p!r}\n" for i, fam in enumerate(ps) for j, p in enumerate(fam)
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "shape, rule, adjust",
        [
            ("rect", "minp:0.05", "simple"),
            ("ragged", "minp:0.05", "rmin"),
            ("singletons", "global:simes:two_stage", "rmin"),
        ],
    )
    def test_builds_no_family_decision(
        self, tmp_path, monkeypatch, shape, rule, adjust, fmt
    ):
        path = tmp_path / "in.csv"
        path.write_text(self.guard_input(shape))
        want = oracle_report(path, rule, "bh", 0.05, adjust, fmt)

        def no_decision(*args, **kwargs):
            raise AssertionError("analyze built a FamilyDecision")

        monkeypatch.setattr("famsel.adjust.FamilyDecision", no_decision)
        out = tmp_path / "out"
        args = ["analyze", str(path), "--rule", rule, "--procedure", "bh"]
        args += ["--adjust", adjust, "--format", fmt, "--output", str(out)]
        assert main(args) == 0
        assert out.read_bytes().decode("utf-8") == want

    @pytest.mark.parametrize("block", [1, 2, None])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "shape, rule, adjust",
        [
            ("rect", "minp:0.05", "simple"),
            ("ragged", "minp:0.05", "rmin"),
            ("singletons", "global:simes:two_stage", "rmin"),
        ],
    )
    def test_blocks_of_families(
        self, tmp_path, monkeypatch, shape, rule, adjust, fmt, block
    ):
        if block is not None:
            monkeypatch.setattr(cli, "_REPORT_FAMILIES", block)
        path = tmp_path / "in.csv"
        path.write_text(self.guard_input(shape))
        self.check(path, tmp_path / "out", rule, "bh", adjust, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("adjust", ["simple", "rmin"])
    @pytest.mark.parametrize(
        "rule", ["minp:0.05", "global:simes:bh", "global:simes:twostage"]
    )
    def test_ragged_rows_grouped_by_size(
        self, tmp_path, monkeypatch, rule, adjust, fmt
    ):
        # 400 families of sizes 1-9 with their rows interleaved: the flat
        # rows the reader returns are grouped by size directly, not through
        # PValueEnsemble's list of families, which the oracle builds
        rng = np.random.default_rng(2014)
        rows = [
            (f"f{i}", f"h{j}", p)
            for i, n in enumerate(rng.integers(1, 10, size=400))
            for j, p in enumerate((rng.uniform(size=n) ** 4).tolist())
        ]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        path = tmp_path / "ragged.csv"
        path.write_text(
            "family,hypothesis,p_value\n"
            + "".join(f"{f},{h},{p!r}\n" for f, h, p in rows)
        )
        want = oracle_report(path, rule, "bh", 0.05, adjust, fmt)

        def refused(*args, **kwargs):
            raise AssertionError("analyze built a list of families")

        monkeypatch.setattr(cli.PValueEnsemble, "__init__", refused)
        out = tmp_path / "out"
        args = ["analyze", str(path), "--rule", rule, "--procedure", "bh"]
        args += ["--adjust", adjust, "--format", fmt, "--output", str(out)]
        assert main(args) == 0
        assert out.read_bytes().decode("utf-8") == want

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_r_min_below_r(self, tmp_path, fmt):
        # three singletons where the adaptive two-stage rule's count drops
        # while the middle family stays selected
        q1 = 0.05 / 1.05
        path = tmp_path / "in.csv"
        path.write_text(
            "family,hypothesis,p_value\n"
            + "".join(f"g{i},h,{p!r}\n" for i, p in enumerate([q1 / 6, q1 / 2, 2 * q1]))
        )
        rule = "global:simes:twostage"
        got = self.check(path, tmp_path / "out", rule, "bh", "rmin", fmt)
        if fmt == "json":
            families = json.loads(got)["selection"]["families"]
            assert [rec["r_min"] for rec in families] == [3, 2, 3]


class TestBoundedMemory:
    """The reader and the report writers hold a bounded multiple of their
    input and their report."""

    def test_peaks_stay_in_proportion(self, tmp_path, monkeypatch):
        # 4000 families x 5 = 2x10^4 rows, a tenth of the families with one
        # strong signal
        rng = np.random.default_rng(2014)
        p = rng.uniform(size=(4000, 5))
        p[rng.uniform(size=4000) < 0.1, 0] *= 1e-5
        path = tmp_path / "wide.csv"
        path.write_text(
            "family,hypothesis,p_value\n"
            + "".join(
                f"g{i:06d},h{j + 1},{v!r}\n"
                for i, row in enumerate(p.tolist())
                for j, v in enumerate(row)
            )
        )
        peaks = {}

        def traced(name):
            call = getattr(cli, name)

            def wrapper(*args):
                tracemalloc.start()
                try:
                    return call(*args)
                finally:
                    peaks[name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

            monkeypatch.setattr(cli, name, wrapper)

        traced("_read_families_csv")
        traced("_emit_json")
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--output", str(out)]) == 0
        ratio = peaks["_read_families_csv"] / path.stat().st_size
        assert ratio < 8, f"the reader peaks at {ratio:.1f}x its input"
        ratio = peaks["_emit_json"] / out.stat().st_size
        assert ratio < 3, f"the JSON writer peaks at {ratio:.1f}x its report"
