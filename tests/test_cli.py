import argparse
import csv
import io
import json

import jsonschema
import pytest

from famsel import cli
from famsel.cli import CSV_COLUMNS, REPORT_SCHEMA, main

THREE_FAMILY_CSV = """family,hypothesis,p_value
g1,h1,0.001
g1,h2,0.7
g2,h3,0.5
g2,h4,0.8
g3,h5,0.01
g3,h6,0.6
"""


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

    def test_output_file(self, three_family_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", three_family_csv, "--output", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(out_path.read_text()), REPORT_SCHEMA)


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

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._threads(argparse.Namespace(threads="64")) == 2
        assert cli._threads(argparse.Namespace(threads="1")) == 1
        monkeypatch.setenv("FAMSEL_THREADS", "16")
        assert cli._threads(argparse.Namespace(threads=None)) == 2


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

    def test_argparse_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--suite", "bogus"])
        assert info.value.code == 2
