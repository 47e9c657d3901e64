import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st

import ffitts
from ffitts import (
    Dataset,
    Dimensionality,
    FfittsError,
    Model,
    TapTable,
    aggregate,
    compare,
    datamodel,
    embedded,
    load_trials_csv,
    write_aggregate_csv,
    write_trials_csv,
)
from ffitts.datamodel import TAP_COLUMNS
from ffitts import cli
from ffitts.cli import main
from ffitts.report import sig

DATA = Path(__file__).parent / "data"
OUTPUTS = DATA / "outputs"
# the hand-built tap log whose sigma and fit outputs are golden outputs too
FIRST_TAPS = str(OUTPUTS / "first_taps.csv")
# prints the loaded SciPy modules, in a code string run by a fresh interpreter
PRINT_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                       "if m == 'scipy' or m.startswith('scipy.')))")


@pytest.fixture
def runner():
    return CliRunner()


class TestFit:
    def test_fit_reference_1d_all_models(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--models", "all",
            "--sigma-a", "calib-ra", "--no-cv",
        ])
        assert result.exit_code == 0
        assert "#1 Baseline" in result.output
        assert "132.7" in result.output          # intercept a
        assert "0.9811" in result.output         # baseline R^2
        assert "unusable: mathematical error in 2 condition(s)" in result.output
        assert "!err" in result.output           # adjusted-width matrix

    def test_fit_m7_with_literal_sigma(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-2d", "--models", "m7",
            "--sigma-a", "1.163", "--no-cv",
        ])
        assert result.exit_code == 0
        assert "0.9355" in result.output

    def test_unknown_dataset_is_usage_error(self, runner):
        result = runner.invoke(main, ["fit", "--dataset", "paper-3d"])
        assert result.exit_code == 2
        assert "paper-1d" in result.output

    def test_unknown_model_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--models", "m9",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("models", [",", "", " , "])
    def test_empty_model_list_is_usage_error(self, runner, models):
        result = runner.invoke(main, ["fit", "--dataset", "paper-1d", "--models", models])
        assert result.exit_code == 2
        assert "--models names no model" in result.output

    def test_repeated_model_fitted_once(self, runner):
        args = ["fit", "--dataset", "paper-1d", "--no-cv", "--format", "csv", "--models"]
        repeated = runner.invoke(main, args + ["m6,m1,m6,m1"])
        assert repeated.exit_code == 0, repeated.output
        assert repeated.stdout_bytes == runner.invoke(main, args + ["m1,m6"]).stdout_bytes
        assert [row["model"] for row in csv.DictReader(io.StringIO(repeated.stdout))] == [
            "m1", "m6"]

    def test_m7_without_sigma_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-2d", "--models", "m7",
        ])
        assert result.exit_code == 2
        assert "--sigma-a" in result.output

    def test_requires_exactly_one_input(self, runner):
        assert runner.invoke(main, ["fit"]).exit_code == 2
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--input", "x.csv",
        ])
        assert result.exit_code == 2
        for command in ("fit", "sigma"):
            result = runner.invoke(main, [command, "--dataset", "paper-1d",
                                          "--input", FIRST_TAPS])
            assert result.exit_code == 2
            assert result.output.endswith("Error: provide exactly one of --dataset or --input\n")

    @pytest.mark.parametrize("command", ["fit", "sigma"])
    def test_directory_input_is_usage_error(self, runner, tmp_path, command):
        result = runner.invoke(main, [command, "--input", str(tmp_path)])
        assert result.exit_code == 2
        assert "is a directory" in result.output

    def test_json_round_trips_fit_fields(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--models", "m1,m6",
            "--format", "json", "--no-cv",
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        report = compare(
            embedded("paper-1d"),
            [Model.M1_BASELINE, Model.M6_W_SQRT_C],
            cv=False,
        )
        by_model = {row["model"]: row for row in doc["models"]}
        for fitted in report.results:
            row = by_model[fitted.model.value]
            for field in ("r2", "adj_r2", "aic", "bic", "a_ms", "b_ms_per_bit",
                          "c_mm", "n", "k"):
                assert row[field] == getattr(fitted, field)
        assert doc["plots"]["intercept"]["points"]

    def test_csv_format(self, runner):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--models", "m1",
            "--format", "csv", "--no-cv",
        ])
        assert result.exit_code == 0
        assert result.output.splitlines()[0].startswith("model,description")

    def test_out_writes_report_and_plot_files(self, runner, tmp_path):
        out = tmp_path / "report.md"
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-2d", "--models", "m1",
            "--no-cv", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert result.stderr == "".join(
            f"wrote {tmp_path / name}\n"
            for name in ("report.md", "report.fits.csv", "report.intercept.csv"))
        assert out.exists()
        assert (tmp_path / "report.fits.csv").exists()
        assert (tmp_path / "report.intercept.csv").exists()
        fits = (tmp_path / "report.fits.csv").read_text()
        assert fits.startswith("model,A_mm,W_mm,id_bits,mt_ms,predicted_mt_ms")

    def test_fits_plot_mt_is_the_observed_mt(self, runner, tmp_path):
        # 177.7 - (p - 177.7) + p for a prediction p far from it is not 177.7
        path = tmp_path / "far.csv"
        path.write_text("A_mm,W_mm,mt_ms,sigma_obs_mm\n60,6,177.7,1.0\n45,8,520,1.0\n"
                        "45,10,499.1,1.0\n60,4,1322.7,1.0\n")
        args = ["fit", "--input", str(path), "--models", "m1", "--no-cv"]
        doc = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        observed = [177.7, 520.0, 499.1, 1322.7]
        assert [row["mt_ms"] for row in doc["plots"]["fits"]] == observed
        assert runner.invoke(main, args + ["--out", str(tmp_path / "r.md")]).exit_code == 0
        rows = csv.DictReader(io.StringIO((tmp_path / "r.fits.csv").read_text()))
        assert [float(r["mt_ms"]) for r in rows] == observed

    def test_csv_out_includes_wf_matrix_file(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-1d", "--models", "m1",
            "--no-cv", "--format", "csv", "--out", str(out),
        ])
        assert result.exit_code == 0
        wf = (tmp_path / "report.wf.csv").read_text()
        assert wf.startswith("method,sigma_a_mm,A_mm,W_mm,wf_mm")
        assert "!err" in wf

    def test_sigma_a_literal_row_in_every_wf_output(self, runner, tmp_path):
        args = ["fit", "--dataset", "paper-2d", "--models", "m7", "--sigma-a", "1.163",
                "--no-cv"]
        catalog = len(embedded("paper-2d").sigma_a_catalog)
        md = runner.invoke(main, args).output
        assert md.count(" | W_f | ") == catalog + 1
        assert "| Given | 1.16 | W_f |" in md
        doc = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        assert len(doc["wf_matrix"]) == catalog + 1
        assert doc["wf_matrix"][-1]["sigma_a"] == {
            "sigma_a_mm": 1.163, "method": "user", "source_dataset": "cli"}
        out = tmp_path / "report.csv"
        assert runner.invoke(main, args + ["--format", "csv", "--out", str(out)]).exit_code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "report.wf.csv").read_text())))
        given = [r for r in rows if r["method"] == "user"]
        assert len(given) == len(rows) // (catalog + 1) == 20
        assert {r["sigma_a_mm"] for r in given} == {"1.163"}

    def test_fit_from_aggregate_file(self, runner, tmp_path, paper_1d):
        from ffitts import write_aggregate_csv

        path = tmp_path / "agg.csv"
        write_aggregate_csv(paper_1d, path)
        result = runner.invoke(main, [
            "fit", "--input", str(path), "--models", "m1", "--no-cv",
        ])
        assert result.exit_code == 0
        assert "0.9811" in result.output

    def test_aggregate_csv_on_stdin(self, runner):
        path = DATA / "outputs" / "paper-2d-aggregate.csv"
        args = ["fit", "--models", "all", "--sigma-a", "0.9", "--format", "csv"]
        from_file = runner.invoke(main, args + ["--input", str(path)])
        from_stdin = runner.invoke(main, args + ["--input", "-"], input=path.read_text())
        assert from_stdin.exit_code == 0, from_stdin.output
        assert from_stdin.stdout_bytes == from_file.stdout_bytes
        assert from_stdin.stdout_bytes.startswith(b"model,description,")

    def test_quoted_header_read_as_tap_log(self, runner, tmp_path):
        log = (DATA / "outputs" / "sim-2d-seed3.csv").read_text()
        header = ",".join(ffitts.TRIAL_CSV_COLUMNS)
        quoted = ",".join(f'"{c}"' for c in ffitts.TRIAL_CSV_COLUMNS)
        outputs = []
        for name, text in [("plain", log), ("quoted", log.replace(header, quoted))]:
            (tmp_path / name).mkdir()
            path = tmp_path / name / "sim.csv"
            path.write_text(text)
            result = runner.invoke(main, ["fit", "--input", str(path), "--sigma-a", "1.3"])
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout_bytes)
        assert quoted in log.replace(header, quoted) and outputs[0] == outputs[1]

    def test_non_finite_aggregate_csv_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "A_mm,W_mm,mt_ms,sigma_obs_mm\n"
            "20,nan,444,0.69\n"
            "20,4,inf,1.29\n"
            "20,6,328,2.16\n"
            "30,2,489,0.899\n"
            "30,4,400,1.28\n"
        )
        result = runner.invoke(main, [
            "fit", "--input", str(path), "--models", "m1", "--format", "json",
        ])
        assert result.exit_code == 2
        assert "line 2" in result.output
        assert "W_mm" in result.output

    def test_singular_cv_fold_prints_no_cv_rmse(self, runner, tmp_path):
        # m1's fold holding out (30, 2) trains on one A/W ratio: its CV RMSE is
        # undefined, and the fit is still reported
        path = tmp_path / "singular.csv"
        path.write_text("A_mm,W_mm,mt_ms,sigma_obs_mm\n"
                        "20,4,300,0.5\n40,8,310,0.5\n60,12,320,0.5\n30,2,420,0.5\n")
        result = runner.invoke(main, ["fit", "--input", str(path), "--models", "m1,m2"])
        assert result.exit_code == 0, result.output
        assert "| #1 Baseline | log2(A/W + 1) | 0.9784 | 0.9677 | 31.0 | 29.8 | --- |" \
            in result.output
        assert "CV RMSE: m2" in result.output

    @pytest.mark.parametrize("row, message", [
        ("45,8,350,-2.0", "line 3: endpoint spread must be finite and > 0, got -2.0"),
        ("20,2,450,0.70", "line 3: duplicate condition (A=20, W=2)"),
    ], ids=["non-positive", "duplicate"])
    def test_bad_aggregate_row_is_usage_error(self, runner, tmp_path, row, message):
        # every bad CSV row exits 2, as a non-finite number does
        path = tmp_path / "bad.csv"
        path.write_text(f"A_mm,W_mm,mt_ms,sigma_obs_mm\n20,2,444,0.69\n{row}\n")
        result = runner.invoke(main, ["fit", "--input", str(path), "--models", "m1"])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message}\n")

    def test_missing_input_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["fit", "--input", "/nonexistent.csv"])
        assert result.exit_code == 2
        assert "/nonexistent.csv" in result.output and "does not exist" in result.output

    @pytest.mark.parametrize("token", ["nan", "inf", "-1"])
    def test_non_finite_sigma_literal_is_usage_error(self, runner, token):
        result = runner.invoke(main, [
            "fit", "--dataset", "paper-2d", "--models", "m7",
            "--sigma-a", token, "--no-cv",
        ])
        assert result.exit_code == 2
        assert "--sigma-a" in result.output


    @pytest.mark.parametrize("source, token, message", [
        ("eq.csv", "calib-ra", "no calib-ra estimate in dataset 'eq'"),
        ("paper-2d", "user", "no user estimate in dataset 'paper-2d'"),
        ("paper-2d", "abc", "--sigma-a must be a number in mm or one of: calib-ra, "
                            "calib-acc, intercept-fitts, intercept-random"),
    ], ids=["not-in-input", "not-in-catalog", "neither"])
    def test_sigma_a_the_dataset_cannot_give_is_usage_error(self, runner, tmp_path, source,
                                                            token, message):
        (tmp_path / "eq.csv").write_text((OUTPUTS / "paper-2d-aggregate.csv").read_text())
        where = (["--input", str(tmp_path / source)] if source.endswith(".csv")
                 else ["--dataset", source])
        result = runner.invoke(main, ["fit", *where, "--sigma-a", token])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message}\n")

    def test_fit_that_fails_is_an_error(self, runner):
        # one A/W ratio: m1's difficulties are all equal, so no line is defined
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m1"], input=(
            "A_mm,W_mm,mt_ms,sigma_obs_mm\n20,4,300,0.5\n40,8,310,0.6\n"
            "60,12,320,0.7\n10,2,330,0.8\n"))
        assert result.exit_code == 1
        assert result.output == "Error: difficulty values are all equal\n"

    def test_equal_difficulties_whose_mean_rounds_away_are_an_error(self, runner):
        # one A/sigma_obs ratio: m2's three difficulties are the same float
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m2", "--no-cv"],
                               input=("A_mm,W_mm,mt_ms,sigma_obs_mm\n10,1,400,0.2\n"
                                      "10,2,410,0.2\n20,3,430,0.4\n"))
        assert result.exit_code == 1
        assert result.output == "Error: difficulty values are all equal\n"

    @pytest.mark.parametrize("text, message", [
        ("", "<stdin>: no header row"),
        ("A_mm,W_mm,mt_ms,sigma_obs_mm\n", "<stdin>: header but no data rows"),
    ], ids=["empty", "header-only"])
    def test_stdin_input_errors_name_stdin(self, runner, text, message):
        result = runner.invoke(main, ["fit", "--input", "-"], input=text)
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message}\n")


class TestThreeConditions:
    """A free-c model fits three conditions with as many coefficients: its
    adjusted R^2, AIC and BIC are undefined, and the report still stands."""

    CSV = "A_mm,W_mm,mt_ms,sigma_obs_mm\n20,2,450,0.8\n30,4,420,1.2\n45,8,400,2.0\n"
    ARGS = ["fit", "--input", "-", "--sigma-a", "0.5", "--format"]

    def test_md_prints_undefined_criteria_as_dashes(self, runner):
        result = runner.invoke(main, self.ARGS + ["md"], input=self.CSV)
        assert result.exit_code == 0, result.output
        rows = [line.split(" | ") for line in result.stdout.splitlines()
                if line.startswith("| #")]
        assert len(rows) == 7
        for i, row in enumerate(rows, 1):  # cells 3-5: adj R2, AIC, BIC
            assert row[0].startswith(f"| #{i} ")
            assert (row[3:6] == ["---"] * 3) is (3 <= i <= 6) and row[2] != "---"
        assert "Best by criterion: R2: m3, adj R2: m1, AIC: m1, BIC: m1\n" in result.stdout

    def test_json_prints_undefined_criteria_as_null(self, runner):
        result = runner.invoke(main, self.ARGS + ["json"], input=self.CSV)
        assert result.exit_code == 0, result.output
        models = json.loads(result.stdout, parse_constant=_raise_on_constant)["models"]
        for row in models:
            undefined = row["model"] in ("m3", "m4", "m5", "m6")
            assert row["usable"] and row["rejected"] is (row["model"] == "m2")
            for key in ("adj_r2", "aic", "bic", "delta_aic", "delta_bic"):
                assert (row[key] is None) is undefined


class TestHelp:
    """--help notes each option's choices, default, range and requiredness."""

    @pytest.mark.parametrize("command, notes", [
        ("fit", ["[1d|2d]", "[default: all]", "[x|y|bivariate]", "[default: y]",
                 "[default: 15.0; x>0]", "[default: cv]", "[md|csv|json]", "[default: md]"]),
        ("sigma", ["[all|calib|intercept]", "[default: all]", "[ra|acc]", "[default: ra]",
                   "[1d|2d]", "[x|y|bivariate]", "[default: y]", "[default: 15.0; x>0]",
                   "[default: 0.05; 0<x<1]", "[md|csv|json]", "[default: md]"]),
        ("simulate", ["[required]", "[required]", "[default: 2,4,6,8,10]",
                      "[default: 20,30,45,60]", "[default: 50]", "[default: 0]", "[1d|2d]",
                      "[default: 1d]", "[default: 100.0]", "[default: 90.0]",
                      "[default: 5.0]", "[default: -]"]),
    ])
    def test_option_notes(self, runner, command, notes):
        text = " ".join(runner.invoke(main, [command, "--help"]).output.split())
        assert re.findall(r"\[[^]]*\]", text) == ["[OPTIONS]"] + notes


def _raise_on_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestSignificantFigures:
    """The number format of the md reports."""

    @pytest.mark.parametrize("x,digits,text", [
        (0.0, 3, "0"), (3.14159, 3, "3.14"), (0.0123456, 3, "0.0123"),
        (1234.56, 4, "1235"), (98765.4, 3, "98765"), (-2.5, 2, "-2.5"), (math.inf, 3, "inf"),
        # figures are counted after rounding: reaching a power of ten adds none
        (99.996, 4, "100.0"), (9.9996, 4, "10.00"), (-99.996, 3, "-100"),
        (999.96, 4, "1000"), (-0.0099996, 3, "-0.0100"), (9.99996e-5, 3, "0.000100"),
        (99999.6, 3, "100000"), (99.94, 3, "99.9"), (-9.994, 3, "-9.99"),
    ])
    def test_sig(self, x, digits, text):
        assert sig(x, digits) == text

    def test_three_figures_by_default(self):
        assert sig(3.14159) == "3.14"


class TestPerfectFit:
    """Every log2(A/W + 1) is an integer, so m1 fits mt = 100 + 90 * ID with
    rss == 0: AIC = BIC = -inf, and the other models' deltas are inf."""

    CONDITIONS = [(2, 2), (6, 2), (14, 2), (4, 4), (12, 4), (28, 4), (8, 8), (24, 8)]
    ARGS = ["fit", "--input", "-", "--models", "m1,m2", "--no-cv", "--format"]

    def _input(self):
        return "A_mm,W_mm,mt_ms,sigma_obs_mm\n" + "".join(
            f"{a},{w},{100 + 90 * math.log2(a / w + 1)!r},{0.5 + 0.1 * w + 0.01 * i!r}\n"
            for i, (a, w) in enumerate(self.CONDITIONS))

    def test_json_is_strict_with_null_criteria(self, runner):
        result = runner.invoke(main, self.ARGS + ["json"], input=self._input())
        assert result.exit_code == 0, result.output
        m1, m2 = json.loads(result.stdout, parse_constant=_raise_on_constant)["models"]
        assert m1["r2"] == 1.0
        assert (m1["aic"], m1["bic"], m1["delta_aic"], m1["delta_bic"]) == (None, None, 0.0, 0.0)
        assert m2["delta_aic"] is None and m2["delta_bic"] is None
        assert m1["rejected"] is False and m2["rejected"] is True

    def test_csv_keeps_infinities_and_zero_delta(self, runner):
        result = runner.invoke(main, self.ARGS + ["csv"], input=self._input())
        assert result.exit_code == 0, result.output
        m1, m2 = csv.DictReader(io.StringIO(result.stdout))
        assert (m1["aic"], m1["bic"], m1["delta_aic"], m1["delta_bic"]) == (
            "-inf", "-inf", "0.0", "0.0")
        assert (m2["delta_aic"], m2["rejected"]) == ("inf", "True")


class TestTwoWidths:
    """The intercept plot needs >= 3 distinct widths; these data have 2."""

    CSV = ("A_mm,W_mm,mt_ms,sigma_obs_mm\n20,2,400,1.5\n30,2,450,1.6\n"
           "20,4,350,2.0\n30,4,380,2.1\n45,4,420,2.2\n")
    REASON = "need summaries at >= 3 distinct widths"

    def test_json_intercept_plot_is_null(self, runner):
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m1", "--format",
                                      "json"], input=self.CSV)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout, parse_constant=_raise_on_constant)
        assert doc["plots"]["intercept"] is None
        assert len(doc["plots"]["fits"]) == self.CSV.count("\n") - 1

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_out_skips_intercept_file_with_note(self, runner, tmp_path, fmt):
        out = tmp_path / f"r.{fmt}"
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m1", "--format",
                                      fmt, "--out", str(out)], input=self.CSV)
        assert result.exit_code == 0, result.output
        written = {"r.md": ["r.fits.csv"], "r.csv": ["r.fits.csv", "r.wf.csv"]}[out.name]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, *written])
        assert f"note: r.intercept.csv not written: {self.REASON}\n" in result.stderr


class TestWidthPastFloatRange(TestTwoWidths):
    """The intercept plot needs finite squared widths; 1e200 squared is not."""

    CSV = ("A_mm,W_mm,mt_ms,sigma_obs_mm\n20,2,450,0.8\n30,4,420,1.2\n45,8,400,2.0\n"
           "50,1e200,300,2.5\n")
    REASON = "row 3: point x must be finite, got inf"


class TestSpreadPastSquareRange(TestTwoWidths):
    """The intercept plot needs finite squared spreads; 1e200 squared is not."""

    CSV = ("A_mm,W_mm,mt_ms,sigma_obs_mm\n20,2,440,1.31\n20,4,373,1.51\n30,2,506,1.25\n"
           "30,4,410,1e200\n45,6,413,1.68\n")
    REASON = "row 3: point y must be finite, got inf"

    def test_json_wf_is_finite(self, runner):
        # sigma_obs^2 overflows, sigma_obs^2 - sigma_a^2 with it; W_f does not
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m1,m7", "--sigma-a",
                                      "1.0", "--format", "json"], input=self.CSV)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout, parse_constant=_raise_on_constant)
        [row] = doc["wf_matrix"]
        wf = row["cells"][3]["wf_mm"]
        assert math.isfinite(wf) and wf == pytest.approx(4.1327313541224926e200)
        assert doc["plots"]["intercept"] is None


class TestInterceptRegressionOverflow(TestTwoWidths):
    """A 1e153 spread squares to 1e306, but the regression's sums overflow."""

    CSV = TestSpreadPastSquareRange.CSV.replace("1e200", "1e153")
    REASON = "the intercept regression overflows"


def test_to_json_rejects_non_finite_values():
    from ffitts.report import to_json

    with pytest.raises(ValueError):
        to_json({"x": float("nan")})


class TestSigma:
    def test_catalog_1d(self, runner):
        result = runner.invoke(main, ["sigma", "--dataset", "paper-1d"])
        assert result.exit_code == 0
        for value in ("0.884", "0.736", "0.977", "1.01"):
            assert value in result.output

    def test_catalog_2d(self, runner):
        result = runner.invoke(main, ["sigma", "--dataset", "paper-2d"])
        assert result.exit_code == 0
        for value in ("1.37", "1.16", "1.33", "1.27"):
            assert value in result.output

    def test_catalog_csv_format(self, runner):
        result = runner.invoke(main, [
            "sigma", "--dataset", "paper-1d", "--format", "csv",
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "method,label,sigma_a_mm,normality,note"
        assert len(lines) == 5

    def test_no_input_is_usage_error(self, runner):
        assert runner.invoke(main, ["sigma"]).exit_code == 2

    def test_empty_input_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("participant,block,trial,A_mm,W_mm,target_x_mm,"
                        "target_y_mm,touch_x_mm,touch_y_mm,mt_ms,tap_index,"
                        "is_practice\n")
        result = runner.invoke(main, ["sigma", "--input", str(path)])
        assert result.exit_code == 2

    def test_missing_input_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["sigma", "--input", "/nonexistent.csv"])
        assert result.exit_code == 2
        assert "/nonexistent.csv" in result.output and "does not exist" in result.output

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan", "inf"])
    def test_alpha_outside_open_unit_interval_is_usage_error(self, runner, alpha):
        result = runner.invoke(main, [
            "sigma", "--input", FIRST_TAPS, "--alpha", alpha,
        ])
        assert result.exit_code == 2
        assert "--alpha" in result.output

    def test_instruction_tags_the_calibration_row(self, runner):
        rows = {}
        for instruction in ("ra", "acc"):
            result = runner.invoke(main, ["sigma", "--input", FIRST_TAPS, "--method", "calib",
                                          "--instruction", instruction, "--format", "json"])
            assert result.exit_code == 0, result.output
            (rows[instruction],) = json.loads(result.stdout)["estimates"]
        assert (rows["ra"]["method"], rows["acc"]["method"]) == ("calib-ra", "calib-acc")
        assert rows["ra"]["sigma_a_mm"] == rows["acc"]["sigma_a_mm"]

    def test_input_selects_first_taps_once(self, runner, monkeypatch):
        # the calibration and intercept rows share one selection
        calls, real = [], datamodel.first_taps

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(datamodel, "first_taps", counting)
        monkeypatch.setattr(cli, "first_taps", counting)
        result = runner.invoke(main, [
            "sigma", "--input", FIRST_TAPS, "--method", "all",
        ])
        assert result.exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [
        ["sigma", "--method", "all", "--format", "json"],
        ["fit", "--models", "m1,m2,m7", "--sigma-a", "0.9", "--format", "json"],
    ])
    def test_bivariate_means_y_for_every_spread_in_1d(self, runner, command):
        # sim-1d-seed3.csv was simulated with sigma_a 1.153; the intercept row
        # used bivariate summaries (0.798) next to a y calibration row
        log = str(DATA / "outputs" / "sim-1d-seed3.csv")
        args = command[:1] + ["--input", log, "--dim", "1d"] + command[1:]
        bivariate = runner.invoke(main, args + ["--axis", "bivariate"])
        y = runner.invoke(main, args + ["--axis", "y"])
        assert bivariate.exit_code == 0
        assert bivariate.output == y.output
        if command[0] == "sigma":
            est = {r["method"]: r["sigma_a_mm"] for r in json.loads(y.output)["estimates"]}
            assert est["calib-ra"] == pytest.approx(1.33, abs=0.005)
            assert est["intercept-fitts"] == pytest.approx(1.13, abs=0.005)

    def test_simulate_piped_to_intercept_sigma(self, runner):
        sim = runner.invoke(main, [
            "simulate", "--alpha", "0.0108", "--sigma-a", "1.153",
            "--widths", "2,4,6,8,10", "--amplitudes", "30",
            "--trials", "20000", "--seed", "7", "--dim", "1d",
        ])
        assert sim.exit_code == 0
        result = runner.invoke(main, [
            "sigma", "--input", "-", "--method", "intercept",
            "--dim", "1d", "--axis", "y", "--outlier-mm", "1000000",
            "--format", "json",
        ], input=sim.output)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        (row,) = [r for r in doc["estimates"] if r["method"] == "intercept-fitts"]
        assert abs(row["sigma_a_mm"] - 1.153) / 1.153 < 0.05

    def test_simulated_log_on_stdin_reads_as_the_file(self, runner, tmp_path):
        simulate = ["simulate", "--alpha", "0.01", "--sigma-a", "1", "--trials", "200",
                    "--dim", "2d", "--seed", "5"]
        sim = runner.invoke(main, simulate)
        assert runner.invoke(main, simulate + ["--out", str(tmp_path / "sim.csv")]).exit_code == 0
        sigma = ["sigma", "--method", "all", "--dim", "2d", "--format", "csv", "--input"]
        from_stdin = runner.invoke(main, sigma + ["-"], input=sim.stdout)
        from_file = runner.invoke(main, sigma + [str(tmp_path / "sim.csv")])
        assert from_stdin.exit_code == 0, from_stdin.output
        assert from_stdin.stdout_bytes == from_file.stdout_bytes
        assert from_stdin.stdout.startswith("method,label,sigma_a_mm,")

    @pytest.mark.parametrize("trials", [2, 6000])
    def test_intercept_normality_skipped_without_a_testable_group(self, runner, trials):
        # 2 or 6000 first taps per condition: every group is outside the
        # range [3, 5000] of the normality test, so none is tested
        sim = runner.invoke(main, ["simulate", "--alpha", "0.0108", "--sigma-a", "1.153",
                                   "--trials", str(trials), "--seed", "3"])
        result = runner.invoke(main, ["sigma", "--input", "-", "--method", "all"],
                               input=sim.stdout)
        assert result.exit_code == 0, result.output
        row = result.output.splitlines()[-1]
        assert row.startswith("| Fitts | ")
        assert " | skipped: no condition group size in supported range [3, 5000] | " in row

    def test_calibration_estimate_kept_above_normality_range(self, runner, tmp_path):
        # 20 conditions x 300 trials = 6000 first taps, above the range
        # [3, 5000] of the normality test
        log = tmp_path / "sim.csv"
        sim = runner.invoke(main, [
            "simulate", "--alpha", "0.02", "--sigma-a", "1", "--trials", "300",
            "--dim", "2d", "--seed", "3", "--out", str(log),
        ])
        assert sim.exit_code == 0
        result = runner.invoke(main, [
            "sigma", "--input", str(log), "--method", "all", "--dim", "2d",
            "--axis", "bivariate", "--format", "json",
        ])
        assert result.exit_code == 0
        (row,) = [r for r in json.loads(result.output)["estimates"]
                  if r["method"] == "calib-ra"]
        assert row["normality"].startswith("skipped:")
        assert "6000" in row["normality"]

        with open(log, newline="") as fh:
            taps = [r for r in csv.DictReader(line for line in fh if not line.startswith("#"))
                    if r["is_practice"] == "false" and r["tap_index"] == "1"]
        dx = np.array([float(r["touch_x_mm"]) - float(r["target_x_mm"]) for r in taps])
        dy = np.array([float(r["touch_y_mm"]) - float(r["target_y_mm"]) for r in taps])
        keep = np.hypot(dx, dy) <= 15.0
        assert keep.sum() > 5000
        expected = np.sqrt((np.var(dx[keep], ddof=1) + np.var(dy[keep], ddof=1)) / 2)
        assert row["sigma_a_mm"] == pytest.approx(float(expected), rel=1e-12)


def _first_tap_log(path, groups):
    """Write a tap log of first taps at (A, W, dx values, dy values) groups,
    one trial per (dx, dy) pair."""
    rows = [("p1", 0, t, a, w, a, 0.0, a + dx, dy, 300.0 + t, 1, False)
            for a, w, dxs, dys in groups for t, (dx, dy) in enumerate(zip(dxs, dys), 1)]
    write_trials_csv(TapTable(*map(list, zip(*rows))), path)


class TestSigmaRowsThatFail:
    SPREAD = [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_calibration_that_fails_is_a_warning_row(self, runner, tmp_path):
        # every tap on the target's y: the y deviations have no spread
        log = tmp_path / "log.csv"
        _first_tap_log(log, [(30.0, w, self.SPREAD, [0.0] * 5) for w in (2.0, 4.0, 6.0)])
        result = runner.invoke(main, ["sigma", "--input", str(log), "--method", "calib",
                                      "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["estimates"] == [{
            "method": "calib-ra", "label": "Calib (R&A)", "sigma_a_mm": None,
            "normality": None, "note": "warning: zero variance in calibration deviations"}]

    def test_zero_variance_group_counts_as_failing_normality(self, runner, tmp_path):
        # the W = 6 group's dy is constant while its dx varies: its bivariate
        # spread is defined, and its dy sample fails the normality test
        log = tmp_path / "log.csv"
        _first_tap_log(log, [(30.0, 2.0, self.SPREAD, self.SPREAD),
                             (30.0, 4.0, self.SPREAD[::-1], [1.2 * d for d in self.SPREAD]),
                             (30.0, 6.0, [2 * d for d in self.SPREAD], [0.3] * 5)])
        result = runner.invoke(main, ["sigma", "--input", str(log), "--method", "intercept",
                                      "--axis", "bivariate", "--format", "json"])
        assert result.exit_code == 0, result.output
        (row,) = json.loads(result.stdout)["estimates"]
        assert row["sigma_a_mm"] > 0 and row["normality"] == "2/3 condition groups pass"


@st.composite
def small_tap_logs(draw):
    """A 2D tap log of 4 to 6 conditions of 3 to 5 trials: a first tap and
    sometimes a re-tap per trial, some practice rows and some taps past the
    15 mm outlier radius."""
    conditions = draw(st.lists(st.tuples(st.sampled_from([20.0, 30.0, 45.0, 60.0]),
                                         st.sampled_from([2.0, 4.0, 6.0, 8.0])),
                               min_size=4, max_size=6, unique=True))
    rows = []
    for a, w in conditions:
        for trial in range(1, draw(st.integers(3, 5)) + 1):
            pid = draw(st.sampled_from(["p1", "p2"]))
            for tap in range(1, draw(st.sampled_from([1, 1, 2])) + 1):
                dx, dy = draw(st.integers(-160, 160)), draw(st.integers(-60, 60))
                rows.append((pid, 0, trial, a, w, a, 0.0, a + dx / 10, dy / 10,
                             float(draw(st.integers(150, 900))), tap,
                             draw(st.integers(0, 9)) == 0))
    return TapTable(*map(list, zip(*rows)))


# fit and sigma of a log written as taps.csv, in every format
_LOG_COMMANDS = [[*cmd, "--format", fmt] for fmt in ("md", "csv", "json") for cmd in (
    ["fit", "--input", "taps.csv", "--models", "all", "--sigma-a", "1.0"],
    ["sigma", "--input", "taps.csv", "--method", "all"])]


def _outputs(taps, commands=_LOG_COMMANDS):
    """Exit code and stdout bytes of each command on a log written as taps.csv."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        write_trials_csv(taps, "taps.csv")
        return [(r.exit_code, r.stdout_bytes)
                for r in (runner.invoke(main, args) for args in commands)]


@settings(max_examples=8, deadline=None)
@given(log=small_tap_logs(), seed=st.integers(0, 2**32 - 1))
def test_row_order_does_not_reach_the_output(log, seed):
    """A tap log and a row permutation of it, each written under one file
    name, give the same exit code and stdout bytes for fit and sigma."""
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(log))
    shuffled = TapTable(*(getattr(log, name)[order] for name in TAP_COLUMNS))
    assert _outputs(shuffled) == _outputs(log)


# participant IDs that the tap CSV keeps: no leading '#', surrounding
# whitespace or line break
_PARTICIPANT_IDS = st.text(alphabet='p1 ,"#\u00e9', min_size=1, max_size=4).filter(
    lambda pid: pid == pid.strip() and not pid.startswith("#"))


@settings(max_examples=6, deadline=None)
@given(log=small_tap_logs(),
       labels=st.lists(_PARTICIPANT_IDS, min_size=2, max_size=2, unique=True))
def test_participant_labels_do_not_reach_the_output(log, labels):
    """Relabelling the participants one to one changes no output byte."""
    relabelled = TapTable(**{name: getattr(log, name) for name in TAP_COLUMNS
                             if name != "participant"},
                          participant=np.where(log.participant == "p1", *labels))
    assert _outputs(relabelled) == _outputs(log)


@settings(max_examples=6, deadline=None)
@given(log=small_tap_logs(), data=st.data())
def test_dropped_rows_do_not_reach_the_output(log, data):
    """Practice rows anywhere, at any condition, and taps past the 15 mm
    outlier radius at the log's live conditions (those with a row that is
    not practice) change no output byte.  A far tap elsewhere would make a
    live condition with no retained trial, an error by design."""
    live = ~log.is_practice
    conditions = sorted(set(zip(log.amplitude_mm[live].tolist(), log.width_mm[live].tolist())))
    rows = list(zip(*(getattr(log, name).tolist() for name in TAP_COLUMNS)))
    for _ in range(data.draw(st.integers(1, 6))):
        practice = data.draw(st.booleans()) or not conditions
        a, w = data.draw(st.sampled_from(conditions + [(90.0, 3.0)] * practice))
        dx = (data.draw(st.integers(-160, 160)) if practice
              else data.draw(st.sampled_from([-1, 1])) * data.draw(st.integers(151, 400)))
        row = (data.draw(st.sampled_from(["p1", "p2", "p3"])), 0, data.draw(st.integers(1, 5)),
               a, w, a, 0.0, a + dx / 10, data.draw(st.integers(-60, 60)) / 10,
               float(data.draw(st.integers(150, 900))), data.draw(st.integers(1, 2)), practice)
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    assert _outputs(TapTable(*map(list, zip(*rows)))) == _outputs(log)


@settings(max_examples=6, deadline=None)
@given(log=small_tap_logs())
def test_log_and_its_aggregate_dump_fit_alike(log):
    """fit --input of a log and of its write_aggregate_csv dump, under one
    file stem, print the same bytes."""
    try:
        summaries = aggregate(log)
    except FfittsError:  # a log that no fit reads, such as one of practice rows only
        assume(False)
    fits = [cmd for cmd in _LOG_COMMANDS if cmd[0] == "fit"]
    runner = CliRunner()
    with runner.isolated_filesystem():
        write_aggregate_csv(Dataset("taps", Dimensionality.TWO_D, tuple(summaries)),
                            "taps.csv")
        dumped = [(r.exit_code, r.stdout_bytes)
                  for r in (runner.invoke(main, args) for args in fits)]
    assert dumped == _outputs(log, fits)


_LENGTHS = ("amplitude_mm", "width_mm", "target_x_mm", "target_y_mm", "touch_x_mm",
            "touch_y_mm")


def _json_outputs(taps, k):
    """Exit code and JSON of fit and sigma on a log whose lengths are in
    units 1/k of a millimetre: --sigma-a and --outlier-mm scale by k too."""
    scaled = ["--outlier-mm", repr(15.0 * k), "--format", "json"]
    return [(code, json.loads(out) if code == 0 else None) for code, out in _outputs(taps, [
        ["fit", "--input", "taps.csv", "--models", "all", "--sigma-a", repr(k), *scaled],
        ["sigma", "--input", "taps.csv", "--method", "all", *scaled]])]


@settings(max_examples=6, deadline=None)
@given(log=small_tap_logs(), k=st.sampled_from([2.54, 0.1, 10.0]))
@example(log=load_trials_csv(FIRST_TAPS), k=2.54)
def test_unit_of_length_scales_c_and_sigma_a(log, k):
    """Scaling every length of a log by k scales each model's c and each
    sigma_a estimate by k, up to rounding, and keeps every CV RMSE."""
    # a first tap on the 15 mm radius could round to either side of it
    dist = np.hypot(log.touch_x_mm - log.target_x_mm, log.touch_y_mm - log.target_y_mm)
    assume(not (abs(dist - 15.0) < 1e-9).any())
    scaled = TapTable(**{name: getattr(log, name) * k if name in _LENGTHS
                         else getattr(log, name) for name in TAP_COLUMNS})
    base, other = _json_outputs(log, 1.0), _json_outputs(scaled, k)
    assert [code for code, _ in other] == [code for code, _ in base]
    (_, fit), (_, sigma) = base
    (_, fit_k), (_, sigma_k) = other
    for r, t in zip(fit["models"], fit_k["models"]) if fit else ():
        assert (t["c_mm"] is None, t["cv_rmse_ms"] is None) == (
            r["c_mm"] is None, r["cv_rmse_ms"] is None)
        if r["c_mm"] is not None:
            assert t["c_mm"] / k == pytest.approx(r["c_mm"], rel=1e-9, abs=1e-5)
        if r["cv_rmse_ms"] is not None:
            assert t["cv_rmse_ms"] == pytest.approx(r["cv_rmse_ms"], rel=1e-4)
    for r, t in zip(sigma["estimates"], sigma_k["estimates"]) if sigma else ():
        assert (t["sigma_a_mm"] is None) == (r["sigma_a_mm"] is None)
        if r["sigma_a_mm"] is not None:
            assert t["sigma_a_mm"] / k == pytest.approx(r["sigma_a_mm"], rel=1e-9)


class TestFirstTapsGolden:
    """Option checks on the first-tap log; its outputs are in data/outputs/."""

    @pytest.mark.parametrize("command", ["fit", "sigma"])
    @pytest.mark.parametrize("radius", ["0", "-1", "nan"])
    def test_non_positive_outlier_radius_is_usage_error(self, runner, command, radius):
        result = runner.invoke(main, [
            command, "--input", FIRST_TAPS, "--outlier-mm", radius,
        ])
        assert result.exit_code == 2


class TestSimulate:
    # the config field each option sets, which its error message names
    FIELD = {"--alpha": "alpha", "--sigma-a": "sigma_a_mm", "--widths": "widths_mm",
             "--amplitudes": "amplitudes_mm", "--mt-a": "a_ms", "--mt-b": "b_ms_per_bit",
             "--mt-noise": "noise_sd_ms"}

    def test_byte_identical_for_fixed_seed(self, runner, tmp_path):
        args = [
            "simulate", "--alpha", "0", "--sigma-a", "1.0",
            "--trials", "20", "--seed", "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_echoed_in_metadata(self, runner):
        result = runner.invoke(main, [
            "simulate", "--alpha", "0", "--sigma-a", "1.0", "--trials", "5",
        ])
        assert result.exit_code == 0
        assert "# seed=0" in result.output
        assert "# normal_algorithm=inverse-cdf(PCG64)" in result.output

    def test_stdout_matches_file_output(self, runner, tmp_path):
        args = [
            "simulate", "--alpha", "0.01", "--sigma-a", "0.5",
            "--trials", "10", "--seed", "11",
        ]
        piped = runner.invoke(main, args)
        out = tmp_path / "f.csv"
        written = runner.invoke(main, args + ["--out", str(out)])
        assert written.exit_code == 0
        assert piped.output == out.read_text()
        taps = sum(not line.startswith("#") for line in piped.output.splitlines()) - 1
        assert written.stderr == f"wrote {out} ({taps} taps)\n"

    @pytest.mark.parametrize("flag", ["--alpha", "--sigma-a", "--widths", "--amplitudes",
                                      "--mt-a", "--mt-b", "--mt-noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_usage_error(self, runner, flag, value):
        result = self._simulate(runner, flag, value)
        assert result.exit_code == 2
        assert "finite" in result.output
        assert self.FIELD[flag] in result.output

    def test_negative_mt_noise_is_usage_error(self, runner):
        result = self._simulate(runner, "--mt-noise", "-1")
        assert result.exit_code == 2
        assert "noise_sd_ms must be finite and >= 0, got -1.0" in result.output

    @staticmethod
    def _simulate(runner, flag, value):
        args = {"--alpha": "0.01", "--sigma-a": "1", "--widths": "2,4",
                "--amplitudes": "30"}
        args[flag] = value
        return runner.invoke(main, ["simulate", "--trials", "5"]
                             + [t for kv in args.items() for t in kv])

    def test_spread_past_float_range_is_usage_error(self, runner):
        # sqrt(alpha) * W is inf: the table of taps rejects it, with no warning
        result = runner.invoke(main, ["simulate", "--alpha", "1e308", "--sigma-a", "1",
                                      "--widths", "1e300", "--amplitudes", "20",
                                      "--trials", "3"])
        assert result.exit_code == 2
        assert result.output.endswith("Error: row 0: touch_y_mm must be finite, got inf\n")

    def test_negative_seed_is_usage_error(self, runner):
        result = self._simulate(runner, "--seed", "-1")
        assert result.exit_code == 2
        assert "seed must be >= 0, got -1" in result.output

    @pytest.mark.parametrize("flag,value,message", [
        ("--widths", "2,2,4", "row 1: widths_mm must not repeat a value, got 2.0"),
        ("--widths", "4,2,4.0", "row 2: widths_mm must not repeat a value, got 4.0"),
        ("--amplitudes", "30,3e1", "row 1: amplitudes_mm must not repeat a value, got 30.0"),
    ])
    def test_repeated_width_or_amplitude_is_usage_error(self, runner, flag, value, message):
        # the repeated condition would be written twice under the same trial keys
        result = self._simulate(runner, flag, value)
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message}\n")

    def test_bad_width_list_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "simulate", "--alpha", "0", "--sigma-a", "1",
            "--widths", "2,zebra",
        ])
        assert result.exit_code == 2


class TestUnwritableOut:
    OUT = "/nonexistent/dir/x.csv"

    @pytest.mark.parametrize("args", [
        ["simulate", "--alpha", "0.01", "--sigma-a", "1", "--trials", "5"],
        ["fit", "--dataset", "paper-2d", "--models", "m1", "--no-cv"],
        ["sigma", "--dataset", "paper-2d"],
    ], ids=lambda args: args[0])
    def test_one_line_error_naming_the_path(self, runner, args):
        result = runner.invoke(main, args + ["--out", self.OUT])
        assert result.exit_code == 1
        assert result.output == f"Error: cannot write {self.OUT}: No such file or directory\n"
        assert not isinstance(result.exception, OSError)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("args", [
        ["simulate", "--alpha", "0.01", "--sigma-a", "1", "--trials", "5"],
        ["fit", "--dataset", "paper-2d", "--models", "m1", "--no-cv"],
    ], ids=lambda args: args[0])
    def test_full_stdout_is_one_line_error(self, subprocess_env, args, buffered):
        # the unwritten rest of stdout's buffer must not fail again at exit
        subprocess_env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            subprocess_env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ffitts.cli", *args], stdout=full,
                                  stderr=subprocess.PIPE, env=subprocess_env, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            1, b"Error: cannot write -: No space left on device\n")


class TestDashOut:
    @pytest.mark.parametrize("args", [
        ["fit", "--dataset", "paper-1d", "--models", "m1", "--no-cv"],
        ["fit", "--dataset", "paper-1d", "--models", "m1", "--no-cv", "--format", "csv"],
        ["sigma", "--dataset", "paper-1d"],
    ], ids=["fit-md", "fit-csv", "sigma"])
    def test_same_as_no_out(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        plain = runner.invoke(main, args)
        dash = runner.invoke(main, args + ["--out", "-"])
        assert dash.exit_code == 0, dash.output
        assert dash.stdout_bytes == plain.stdout_bytes != b""
        assert dash.stderr_bytes == b""
        assert list(tmp_path.iterdir()) == []


class TestBrokenPipe:
    """A reader that stops early ends the command quietly: exit status 1 and
    nothing on stderr."""

    CLI = [sys.executable, "-m", "ffitts.cli"]

    def test_reader_closed_after_one_line(self, subprocess_env):
        proc = subprocess.Popen(
            self.CLI + ["simulate", "--alpha", "0.01", "--sigma-a", "1", "--trials", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env)
        assert proc.stdout.readline().startswith(b"#")
        proc.stdout.close()  # ~3 MB of taps are still to come
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("args", [
        ["fit", "--dataset", "paper-2d", "--models", "m1,m2"],
        ["sigma", "--dataset", "paper-2d"],
    ], ids=lambda args: args[0])
    def test_reader_closed_before_output(self, args, subprocess_env):
        # stdout buffered, as it is unless PYTHONUNBUFFERED is set: the report
        # reaches the closed pipe only when the command flushes it
        subprocess_env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(self.CLI + args, stdout=write_end, stderr=subprocess.PIPE,
                                  env=subprocess_env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestByteOrderMark:
    """Spreadsheet "CSV UTF-8" exports start with U+FEFF, which is ignored."""

    LOG = (DATA / "outputs" / "sim-2d-seed3.csv").read_text(encoding="utf-8")
    SUMMARIES = (DATA / "outputs" / "paper-2d-aggregate.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("command, text", [
        (["sigma", "--axis", "bivariate", "--dim", "2d"], LOG),
        (["sigma", "--axis", "bivariate", "--dim", "2d"], LOG[LOG.index("participant"):]),
        (["fit", "--sigma-a", "1.3"], LOG),
        (["fit", "--sigma-a", "0.9"], SUMMARIES),
        (["fit", "--sigma-a", "0.9"], "# exported\n" + SUMMARIES),
    ], ids=["log-comment", "log-header", "fit-log-comment", "summaries-header",
            "summaries-comment"])
    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_leading_bom_ignored(self, runner, tmp_path, monkeypatch, command, text, stdin):
        outputs = []
        for name, content in [("plain", text), ("bom", "\ufeff" + text)]:
            if stdin:
                result = runner.invoke(main, command + ["--input", "-"], input=content)
            else:
                # the sigma report names its input as given
                (tmp_path / name).mkdir()
                monkeypatch.chdir(tmp_path / name)
                Path("in.csv").write_text(content, encoding="utf-8")
                result = runner.invoke(main, command + ["--input", "in.csv"])
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout_bytes)
        assert outputs[0] == outputs[1]


class TestUnreadableInput:
    """A log csv cannot read, or that is not UTF-8, is a usage error (exit 2)."""

    LOG = (DATA / "outputs" / "sim-2d-seed3.csv").read_bytes()
    HEADER = LOG.index(b"participant")
    FIRST_ROW = LOG.index(b"\n", HEADER) + 1
    LINE = LOG[:FIRST_ROW].count(b"\n") + 1

    @pytest.mark.parametrize("command", [["sigma"], ["fit", "--sigma-a", "1.3"]],
                             ids=["sigma", "fit"])
    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", ["field-limit", "not-utf8"])
    def test_usage_error(self, runner, tmp_path, command, stdin, case):
        row = self.LOG[self.FIRST_ROW:]
        if case == "field-limit":
            # beyond csv.field_size_limit(), 131072 by default
            data = self.LOG[:self.FIRST_ROW] + b"p" * 140000 + row[row.index(b","):]
        else:
            data = self.LOG[:self.FIRST_ROW] + b"p\xff" + row[row.index(b","):]
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        if stdin:
            result = runner.invoke(main, command + ["--input", "-"], input=data)
        else:
            result = runner.invoke(main, command + ["--input", str(path)])
        name = "<stdin>" if stdin else str(path)
        expected = {"field-limit": f"line {self.LINE}: field larger than field limit (131072)",
                    "not-utf8": f"{name}: not UTF-8 text"}[case]
        assert (result.exit_code, result.output.splitlines()[-1]) == (2, f"Error: {expected}")


class TestDatasets:
    def test_lists_embedded(self, runner):
        result = runner.invoke(main, ["datasets"])
        assert result.exit_code == 0
        assert "paper-1d" in result.output
        assert "paper-2d" in result.output
        assert "Calib (R&A)" in result.output

    def test_sigma_unknown_dataset_is_usage_error(self, runner):
        result = runner.invoke(main, ["sigma", "--dataset", "paper-3d"])
        assert result.exit_code == 2
        assert "paper-1d" in result.output


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self, subprocess_env):
        # ffitts runs without SciPy; the tests below check the commands that
        # draw or test normals too
        code = ("import sys, ffitts.cli; "
                "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"

    def test_normality_check_leaves_scipy_unloaded(self, subprocess_env):
        code = ("import sys; from ffitts import normality_check; "
                "normality_check([0.1, -0.4, 0.3, 0.9, -1.2]); " + PRINT_SCIPY_MODULES)
        proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"

    def test_sigma_input_leaves_scipy_unloaded(self, subprocess_env):
        code = ("import sys; from ffitts.cli import main; "
                f"main(['sigma', '--input', {FIRST_TAPS!r}], standalone_mode=False); "
                + PRINT_SCIPY_MODULES)
        proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert "W=0.973 p=0.317 pass" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_simulate_out_leaves_scipy_unloaded(self, subprocess_env, tmp_path):
        code = ("import sys; from ffitts.cli import main; "
                "main(['simulate', '--alpha', '0.0108', '--sigma-a', '1.153', '--seed', '3', "
                f"'--out', {str(tmp_path / 'sim.csv')!r}], standalone_mode=False); "
                + PRINT_SCIPY_MODULES)
        proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "sim.csv").read_bytes() == (OUTPUTS / "sim-1d-seed3.csv").read_bytes()

    def test_simulate_sigma_pipe_runs_where_scipy_cannot_import(self, subprocess_env):
        # a None entry in sys.modules makes every "import scipy..." raise
        # ImportError, as where SciPy is not installed
        code = "import sys; sys.modules['scipy'] = None; from ffitts.cli import main; main()"

        def run(args, stdin=b""):
            return subprocess.run([sys.executable, "-c", code, *args], env=subprocess_env,
                                  input=stdin, capture_output=True, timeout=60,
                                  check=True).stdout

        sim = run(["simulate", "--alpha", "0.0108", "--sigma-a", "1.3", "--trials", "50",
                   "--seed", "3", "--dim", "2d"])
        assert sim == (OUTPUTS / "sim-2d-seed3.csv").read_bytes()
        sigma = run(["sigma", "--input", "-", "--axis", "bivariate", "--dim", "2d",
                     "--format", "csv"], sim)
        assert sigma == (OUTPUTS / "sigma-sim-2d-seed3-bivariate.csv").read_bytes()


class TestColor:
    def test_env_var_disables_color(self, runner, monkeypatch):
        # click.echo keeps ANSI codes only on a terminal, which color=True stands for
        monkeypatch.delenv("FFITTS_NO_COLOR", raising=False)
        assert "\x1b[" in runner.invoke(main, ["datasets"], color=True).output
        assert "\x1b[" not in runner.invoke(main, ["datasets"]).output
        monkeypatch.setenv("FFITTS_NO_COLOR", "1")
        assert "\x1b[" not in runner.invoke(main, ["datasets"], color=True).output

    def test_dataset_names_in_bold_on_a_terminal(self, runner, monkeypatch):
        monkeypatch.delenv("FFITTS_NO_COLOR", raising=False)
        lines = runner.invoke(main, ["datasets"], color=True).output.splitlines()
        assert [line for line in lines if line.startswith("\x1b[")] == [
            "\x1b[1mpaper-1d\x1b[0m", "\x1b[1mpaper-2d\x1b[0m"]
