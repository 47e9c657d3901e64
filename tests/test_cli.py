import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ffitts
from ffitts import Model, compare, datamodel, embedded
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
        assert out.exists()
        assert (tmp_path / "report.fits.csv").exists()
        assert (tmp_path / "report.intercept.csv").exists()
        fits = (tmp_path / "report.fits.csv").read_text()
        assert fits.startswith("model,A_mm,W_mm,id_bits,mt_ms,predicted_mt_ms")

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


    @pytest.mark.parametrize("text, message", [
        ("", "<stdin>: no header row"),
        ("A_mm,W_mm,mt_ms,sigma_obs_mm\n", "<stdin>: header but no data rows"),
    ], ids=["empty", "header-only"])
    def test_stdin_input_errors_name_stdin(self, runner, text, message):
        result = runner.invoke(main, ["fit", "--input", "-"], input=text)
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message}\n")


def _raise_on_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestSignificantFigures:
    """The number format of the md reports."""

    @pytest.mark.parametrize("x,digits,text", [
        (0.0, 3, "0"), (3.14159, 3, "3.14"), (0.0123456, 3, "0.0123"),
        (1234.56, 4, "1235"), (98765.4, 3, "98765"), (-2.5, 2, "-2.5"), (math.inf, 3, "inf"),
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
        assert len(doc["plots"]["fits"]) == 5

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_out_skips_intercept_file_with_note(self, runner, tmp_path, fmt):
        out = tmp_path / f"r.{fmt}"
        result = runner.invoke(main, ["fit", "--input", "-", "--models", "m1", "--format",
                                      fmt, "--out", str(out)], input=self.CSV)
        assert result.exit_code == 0, result.output
        written = {"r.md": ["r.fits.csv"], "r.csv": ["r.fits.csv", "r.wf.csv"]}[out.name]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, *written])
        assert f"note: r.intercept.csv not written: {self.REASON}\n" in result.stderr


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
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        assert piped.output == out.read_text()

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

    def test_negative_seed_is_usage_error(self, runner):
        result = self._simulate(runner, "--seed", "-1")
        assert result.exit_code == 2
        assert "seed must be >= 0, got -1" in result.output

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
        assert result.output.startswith(f"Error: cannot write {self.OUT}: ")
        assert result.output.count("\n") == 1
        assert not isinstance(result.exception, OSError)


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
