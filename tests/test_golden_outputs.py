"""Byte-exact stdout of simulate, sigma, fit and datasets, the files
``fit --out`` writes, and the fit values themselves as ``float.hex``.
The ``sigma --input`` goldens are also made through the library
(``report.sigma_rows`` and its formatters), without the CLI.

The outputs in data/outputs/ and the numpy and BLAS versions they were
made with are listed in data/outputs/manifest.json; regenerate them with
data/outputs/regenerate.py.  Float results may differ in the last digit
across numpy or BLAS releases (the fit goes through matrix products), so on
other versions the comparison is skipped, never loosened.  No output
depends on SciPy, whose version is therefore not recorded.
The cases the manifest flags ``pure_python`` (``datasets`` and ``sigma
--dataset``, which only format bundled constants) run on any versions.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ffitts import AxisMode, SigmaMethod, SimulatorConfig, first_taps, generate, load_trials_csv
from ffitts import report
from ffitts.cli import main

OUT = Path(__file__).parent / "data" / "outputs"
MANIFEST = json.loads((OUT / "manifest.json").read_text(encoding="utf-8"))
_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
RUNNING = {"numpy": np.__version__, "blas": f"{_BLAS['name']} {_BLAS['version']}"}
_SPEC = importlib.util.spec_from_file_location("regenerate", OUT / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)
FIT_VALUES = json.loads((OUT / "fit-values.json").read_text(encoding="utf-8"))


def _skip_on_other_versions(case=None):
    if case is not None and case.get("pure_python"):
        return
    other = [f"{name} {MANIFEST[name]} (running {version})"
             for name, version in RUNNING.items() if version != MANIFEST[name]]
    if other:
        pytest.skip("golden outputs were made with " + ", ".join(other))


@pytest.mark.parametrize("case", [c for c in MANIFEST["cases"] if "stdout" in c],
                         ids=lambda c: c["stdout"])
def test_stdout_unchanged(monkeypatch, case):
    _skip_on_other_versions(case)
    # the reports name their input as given, so run from outputs/
    monkeypatch.chdir(OUT)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (OUT / case["stdout"]).read_bytes()


@pytest.mark.parametrize("case", [c for c in MANIFEST["cases"] if "files" in c],
                         ids=lambda c: c["files"][0])
def test_out_files_unchanged(monkeypatch, tmp_path, case):
    _skip_on_other_versions(case)
    # --out writes next to the report, so run where it cannot touch outputs/
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, case["args"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(case["files"])
    for name in case["files"]:
        assert (tmp_path / name).read_bytes() == (OUT / name).read_bytes(), name


@pytest.mark.parametrize("name", list(FIT_VALUES))
def test_fit_values_unchanged(name):
    _skip_on_other_versions()
    summaries, sigma_a = regenerate.condition_sets()[name]
    assert regenerate.fit_values(summaries, sigma_a) == FIT_VALUES[name]


def _library_sigma_text(args: list[str]) -> str:
    """What ``ffitts sigma --input`` prints for ``args``, made by the library:
    ``report.sigma_rows`` on the log's first taps, then the case's formatter."""
    opts = dict(zip(args[1::2], args[2::2]))
    log, fmt = opts["--input"], opts.get("--format", "md")
    axis = AxisMode(opts.get("--axis", "y"))
    if axis is AxisMode.BIVARIATE and opts.get("--dim") == "1d":
        axis = AxisMode.Y
    calib = SigmaMethod.CALIB_RAPID_ACCURATE  # no case passes --instruction
    estimators = {"all": [calib, SigmaMethod.INTERCEPT_FITTS], "calib": [calib],
                  "intercept": [SigmaMethod.INTERCEPT_FITTS]}[opts.get("--method", "all")]
    rows = report.sigma_rows(first_taps(load_trials_csv(log)), estimators, axis)
    if fmt == "json":
        return report.to_json(report.sigma_document(log, rows))
    return report.render_sigma_csv(rows) if fmt == "csv" else report.render_sigma_md(log, rows)


@pytest.mark.parametrize("case", [c for c in MANIFEST["cases"]
                                  if c["args"][:2] == ["sigma", "--input"]],
                         ids=lambda c: c["stdout"])
def test_library_sigma_rows_give_the_sigma_goldens(monkeypatch, case):
    _skip_on_other_versions(case)
    monkeypatch.chdir(OUT)
    text = _library_sigma_text(case["args"])
    assert text.encode() == (OUT / case["stdout"]).read_bytes()


def _simulated_first_taps(**config):
    return first_taps(generate(SimulatorConfig(
        widths_mm=(2.0, 4.0, 6.0), amplitudes_mm=(30.0,), seed=3, **config)))


class TestLibrarySigmaRows:
    """The rows of ``report.sigma_rows`` where an estimate or its normality
    test is undefined."""

    def test_no_spread_gives_warning_rows(self):
        taps = _simulated_first_taps(alpha=0.0, sigma_a_mm=0.0, trials_per_condition=5)
        rows = report.sigma_rows(taps, [SigmaMethod.CALIB_ACCURACY_ONLY,
                                        SigmaMethod.INTERCEPT_FITTS])
        assert [(r["method"], r["sigma_a_mm"], r["normality"], r["note"]) for r in rows] == [
            ("calib-acc", None, None, "warning: zero variance in calibration deviations"),
            ("intercept-fitts", None, None,
             "warning: condition (A=30, W=2): zero endpoint variance"),
        ]

    def test_two_trials_per_condition_skip_the_per_condition_normality(self):
        taps = _simulated_first_taps(alpha=0.0108, sigma_a_mm=0.6, trials_per_condition=2)
        calib, intercept = report.sigma_rows(
            taps, [SigmaMethod.CALIB_RAPID_ACCURATE, SigmaMethod.INTERCEPT_FITTS],
            AxisMode.BIVARIATE)
        # the 6 first taps together are a testable sample; each pair is not
        assert calib["sigma_a_mm"] > 0 and calib["normality"].startswith("W=")
        assert intercept["sigma_a_mm"] > 0
        assert intercept["normality"] == (
            "skipped: no condition group size in supported range [3, 5000]")

    def test_a_method_a_log_cannot_give_is_rejected(self):
        taps = _simulated_first_taps(alpha=0.0108, sigma_a_mm=0.6, trials_per_condition=5)
        with pytest.raises(ValueError, match="no tap-log estimator for intercept-random, user"):
            report.sigma_rows(taps, [SigmaMethod.INTERCEPT_RANDOM_A, SigmaMethod.USER_GIVEN,
                                     SigmaMethod.INTERCEPT_FITTS])
