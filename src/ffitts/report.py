"""Report tables and their md, csv and json formatters.

Each table has one builder that returns full-precision rows: the model
comparison (``comparison_rows``), the adjusted-width matrix (``wf_matrix``),
the fits plot (``fits_plot_rows``), the intercept plot (``intercept_plot``)
and the tremor-spread estimates (``sigma_rows`` from a log's first taps,
``catalog_sigma_rows`` from a dataset's catalog).  The renderers below only
format those rows.

Markdown mirrors the conventions of the reference tables this package
reproduces: R^2 to 4 decimals, information criteria to 1 decimal, RMSE to 2
decimals, coefficients to 4 significant figures, adjusted widths to 3
significant figures with undefined cells rendered literally as "!err".  CSV
and JSON carry full precision.

JSON is strict: ``null`` marks a value that is not finite.  Only a perfect
fit (zero residual sum of squares) gives one: its AIC and BIC are -inf and
the other models' delta AIC/BIC inf, which md and csv print as -inf and inf.
The intercept plot needs 3 distinct widths, finite squared widths and
spreads, and a regression whose sums do not overflow; else it is ``null`` in
JSON and ``fit --out`` writes no ``.intercept.csv``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .datamodel import AxisMode, Dataset, FirstTaps, SigmaEstimate, SigmaMethod, summarize
from .errors import FfittsError, UnsupportedSampleSizeError, ValidationError
from .fitting import FitResult, SelectionReport
from .idmodels import Model, model_widths
from .ingestion import csv_text
from .sigma import (NORMALITY_SIZES, CalibrationMode, InterceptFit, normality_check,
                    sigma_from_calibration, sigma_from_intercept)

ERR_CELL = "!err"


def sig(x: float, digits: int = 3) -> str:
    """Format to a number of significant figures without exponent notation;
    the figures are counted after rounding, so 99.996 to 4 is 100.0."""
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return str(x)
    exponent = int(f"{x:.{digits - 1}e}".partition("e")[2])
    decimals = max(digits - 1 - exponent, 0)
    return f"{x:.{decimals}f}"


def _description(r: FitResult) -> str:
    if r.model is Model.M7_GIVEN_SIGMA_A and r.sigma_a is not None:
        return f"#7 {r.sigma_a.method.label} (given sigma_a)"
    return r.model.description


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------

# comparison columns copied from the FitResult fields of the same names
_FIT_FIELDS = ["r2", "adj_r2", "aic", "bic", "cv_rmse_ms", "a_ms", "b_ms_per_bit",
               "c_mm", "n", "k"]
COMPARISON_COLUMNS = [
    "model", "description", "id_formulation", *_FIT_FIELDS,
    "delta_aic", "delta_bic", "rejected", "usable", "math_errors",
]

# markdown cells of a usable model after its description and formulation
_MD_FIXED = [("r2", ".4f"), ("adj_r2", ".4f"), ("aic", ".1f"), ("bic", ".1f"),
             ("cv_rmse_ms", ".2f")]
_MD_COEFS = ["a_ms", "b_ms_per_bit", "c_mm"]
_CRITERION_LABELS = {"r2": "R2", "adj_r2": "adj R2", "aic": "AIC", "bic": "BIC",
                     "cv_rmse_ms": "CV RMSE"}


def comparison_rows(report: SelectionReport) -> list[dict]:
    """Full-precision row dicts, one per fitted model, keyed by COMPARISON_COLUMNS."""
    return [{
        "model": r.model.value,
        "description": _description(r),
        "id_formulation": r.model.formula,
        **{k: getattr(r, k) for k in _FIT_FIELDS},
        "delta_aic": report.delta_aic.get(r.model),
        "delta_bic": report.delta_bic.get(r.model),
        "rejected": report.rejected(r.model) if r.usable else None,
        "usable": r.usable,
        "math_errors": [str(c) for c in r.math_errors],
    } for r in report.results]


def render_comparison_md(report: SelectionReport) -> str:
    lines = [
        f"## Model comparison: {report.dataset_name}",
        "",
        "| Description | ID formulation | R2 | adj R2 | AIC | BIC | RMSE | a | b | c |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in comparison_rows(report):
        if not row["usable"]:
            lines.append(
                f"| {row['description']} | {row['id_formulation']} | "
                f"unusable: mathematical error in {len(row['math_errors'])} condition(s) "
                "| | | | | | | |"
            )
            continue
        flag = " (rejected)" if row["rejected"] else ""
        cells = [row["description"] + flag, row["id_formulation"]]
        cells += ["---" if row[k] is None else format(row[k], spec) for k, spec in _MD_FIXED]
        cells += ["---" if row[k] is None else sig(row[k], 4) for k in _MD_COEFS]
        lines.append("| " + " | ".join(cells) + " |")
    if report.best_by:
        best = ", ".join(
            f"{_CRITERION_LABELS[k]}: {m.value}" for k, m in report.best_by.items()
        )
        lines += ["", f"Best by criterion: {best}"]
    return "\n".join(lines) + "\n"


def render_comparison_csv(report: SelectionReport) -> str:
    return csv_text(COMPARISON_COLUMNS, [
        {**row, "math_errors": ";".join(row["math_errors"])}.values()
        for row in comparison_rows(report)
    ])


def render_fit_md(report: SelectionReport, dataset: Dataset) -> str:
    """The markdown fit report: the comparison, the W_f matrix and one note
    per unusable model."""
    wf = render_wf_md(dataset, wf_extra(report))
    text = render_comparison_md(report) + ("\n" + wf if wf else "")
    for row in comparison_rows(report):
        if not row["usable"]:
            text += (
                f"\nnote: {row['model']} unusable: mathematical error in "
                f"{len(row['math_errors'])} condition(s): {', '.join(row['math_errors'])}\n"
            )
    return text


# ---------------------------------------------------------------------------
# adjusted-width (W_f) matrix
# ---------------------------------------------------------------------------

def wf_extra(report: SelectionReport) -> tuple[SigmaEstimate, ...]:
    """The W_f rows a fit report adds to the dataset's catalog: a user-given
    sigma_a (a --sigma-a literal), which the catalog cannot hold."""
    given = report.sigma_a
    return (given,) if given and given.method is SigmaMethod.USER_GIVEN else ()


def wf_matrix(dataset: Dataset, extra: Sequence[SigmaEstimate] = ()) -> list[dict]:
    """Adjusted-width rows, one per cataloged tremor estimate and per ``extra``.

    Each row holds the estimate and one cell per condition: its A_mm, W_mm
    and wf_mm, None where the adjustment is undefined (sigma_obs <= sigma_a).
    """
    return [
        {"sigma_a": est, "cells": [
            {"A_mm": s.condition.amplitude_mm, "W_mm": s.condition.width_mm,
             "wf_mm": None if math.isnan(v) else v}
            for s, v in zip(dataset.summaries, model_widths(
                Model.M7_GIVEN_SIGMA_A, dataset.summaries, est.sigma_a_mm).tolist())
        ]}
        for est in (*dataset.sigma_a_catalog, *extra)
    ]


def render_wf_md(dataset: Dataset, extra: Sequence[SigmaEstimate] = ()) -> str:
    rows = wf_matrix(dataset, extra)
    if not rows:
        return ""
    conds = [s.condition for s in dataset.summaries]
    lines = [f"## Adjusted width (W_f) matrix: {dataset.name}", ""]
    header = ["method", "sigma_a", ""] + [f"{c.amplitude_mm:g}/{c.width_mm:g}" for c in conds]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    lines.append(
        "| | | MT | " + " | ".join(f"{s.mt_ms:g}" for s in dataset.summaries) + " |"
    )
    lines.append(
        "| | | sigma_obs | "
        + " | ".join(f"{s.sigma_obs_mm:g}" for s in dataset.summaries) + " |"
    )
    for row in rows:
        est = row["sigma_a"]
        cells = [ERR_CELL if c["wf_mm"] is None else sig(c["wf_mm"], 3) for c in row["cells"]]
        lines.append(
            f"| {est.method.label} | {sig(est.sigma_a_mm, 3)} | W_f | "
            + " | ".join(cells) + " |"
        )
    lines.append("")
    lines.append("Condition columns are amplitude/width in mm; "
                 f"`{ERR_CELL}` marks sigma_obs <= sigma_a.")
    return "\n".join(lines) + "\n"


def render_wf_csv(dataset: Dataset, extra: Sequence[SigmaEstimate] = ()) -> str:
    return csv_text(["method", "sigma_a_mm", "A_mm", "W_mm", "wf_mm"], [
        [row["sigma_a"].method.value, row["sigma_a"].sigma_a_mm, c["A_mm"], c["W_mm"],
         ERR_CELL if c["wf_mm"] is None else c["wf_mm"]]
        for row in wf_matrix(dataset, extra) for c in row["cells"]
    ])


# ---------------------------------------------------------------------------
# plot-ready data
# ---------------------------------------------------------------------------

FITS_COLUMNS = ["model", "A_mm", "W_mm", "id_bits", "mt_ms", "predicted_mt_ms",
                "residual_ms"]


def fits_plot_rows(report: SelectionReport) -> list[dict]:
    """(ID, MT, prediction) per model and condition, for external plotting."""
    rows = []
    for r in report.results:
        for pc in r.per_condition:
            rows.append({
                "model": r.model.value,
                "A_mm": pc.condition.amplitude_mm,
                "W_mm": pc.condition.width_mm,
                "id_bits": pc.id_bits,
                "mt_ms": pc.mt_ms,
                "predicted_mt_ms": pc.predicted_mt_ms,
                "residual_ms": pc.residual_ms,
            })
    return rows


def intercept_plot(dataset: Dataset) -> dict:
    """Regression points and fitted-line endpoints for spread-vs-width plots.

    Raises ValidationError below 3 distinct widths, where the regression is
    undefined.
    """
    fit: InterceptFit = sigma_from_intercept(list(dataset.summaries))
    xs = [p[0] for p in fit.points]
    x_lo, x_hi = min(xs), max(xs)
    return {
        "slope": fit.slope,
        "intercept_mm2": fit.intercept_mm2,
        "r2": fit.r2,
        "points": [{"w2_mm2": x, "sigma_obs2_mm2": y} for x, y in fit.points],
        "line": [
            {"w2_mm2": x_lo, "sigma_obs2_mm2": fit.intercept_mm2 + fit.slope * x_lo},
            {"w2_mm2": x_hi, "sigma_obs2_mm2": fit.intercept_mm2 + fit.slope * x_hi},
        ],
    }


def render_fits_plot_csv(report: SelectionReport) -> str:
    return csv_text(FITS_COLUMNS, [row.values() for row in fits_plot_rows(report)])


def render_intercept_plot_csv(dataset: Dataset) -> str:
    data = intercept_plot(dataset)
    rows = [["point", p["w2_mm2"], p["sigma_obs2_mm2"]] for p in data["points"]]
    rows += [["fit-line", p["w2_mm2"], p["sigma_obs2_mm2"]] for p in data["line"]]
    preamble = "".join(f"# {key}={data[key]!r}\n" for key in ("slope", "intercept_mm2", "r2"))
    return csv_text(["role", "w2_mm2", "sigma_obs2_mm2"], rows, preamble)


# ---------------------------------------------------------------------------
# tremor-spread estimates
# ---------------------------------------------------------------------------

SIGMA_COLUMNS = ["method", "label", "sigma_a_mm", "normality", "note"]
_TAP_ESTIMATORS = (SigmaMethod.CALIB_RAPID_ACCURATE, SigmaMethod.CALIB_ACCURACY_ONLY,
                   SigmaMethod.INTERCEPT_FITTS)


def sigma_row(method: SigmaMethod, sigma_a_mm: float | None = None,
              normality: str | None = None, note: str = "") -> dict:
    """One tremor-spread estimate tagged by its method; None when it failed."""
    return dict(zip(SIGMA_COLUMNS, (method.value, method.label, sigma_a_mm, normality, note)))


def catalog_sigma_rows(dataset: Dataset) -> list[dict]:
    """One row per cataloged estimate of a dataset, with no normality text."""
    return [sigma_row(est.method, est.sigma_a_mm,
                      note="cataloged value; raw deviations not available")
            for est in dataset.sigma_a_catalog]


def sigma_rows(taps: FirstTaps, estimators: Sequence[SigmaMethod],
               axis_mode: AxisMode = AxisMode.Y, alpha: float = 0.05) -> list[dict]:
    """One row per estimator of a first-tap selection, in the order given.

    ``calib-ra`` and ``calib-acc`` tag the calibration spread of all first
    taps (bivariate under ``AxisMode.BIVARIATE``), and ``intercept-fitts``
    regresses the ``summarize`` spreads on W^2.  A row holds its Shapiro-Wilk
    text at ``alpha`` (along y when bivariate), or no value and a warning.
    """
    if unknown := [m.value for m in estimators if m not in _TAP_ESTIMATORS]:
        raise ValueError(f"no tap-log estimator for {', '.join(unknown)}")
    devs = taps.dx_mm if axis_mode is AxisMode.X else taps.dy_mm
    return [_intercept_row(taps, devs, axis_mode, alpha) if m is SigmaMethod.INTERCEPT_FITTS
            else _calibration_row(taps, devs, axis_mode is AxisMode.BIVARIATE, m, alpha)
            for m in estimators]


def _calibration_row(taps: FirstTaps, devs, bivariate: bool, method: SigmaMethod,
                     alpha: float) -> dict:
    samples = np.column_stack([taps.dx_mm, taps.dy_mm]) if bivariate else devs
    mode = CalibrationMode.BIVARIATE if bivariate else CalibrationMode.UNIVARIATE
    try:
        est = sigma_from_calibration(samples, mode, method=method)
    except FfittsError as exc:
        return sigma_row(method, note=f"warning: {exc}")
    # the estimate stands whether or not the normality test can run
    try:
        check = normality_check(devs, alpha=alpha)
        normality = (f"W={check.statistic:.3f} p={check.p_value:.3f} "
                     f"{'pass' if check.passed else 'FAIL'}")
    except FfittsError as exc:
        normality = f"skipped: {exc}"
    return sigma_row(method, est.sigma_a_mm, normality)


def _intercept_row(taps: FirstTaps, devs, axis_mode: AxisMode, alpha: float) -> dict:
    method = SigmaMethod.INTERCEPT_FITTS
    try:
        fit = sigma_from_intercept(summarize(taps, axis_mode))
        est = fit.estimate(method)
    except FfittsError as exc:
        return sigma_row(method, note=f"warning: {exc}")
    passed, total = _per_condition_normality(taps, devs, alpha)
    normality = (f"{passed}/{total} condition groups pass" if total else
                 "skipped: no condition group size in supported range "
                 "[{}, {}]".format(*NORMALITY_SIZES))
    return sigma_row(method, est.sigma_a_mm, normality,
                     f"regression R2={fit.r2:.3f}, slope={fit.slope:.4g}")


def _per_condition_normality(taps: FirstTaps, devs, alpha: float) -> tuple[int, int]:
    """Shapiro-Wilk per condition; groups of unsupported size are not counted."""
    passed = total = 0
    for i in range(len(taps.conditions)):
        try:
            passed += normality_check(devs[taps.condition == i], alpha=alpha).passed
        except UnsupportedSampleSizeError:
            continue
        except FfittsError:
            pass
        total += 1
    return passed, total


def render_sigma_md(source: str, rows: Sequence[dict]) -> str:
    lines = [
        f"## Tremor spread estimates: {source}",
        "",
        "| Method | sigma_a (mm) | Normality | Note |",
        "|---|---|---|---|",
    ]
    for row in rows:
        value = sig(row["sigma_a_mm"], 3) if row["sigma_a_mm"] else "---"
        lines.append(
            f"| {row['label']} | {value} | {row['normality'] or '---'} "
            f"| {row['note'] or ''} |"
        )
    return "\n".join(lines) + "\n"


def render_sigma_csv(rows: Sequence[dict]) -> str:
    return csv_text(SIGMA_COLUMNS, [row.values() for row in rows])


def sigma_document(source: str, rows: Sequence[dict]) -> dict:
    return {"source": source, "estimates": rows}


# ---------------------------------------------------------------------------
# JSON document
# ---------------------------------------------------------------------------

def fit_document(report: SelectionReport, dataset: Dataset) -> dict:
    """Complete fit output as one strict-JSON document; a non-finite value in
    the comparison rows or the W_f cells is None, and so is an undefined
    intercept plot."""
    try:
        intercept = intercept_plot(dataset)
    except ValidationError:
        intercept = None
    return {
        "dataset": dataset.name,
        "dimensionality": dataset.dimensionality.value,
        "sigma_a": asdict(report.sigma_a) if report.sigma_a else None,
        "models": list(map(_finite_or_none, comparison_rows(report))),
        "best_by": {k: m.value for k, m in report.best_by.items()},
        "wf_matrix": [
            {"sigma_a": asdict(row["sigma_a"]),
             "cells": list(map(_finite_or_none, row["cells"]))}
            for row in wf_matrix(dataset, wf_extra(report))
        ],
        "plots": {"fits": fits_plot_rows(report), "intercept": intercept},
    }


def _finite_or_none(row: dict) -> dict:
    """``row`` with None for each non-finite float."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in row.items()}


def to_json(obj) -> str:
    """Strict JSON, indented by 2: a non-finite float raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
