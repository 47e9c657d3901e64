"""Report rendering: comparison tables, adjusted-width matrices, plot data.

Display formatting mirrors the conventions of the reference tables this
package reproduces: R^2 to 4 decimals, information criteria to 1 decimal,
RMSE to 2 decimals, coefficients to 4 significant figures, adjusted widths
to 3 significant figures with undefined cells rendered literally as
"!err".  JSON output always carries full precision.
"""

from __future__ import annotations

import io
import csv as _csv
import json
import math
from typing import Sequence

import numpy as np

from .datamodel import Dataset, SigmaEstimate
from .fitting import FitResult, SelectionReport
from .idmodels import Model, finger_width
from .sigma import InterceptFit, sigma_from_intercept

ERR_CELL = "!err"


def sig(x: float, digits: int = 3) -> str:
    """Format to a number of significant figures without exponent notation."""
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return str(x)
    exponent = math.floor(math.log10(abs(x)))
    decimals = max(digits - 1 - exponent, 0)
    return f"{x:.{decimals}f}"


def _fmt_r2(x: float | None) -> str:
    return "---" if x is None else f"{x:.4f}"


def _fmt_ic(x: float | None) -> str:
    if x is None:
        return "---"
    return "-inf" if math.isinf(x) else f"{x:.1f}"


def _fmt_rmse(x: float | None) -> str:
    return "---" if x is None else f"{x:.2f}"


def _fmt_coef(x: float | None) -> str:
    return "---" if x is None else sig(x, 4)


def _description(r: FitResult) -> str:
    if r.model is Model.M7_GIVEN_SIGMA_A and r.sigma_a is not None:
        return f"#7 {r.sigma_a.method.label} (given sigma_a)"
    return r.model.description


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------

COMPARISON_COLUMNS = [
    "model", "description", "id_formulation", "r2", "adj_r2", "aic", "bic",
    "cv_rmse_ms", "a_ms", "b_ms_per_bit", "c_mm", "n", "k",
    "delta_aic", "delta_bic", "rejected", "usable", "math_errors",
]


def comparison_rows(report: SelectionReport) -> list[dict]:
    """Full-precision row dicts, one per fitted model."""
    rows = []
    for r in report.results:
        rows.append({
            "model": r.model.value,
            "description": _description(r),
            "id_formulation": r.model.formula,
            "r2": r.r2,
            "adj_r2": r.adj_r2,
            "aic": r.aic,
            "bic": r.bic,
            "cv_rmse_ms": r.cv_rmse_ms,
            "a_ms": r.a_ms,
            "b_ms_per_bit": r.b_ms_per_bit,
            "c_mm": r.c_mm,
            "n": r.n,
            "k": r.k,
            "delta_aic": report.delta_aic.get(r.model),
            "delta_bic": report.delta_bic.get(r.model),
            "rejected": report.rejected(r.model) if r.usable else None,
            "usable": r.usable,
            "math_errors": [str(c) for c in r.math_errors],
        })
    return rows


def render_comparison_md(report: SelectionReport) -> str:
    lines = [
        f"## Model comparison: {report.dataset_name}",
        "",
        "| Description | ID formulation | R2 | adj R2 | AIC | BIC | RMSE | a | b | c |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in report.results:
        if not r.usable:
            n_err = len(r.math_errors)
            lines.append(
                f"| {_description(r)} | {r.model.formula} | "
                f"unusable: mathematical error in {n_err} condition(s) "
                f"| | | | | | | |"
            )
            continue
        flag = " (rejected)" if report.rejected(r.model) else ""
        lines.append(
            "| {d}{flag} | {f} | {r2} | {adj} | {aic} | {bic} | {rmse} "
            "| {a} | {b} | {c} |".format(
                d=_description(r),
                flag=flag,
                f=r.model.formula,
                r2=_fmt_r2(r.r2),
                adj=_fmt_r2(r.adj_r2),
                aic=_fmt_ic(r.aic),
                bic=_fmt_ic(r.bic),
                rmse=_fmt_rmse(r.cv_rmse_ms),
                a=_fmt_coef(r.a_ms),
                b=_fmt_coef(r.b_ms_per_bit),
                c=_fmt_coef(r.c_mm) if r.c_mm is not None else "---",
            )
        )
    if report.best_by:
        lines.append("")
        pretty = {"r2": "R2", "adj_r2": "adj R2", "aic": "AIC", "bic": "BIC",
                  "cv_rmse_ms": "CV RMSE"}
        best = ", ".join(
            f"{pretty[k]}: {m.value}" for k, m in report.best_by.items()
        )
        lines.append(f"Best by criterion: {best}")
    return "\n".join(lines) + "\n"


def render_comparison_csv(report: SelectionReport) -> str:
    buf = io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=COMPARISON_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in comparison_rows(report):
        row = dict(row)
        row["math_errors"] = ";".join(row["math_errors"])
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# adjusted-width (W_f) matrix
# ---------------------------------------------------------------------------

def wf_matrix(dataset: Dataset, extra: Sequence[SigmaEstimate] = ()) -> list[dict]:
    """Adjusted-width cells for every cataloged tremor estimate.

    Each row holds the estimate and one value per condition, None where the
    adjustment is mathematically undefined.
    """
    sigma_obs = np.array([s.sigma_obs_mm for s in dataset.summaries])
    rows = []
    for est in tuple(dataset.sigma_a_catalog) + tuple(extra):
        wf = finger_width(sigma_obs, est.sigma_a_mm).tolist()
        rows.append({"sigma_a": est, "cells": [None if math.isnan(v) else v for v in wf]})
    return rows


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
        cells = [
            ERR_CELL if v is None else sig(v, 3) for v in row["cells"]
        ]
        lines.append(
            f"| {est.method.label} | {sig(est.sigma_a_mm, 3)} | W_f | "
            + " | ".join(cells) + " |"
        )
    lines.append("")
    lines.append("Condition columns are amplitude/width in mm; "
                 f"`{ERR_CELL}` marks sigma_obs <= sigma_a.")
    return "\n".join(lines) + "\n"


def render_wf_csv(dataset: Dataset, extra: Sequence[SigmaEstimate] = ()) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "sigma_a_mm", "A_mm", "W_mm", "wf_mm"])
    for row in wf_matrix(dataset, extra):
        est = row["sigma_a"]
        for s, v in zip(dataset.summaries, row["cells"]):
            writer.writerow([
                est.method.value, repr(est.sigma_a_mm),
                repr(s.condition.amplitude_mm), repr(s.condition.width_mm),
                ERR_CELL if v is None else repr(v),
            ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# plot-ready data
# ---------------------------------------------------------------------------

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
                "mt_ms": pc.predicted_mt_ms - pc.residual_ms,
                "predicted_mt_ms": pc.predicted_mt_ms,
                "residual_ms": pc.residual_ms,
            })
    return rows


def intercept_plot(dataset: Dataset) -> dict:
    """Regression points and fitted-line endpoints for spread-vs-width plots."""
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
    buf = io.StringIO()
    cols = ["model", "A_mm", "W_mm", "id_bits", "mt_ms", "predicted_mt_ms", "residual_ms"]
    writer = _csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in fits_plot_rows(report):
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def render_intercept_plot_csv(dataset: Dataset) -> str:
    data = intercept_plot(dataset)
    buf = io.StringIO()
    buf.write(f"# slope={data['slope']!r}\n")
    buf.write(f"# intercept_mm2={data['intercept_mm2']!r}\n")
    buf.write(f"# r2={data['r2']!r}\n")
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["role", "w2_mm2", "sigma_obs2_mm2"])
    for p in data["points"]:
        writer.writerow(["point", repr(p["w2_mm2"]), repr(p["sigma_obs2_mm2"])])
    for p in data["line"]:
        writer.writerow(["fit-line", repr(p["w2_mm2"]), repr(p["sigma_obs2_mm2"])])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# JSON document
# ---------------------------------------------------------------------------

def _estimate_dict(est: SigmaEstimate) -> dict:
    return {
        "sigma_a_mm": est.sigma_a_mm,
        "method": est.method.value,
        "source_dataset": est.source_dataset,
    }


def fit_document(report: SelectionReport, dataset: Dataset) -> dict:
    """Complete fit output as one JSON-serializable document."""
    doc = {
        "dataset": dataset.name,
        "dimensionality": dataset.dimensionality.value,
        "sigma_a": _estimate_dict(report.sigma_a) if report.sigma_a else None,
        "models": comparison_rows(report),
        "best_by": {k: m.value for k, m in report.best_by.items()},
        "wf_matrix": [
            {
                "sigma_a": _estimate_dict(row["sigma_a"]),
                "cells": [
                    {
                        "A_mm": s.condition.amplitude_mm,
                        "W_mm": s.condition.width_mm,
                        "wf_mm": v,
                    }
                    for s, v in zip(dataset.summaries, row["cells"])
                ],
            }
            for row in wf_matrix(dataset)
        ],
        "plots": {
            "fits": fits_plot_rows(report),
            "intercept": intercept_plot(dataset),
        },
    }
    return doc


def to_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2) + "\n"


def _sanitize(obj):
    """Replace non-finite floats (perfect-fit sentinels) for strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj
