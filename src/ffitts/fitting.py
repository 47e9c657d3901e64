"""Model fitting, tremor-parameter optimization, and model selection.

Movement time is regressed linearly on the index of difficulty.  Models
with a free tremor parameter c maximize R^2 over c with a bounded search:
a 2000-point coarse grid over [0, c_max - 1e-6] followed by golden-section
refinement of the bracketing interval down to 1e-6 mm, ties broken toward
smaller c.  c_max is the smallest width term, for both the subtractive and
the square-root forms.

The selection battery is R^2, adjusted R^2, AIC, BIC, and
leave-one-condition-out RMSE.  Information criteria use the Gaussian
maximum-likelihood least-squares form

    AIC = n*ln(2*pi*rss/n) + n + 2k
    BIC = n*ln(2*pi*rss/n) + n + k*ln(n)

with k counting regression coefficients only (2, or 3 when c is free), not
the noise variance.  This convention matches the published tables this
package reproduces: their BIC - AIC gaps equal k*(ln n - 2) only when k
excludes the variance parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datamodel import Condition, ConditionSummary, Dataset, SigmaEstimate
from .errors import SingularFitError, ValidationError
from .idmodels import Model, Tremor, compute_id, model_widths, width_term

#: Guard width (mm) at the domain boundary: keeps difficulty finite when a
#: cross-validation fold's c reaches a held-out condition's width.
EPS_MM = 1e-6

_GRID_POINTS = 2000
_C_TOL_MM = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

CRITERIA = ("r2", "adj_r2", "aic", "bic", "cv_rmse_ms")


@dataclass(frozen=True)
class OlsFit:
    a_ms: float
    b_ms_per_bit: float
    rss: float
    r2: float


def ols_fit(points) -> OlsFit:
    """Least-squares line mt = a + b*id over (id_bits, mt_ms) points.

    `points` is any (n, 2) array-like: a list of pairs or a stacked array.
    """
    if len(points) < 3:
        raise ValidationError(f"need >= 3 points, got {len(points)}")
    x, y = np.asarray(points, dtype=float).T.copy()
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= 0:
        raise SingularFitError("difficulty values are all equal")
    b = float(xc @ (y - y.mean())) / sxx
    a = float(y.mean() - b * x.mean())
    resid = y - a - b * x
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss < 1e-12 else 0.0)
    return OlsFit(a_ms=a, b_ms_per_bit=b, rss=rss, r2=r2)


def information_criteria(rss: float, n: int, k: int) -> tuple[float, float]:
    """AIC and BIC for a least-squares fit (see module docstring).

    A zero residual sum of squares is a perfect fit; both criteria are
    reported as -inf so the model ranks first rather than erroring.
    """
    if rss < 0:
        raise ValidationError("rss must be >= 0")
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}")
    if rss == 0:
        return float("-inf"), float("-inf")
    base = n * math.log(2.0 * math.pi * rss / n) + n
    return base + 2.0 * k, base + k * math.log(n)


def _r2_on_grid(ids, mt):
    """R^2 of mt on each column of ids; simple-OLS R^2 equals squared corr."""
    idc = ids - ids.mean(axis=0)
    mtc = mt - mt.mean()
    num = (idc * mtc[:, None]).sum(axis=0) ** 2
    den = (idc * idc).sum(axis=0) * float(mtc @ mtc)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0)


def _columns(summaries):
    """Amplitudes and mean movement times as arrays."""
    amps = np.array([s.condition.amplitude_mm for s in summaries], dtype=float)
    mt = np.array([s.mt_ms for s in summaries], dtype=float)
    return amps, mt


def optimize_c(
    summaries: Sequence[ConditionSummary],
    model: Model,
) -> tuple[float, OlsFit]:
    """Best tremor parameter c for a free-c model (m3..m6) and its fit.

    Deterministic: the same summaries always give the same c to the search
    tolerance.  c = 0 is always feasible, so optimization never loses to
    the corresponding fixed model.
    """
    if model.tremor is not Tremor.FREE_C:
        raise ValidationError(f"model {model.value} has no free tremor parameter")
    widths = model_widths(model, summaries)  # never NaN for m3..m6
    amps, mt = _columns(summaries)
    best_c = 0.0

    c_max = float(widths.min()) - _C_TOL_MM
    if c_max > 0:
        a_col, w_col = amps[:, None], widths[:, None]

        def r2_at(c):
            return _r2_on_grid(compute_id(model, a_col, w_col, c), mt)

        grid = np.linspace(0.0, c_max, _GRID_POINTS)
        r2s = r2_at(grid)
        best_i = int(np.argmax(r2s))  # first max: ties prefer smaller c
        best_c, best_r2 = float(grid[best_i]), float(r2s[best_i])

        lo = float(grid[max(best_i - 1, 0)])
        hi = float(grid[min(best_i + 1, _GRID_POINTS - 1)])

        # golden-section refinement; keep the refined c only if strictly better
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = r2_at(x1)[0], r2_at(x2)[0]
        while hi - lo > _C_TOL_MM:
            if f1 >= f2:  # maximize; ties keep the left (smaller-c) interval
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = r2_at(x1)[0]
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = r2_at(x2)[0]
        c_ref = lo if f1 >= f2 else x2
        if r2_at(c_ref)[0] > best_r2:
            best_c = c_ref

    ids = compute_id(model, amps, widths, best_c)
    return best_c, ols_fit(np.column_stack((ids, mt)))


@dataclass(frozen=True)
class PerCondition:
    condition: Condition
    id_bits: float
    predicted_mt_ms: float
    residual_ms: float


@dataclass(frozen=True)
class FitResult:
    """One model's fit and selection metrics over a dataset.

    When math_errors is nonempty the model is unusable on this data and
    every metric is None.
    """

    model: Model
    n: int
    k: int
    a_ms: float | None = None
    b_ms_per_bit: float | None = None
    c_mm: float | None = None
    sigma_a: SigmaEstimate | None = None
    r2: float | None = None
    adj_r2: float | None = None
    aic: float | None = None
    bic: float | None = None
    cv_rmse_ms: float | None = None
    rss: float | None = None
    per_condition: tuple[PerCondition, ...] = ()
    math_errors: tuple[Condition, ...] = ()

    @property
    def usable(self) -> bool:
        return not self.math_errors

    def predicted_mt_ms(self, id_bits: float) -> float:
        if not self.usable:
            raise ValidationError(f"model {self.model.value} unusable on this data")
        return self.a_ms + self.b_ms_per_bit * id_bits


def _adjusted_r2(r2: float, n: int, k: int) -> float:
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k)


def loocv_rmse(
    summaries: Sequence[ConditionSummary],
    model: Model,
    sigma_a_mm: float | None = None,
) -> float | None:
    """Leave-one-condition-out RMSE of movement-time predictions.

    Each fold refits the line, re-optimizing c for free-c models; returns
    None when any condition's width is undefined.
    """
    n = len(summaries)
    if n < 4:
        raise ValidationError(f"need >= 4 conditions for cross-validation, got {n}")
    widths = model_widths(model, summaries, sigma_a_mm=sigma_a_mm)
    if np.isnan(widths).any():
        return None
    amps, mt = _columns(summaries)
    free_c = model.tremor is Tremor.FREE_C
    ids = None if free_c else compute_id(model, amps, widths)
    cs, a, b = np.zeros(n), np.empty(n), np.empty(n)
    for i in range(n):
        if free_c:
            cs[i], fit = optimize_c([s for j, s in enumerate(summaries) if j != i], model)
        else:
            keep = np.arange(n) != i
            fit = ols_fit(np.column_stack((ids[keep], mt[keep])))
        a[i], b[i] = fit.a_ms, fit.b_ms_per_bit
    if free_c:
        # A fold can choose c at or above the held-out width when the held-out
        # condition had the smallest width term; its width term is clamped at
        # EPS_MM and the (huge) difficulty and residual are kept.
        ids = compute_id(model, amps, np.fmax(width_term(model, widths, cs), EPS_MM))
    resid = a + b * ids - mt
    return float(math.sqrt(np.mean(resid**2)))


def fit_model(
    summaries: Sequence[ConditionSummary],
    model: Model,
    sigma_a: SigmaEstimate | float | None = None,
    cv: bool = True,
) -> FitResult:
    """Fit one model to condition summaries and compute all metrics.

    A model whose width term is undefined on any condition comes back
    unusable (math_errors populated, metrics None) instead of raising.
    """
    if isinstance(sigma_a, SigmaEstimate):
        sigma_est, sigma_val = sigma_a, sigma_a.sigma_a_mm
    else:
        sigma_est, sigma_val = None, sigma_a

    n = len(summaries)
    k = 3 if model.tremor is Tremor.FREE_C else 2
    widths = model_widths(model, summaries, sigma_a_mm=sigma_val)
    undefined = np.isnan(widths)
    if undefined.any():
        errors = tuple(s.condition for s, bad in zip(summaries, undefined) if bad)
        return FitResult(model=model, n=n, k=k, sigma_a=sigma_est, math_errors=errors)

    amps, mt = _columns(summaries)
    if model.tremor is Tremor.FREE_C:
        c, fit = optimize_c(summaries, model)
        ids = compute_id(model, amps, widths, c)
    else:
        c = None
        ids = compute_id(model, amps, widths)
        fit = ols_fit(np.column_stack((ids, mt)))
    pred = fit.a_ms + fit.b_ms_per_bit * ids
    per_cond = [
        PerCondition(s.condition, id_bits, p, r)
        for s, id_bits, p, r in zip(
            summaries, ids.tolist(), pred.tolist(), (pred - mt).tolist()
        )
    ]

    aic, bic = information_criteria(fit.rss, n, k)
    cv_rmse = loocv_rmse(summaries, model, sigma_a_mm=sigma_val) if cv and n >= 4 else None
    return FitResult(
        model=model,
        n=n,
        k=k,
        a_ms=fit.a_ms,
        b_ms_per_bit=fit.b_ms_per_bit,
        c_mm=c,
        sigma_a=sigma_est,
        r2=fit.r2,
        adj_r2=_adjusted_r2(fit.r2, n, k),
        aic=aic,
        bic=bic,
        cv_rmse_ms=cv_rmse,
        rss=fit.rss,
        per_condition=tuple(per_cond),
        math_errors=(),
    )


#: A model this far above the best AIC (or BIC) is conventionally rejected.
REJECTION_DELTA = 10.0


@dataclass(frozen=True)
class SelectionReport:
    """Comparison of several models over one dataset."""

    dataset_name: str
    results: tuple[FitResult, ...]
    best_by: dict[str, Model] = field(default_factory=dict)
    delta_aic: dict[Model, float] = field(default_factory=dict)
    delta_bic: dict[Model, float] = field(default_factory=dict)
    sigma_a: SigmaEstimate | None = None

    def result(self, model: Model) -> FitResult:
        for r in self.results:
            if r.model is model:
                return r
        raise KeyError(model)

    def rejected(self, model: Model) -> bool:
        """True when the model's AIC or BIC sits >= 10 above the minimum."""
        da = self.delta_aic.get(model)
        db = self.delta_bic.get(model)
        return (da is not None and da >= REJECTION_DELTA) or (
            db is not None and db >= REJECTION_DELTA
        )

    @property
    def unusable(self) -> tuple[Model, ...]:
        return tuple(r.model for r in self.results if not r.usable)


_MODEL_ORDER = list(Model)


def compare(
    dataset: Dataset,
    models: Sequence[Model] | None = None,
    sigma_a: SigmaEstimate | float | None = None,
    cv: bool = True,
) -> SelectionReport:
    """Fit the requested models and rank them on every criterion.

    Results are ordered by model number regardless of request order.  A
    sigma_a source is required if (and only if) m7 is requested.  Unusable
    models stay in the report, flagged, with no metrics.
    """
    models = list(models) if models is not None else list(Model)
    if Model.M7_GIVEN_SIGMA_A in models and sigma_a is None:
        raise ValidationError("m7 requires a sigma_a value or catalog method")
    models.sort(key=_MODEL_ORDER.index)

    results = tuple(
        fit_model(list(dataset.summaries), m, sigma_a=sigma_a, cv=cv) for m in models
    )

    usable = [r for r in results if r.usable]
    best_by: dict[str, Model] = {}
    for crit in CRITERIA:
        candidates = [r for r in usable if getattr(r, crit) is not None]
        if not candidates:
            continue
        pick = (max if crit in ("r2", "adj_r2") else min)(
            candidates, key=lambda r: getattr(r, crit)
        )
        best_by[crit] = pick.model

    delta_aic: dict[Model, float] = {}
    delta_bic: dict[Model, float] = {}
    if usable:
        aic_min = min(r.aic for r in usable)
        bic_min = min(r.bic for r in usable)
        for r in usable:
            delta_aic[r.model] = r.aic - aic_min
            delta_bic[r.model] = r.bic - bic_min

    sigma_est = sigma_a if isinstance(sigma_a, SigmaEstimate) else None
    return SelectionReport(
        dataset_name=dataset.name,
        results=results,
        best_by=best_by,
        delta_aic=delta_aic,
        delta_bic=delta_bic,
        sigma_a=sigma_est,
    )
