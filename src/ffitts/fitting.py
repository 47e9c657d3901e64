"""Model fitting, tremor-parameter optimization, and model selection.

Movement time is regressed linearly on the index of difficulty.  Models
with a free tremor parameter c maximize R^2 over c with a bounded search:
a 2000-point coarse grid over [0, c_max] followed by golden-section
refinement of the bracketing interval, ties broken toward smaller c.  Both
bounds scale with the smallest width term W, for the subtractive and the
square-root forms alike: c_max is W * (1 - 5e-7) and the refinement stops
within W * 5e-7.  c stays 0 unless it raises R^2 by more than 1e-12.

Leave-one-condition-out cross-validation re-optimizes c in every fold.
The full fit is row 0 of the fold table: one batched search fits row 0 on
every condition and row i + 1 on all but condition i, with the same grid
and refinement for all rows at once, and one id table per model holds the
difficulties of the same rows, each at its row's c.  Rows sharing c_max
share the grid's id table, and each grid R^2 comes from masked sums over
the rows that keep as many conditions (one (rows, n) @ (n, grid block)
product per sum), so the full fit's bits are those of a search of its
own.  Only a fold's grid R^2 is summed differently from a search per
fold, so where R^2 is flat to the last bit across neighbouring grid
points the two could pick different grid maxima.  Nor are the models of
one request searched one by one: every free-c model of a `compare` shares
that search, a grid per model and one golden-section refinement loop over
the rows of all of them, each row reduced on its own, so a model's bits
do not depend on which other models were requested; `fit_model` is the
one-model case.

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

from .datamodel import (Condition, ConditionSummary, Dataset, SigmaEstimate, finite_rule,
                        require)
from .errors import SingularFitError, ValidationError
from .idmodels import Model, Tremor, compute_id, model_widths

_GRID_POINTS = 2000
# grid columns per id table: against whole-grid (n, 2000) tables, blocks
# cut the `select` benchmark's op_p50 from 50.8 to 43.5 ms and its peak
# RSS from 40.8 to 38.3 MB (medians of 10 alternating pairs, 10/10 wins,
# 2-core Xeon VM)
_GRID_BLOCK = 500
_C_REL = 5e-7  # of the smallest width: 1e-6 mm at the bundled data's 2 mm
_R2_MARGIN = 1e-12  # an R^2 gain or gap this small is rounding, not fit
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

    `points` is any (n, 2) array-like: a list of pairs or a stacked array;
    a non-finite coordinate raises ValidationError naming its row.
    """
    if len(points) < 3:
        raise ValidationError(f"need >= 3 points, got {len(points)}")
    x, y = np.asarray(points, dtype=float).T.copy()
    require(finite_rule("point x", x), finite_rule("point y", y))
    a, b, sxx = (float(v[0]) for v in _line(x[None], y[None]))
    if sxx <= 0:
        raise SingularFitError("difficulty values are all equal")
    resid = y - a - b * x
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss < 1e-12 else 0.0)
    if tss == math.inf:
        r2 = math.nan  # an overflowed total sum of squares, not a perfect fit
    return OlsFit(a_ms=a, b_ms_per_bit=b, rss=rss, r2=r2)


def _line(x, y):
    """Least-squares line of each row of y on the same row of x, both (F, m).

    Returns per-row intercepts, slopes and centered sums of squares of x;
    a row whose x values are all equal, their spread at most 1e-12 of their
    largest magnitude, gets sxx 0 and a NaN or infinite slope.
    """
    xbar, ybar = x.sum(axis=1) / x.shape[1], y.sum(axis=1) / y.shape[1]
    xc = x - xbar[:, None]
    spread = np.ptp(x, axis=1) > 1e-12 * np.abs(x).max(axis=1)
    sxx = np.where(spread, np.vecdot(xc, xc), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.vecdot(xc, y - ybar[:, None]) / sxx
    return ybar - b * xbar, b, sxx


def information_criteria(rss: float, n: int, k: int) -> tuple[float, float]:
    """AIC and BIC for a least-squares fit (see module docstring).

    A zero residual sum of squares is a perfect fit; both criteria are
    reported as -inf so the model ranks first rather than erroring.
    """
    require(finite_rule("rss >= 0", rss))
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}")
    if rss == 0:
        return float("-inf"), float("-inf")
    base = n * math.log(2.0 * math.pi * rss / n) + n
    return base + 2.0 * k, base + k * math.log(n)


def _grid_r2(model: Model, amps, widths, grid, keep, mt):
    """R^2 at every c of `grid` for each row of the (F, n) mask `keep`.

    The id table is built one block of grid columns at a time, and each
    masked sum is one (rows, n) @ (n, block) product per group of rows
    keeping the same number of conditions, so no (F, n, grid) array is
    built and a row's bits do not depend on the other groups.  The ids are
    shifted by their column means (R^2 does not depend on the shift).
    """
    y = mt - mt.mean()
    kept, groups = keep.sum(axis=1), []
    for m in np.unique(kept):
        k = keep[kept == m].astype(float)
        sy = (k @ y)[:, None]
        groups.append((kept == m, k, k * y, m, sy, (k @ (y * y))[:, None] - sy * sy / m))
    r2 = np.empty((len(keep), len(grid)))
    for j in range(0, len(grid), _GRID_BLOCK):
        cols = slice(j, j + _GRID_BLOCK)
        ids = compute_id(model, amps[:, None], widths[:, None], grid[cols])
        ids -= ids.mean(axis=0)
        for rows, k, ky, m, sy, vy in groups:
            sx = k @ ids
            xbar = sx / m
            cov = ky @ ids - xbar * sy
            den = (k @ (ids * ids) - sx * xbar) * vy
            r2[rows, cols] = np.divide(cov * cov, den, out=np.zeros_like(den), where=den > 0)
    return r2


def _search_c(specs, amps, mt, folds=False) -> np.ndarray:
    """Best tremor parameter c of each (model, widths) spec of a free-c
    model, as an (S, 1) array, or with `folds` (S, n + 1): row 0 fits all n
    conditions and row i + 1 every condition but i.

    All rows of all specs are searched at once with one fit's rules, each
    relative to the row's smallest kept width W: a 2000-point grid over
    [0, c_max], c_max = W - W * _C_REL (rows sharing c_max, as the full fit
    and the folds that keep the smallest width do, share one id table), then
    golden-section refinement of the bracket around the first grid maximum
    down to W - c_max, ties keeping the smaller-c interval.  The refinement
    is one loop over the stacked rows of every spec, so each free-c model of
    a request shares it; a model's rows come out as a search of its own
    would give them.  The refined c replaces the grid c only when its R^2 is
    strictly higher, and c = 0 unless that R^2 beats the grid's at c = 0 by
    more than _R2_MARGIN; so too where c_max rounds to W.  Rows keeping n
    and n - 1 sum apart.
    """
    n = len(mt)
    keep = np.vstack([np.ones((1, n), dtype=bool)] + [~np.eye(n, dtype=bool)] * folds)
    f = len(keep)
    best_c, lo, hi, tol, r2_0 = np.zeros((5, len(specs) * f))
    for s, (model, widths) in enumerate(specs):
        w_min = np.where(keep, widths, np.inf).min(axis=1)
        c_max = w_min - w_min * _C_REL
        for cm in np.unique(c_max[c_max < w_min]):
            rows = np.flatnonzero(c_max == cm)
            grid = np.linspace(0.0, cm, _GRID_POINTS)
            # the grid is off the domain only for widths these rows leave out
            live = widths > cm
            r2s = _grid_r2(model, amps[live], widths[live], grid,
                           keep[np.ix_(rows, live)], mt[live])
            i = np.argmax(r2s, axis=1)  # first max: ties prefer smaller c
            at = rows + s * f
            best_c[at], r2_0[at], tol[at] = grid[i], r2s[:, 0], w_min[rows] - cm
            lo[at] = grid[np.maximum(i - 1, 0)]
            hi[at] = grid[np.minimum(i + 1, _GRID_POINTS - 1)]

    stacked = np.tile(keep, (len(specs), 1))  # spec s owns rows s*f .. s*f + f - 1
    kept, groups = stacked.sum(axis=1), []
    for rows in (np.flatnonzero(kept == m) for m in np.unique(kept)):
        # the group's kept entries, row by row; a fold's c can pass its
        # held-out width, whose id is NaN and never taken
        r, j = np.nonzero(stacked[rows])
        mt_k = mt[j].reshape(len(rows), -1)
        yc = mt_k - (mt_k.sum(axis=1) / mt_k.shape[1])[:, None]
        groups.append((rows, rows[r] * len(mt) + j, yc, np.vecdot(yc, yc)))

    def r2_at(c):
        """Each row's R^2 at its c: the squared correlation, 0 where a variance vanishes."""
        ids = np.concatenate([compute_id(model, amps, widths, c[s * f:(s + 1) * f, None])
                              for s, (model, widths) in enumerate(specs)])
        r2 = np.empty(len(c))
        for rows, kept_ids, yc, syy in groups:
            x = ids.take(kept_ids).reshape(yc.shape)
            xc = x - (x.sum(axis=1) / x.shape[1])[:, None]
            sxy, den = (xc * yc).sum(axis=1), (xc * xc).sum(axis=1) * syy
            r2[rows] = np.divide(sxy * sxy, den, out=np.zeros_like(den), where=den > 0)
        return r2

    # golden-section refinement of every row under one loop; a row stops
    # moving once its bracket is within its tolerance
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = r2_at(x1), r2_at(x2)
    while (active := hi - lo > tol).any():
        left = f1 >= f2  # maximize; ties keep the left (smaller-c) interval
        new_lo, new_hi = np.where(left, lo, x1), np.where(left, x2, hi)
        step = _GOLDEN * (new_hi - new_lo)
        x = np.where(left, new_hi - step, new_lo + step)
        fx = r2_at(x)
        state = (new_lo, new_hi, np.where(left, x, x2), np.where(left, fx, f2),
                 np.where(left, x1, x), np.where(left, f1, fx))
        if not active.all():  # rows already within tolerance keep their state
            state = [np.where(active, new, old)
                     for new, old in zip(state, (lo, hi, x1, f1, x2, f2))]
        lo, hi, x1, f1, x2, f2 = state
    c_ref = np.where(f1 >= f2, lo, x2)
    r2_ref, r2_grid = r2_at(c_ref), r2_at(best_c)
    best = np.where(r2_ref > r2_grid, c_ref, best_c)
    best[~(np.maximum(r2_ref, r2_grid) > r2_0 + _R2_MARGIN)] = 0.0
    return best.reshape(len(specs), f)


def optimize_c(summaries: Sequence[ConditionSummary], model: Model) -> tuple[float, OlsFit]:
    """Best tremor parameter c for a free-c model (m3..m6) and its fit: the
    c and line of `fit_model(summaries, model, cv=False)`.

    Deterministic: the same summaries always give the same c to the search
    tolerance.  c = 0 is always feasible, so optimization never loses to
    the corresponding fixed model.  Where that fit is unusable,
    ValidationError names its math_errors.
    """
    if model.tremor is not Tremor.FREE_C:
        raise ValidationError(f"model {model.value} has no free tremor parameter")
    r = fit_model(summaries, model, cv=False)
    if not r.usable:
        raise ValidationError(
            f"{model.value}: mathematical error in {len(r.math_errors)} condition(s): "
            + ", ".join(map(str, r.math_errors)))
    return r.c_mm, OlsFit(r.a_ms, r.b_ms_per_bit, r.rss, r.r2)


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
    every metric is None.  A usable fit over no more conditions than it has
    coefficients (n <= k) has no adj_r2, aic or bic: they are None.
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


def _loocv_residuals(ids, mt):
    """Held-out residual of each condition under leave-one-condition-out
    cross-validation, from an (n, n) id table whose row i holds every
    condition's difficulty at fold i's c: fold i refits the line on the
    row's other entries and predicts condition i from its diagonal entry.
    None when a fold's training difficulties are one float, or when its c
    reaches the width of the condition it holds out (that difficulty is
    NaN)."""
    n = len(mt)
    keep = ~np.eye(n, dtype=bool)  # row i trains on every condition but i
    a, b, sxx = _line(ids[keep].reshape(n, -1),
                      np.broadcast_to(mt, (n, n))[keep].reshape(n, -1))
    held_out = ids.diagonal()
    if np.isnan(held_out).any() or not (sxx > 0).all():
        return None
    return a + b * held_out - mt


def loocv_rmse(
    summaries: Sequence[ConditionSummary],
    model: Model,
    sigma_a_mm: float | None = None,
) -> float | None:
    """Leave-one-condition-out RMSE of movement-time predictions: the
    ``cv_rmse_ms`` of ``fit_model``, so None where the model is unusable, a
    fold's training difficulties are all equal or a fold's c reaches the
    width of the condition it holds out."""
    n = len(summaries)
    if n < 4:
        raise ValidationError(f"need >= 4 conditions for cross-validation, got {n}")
    return fit_model(summaries, model, sigma_a_mm).cv_rmse_ms


def fit_model(
    summaries: Sequence[ConditionSummary],
    model: Model,
    sigma_a: SigmaEstimate | float | None = None,
    cv: bool = True,
) -> FitResult:
    """Fit one model to condition summaries and compute all metrics.

    A model comes back unusable (math_errors populated, metrics None)
    instead of raising when its width term is undefined on any condition,
    or when a condition's difficulty or squared residual (in the full fit
    or, with cv, held out) is not finite.  A cv fold whose training
    difficulties are all equal, or whose c reaches the width of the
    condition it holds out, leaves cv_rmse_ms None and the rest of the fit
    as it is.  A bad sigma_a, or none for m7, raises ValidationError.
    """
    return _fit_models(summaries, [model], sigma_a, cv)[0]


def _fit_models(summaries, models, sigma_a, cv) -> list[FitResult]:
    """`fit_model` for each of `models`, their c values from one search.

    The amplitudes and movement times are read once per request and each
    model's widths once; every free-c model whose widths are all defined
    joins the one `_search_c` call."""
    sigma_est = sigma_a if isinstance(sigma_a, SigmaEstimate) else None
    sigma_val = sigma_a if sigma_est is None else sigma_est.sigma_a_mm
    folds = cv and len(summaries) >= 4
    amps = np.array([s.condition.amplitude_mm for s in summaries], dtype=float)
    mt = np.array([s.mt_ms for s in summaries], dtype=float)
    widths = [model_widths(m, summaries, sigma_a_mm=sigma_val) for m in models]
    specs = [(m, w) for m, w in zip(models, widths)
             if m.tremor is Tremor.FREE_C and not np.isnan(w).any()]
    with np.errstate(all="ignore"):  # every non-finite result is caught per model
        rows = _search_c(specs, amps, mt, folds) if specs else []
    cs = {m: row for (m, _), row in zip(specs, rows)}
    return [_fit_result(summaries, m, (amps, w, mt), cs.get(m), sigma_est, folds)
            for m, w in zip(models, widths)]


def _fit_result(summaries, model: Model, columns, cs, sigma_est, folds) -> FitResult:
    """One model's FitResult from its (amps, widths, mt) and its row of `_search_c`
    (None for a fixed model or one whose widths are undefined).  One id
    table holds every difficulty: row 0 is the full fit's and the last n
    rows (one row, broadcast, for a fixed model) the folds'.  At n <= k
    adj_r2, AIC and BIC are undefined and left None."""
    amps, widths, mt = columns
    n = len(summaries)
    k = 3 if model.tremor is Tremor.FREE_C else 2
    # each step runs only when the one before it found no bad condition
    bad, cv_rmse = np.isnan(widths), None
    with np.errstate(all="ignore"):  # every non-finite result is caught here
        if not bad.any():
            c = None if cs is None else float(cs[0])
            table = np.atleast_2d(compute_id(model, amps, widths,
                                             0.0 if cs is None else cs[:, None]))
            bad = ~np.isfinite(ids := table[0])
        if not bad.any():
            fit = ols_fit(np.column_stack((ids, mt)))
            pred = fit.a_ms + fit.b_ms_per_bit * ids
            bad = ~np.isfinite((pred - mt) ** 2)
        if folds and not bad.any():
            cv_resid = _loocv_residuals(np.broadcast_to(table[-n:], (n, n)), mt)
            if cv_resid is not None:
                bad = ~np.isfinite(cv_resid**2)
                cv_rmse = float(math.sqrt(np.mean(cv_resid**2)))
        if not bad.any() and not np.isfinite(
                [fit.r2, fit.rss, 0.0 if cv_rmse is None else cv_rmse]).all():
            bad = np.ones(n, dtype=bool)  # a sum overflowed: every condition is in it
    if bad.any():
        errors = tuple(s.condition for s, b in zip(summaries, bad) if b)
        return FitResult(model=model, n=n, k=k, sigma_a=sigma_est, math_errors=errors)

    aic, bic = information_criteria(fit.rss, n, k) if n > k else (None, None)
    return FitResult(
        model=model,
        n=n,
        k=k,
        a_ms=fit.a_ms,
        b_ms_per_bit=fit.b_ms_per_bit,
        c_mm=c,
        sigma_a=sigma_est,
        r2=fit.r2,
        adj_r2=1.0 - (1.0 - fit.r2) * (n - 1) / (n - k) if n > k else None,
        aic=aic,
        bic=bic,
        cv_rmse_ms=cv_rmse,
        rss=fit.rss,
        per_condition=tuple(map(PerCondition, [s.condition for s in summaries],
                                ids.tolist(), pred.tolist(), (pred - mt).tolist())),
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


def compare(
    dataset: Dataset,
    models: Sequence[Model] | None = None,
    sigma_a: SigmaEstimate | float | None = None,
    cv: bool = True,
) -> SelectionReport:
    """Fit the requested models and rank them on every criterion.

    Each requested model is fitted once, in model-number order, as
    fit_model fits it, every free-c model's c coming from one shared
    search; an empty request is an error.  A sigma_a is required if m7 is
    requested, and it is checked as in fit_model.  Unusable models stay in the report,
    flagged, with no metrics.  A usable model drops out of the ranking, and
    the AIC or BIC deltas, of each criterion its fit leaves None.  The R^2
    and adjusted R^2 picks go to the first model, in model order, within
    _R2_MARGIN of the best.
    """
    requested = set(Model if models is None else map(Model, models))
    models = [m for m in Model if m in requested]
    if not models:
        raise ValidationError("no model requested")

    results = tuple(_fit_models(list(dataset.summaries), models, sigma_a, cv))

    usable = [r for r in results if r.usable]
    best_by: dict[str, Model] = {}
    for crit in CRITERIA:
        values = {r.model: getattr(r, crit) for r in usable if getattr(r, crit) is not None}
        if values and crit in ("r2", "adj_r2"):  # the first within the margin of the best
            top = max(values.values())
            best_by[crit] = next(m for m, v in values.items() if v >= top - _R2_MARGIN)
        elif values:
            best_by[crit] = min(values, key=values.get)

    # a model at the minimum has delta 0, also when a perfect fit puts it at -inf
    scored = [r for r in usable if r.aic is not None]
    aic_min = min((r.aic for r in scored), default=None)
    bic_min = min((r.bic for r in scored), default=None)
    delta_aic = {r.model: 0.0 if r.aic == aic_min else r.aic - aic_min for r in scored}
    delta_bic = {r.model: 0.0 if r.bic == bic_min else r.bic - bic_min for r in scored}

    return SelectionReport(
        dataset_name=dataset.name,
        results=results,
        best_by=best_by,
        delta_aic=delta_aic,
        delta_bic=delta_bic,
        sigma_a=results[0].sigma_a,
    )
