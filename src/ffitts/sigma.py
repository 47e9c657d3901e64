"""Finger-tremor spread estimation.

The absolute tremor spread sigma_a can be measured two ways:

* directly, as the SD of tap deviations in a calibration task where the
  participant repeatedly taps a minimal target (the instruction variant,
  "rapid and accurate" vs. "concentrate on accuracy", is metadata only;
  the computation is identical);
* indirectly, as the square root of the intercept of an OLS regression of
  squared endpoint spread on squared target width: under the dual-Gaussian
  endpoint model sigma_obs^2 = alpha * W^2 + sigma_a^2, so the intercept
  is sigma_a^2.

A Shapiro-Wilk normality check is provided since both estimators assume
normally distributed deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Sequence

import numpy as np

from .datamodel import ConditionSummary, SigmaEstimate, SigmaMethod, endpoint_spread
from .errors import (
    DegenerateDataError,
    NonPhysicalInterceptError,
    UnsupportedSampleSizeError,
    ValidationError,
)
from .fitting import ols_fit


class CalibrationMode(str, Enum):
    UNIVARIATE = "univariate"
    BIVARIATE = "bivariate"


def sigma_from_calibration(
    deviations_mm,
    mode: CalibrationMode = CalibrationMode.UNIVARIATE,
    *,
    method: SigmaMethod = SigmaMethod.CALIB_RAPID_ACCURATE,
    source_dataset: str = "",
) -> SigmaEstimate:
    """The ``endpoint_spread`` of signed tap deviations from a calibration task.

    Univariate input is a flat sequence of signed deviations (their sample
    SD); bivariate input is an (n, 2) array of per-axis deviations, reduced
    to sqrt((var_x + var_y) / 2).  Outliers are assumed already removed.
    """
    arr = np.asarray(deviations_mm, dtype=float)
    if mode is CalibrationMode.UNIVARIATE:
        if arr.ndim != 1:
            raise ValidationError("univariate mode expects a flat sequence")
        if arr.size < 2:
            raise DegenerateDataError("need at least 2 deviations")
        sigma = endpoint_spread(arr)
    else:
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("bivariate mode expects an (n, 2) array")
        if arr.shape[0] < 2:
            raise DegenerateDataError("need at least 2 (x, y) pairs")
        sigma = endpoint_spread(arr[:, 0], arr[:, 1])
    if sigma <= 0:
        raise DegenerateDataError("zero variance in calibration deviations")
    return SigmaEstimate(sigma_a_mm=sigma, method=method, source_dataset=source_dataset)


@dataclass(frozen=True)
class InterceptFit:
    """OLS fit of squared endpoint spread on squared width.

    slope is the speed-accuracy proportionality constant; the intercept
    (mm^2) is the squared tremor spread when positive.
    """

    slope: float
    intercept_mm2: float
    r2: float
    points: tuple[tuple[float, float], ...]  # (W^2, sigma_obs^2)

    @property
    def sigma_a_mm(self) -> float:
        if self.intercept_mm2 <= 0:
            raise NonPhysicalInterceptError(
                f"regression intercept {self.intercept_mm2:.4g} mm^2 is not positive; "
                "endpoint spread is width-proportional (fine-probe-like data)"
            )
        return sqrt(self.intercept_mm2)

    def estimate(
        self,
        method: SigmaMethod = SigmaMethod.INTERCEPT_FITTS,
        source_dataset: str = "",
    ) -> SigmaEstimate:
        return SigmaEstimate(
            sigma_a_mm=self.sigma_a_mm, method=method, source_dataset=source_dataset
        )


def sigma_from_intercept(summaries: Sequence[ConditionSummary]) -> InterceptFit:
    """Unweighted OLS of sigma_obs^2 on W^2 over condition-level points.

    Works on any grouping of summaries: one point per (A, W) for a preset-
    distance task, or one per W for a random-distance task.  Requires at
    least three distinct widths.
    """
    if len({s.condition.width_mm for s in summaries}) < 3:
        raise ValidationError("need summaries at >= 3 distinct widths")
    points = [(s.condition.width_mm**2, s.sigma_obs_mm**2) for s in summaries]
    fit = ols_fit(points)
    return InterceptFit(
        slope=fit.b_ms_per_bit,
        intercept_mm2=fit.a_ms,
        r2=fit.r2,
        points=tuple(points),
    )


@dataclass(frozen=True)
class NormalityResult:
    statistic: float
    p_value: float
    passed: bool


def normality_check(deviations_mm, alpha: float = 0.05) -> NormalityResult:
    """Shapiro-Wilk test on a deviation sample; passed means p > alpha.

    Supported for 3 <= n <= 5000 (the range of the W-statistic
    approximation used by scipy).
    """
    arr = np.asarray(deviations_mm, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("expected a flat sequence of deviations")
    if not 3 <= arr.size <= 5000:
        raise UnsupportedSampleSizeError(
            f"sample size {arr.size} outside supported range [3, 5000]"
        )
    if np.ptp(arr) == 0:
        raise DegenerateDataError("zero variance sample")
    from scipy import stats  # imported on use: it is most of the CLI's start-up

    res = stats.shapiro(arr)
    return NormalityResult(
        statistic=float(res.statistic),
        p_value=float(res.pvalue),
        passed=bool(res.pvalue > alpha),
    )
