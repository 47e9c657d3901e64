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
normally distributed deviations: Royston's algorithm AS R94 (Royston 1995,
Applied Statistics 44:547-551), the W coefficients and p-value of samples
of 3 to 5000.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import asin, erfc, exp, inf, log, pi, sqrt
from typing import Sequence

import numpy as np

from .datamodel import (
    ConditionSummary,
    SigmaEstimate,
    SigmaMethod,
    _ndtri,
    _polevl,
    endpoint_spread,
    finite_rule,
    require,
)
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
    to sqrt((var_x + var_y) / 2).  Outliers are assumed already removed; a
    non-finite deviation raises ValidationError naming its row.
    """
    arr = np.asarray(deviations_mm, dtype=float)
    if mode is CalibrationMode.UNIVARIATE:
        if arr.ndim != 1:
            raise ValidationError("univariate mode expects a flat sequence")
        if arr.size < 2:
            raise DegenerateDataError("need at least 2 deviations")
        axes = {"deviation": arr}
    else:
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("bivariate mode expects an (n, 2) array")
        if arr.shape[0] < 2:
            raise DegenerateDataError("need at least 2 (x, y) pairs")
        axes = {"x deviation": arr[:, 0], "y deviation": arr[:, 1]}
    require(*(finite_rule(name, devs) for name, devs in axes.items()))
    sigma = endpoint_spread(*axes.values())
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
    least three distinct widths, and a finite slope, intercept and R^2: a
    regression whose sums overflow raises ValidationError.
    """
    if len({s.condition.width_mm for s in summaries}) < 3:
        raise ValidationError("need summaries at >= 3 distinct widths")
    # `*`, not `**`, which raises OverflowError where the square is not finite
    points = [(s.condition.width_mm * s.condition.width_mm, s.sigma_obs_mm * s.sigma_obs_mm)
              for s in summaries]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        fit = ols_fit(points)
    if not np.isfinite([fit.b_ms_per_bit, fit.a_ms, fit.r2]).all():
        raise ValidationError("the intercept regression overflows")
    return InterceptFit(
        slope=fit.b_ms_per_bit,
        intercept_mm2=fit.a_ms,
        r2=fit.r2,
        points=tuple(points),
    )


NORMALITY_SIZES = (3, 5000)  # the smallest and largest n that AS R94 covers


@dataclass(frozen=True)
class NormalityResult:
    statistic: float
    p_value: float
    passed: bool


def normality_check(deviations_mm, alpha: float = 0.05) -> NormalityResult:
    """Shapiro-Wilk test on a deviation sample; passed means p > alpha.

    W and p come from Royston's AS R94, which covers 3 <= n <= 5000.
    """
    arr = np.asarray(deviations_mm, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("expected a flat sequence of deviations")
    lo, hi = NORMALITY_SIZES
    if not lo <= arr.size <= hi:
        raise UnsupportedSampleSizeError(
            f"sample size {arr.size} outside supported range [{lo}, {hi}]")
    require(finite_rule("deviation", arr))
    if np.ptp(arr) == 0:
        raise DegenerateDataError("zero variance sample")
    w, p = _shapiro_wilk(np.sort(arr))
    return NormalityResult(statistic=w, p_value=p, passed=bool(p > alpha))


# AS R94's polynomial coefficients, highest order first: in 1/sqrt(n) for the
# two largest coefficients, and for the mean and log SD of the normalised W
# in n (n <= 11) or log n
_C1 = (-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_C3 = (-6.714e-4, 0.025054, -0.39978, 0.5440)
_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_C6 = (0.0030302, -0.082676, -0.4803)
_GAMMA = (0.459, -2.273)


def _shapiro_wilk(x) -> tuple[float, float]:
    """W and its upper-tail p-value (AS R94) of a sorted sample of 3 to 5000
    finite values, not all equal."""
    n, half = x.size, x.size // 2
    if n == 3:
        a = np.array([sqrt(0.5)])
    else:
        # a_i = -m_i / |m| from the normal scores m_i, the two largest (one
        # for n <= 5) corrected and the rest rescaled so that sum a^2 = 1
        m = _ndtri((np.arange(1, half + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * float(m @ m)
        rsn, big = 1.0 / sqrt(n), 2 if n > 5 else 1
        top = [_polevl(rsn, c) - float(mi) / sqrt(summ2) for c, mi in zip((_C1, _C2), m[:big])]
        fac = sqrt((summ2 - 2.0 * float(m[:big] @ m[:big]))
                   / (1.0 - 2.0 * sum(t * t for t in top)))
        a = -m / fac
        a[:big] = top
    # W is the squared correlation of the sample with the coefficients; the
    # median shift and the range scale leave it as is and keep the sums small
    y = (x - x[half]) / (x[-1] - x[0])
    yc = y - y.mean()
    b, ssx = float(a @ (y[::-1][:half] - y[:half])), float(yc @ yc)
    # 1 - W, exact near W = 1; rounding takes it below 0 for a sample that
    # lies on its normal scores
    w1 = max((sqrt(ssx) - b) * (sqrt(ssx) + b) / ssx, 0.0)
    w = 1.0 - w1
    if n == 3:  # exact
        return w, 6.0 / pi * (asin(sqrt(w)) - pi / 3.0)
    # log(1 - W), normalised for n <= 11, is close to normal with this mean and SD
    z = log(w1) if w1 > 0 else -inf
    if n <= 11:
        # the smallest W of n values, n a_1^2 / (n - 1) (Shapiro and Wilk
        # 1965), keeps log(1 - W) below gamma, so AS R94's p = 1e-99 for
        # log(1 - W) >= gamma never applies
        z = -log(_polevl(n, _GAMMA) - z)
        mean, sd = _polevl(n, _C3), exp(_polevl(n, _C4))
    else:
        mean, sd = _polevl(log(n), _C5), exp(_polevl(log(n), _C6))
    return w, 0.5 * erfc((z - mean) / (sd * sqrt(2.0)))
