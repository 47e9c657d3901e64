import math

import numpy as np
import pytest

from ffitts import (
    CalibrationMode,
    Condition,
    ConditionSummary,
    DegenerateDataError,
    InterceptFit,
    NonPhysicalInterceptError,
    SigmaMethod,
    UnsupportedSampleSizeError,
    ValidationError,
    normality_check,
    sigma_from_calibration,
    sigma_from_intercept,
)


def summaries_from(widths, sigma_obs, mt=300.0, amplitude=30.0):
    return [
        ConditionSummary(Condition(amplitude, w), mt_ms=mt, sigma_obs_mm=s)
        for w, s in zip(widths, sigma_obs)
    ]


class TestCalibration:
    def test_two_point_sample(self):
        est = sigma_from_calibration([-1.0, 1.0])
        assert est.sigma_a_mm == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_seeded_draws_within_chi_square_band(self):
        # 45 draws at sigma=0.75: a sample SD outside [0.55, 0.95] would be
        # far outside the chi-square sampling band for n=45
        rng = np.random.Generator(np.random.PCG64(7))
        est = sigma_from_calibration(rng.normal(0.0, 0.75, 45))
        assert 0.55 <= est.sigma_a_mm <= 0.95

    @pytest.mark.parametrize("k", [0.1, 2.0, 17.5])
    def test_scale_equivariance(self, k):
        rng = np.random.Generator(np.random.PCG64(21))
        devs = rng.normal(0, 1.2, 60)
        base = sigma_from_calibration(devs).sigma_a_mm
        scaled = sigma_from_calibration(devs * k).sigma_a_mm
        assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_bivariate_definition(self):
        rng = np.random.Generator(np.random.PCG64(3))
        xy = rng.normal(0, 1.0, size=(50, 2))
        est = sigma_from_calibration(xy, CalibrationMode.BIVARIATE)
        expect = math.sqrt(
            (np.var(xy[:, 0], ddof=1) + np.var(xy[:, 1], ddof=1)) / 2.0
        )
        assert est.sigma_a_mm == pytest.approx(expect, rel=1e-12)

    def test_method_tag_is_metadata(self):
        devs = [-0.5, 0.2, 0.4, -0.1]
        ra = sigma_from_calibration(devs, method=SigmaMethod.CALIB_RAPID_ACCURATE)
        acc = sigma_from_calibration(devs, method=SigmaMethod.CALIB_ACCURACY_ONLY)
        assert ra.sigma_a_mm == acc.sigma_a_mm
        assert ra.method != acc.method

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sigma_from_calibration([0.3, 0.3, 0.3])

    def test_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            sigma_from_calibration([0.3])
        with pytest.raises(DegenerateDataError):
            sigma_from_calibration([[0.3, 0.1]], CalibrationMode.BIVARIATE)

    def test_two_pairs_are_enough(self):
        est = sigma_from_calibration([[0.0, 1.0], [1.0, 0.0]], CalibrationMode.BIVARIATE)
        assert est.sigma_a_mm == math.sqrt(0.5)


class TestIntercept:
    def test_exact_line_recovers_parameters(self):
        # points generated exactly on sigma_obs^2 = 0.0108 W^2 + 1.3292
        widths = [2.0, 4.0, 6.0, 8.0, 10.0]
        sigma_obs = [math.sqrt(0.0108 * w * w + 1.3292) for w in widths]
        fit = sigma_from_intercept(summaries_from(widths, sigma_obs))
        assert fit.slope == pytest.approx(0.0108, rel=1e-9)
        assert fit.intercept_mm2 == pytest.approx(1.3292, rel=1e-9)
        assert fit.sigma_a_mm == pytest.approx(1.152909363306587, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_embedded_1d_regression(self, paper_1d):
        # value computed from the bundled condition-level data; the study's
        # own regression (0.9543), run on unpublished per-participant points,
        # is not recoverable from the printed summaries
        fit = sigma_from_intercept(list(paper_1d.summaries))
        assert fit.intercept_mm2 == pytest.approx(0.672927, abs=1e-4)
        assert fit.sigma_a_mm == pytest.approx(0.820321, abs=1e-4)

    def test_embedded_2d_regression(self, paper_2d):
        fit = sigma_from_intercept(list(paper_2d.summaries))
        assert fit.intercept_mm2 == pytest.approx(1.7593, abs=0.05)
        assert fit.sigma_a_mm == pytest.approx(1.326, abs=0.02)

    def test_residuals_orthogonal_to_regressors(self, paper_1d):
        fit = sigma_from_intercept(list(paper_1d.summaries))
        x = np.array([p[0] for p in fit.points])
        y = np.array([p[1] for p in fit.points])
        resid = y - fit.intercept_mm2 - fit.slope * x
        scale = float(np.abs(y).mean())
        assert abs(resid.sum()) / scale < 1e-9
        assert abs(resid @ x) / (scale * float(np.abs(x).mean())) < 1e-9

    def test_large_sample_recovery(self):
        # summaries obeying the variance law with sampling noise at n=10^4
        rng = np.random.Generator(np.random.PCG64(17))
        alpha, sigma_a = 0.0108, 1.153
        widths = [2.0, 4.0, 6.0, 8.0, 10.0]
        sigma_obs = []
        for w in widths:
            draws = rng.normal(0, math.sqrt(alpha * w * w + sigma_a**2), 10_000)
            sigma_obs.append(float(np.std(draws, ddof=1)))
        fit = sigma_from_intercept(summaries_from(widths, sigma_obs))
        assert fit.sigma_a_mm == pytest.approx(sigma_a, rel=0.05)

    def test_non_physical_intercept(self):
        # exactly on sigma_obs^2 = 0.01 W^2 - 0.02: a mouse-like negative
        # intercept, for which no tremor spread is defined
        widths = [2.0, 4.0, 6.0, 8.0, 10.0]
        sigma_obs = [math.sqrt(0.01 * w * w - 0.02) for w in widths]
        fit = sigma_from_intercept(summaries_from(widths, sigma_obs))
        assert fit.intercept_mm2 == pytest.approx(-0.02, rel=1e-9)
        with pytest.raises(NonPhysicalInterceptError):
            _ = fit.sigma_a_mm

    def test_needs_three_distinct_widths(self):
        with pytest.raises(ValidationError):
            sigma_from_intercept(summaries_from([2.0, 4.0], [0.7, 1.2]))
        fit = sigma_from_intercept(summaries_from([2.0, 4.0, 6.0], [0.7, 1.2, 1.5]))
        assert len(fit.points) == 3

    def test_zero_intercept_is_not_physical(self):
        fit = InterceptFit(slope=0.01, intercept_mm2=0.0, r2=1.0, points=())
        with pytest.raises(NonPhysicalInterceptError):
            _ = fit.sigma_a_mm

    def test_estimate_carries_method(self, paper_2d):
        fit = sigma_from_intercept(list(paper_2d.summaries))
        est = fit.estimate(SigmaMethod.INTERCEPT_FITTS, "paper-2d")
        assert est.method is SigmaMethod.INTERCEPT_FITTS
        assert est.sigma_a_mm == pytest.approx(fit.sigma_a_mm)


class TestNormality:
    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateDataError):
            normality_check([1.0] * 10)

    @pytest.mark.parametrize("n", [2, 5001])
    def test_unsupported_sizes(self, n):
        with pytest.raises(UnsupportedSampleSizeError):
            normality_check(np.linspace(-1, 1, n))

    @pytest.mark.parametrize("n", [3, 5000])
    def test_supported_size_limits(self, n):
        res = normality_check(np.linspace(-1, 1, n) ** 3)
        assert 0 < res.statistic <= 1 and 0 <= res.p_value <= 1

    def test_p_value_at_alpha_does_not_pass(self):
        sample = np.random.Generator(np.random.PCG64(5)).normal(0, 1, 45)
        p = normality_check(sample).p_value
        assert not normality_check(sample, alpha=p).passed

    def test_normal_sample_usually_passes(self):
        rng = np.random.Generator(np.random.PCG64(5))
        res = normality_check(rng.normal(0, 1, 45))
        assert 0 < res.statistic <= 1
        assert res.passed

    def test_power_against_uniform(self):
        # Monte Carlo power estimate: clearly non-normal data must be
        # rejected far above the significance level
        rng = np.random.Generator(np.random.PCG64(99))
        rejections = sum(
            not normality_check(rng.uniform(-1, 1, 45)).passed
            for _ in range(2000)
        )
        assert rejections / 2000 > 0.20
