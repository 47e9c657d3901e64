import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

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
from ffitts.datamodel import _ndtri


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("deviations, message", [
        ([math.nan, 1.0, 2.0], "row 0: deviation must be finite, got nan"),
        ([math.inf, -math.inf], "row 0: deviation must be finite, got inf"),
        ([-math.inf, 1e308, 1e308], "row 0: deviation must be finite, got -inf"),
        ([[0.5, 1.0], [1.0, math.inf], [0.0, 0.2]], "row 1: y deviation must be finite, got inf"),
        ([[0.5, 1.0], [1.0, 0.5], [math.nan, math.inf]],
         "row 2: x deviation must be finite, got nan"),
    ], ids=["nan", "inf-minus-inf", "minus-inf", "bivariate-inf", "bivariate-nan"])
    def test_non_finite_deviation_names_its_row(self, deviations, message):
        mode = (CalibrationMode.BIVARIATE if np.ndim(deviations) == 2
                else CalibrationMode.UNIVARIATE)
        with pytest.raises(ValidationError) as exc:
            sigma_from_calibration(deviations, mode)
        assert str(exc.value) == message

    def test_two_pairs_are_enough(self):
        est = sigma_from_calibration([[0.0, 1.0], [1.0, 0.0]], CalibrationMode.BIVARIATE)
        assert est.sigma_a_mm == math.sqrt(0.5)

    @pytest.mark.parametrize("deviations, mode, message", [
        ([[0.5, 1.0], [1.0, 0.5]], CalibrationMode.UNIVARIATE,
         "univariate mode expects a flat sequence"),
        ([0.5, 1.0, 1.5], CalibrationMode.BIVARIATE, "bivariate mode expects an (n, 2) array"),
        ([[0.5, 1.0, 0.0], [1.0, 0.5, 0.0]], CalibrationMode.BIVARIATE,
         "bivariate mode expects an (n, 2) array"),
    ], ids=["univariate-2d", "bivariate-1d", "bivariate-3-columns"])
    def test_wrong_shape_rejected(self, deviations, mode, message):
        with pytest.raises(ValidationError) as exc:
            sigma_from_calibration(deviations, mode)
        assert str(exc.value) == message


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

    def test_square_past_float_range_names_its_row(self):
        # the square of a 1e200 mm width is past the float range
        summaries = summaries_from([2.0, 4.0, 8.0, 1e200], [0.8, 1.2, 2.0, 2.5])
        with pytest.raises(ValidationError) as exc:
            sigma_from_intercept(summaries)
        assert str(exc.value) == "row 3: point x must be finite, got inf"

    def test_overflowing_regression_raises(self):
        # 1e153 squares to 1e306, but the total sum of squares overflows
        summaries = summaries_from([2.0, 4.0, 6.0, 8.0], [0.8, 1.2, 1e153, 2.0])
        with pytest.raises(ValidationError, match="the intercept regression overflows"):
            sigma_from_intercept(summaries)

    def test_zero_intercept_is_not_physical(self):
        fit = InterceptFit(slope=0.01, intercept_mm2=0.0, r2=1.0, points=())
        with pytest.raises(NonPhysicalInterceptError):
            _ = fit.sigma_a_mm

    def test_estimate_carries_method(self, paper_2d):
        fit = sigma_from_intercept(list(paper_2d.summaries))
        est = fit.estimate(SigmaMethod.INTERCEPT_FITTS, "paper-2d")
        assert est.method is SigmaMethod.INTERCEPT_FITTS
        assert est.sigma_a_mm == pytest.approx(fit.sigma_a_mm)


ELEVEN = [0.3, -1.2, 0.8, 2.5, -0.1, 0.0, 1.1, -0.7, 0.4, 1.9, -2.2]


class TestNormality:
    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateDataError):
            normality_check([1.0] * 10)

    def test_sample_that_is_not_flat_rejected(self):
        with pytest.raises(ValidationError, match="expected a flat sequence of deviations"):
            normality_check(np.ones((5, 2)))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_deviation_is_rejected(self, bad):
        with pytest.raises(ValidationError, match=f"^row 3: deviation must be finite, got {bad}$"):
            normality_check([1.0, 2.0, 3.0, bad, 5.0])

    @pytest.mark.parametrize("sample", [
        [0.0, 1.0, 3.0],                     # n = 3: exact p
        [0.0, 1.0, 2.0],                     # n = 3: W = 1, p = 1
        [0.0, 0.0, 1.0],                     # n = 3: the smallest W, 3/4
        [0.0, 0.5, 1.5, 4.0],                # n = 4, 5: only a_n corrected
        [0.0, 0.4, 1.5, 1.7, 4.0],
        [0.3, -1.2, 0.8, 2.5, -0.1, 0.0],    # 6 <= n <= 11: gamma transform
        ELEVEN,
        list(range(12)),                     # n >= 12: log-n polynomials
        [float(i * i) for i in range(40)],
        # far from 0 or huge: W is the same up to rounding
        [1e12 + v for v in ELEVEN],
        [1e170 * v for v in ELEVEN],
        # samples on their own normal scores, where 1 - W rounds below 0
        [-2.243182978201566, 4.808353387762301, 11.859889753726168],
        [-0.6646392604033582, -0.2413600081423537, 0.0, 0.2413600081423537,
         0.6646392604033582],
    ])
    def test_each_p_branch_agrees_with_scipy(self, sample):
        res, ref = normality_check(sample), stats.shapiro(sample)
        assert 0 < res.statistic <= 1 and 0 <= res.p_value <= 1
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-7)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-5)

    @pytest.mark.parametrize("n", range(4, 12))
    def test_smallest_w_stays_below_gamma(self, n):
        # n - 1 ties and one outlier give the smallest W of n values, and
        # even there log(1 - W) stays below AS R94's gamma = -2.273 + 0.459 n,
        # the bound past which it would report p = 1e-99
        sample = [0.0] * (n - 1) + [1.0]
        res, ref = normality_check(sample), stats.shapiro(sample)
        assert math.log(1.0 - res.statistic) < -2.273 + 0.459 * n
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-7)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-5)
        assert 1e-99 < res.p_value < 0.01

    @settings(max_examples=150)
    @given(n=st.integers(3, 40) | st.integers(3, 5000),
           kind=st.sampled_from(["normal", "t3", "exponential", "rounded", "offset"]),
           seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_scipy(self, n, kind, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        sample = {
            "normal": lambda: rng.normal(0.0, 1.0, n),
            "t3": lambda: rng.standard_t(3, n),             # heavy-tailed
            "exponential": lambda: rng.exponential(1.0, n),  # skewed
            "rounded": lambda: np.round(rng.normal(0.0, 2.0, n)),  # tied
            "offset": lambda: 1e6 + rng.normal(0.0, 1.0, n),
        }[kind]()
        assume(np.ptp(sample) > 0)
        res, ref = normality_check(sample), stats.shapiro(sample)
        assert abs(res.statistic - ref.statistic) <= 1e-7
        assert abs(res.p_value - ref.pvalue) <= 1e-5
        if abs(ref.pvalue - 0.05) > 1e-5:
            assert res.passed == (ref.pvalue > 0.05)

    def test_power_against_uniform(self):
        # Monte Carlo power estimate: clearly non-normal data must be
        # rejected far above the significance level
        rng = np.random.Generator(np.random.PCG64(99))
        rejections = sum(
            not normality_check(rng.uniform(-1, 1, 45)).passed
            for _ in range(2000)
        )
        assert rejections / 2000 > 0.20


def assert_ndtri_bits(p):
    """The port's quantiles of ``p`` have the bits of SciPy's."""
    p = np.asarray(p, dtype=float)
    assert np.array_equal(_ndtri(p).view(np.int64), special.ndtri(p).view(np.int64))


def around(value, ulps=256):
    """The floats in (0, 1) within ``ulps`` steps of ``value``, itself included."""
    v = (np.float64(value).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)
    return v[(v > 0.0) & (v < 1.0)]


class TestNdtri:
    """The numpy port of Cephes' ndtri against scipy.special.ndtri, bit for bit."""

    @pytest.mark.parametrize("split", [
        math.exp(-2), 0.13533528323661269189,          # central and lower tail
        1.0 - math.exp(-2), 1.0 - 0.13533528323661269189,  # central and upper tail
        math.exp(-32), 1.0 - math.exp(-32),            # x = sqrt(-2 log y) = 8
    ])
    def test_both_sides_of_each_split(self, split):
        assert_ndtri_bits(around(split))

    @pytest.mark.parametrize("y", [lambda p: p, lambda p: 1.0 - p], ids=["lower", "upper"])
    def test_x_of_eight_is_crossed(self, y):
        # the x = 8 switch between the two tail approximations lies inside
        # the floats tested around exp(-32) and 1 - exp(-32)
        x = np.sqrt(-2.0 * np.log(y(around(y(math.exp(-32))))))
        assert x.min() < 8.0 <= x.max()

    @pytest.mark.parametrize("p", [1e-300, 0.5, 1.0 - 2.0**-53, 2.0**-53, 5e-324,
                                   2.2250738585072014e-308])
    def test_fixed_points(self, p):
        assert_ndtri_bits([p])

    def test_every_normal_score_vector(self):
        # the (i - 3/8) / (n + 1/4) of normality_check, n = 3 ... 5000
        assert_ndtri_bits(np.concatenate([(np.arange(1, n // 2 + 1) - 0.375) / (n + 0.25)
                                          for n in range(3, 5001)]))

    def test_seeded_uniforms(self):
        rng = np.random.Generator(np.random.PCG64(20))
        assert_ndtri_bits(np.maximum(rng.random(200_000), 1e-300))

    def test_log_spaced_tails(self):
        tail = np.logspace(-300, math.log10(0.5), 20_000)
        assert_ndtri_bits(np.concatenate([tail, 1.0 - tail[tail > 1e-16]]))

    @settings(max_examples=300)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1))
    def test_any_probability(self, p):
        assert_ndtri_bits(p)
