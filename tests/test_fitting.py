import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ffitts import (
    Condition,
    ConditionSummary,
    Dataset,
    Dimensionality,
    Model,
    SigmaEstimate,
    SigmaMethod,
    SingularFitError,
    ValidationError,
    compare,
    embedded,
    fit_model,
    information_criteria,
    loocv_rmse,
    model_widths,
    ols_fit,
    optimize_c,
)
from ffitts import fitting
from ffitts.report import comparison_rows, render_fit_md
from ffitts.idmodels import compute_id, width_term

AMPLITUDES = (20.0, 30.0, 45.0, 60.0)
WIDTHS = (2.0, 4.0, 6.0, 8.0, 10.0)
# a 42-condition grid: cross-validation's folds make most of the search's rows
GRID_42 = ((15.0, 20.0, 30.0, 45.0, 60.0, 80.0), (1.5, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0))


def grid_summaries(mt_fn, sigma_fn, amplitudes=AMPLITUDES, widths=WIDTHS):
    out = []
    for a in amplitudes:
        for w in widths:
            out.append(
                ConditionSummary(
                    Condition(a, w), mt_ms=mt_fn(a, w), sigma_obs_mm=sigma_fn(a, w)
                )
            )
    return out


def random_summaries(seed, amplitudes=AMPLITUDES, widths=WIDTHS):
    rng = np.random.Generator(np.random.PCG64(seed))

    def mt(a, w):
        return 120.0 + 85.0 * math.log2(a / w + 1.0) + float(rng.normal(0, 8.0))

    def sigma(a, w):
        return float(rng.uniform(0.4, 0.6) * w ** 0.5 + rng.uniform(0.2, 0.5))

    return grid_summaries(mt, sigma, amplitudes, widths)


class TestOls:
    def test_exact_line(self):
        points = [(i / 3.0, 100.0 + 50.0 * i / 3.0) for i in range(8)]
        fit = ols_fit(points)
        assert fit.a_ms == pytest.approx(100.0, abs=1e-9)
        assert fit.b_ms_per_bit == pytest.approx(50.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_reference_fit_1d(self, paper_1d):
        result = fit_model(list(paper_1d.summaries), Model.M1_BASELINE, cv=False)
        assert result.a_ms == pytest.approx(132.7, abs=1.0)
        assert result.b_ms_per_bit == pytest.approx(90.03, abs=0.5)
        assert result.r2 == pytest.approx(0.9813, abs=0.002)

    def test_reference_fit_2d(self, paper_2d):
        result = fit_model(list(paper_2d.summaries), Model.M1_BASELINE, cv=False)
        assert result.a_ms == pytest.approx(109.7, abs=1.0)
        assert result.b_ms_per_bit == pytest.approx(99.57, abs=0.5)
        assert result.r2 == pytest.approx(0.9904, abs=0.002)

    def test_residual_orthogonality(self, paper_1d):
        result = fit_model(list(paper_1d.summaries), Model.M1_BASELINE, cv=False)
        ids = np.array([pc.id_bits for pc in result.per_condition])
        resid = np.array([pc.residual_ms for pc in result.per_condition])
        scale = float(np.abs([s.mt_ms for s in paper_1d.summaries]).mean())
        assert abs(resid.sum()) / scale < 1e-9
        assert abs(resid @ ids) / (scale * ids.mean()) < 1e-9

    def test_constant_mt_is_a_perfect_flat_line(self):
        # no MT variance to explain: the flat line leaves no residual, R² 1
        fit = ols_fit([(1.0, 300.0), (2.0, 300.0), (3.0, 300.0)])
        assert (fit.a_ms, fit.b_ms_per_bit, fit.rss, fit.r2) == (300.0, 0.0, 0.0, 1.0)

    def test_constant_ids_singular(self):
        with pytest.raises(SingularFitError):
            ols_fit([(2.0, 300.0), (2.0, 310.0), (2.0, 320.0)])

    def test_equal_ids_whose_mean_rounds_away_singular(self):
        # the mean of three 0.1s is not 0.1, so the centred ids are not 0
        assert sum([0.1] * 3) / 3 != 0.1
        with pytest.raises(SingularFitError, match="difficulty values are all equal"):
            ols_fit([(0.1, 1.0), (0.1, 2.0), (0.1, 4.0)])

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            ols_fit([(1.0, 2.0), (2.0, 3.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, message", [
        ([(1, 2), (2, math.nan), (3, 4)], "row 1: point y must be finite, got nan"),
        ([(1, 2), (2, 3), (-math.inf, 4)], "row 2: point x must be finite, got -inf"),
    ], ids=["nan-y", "minus-inf-x"])
    def test_non_finite_point_names_its_row(self, points, message):
        with pytest.raises(ValidationError) as exc:
            ols_fit(points)
        assert str(exc.value) == message


class TestInformationCriteria:
    @pytest.mark.parametrize("k,n", [(2, 20), (3, 20), (2, 7), (3, 50)])
    def test_bic_minus_aic_identity(self, k, n):
        aic, bic = information_criteria(123.4, n, k)
        assert bic - aic == pytest.approx(k * (math.log(n) - 2.0), abs=1e-12)

    def test_rss_scaling_identity(self):
        n, k = 20, 2
        aic1, _ = information_criteria(10.0, n, k)
        aic2, _ = information_criteria(10.0 * math.e**2, n, k)
        assert aic2 - aic1 == pytest.approx(2.0 * n, rel=1e-12)

    def test_perfect_fit_sentinel(self):
        aic, bic = information_criteria(0.0, 20, 2)
        assert aic == float("-inf") and bic == float("-inf")

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            information_criteria(-1.0, 20, 2)
        with pytest.raises(ValidationError):
            information_criteria(1.0, 2, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rss", [math.nan, math.inf])
    def test_non_finite_rss_rejected(self, rss):
        with pytest.raises(ValidationError) as exc:
            information_criteria(rss, 20, 2)
        assert str(exc.value) == f"rss must be finite and >= 0, got {rss}"

    def test_ranking_invariant_to_additive_constant(self, paper_1d):
        models = [Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M5_W_NOSQRT_C,
                  Model.M6_W_SQRT_C]
        fits = [fit_model(list(paper_1d.summaries), m, cv=False) for m in models]
        full = sorted(models, key=lambda m: next(f.aic for f in fits if f.model is m))
        # same criterion with the Gaussian constant dropped
        stripped = {
            f.model: f.n * math.log(f.rss / f.n) + 2 * f.k for f in fits
        }
        bare = sorted(models, key=stripped.__getitem__)
        assert full == bare


class TestOptimizeC:
    def test_recovers_known_c_sqrt_form(self):
        c_true = 0.8
        summaries = grid_summaries(
            lambda a, w: 100.0 + 90.0 * math.log2(a / math.sqrt(w * w - c_true**2) + 1.0),
            lambda a, w: 1.0,
        )
        for k in (1.0, 0.25):  # at 0.25 every width, so c_max, is below 1 mm
            c, fit = optimize_c(transformed(summaries, k=k), Model.M6_W_SQRT_C)
            assert abs(c - c_true * k) <= 0.01 * k
            assert fit.r2 == pytest.approx(1.0, abs=1e-9)

    def test_recovers_known_c_subtractive_form(self):
        c_true = 0.8
        summaries = grid_summaries(
            lambda a, w: 100.0 + 90.0 * math.log2(a / (w - c_true) + 1.0),
            lambda a, w: 1.0,
        )
        for k in (1.0, 0.25):
            c, fit = optimize_c(transformed(summaries, k=k), Model.M5_W_NOSQRT_C)
            assert abs(c - c_true * k) <= 0.01 * k

    def test_recovers_c_inside_the_last_grid_step(self):
        # half a grid step below c_max (the smallest width less 5e-7 of it),
        # between the last two grid points
        c_max = min(WIDTHS) - min(WIDTHS) * fitting._C_REL
        c_true = c_max - 0.5 * c_max / (fitting._GRID_POINTS - 1)
        summaries = grid_summaries(
            lambda a, w: 100.0 + 90.0 * math.log2(a / (w - c_true) + 1.0),
            lambda a, w: 1.0,
        )
        c, fit = optimize_c(summaries, Model.M5_W_NOSQRT_C)
        assert c == pytest.approx(c_true, abs=1e-5)

    def test_deterministic(self, paper_1d):
        c1, _ = optimize_c(list(paper_1d.summaries), Model.M6_W_SQRT_C)
        c2, _ = optimize_c(list(paper_1d.summaries), Model.M6_W_SQRT_C)
        assert c1 == c2

    def test_reference_c_values(self, paper_1d, paper_2d):
        c6, fit6 = optimize_c(list(paper_1d.summaries), Model.M6_W_SQRT_C)
        assert c6 == pytest.approx(0.5806, abs=0.05)
        assert fit6.r2 == pytest.approx(0.9815, abs=0.002)
        c5, fit5 = optimize_c(list(paper_2d.summaries), Model.M5_W_NOSQRT_C)
        assert c5 == pytest.approx(0.02535, abs=0.05)
        assert fit5.r2 == pytest.approx(0.9905, abs=0.002)
        c3, fit3 = optimize_c(list(paper_2d.summaries), Model.M3_WE_NOSQRT_C)
        assert c3 == pytest.approx(4.026, abs=0.1)

    def test_c_is_the_root_of_the_r2_slope(self):
        # the analytic root of dR^2/dc; R^2 changes by about 1e-15 over the
        # 4.6e-7 mm from there to 0.05710491206996846
        c = fit_model(random_summaries(61), Model.M5_W_NOSQRT_C, cv=False).c_mm
        assert c == pytest.approx(0.057105371044583346, rel=1e-12)

    def test_cv_near_a_pole_prints_its_converged_value(self):
        # the fold c values sit near a held-out width's pole, so CV moves with
        # them: fold c values 1e-6 mm off their roots print 75.00
        r = fit_model(random_summaries(50), Model.M4_WE_SQRT_C, sigma_a=0.5)
        assert f"{r.cv_rmse_ms:.2f}" == "75.06"

    def test_rejects_fixed_models(self, paper_1d):
        with pytest.raises(ValidationError):
            optimize_c(list(paper_1d.summaries), Model.M1_BASELINE)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_fit_raises_naming_its_conditions(self):
        # a denormal width: A / W overflows at every c m5 and m6 can take,
        # while m3's effective widths stay finite
        summaries = grid_summaries(lambda a, w: 100 + 80 * a / w, lambda a, w: 1 + 0.1 * w)
        tiny = Condition(20.0, 5e-324)
        summaries[0] = ConditionSummary(tiny, mt_ms=500.0, sigma_obs_mm=1.0)
        for model in (Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C):
            assert fit_model(summaries, model, cv=False).math_errors == (tiny,)
            with pytest.raises(ValidationError) as exc:
                optimize_c(summaries, model)
            assert str(exc.value) == f"{model.value}: mathematical error in 1 condition(s): {tiny}"
        c, fit = optimize_c(summaries, Model.M3_WE_NOSQRT_C)
        assert all(map(math.isfinite, (c, fit.a_ms, fit.b_ms_per_bit, fit.rss, fit.r2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mt_fn", [
        lambda a, w: 1e160 * (1 + a / w),  # every squared residual overflows
        # each squared residual is finite, RSS or TSS is not
        lambda a, w: 3e152 * (1 + a / w) * (1 + 0.3 * (a * w % 7)),
        # one squared residual overflows
        lambda a, w: 100 + 80 * math.log2(a / w + 1) + (3e154 if (a, w) == (45.0, 2.0) else 0),
    ], ids=["squares", "sums", "one-square"])
    def test_raises_on_the_conditions_fit_model_reports(self, mt_fn):
        summaries = grid_summaries(mt_fn, lambda a, w: 1 + 0.1 * w)
        for model, _ in FREE_C_PAIRS:
            errors = fit_model(summaries, model, cv=False).math_errors
            assert errors
            with pytest.raises(ValidationError) as exc:
                optimize_c(summaries, model)
            assert str(exc.value) == (f"{model.value}: mathematical error in {len(errors)} "
                                      f"condition(s): {', '.join(map(str, errors))}")

    def test_never_below_fixed_counterpart(self, paper_1d, paper_2d):
        pairs = [
            (Model.M5_W_NOSQRT_C, Model.M1_BASELINE),
            (Model.M6_W_SQRT_C, Model.M1_BASELINE),
            (Model.M3_WE_NOSQRT_C, Model.M2_EFFECTIVE),
            (Model.M4_WE_SQRT_C, Model.M2_EFFECTIVE),
        ]
        datasets = [list(paper_1d.summaries), list(paper_2d.summaries)]
        datasets += [random_summaries(seed) for seed in range(10)]
        for summaries in datasets:
            for free, fixed in pairs:
                r_free = fit_model(summaries, free, cv=False)
                r_fixed = fit_model(summaries, fixed, cv=False)
                assert r_free.r2 >= r_fixed.r2 - 1e-12


class TestCrossValidation:
    def test_exact_line_gives_zero(self):
        summaries = grid_summaries(
            lambda a, w: 100.0 + 50.0 * math.log2(a / w + 1.0),
            lambda a, w: 1.0,
        )
        assert loocv_rmse(summaries, Model.M1_BASELINE) == pytest.approx(0.0, abs=1e-9)

    def test_reference_value_1d(self, paper_1d):
        rmse = loocv_rmse(list(paper_1d.summaries), Model.M1_BASELINE)
        assert rmse == pytest.approx(13.30, abs=0.5)

    @pytest.mark.parametrize("model", [Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C])
    def test_cv_undefined_past_held_out_width(self, model):
        # the fold holding out W = 1 trains on data generated at c = 2, so
        # its c reaches the held-out width and that condition's difficulty
        # is undefined: the model keeps its full fit and drops out of the CV
        # RMSE ranking only
        def term(w, c):
            return w - c if model is Model.M5_W_NOSQRT_C else math.sqrt(w * w - c * c)

        summaries = [
            ConditionSummary(
                Condition(a, w),
                mt_ms=100.0 + 90.0 * math.log2(a / term(w, 2.0 if w > 2 else 0.5) + 1.0),
                sigma_obs_mm=1.0,
            )
            for a, w in zip((20.0, 30.0, 45.0, 60.0, 25.0), (1.0, 3.0, 4.0, 5.0, 6.0))
        ]
        c_fold, _ = optimize_c(summaries[1:], model)
        assert c_fold >= summaries[0].condition.width_mm
        assert loocv_rmse(summaries, model) is None
        result = fit_model(summaries, model)
        assert result.usable and result.cv_rmse_ms is None
        assert result == fit_model(summaries, model, cv=False)
        report = compare(Dataset("past", Dimensionality.TWO_D, tuple(summaries)),
                         [Model.M1_BASELINE, model])
        assert report.unusable == ()
        assert report.best_by["cv_rmse_ms"] is Model.M1_BASELINE

    def test_singular_fold_leaves_cv_undefined(self):
        # holding out (30, 2) leaves three conditions of one A/W ratio, so that
        # fold's difficulties are all equal, while the full fit is defined: m1
        # keeps its full fit and drops out of the CV RMSE ranking only
        summaries = [ConditionSummary(Condition(a, w), mt_ms=mt, sigma_obs_mm=0.5)
                     for a, w, mt in [(20.0, 4.0, 300.0), (40.0, 8.0, 310.0),
                                      (60.0, 12.0, 320.0), (30.0, 2.0, 420.0)]]
        result = fit_model(summaries, Model.M1_BASELINE)
        assert result.usable and result.r2 > 0.9 and result.cv_rmse_ms is None
        assert result == fit_model(summaries, Model.M1_BASELINE, cv=False)
        assert loocv_rmse(summaries, Model.M1_BASELINE) is None
        report = compare(Dataset("singular", Dimensionality.TWO_D, tuple(summaries)),
                         [Model.M1_BASELINE, Model.M2_EFFECTIVE])
        assert report.unusable == ()
        assert report.best_by["aic"] is Model.M1_BASELINE
        assert report.best_by["cv_rmse_ms"] is Model.M2_EFFECTIVE

    def test_needs_four_conditions(self):
        summaries = grid_summaries(
            lambda a, w: 100.0 + 50.0 * math.log2(a / w + 1.0),
            lambda a, w: 1.0,
        )[:3]
        with pytest.raises(ValidationError):
            loocv_rmse(summaries, Model.M1_BASELINE)


class TestFitModel:
    def test_unusable_when_width_undefined(self, paper_1d):
        sigma = paper_1d.sigma_a_catalog[0]  # rapid-accurate calibration
        result = fit_model(list(paper_1d.summaries), Model.M7_GIVEN_SIGMA_A,
                           sigma_a=sigma)
        assert not result.usable
        errs = {(c.amplitude_mm, c.width_mm) for c in result.math_errors}
        assert errs == {(20, 2), (45, 2)}
        assert result.r2 is None and result.aic is None and result.cv_rmse_ms is None

    def test_undefined_width_stops_the_fit_before_difficulties(self):
        # one condition's W_f is undefined (sigma_obs < sigma_a) and another's
        # difficulty overflows (A / W_f > float max): only the first is
        # reported, and the second is once the first is defined
        summaries = grid_summaries(lambda a, w: 100 + 80 * math.log2(a / w + 1),
                                   lambda a, w: 1 + 0.1 * w)
        undefined, huge = Condition(20.0, 2.0), Condition(1e308, 4.0)
        summaries[1] = ConditionSummary(huge, mt_ms=300.0, sigma_obs_mm=0.51)
        for sigma_obs, errors in ((0.4, (undefined,)), (1.2, (huge,))):
            summaries[0] = ConditionSummary(undefined, mt_ms=300.0, sigma_obs_mm=sigma_obs)
            result = fit_model(summaries, Model.M7_GIVEN_SIGMA_A, sigma_a=0.5)
            assert result.math_errors == errors

    def test_equal_difficulties_are_singular(self):
        # one A/sigma_obs ratio: every W_e difficulty is the same float, but
        # their mean is not
        summaries = [ConditionSummary(Condition(a, w), mt_ms=mt, sigma_obs_mm=s)
                     for a, w, mt, s in ((10, 1, 400, 0.2), (10, 2, 410, 0.2), (20, 3, 430, 0.4))]
        widths = model_widths(Model.M2_EFFECTIVE, summaries)
        ids = compute_id(Model.M2_EFFECTIVE, np.array([10.0, 10.0, 20.0]), widths).tolist()
        assert len(set(ids)) == 1 and sum(ids) / 3 != ids[0]
        with pytest.raises(SingularFitError, match="difficulty values are all equal"):
            fit_model(summaries, Model.M2_EFFECTIVE, cv=False)

    def test_difficulties_a_last_bit_apart_are_singular(self):
        # one A/W ratio: four difficulties are one float and the fifth the
        # next float up, a spread of rounding, not of difficulty
        summaries = [ConditionSummary(Condition(10.0 * k, 1.3 * k), mt_ms=393.0 + 7 * k,
                                      sigma_obs_mm=0.4 + 0.1 * k) for k in range(1, 6)]
        ids = compute_id(Model.M1_BASELINE, np.array([10.0 * k for k in range(1, 6)]),
                         model_widths(Model.M1_BASELINE, summaries))
        assert 0 < np.ptp(ids) <= 1e-15 * ids.max()
        with pytest.raises(SingularFitError, match="difficulty values are all equal"):
            fit_model(summaries, Model.M1_BASELINE)

    def test_usable_m7_2d(self, paper_2d):
        result = fit_model(list(paper_2d.summaries), Model.M7_GIVEN_SIGMA_A,
                           sigma_a=1.163, cv=False)
        assert result.usable
        assert result.r2 == pytest.approx(0.9340, abs=0.005)
        assert result.k == 2

    def test_adjusted_r2_identity(self, paper_1d):
        for model in (Model.M1_BASELINE, Model.M5_W_NOSQRT_C):
            r = fit_model(list(paper_1d.summaries), model, cv=False)
            expect = 1.0 - (1.0 - r.r2) * (r.n - 1) / (r.n - r.k)
            assert r.adj_r2 == pytest.approx(expect, rel=1e-12)
            assert r.adj_r2 <= r.r2

    def test_k_counts_free_coefficients(self, paper_1d):
        r1 = fit_model(list(paper_1d.summaries), Model.M1_BASELINE, cv=False)
        r5 = fit_model(list(paper_1d.summaries), Model.M5_W_NOSQRT_C, cv=False)
        assert (r1.k, r5.k) == (2, 3)
        assert r1.c_mm is None and r5.c_mm is not None

    def test_bic_aic_gap_identity(self, paper_1d):
        for model in (Model.M1_BASELINE, Model.M6_W_SQRT_C):
            r = fit_model(list(paper_1d.summaries), model, cv=False)
            assert r.bic - r.aic == pytest.approx(
                r.k * (math.log(r.n) - 2.0), abs=1e-9
            )


class TestSigmaAArgument:
    """A bare float sigma_a is checked where fit_model, compare and loocv_rmse
    take it, before any width is computed."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_not_finite_or_negative_rejected(self, paper_2d, bad):
        summaries = list(paper_2d.summaries)
        message = f"sigma_a must be finite and >= 0, got {bad}"
        for call in (
            lambda: compare(paper_2d, [Model.M1_BASELINE, Model.M7_GIVEN_SIGMA_A],
                            sigma_a=bad),
            lambda: fit_model(summaries, Model.M7_GIVEN_SIGMA_A, sigma_a=bad),
            lambda: loocv_rmse(summaries, Model.M7_GIVEN_SIGMA_A, sigma_a_mm=bad),
        ):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message

    def test_bad_sigma_a_rejected_without_m7(self, paper_2d):
        # the model that ignores sigma_a still checks it
        with pytest.raises(ValidationError) as exc:
            compare(paper_2d, [Model.M1_BASELINE], sigma_a=math.nan)
        assert str(exc.value) == "sigma_a must be finite and >= 0, got nan"

    def test_m7_without_sigma_a_rejected(self, paper_2d):
        summaries = list(paper_2d.summaries)
        for call in (
            lambda: compare(paper_2d, [Model.M1_BASELINE, Model.M7_GIVEN_SIGMA_A]),
            lambda: fit_model(summaries, Model.M7_GIVEN_SIGMA_A),
            lambda: loocv_rmse(summaries, Model.M7_GIVEN_SIGMA_A),
        ):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == "m7 requires a sigma_a value"

    def test_zero_is_the_effective_width_fit(self, paper_2d):
        summaries = list(paper_2d.summaries)
        m7 = fit_model(summaries, Model.M7_GIVEN_SIGMA_A, sigma_a=0.0)
        m2 = fit_model(summaries, Model.M2_EFFECTIVE)
        assert m7.usable
        for name in ("a_ms", "b_ms_per_bit", "r2", "cv_rmse_ms"):
            assert getattr(m7, name) == pytest.approx(getattr(m2, name), rel=1e-12)


class TestCompare:
    def test_best_by_adjusted_r2_is_baseline(self, paper_1d):
        sigma = paper_1d.sigma_a_catalog[0]
        report = compare(paper_1d, list(Model), sigma_a=sigma, cv=False)
        assert report.best_by["adj_r2"] is Model.M1_BASELINE
        assert Model.M7_GIVEN_SIGMA_A in report.unusable

    def test_effective_width_models_rejected_1d(self, paper_1d):
        report = compare(
            paper_1d,
            [Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M3_WE_NOSQRT_C,
             Model.M4_WE_SQRT_C],
            cv=False,
        )
        assert not report.rejected(Model.M1_BASELINE)
        for m in (Model.M2_EFFECTIVE, Model.M3_WE_NOSQRT_C, Model.M4_WE_SQRT_C):
            assert report.rejected(m)

    def test_each_model_fitted_once_in_model_order(self, paper_1d, monkeypatch):
        fitted, real = [], fitting._fit_result

        def recording(summaries, model, *args):
            fitted.append(model)
            return real(summaries, model, *args)

        monkeypatch.setattr(fitting, "_fit_result", recording)
        requested = [Model.M6_W_SQRT_C, Model.M1_BASELINE, Model.M6_W_SQRT_C,
                     Model.M1_BASELINE]
        report = compare(paper_1d, requested, cv=False)
        assert fitted == [r.model for r in report.results] == [
            Model.M1_BASELINE, Model.M6_W_SQRT_C]

    def test_empty_or_unknown_model_list_rejected(self, paper_1d):
        with pytest.raises(ValidationError, match="no model"):
            compare(paper_1d, [], cv=False)
        with pytest.raises(ValueError, match="'m9' is not a valid Model"):
            compare(paper_1d, [Model.M1_BASELINE, "m9"], cv=False)

    def test_deltas_nonnegative_and_zero_for_single_model(self, paper_1d):
        report = compare(paper_1d, [Model.M1_BASELINE], cv=False)
        assert report.delta_aic[Model.M1_BASELINE] == 0.0
        assert report.delta_bic[Model.M1_BASELINE] == 0.0

    def test_perfect_fit_has_zero_delta_and_ranks_the_rest_out(self):
        # every log2(A/W + 1) is an integer, so m1 fits with rss == 0 and
        # AIC = BIC = -inf; -inf - -inf must not make its delta NaN
        conditions = [(2, 2), (6, 2), (14, 2), (4, 4), (12, 4), (28, 4), (8, 8), (24, 8)]
        dataset = Dataset("perfect", Dimensionality.TWO_D, tuple(
            ConditionSummary(Condition(a, w), mt_ms=100 + 90 * math.log2(a / w + 1),
                             sigma_obs_mm=0.5 + 0.1 * w + 0.01 * i)
            for i, (a, w) in enumerate(conditions)))
        m1, m2 = Model.M1_BASELINE, Model.M2_EFFECTIVE
        report = compare(dataset, [m1, m2], cv=False)
        assert report.result(m1).aic == report.result(m1).bic == -math.inf
        assert report.delta_aic[m1] == report.delta_bic[m1] == 0.0
        assert report.delta_aic[m2] == report.delta_bic[m2] == math.inf
        assert not report.rejected(m1) and report.rejected(m2)

    def test_non_finite_fit_is_unusable_and_never_best(self):
        # movement times so large that every squared residual overflows
        summaries = grid_summaries(lambda a, w: 1e160 * (1 + a / w), lambda a, w: 1 + 0.1 * w)
        ds = Dataset("huge", Dimensionality.TWO_D, tuple(summaries))
        report = compare(ds, None, sigma_a=0.5)
        assert report.unusable == tuple(Model)
        for r in report.results:
            assert r.math_errors == tuple(s.condition for s in summaries)
            assert (r.r2, r.rss, r.aic, r.cv_rmse_ms) == (None, None, None, None)
        assert report.best_by == {} and report.delta_aic == {}
        assert [loocv_rmse(summaries, m, 0.5) for m in Model] == [None] * len(Model)

    def test_overflowing_sums_make_every_condition_a_math_error(self):
        # each squared residual is finite, but RSS, TSS or the CV mean is not
        summaries = grid_summaries(lambda a, w: 3e152 * (1 + a / w) * (1 + 0.3 * (a * w % 7)),
                                   lambda a, w: 1 + 0.1 * w)
        report = compare(Dataset("big", Dimensionality.TWO_D, tuple(summaries)), None,
                         sigma_a=0.5)
        assert report.unusable == tuple(Model)
        assert {r.math_errors for r in report.results} == {
            tuple(s.condition for s in summaries)}
        assert [loocv_rmse(summaries, m, 0.5) for m in Model] == [None] * len(Model)

    def test_overflowing_cv_mean_makes_every_condition_a_math_error(self):
        # every square, RSS and TSS is finite; only the mean of the held-out
        # squares overflows
        summaries = grid_summaries(lambda a, w: 100 + 80 * math.log2(a / w + 1),
                                   lambda a, w: 1 + 0.1 * w)
        for i in (0, 4):
            s = summaries[i]
            summaries[i] = ConditionSummary(s.condition, mt_ms=s.mt_ms + 9.6e153,
                                            sigma_obs_mm=s.sigma_obs_mm)
        assert fit_model(summaries, Model.M1_BASELINE, cv=False).usable
        assert fit_model(summaries, Model.M1_BASELINE).math_errors == tuple(
            s.condition for s in summaries)

    @pytest.mark.parametrize("delta, cv, overflows", [
        (1e120, False, False),  # its residual's square is finite
        (3e154, False, True),  # its residual's square overflows, no other one does
        (1.36e154, True, True),  # only its held-out residual's square overflows
        # its residual's square overflows; CV, where (45, 2)'s held-out square
        # would overflow too, is not run
        (5e154, True, True),
    ])
    def test_a_square_that_overflows_is_its_conditions_math_error(self, delta, cv, overflows):
        summaries = grid_summaries(lambda a, w: 100 + 80 * math.log2(a / w + 1),
                                   lambda a, w: 1 + 0.1 * w)
        held = summaries[15]
        summaries[15] = ConditionSummary(held.condition, mt_ms=held.mt_ms + delta,
                                         sigma_obs_mm=held.sigma_obs_mm)
        result = fit_model(summaries, Model.M1_BASELINE, cv=cv)
        assert result.math_errors == ((held.condition,) if overflows else ())

    def test_infinite_difficulty_is_a_math_error_of_the_model(self):
        summaries = grid_summaries(lambda a, w: 100 + 80 * a / w, lambda a, w: 1 + 0.1 * w)
        tiny = Condition(20.0, 5e-324)  # a denormal width: A / W overflows
        summaries[0] = ConditionSummary(tiny, mt_ms=500.0, sigma_obs_mm=1.0)
        report = compare(Dataset("tiny", Dimensionality.TWO_D, tuple(summaries)), None,
                         sigma_a=0.5)
        nominal = {Model.M1_BASELINE, Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C}
        assert set(report.unusable) == nominal
        for m in nominal:
            assert report.result(m).math_errors == (tiny,)
            assert m not in report.best_by.values()
        # the fold holding out the tiny condition picks, for m3 and m4, a c
        # past its W_e, so their CV is undefined; m2 and m7 keep a finite one
        undefined_cv = {Model.M3_WE_NOSQRT_C, Model.M4_WE_SQRT_C}
        for r in report.results:
            assert r.usable == (r.model not in nominal)
            if r.usable:
                assert math.isfinite(r.r2)
                assert (r.cv_rmse_ms is None if r.model in undefined_cv
                        else math.isfinite(r.cv_rmse_ms))
            assert loocv_rmse(summaries, r.model, 0.5) == r.cv_rmse_ms

    def test_each_model_derives_its_widths_once(self, paper_2d, monkeypatch):
        import ffitts.fitting as fitting

        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("model_widths", "optimize_c", "loocv_rmse"):
            monkeypatch.setattr(fitting, name, counting(name, getattr(fitting, name)))
        compare(paper_2d, None, sigma_a=paper_2d.sigma_a_catalog[0], cv=True)
        assert calls == ["model_widths"] * len(Model)

    def test_result_of_a_model_not_fitted_is_a_key_error(self, paper_1d):
        report = compare(paper_1d, [Model.M1_BASELINE], cv=False)
        assert report.result(Model.M1_BASELINE).model is Model.M1_BASELINE
        with pytest.raises(KeyError):
            report.result(Model.M2_EFFECTIVE)

    def test_results_ordered_by_model_number(self, paper_1d):
        report = compare(
            paper_1d, [Model.M6_W_SQRT_C, Model.M1_BASELINE], cv=False
        )
        assert [r.model for r in report.results] == [
            Model.M1_BASELINE, Model.M6_W_SQRT_C
        ]

    def test_m7_requires_sigma(self, paper_2d):
        with pytest.raises(ValidationError):
            compare(paper_2d, [Model.M7_GIVEN_SIGMA_A], sigma_a=None, cv=False)

    def test_c_whose_gain_is_rounding_prints_as_zero(self):
        # m6's best R^2 beats its R^2 at c = 0 by rounding only, so c is 0
        # and not a value below what the search resolves
        dataset = Dataset("46", Dimensionality.TWO_D, tuple(random_summaries(46)))
        report = compare(dataset, None, sigma_a=0.5)
        assert report.result(Model.M6_W_SQRT_C).c_mm == 0.0
        row = next(line for line in render_fit_md(report, dataset).splitlines()
                   if line.startswith("| #6 "))
        assert row.endswith(" | 0 |")

    def test_sigma_estimate_accepted(self, paper_2d):
        est = SigmaEstimate(1.163, SigmaMethod.CALIB_ACCURACY_ONLY, "paper-2d")
        report = compare(paper_2d, [Model.M7_GIVEN_SIGMA_A], sigma_a=est, cv=False)
        assert report.result(Model.M7_GIVEN_SIGMA_A).sigma_a is est


FREE_C_PAIRS = [
    (Model.M3_WE_NOSQRT_C, Model.M2_EFFECTIVE),
    (Model.M4_WE_SQRT_C, Model.M2_EFFECTIVE),
    (Model.M5_W_NOSQRT_C, Model.M1_BASELINE),
    (Model.M6_W_SQRT_C, Model.M1_BASELINE),
]

_PROPERTY = settings(max_examples=20)


@st.composite
def condition_sets(draw):
    """4 to 30 distinct conditions whose movement times follow a subtractive
    tremor law at a drawn c (0 up to 0.9 of the smallest width) plus noise."""
    n = draw(st.integers(4, 30))
    pairs = draw(st.lists(st.tuples(st.integers(10, 90), st.integers(8, 120)),
                          min_size=n, max_size=n, unique=True))
    min_w = min(w for _, w in pairs) / 10
    c_true = draw(st.integers(0, 9)) / 10 * min_w
    summaries = [
        ConditionSummary(
            Condition(float(a), w / 10),
            mt_ms=100.0 + 90.0 * math.log2(a / (w / 10 - c_true) + 1.0)
            + draw(st.integers(-150, 150)) / 10,
            sigma_obs_mm=draw(st.integers(20, 300)) / 100,
        )
        for a, w in pairs
    ]
    # every fold keeps at least two distinct difficulties for each width source
    assume(len({s.condition.amplitude_mm / s.condition.width_mm for s in summaries}) >= 3)
    assume(len({s.condition.amplitude_mm / s.sigma_obs_mm for s in summaries}) >= 3)
    return summaries


def refit_loocv_rmse(summaries, model):
    """Leave-one-condition-out RMSE from one optimize_c call per fold; None
    when a fold's c leaves the held-out width term not positive."""
    sq = []
    for i, held in enumerate(summaries):
        c, fit = optimize_c(summaries[:i] + summaries[i + 1:], model)
        term = float(width_term(model, model_widths(model, [held])[0], c))
        if not term > 0:
            return None
        id_bits = math.log2(held.condition.amplitude_mm / term + 1.0)
        sq.append((fit.a_ms + fit.b_ms_per_bit * id_bits - held.mt_ms) ** 2)
    return math.sqrt(sum(sq) / len(sq))


def summaries_from(rows):
    """Condition summaries from (A, W, MT, sigma_obs) rows."""
    return [ConditionSummary(Condition(a, w), mt_ms=mt, sigma_obs_mm=s) for a, w, mt, s in rows]


# a condition_sets() draw whose m3 fold holding out the third condition has
# nearly its c = 0 R^2 at c_max: with c_max an absolute 1e-6 mm below the
# smallest width, that fold's c stayed 0 in mm but went to c_max, past the
# held-out width, with every length scaled by 2.54, and CV became undefined
UNIT_SENSITIVE = summaries_from([
    (10.0, 8.4, 201.81200799504273, 1.64), (11.0, 4.7, 256.60287074925907, 2.48),
    (10.0, 0.8, 437.93987519471216, 0.2), (13.0, 0.8, 466.86720111003524, 1.86)])


class TestFreeCProperties:
    @_PROPERTY
    @given(summaries=condition_sets(), pair=st.sampled_from(FREE_C_PAIRS))
    def test_loocv_equals_refit_loop(self, summaries, pair):
        # the batch and the loop differ by float rounding (below 1e-15
        # relative on these examples); 1e-9 still fails a batch whose
        # converged folds keep refining (1.3e-7 in a mutation check)
        model = pair[0]
        expected = refit_loocv_rmse(summaries, model)
        assert loocv_rmse(summaries, model) == (
            None if expected is None else pytest.approx(expected, rel=1e-9))

    @_PROPERTY
    @given(summaries=condition_sets(), pair=st.sampled_from(FREE_C_PAIRS))
    def test_never_below_fixed_form_in_full_fit_and_folds(self, summaries, pair):
        free, fixed = pair
        fits = [summaries] + [summaries[:i] + summaries[i + 1:]
                              for i in range(len(summaries))]
        for train in fits:
            _, fit = optimize_c(train, free)
            assert fit.r2 >= fit_model(train, fixed, cv=False).r2 - 1e-12

    def test_cv_does_not_depend_on_the_unit_of_length(self):
        expected = fit_model(UNIT_SENSITIVE, Model.M3_WE_NOSQRT_C).cv_rmse_ms
        assert expected is not None
        for k in (2.54, 0.1):
            scaled = fit_model(transformed(UNIT_SENSITIVE, k=k), Model.M3_WE_NOSQRT_C)
            assert scaled.cv_rmse_ms == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("model", [Model.M3_WE_NOSQRT_C, Model.M4_WE_SQRT_C])
    def test_flat_fold_keeps_c_zero(self, model):
        # the fold holding out (10, 1.0) trains on one W_e at two amplitudes,
        # so its R^2 is the same at every c and only rounding could pick one
        summaries = summaries_from([
            (10.0, 0.8, 437.93987519471216, 0.2), (10.0, 0.9, 423.84333910011526, 0.2),
            (11.0, 0.8, 449.4378744425657, 0.2), (10.0, 1.0, 411.34884567735673, 0.21)])
        assert optimize_c(summaries[:3], model)[0] == 0.0
        expected = refit_loocv_rmse(summaries, model)
        assert expected == pytest.approx(14.8876, abs=1e-4)
        assert loocv_rmse(summaries, model) == pytest.approx(expected, rel=1e-9)


class TestThreeConditions:
    """Three conditions: a free-c model has as many coefficients as
    conditions, so its adjusted R^2, AIC and BIC are undefined.  It keeps its
    fit and drops out of those rankings only, as with an undefined CV."""

    SUMMARIES = [ConditionSummary(Condition(a, w), mt_ms=mt, sigma_obs_mm=s)
                 for a, w, mt, s in [(20.0, 2.0, 450.0, 0.8), (30.0, 4.0, 420.0, 1.2),
                                     (45.0, 8.0, 400.0, 2.0)]]
    FIXED = [Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M7_GIVEN_SIGMA_A]
    FREE = [model for model, _ in FREE_C_PAIRS]

    def test_free_c_criteria_undefined_and_fixed_models_ranked_alone(self):
        dataset = Dataset("three", Dimensionality.TWO_D, tuple(self.SUMMARIES))
        report = compare(dataset, None, sigma_a=0.5)
        assert report.unusable == ()
        rows = {row["model"]: row for row in comparison_rows(report)}
        for model in self.FREE:
            r = report.result(model)
            assert r.usable and math.isfinite(r.r2) and 0 <= r.c_mm
            assert (r.adj_r2, r.aic, r.bic, r.cv_rmse_ms) == (None, None, None, None)
            assert model not in report.delta_aic and model not in report.delta_bic
            row = rows[model.value]
            assert (row["delta_aic"], row["delta_bic"], row["rejected"]) == (None, None, False)
        fixed = compare(dataset, self.FIXED, sigma_a=0.5)
        assert tuple(map(report.result, self.FIXED)) == fixed.results
        assert (report.delta_aic, report.delta_bic) == (fixed.delta_aic, fixed.delta_bic)
        for crit in ("adj_r2", "aic", "bic"):
            assert report.best_by[crit] is fixed.best_by[crit]
            assert report.best_by[crit] in self.FIXED

    def test_r2_pick_is_the_first_model_within_the_margin(self):
        # every free-c model passes through the three points: their R^2 are
        # 1 up to rounding, so the first of them in model order is picked
        report = compare(Dataset("three", Dimensionality.TWO_D, tuple(self.SUMMARIES)), None,
                         sigma_a=0.5)
        assert all(report.result(m).r2 == pytest.approx(1.0, abs=1e-12) for m in self.FREE)
        assert report.best_by["r2"] is Model.M3_WE_NOSQRT_C

    def test_optimize_c_is_the_fit_model_fit(self):
        for model in self.FREE:
            r = fit_model(self.SUMMARIES, model)
            assert optimize_c(self.SUMMARIES, model) == (
                r.c_mm, fitting.OlsFit(r.a_ms, r.b_ms_per_bit, r.rss, r.r2))


def summaries_of(source):
    """A bundled dataset's summaries by name, random_summaries by seed, or
    drawn summaries as they are."""
    if isinstance(source, str):
        return list(embedded(source).summaries)
    return random_summaries(source) if isinstance(source, int) else source


def _hex(value):
    return None if value is None else value.hex()


_FREE_C_MIXES = [{Model.M3_WE_NOSQRT_C}, {Model.M4_WE_SQRT_C, Model.M6_W_SQRT_C},
                 {model for model, _ in FREE_C_PAIRS}]


class TestSharedSearch:
    """fit_model searches the full fit's c and every fold's c together, and
    compare searches those of every free-c model it fits together."""

    @_PROPERTY
    @given(source=st.sampled_from(["paper-1d", "paper-2d"]) | st.integers(0, 2**32 - 1),
           pair=st.sampled_from(FREE_C_PAIRS))
    def test_same_bits_as_single_purpose_paths(self, source, pair):
        model = pair[0]
        summaries = summaries_of(source)
        result = fit_model(summaries, model)
        assert result.c_mm == optimize_c(summaries, model)[0]
        # each fold's row of the search fit_model runs, against a search of
        # that fold's own (as regenerate.py pins fold_c_mm)
        amps = np.array([s.condition.amplitude_mm for s in summaries])
        mt = np.array([s.mt_ms for s in summaries])
        fold_cs = fitting._search_c([(model, model_widths(model, summaries))], amps, mt,
                                    folds=True)[0][1:]
        assert [c.hex() for c in fold_cs.tolist()] == [
            optimize_c(summaries[:i] + summaries[i + 1:], model)[0].hex()
            for i in range(len(summaries))]

    @pytest.mark.parametrize("source", ["paper-1d", "paper-2d", *range(10)])
    @pytest.mark.parametrize("model", [model for model, _ in FREE_C_PAIRS])
    def test_full_fit_grid_has_the_same_bits_beside_the_folds(self, source, model):
        # _grid_r2 sums every row in one masked product, so the full fit's
        # grid R^2 beside the folds' rows agrees with its own to rounding;
        # the grid c it picks, and the c its root finding gives on the row's
        # own sums, have the same bits whether the folds are searched with it
        summaries = summaries_of(source)
        n = len(summaries)
        amps = np.array([s.condition.amplitude_mm for s in summaries])
        mt = np.array([s.mt_ms for s in summaries])
        widths = model_widths(model, summaries)
        w_min = widths.min()
        grid = np.linspace(0.0, w_min * (1 - fitting._C_REL), fitting._GRID_POINTS)
        full = np.ones((1, n), dtype=bool)
        with_folds = fitting._grid_r2(model, amps, widths, grid,
                                      np.vstack([full, ~np.eye(n, dtype=bool)]), mt)[0]
        alone = fitting._grid_r2(model, amps, widths, grid, full, mt)[0]
        assert with_folds == pytest.approx(alone, rel=0, abs=1e-14)
        assert grid[np.argmax(with_folds)].hex() == grid[np.argmax(alone)].hex()
        spec = [(model, widths)]
        assert fitting._search_c(spec, amps, mt, folds=True)[0, 0].hex() == (
            fitting._search_c(spec, amps, mt)[0, 0].hex())

    @pytest.mark.parametrize("model,grids", [
        (Model.M3_WE_NOSQRT_C, 2), (Model.M4_WE_SQRT_C, 2),
        (Model.M5_W_NOSQRT_C, 1), (Model.M6_W_SQRT_C, 1),
    ])
    def test_one_grid_per_distinct_c_max(self, paper_2d, monkeypatch, model, grids):
        # the full fit's c_max is the smallest width, as is that of every
        # fold keeping it, so only a fold leaving out a smallest width adds one
        widths = model_widths(model, paper_2d.summaries)
        c_maxes = {widths.min()} | {np.delete(widths, i).min() for i in range(len(widths))}
        assert len(c_maxes) == grids
        calls, real = [], fitting._grid_r2

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fitting, "_grid_r2", counting)
        fit_model(list(paper_2d.summaries), model, cv=True)
        assert len(calls) == grids

    def test_one_refinement_loop_for_every_model_of_a_compare(self, paper_2d, monkeypatch):
        # the grids stay per model and c_max (2 + 2 + 1 + 1, as above)
        calls = {"_search_c": 0, "_grid_r2": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fitting, name, counting(name, getattr(fitting, name)))
        report = compare(paper_2d, None, sigma_a=paper_2d.sigma_a_catalog[0], cv=True)
        assert len(report.results) == len(Model)
        assert calls == {"_search_c": 1, "_grid_r2": 6}

    @pytest.mark.parametrize("models", _FREE_C_MIXES)
    @pytest.mark.parametrize("source", ["paper-1d", "paper-2d", 0, 1, 2, 3, 4] + [
        pytest.param(random_summaries(seed, *GRID_42), id=f"grid-42-{seed}") for seed in range(3)])
    def test_compare_rows_have_the_bits_of_a_search_of_their_own(self, source, models,
                                                                 monkeypatch):
        # compare stacks every free-c model's rows by form into one search,
        # in which a settled row's group is no longer reduced; each model's
        # full-fit and fold c come out as a search of that model alone gives
        summaries = summaries_of(source)
        searches, real = [], fitting._search_c

        def recording(specs, amps, mt, folds=False):
            searches.append((specs, amps, mt, real(specs, amps, mt, folds)))
            return searches[-1][-1]

        monkeypatch.setattr(fitting, "_search_c", recording)
        report = compare(Dataset("drawn", Dimensionality.TWO_D, tuple(summaries)), models)
        [(specs, amps, mt, rows)] = searches
        assert [model for model, _ in specs] == [m for m in Model if m in models]
        for (model, widths), row in zip(specs, rows):
            alone = real([(model, widths)], amps, mt, folds=True)[0]
            assert [c.hex() for c in row.tolist()] == [c.hex() for c in alone.tolist()]
            assert report.result(model).c_mm.hex() == alone[0].hex()

    @pytest.mark.parametrize("folds", [False, True])
    def test_no_spec_gives_no_row(self, paper_2d, folds):
        summaries = paper_2d.summaries
        amps = np.array([s.condition.amplitude_mm for s in summaries])
        mt = np.array([s.mt_ms for s in summaries])
        rows = fitting._search_c([], amps, mt, folds)
        assert rows.shape == (0, len(summaries) + 1 if folds else 1)

    def test_compare_of_fixed_models_searches_no_spec(self, paper_2d, monkeypatch):
        searches, real = [], fitting._search_c

        def recording(specs, amps, mt, folds=False):
            searches.append(real(specs, amps, mt, folds))
            return searches[-1]

        monkeypatch.setattr(fitting, "_search_c", recording)
        models = [Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M7_GIVEN_SIGMA_A]
        report = compare(paper_2d, models, sigma_a=paper_2d.sigma_a_catalog[0])
        [rows] = searches
        assert rows.shape == (0, len(paper_2d.summaries) + 1)
        assert all(r.c_mm is None for r in report.results)
        assert [r.model for r in report.results] == models

    @pytest.mark.parametrize("order", ["m6 m4 m5 m3", "m6 m3 m4 m5"])
    @pytest.mark.parametrize("source", ["paper-1d", "paper-2d", 0, 1])
    def test_square_root_first_keeps_the_given_order(self, source, order):
        # the search sorts the specs W - c first; its rows come back in the
        # order given, each with the bits of a search of that spec alone
        # (the first order's sort is its own inverse; the second's is not)
        summaries = summaries_of(source)
        amps = np.array([s.condition.amplitude_mm for s in summaries])
        mt = np.array([s.mt_ms for s in summaries])
        specs = [(m, model_widths(m, summaries)) for m in map(Model.parse, order.split())]
        rows = fitting._search_c(specs, amps, mt, folds=True)
        assert rows.shape == (len(specs), len(summaries) + 1)
        for spec, row in zip(specs, rows):
            alone = fitting._search_c([spec], amps, mt, folds=True)[0]
            assert [c.hex() for c in row.tolist()] == [c.hex() for c in alone.tolist()]

    @pytest.mark.parametrize("models", _FREE_C_MIXES)
    def test_one_kernel_call_per_form_per_evaluation(self, paper_2d, monkeypatch, models):
        # each kernel call takes every row of one form, W - c before the
        # square root, so each evaluation of the root finding makes one call
        # per form; compute_id runs only in the grids and the fits
        calls, counts = [], {"compute_id": 0, "_grid_r2": 0}
        real_kernel = fitting.id_and_slope

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        def kernel(model, amps, widths, c):
            calls.append((model.uses_sqrt, len(c)))
            return real_kernel(model, amps, widths, c)

        for name in counts:
            monkeypatch.setattr(fitting, name, counting(name, getattr(fitting, name)))
        monkeypatch.setattr(fitting, "id_and_slope", kernel)
        compare(paper_2d, models, cv=True)
        rows = len(paper_2d.summaries) + 1  # the full fit and a fold per condition
        forms = [(sqrt, rows * sum(m.uses_sqrt is sqrt for m in models))
                 for sqrt in sorted({m.uses_sqrt for m in models})]
        evaluations = len(calls) // len(forms)
        assert evaluations >= 2 and calls == forms * evaluations
        assert counts["compute_id"] == counts["_grid_r2"] + len(models)

    @_PROPERTY
    @given(source=st.sampled_from(["paper-1d", "paper-2d"]) | st.integers(0, 2**32 - 1)
           | condition_sets(),
           models=st.sets(st.sampled_from(list(Model)), min_size=1),
           cv=st.booleans(), sigma_a=st.floats(0.1, 2.0))
    # m5 and m6 at c = 0 (seeds 0 and 4), m4 with CV undefined (seed 2)
    @example(source=0, models=set(Model), cv=True, sigma_a=0.6)
    @example(source=4, models=set(Model), cv=True, sigma_a=0.6)
    @example(source=2, models=set(Model), cv=True, sigma_a=0.6)
    @example(source="paper-1d", models=set(Model), cv=True, sigma_a=0.8837)
    @example(source="paper-2d", models=set(Model), cv=True, sigma_a=1.163)
    def test_compare_fits_each_model_as_fit_model_does(self, source, models, cv, sigma_a):
        summaries = summaries_of(source)
        report = compare(Dataset("drawn", Dimensionality.TWO_D, tuple(summaries)), models,
                         sigma_a=sigma_a, cv=cv)
        for m in models:
            shared, alone = report.result(m), fit_model(summaries, m, sigma_a=sigma_a, cv=cv)
            assert shared == alone
            assert [_hex(getattr(shared, name)) for name in ("c_mm", "cv_rmse_ms", "r2")] == [
                _hex(getattr(alone, name)) for name in ("c_mm", "cv_rmse_ms", "r2")]


@pytest.mark.parametrize("source", ["paper-1d", "paper-2d", 50, 61, 87])
def test_report_does_not_depend_on_the_grid_size(source, monkeypatch):
    """The grid only brackets each fit's root of dR^2/dc, so a finer or
    coarser grid prints the same report."""
    dataset = (embedded(source) if isinstance(source, str) else
               Dataset(str(source), Dimensionality.TWO_D, tuple(random_summaries(source))))
    reports = []
    for points in (fitting._GRID_POINTS, 250, 2000):
        monkeypatch.setattr(fitting, "_GRID_POINTS", points)
        reports.append(render_fit_md(compare(dataset, None, sigma_a=0.5), dataset))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_square_root_peak_below_the_first_grid_point(monkeypatch):
    """A square-root form's dR^2/dc is 0 at c = 0, but its slope in c^2 is
    not, so a peak between 0 and a 250-point grid's first point is found as
    a 2000-point grid finds it."""
    summaries = grid_summaries(
        lambda a, w: 100.0 + 90.0 * math.log2(a / math.sqrt(w * w - 0.007**2) + 1.0)
        + 1e-3 * math.sin(a * w),
        lambda a, w: 1.0,
    )
    dataset = Dataset("m6-peak", Dimensionality.TWO_D, tuple(summaries))
    reports = []
    for points in (250, 2000):
        monkeypatch.setattr(fitting, "_GRID_POINTS", points)
        report = compare(dataset, None, sigma_a=0.5)
        reports.append(render_fit_md(report, dataset))
    assert 0 < report.result(Model.M6_W_SQRT_C).c_mm < min(WIDTHS) / 249
    assert reports[0] == reports[1]


@_PROPERTY
@given(source=st.sampled_from(["paper-1d", "paper-2d"]) | st.integers(0, 2**32 - 1),
       sigma_a=st.floats(0.1, 2.0))
def test_full_fit_does_not_depend_on_cv(source, sigma_a):
    """The full fit is the same with and without cross-validation: its
    difficulties are row 0 of an (n + 1, n) id table with CV and of a (1, n)
    one without."""
    summaries = summaries_of(source)
    for m in Model:
        with_cv = fit_model(summaries, m, sigma_a=sigma_a)
        assert dataclasses.replace(with_cv, cv_rmse_ms=None) == fit_model(
            summaries, m, sigma_a=sigma_a, cv=False)


class TestUsableMeansFinite:
    @_PROPERTY
    @given(mt_exp=st.integers(-300, 300), w_exp=st.integers(-1070, 0),
           seed=st.integers(0, 2**32 - 1))
    def test_usable_models_have_finite_metrics(self, mt_exp, w_exp, seed):
        # movement times up to 1e300 and widths down to denormals
        rng = np.random.Generator(np.random.PCG64(seed))
        summaries = [
            ConditionSummary(Condition(a, w * 2.0**w_exp),
                             mt_ms=10.0**mt_exp * (1 + a / w) * float(rng.uniform(0.5, 1.5)),
                             sigma_obs_mm=1 + 0.1 * w)
            for a in AMPLITUDES for w in WIDTHS
        ]
        report = compare(Dataset("x", Dimensionality.TWO_D, tuple(summaries)), None,
                         sigma_a=0.5)
        for r in report.results:
            if not r.usable:
                assert r.r2 is None and r.model not in report.best_by.values()
                continue
            assert all(map(math.isfinite, (r.r2, r.adj_r2, r.rss)))
            assert r.cv_rmse_ms is None or math.isfinite(r.cv_rmse_ms)
            assert math.isfinite(r.aic) or (r.rss == 0 and r.aic == -math.inf)


def transformed(summaries, k=1.0, q=1.0, p=0.0):
    """Summaries with every length scaled by k and MT mapped to q * MT + p."""
    return [ConditionSummary(Condition(s.condition.amplitude_mm * k, s.condition.width_mm * k),
                             mt_ms=q * s.mt_ms + p, sigma_obs_mm=s.sigma_obs_mm * k)
            for s in summaries]


# how far rounding the widths of two reports by an ulp each moves the
# difficulty of the smallest width at c = c_max, in bits: its width term
# keeps only W * _C_REL of W (see test_length_scaling_of_drawn_sets)
C_MAX_ID_BITS = 2 * 2.0**-52 / fitting._C_REL / math.log(2.0)


def r2_tolerance(result, rows):
    """How far a length scaling may move `result`'s R^2: 1e-12, or, where
    its c sits at c_max of `rows`, the move C_MAX_ID_BITS of one difficulty
    can make, at most 4 / sqrt(Sxx) per bit."""
    if rows is None or result.c_mm is None:
        return 1e-12
    w_min = model_widths(result.model, rows).min()
    if result.c_mm != w_min - w_min * fitting._C_REL:
        return 1e-12
    ids = np.array([p.id_bits for p in result.per_condition])
    return max(1e-12, 4 * C_MAX_ID_BITS / math.sqrt(((ids - ids.mean()) ** 2).sum()))


def assert_same_ranking(base, other, k=1.0, q=1.0, cv_rel=1e-5, rows=None):
    """`other` is the report of `base`'s data with every length scaled by k
    and MT mapped to q * MT + p, or its rows permuted: c scales by k, R^2
    stays (to r2_tolerance when `rows`, the data of `base`, are given),
    CV RMSE scales by q, and which models are usable, which have an
    undefined CV and which model each criterion picks never change."""
    assert other.best_by == base.best_by
    for r, t in zip(base.results, other.results):
        assert (t.usable, t.cv_rmse_ms is None) == (r.usable, r.cv_rmse_ms is None)
        if not r.usable:
            continue
        assert t.r2 == pytest.approx(r.r2, abs=r2_tolerance(r, rows))
        if r.c_mm is not None:
            assert t.c_mm / k == pytest.approx(r.c_mm, abs=1e-5)
        if r.cv_rmse_ms is not None:
            assert t.cv_rmse_ms / q == pytest.approx(r.cv_rmse_ms, rel=cv_rel)


def report_of(rows, sigma_a):
    return compare(Dataset("t", Dimensionality.TWO_D, tuple(rows)), None, sigma_a=sigma_a)


LENGTH_SCALES = (2.54, 10.0, 0.1)


# seeds 26 and 36 have a near-tie between m1 and m6 at c near 0 that flipped
# the CV pick under scaling while the search's bounds were absolute
@pytest.mark.parametrize("source, sigma_a", [("paper-1d", 0.8), ("paper-2d", 0.8)]
                         + [(seed, 0.5) for seed in (*range(10), 26)] + [(36, 1.2)])
def test_compare_invariants(source, sigma_a):
    """Scaling every length by k, mapping MT to q * MT + p or permuting the
    rows keeps each model's fit as `assert_same_ranking` says."""
    summaries = summaries_of(source)
    base = report_of(summaries, sigma_a)
    order = np.random.Generator(np.random.PCG64(0)).permutation(len(summaries))
    for k in LENGTH_SCALES:
        assert_same_ranking(base, report_of(transformed(summaries, k=k), sigma_a * k),
                            k=k, cv_rel=1e-4, rows=summaries)
    for q, p in ((0.5, 0.0), (3.0, 250.0), (1e-4, 0.0)):
        assert_same_ranking(base, report_of(transformed(summaries, q=q, p=p), sigma_a), q=q)
    assert_same_ranking(base, report_of([summaries[i] for i in order], sigma_a))


# a condition_sets() draw whose m4 c sits at c_max (1.0332 mm), with its
# R^2 0.09309286586019583 at k = 1 and 0.09309286585885079 at k = 2.54
C_MAX_PINNED = summaries_from([
    (63, 10.1, 363.0964501880579, 0.25), (78, 7.3, 424.1919635194445, 0.83),
    (76, 6.0, 444.7330553507234, 0.82), (23, 4.4, 338.77404178909063, 0.63)])


@_PROPERTY
@given(summaries=condition_sets(), sigma_a=st.floats(0.1, 2.0))
@example(summaries=UNIT_SENSITIVE, sigma_a=0.5)
@example(summaries=C_MAX_PINNED, sigma_a=0.1)
def test_length_scaling_of_drawn_sets(summaries, sigma_a):
    """Scaling every length keeps each fit as `assert_same_ranking` says.

    R^2 stays within 1e-12, except where c sits at c_max = W - W * 5e-7,
    W the smallest width.  There the smallest width's term is a difference
    that keeps only about W * 5e-7 (W - c) or W * 1e-3 (sqrt(W^2 - c^2)) of
    W, so rounding the scaled widths by about an ulp moves it by about
    1e-10 relative, and R^2 with it: on C_MAX_PINNED, m4's R^2 moves by
    1.3e-12 at k = 2.54.  Such a fit's R^2 is held to that conditioning
    (r2_tolerance: 5e-10 there)."""
    base = report_of(summaries, sigma_a)
    for k in LENGTH_SCALES:
        assert_same_ranking(base, report_of(transformed(summaries, k=k), sigma_a * k),
                            k=k, cv_rel=1e-4, rows=summaries)


def _bits(obj):
    """The fields of a FitResult or PerCondition, each float by float.hex
    and per_condition entry by entry."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if "per_condition" in values:
        values["per_condition"] = [_bits(pc) for pc in values["per_condition"]]
    return {k: v.hex() if isinstance(v, float) else v for k, v in values.items()}


class TestBatchedLineFit:
    """compare fits the line of every model's full fit in one `_line` call
    and of every model's folds in another; fit_model is the batch of one."""

    @pytest.mark.parametrize("cv", [True, False])
    @pytest.mark.parametrize("sigma_a", [0.5, 1.2])
    @pytest.mark.parametrize("source", ["paper-1d", "paper-2d", *range(10)] + [
        pytest.param(random_summaries(seed, *GRID_42), id=f"grid-42-{seed}") for seed in range(2)])
    def test_compare_has_the_bits_of_fit_model(self, source, sigma_a, cv):
        summaries = summaries_of(source)
        report = compare(Dataset("set", Dimensionality.TWO_D, tuple(summaries)),
                         sigma_a=sigma_a, cv=cv)
        assert [r.model for r in report.results] == list(Model)
        for r in report.results:
            assert _bits(r) == _bits(fit_model(summaries, r.model, sigma_a=sigma_a, cv=cv))

    @pytest.mark.parametrize("source", ["paper-1d", "paper-2d", 0, 1])
    def test_each_line_has_the_bits_of_ols_fit(self, source):
        # each usable model's row of the batch against ols_fit of its points alone
        summaries = summaries_of(source)
        report = compare(Dataset("set", Dimensionality.TWO_D, tuple(summaries)), sigma_a=0.5)
        for r in report.results:
            fit = ols_fit([(pc.id_bits, pc.mt_ms) for pc in r.per_condition])
            assert [v.hex() for v in (r.a_ms, r.b_ms_per_bit, r.rss, r.r2)] == [
                v.hex() for v in (fit.a_ms, fit.b_ms_per_bit, fit.rss, fit.r2)]

    TWO = summaries_from([(20.0, 2.0, 300.0, 1.0), (40.0, 4.0, 350.0, 1.5)])
    # one A/W ratio: m1's difficulties are all equal
    ONE_RATIO = summaries_from([(20.0, 2.0, 300.0, 1.0), (40.0, 4.0, 350.0, 1.5),
                                (60.0, 6.0, 330.0, 2.0), (80.0, 8.0, 360.0, 2.5)])

    @pytest.mark.parametrize("cv", [True, False])
    @pytest.mark.parametrize("rows,error,message", [
        (TWO, ValidationError, "need >= 3 points, got 2"),
        (ONE_RATIO, SingularFitError, "difficulty values are all equal"),
    ])
    def test_the_first_line_that_cannot_be_fitted_raises(self, rows, error, message, cv):
        with pytest.raises(error) as exc:
            compare(Dataset("set", Dimensionality.TWO_D, tuple(rows)), sigma_a=0.5, cv=cv)
        assert type(exc.value) is error and str(exc.value) == message

    def test_no_line_no_error(self):
        # m7's width is undefined on the first condition (sigma_obs < sigma_a),
        # so no model reaches a line and 2 conditions do not raise
        report = compare(Dataset("set", Dimensionality.TWO_D, tuple(self.TWO)),
                         [Model.M7_GIVEN_SIGMA_A], sigma_a=1.2)
        [r] = report.results
        assert r.math_errors == (self.TWO[0].condition,)
