"""Acceptance suite: reproduction of the bundled studies' reference results.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Tolerances absorb the rounding of the bundled condition
data, which is stored at published display precision.

Two published numbers are not reproducible from the bundled condition-level
data under the documented methods.  Both findings are checked as data facts
in the tests below, next to independent checks of the methods themselves:

* criterion 4, the 1D intercept 0.9543 mm^2: the unweighted OLS of
  sigma_obs^2 on W^2 over the 20 bundled 1D points gives 0.6729 mm^2.  Each
  sigma_obs is stored at 3 significant figures, and the OLS intercept is
  linear in sigma_obs^2, so its exact range over every sigma_obs inside its
  half-unit rounding band is [0.6559, 0.6900] mm^2 for 1D and
  [1.7340, 1.7788] mm^2 for 2D.  The 2D reference 1.7593 lies inside its
  range; the 1D reference lies far outside, and dropping any single 1D
  point never brings the intercept within 0.1 of it, so no transcription
  slip explains it.  The same 1D sigma_obs values reproduce the published
  M2 R^2, the m2/m3/m4 AIC gaps and the criterion 3 W_f matrix, so they are
  the study's points; 0.9543 came from other (per-participant) points that
  the package does not hold.
* criterion 6, the 2D m5 CV RMSE 42.29 ms: every 2D training fold keeps
  three W = 2 mm conditions, so c_max is 2 - 1e-6 mm in every fold, and the
  per-fold R^2(c) peaks at c <= 0.27 mm for m5 and c <= 0.84 mm for m6.  No
  fold's c reaches a held-out width (one that did would leave the CV RMSE
  undefined), and both models' CV RMSE land near 11 ms (the m6 reference
  11.05 reproduces).  With the other folds near 11 ms, an RMSE of 42.29 over
  20 folds needs one residual of about 183 ms, which no fold of these data
  produces.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from ffitts import (
    AxisMode,
    Model,
    MovementTimeModel,
    SigmaMethod,
    SimulatorConfig,
    aggregate,
    compute_id,
    effective_width,
    finger_width,
    fit_model,
    generate,
    loocv_rmse,
    normality_check,
    ols_fit,
    optimize_c,
    sigma_from_intercept,
)

from test_fitting import random_summaries


class Criterion:
    def __init__(self, name):
        self.name = name
        self.failures = []
        self.count = 0

    def check(self, label, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def within(self, label, got, expected, tol):
        self.check(
            label,
            abs(got - expected) <= tol,
            f"got {got:.6g}, need {expected:.6g} +/- {tol:g}",
        )

    def finish(self):
        status = "PASS" if not self.failures else "FAIL"
        print(f"\n[acceptance] {self.name}: {status} "
              f"({self.count - len(self.failures)}/{self.count} checks)")
        for f in self.failures:
            print(f"    failed: {f}")
        assert not self.failures, f"{self.name}: {self.failures}"


# --------------------------------------------------------------------------
# criterion 1: model fits on the bundled 1D dataset
# --------------------------------------------------------------------------

def test_criterion_1_model_fits_1d(paper_1d):
    c = Criterion("criterion 1: reference model fits (1D)")
    summaries = list(paper_1d.summaries)
    m1 = fit_model(summaries, Model.M1_BASELINE, cv=False)
    c.within("M1 a", m1.a_ms, 132.7, 1.0)
    c.within("M1 b", m1.b_ms_per_bit, 90.03, 0.5)
    c.within("M1 R2", m1.r2, 0.9813, 0.002)
    c.within("M1 adj R2", m1.adj_r2, 0.9802, 0.002)
    m2 = fit_model(summaries, Model.M2_EFFECTIVE, cv=False)
    c.within("M2 R2", m2.r2, 0.9107, 0.005)
    m5 = fit_model(summaries, Model.M5_W_NOSQRT_C, cv=False)
    c.within("M5 c", m5.c_mm, 0.08178, 0.05)
    c.within("M5 R2", m5.r2, 0.9814, 0.002)
    m6 = fit_model(summaries, Model.M6_W_SQRT_C, cv=False)
    c.within("M6 c", m6.c_mm, 0.5806, 0.05)
    c.within("M6 R2", m6.r2, 0.9815, 0.002)
    c.finish()


# --------------------------------------------------------------------------
# criterion 2: model fits on the bundled 2D dataset
# --------------------------------------------------------------------------

def test_criterion_2_model_fits_2d(paper_2d):
    c = Criterion("criterion 2: reference model fits (2D)")
    summaries = list(paper_2d.summaries)
    m1 = fit_model(summaries, Model.M1_BASELINE, cv=False)
    c.within("M1 a", m1.a_ms, 109.7, 1.0)
    c.within("M1 b", m1.b_ms_per_bit, 99.57, 0.5)
    c.within("M1 R2", m1.r2, 0.9904, 0.002)
    m7 = fit_model(summaries, Model.M7_GIVEN_SIGMA_A, sigma_a=1.163, cv=False)
    c.within("M7 R2", m7.r2, 0.9340, 0.005)
    c.within("M7 a", m7.a_ms, 33.14, 3.0)
    c.within("M7 b", m7.b_ms_per_bit, 120.1, 2.0)
    m2 = fit_model(summaries, Model.M2_EFFECTIVE, cv=False)
    c.within("M2 R2", m2.r2, 0.7317, 0.01)
    m3 = fit_model(summaries, Model.M3_WE_NOSQRT_C, cv=False)
    c.within("M3 c", m3.c_mm, 4.026, 0.1)
    c.finish()


# --------------------------------------------------------------------------
# criterion 3: adjusted-width matrices, cell values and error patterns
# --------------------------------------------------------------------------

E = None  # marks a mathematically undefined cell in the reference tables

# reference adjusted-width cells, amplitude-major over A in {20,30,45,60}
# crossed with W in {2,4,6,8,10}; method order matches the sigma_a catalog
WF_REFERENCE_1D = {
    "calib-ra": [E, 3.87, 8.15, 10.4, 8.52, 0.694, 3.83, 4.01, 9.02, 8.93,
                 E, 3.07, 5.32, 9.20, 11.1, 1.35, 4.14, 8.01, 9.41, 12.5],
    "calib-acc": [E, 4.36, 8.39, 10.6, 8.75, 2.14, 4.33, 4.49, 9.25, 9.15,
                  0.728, 3.68, 5.69, 9.42, 11.3, 2.43, 4.61, 8.26, 9.63, 12.7],
    "intercept-fitts": [E, 3.47, 7.96, 10.2, 8.34, E, 3.42, 3.62, 8.86, 8.76,
                        E, 2.55, 5.04, 9.04, 11.0, E, 3.77, 7.82, 9.26, 12.4],
    "intercept-random": [E, 3.32, 7.90, 10.2, 8.28, E, 3.27, 3.48, 8.8, 8.70,
                         E, 2.34, 4.94, 8.98, 10.9, E, 3.64, 7.76, 9.20, 12.4],
}
WF_REFERENCE_2D = {
    "calib-ra": [E, 2.65, 4.22, 5.29, 5.95, E, E, 4.36, 6.18, 5.32,
                 E, 2.60, 4.00, 6.05, 7.38, E, 2.45, 4.95, 6.67, 7.67],
    "calib-acc": [2.51, 4.01, 5.18, 6.09, 6.67, 1.86, 2.66, 5.30, 6.88, 6.11,
                  2.74, 3.98, 5.01, 6.76, 7.97, 2.59, 3.88, 5.79, 7.32, 8.24],
    "intercept-fitts": [E, 3.02, 4.46, 5.49, 6.12, E, 0.386, 4.60, 6.35, 5.51,
                        0.758, 2.98, 4.26, 6.22, 7.52, E, 2.85, 5.16, 6.83, 7.80],
    "intercept-random": [1.35, 3.41, 4.73, 5.71, 6.32, E, 1.61, 4.86, 6.54, 5.73,
                         1.74, 3.37, 4.54, 6.42, 7.69, 1.49, 3.25, 5.39, 7.01, 7.96],
}


def _check_wf_matrix(c, dataset, reference):
    for est in dataset.sigma_a_catalog:
        cells = reference[est.method.value]
        for summary, expected in zip(dataset.summaries, cells):
            got = finger_width(summary.sigma_obs_mm, est.sigma_a_mm)
            label = f"{dataset.name} {est.method.value} {summary.condition}"
            if expected is E:
                c.check(f"{label} !err", math.isnan(got),
                        f"expected undefined, got {got}")
            elif math.isnan(got):
                c.check(f"{label}", False,
                        f"expected {expected}, got undefined")
            else:
                c.within(label, got, expected, 0.05)


def test_criterion_3_adjusted_width_matrices(paper_1d, paper_2d):
    c = Criterion("criterion 3: adjusted-width matrices")
    _check_wf_matrix(c, paper_1d, WF_REFERENCE_1D)
    _check_wf_matrix(c, paper_2d, WF_REFERENCE_2D)
    # spot-check the stated patterns explicitly
    ra = paper_1d.sigma_a_catalog[0]
    errs_1d = {
        (s.condition.amplitude_mm, s.condition.width_mm)
        for s in paper_1d.summaries
        if math.isnan(finger_width(s.sigma_obs_mm, ra.sigma_a_mm))
    }
    c.check("1D calib-ra error pattern", errs_1d == {(20, 2), (45, 2)},
            f"got {sorted(errs_1d)}")
    acc = paper_2d.sigma_a_catalog[1]
    errs_2d = [
        s.condition for s in paper_2d.summaries
        if math.isnan(finger_width(s.sigma_obs_mm, acc.sigma_a_mm))
    ]
    c.check("2D calib-acc has zero errors", not errs_2d, f"got {errs_2d}")
    c.finish()


# --------------------------------------------------------------------------
# criterion 4: intercept regressions
# --------------------------------------------------------------------------

def _intercept_design(dataset):
    widths = np.array([s.condition.width_mm for s in dataset.summaries])
    sigmas = np.array([s.sigma_obs_mm for s in dataset.summaries])
    return np.column_stack([np.ones_like(widths), widths**2]), sigmas


def _intercept_rounding_range(dataset):
    """Exact range of the OLS intercept over every sigma_obs in its rounding band.

    Each sigma_obs is stored at 3 significant figures.  The intercept is a
    fixed linear combination of the sigma_obs^2, so it is extreme when each
    sigma_obs sits at the band edge matching the sign of its weight.
    """
    design, sigmas = _intercept_design(dataset)
    weights = np.linalg.pinv(design)[0]
    half = np.array([0.5 * 10.0 ** (math.floor(math.log10(v)) - 2)
                     for v in sigmas])
    low_sq, high_sq = (sigmas - half) ** 2, (sigmas + half) ** 2
    lo = float(np.sum(np.where(weights > 0, weights * low_sq, weights * high_sq)))
    hi = float(np.sum(np.where(weights > 0, weights * high_sq, weights * low_sq)))
    return lo, hi


def test_criterion_4_intercept_regressions(paper_1d, paper_2d):
    c = Criterion("criterion 4: intercept regressions")
    fit_1d = sigma_from_intercept(list(paper_1d.summaries))
    design, sigmas = _intercept_design(paper_1d)
    solution, *_ = np.linalg.lstsq(design, sigmas**2, rcond=None)
    intercept, slope = map(float, solution)
    for label, got, expected in (
        ("1D intercept", fit_1d.intercept_mm2, intercept),
        ("1D slope", fit_1d.slope, slope),
        ("1D sigma_a", fit_1d.sigma_a_mm, math.sqrt(intercept)),
    ):
        c.check(f"{label} == lstsq to 1e-12 relative",
                abs(got - expected) <= 1e-12 * abs(expected),
                f"got {got!r}, lstsq {expected!r}")
    c.within("1D catalog sigma_a (intercept-fitts)",
             paper_1d.sigma_a(SigmaMethod.INTERCEPT_FITTS).sigma_a_mm, 0.977,
             math.sqrt(0.9543 + 0.03) - math.sqrt(0.9543))
    for dataset, reference, reproducible in (
        (paper_1d, 0.9543, False),
        (paper_2d, 1.7593, True),
    ):
        lo, hi = _intercept_rounding_range(dataset)
        c.check(
            f"{dataset.name} reference intercept {reference} "
            f"{'inside' if reproducible else 'outside'} its rounding range",
            (lo <= reference <= hi) == reproducible,
            f"range [{lo:.4f}, {hi:.4f}]",
        )
    fit_2d = sigma_from_intercept(list(paper_2d.summaries))
    c.within("2D intercept", fit_2d.intercept_mm2, 1.7593, 0.05)
    if fit_2d.intercept_mm2 > 0:
        c.within("2D sigma_a", fit_2d.sigma_a_mm, 1.326,
                 math.sqrt(1.7593 + 0.05) - math.sqrt(1.7593))
    c.finish()


# --------------------------------------------------------------------------
# criterion 5: information criteria
# --------------------------------------------------------------------------

# AIC / BIC gaps between each model and the baseline in the 1D reference
REFERENCE_GAPS_1D = {
    Model.M2_EFFECTIVE: (31.2, 31.2),
    Model.M3_WE_NOSQRT_C: (32.6, 33.6),
    Model.M4_WE_SQRT_C: (32.5, 33.4),
    Model.M5_W_NOSQRT_C: (1.9, 2.9),
    Model.M6_W_SQRT_C: (1.7, 2.7),
}


def test_criterion_5_information_criteria(paper_1d, paper_2d):
    c = Criterion("criterion 5: information criteria")
    fits_1d = {
        m: fit_model(list(paper_1d.summaries), m, cv=False)
        for m in (Model.M1_BASELINE, Model.M2_EFFECTIVE, Model.M3_WE_NOSQRT_C,
                  Model.M4_WE_SQRT_C, Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C)
    }
    c.within("AIC(M1, 1D)", fits_1d[Model.M1_BASELINE].aic, 156.6, 1.5)

    all_fits = list(fits_1d.values()) + [
        fit_model(list(paper_2d.summaries), m, cv=False)
        for m in (Model.M1_BASELINE, Model.M6_W_SQRT_C)
    ]
    for r in all_fits:
        gap = r.bic - r.aic
        ident = r.k * (math.log(r.n) - 2.0)
        c.check(
            f"BIC-AIC identity {r.model.value}",
            abs(gap - ident) <= 1e-9,
            f"gap {gap!r} vs k(ln n - 2) {ident!r}",
        )

    base = fits_1d[Model.M1_BASELINE]
    c.within("AIC(M2)-AIC(M1)", fits_1d[Model.M2_EFFECTIVE].aic - base.aic,
             31.2, 1.0)
    for model, (aic_gap, bic_gap) in REFERENCE_GAPS_1D.items():
        c.within(f"delta AIC {model.value}", fits_1d[model].aic - base.aic,
                 aic_gap, 0.5)
        c.within(f"delta BIC {model.value}", fits_1d[model].bic - base.bic,
                 bic_gap, 0.5)
    c.finish()


# --------------------------------------------------------------------------
# criterion 6: cross-validation
# --------------------------------------------------------------------------

def _refit_loocv_rmse(dataset, model):
    """Leave-one-condition-out RMSE by an independent per-fold refit.

    Each training fold maximizes R^2(c) over [0, smallest width - 1e-6] with
    scipy's bounded scalar search, keeps c = 0 unless the found c is strictly
    better, and fits the line with np.polyfit.
    """
    amps = np.array([s.condition.amplitude_mm for s in dataset.summaries])
    widths = np.array([s.condition.width_mm for s in dataset.summaries])
    mt = np.array([s.mt_ms for s in dataset.summaries])

    def ids(a, w, c_mm):
        if model is Model.M6_W_SQRT_C:
            return np.log2(a / np.sqrt(w * w - c_mm * c_mm) + 1.0)
        return np.log2(a / (w - c_mm) + 1.0)

    residuals = []
    for i in range(len(mt)):
        train = np.arange(len(mt)) != i
        a, w, y = amps[train], widths[train], mt[train]

        def r2(c_mm):
            return np.corrcoef(ids(a, w, c_mm), y)[0, 1] ** 2

        found = minimize_scalar(lambda c_mm: -r2(c_mm),
                                bounds=(0.0, w.min() - 1e-6),
                                method="bounded", options={"xatol": 1e-9})
        c_mm = found.x if r2(found.x) > r2(0.0) else 0.0
        slope, intercept = np.polyfit(ids(a, w, c_mm), y, 1)
        residuals.append(intercept + slope * ids(amps[i], widths[i], c_mm) - mt[i])
    return math.sqrt(np.mean(np.square(residuals)))


def test_criterion_6_cross_validation(paper_1d, paper_2d):
    c = Criterion("criterion 6: cross-validation")
    rmse_m1 = loocv_rmse(list(paper_1d.summaries), Model.M1_BASELINE)
    c.within("LOOCV RMSE(M1, 1D)", rmse_m1, 13.30, 0.5)
    summaries = list(paper_2d.summaries)
    rmse_2d = {m: loocv_rmse(summaries, m)
               for m in (Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C)}
    c.within("LOOCV RMSE(M6, 2D)", rmse_2d[Model.M6_W_SQRT_C], 11.05, 0.5)
    for model, rmse in rmse_2d.items():
        c.within(f"LOOCV RMSE({model.value}, 2D) == per-fold refit",
                 rmse, _refit_loocv_rmse(paper_2d, model), 1e-4)
        reached = [
            str(held.condition)
            for i, held in enumerate(summaries)
            if optimize_c(summaries[:i] + summaries[i + 1:], model)[0]
            >= held.condition.width_mm
        ]
        c.check(f"2D {model.value}: every fold's c below the held-out width",
                not reached, f"c reaches the width of {reached}")
    c.finish()


# --------------------------------------------------------------------------
# criterion 7: simulator-based tremor recovery
# --------------------------------------------------------------------------

def test_criterion_7_simulator_recovery():
    c = Criterion("criterion 7: endpoint-simulation tremor recovery")
    alpha, sigma_a = 0.0108, 1.153
    for seed in range(1, 21):
        config = SimulatorConfig(
            alpha=alpha,
            sigma_a_mm=sigma_a,
            widths_mm=(2.0, 4.0, 6.0, 8.0, 10.0),
            amplitudes_mm=(30.0,),
            trials_per_condition=20_000,
            seed=seed,
            mt_model=MovementTimeModel(100.0, 90.0, 0.0),
        )
        summaries = aggregate(generate(config), axis_mode=AxisMode.Y,
                              outlier_radius_mm=1e9)
        got = sigma_from_intercept(summaries).sigma_a_mm
        c.check(
            f"seed {seed}",
            abs(got - sigma_a) / sigma_a <= 0.05,
            f"recovered {got:.4f} vs {sigma_a}",
        )
    c.finish()


# --------------------------------------------------------------------------
# criterion 8: consistency identities
# --------------------------------------------------------------------------

def test_criterion_8_consistency_identities(paper_1d, paper_2d):
    c = Criterion("criterion 8: consistency identities")

    # free-c forms at c = 0 reproduce the baseline bit for bit
    for ds in (paper_1d, paper_2d):
        for s in ds.summaries:
            w = s.condition.width_mm
            base = compute_id(Model.M1_BASELINE, s.condition.amplitude_mm, w)
            for model in (Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C):
                c.check(
                    f"{ds.name} {s.condition} {model.value} c=0 id",
                    compute_id(model, s.condition.amplitude_mm, w, 0.0) == base,
                )
        ids = [
            (compute_id(Model.M1_BASELINE, s.condition.amplitude_mm, s.condition.width_mm),
             s.mt_ms)
            for s in ds.summaries
        ]
        ref = ols_fit(ids)
        c.check(f"{ds.name} c=0 fit bit-for-bit", ols_fit(ids) == ref)

    # tremor-adjusted width with zero tremor equals the effective width
    rng = np.random.Generator(np.random.PCG64(8))
    worst = 0.0
    for sigma in rng.uniform(0.05, 5.0, 100):
        wf = finger_width(float(sigma), 0.0)
        we = effective_width(float(sigma))
        worst = max(worst, abs(wf - we) / we)
    c.check("W_f(sigma_a=0) == W_e to 1e-12 relative", worst <= 1e-12,
            f"worst relative gap {worst:.3g}")

    # optimizing c never lowers R^2 relative to the fixed counterpart
    pairs = [
        (Model.M5_W_NOSQRT_C, Model.M1_BASELINE),
        (Model.M6_W_SQRT_C, Model.M1_BASELINE),
        (Model.M3_WE_NOSQRT_C, Model.M2_EFFECTIVE),
        (Model.M4_WE_SQRT_C, Model.M2_EFFECTIVE),
    ]
    datasets = [list(paper_1d.summaries), list(paper_2d.summaries)]
    datasets += [random_summaries(seed) for seed in range(50)]
    violations = 0
    for summaries in datasets:
        for free, fixed in pairs:
            r_free = fit_model(summaries, free, cv=False)
            r_fixed = fit_model(summaries, fixed, cv=False)
            if r_free.r2 < r_fixed.r2 - 1e-12:
                violations += 1
    c.check("optimization never decreases R2 (52 datasets x 4 pairs)",
            violations == 0, f"{violations} violations")
    c.finish()


# --------------------------------------------------------------------------
# criterion 9: normality-test calibration
# --------------------------------------------------------------------------

def test_criterion_9_normality_calibration():
    c = Criterion("criterion 9: normality-test calibration")
    rng = np.random.Generator(np.random.PCG64(12345))
    reps, n = 2000, 45
    rejections = sum(
        not normality_check(rng.normal(0.0, 1.0, n), alpha=0.05).passed
        for _ in range(reps)
    )
    rate = rejections / reps
    c.within("rejection rate at alpha=0.05 (normal data)", rate, 0.05, 0.02)
    c.finish()
