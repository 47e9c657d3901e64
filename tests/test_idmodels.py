import math
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from ffitts import (
    Condition,
    Model,
    Tremor,
    ValidationError,
    WidthKind,
    compute_id,
    effective_width,
    embedded,
    finger_width,
    model_widths,
)
from ffitts.fitting import _C_REL
from ffitts.idmodels import SQRT_2PI_E, id_and_slope

COND = Condition(20.0, 2.0)


class TestEffectiveWidth:
    def test_unit_spread(self):
        w = effective_width(1.0)
        assert w == pytest.approx(4.132731354122493, rel=1e-12)

    @pytest.mark.parametrize(
        "sigma,expected",
        [(0.69, 2.85158463434452), (2.31, 9.54660942802296)],
    )
    def test_closed_form_values(self, sigma, expected):
        assert effective_width(sigma) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError, match="sigma_obs must be finite and > 0, got 0.0"):
            effective_width(0.0)


class TestFingerWidth:
    def test_reference_cell(self):
        # adjusted width for sigma_obs=1.29 under the 1D rapid-accurate
        # calibration spread; published cell prints 3.87
        w = finger_width(1.29, 0.8837)
        assert w == pytest.approx(3.883831582263349, rel=1e-12)
        assert abs(w - 3.87) < 0.05

    def test_undefined_when_spread_too_small(self):
        assert math.isnan(finger_width(0.69, 0.8837))

    def test_equal_spreads_are_undefined(self):
        assert math.isnan(finger_width(1.0, 1.0))

    @pytest.mark.parametrize("sigma_obs,sigma_a,root", [
        (1e200, 1.0, 1e200), (2e200, 1e200, math.sqrt(3.0) * 1e200),
        (1e200, 1e200, math.nan), (1e200, 2e200, math.nan), (1.0, 1e200, math.nan),
    ])
    def test_spread_whose_square_overflows(self, sigma_obs, sigma_a, root):
        # sqrt(sigma_obs - sigma_a) * sqrt(sigma_obs + sigma_a), with no warning
        w = finger_width(sigma_obs, sigma_a)
        if math.isnan(root):
            assert math.isnan(w)
        else:
            assert w == pytest.approx(SQRT_2PI_E * root, rel=1e-15)

    def test_zero_tremor_degenerates_to_effective_width(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for sigma in rng.uniform(0.05, 5.0, 100):
            wf = finger_width(float(sigma), 0.0)
            we = effective_width(float(sigma))
            assert abs(wf - we) <= 1e-12 * we

    def test_error_pattern_1d_rapid_accurate(self, paper_1d):
        sigma_a = paper_1d.sigma_a_catalog[0].sigma_a_mm  # rapid-accurate
        errors = {
            (s.condition.amplitude_mm, s.condition.width_mm)
            for s in paper_1d.summaries
            if math.isnan(finger_width(s.sigma_obs_mm, sigma_a))
        }
        assert errors == {(20, 2), (45, 2)}


class TestComputeId:
    def test_baseline_closed_form(self):
        got = compute_id(Model.M1_BASELINE, COND.amplitude_mm, COND.width_mm)
        assert got == pytest.approx(math.log2(11.0), rel=1e-12)

    def test_c_zero_matches_baseline_bit_for_bit(self, paper_1d):
        for s in paper_1d.summaries:
            a, w = s.condition.amplitude_mm, s.condition.width_mm
            base = compute_id(Model.M1_BASELINE, a, w)
            for model in (Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C):
                assert compute_id(model, a, w, 0.0) == base

    def test_sqrt_form_reference_value(self):
        # log2(20 / sqrt(4 - 0.5806^2) + 1), frozen from high-precision
        # evaluation of the closed form
        got = compute_id(Model.M6_W_SQRT_C, COND.amplitude_mm, 2.0, 0.5806)
        assert got == pytest.approx(3.5172785985919024, rel=1e-12)

    def test_domain_violation_is_nan(self):
        assert math.isnan(compute_id(Model.M5_W_NOSQRT_C, COND.amplitude_mm, 2.0, 2.5))
        assert math.isnan(compute_id(Model.M6_W_SQRT_C, COND.amplitude_mm, 2.0, 2.0))

    def test_unit_bit_when_amplitude_equals_width(self):
        for model in Model:
            assert compute_id(model, 7.5, 7.5, 0.0) == 1.0

    def test_monotonic_in_width_and_amplitude(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(200):
            a = float(rng.uniform(5, 100))
            w1, w2 = sorted(rng.uniform(0.5, 12, 2))
            if w1 == w2:
                continue
            id_narrow = compute_id(Model.M1_BASELINE, a, w1)
            id_wide = compute_id(Model.M1_BASELINE, a, w2)
            assert id_narrow > id_wide
            a_hi = a * 1.5
            assert compute_id(Model.M1_BASELINE, a_hi, w1) > id_narrow

    def test_sqrt_form_ids_below_subtractive_form(self):
        # sqrt(w^2 - c^2) > w - c for 0 < c < w, so the sqrt-form ID is lower
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(200):
            w = float(rng.uniform(1.0, 10.0))
            c = float(rng.uniform(1e-6, w * 0.999))
            a = float(rng.uniform(10, 80))
            id_nosqrt = compute_id(Model.M5_W_NOSQRT_C, a, w, c)
            id_sqrt = compute_id(Model.M6_W_SQRT_C, a, w, c)
            assert id_sqrt < id_nosqrt


class TestModelProperties:
    def test_parse_round_trip(self):
        for model in Model:
            assert Model.parse(model.value) is model
        with pytest.raises(ValueError):
            Model.parse("m9")

    def test_tremor_classification(self):
        assert Model.M1_BASELINE.tremor is Tremor.NONE
        assert Model.M5_W_NOSQRT_C.tremor is Tremor.FREE_C
        assert Model.M7_GIVEN_SIGMA_A.tremor is Tremor.GIVEN_SIGMA_A

    def test_model_widths_requires_sigma_for_adjusted(self, paper_2d):
        with pytest.raises(ValidationError, match="^m7 requires a sigma_a value$"):
            model_widths(Model.M7_GIVEN_SIGMA_A, list(paper_2d.summaries))

    def test_model_widths_nan_where_undefined(self, paper_1d):
        sigma_a = paper_1d.sigma_a_catalog[0].sigma_a_mm  # rapid-accurate
        summaries = list(paper_1d.summaries)
        widths = model_widths(Model.M7_GIVEN_SIGMA_A, summaries, sigma_a_mm=sigma_a)
        nominal = model_widths(Model.M1_BASELINE, summaries)
        assert widths.shape == nominal.shape == (20,)
        assert nominal.tolist() == [s.condition.width_mm for s in summaries]
        undefined = {
            (s.condition.amplitude_mm, s.condition.width_mm)
            for s, w in zip(summaries, widths) if math.isnan(w)
        }
        assert undefined == {(20, 2), (45, 2)}


_PROPERTY = settings(max_examples=100)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
# zero, or a magnitude where A / term cannot overflow
_SIGNED = st.one_of(st.just(0.0), _POSITIVE, _POSITIVE.map(lambda x: -x))
_C_FORMS = [Model.M3_WE_NOSQRT_C, Model.M4_WE_SQRT_C, Model.M5_W_NOSQRT_C,
            Model.M6_W_SQRT_C]


class TestKernelProperties:
    @_PROPERTY
    @given(a=_POSITIVE, w=_POSITIVE)
    def test_c_forms_at_zero_equal_fixed_forms(self, a, w):
        for model in _C_FORMS:
            fixed = (Model.M2_EFFECTIVE if model.width_kind is WidthKind.EFFECTIVE
                     else Model.M1_BASELINE)
            assert compute_id(model, a, w, 0.0) == compute_id(fixed, a, w)

    @_PROPERTY
    @given(a=_POSITIVE, w=_SIGNED, c=_SIGNED)
    def test_domain_violations_are_nan(self, a, w, c):
        for model in Model:
            got = compute_id(model, a, w, c)
            if model.tremor is not Tremor.FREE_C:
                term = w
            elif model.uses_sqrt:
                term = w * w - c * c
            else:
                term = w - c
            if w <= 0 or c < 0 or term <= 0:
                assert math.isnan(got), (model, w, c, got)
            else:
                assert math.isfinite(got)

    @_PROPERTY
    @given(
        widths=st.lists(_POSITIVE, min_size=1, max_size=6),
        cs=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
        a=_POSITIVE,
    )
    def test_broadcast_equals_elementwise(self, widths, cs, a):
        # the kernel too: the root finding evaluates a (rows, n) width table
        # against a (rows, 1) column of c
        w_col = np.array(widths)[:, None]
        for model in (Model.M5_W_NOSQRT_C, Model.M6_W_SQRT_C):
            table = compute_id(model, a, w_col, np.array(cs))
            ids, slopes = id_and_slope(model, a, np.tile(widths, (len(cs), 1)),
                                       np.array(cs)[:, None])
            assert table.shape == ids.T.shape == slopes.T.shape == (len(widths), len(cs))
            for i, w in enumerate(widths):
                for j, c in enumerate(cs):
                    want = (compute_id(model, a, w, c), *id_and_slope(model, a, w, c))
                    got = (float(table[i, j]), float(ids[j, i]), float(slopes[j, i]))
                    assert [g.hex() for g in got] == [v.hex() for v in want]

    @_PROPERTY
    @given(w=_POSITIVE, ratio=st.floats(1e-3, 1e3), u=st.floats(0.01, 1.0, exclude_max=True))
    def test_slope_is_the_derivative_of_the_difficulty(self, w, ratio, u):
        # c = u * c_max, and the slope is in v = c for W - c and v = c^2 for
        # sqrt(W^2 - c^2); a five-point central difference in v with steps
        # of 1% of v's distance to 0 or to its value at c = W, whichever is
        # nearer, is accurate to 3e-7 here
        a, c = w * ratio, u * (w - w * _C_REL)
        for model in _C_FORMS:
            power = 2 if model.uses_sqrt else 1
            v = c**power
            h = 0.01 * min(v, w**power - v)
            d = [compute_id(model, a, w, (v + k * h) ** (1 / power)) for k in (-2, -1, 1, 2)]
            central = (d[0] - 8 * d[1] + 8 * d[2] - d[3]) / (12 * h)
            assert id_and_slope(model, a, w, c)[1] == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("model", [m for m in _C_FORMS if m.uses_sqrt])
    def test_square_root_slope_is_not_0_at_c_0(self, model):
        # d id/dc is 0 there, and a root finder would take c = 0 for a root
        assert id_and_slope(model, 20.0, 2.0, 0.0)[1] == pytest.approx(
            20.0 / (2 * 2.0**2 * 22.0 * math.log(2.0)), rel=1e-15)

    @_PROPERTY
    @given(a=_POSITIVE, w=_SIGNED, c=_SIGNED)
    def test_slope_nan_exactly_where_the_difficulty_is(self, a, w, c):
        # and the kernel's difficulty is compute_id's, bit for bit
        for model in _C_FORMS:
            difficulty, slope = id_and_slope(model, a, w, c)
            want = compute_id(model, a, w, c)
            assert difficulty.hex() == want.hex()
            assert math.isnan(slope) == math.isnan(want)

    @_PROPERTY
    @given(sigma=_POSITIVE)
    def test_zero_tremor_finger_width_is_effective_width(self, sigma):
        assert finger_width(sigma, 0.0) == effective_width(sigma)


# NaN, the infinities and a value off each spread's bound
_BAD_SIGMA_OBS = st.sampled_from([math.nan, math.inf]) | st.floats(max_value=0.0)
_BAD_SIGMA_A = (st.sampled_from([math.nan, math.inf])
                | st.floats(max_value=0.0, exclude_max=True))


def _summary(sigma_obs):
    """A summary-like record that skips ConditionSummary's own checks."""
    return SimpleNamespace(condition=COND, sigma_obs_mm=sigma_obs)


class TestSpreadRules:
    """An out-of-domain spread is bad input, never a NaN width."""

    @_PROPERTY
    @given(bad=_BAD_SIGMA_OBS)
    def test_bad_sigma_obs_rejected(self, bad):
        for call in (lambda: effective_width(bad), lambda: finger_width(bad, 0.5),
                     lambda: model_widths(Model.M2_EFFECTIVE, [_summary(bad)]),
                     lambda: model_widths(Model.M7_GIVEN_SIGMA_A, [_summary(bad)], 0.5)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert exc.value.reason == f"sigma_obs must be finite and > 0, got {bad}"

    @_PROPERTY
    @given(bad=_BAD_SIGMA_A)
    def test_bad_sigma_a_rejected_for_every_model(self, bad):
        summaries = list(embedded("paper-2d").summaries)
        calls = [lambda: finger_width(1.0, bad), lambda: finger_width([1.0, 2.0], bad)]
        calls += [lambda m=m: model_widths(m, summaries, bad) for m in Model]
        for call in calls:
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == f"sigma_a must be finite and >= 0, got {bad}"

    def test_array_names_its_first_bad_element(self):
        for call in (lambda: effective_width([1.0, 0.0, math.nan]),
                     lambda: finger_width([1.0, math.nan, -1.0], 0.5)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert exc.value.row == 1
