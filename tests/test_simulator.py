import math

import numpy as np
import pytest

from ffitts import (
    AxisMode,
    Dimensionality,
    MovementTimeModel,
    SimulatorConfig,
    ValidationError,
    aggregate,
    generate,
    sigma_from_intercept,
    fit_model,
    Model,
)
from ffitts import simulator
from ffitts.cli import simulate as simulate_command
from ffitts.datamodel import TAP_COLUMNS


def config(**overrides):
    base = dict(
        alpha=0.01,
        sigma_a_mm=1.0,
        widths_mm=(2.0, 4.0, 6.0, 8.0, 10.0),
        amplitudes_mm=(30.0,),
        trials_per_condition=100,
        seed=7,
    )
    base.update(overrides)
    return SimulatorConfig(**base)


class TestDeterminism:
    def test_fixed_seed_reproduces_trials(self):
        a = generate(config())
        b = generate(config())
        for name in TAP_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self):
        a = generate(config(seed=1))
        b = generate(config(seed=2))
        assert not all(np.array_equal(getattr(a, name), getattr(b, name))
                       for name in TAP_COLUMNS)

    def test_canonical_order(self):
        records = generate(config(amplitudes_mm=(60.0, 20.0), widths_mm=(8.0, 2.0)))
        keys = [
            (r.condition.amplitude_mm, r.condition.width_mm, r.trial)
            for r in records
        ]
        assert keys == sorted(keys)


class TestDistributions:
    def test_zero_alpha_spread_independent_of_width(self):
        records = generate(config(alpha=0.0, sigma_a_mm=1.2,
                                  trials_per_condition=10_000))
        summaries = aggregate(records, axis_mode=AxisMode.Y,
                              outlier_radius_mm=1e9)
        for s in summaries:
            assert s.sigma_obs_mm == pytest.approx(1.2, rel=0.03)

    def test_zero_tremor_spread_proportional_to_width(self):
        records = generate(config(alpha=0.0108, sigma_a_mm=0.0,
                                  trials_per_condition=10_000))
        summaries = aggregate(records, axis_mode=AxisMode.Y,
                              outlier_radius_mm=1e9)
        for s in summaries:
            expect = math.sqrt(0.0108) * s.condition.width_mm
            assert s.sigma_obs_mm == pytest.approx(expect, rel=0.03)

    def test_variance_law(self):
        records = generate(config(alpha=0.02, sigma_a_mm=0.9,
                                  trials_per_condition=20_000))
        summaries = aggregate(records, axis_mode=AxisMode.Y,
                              outlier_radius_mm=1e9)
        for s in summaries:
            expect = 0.02 * s.condition.width_mm**2 + 0.9**2
            assert s.sigma_obs_mm**2 == pytest.approx(expect, rel=0.05)

    def test_intercept_method_recovers_tremor(self):
        records = generate(config(alpha=0.0108, sigma_a_mm=1.153,
                                  trials_per_condition=20_000, seed=3))
        summaries = aggregate(records, axis_mode=AxisMode.Y,
                              outlier_radius_mm=1e9)
        fit = sigma_from_intercept(summaries)
        assert fit.sigma_a_mm == pytest.approx(1.153, rel=0.05)

    def test_tremor_draws_scale_with_sigma_a(self):
        # with alpha 0 a deviation is one standard normal draw times sigma_a
        # (a sigma_a of 1.0 draws like any other)
        one = generate(config(alpha=0.0, sigma_a_mm=1.0)).touch_y_mm
        two = generate(config(alpha=0.0, sigma_a_mm=2.0)).touch_y_mm
        assert np.count_nonzero(one) == len(one)
        assert (one * 2.0).tobytes() == two.tobytes()

    @pytest.mark.parametrize("dim", list(Dimensionality))
    def test_zero_tremor_spread_keeps_the_draw_order(self, dim):
        # a zero spread draws its uniforms like any other, so the movement
        # times, drawn after the deviations, do not move
        zero = generate(config(sigma_a_mm=0.0, dimensionality=dim))
        some = generate(config(sigma_a_mm=1.3, dimensionality=dim))
        assert zero.mt_ms.tobytes() == some.mt_ms.tobytes()

    @pytest.mark.parametrize("dim", list(Dimensionality))
    def test_no_spread_gives_positive_zeros(self, dim):
        # half the scaled quantiles are -0.0; the deviations are +0.0, as the
        # log prints them ("0.0", never "-0.0")
        taps = generate(config(alpha=0.0, sigma_a_mm=0.0, dimensionality=dim))
        for column in (taps.touch_x_mm, taps.touch_y_mm):
            assert not column.any() and not np.signbit(column).any()

    def test_a_uniform_of_zero_gives_a_finite_draw(self):
        class ZeroUniforms:
            def random(self, n):
                return np.zeros(n)

        assert np.isfinite(simulator._normals(ZeroUniforms(), 3, 1.0)).all()

    def test_two_d_mode_spreads_both_axes(self):
        records = generate(config(dimensionality=Dimensionality.TWO_D,
                                  trials_per_condition=500))
        xs = {r.touch_x_mm for r in records}
        assert len(xs) > 1
        one_d = generate(config(trials_per_condition=500))
        assert all(r.touch_x_mm == 0.0 for r in one_d)


class TestMovementTimes:
    def test_noiseless_times_follow_line(self):
        records = generate(config(trials_per_condition=10,
                                  mt_model=MovementTimeModel(120.0, 80.0, 0.0)))
        for r in records:
            expect = 120.0 + 80.0 * math.log2(
                r.condition.amplitude_mm / r.condition.width_mm + 1.0
            )
            assert r.mt_ms == pytest.approx(expect, rel=1e-12)

    def test_times_clamped_at_zero(self):
        mt = generate(config(mt_model=MovementTimeModel(0.0, 0.0, 5.0))).mt_ms
        assert mt.min() == 0.0 and 0 < np.count_nonzero(mt) < len(mt)

    def test_end_to_end_baseline_recovery(self):
        cfg = config(
            alpha=0.005,
            sigma_a_mm=0.8,
            amplitudes_mm=(20.0, 30.0, 45.0, 60.0),
            trials_per_condition=16,
            mt_model=MovementTimeModel(100.0, 90.0, 5.0),
            seed=41,
        )
        summaries = aggregate(generate(cfg), axis_mode=AxisMode.Y)
        result = fit_model(summaries, Model.M1_BASELINE, cv=False)
        assert result.r2 > 0.99
        assert result.b_ms_per_bit == pytest.approx(90.0, abs=5.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha=-0.1),
            dict(sigma_a_mm=-1.0),
            dict(trials_per_condition=1),
            dict(widths_mm=()),
            dict(widths_mm=(0.0, 2.0)),
            dict(amplitudes_mm=(-5.0,)),
            dict(seed=-1),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValidationError):
            config(**bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: dict(alpha=v),
            lambda v: dict(sigma_a_mm=v),
            lambda v: dict(widths_mm=(2.0, v)),
            lambda v: dict(amplitudes_mm=(v,)),
            lambda v: dict(mt_model=MovementTimeModel(a_ms=v)),
            lambda v: dict(mt_model=MovementTimeModel(b_ms_per_bit=v)),
            lambda v: dict(mt_model=MovementTimeModel(noise_sd_ms=v)),
        ],
        ids=["alpha", "sigma_a_mm", "widths_mm", "amplitudes_mm",
             "mt_a_ms", "mt_b_ms_per_bit", "mt_noise_sd_ms"],
    )
    def test_non_finite_configs_rejected(self, make, bad):
        with pytest.raises(ValidationError, match="finite"):
            config(**make(bad))

    @pytest.mark.parametrize("bad, message", [
        (dict(widths_mm=(2.0, 0.0)), "row 1: widths_mm must be finite and > 0, got 0.0"),
        (dict(widths_mm=(-0.0,)), "row 0: widths_mm must be finite and > 0, got -0.0"),
        (dict(amplitudes_mm=(30.0, math.inf)),
         "row 1: amplitudes_mm must be finite and > 0, got inf"),
        (dict(amplitudes_mm=(math.nan,)),
         "row 0: amplitudes_mm must be finite and > 0, got nan"),
        (dict(widths_mm=()), "widths_mm must be nonempty"),
        (dict(amplitudes_mm=()), "amplitudes_mm must be nonempty"),
        (dict(trials_per_condition=1), "need >= 2 trials per condition"),
        (dict(widths_mm=(2.0, 4.0, 2)), "row 2: widths_mm must not repeat a value, got 2.0"),
        (dict(amplitudes_mm=(np.float32(30.0), 30.0)),
         "row 1: amplitudes_mm must not repeat a value, got 30.0"),
    ])
    def test_message_names_the_bad_value(self, bad, message):
        with pytest.raises(ValidationError) as exc:
            config(**bad)
        assert str(exc.value) == message

    def test_two_trials_per_condition_accepted(self):
        assert len(generate(config(trials_per_condition=2))) == 2 * 5

    def test_time_law_message_names_the_bad_value(self):
        with pytest.raises(ValidationError) as exc:
            MovementTimeModel(a_ms=math.nan)
        assert str(exc.value) == "a_ms must be finite, got nan"

    def test_defaults_match_the_cli_defaults(self):
        cli = {p.name: p.default for p in simulate_command.params}
        assert MovementTimeModel() == MovementTimeModel(
            cli["mt_a"], cli["mt_b"], cli["mt_noise"])
        config = SimulatorConfig(0.01, 1.0, (2.0,), (30.0,), 10)
        assert (config.seed, config.dimensionality.value) == (cli["seed"], cli["dim"])

    def test_numpy_widths_overflow_without_a_warning(self):
        # stored as Python floats, sqrt(alpha) * W overflows to a silent inf,
        # which the tap table then rejects, as for the CLI's float widths
        cfg = config(alpha=1e308, widths_mm=(np.float64(1e300),), amplitudes_mm=(20.0,),
                     trials_per_condition=3)
        assert all(type(v) is float for v in cfg.widths_mm + cfg.amplitudes_mm)
        with pytest.raises(ValidationError, match="row 0: touch_y_mm must be finite, got inf"):
            generate(cfg)

    def test_negative_noise_sd_rejected(self):
        # a negative SD would silently flip the sign of the noise draws
        with pytest.raises(ValidationError, match="noise_sd_ms"):
            MovementTimeModel(noise_sd_ms=-1.0)
