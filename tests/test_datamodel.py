import math
import random

import numpy as np
import pytest

from ffitts import (
    AxisMode,
    Condition,
    ConditionSummary,
    Dataset,
    DegenerateConditionError,
    Dimensionality,
    MovementTimeModel,
    SigmaEstimate,
    SigmaMethod,
    SimulatorConfig,
    TrialRecord,
    ValidationError,
    aggregate,
    generate,
)


def make_trial(cond, dx=0.5, dy=0.5, mt=300.0, tap_index=1, trial=1,
               participant="p1", practice=False):
    return TrialRecord(
        participant_id=participant,
        condition=cond,
        target_x_mm=0.0,
        target_y_mm=0.0,
        touch_x_mm=dx,
        touch_y_mm=dy,
        mt_ms=mt,
        tap_index=tap_index,
        is_practice=practice,
        trial=trial,
    )


COND = Condition(20.0, 4.0)


class TestTypes:
    def test_condition_requires_positive_fields(self):
        with pytest.raises(ValidationError):
            Condition(0.0, 4.0)
        with pytest.raises(ValidationError):
            Condition(20.0, -1.0)

    def test_trial_invariants(self):
        with pytest.raises(ValidationError):
            make_trial(COND, mt=-1.0)
        with pytest.raises(ValidationError):
            make_trial(COND, tap_index=0)

    def test_summary_invariants(self):
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=300, sigma_obs_mm=0.0)
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0, n_trials=1)
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0, error_rate=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            Condition(bad, 4.0)
        with pytest.raises(ValidationError):
            Condition(20.0, bad)
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=bad, sigma_obs_mm=1.0)
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=300, sigma_obs_mm=bad)
        with pytest.raises(ValidationError):
            ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0, error_rate=bad)
        with pytest.raises(ValidationError):
            SigmaEstimate(bad, SigmaMethod.USER_GIVEN)

    def test_dataset_rejects_duplicate_conditions(self):
        s = ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0)
        with pytest.raises(ValidationError):
            Dataset("d", Dimensionality.ONE_D, (s, s))


class TestAggregate:
    def test_zero_variance_is_degenerate(self):
        trials = [make_trial(COND, dx=0.0, dy=0.0, trial=i) for i in range(5)]
        with pytest.raises(DegenerateConditionError):
            aggregate(trials)

    def test_outlier_beyond_radius_removed(self):
        trials = [
            make_trial(COND, dy=(-1.0) ** i * (0.5 + 0.01 * i), trial=i)
            for i in range(19)
        ]
        trials.append(make_trial(COND, dx=0.0, dy=16.0, trial=99))
        (summary,) = aggregate(trials, outlier_radius_mm=15.0)
        assert summary.n_trials == 19

    def test_mean_mt_matches_arithmetic_mean(self):
        mts = [250.0, 300.0, 350.0, 410.0]
        trials = [
            make_trial(COND, dy=0.1 * (i + 1) * (-1.0) ** i, mt=mt, trial=i)
            for i, mt in enumerate(mts)
        ]
        (summary,) = aggregate(trials)
        assert summary.mt_ms == pytest.approx(np.mean(mts), rel=1e-12)

    def test_error_rate_zero_without_retaps(self):
        trials = [
            make_trial(COND, dy=0.2 * (i - 2), trial=i) for i in range(5)
        ]
        (summary,) = aggregate(trials)
        assert summary.error_rate == 0.0

    def test_error_rate_counts_retapped_trials(self):
        trials = []
        for i in range(10):
            trials.append(make_trial(COND, dy=0.2 * (i - 4.5), trial=i))
        # two trials needed a second tap
        trials.append(make_trial(COND, dy=0.1, tap_index=2, trial=0))
        trials.append(make_trial(COND, dy=-0.1, tap_index=2, trial=3))
        (summary,) = aggregate(trials)
        assert summary.n_trials == 10
        assert summary.error_rate == pytest.approx(0.2)

    def test_practice_trials_excluded(self):
        trials = [make_trial(COND, dy=0.2 * (i - 2), trial=i) for i in range(5)]
        trials.append(make_trial(COND, dy=9.0, trial=50, practice=True))
        (summary,) = aggregate(trials)
        assert summary.n_trials == 5

    def test_fewer_than_two_trials_is_degenerate(self):
        with pytest.raises(DegenerateConditionError) as exc:
            aggregate([make_trial(COND, trial=1)])
        assert "A=20" in str(exc.value)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        conds = [Condition(20, 4), Condition(30, 6)]
        trials = []
        for ci, cond in enumerate(conds):
            for i in range(30):
                trials.append(
                    make_trial(
                        cond,
                        dx=rng.normal(0, 1),
                        dy=rng.normal(0, 1),
                        mt=float(rng.uniform(250, 500)),
                        trial=i,
                        participant=f"p{ci}",
                    )
                )
        base = aggregate(trials)
        shuffled = trials[:]
        random.Random(9).shuffle(shuffled)
        assert aggregate(shuffled) == base

    def test_axis_modes(self):
        rng = np.random.default_rng(11)
        dx = rng.normal(0, 2.0, 40)
        dy = rng.normal(0, 0.5, 40)
        trials = [
            make_trial(COND, dx=float(x), dy=float(y), trial=i)
            for i, (x, y) in enumerate(zip(dx, dy))
        ]
        sx = aggregate(trials, axis_mode=AxisMode.X)[0].sigma_obs_mm
        sy = aggregate(trials, axis_mode=AxisMode.Y)[0].sigma_obs_mm
        sb = aggregate(trials, axis_mode=AxisMode.BIVARIATE)[0].sigma_obs_mm
        assert sx == pytest.approx(np.std(dx, ddof=1))
        assert sy == pytest.approx(np.std(dy, ddof=1))
        assert sb == pytest.approx(
            np.sqrt((np.var(dx, ddof=1) + np.var(dy, ddof=1)) / 2.0)
        )

    def test_recovers_generator_sd(self):
        # deviations drawn with known per-axis SD 1.5; sample SD must agree
        config = SimulatorConfig(
            alpha=0.0,
            sigma_a_mm=1.5,
            widths_mm=(4.0,),
            amplitudes_mm=(20.0,),
            trials_per_condition=10_000,
            seed=13,
            mt_model=MovementTimeModel(300.0, 0.0, 0.0),
        )
        (summary,) = aggregate(generate(config), axis_mode=AxisMode.Y)
        assert abs(summary.sigma_obs_mm - 1.5) < 0.05

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])
