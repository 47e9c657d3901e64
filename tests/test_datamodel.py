import math
import random
import statistics
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffitts import (
    AxisMode,
    CalibrationMode,
    Condition,
    ConditionSummary,
    Dataset,
    DegenerateConditionError,
    Dimensionality,
    FirstTaps,
    MovementTimeModel,
    SigmaEstimate,
    SigmaMethod,
    SimulatorConfig,
    TapTable,
    TrialRecord,
    ValidationError,
    aggregate,
    first_taps,
    generate,
    sigma_from_calibration,
)
from ffitts.datamodel import TAP_COLUMNS, _keys, endpoint_spread, summarize


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
# the TrialRecord attribute that holds each tap column, where the names differ
_ATTRS = {"participant": "participant_id", "amplitude_mm": "condition.amplitude_mm",
          "width_mm": "condition.width_mm"}


def table(records):
    """The TapTable of a list of TrialRecords, built from its columns."""
    return TapTable(**{name: list(map(attrgetter(_ATTRS.get(name, name)), records))
                       for name in TAP_COLUMNS})


class TestTypes:
    def test_condition_requires_positive_fields(self):
        with pytest.raises(ValidationError):
            Condition(0.0, 4.0)
        with pytest.raises(ValidationError):
            Condition(20.0, -1.0)

    @pytest.mark.parametrize("value,text", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"),
        (-1.0, "-1.0"), (0, "0"), (-1, "-1"), (np.float64(-1), "-1.0"),
        (np.float32(-1), "-1.0"), (np.int64(0), "0"),
    ])
    @pytest.mark.parametrize("make,name", [
        (lambda v: Condition(v, 4.0), "amplitude"),
        (lambda v: Condition(20.0, v), "width"),
        (lambda v: ConditionSummary(COND, v, 1.0), "mean MT"),
        (lambda v: ConditionSummary(COND, 300.0, v), "endpoint spread"),
        (lambda v: SigmaEstimate(v, SigmaMethod.USER_GIVEN), "sigma_a"),
    ])
    def test_number_rule_message(self, make, name, value, text):
        # a Python or numpy int or float, as a 0-d array: each worded as the
        # Python number it holds
        with pytest.raises(ValidationError) as exc:
            make(value)
        assert (str(exc.value), exc.value.row) == (f"{name} must be finite and > 0, got {text}",
                                                   None)

    @pytest.mark.parametrize("value,text", [(math.nan, "nan"), (-math.inf, "-inf"),
                                            (np.float32("inf"), "inf")])
    def test_time_law_numbers_must_be_finite(self, value, text):
        for field in ("a_ms", "b_ms_per_bit"):
            with pytest.raises(ValidationError) as exc:
                MovementTimeModel(**{field: value})
            assert str(exc.value) == f"{field} must be finite, got {text}"
            MovementTimeModel(**{field: -1.0})  # finite is enough
            MovementTimeModel(**{field: 0})

    def test_trial_invariants(self):
        with pytest.raises(ValidationError, match="mt_ms must be finite and >= 0"):
            table([make_trial(COND, mt=-1.0)])
        with pytest.raises(ValidationError, match="tap_index must be >= 1"):
            table([make_trial(COND, tap_index=0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["target_x_mm", "target_y_mm", "touch_x_mm", "touch_y_mm", "mt_ms"]
    )
    def test_trial_rejects_non_finite(self, field, bad):
        values = dict(participant_id="p1", condition=COND, target_x_mm=0.0,
                      target_y_mm=0.0, touch_x_mm=0.5, touch_y_mm=0.5, mt_ms=300.0)
        values[field] = bad
        with pytest.raises(ValidationError, match="finite") as exc:
            table([make_trial(COND), TrialRecord(**values)])
        assert exc.value.row == 1

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

    def test_defaults(self):
        record = TrialRecord("p1", COND, 0.0, 0.0, 0.5, 0.5, 300.0)
        assert (record.tap_index, record.is_practice, record.block, record.trial) == (
            1, False, 0, 0)
        summary = ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0)
        assert (summary.n_trials, summary.error_rate) == (2, 0.0)

    def test_summary_limits_accepted(self):
        summary = ConditionSummary(COND, mt_ms=0.5, sigma_obs_mm=0.5, n_trials=2,
                                   error_rate=1.0)
        assert (summary.mt_ms, summary.sigma_obs_mm, summary.error_rate) == (0.5, 0.5, 1.0)

    def test_catalog_lookup_by_method(self):
        s = ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0)
        fitts = SigmaEstimate(1.2, SigmaMethod.INTERCEPT_FITTS)
        calib = SigmaEstimate(0.9, SigmaMethod.CALIB_ACCURACY_ONLY)
        ds = Dataset("d", Dimensionality.ONE_D, (s,), (fitts, calib))
        assert ds.sigma_a(SigmaMethod.CALIB_ACCURACY_ONLY) is calib
        with pytest.raises(KeyError):
            ds.sigma_a(SigmaMethod.USER_GIVEN)

    def test_dataset_needs_a_condition(self):
        with pytest.raises(ValidationError, match="at least one condition"):
            Dataset("d", Dimensionality.ONE_D, ())

    def test_dataset_rejects_duplicate_conditions(self):
        s = ConditionSummary(COND, mt_ms=300, sigma_obs_mm=1.0)
        with pytest.raises(ValidationError):
            Dataset("d", Dimensionality.ONE_D, (s, s))


class TestTapTable:
    def test_first_bad_row_named_across_rules(self):
        rows = [make_trial(COND), make_trial(COND, tap_index=0), make_trial(COND, mt=-1.0)]
        with pytest.raises(ValidationError) as exc:
            table(rows)
        assert exc.value.row == 1
        assert str(exc.value) == "row 1: tap_index must be >= 1, got 0"

    @pytest.mark.parametrize("pid", ["#p1", " p2 ", "p2 ", "\tp", "p\r5", "p\n6"])
    def test_participant_id_that_csv_would_not_keep_rejected(self, pid):
        with pytest.raises(ValidationError) as exc:
            table([make_trial(COND), make_trial(COND, participant=pid)])
        assert str(exc.value) == (
            "row 1: participant ID must not start with '#', have surrounding "
            f"whitespace or contain a line break, got {pid!r}")

    def test_participant_id_with_inner_comma_or_space_kept(self):
        taps = table([make_trial(COND, participant=p) for p in ("p,3", "p 4", "p#5")])
        assert taps.participant.tolist() == ["p,3", "p 4", "p#5"]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("column,what", [("amplitude_mm", "amplitude"),
                                             ("width_mm", "width")])
    def test_condition_not_finite_and_positive_rejected(self, column, what, bad):
        columns = {name: getattr(table([make_trial(COND)] * 2), name) for name in TAP_COLUMNS}
        columns[column] = [columns[column][0], bad]
        with pytest.raises(ValidationError) as exc:
            TapTable(**columns)
        assert (exc.value.row, exc.value.reason) == (1, f"{what} must be finite and > 0, got {bad}")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("column", ["target_x_mm", "target_y_mm", "touch_x_mm",
                                        "touch_y_mm"])
    def test_coordinate_not_finite_named_with_its_column(self, column, bad):
        columns = {name: getattr(table([make_trial(COND)] * 2), name) for name in TAP_COLUMNS}
        columns[column] = [columns[column][0], bad]
        with pytest.raises(ValidationError) as exc:
            TapTable(**columns)
        assert str(exc.value) == f"row 1: {column} must be finite, got {bad}"

    @pytest.mark.parametrize("column,values,message", [
        ("is_practice", ["false", "false", "true"],
         "row 0: is_practice must convert exactly to bool, got 'false'"),
        ("is_practice", [0.0, 1.0, 0.5], "row 2: is_practice must convert exactly to bool, got 0.5"),
        ("tap_index", [1.0, 2.7, 1.0], "row 1: tap_index must convert exactly to int64, got 2.7"),
        ("trial", [1, math.nan, 3], "row 1: trial must convert exactly to int64, got nan"),
        ("block", [0, None, 0], "row 1: block must convert exactly to int64, got None"),
        ("block", [0, 0, 2**64], f"row 2: block must convert exactly to int64, got {2**64}"),
        ("width_mm", ["4", "four", "4"],
         "row 1: width_mm must convert exactly to float64, got 'four'"),
    ])
    def test_column_that_does_not_convert_exactly_rejected(self, column, values, message):
        columns = {name: getattr(table([make_trial(COND)] * 3), name) for name in TAP_COLUMNS}
        with pytest.raises(ValidationError) as exc:
            TapTable(**{**columns, column: values})
        assert str(exc.value) == message

    def test_column_that_converts_exactly_kept(self):
        columns = {name: getattr(table([make_trial(COND)] * 3), name) for name in TAP_COLUMNS}
        zeros, ones = np.zeros(3), np.ones(3)  # as generate gives them
        taps = TapTable(**{**columns, "block": zeros, "trial": [1.0, 2.0, 3.0],
                           "tap_index": ones, "is_practice": [0, 1, 0],
                           "mt_ms": np.array([300, 301, 302], dtype=np.int32)})
        assert (taps.block.tolist(), taps.trial.tolist(), taps.tap_index.tolist(),
                taps.is_practice.tolist(), taps.mt_ms.tolist()) == (
            [0, 0, 0], [1, 2, 3], [1, 1, 1], [False, True, False], [300.0, 301.0, 302.0])
        assert taps.block.dtype == np.int64 and taps.is_practice.dtype == bool

    def test_column_of_its_own_dtype_not_copied(self):
        columns = {name: getattr(table([make_trial(COND)] * 3), name) for name in TAP_COLUMNS}
        taps = TapTable(**columns)
        assert all(getattr(taps, name) is columns[name] for name in TAP_COLUMNS)

    def test_small_positive_values_kept(self):
        cond = Condition(0.5, 0.25)
        taps = table([make_trial(cond, mt=0.0), make_trial(cond, mt=0.5)])
        assert (taps.amplitude_mm.tolist(), taps.width_mm.tolist(), taps.mt_ms.tolist()) == (
            [0.5, 0.5], [0.25, 0.25], [0.0, 0.5])

    def test_columns_of_unequal_length_rejected(self):
        columns = {name: getattr(table([make_trial(COND)] * 2), name)
                   for name in TAP_COLUMNS}
        columns["mt_ms"] = columns["mt_ms"][:1]
        with pytest.raises(ValidationError, match="one length"):
            TapTable(**columns)

    def test_iteration_gives_back_the_records(self):
        rows = [make_trial(COND, dx=0.25, dy=-1.5, mt=312.5, tap_index=2, trial=4,
                           participant="p2", practice=True),
                make_trial(Condition(30.0, 6.0), trial=5)]
        assert list(table(rows)) == rows
        assert list(table([])) == [] and len(table([])) == 0


class TestAggregate:
    def test_zero_variance_is_degenerate(self):
        trials = [make_trial(COND, dx=0.0, dy=0.0, trial=i) for i in range(5)]
        with pytest.raises(DegenerateConditionError):
            aggregate(table(trials))

    def test_outlier_beyond_radius_removed(self):
        trials = [
            make_trial(COND, dy=(-1.0) ** i * (0.5 + 0.01 * i), trial=i)
            for i in range(19)
        ]
        trials.append(make_trial(COND, dx=0.0, dy=16.0, trial=99))
        (summary,) = aggregate(table(trials), outlier_radius_mm=15.0)
        assert summary.n_trials == 19

    def test_mean_mt_matches_arithmetic_mean(self):
        mts = [250.0, 300.0, 350.0, 410.0]
        trials = [
            make_trial(COND, dy=0.1 * (i + 1) * (-1.0) ** i, mt=mt, trial=i)
            for i, mt in enumerate(mts)
        ]
        (summary,) = aggregate(table(trials))
        assert summary.mt_ms == pytest.approx(np.mean(mts), rel=1e-12)

    def test_error_rate_zero_without_retaps(self):
        trials = [
            make_trial(COND, dy=0.2 * (i - 2), trial=i) for i in range(5)
        ]
        (summary,) = aggregate(table(trials))
        assert summary.error_rate == 0.0

    def test_error_rate_counts_retapped_trials(self):
        trials = []
        for i in range(10):
            trials.append(make_trial(COND, dy=0.2 * (i - 4.5), trial=i))
        # two trials needed a second tap
        trials.append(make_trial(COND, dy=0.1, tap_index=2, trial=0))
        trials.append(make_trial(COND, dy=-0.1, tap_index=2, trial=3))
        (summary,) = aggregate(table(trials))
        assert summary.n_trials == 10
        assert summary.error_rate == pytest.approx(0.2)

    def test_practice_trials_excluded(self):
        trials = [make_trial(COND, dy=0.2 * (i - 2), trial=i) for i in range(5)]
        trials.append(make_trial(COND, dy=9.0, trial=50, practice=True))
        (summary,) = aggregate(table(trials))
        assert summary.n_trials == 5

    def test_two_trials_are_enough(self):
        (summary,) = aggregate(table([make_trial(COND, dy=-0.5, trial=1),
                                      make_trial(COND, dy=0.5, trial=2)]))
        assert (summary.n_trials, summary.sigma_obs_mm) == (2, math.sqrt(0.5))

    def test_conditions_told_apart_across_amplitudes_and_widths(self):
        # amplitude ranks 0, 1, 2 and width ranks 1, 0, 0: rank arithmetic
        # that mixed them would merge (20, 4) with (45, 2)
        conds = [Condition(20.0, 4.0), Condition(30.0, 2.0), Condition(45.0, 2.0)]
        trials = [make_trial(c, dy=0.2 * i - 0.1, trial=i) for c in conds for i in range(3)]
        summaries = aggregate(table(trials))
        assert [(s.condition, s.n_trials) for s in summaries] == [(c, 3) for c in conds]

    def test_fewer_than_two_trials_is_degenerate(self):
        with pytest.raises(DegenerateConditionError) as exc:
            aggregate(table([make_trial(COND, trial=1)]))
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
        base = aggregate(table(trials))
        shuffled = trials[:]
        random.Random(9).shuffle(shuffled)
        assert aggregate(table(shuffled)) == base

    def test_axis_modes(self):
        rng = np.random.default_rng(11)
        dx = rng.normal(0, 2.0, 40)
        dy = rng.normal(0, 0.5, 40)
        trials = [
            make_trial(COND, dx=float(x), dy=float(y), trial=i)
            for i, (x, y) in enumerate(zip(dx, dy))
        ]
        sx = aggregate(table(trials), axis_mode=AxisMode.X)[0].sigma_obs_mm
        sy = aggregate(table(trials), axis_mode=AxisMode.Y)[0].sigma_obs_mm
        sb = aggregate(table(trials), axis_mode=AxisMode.BIVARIATE)[0].sigma_obs_mm
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
            aggregate(table([]))

    def test_all_practice_rejected(self):
        trials = [make_trial(COND, dy=0.2 * i, trial=i, practice=True) for i in range(3)]
        with pytest.raises(ValidationError, match="all trials are flagged as practice"):
            aggregate(table(trials))

    def test_condition_without_retained_trial_is_degenerate(self):
        # every live tap of the only condition is an outlier
        trials = [make_trial(COND, dy=20.0 + i, trial=i) for i in range(5)]
        trials.append(make_trial(COND, dy=0.2, trial=9, practice=True))
        with pytest.raises(DegenerateConditionError, match="only 0 retained"):
            aggregate(table(trials))

    def test_vanished_condition_named_among_others(self):
        kept = Condition(30.0, 6.0)
        trials = [make_trial(kept, dy=0.2 * (i - 2), trial=i) for i in range(5)]
        # first taps of COND are outliers; its retained re-tap defines no trial
        trials += [make_trial(COND, dy=16.0, trial=i) for i in range(3)]
        trials.append(make_trial(COND, dy=0.5, tap_index=2, trial=0))
        with pytest.raises(DegenerateConditionError) as exc:
            aggregate(table(trials))
        assert (exc.value.amplitude_mm, exc.value.width_mm) == (20.0, 4.0)
        assert "only 0 retained" in str(exc.value)

    def test_non_positive_radius_rejected(self):
        trials = [make_trial(COND, dy=0.2 * (i - 2), trial=i) for i in range(5)]
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError):
                aggregate(table(trials), outlier_radius_mm=radius)


class TestFirstTaps:
    def test_selection_in_log_order(self):
        other = Condition(10.0, 2.0)
        trials = [
            make_trial(COND, dx=0.1, dy=0.3, mt=310.0, trial=2, participant="p2"),
            make_trial(COND, dy=9.0, trial=7, practice=True),
            make_trial(other, dx=-0.2, dy=0.4, mt=250.0, trial=1),
            make_trial(COND, dy=16.0, trial=3),               # outlier
            make_trial(COND, dy=0.6, tap_index=2, trial=3),   # its kept re-tap
            make_trial(COND, dx=0.0, dy=-0.5, mt=290.0, trial=1, participant="p1"),
            make_trial(COND, dy=0.7, tap_index=2, trial=1, participant="p1"),
            make_trial(COND, dy=20.0, tap_index=2, trial=2, participant="p2"),
        ]
        taps = first_taps(table(trials))
        assert taps.conditions == (other, COND)          # sorted by (A, W)
        assert taps.condition.tolist() == [1, 0, 1]
        assert taps.participant.tolist() == ["p2", "p1", "p1"]
        assert taps.trial.tolist() == [2, 1, 1]
        assert taps.mt_ms.tolist() == [310.0, 250.0, 290.0]
        assert taps.dx_mm.tolist() == [0.1, -0.2, 0.0]
        assert taps.dy_mm.tolist() == [0.3, 0.4, -0.5]
        # only p1's trial 1 has a re-tap inside the radius
        assert taps.retapped.tolist() == [False, False, True]

    def test_retap_listed_before_its_first_tap(self):
        # the rule is per trial key, not per row order
        trials = [
            make_trial(COND, dy=0.7, tap_index=2, trial=1),
            make_trial(COND, dy=0.1, trial=1),
            make_trial(COND, dy=0.2, trial=2),
        ]
        assert first_taps(table(trials)).retapped.tolist() == [True, False]

    def test_deviation_is_touch_minus_target(self):
        record = TrialRecord("p1", COND, target_x_mm=100.0, target_y_mm=50.0,
                             touch_x_mm=100.5, touch_y_mm=49.0, mt_ms=300.0)
        taps = first_taps(table([record]))
        assert (taps.dx_mm.tolist(), taps.dy_mm.tolist()) == ([0.5], [-1.0])

    def test_tap_on_the_radius_kept(self):
        # hypot(9, 12) is exactly 15
        trials = [make_trial(COND, dx=0.0, dy=15.0), make_trial(COND, dx=9.0, dy=12.0, trial=2),
                  make_trial(COND, dx=0.0, dy=15.5, trial=3)]
        assert first_taps(table(trials)).dy_mm.tolist() == [15.0, 12.0]
        assert first_taps(table(trials), outlier_radius_mm=0.5).dy_mm.size == 0

    def test_conditions_without_retained_taps_listed(self):
        taps = first_taps(table([make_trial(COND, dy=30.0)]))
        assert taps.conditions == (COND,)
        assert taps.dy_mm.size == 0

    def test_deviation_past_float_range_is_an_outlier(self):
        # touch minus target overflows to inf, which no finite radius keeps
        far = TrialRecord("p1", COND, target_x_mm=-1e308, target_y_mm=0.0,
                          touch_x_mm=1e308, touch_y_mm=0.0, mt_ms=300.0, trial=2)
        taps = first_taps(table([make_trial(COND), far]))
        assert taps.trial.tolist() == [1]

    def test_all_practice_gives_empty_selection(self):
        taps = first_taps(table([make_trial(COND, practice=True)]))
        assert taps.conditions == ()
        assert taps.condition.size == taps.retapped.size == 0


_PROPERTY = settings(max_examples=100)
_CONDS = [Condition(20.0, 2.0), Condition(45.0, 4.0)]
# multiples of 1/97 sum with rounding, so a changed summation order shows;
# |coordinate| <= 12.4 puts some taps beyond the 15 mm radius
_MM = st.integers(-1200, 1200).map(lambda k: k / 97)
# |coordinate| <= 10 keeps every tap inside the radius
_MM_IN = st.integers(-970, 970).map(lambda k: k / 97)
_TAP = st.builds(
    make_trial,
    st.sampled_from(_CONDS),
    dx=_MM,
    dy=_MM,
    mt=st.integers(1000, 9000).map(lambda k: k / 9.7),
    tap_index=st.sampled_from([1, 1, 1, 2, 3]),
    trial=st.integers(0, 3),
    participant=st.sampled_from(["p1", "p2"]),
    practice=st.sampled_from([False, False, False, True]),
)
# four distinct first taps per condition keep every drawn log aggregable;
# the drawn taps repeat their trial keys, so ties must be broken too
_BASE = [
    make_trial(cond, dx=0.3 * i - 0.4, dy=0.7 - 0.45 * i, mt=300.0 + 7 * i, trial=i)
    for cond in _CONDS for i in range(4)
]
_LOGS = st.lists(_TAP, max_size=60).map(lambda drawn: _BASE + drawn)


class TestSpreadProperties:
    @_PROPERTY
    @given(deviations=st.lists(st.tuples(_MM_IN, _MM_IN), min_size=2, max_size=40))
    def test_aggregate_and_calibration_give_the_same_spread(self, deviations):
        dx, dy = (np.array(d) for d in zip(*deviations))
        assume(np.ptp(dx) > 0 and np.ptp(dy) > 0)
        # trials numbered 1..n in draw order; both sides sum the deviations
        # exactly, so that order is not what makes them agree
        taps = table([make_trial(COND, dx=x, dy=y, trial=i)
                      for i, (x, y) in enumerate(deviations, start=1)])
        for axis, mode, calibration in [
            (AxisMode.X, CalibrationMode.UNIVARIATE, dx),
            (AxisMode.Y, CalibrationMode.UNIVARIATE, dy),
            (AxisMode.BIVARIATE, CalibrationMode.BIVARIATE, np.column_stack([dx, dy])),
        ]:
            (summary,) = aggregate(taps, axis)
            assert summary.sigma_obs_mm == sigma_from_calibration(calibration, mode).sigma_a_mm


# any finite float, also next to values eight orders of magnitude apart,
# where a float sum's result depends on its order
_SMALL = st.floats(-10, 10)
_WIDE = st.one_of(_SMALL, _SMALL.map(lambda v: 1e8 + v), st.floats(-1e100, 1e100))
_FINITE = st.one_of(_WIDE, st.floats(allow_nan=False, allow_infinity=False))


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)


class TestExactSums:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @_PROPERTY
    @given(rows=st.lists(st.tuples(_FINITE, _FINITE), min_size=2, max_size=40),
           data=st.data())
    def test_spread_same_in_any_order(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        dx, dy = (np.array(axis) for axis in zip(*rows))
        sx, sy = (np.array(axis) for axis in zip(*shuffled))
        assert endpoint_spread(sx) == endpoint_spread(dx)
        assert endpoint_spread(sx, sy) == endpoint_spread(dx, dy)

    @_PROPERTY
    @given(groups=st.lists(
        st.lists(st.tuples(st.floats(0, 1e300) | _SMALL.map(abs), _WIDE, _WIDE,
                           st.booleans()), min_size=2, max_size=20),
        min_size=1, max_size=3), data=st.data())
    def test_summaries_same_in_any_order(self, groups, data):
        keyed = [(k, row) for k, group in enumerate(groups) for row in group]
        rows = [(k, trial, *row) for trial, (k, row) in enumerate(keyed)]
        shuffled = data.draw(st.permutations(rows))
        conditions = tuple(Condition(20.0, 2.0 + k) for k in range(len(groups)))
        for axis in AxisMode:
            summaries = _outcome(summarize, _first_taps(conditions, rows), axis)
            assert _outcome(summarize, _first_taps(conditions, shuffled), axis) == summaries
            if isinstance(summaries, list):
                assert [s.mt_ms for s in summaries] == [
                    statistics.fmean([mt for mt, *_ in group]) for group in groups
                ]


def _first_taps(conditions, rows):
    """A FirstTaps of (condition index, trial, mt, dx, dy, retapped) rows."""
    condition, trial, mt, dx, dy, retapped = (np.array(column) for column in zip(*rows))
    n = len(rows)
    return FirstTaps(conditions, condition, np.full(n, "p1"), np.ones(n, dtype=int),
                     trial, mt, dx, dy, retapped)


class TestSpreadPastFloatRange:
    """A spread or sum past the float range is an inf or nan that the value
    types reject, whatever the summation does on the way (a non-finite
    deviation is rejected before: test_sigma.py)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("deviations, text", [
        ([1e308, 1e308, 1.0], "inf"),
        ([1.7e308, 1.7e308, -1e308], "inf"),
    ])
    def test_calibration(self, deviations, text):
        with pytest.raises(ValidationError) as err:
            sigma_from_calibration(deviations)
        assert str(err.value) == f"sigma_a must be finite and > 0, got {text}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dy", [
        [1e308, 1e308, -1e308],
        [1.7e308, 1.7e308, -1e308],
        [1e308, -1e308],
    ])
    def test_aggregate(self, dy):
        taps = table([make_trial(COND, dy=y, trial=i) for i, y in enumerate(dy)])
        with pytest.raises(ValidationError) as err:
            aggregate(taps, AxisMode.Y, outlier_radius_mm=math.inf)
        assert str(err.value) == "endpoint spread must be finite and > 0, got inf"

    def test_aggregate_of_opposite_infinite_deviations(self):
        # touch minus target overflows to +inf and -inf, whose sum is nan
        taps = table([TrialRecord("p1", COND, target_x_mm=-x, target_y_mm=0.0, touch_x_mm=x,
                                  touch_y_mm=0.0, mt_ms=300.0, trial=i)
                      for i, x in enumerate((1e308, -1e308))])
        with pytest.raises(ValidationError) as err:
            aggregate(taps, AxisMode.X, outlier_radius_mm=math.inf)
        assert str(err.value) == "endpoint spread must be finite and > 0, got nan"


class TestAggregateProperties:
    @_PROPERTY
    @given(trials=_LOGS, data=st.data())
    def test_invariant_to_row_permutation(self, trials, data):
        shuffled = data.draw(st.permutations(trials))
        for axis in AxisMode:
            assert aggregate(table(shuffled), axis) == aggregate(table(trials), axis)

    @_PROPERTY
    @given(trials=_LOGS)
    def test_first_taps_match_reference_loop(self, trials):
        taps = first_taps(table(trials))
        conditions, rows = _reference_first_taps(trials)
        assert taps.conditions == conditions
        assert list(zip(taps.condition.tolist(), taps.participant.tolist(),
                        taps.block.tolist(), taps.trial.tolist(), taps.mt_ms.tolist(),
                        taps.dx_mm.tolist(), taps.dy_mm.tolist(),
                        taps.retapped.tolist())) == rows

    @_PROPERTY
    @given(trials=_LOGS)
    def test_trial_counts_match_selection(self, trials):
        summaries = aggregate(table(trials))
        taps = first_taps(table(trials))
        assert sum(s.n_trials for s in summaries) == len(taps.dy_mm)
        assert [s.condition for s in summaries] == list(taps.conditions)


def _reference_first_taps(trials, radius=15.0):
    """The selection rule of ``first_taps`` written as a loop over records."""
    live = [t for t in trials if not t.is_practice]
    conditions = tuple(sorted({t.condition for t in live},
                              key=lambda c: (c.amplitude_mm, c.width_mm)))

    def deviation(t):
        return t.touch_x_mm - t.target_x_mm, t.touch_y_mm - t.target_y_mm

    def unit(t):
        return t.condition, t.participant_id, t.block, t.trial

    kept = [t for t in live if np.hypot(*deviation(t)) <= radius]
    retapped = {unit(t) for t in kept if t.tap_index > 1}
    return conditions, [
        (conditions.index(t.condition), t.participant_id, t.block, t.trial, t.mt_ms,
         *deviation(t), unit(t) in retapped)
        for t in kept if t.tap_index == 1
    ]


def _group_ids(*columns):
    """Each row's rank among the distinct rows of the columns, ordered
    lexicographically, from one ``np.unique`` per column and per step, so it
    cannot overflow: the reference for ``datamodel._keys``."""
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        values, codes = np.unique(col, return_inverse=True)
        ids = np.unique(ids * len(values) + codes, return_inverse=True)[1]
    return ids


def _group_ids_first_taps(taps, radius=15.0):
    """``first_taps(taps)`` with ``_group_ids`` for the condition ranks, over
    (A, W), and for the re-tap key, over (condition, participant, block,
    trial)."""
    live = ~taps.is_practice
    amps, widths = taps.amplitude_mm[live], taps.width_mm[live]
    c = _group_ids(amps, widths)
    at = np.unique(c, return_index=True)[1]
    pid, block, trial, tap, mt = (getattr(taps, name)[live] for name in (
        "participant", "block", "trial", "tap_index", "mt_ms"))
    dx = taps.touch_x_mm[live] - taps.target_x_mm[live]
    dy = taps.touch_y_mm[live] - taps.target_y_mm[live]
    keep = np.hypot(dx, dy) <= radius
    first, retap = keep & (tap == 1), keep & (tap > 1)
    unit = _group_ids(c, pid, block, trial)
    return FirstTaps(tuple(map(Condition, amps[at].tolist(), widths[at].tolist())), c[first],
                     pid[first], block[first], trial[first], mt[first], dx[first], dy[first],
                     np.isin(unit[first], unit[retap]))


# block and trial numbers near +-2**62 and +-2**63 and small ones, whose
# offsets from a column's minimum span up to 2**64: a mixed-radix key of
# (condition, block, trial) could overflow int64, or wrap to the key of
# another condition (a block span of 2**62 times a trial span of 4)
_KEY_NUMBERS = st.sampled_from([-3, -1, 0, 1, 3, 2**62 - 1, 2**62, -2**62, -2**62 - 1,
                                2**63 - 1, -2**63, -2**63 + 1])
# IDs of one to four characters, Unicode among them, that a TapTable takes:
# no surrounding whitespace (categories Z and Cc hold all of it), no '#' first
_IDS = st.text(st.characters(exclude_categories=("Cs", "Cc", "Z")), min_size=1,
               max_size=4).filter(lambda p: not p.startswith("#"))


@st.composite
def keyed_logs(draw):
    """A tap log whose few participants share a few block and trial numbers
    in every condition, with practice taps, outliers and re-taps."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=4, unique=True))
    blocks, trials = (draw(st.lists(_KEY_NUMBERS, min_size=1, max_size=3)) for _ in "bt")
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(_CONDS),
                                   st.sampled_from(blocks), st.sampled_from(trials),
                                   st.sampled_from([1, 1, 2, 3]),
                                   st.sampled_from([False, False, False, True]),
                                   st.sampled_from([0.5, 0.5, 0.5, 20.0])),
                         min_size=1, max_size=40))
    pid, cond, block, trial, tap, practice, dx = zip(*rows)
    n = len(rows)
    return TapTable(participant=list(pid), block=np.array(block, dtype=np.int64),
                    trial=np.array(trial, dtype=np.int64),
                    amplitude_mm=[c.amplitude_mm for c in cond],
                    width_mm=[c.width_mm for c in cond], target_x_mm=np.zeros(n),
                    target_y_mm=np.zeros(n), touch_x_mm=list(dx), touch_y_mm=np.zeros(n),
                    mt_ms=np.full(n, 300.0), tap_index=list(tap), is_practice=list(practice))


class TestRetapKey:
    @settings(max_examples=300)
    @given(taps=keyed_logs())
    def test_matches_the_group_ids_reference(self, taps):
        selected, expected = first_taps(taps), _group_ids_first_taps(taps)
        assert selected.conditions == expected.conditions
        for name in FirstTaps.__slots__[1:]:
            got, want = getattr(selected, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @settings(max_examples=300)
    @given(columns=st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([2**61, 2**61 + 1, -2**61]) | _KEY_NUMBERS, min_size=k,
                 max_size=k), min_size=1, max_size=12)))
    def test_keys_are_equal_exactly_where_rows_are(self, columns):
        # ranking the keys gives the rows' ranks, so no two rows' keys collide
        columns = [np.array(col, dtype=np.int64) for col in zip(*columns)]
        keys = _keys(*columns)
        assert keys.dtype == np.int64
        assert np.array_equal(np.unique(keys, return_inverse=True)[1], _group_ids(*columns))

    def test_same_key_of_another_participant_is_no_retap(self):
        trials = [make_trial(COND, trial=1, participant="p1"),
                  make_trial(COND, trial=1, participant="p10"),
                  make_trial(COND, trial=1, tap_index=2, participant="p10")]
        assert first_taps(table(trials)).retapped.tolist() == [False, True]

    @pytest.mark.parametrize("low, high", [(-2**63, 2**63 - 1), (0, 2**62), (-2**62, 2**62)])
    def test_block_and_trial_spans_past_int64(self, low, high):
        # (condition, block, trial) in mixed radix would need more than 63 bits
        trials = [make_trial(COND, trial=t, participant=p, tap_index=k)
                  for p, t, k in [("p1", low, 1), ("p1", high, 1), ("p1", high, 2),
                                  ("p2", low, 2), ("p2", high, 1)]]
        for t in trials:
            t.block = t.trial
        assert first_taps(table(trials)).retapped.tolist() == [False, True, False]

    def test_key_that_would_wrap_to_another_condition(self):
        # 2 conditions x a block span of 2**62 x a trial span of 4 is 2**65:
        # in int64 mixed radix the condition would drop out of the key, and
        # the re-tap at COND would mark the first tap at (20, 2) retapped
        trials = [make_trial(COND, trial=0, tap_index=2), make_trial(_CONDS[0], trial=0),
                  make_trial(COND, trial=3)]
        trials[2].block = 2**62 - 1
        assert first_taps(table(trials)).retapped.tolist() == [False, False]
