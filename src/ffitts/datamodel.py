"""Core domain types and trial-to-condition aggregation.

A pointing study produces one row per tap.  Everything downstream (tremor
estimation, difficulty models, fitting) works on per-condition summaries:
mean movement time and endpoint spread per (amplitude, width) pair.  This
module defines those value types and the aggregation between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateConditionError, ValidationError


class Dimensionality(str, Enum):
    ONE_D = "1d"
    TWO_D = "2d"


class AxisMode(str, Enum):
    """Axis along which endpoint deviations are measured."""

    X = "x"
    Y = "y"
    BIVARIATE = "bivariate"


class SigmaMethod(str, Enum):
    """How a tremor spread value was obtained."""

    CALIB_RAPID_ACCURATE = "calib-ra"
    CALIB_ACCURACY_ONLY = "calib-acc"
    INTERCEPT_FITTS = "intercept-fitts"
    INTERCEPT_RANDOM_A = "intercept-random"
    USER_GIVEN = "user"

    @property
    def label(self) -> str:
        return _SIGMA_METHOD_LABELS[self]


_SIGMA_METHOD_LABELS = {
    SigmaMethod.CALIB_RAPID_ACCURATE: "Calib (R&A)",
    SigmaMethod.CALIB_ACCURACY_ONLY: "Calib (Acc)",
    SigmaMethod.INTERCEPT_FITTS: "Fitts",
    SigmaMethod.INTERCEPT_RANDOM_A: "Random A",
    SigmaMethod.USER_GIVEN: "Given",
}


@dataclass(frozen=True, slots=True)
class Condition:
    """One task condition: target distance A and target width W, in mm."""

    amplitude_mm: float
    width_mm: float

    def __post_init__(self):
        if not 0 < self.amplitude_mm < math.inf:
            raise ValidationError(
                f"amplitude must be finite and > 0, got {self.amplitude_mm}"
            )
        if not 0 < self.width_mm < math.inf:
            raise ValidationError(f"width must be finite and > 0, got {self.width_mm}")

    def __str__(self) -> str:
        return f"(A={self.amplitude_mm:g}, W={self.width_mm:g})"


@dataclass(slots=True)
class TrialRecord:
    """One tap.  Touch coordinates are take-off points in mm.

    tap_index 1 is the first tap of a trial; re-taps after a miss keep the
    same (participant_id, block, trial) key with tap_index >= 2.
    """

    participant_id: str
    condition: Condition
    target_x_mm: float
    target_y_mm: float
    touch_x_mm: float
    touch_y_mm: float
    mt_ms: float
    tap_index: int = 1
    is_practice: bool = False
    block: int = 0
    trial: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.target_x_mm) and math.isfinite(self.target_y_mm)
                and math.isfinite(self.touch_x_mm) and math.isfinite(self.touch_y_mm)):
            raise ValidationError("target and touch coordinates must be finite")
        if not 0 <= self.mt_ms < math.inf:
            raise ValidationError(f"mt_ms must be finite and >= 0, got {self.mt_ms}")
        if self.tap_index < 1:
            raise ValidationError(f"tap_index must be >= 1, got {self.tap_index}")


@dataclass(frozen=True, slots=True)
class ConditionSummary:
    """Aggregated statistics for one condition."""

    condition: Condition
    mt_ms: float
    sigma_obs_mm: float
    n_trials: int = 2
    error_rate: float = 0.0

    def __post_init__(self):
        if not 0 < self.mt_ms < math.inf:
            raise ValidationError(f"mean MT must be finite and > 0, got {self.mt_ms}")
        if not 0 < self.sigma_obs_mm < math.inf:
            raise ValidationError(
                f"endpoint spread must be finite and > 0, got {self.sigma_obs_mm}"
            )
        if self.n_trials < 2:
            raise ValidationError(f"n_trials must be >= 2, got {self.n_trials}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValidationError(f"error_rate must be in [0, 1], got {self.error_rate}")


@dataclass(frozen=True, slots=True)
class SigmaEstimate:
    """A tremor spread value in mm plus the method that produced it.

    The method tag is significant: estimates from different procedures are
    not interchangeable and reports must always display it.
    """

    sigma_a_mm: float
    method: SigmaMethod
    source_dataset: str = ""

    def __post_init__(self):
        if not 0 < self.sigma_a_mm < math.inf:
            raise ValidationError(f"sigma_a must be finite and > 0, got {self.sigma_a_mm}")


@dataclass(frozen=True, slots=True)
class Dataset:
    """A named collection of condition summaries plus known tremor estimates."""

    name: str
    dimensionality: Dimensionality
    summaries: tuple[ConditionSummary, ...]
    sigma_a_catalog: tuple[SigmaEstimate, ...] = ()

    def __post_init__(self):
        if not self.summaries:
            raise ValidationError("dataset must contain at least one condition")
        pairs = [(s.condition.amplitude_mm, s.condition.width_mm) for s in self.summaries]
        if len(set(pairs)) != len(pairs):
            raise ValidationError("dataset has duplicate (A, W) conditions")

    def sigma_a(self, method: SigmaMethod) -> SigmaEstimate:
        """Catalog lookup by method; raises KeyError when absent."""
        for est in self.sigma_a_catalog:
            if est.method is method:
                return est
        raise KeyError(f"no {method.value} estimate in dataset {self.name!r}")


@dataclass(frozen=True, slots=True)
class FirstTaps:
    """Parallel arrays over the retained first taps of a log, in log order.

    ``condition`` indexes ``conditions``: every live condition sorted by
    (A, W), also those without a retained first tap.
    """

    conditions: tuple[Condition, ...]
    condition: np.ndarray
    participant: np.ndarray
    block: np.ndarray
    trial: np.ndarray
    mt_ms: np.ndarray
    dx_mm: np.ndarray
    dy_mm: np.ndarray
    retapped: np.ndarray


def first_taps(trials: list[TrialRecord], outlier_radius_mm: float = 15.0) -> FirstTaps:
    """Select the taps that every per-trial statistic is computed from.

    Practice taps are dropped, and so are taps farther than
    ``outlier_radius_mm`` (Euclidean) from the target center.  Each
    retained first tap (tap_index 1) defines one trial; the trial is
    ``retapped`` (an error) when a retained re-tap with the same condition
    and (participant, block, trial) key follows it.
    """
    if not outlier_radius_mm > 0:
        raise ValidationError(f"outlier radius must be > 0, got {outlier_radius_mm}")
    conditions: dict[Condition, int] = {}
    conds, pids, blocks, trial_nos, tap_nos, mts, dxs, dys = [[] for _ in range(8)]
    for t in trials:
        if t.is_practice:
            continue
        conds.append(conditions.setdefault(t.condition, len(conditions)))
        pids.append(t.participant_id)
        blocks.append(t.block)
        trial_nos.append(t.trial)
        tap_nos.append(t.tap_index)
        mts.append(t.mt_ms)
        dxs.append(t.touch_x_mm - t.target_x_mm)
        dys.append(t.touch_y_mm - t.target_y_mm)
    n = len(conds)
    c, block, trial, tap_index = (
        np.fromiter(col, np.int64, n) for col in (conds, blocks, trial_nos, tap_nos)
    )
    mt, dx, dy = (np.fromiter(col, float, n) for col in (mts, dxs, dys))

    keep = np.hypot(dx, dy) <= outlier_radius_mm
    first = np.flatnonzero(keep & (tap_index == 1))

    def unit(i):
        return conds[i], pids[i], blocks[i], trial_nos[i]

    retapped_units = {unit(i) for i in np.flatnonzero(keep & (tap_index > 1)).tolist()}
    retapped = np.zeros(len(first), dtype=bool)
    if retapped_units:
        retapped[:] = [unit(i) in retapped_units for i in first.tolist()]

    by_a_w = sorted(conditions, key=lambda k: (k.amplitude_mm, k.width_mm))
    rank = np.array([by_a_w.index(k) for k in conditions], dtype=np.int64)
    return FirstTaps(
        conditions=tuple(by_a_w),
        condition=rank[c[first]],
        participant=np.array(pids, dtype=str)[first],
        block=block[first],
        trial=trial[first],
        mt_ms=mt[first],
        dx_mm=dx[first],
        dy_mm=dy[first],
        retapped=retapped,
    )


def aggregate(
    trials: list[TrialRecord],
    axis_mode: AxisMode = AxisMode.Y,
    outlier_radius_mm: float = 15.0,
) -> list[ConditionSummary]:
    """Reduce tap-level records to per-condition summaries.

    The ``summarize`` of the trials that ``first_taps`` selects; see both
    for the rules and the errors raised.
    """
    if not trials:
        raise ValidationError("no trials to aggregate")
    return summarize(first_taps(trials, outlier_radius_mm), axis_mode)


def summarize(taps: FirstTaps, axis_mode: AxisMode) -> list[ConditionSummary]:
    """Per-condition summaries of a first-tap selection.

    MT is the mean movement time of a condition's trials, the endpoint
    spread is the sample SD (n-1) of signed deviations along the chosen
    axis, and the error rate is the retapped fraction.  Bivariate mode uses
    sqrt((var_x + var_y) / 2), the per-axis RMS spread.

    Raises DegenerateConditionError for any live condition with fewer than
    two retained trials (none included) or zero endpoint variance.
    """
    if not taps.conditions:
        raise ValidationError("all trials are flagged as practice")

    # canonical within-group order makes the float summation order, and
    # hence the result, independent of input permutation
    order = np.lexsort((
        taps.dy_mm, taps.dx_mm, taps.mt_ms,
        taps.trial, taps.block, taps.participant, taps.condition,
    ))
    counts = np.bincount(taps.condition, minlength=len(taps.conditions))
    groups = np.split(order, np.cumsum(counts)[:-1])

    summaries = []
    for cond, g in zip(taps.conditions, groups):
        n = len(g)
        if n < 2:
            raise DegenerateConditionError(
                f"only {n} retained trial(s)", cond.amplitude_mm, cond.width_mm
            )
        dx, dy = taps.dx_mm[g], taps.dy_mm[g]
        if axis_mode is AxisMode.X:
            sigma = float(np.std(dx, ddof=1))
        elif axis_mode is AxisMode.Y:
            sigma = float(np.std(dy, ddof=1))
        else:
            sigma = float(
                np.sqrt((np.var(dx, ddof=1) + np.var(dy, ddof=1)) / 2.0)
            )
        if sigma <= 0:
            raise DegenerateConditionError(
                "zero endpoint variance", cond.amplitude_mm, cond.width_mm
            )
        summaries.append(
            ConditionSummary(
                condition=cond,
                mt_ms=float(np.mean(taps.mt_ms[g])),
                sigma_obs_mm=sigma,
                n_trials=n,
                error_rate=int(np.count_nonzero(taps.retapped[g])) / n,
            )
        )
    return summaries
