"""Core domain types and trial-to-condition aggregation.

A pointing study produces one row per tap.  Everything downstream (tremor
estimation, difficulty models, fitting) works on per-condition summaries:
mean movement time and endpoint spread per (amplitude, width) pair.  This
module defines those value types and the aggregation between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if self.mt_ms < 0:
            raise ValidationError(f"mt_ms must be >= 0, got {self.mt_ms}")
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


def aggregate(
    trials: list[TrialRecord],
    axis_mode: AxisMode = AxisMode.Y,
    outlier_radius_mm: float = 15.0,
) -> list[ConditionSummary]:
    """Reduce tap-level records to per-condition summaries.

    Practice taps are dropped.  Taps farther than ``outlier_radius_mm``
    (Euclidean) from the target center are removed before any statistic is
    computed.  Each retained first tap defines one trial: MT is the mean
    first-tap movement time, the endpoint spread is the sample SD (n-1) of
    signed first-tap deviations along the chosen axis, and the error rate
    is the fraction of trials that needed at least one re-tap.

    Bivariate mode uses sqrt((var_x + var_y) / 2), the per-axis RMS spread.

    Raises DegenerateConditionError for any condition with fewer than two
    retained trials or zero endpoint variance.
    """
    if not trials:
        raise ValidationError("no trials to aggregate")
    if outlier_radius_mm <= 0:
        raise ValidationError("outlier radius must be > 0")

    live = [t for t in trials if not t.is_practice]
    if not live:
        raise ValidationError("all trials are flagged as practice")

    dx = np.fromiter((t.touch_x_mm - t.target_x_mm for t in live), float, len(live))
    dy = np.fromiter((t.touch_y_mm - t.target_y_mm for t in live), float, len(live))
    keep = np.hypot(dx, dy) <= outlier_radius_mm

    groups: dict[Condition, _Group] = {}
    for i, t in enumerate(live):
        if not keep[i]:
            continue
        g = groups.get(t.condition)
        if g is None:
            g = groups[t.condition] = _Group()
        unit = (t.participant_id, t.block, t.trial)
        if t.tap_index == 1:
            g.rows.append((unit, t.mt_ms, float(dx[i]), float(dy[i])))
        else:
            g.retapped.add(unit)

    summaries = []
    for cond in sorted(groups, key=lambda c: (c.amplitude_mm, c.width_mm)):
        g = groups[cond]
        n = len(g.rows)
        if n < 2:
            raise DegenerateConditionError(
                f"only {n} retained trial(s)", cond.amplitude_mm, cond.width_mm
            )
        # canonical within-group order makes the float summation order, and
        # hence the result, independent of input permutation
        g.rows.sort()
        mt = [r[1] for r in g.rows]
        gdx = [r[2] for r in g.rows]
        gdy = [r[3] for r in g.rows]
        if axis_mode is AxisMode.X:
            sigma = float(np.std(gdx, ddof=1))
        elif axis_mode is AxisMode.Y:
            sigma = float(np.std(gdy, ddof=1))
        else:
            sigma = float(
                np.sqrt((np.var(gdx, ddof=1) + np.var(gdy, ddof=1)) / 2.0)
            )
        if sigma <= 0:
            raise DegenerateConditionError(
                "zero endpoint variance", cond.amplitude_mm, cond.width_mm
            )
        n_errors = sum(1 for r in g.rows if r[0] in g.retapped)
        summaries.append(
            ConditionSummary(
                condition=cond,
                mt_ms=float(np.mean(mt)),
                sigma_obs_mm=sigma,
                n_trials=n,
                error_rate=n_errors / n,
            )
        )
    return summaries


@dataclass(slots=True)
class _Group:
    rows: list = field(default_factory=list)
    retapped: set = field(default_factory=set)
