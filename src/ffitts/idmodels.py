"""Index-of-difficulty formulations and derived target widths.

Seven candidate formulations of ID = log2(A / width_term + 1) are
supported, differing in the width source and the tremor treatment:

====== ============== ==================================== =====================
model  width source   width term                           tremor treatment
====== ============== ==================================== =====================
m1     nominal W      W                                    none
m2     effective W_e  W_e = sqrt(2*pi*e) * sigma_obs       none
m3     effective W_e  W_e - c                              free parameter c
m4     effective W_e  sqrt(W_e^2 - c^2)                    free parameter c
m5     nominal W      W - c                                free parameter c
m6     nominal W      sqrt(W^2 - c^2)                      free parameter c
m7     adjusted W_f   sqrt(2*pi*e*(sigma_obs^2-sigma_a^2)) given tremor spread
====== ============== ==================================== =====================

Every formula here takes floats or numpy arrays and broadcasts.  Where a
width term is not positive (sigma_obs <= sigma_a for m7; w <= 0, c < 0 or
c at least the width for the c-forms) the result is NaN, not an exception:
batch evaluation over a whole dataset must find every failing condition so
a model can be reported unusable.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .datamodel import ConditionSummary

#: sqrt(2*pi*e): ratio between a normal sample's 96%-coverage width and its SD.
SQRT_2PI_E = math.sqrt(2.0 * math.pi * math.e)


class WidthKind(Enum):
    NOMINAL = "nominal"
    EFFECTIVE = "effective"
    FINGER_ADJUSTED = "finger-adjusted"


class Tremor(Enum):
    NONE = "none"
    FREE_C = "free-c"
    GIVEN_SIGMA_A = "given-sigma-a"


class Model(Enum):
    """The seven candidate difficulty formulations."""

    M1_BASELINE = "m1"
    M2_EFFECTIVE = "m2"
    M3_WE_NOSQRT_C = "m3"
    M4_WE_SQRT_C = "m4"
    M5_W_NOSQRT_C = "m5"
    M6_W_SQRT_C = "m6"
    M7_GIVEN_SIGMA_A = "m7"

    @property
    def width_kind(self) -> WidthKind:
        return _WIDTH_KIND[self]

    @property
    def tremor(self) -> Tremor:
        return _TREMOR[self]

    @property
    def uses_sqrt(self) -> bool:
        return self in (Model.M4_WE_SQRT_C, Model.M6_W_SQRT_C)

    @property
    def description(self) -> str:
        return _DESCRIPTION[self]

    @property
    def formula(self) -> str:
        return _FORMULA[self]

    @classmethod
    def parse(cls, token: str) -> "Model":
        token = token.strip().lower()
        for m in cls:
            if m.value == token:
                return m
        raise ValueError(
            f"unknown model {token!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


_WIDTH_KIND = {
    Model.M1_BASELINE: WidthKind.NOMINAL,
    Model.M2_EFFECTIVE: WidthKind.EFFECTIVE,
    Model.M3_WE_NOSQRT_C: WidthKind.EFFECTIVE,
    Model.M4_WE_SQRT_C: WidthKind.EFFECTIVE,
    Model.M5_W_NOSQRT_C: WidthKind.NOMINAL,
    Model.M6_W_SQRT_C: WidthKind.NOMINAL,
    Model.M7_GIVEN_SIGMA_A: WidthKind.FINGER_ADJUSTED,
}
_TREMOR = {
    Model.M1_BASELINE: Tremor.NONE,
    Model.M2_EFFECTIVE: Tremor.NONE,
    Model.M3_WE_NOSQRT_C: Tremor.FREE_C,
    Model.M4_WE_SQRT_C: Tremor.FREE_C,
    Model.M5_W_NOSQRT_C: Tremor.FREE_C,
    Model.M6_W_SQRT_C: Tremor.FREE_C,
    Model.M7_GIVEN_SIGMA_A: Tremor.GIVEN_SIGMA_A,
}
_DESCRIPTION = {
    Model.M1_BASELINE: "#1 Baseline",
    Model.M2_EFFECTIVE: "#2 Effective width",
    Model.M3_WE_NOSQRT_C: "#3 Param. opt. (We, no sqrt)",
    Model.M4_WE_SQRT_C: "#4 Param. opt. (We, sqrt)",
    Model.M5_W_NOSQRT_C: "#5 Param. opt. (W, no sqrt)",
    Model.M6_W_SQRT_C: "#6 Param. opt. (W, sqrt)",
    Model.M7_GIVEN_SIGMA_A: "#7 Given tremor spread",
}
_FORMULA = {
    Model.M1_BASELINE: "log2(A/W + 1)",
    Model.M2_EFFECTIVE: "log2(A/We + 1)",
    Model.M3_WE_NOSQRT_C: "log2(A/(We - c) + 1)",
    Model.M4_WE_SQRT_C: "log2(A/sqrt(We^2 - c^2) + 1)",
    Model.M5_W_NOSQRT_C: "log2(A/(W - c) + 1)",
    Model.M6_W_SQRT_C: "log2(A/sqrt(W^2 - c^2) + 1)",
    Model.M7_GIVEN_SIGMA_A: "log2(A/Wf + 1)",
}


def effective_width(sigma_obs_mm):
    """Width covering ~96% of normally spread endpoints: sqrt(2*pi*e)*sigma."""
    if np.any(np.asarray(sigma_obs_mm) <= 0):
        raise ValueError("sigma_obs must be > 0")
    return SQRT_2PI_E * sigma_obs_mm


def finger_width(sigma_obs_mm, sigma_a_mm):
    """Tremor-adjusted effective width sqrt(2*pi*e*(sigma_obs^2 - sigma_a^2)).

    NaN where sigma_obs^2 <= sigma_a^2.  A zero tremor spread gives the
    plain effective width exactly, since sqrt(x*x) == x.
    """
    sigma_obs = np.asarray(sigma_obs_mm, dtype=float)
    sigma_a = np.asarray(sigma_a_mm, dtype=float)
    if np.any(sigma_obs <= 0) or np.any(sigma_a < 0):
        raise ValueError("sigma_obs must be > 0 and sigma_a >= 0")
    gap = sigma_obs * sigma_obs - sigma_a * sigma_a
    return _scalar(SQRT_2PI_E * np.sqrt(np.where(gap > 0, gap, np.nan)))


def width_term(model: Model, width_mm, c_mm=0.0):
    """Denominator of the difficulty: W, W - c or sqrt(W^2 - c^2).

    NaN wherever the term is not positive or w <= 0 or c < 0.  The c-forms
    at c = 0 equal the width bit for bit (w - 0 == w, sqrt(w*w) == w).
    """
    w = np.asarray(width_mm, dtype=float)
    c = np.asarray(c_mm, dtype=float)
    if model.tremor is not Tremor.FREE_C:
        term = w
    elif model.uses_sqrt:
        sq = w * w - c * c
        term = np.sqrt(np.where(sq > 0, sq, np.nan))
    else:
        term = w - c
    return np.where((term > 0) & (w > 0) & (c >= 0), term, np.nan)


def compute_id(model: Model, amplitude_mm, width_mm, c_mm=0.0):
    """Difficulty in bits, log2(A / width term + 1); NaN off the domain.

    `width_mm` is the already-derived width for the model's width source.
    Broadcasts, so an (n, 1) column of widths against a (g,) grid of c
    values gives an (n, g) table.
    """
    return _scalar(np.log2(amplitude_mm / width_term(model, width_mm, c_mm) + 1.0))


def model_widths(
    model: Model,
    summaries: Sequence[ConditionSummary],
    sigma_a_mm: float | None = None,
) -> np.ndarray:
    """Per-condition width terms for a model, before any c adjustment.

    NaN marks a condition whose width is undefined (sigma_obs <= sigma_a).
    """
    if model.width_kind is WidthKind.FINGER_ADJUSTED and sigma_a_mm is None:
        raise ValueError(f"{model.value} requires a sigma_a value")
    if model.width_kind is WidthKind.NOMINAL:
        return np.array([s.condition.width_mm for s in summaries], dtype=float)
    sigma = np.array([s.sigma_obs_mm for s in summaries], dtype=float)
    if model.width_kind is WidthKind.EFFECTIVE:
        return effective_width(sigma)
    return finger_width(sigma, sigma_a_mm)


def _scalar(x):
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x
