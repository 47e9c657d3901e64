"""Index-of-difficulty formulations and derived target widths.

Seven candidate formulations of ID = log2(A / width_term + 1) are
supported.  They differ in the width source: nominal W, effective
W_e = sqrt(2*pi*e) * sigma_obs, or tremor-adjusted
W_f = sqrt(2*pi*e*(sigma_obs^2 - sigma_a^2)).  They also differ in the
tremor treatment: none, a free parameter c in W - c or sqrt(W^2 - c^2), or
a given tremor spread.  Each ``Model`` member carries its own definition.

Every formula here takes floats or numpy arrays and broadcasts.  Where a
width term is not positive (sigma_obs <= sigma_a for m7; w <= 0, c < 0 or
c at least the width for the c-forms) the result is NaN, not an exception:
batch evaluation over a whole dataset must find every failing condition so
a model can be reported unusable.  A spread off its domain (sigma_obs finite
and > 0, sigma_a finite and >= 0) is bad input instead: ValidationError.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .datamodel import ConditionSummary, finite_rule, require
from .errors import ValidationError

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
    """The seven candidate difficulty formulations.

    Each member carries its width source (``width_kind``), its tremor
    treatment (``tremor``), its report label (``description``) and its
    formula; ``.value`` is the token ``m1``..``m7``.
    """

    M1_BASELINE = ("m1", WidthKind.NOMINAL, Tremor.NONE,
                   "#1 Baseline", "log2(A/W + 1)")
    M2_EFFECTIVE = ("m2", WidthKind.EFFECTIVE, Tremor.NONE,
                    "#2 Effective width", "log2(A/We + 1)")
    M3_WE_NOSQRT_C = ("m3", WidthKind.EFFECTIVE, Tremor.FREE_C,
                      "#3 Param. opt. (We, no sqrt)", "log2(A/(We - c) + 1)")
    M4_WE_SQRT_C = ("m4", WidthKind.EFFECTIVE, Tremor.FREE_C,
                    "#4 Param. opt. (We, sqrt)", "log2(A/sqrt(We^2 - c^2) + 1)")
    M5_W_NOSQRT_C = ("m5", WidthKind.NOMINAL, Tremor.FREE_C,
                     "#5 Param. opt. (W, no sqrt)", "log2(A/(W - c) + 1)")
    M6_W_SQRT_C = ("m6", WidthKind.NOMINAL, Tremor.FREE_C,
                   "#6 Param. opt. (W, sqrt)", "log2(A/sqrt(W^2 - c^2) + 1)")
    M7_GIVEN_SIGMA_A = ("m7", WidthKind.FINGER_ADJUSTED, Tremor.GIVEN_SIGMA_A,
                        "#7 Given tremor spread", "log2(A/Wf + 1)")

    def __new__(cls, value, width_kind, tremor, description, formula):
        member = object.__new__(cls)
        member._value_ = value
        member.width_kind = width_kind
        member.tremor = tremor
        member.description = description
        member.formula = formula
        return member

    @property
    def uses_sqrt(self) -> bool:
        return self in (Model.M4_WE_SQRT_C, Model.M6_W_SQRT_C)

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


def _spreads(sigma_obs_mm, sigma_a_mm=0.0):
    """sigma_obs and sigma_a as float arrays, after the spread rules (0 is
    no tremor)."""
    sigma_obs, sigma_a = (np.asarray(v, dtype=float) for v in (sigma_obs_mm, sigma_a_mm))
    require(finite_rule("sigma_obs > 0", sigma_obs))
    require(finite_rule("sigma_a >= 0", sigma_a))
    return sigma_obs, sigma_a


def effective_width(sigma_obs_mm):
    """Width covering ~96% of normally spread endpoints: sqrt(2*pi*e)*sigma."""
    return _effective(_spreads(sigma_obs_mm)[0])


def _effective(sigma_obs: np.ndarray):
    """``effective_width`` of checked spreads; inf past about 4.35e307 mm."""
    with np.errstate(over="ignore"):
        return _scalar(SQRT_2PI_E * sigma_obs)


def finger_width(sigma_obs_mm, sigma_a_mm):
    """Tremor-adjusted effective width sqrt(2*pi*e*(sigma_obs^2 - sigma_a^2)).

    NaN where sigma_obs^2 <= sigma_a^2.  A zero tremor spread gives the
    plain effective width exactly, since sqrt(x*x) == x.  Where a square
    overflows, the root is sqrt(sigma_obs - sigma_a) * sqrt(sigma_obs + sigma_a).
    """
    sigma_obs, sigma_a = _spreads(sigma_obs_mm, sigma_a_mm)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, and so not > 0
        gap = sigma_obs * sigma_obs - sigma_a * sigma_a
        root = np.where(np.isfinite(gap), np.sqrt(np.where(gap > 0, gap, np.nan)),
                        np.sqrt(np.where(sigma_obs > sigma_a, sigma_obs - sigma_a, np.nan))
                        * np.sqrt(sigma_obs + sigma_a))
        return _scalar(SQRT_2PI_E * root)


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
    return _difficulty(amplitude_mm, width_term(model, width_mm, c_mm))


def id_and_slope(model: Model, amplitude_mm, width_mm, c_mm):
    """`compute_id` of a free-c model and its d id/dv from one width term t:
    A * r / (t * (A + t) * ln 2) with r = -dt/dv, v = c and r = 1 for
    W - c, v = c^2 and r = 1 / (2t) for sqrt(W^2 - c^2), whose d id/dc is 0
    at c = 0.  The slope is NaN exactly where the difficulty is; both
    broadcast as compute_id does.  The model gives only the form: m3 and
    m5 (or m4 and m6) share a kernel, their widths told apart by width_mm."""
    t = width_term(model, width_mm, c_mm)
    r = 0.5 / t if model.uses_sqrt else 1.0
    return (_difficulty(amplitude_mm, t),
            _scalar(amplitude_mm * r / (t * (amplitude_mm + t) * math.log(2.0))))


def _difficulty(amplitude_mm, term):
    """log2(A / term + 1), the one difficulty expression."""
    return _scalar(np.log2(amplitude_mm / term + 1.0))


def model_widths(
    model: Model,
    summaries: Sequence[ConditionSummary],
    sigma_a_mm: float | None = None,
) -> np.ndarray:
    """Per-condition width terms for a model, before any c adjustment.

    NaN marks a condition whose width is undefined (sigma_obs <= sigma_a).
    m7 needs a sigma_a, and any model checks a given one; else ValidationError.
    """
    sigma_obs = [s.sigma_obs_mm for s in summaries]
    if model.width_kind is WidthKind.FINGER_ADJUSTED:
        if sigma_a_mm is None:
            raise ValidationError(f"{model.value} requires a sigma_a value")
        return finger_width(sigma_obs, sigma_a_mm)  # which checks both spreads
    sigma, _ = _spreads(sigma_obs, 0.0 if sigma_a_mm is None else sigma_a_mm)
    if model.width_kind is WidthKind.NOMINAL:
        return np.array([s.condition.width_mm for s in summaries], dtype=float)
    return _effective(sigma)


def _scalar(x):
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x
