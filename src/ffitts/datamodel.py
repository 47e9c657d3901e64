"""Core domain types and trial-to-condition aggregation.

A pointing study produces one row per tap, held as a ``TapTable``.
Everything downstream (tremor estimation, difficulty models, fitting)
works on per-condition summaries: mean movement time and endpoint spread
per (amplitude, width) pair.  This module defines those value types and
the aggregation between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterator

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
    """How a tremor spread value was obtained, with its report label."""

    CALIB_RAPID_ACCURATE = ("calib-ra", "Calib (R&A)")
    CALIB_ACCURACY_ONLY = ("calib-acc", "Calib (Acc)")
    INTERCEPT_FITTS = ("intercept-fitts", "Fitts")
    INTERCEPT_RANDOM_A = ("intercept-random", "Random A")
    USER_GIVEN = ("user", "Given")

    def __new__(cls, value, label):
        member = str.__new__(cls, value)
        member._value_ = value
        member.label = label
        return member


#: Taps farther than this from the target center (mm) are outliers.
OUTLIER_RADIUS_MM = 15.0


def finite_rule(rule: str, values):
    """Where ``values`` (a number or an array) break ``rule``, a name alone
    ("a_ms": finite) or a name then "> 0" or ">= 0" ("width > 0"; NaN and
    infinities break every rule), as a bool mask, with the message for bad
    element i: the one wording of the rule."""
    strict, low, says = _parsed(rule)
    v = np.asarray(values)
    return (~((v > low if strict else v >= low) & (v < np.inf)),
            lambda i: f"{says}, got {v.item(i)}")


def _parsed(rule: str) -> tuple[bool, float, str]:
    """(strict, lower bound, wording) of a ``finite_rule`` rule."""
    if not rule.endswith((" > 0", " >= 0")):
        return True, -math.inf, f"{rule} must be finite"
    name, op, _ = rule.rsplit(" ", 2)
    return op == ">", 0.0, f"{name} must be finite and {op} 0"


def require(*rules) -> None:
    """Raise ValidationError for the first element that breaks one of the
    (bad mask, message for element i) ``rules``, worded by the first rule it
    breaks; an array's element is named as ``row``."""
    if any(mask.any() for mask, _ in rules):
        masks = np.broadcast_arrays(*(mask for mask, _ in rules))
        bad = np.logical_or.reduce(masks)
        i = int(np.argmax(bad))
        say = next(say for mask, (_, say) in zip(masks, rules) if mask.flat[i])
        raise ValidationError(say(i), row=i if np.ndim(bad) else None)


@dataclass(frozen=True, slots=True)
class Condition:
    """One task condition: target distance A and target width W, in mm."""

    amplitude_mm: float
    width_mm: float

    def __post_init__(self):
        require(finite_rule("amplitude > 0", self.amplitude_mm),
                finite_rule("width > 0", self.width_mm))

    def __str__(self) -> str:
        return f"(A={self.amplitude_mm:g}, W={self.width_mm:g})"


@dataclass(slots=True)
class TrialRecord:
    """One tap, as a row of a ``TapTable``.  Touch coordinates are take-off
    points in mm.

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


#: The columns of a TapTable, in tap-log CSV order, with their dtypes.
TAP_COLUMNS = {
    "participant": str, "block": np.int64, "trial": np.int64,
    "amplitude_mm": float, "width_mm": float, "target_x_mm": float, "target_y_mm": float,
    "touch_x_mm": float, "touch_y_mm": float, "mt_ms": float,
    "tap_index": np.int64, "is_practice": bool,
}

#: Taps turned into or out of Python values at a time (CSV read and write,
#: iteration), so those values never exist for a whole log at once.  Small
#: enough that a block's row lists and tuples (about two containers per row)
#: die young: at 8192 rows they outlived two young collections, reached the
#: oldest generation and set off full collections, each a scan of the whole
#: heap (numpy, the log being built) and together a third of a load.
BLOCK_ROWS = 512


@dataclass(frozen=True, slots=True, eq=False)
class TapTable:
    """A tap log as parallel arrays, one element per tap, in log order.

    The constructor converts each column to its ``TAP_COLUMNS`` dtype and
    holds the per-tap rules; a value that does not convert exactly (back to
    itself) or a broken rule raises ValidationError naming the first bad
    row (its ``row``).  A participant ID may not start with '#',
    carry surrounding whitespace or contain a line break (CR or LF), which
    the tap CSV would not keep.  Iterating yields one ``TrialRecord`` per
    tap.
    """

    participant: np.ndarray
    block: np.ndarray
    trial: np.ndarray
    amplitude_mm: np.ndarray
    width_mm: np.ndarray
    target_x_mm: np.ndarray
    target_y_mm: np.ndarray
    touch_x_mm: np.ndarray
    touch_y_mm: np.ndarray
    mt_ms: np.ndarray
    tap_index: np.ndarray
    is_practice: np.ndarray

    def __post_init__(self):
        for name, dtype in TAP_COLUMNS.items():
            object.__setattr__(self, name, _column(name, getattr(self, name), dtype))
        pid, a, w, mt, tap = (self.participant, self.amplitude_mm, self.width_mm,
                              self.mt_ms, self.tap_index)
        if mt.ndim != 1 or any(getattr(self, n).shape != mt.shape for n in TAP_COLUMNS):
            raise ValidationError("tap columns must be 1-D arrays of one length")
        require(  # (bad rows, message for row i), in the order a row is checked
            (np.strings.startswith(pid, "#") | (np.strings.strip(pid) != pid)
             | (np.strings.find(pid, "\r") >= 0) | (np.strings.find(pid, "\n") >= 0),
             lambda i: f"participant ID must not start with '#', have surrounding "
                       f"whitespace or contain a line break, got {str(pid[i])!r}"),
            finite_rule("amplitude > 0", a),
            finite_rule("width > 0", w),
            *(finite_rule(n, getattr(self, n))
              for n in ("target_x_mm", "target_y_mm", "touch_x_mm", "touch_y_mm")),
            finite_rule("mt_ms >= 0", mt),
            (tap < 1, lambda i: f"tap_index must be >= 1, got {int(tap[i])}"),
        )

    def __len__(self) -> int:
        return len(self.mt_ms)

    def __iter__(self) -> Iterator[TrialRecord]:
        condition = cache(Condition)
        for start in range(0, len(self), BLOCK_ROWS):
            block = (getattr(self, name)[start:start + BLOCK_ROWS].tolist()
                     for name in TAP_COLUMNS)
            for pid, blk, trial, a, w, tx, ty, x, y, mt, tap, practice in zip(*block):
                yield TrialRecord(pid, condition(a, w), tx, ty, x, y, mt, tap, practice,
                                  blk, trial)


def _column(name: str, values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype``, which each value must convert to
    exactly: "false" to bool, 2.7 or NaN to int64 raises ValidationError."""
    given = np.asarray(values)
    if not np.can_cast(given.dtype, dtype, "equiv"):  # the reader's columns are typed
        require((_lost(given, dtype),
                 lambda i: f"{name} must convert exactly to {np.dtype(dtype)}, "
                           f"got {given.item(i)!r}"))
    return given.astype(dtype, copy=False)


def _lost(given: np.ndarray, dtype) -> np.ndarray:
    """Where the values of ``given`` do not convert to ``dtype`` and back to
    themselves."""
    try:
        with np.errstate(invalid="ignore"):  # NaN or an overflow casts to garbage
            return given.astype(dtype).astype(given.dtype) != given
    except (TypeError, ValueError, OverflowError):  # a value does not convert
        if not given.ndim:
            return np.True_
        return np.array([_lost(np.asarray(v), dtype) for v in given.ravel().tolist()])


@dataclass(frozen=True, slots=True)
class ConditionSummary:
    """Aggregated statistics for one condition."""

    condition: Condition
    mt_ms: float
    sigma_obs_mm: float
    n_trials: int = 2
    error_rate: float = 0.0

    def __post_init__(self):
        require(finite_rule("mean MT > 0", self.mt_ms),
                finite_rule("endpoint spread > 0", self.sigma_obs_mm))
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
        require(finite_rule("sigma_a > 0", self.sigma_a_mm))


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


def first_taps(taps: TapTable, outlier_radius_mm: float = OUTLIER_RADIUS_MM) -> FirstTaps:
    """Select the taps that every per-trial statistic is computed from.

    Practice taps are dropped, and so are taps farther than
    ``outlier_radius_mm`` (Euclidean) from the target center.  Each
    retained first tap (tap_index 1) defines one trial; the trial is
    ``retapped`` (an error) when the log holds a retained re-tap with the
    same condition and (participant, block, trial) key, before or after it.
    """
    if not outlier_radius_mm > 0:
        raise ValidationError(f"outlier radius must be > 0, got {outlier_radius_mm}")
    live = ~taps.is_practice
    amps, widths = taps.amplitude_mm[live], taps.width_mm[live]
    c = _group_ids(amps, widths)  # condition ranks, sorted by (A, W)
    at = np.unique(c, return_index=True)[1]
    pid, block, trial, tap_index = (
        col[live] for col in (taps.participant, taps.block, taps.trial, taps.tap_index)
    )
    mt = taps.mt_ms[live]
    with np.errstate(over="ignore"):  # an overflowed deviation is inf: an outlier
        dx = taps.touch_x_mm[live] - taps.target_x_mm[live]
        dy = taps.touch_y_mm[live] - taps.target_y_mm[live]

    keep = np.hypot(dx, dy) <= outlier_radius_mm
    first = np.flatnonzero(keep & (tap_index == 1))
    retap = keep & (tap_index > 1)
    retapped = np.zeros(len(first), dtype=bool)
    if retap.any():
        unit = _group_ids(c, pid, block, trial)
        retapped = np.isin(unit[first], unit[retap])

    return FirstTaps(
        conditions=tuple(map(Condition, amps[at].tolist(), widths[at].tolist())),
        condition=c[first],
        participant=pid[first],
        block=block[first],
        trial=trial[first],
        mt_ms=mt[first],
        dx_mm=dx[first],
        dy_mm=dy[first],
        retapped=retapped,
    )


def _group_ids(*columns: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows of the columns, ordered
    lexicographically (first column first)."""
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        values, codes = np.unique(col, return_inverse=True)
        ids = np.unique(ids * len(values) + codes, return_inverse=True)[1]
    return ids


def aggregate(
    taps: TapTable,
    axis_mode: AxisMode = AxisMode.Y,
    outlier_radius_mm: float = OUTLIER_RADIUS_MM,
) -> list[ConditionSummary]:
    """Reduce a tap log to per-condition summaries.

    The ``summarize`` of the trials that ``first_taps`` selects; see both
    for the rules and the errors raised.
    """
    if not len(taps):
        raise ValidationError("no trials to aggregate")
    return summarize(first_taps(taps, outlier_radius_mm), axis_mode)


def summarize(taps: FirstTaps, axis_mode: AxisMode) -> list[ConditionSummary]:
    """Per-condition summaries of a first-tap selection.

    MT is the mean movement time of a condition's trials, the endpoint
    spread is the ``endpoint_spread`` of their deviations along the chosen
    axis (both axes in bivariate mode), and the error rate is the retapped
    fraction.

    Every sum is exact (``math.fsum``), so the summaries do not depend on
    the order of the taps.

    Raises DegenerateConditionError for any live condition with fewer than
    two retained trials (none included) or zero endpoint variance.
    """
    if not taps.conditions:
        raise ValidationError("all trials are flagged as practice")

    order = np.argsort(taps.condition)
    counts = np.bincount(taps.condition, minlength=len(taps.conditions))
    groups = np.split(order, np.cumsum(counts)[:-1])
    axes = {AxisMode.X: (taps.dx_mm,), AxisMode.Y: (taps.dy_mm,),
            AxisMode.BIVARIATE: (taps.dx_mm, taps.dy_mm)}[axis_mode]

    summaries = []
    for cond, g in zip(taps.conditions, groups):
        n = len(g)
        if n < 2:
            raise DegenerateConditionError(
                f"only {n} retained trial(s)", cond.amplitude_mm, cond.width_mm
            )
        sigma = endpoint_spread(*(d[g] for d in axes))
        if sigma <= 0:
            raise DegenerateConditionError(
                "zero endpoint variance", cond.amplitude_mm, cond.width_mm
            )
        summaries.append(
            ConditionSummary(
                condition=cond,
                mt_ms=_fsum(taps.mt_ms[g]) / n,
                sigma_obs_mm=sigma,
                n_trials=n,
                error_rate=int(np.count_nonzero(taps.retapped[g])) / n,
            )
        )
    return summaries


def endpoint_spread(*axes) -> float:
    """Spread of signed endpoint deviations in mm, one array per axis: the
    sample SD (n-1) of one axis, or sqrt((var_x + var_y) / 2), the per-axis
    RMS spread, of two.  Each variance is the exact sum of the squared
    deviations from the exact mean, over n - 1, so the spread does not depend
    on the order of the deviations.  Observed and calibration spreads both
    come from here."""
    return math.sqrt(sum(map(_variance, axes)) / len(axes))


def _variance(d: np.ndarray) -> float:
    """Sample variance (n-1) of ``d`` from exact sums."""
    dev = d - _fsum(d) / d.size
    return _fsum(dev * dev) / (d.size - 1)


def _fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of ``values`` (``math.fsum``), the same in
    any order.  Where fsum raises, the non-finite result instead: nan for
    inf + -inf; for partial sums past the float range, inf with the sign of
    the mean, or the mean itself where a nan or inf among the values makes
    it one."""
    try:
        return math.fsum(memoryview(values))
    except ValueError:  # inf + -inf
        return math.nan
    except OverflowError:
        mean = _fsum(values / values.size)
        return math.copysign(math.inf, mean) if math.isfinite(mean) else mean


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each probability in ``p``, all in the
    open interval (0, 1); 0, 1 and NaN are not handled.

    A port of Cephes' ``ndtri`` (S. L. Moshier), the algorithm behind
    SciPy's ``ndtri``: the same rational approximations, split points and
    float64 operation order, so every quantile has the same bits.  Its
    two tail logarithms go through ``math.log``, the C library's log that
    Cephes calls, because numpy's vectorised log can differ from it in the
    last bit.
    """
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    # exp(-2) < y < 1 - exp(-2): a rational function of (y - 0.5)^2
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _SQRT_2PI
    # the tails, in z = 1/x with x = sqrt(-2 log y): one approximation for
    # x < 8 (y > exp(-32)), another below
    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0
    x1[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _polevl(x, coefs):
    """The polynomial with ``coefs``, highest order first, at ``x`` (a number
    or an array): Horner's rule, one multiply and one add a coefficient."""
    value = coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _log(values: np.ndarray) -> np.ndarray:
    """The natural log of each element through ``math.log``."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


# Cephes ndtri's coefficients, highest order first; the leading 1.0 of each
# denominator is Cephes' p1evl, whose first step 1.0 * x + c is x + c
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
