"""Monte Carlo endpoint generator under the dual-Gaussian endpoint model.

Each tap deviation is the sum of two independent zero-mean normal draws:
a width-proportional component with variance alpha * W^2 and an absolute
tremor component with variance sigma_a^2, so the generated spread obeys

    var(deviation) = alpha * W^2 + sigma_a^2.

Movement times follow a linear law over the baseline difficulty,
a + b * ``compute_id(Model.M1_BASELINE, A, W)`` (log2(A/W + 1)), plus
normal noise.

Determinism: conditions are processed in (A, W) order, each with its own
PCG64 stream spawned from the master seed, and normal variates come from
the inverse-CDF transform of that stream's uniforms (draw order per
condition: [x deviations in 2D,] y deviations, movement times).  A zero
spread (alpha, sigma_a or the MT noise) still draws its uniforms and scales
their quantiles by 0, so the other draws do not move; a deviation with no
spread at all is +0.0, never -0.0.  The quantile function is Cephes'
``ndtri`` (``datamodel._ndtri``), whose results are bit-identical to
SciPy's ``ndtri``.  A fixed config therefore reproduces the identical tap
table, and the scheme is documented enough to reproduce the distributions
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dimensionality, TapTable, _ndtri, finite_rule, require
from .errors import ValidationError
from .idmodels import Model, compute_id

#: Identifier recorded in emitted metadata for cross-checking generators.
NORMAL_ALGORITHM = "inverse-cdf(PCG64)"

_TINY = 1e-300  # floor for uniforms so ndtri never sees exactly 0
PARTICIPANT_ID = "sim"  # of every generated tap


@dataclass(frozen=True)
class MovementTimeModel:
    """Linear time law used for synthetic movement times."""

    a_ms: float = 100.0
    b_ms_per_bit: float = 90.0
    noise_sd_ms: float = 5.0

    def __post_init__(self):
        require(finite_rule("a_ms", self.a_ms), finite_rule("b_ms_per_bit", self.b_ms_per_bit),
                finite_rule("noise_sd_ms >= 0", self.noise_sd_ms))


@dataclass(frozen=True)
class SimulatorConfig:
    alpha: float
    sigma_a_mm: float
    widths_mm: tuple[float, ...]
    amplitudes_mm: tuple[float, ...]
    trials_per_condition: int
    seed: int = 0
    dimensionality: Dimensionality = Dimensionality.ONE_D
    mt_model: MovementTimeModel = field(default_factory=MovementTimeModel)

    def __post_init__(self):
        require(finite_rule("alpha >= 0", self.alpha),
                finite_rule("sigma_a_mm >= 0", self.sigma_a_mm))
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.trials_per_condition < 2:
            raise ValidationError("need >= 2 trials per condition")
        for name in ("widths_mm", "amplitudes_mm"):
            if not getattr(self, name):
                raise ValidationError(f"{name} must be nonempty")
            require(finite_rule(f"{name} > 0", getattr(self, name)))
            # plain floats: a numpy scalar's overflow would warn in generate
            values = tuple(map(float, getattr(self, name)))
            for i, v in enumerate(values):
                if v in values[:i]:  # its condition would be written twice
                    raise ValidationError(f"{name} must not repeat a value, got {v}", row=i)
            object.__setattr__(self, name, values)


def config_metadata(config: SimulatorConfig) -> dict[str, str]:
    """Flat key=value view of a config for CSV metadata headers."""
    return {
        "generator": "ffitts-simulate",
        "normal_algorithm": NORMAL_ALGORITHM,
        "alpha": repr(config.alpha),
        "sigma_a_mm": repr(config.sigma_a_mm),
        "widths_mm": ",".join(repr(w) for w in config.widths_mm),
        "amplitudes_mm": ",".join(repr(a) for a in config.amplitudes_mm),
        "trials_per_condition": str(config.trials_per_condition),
        "seed": str(config.seed),
        "dimensionality": config.dimensionality.value,
        "mt_a_ms": repr(config.mt_model.a_ms),
        "mt_b_ms_per_bit": repr(config.mt_model.b_ms_per_bit),
        "mt_noise_sd_ms": repr(config.mt_model.noise_sd_ms),
    }


def _normals(rng: np.random.Generator, n: int, sd: float) -> np.ndarray:
    return _ndtri(np.maximum(rng.random(n), _TINY)) * sd


def generate(config: SimulatorConfig) -> TapTable:
    """Generate the tap log of every (A, W) condition in the config.

    Output order is canonical: sorted by amplitude, width, trial index.
    Targets sit at the origin; touch coordinates are the deviations.
    """
    conditions = sorted((a, w) for a in config.amplitudes_mm for w in config.widths_mm)
    streams = np.random.SeedSequence(config.seed).spawn(len(conditions))
    n = config.trials_per_condition
    two_d = config.dimensionality is Dimensionality.TWO_D
    mtm = config.mt_model

    dev_x, dev_y, mt = [], [], []
    for (a, w), stream in zip(conditions, streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        sd_r = math.sqrt(config.alpha) * w
        for dev in (dev_x, dev_y) if two_d else (dev_y,):
            dev.append(_normals(rng, n, sd_r) + _normals(rng, n, config.sigma_a_mm) + 0.0)
        base_mt = mtm.a_ms + mtm.b_ms_per_bit * compute_id(Model.M1_BASELINE, a, w)
        mt.append(np.maximum(base_mt + _normals(rng, n, mtm.noise_sd_ms), 0.0))
    zeros = np.zeros(n * len(conditions))
    return TapTable(
        participant=np.full(len(zeros), PARTICIPANT_ID),
        block=zeros,
        trial=np.tile(np.arange(1, n + 1), len(conditions)),
        amplitude_mm=np.repeat([a for a, _ in conditions], n),
        width_mm=np.repeat([w for _, w in conditions], n),
        target_x_mm=zeros,
        target_y_mm=zeros,
        touch_x_mm=np.concatenate(dev_x) if two_d else zeros,
        touch_y_mm=np.concatenate(dev_y),
        mt_ms=np.concatenate(mt),
        tap_index=np.ones(len(zeros)),
        is_practice=zeros,
    )
