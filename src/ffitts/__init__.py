"""Fitts / FFitts-law movement-time modeling for touch pointing data.

Fits the family of difficulty formulations (nominal, effective, and
tremor-adjusted target widths; free or given tremor term) to per-condition
pointing data, estimates the finger-tremor spread by calibration and
intercept methods, ranks models by R^2 / adjusted R^2 / AIC / BIC /
cross-validated RMSE, and simulates endpoint data under the dual-Gaussian
endpoint model for validation.
"""

from .datamodel import (
    AxisMode,
    Condition,
    ConditionSummary,
    Dataset,
    Dimensionality,
    FirstTaps,
    SigmaEstimate,
    SigmaMethod,
    TapTable,
    TrialRecord,
    aggregate,
    first_taps,
)
from .errors import (
    DegenerateConditionError,
    DegenerateDataError,
    DuplicateConditionError,
    EmptyDatasetError,
    FfittsError,
    NonPhysicalInterceptError,
    ParseError,
    SingularFitError,
    UnknownDatasetError,
    UnsupportedSampleSizeError,
    ValidationError,
)
from .fitting import (
    FitResult,
    OlsFit,
    PerCondition,
    SelectionReport,
    compare,
    fit_model,
    information_criteria,
    loocv_rmse,
    ols_fit,
    optimize_c,
)
from .idmodels import (
    SQRT_2PI_E,
    Model,
    Tremor,
    WidthKind,
    compute_id,
    effective_width,
    finger_width,
    model_widths,
)
from .ingestion import (
    AGGREGATE_CSV_COLUMNS,
    EMBEDDED_NAMES,
    TRIAL_CSV_COLUMNS,
    embedded,
    load_aggregate_csv,
    load_trials_csv,
    write_aggregate_csv,
    write_trials_csv,
)
from .sigma import (
    CalibrationMode,
    InterceptFit,
    NormalityResult,
    normality_check,
    sigma_from_calibration,
    sigma_from_intercept,
)
from .simulator import (
    NORMAL_ALGORITHM,
    MovementTimeModel,
    SimulatorConfig,
    config_metadata,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_CSV_COLUMNS",
    "AxisMode",
    "CalibrationMode",
    "Condition",
    "ConditionSummary",
    "Dataset",
    "DegenerateConditionError",
    "DegenerateDataError",
    "Dimensionality",
    "DuplicateConditionError",
    "EMBEDDED_NAMES",
    "EmptyDatasetError",
    "FfittsError",
    "FirstTaps",
    "FitResult",
    "InterceptFit",
    "Model",
    "MovementTimeModel",
    "NORMAL_ALGORITHM",
    "NonPhysicalInterceptError",
    "NormalityResult",
    "OlsFit",
    "ParseError",
    "PerCondition",
    "SelectionReport",
    "SigmaEstimate",
    "SigmaMethod",
    "SimulatorConfig",
    "SingularFitError",
    "SQRT_2PI_E",
    "TRIAL_CSV_COLUMNS",
    "Tremor",
    "TapTable",
    "TrialRecord",
    "UnknownDatasetError",
    "UnsupportedSampleSizeError",
    "ValidationError",
    "WidthKind",
    "aggregate",
    "compare",
    "compute_id",
    "config_metadata",
    "effective_width",
    "embedded",
    "finger_width",
    "first_taps",
    "fit_model",
    "generate",
    "information_criteria",
    "load_aggregate_csv",
    "load_trials_csv",
    "loocv_rmse",
    "model_widths",
    "normality_check",
    "ols_fit",
    "optimize_c",
    "sigma_from_calibration",
    "sigma_from_intercept",
    "write_aggregate_csv",
    "write_trials_csv",
]
