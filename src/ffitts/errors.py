"""Exception types shared across the package."""

from __future__ import annotations


class FfittsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FfittsError):
    """An input violates a documented invariant (non-positive width, etc.).

    ``row`` is the index of the offending tap-table row or array element,
    if any, and ``reason`` the message without it.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        self.reason = message
        super().__init__(message if row is None else f"row {row}: {message}")


class ParseError(FfittsError):
    """A CSV file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyDatasetError(FfittsError):
    """A file or input stream contained a header but no data rows."""


class DuplicateConditionError(ParseError):
    """The same (A, W) pair appeared more than once in an aggregate input."""


class UnknownDatasetError(FfittsError):
    """Requested dataset name is not registered."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown dataset {name!r}; available: {', '.join(available)}"
        )


class DegenerateDataError(FfittsError):
    """A sample is too small or has zero variance for the requested statistic."""


class DegenerateConditionError(DegenerateDataError):
    """A task condition has too few trials or zero endpoint spread."""

    def __init__(self, message: str, amplitude_mm: float, width_mm: float):
        self.amplitude_mm = amplitude_mm
        self.width_mm = width_mm
        super().__init__(f"condition (A={amplitude_mm:g}, W={width_mm:g}): {message}")


class NonPhysicalInterceptError(FfittsError):
    """Endpoint-variance regression intercept is not positive, so no tremor
    spread can be extracted (fine-probe-like data)."""


class UnsupportedSampleSizeError(FfittsError):
    """Sample size is outside the supported range of a statistical test."""


class SingularFitError(FfittsError):
    """Least-squares fit is rank deficient (constant predictor)."""
