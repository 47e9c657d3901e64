"""CSV input/output and the bundled reference datasets.

Two dataset flavors are supported:

* tap-level trial logs (one row per tap), schema in ``TRIAL_CSV_COLUMNS``;
* pre-aggregated condition summaries, schema in ``AGGREGATE_CSV_COLUMNS``.

The bundled datasets "paper-1d" and "paper-2d" hold the published
condition-level measurements of a 1D and a 2D smartphone touch-pointing
study (4 amplitudes x 5 widths, 12 participants, 16 repetitions), together
with the four tremor-spread estimates reported for each study.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path
from typing import IO, Iterable

from .datamodel import (
    Condition,
    ConditionSummary,
    Dataset,
    Dimensionality,
    SigmaEstimate,
    SigmaMethod,
    TrialRecord,
)
from .errors import (
    DuplicateConditionError,
    EmptyDatasetError,
    ParseError,
    UnknownDatasetError,
    ValidationError,
)

TRIAL_CSV_COLUMNS = [
    "participant", "block", "trial", "A_mm", "W_mm",
    "target_x_mm", "target_y_mm", "touch_x_mm", "touch_y_mm",
    "mt_ms", "tap_index", "is_practice",
]

AGGREGATE_CSV_COLUMNS = ["A_mm", "W_mm", "mt_ms", "sigma_obs_mm"]
# optional extras preserved by write_aggregate_csv round-trips
_AGGREGATE_OPTIONAL = ["n_trials", "error_rate"]

_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no"}


def _parse_bool(text: str, line: int) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ParseError(f"expected boolean, got {text!r}", line)


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"column {column!r}: not a finite number: {text!r}", line)
    return value


def _parse_int(text: str, column: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"column {column!r}: not an integer: {text!r}", line) from None


def _open_rows(path: str | Path) -> Iterable[tuple[int, list[str]]]:
    """Yield (1-based line number, fields); '#'-prefixed lines are metadata.

    The path "-" reads from stdin, so simulated logs can be piped through.
    """
    if str(path) == "-":
        yield from _iter_rows(sys.stdin)
        return
    with open(path, newline="", encoding="utf-8") as fh:
        yield from _iter_rows(fh)


def _iter_rows(fh: IO[str]) -> Iterable[tuple[int, list[str]]]:
    reader = csv.reader(fh)
    for i, row in enumerate(reader, start=1):
        if not row or (row[0].lstrip().startswith("#")):
            continue
        yield i, [c.strip() for c in row]


def load_trials_csv(path: str | Path) -> list[TrialRecord]:
    """Parse a tap-level log.  Practice rows are kept, flagged is_practice."""
    rows = _open_rows(path)
    try:
        header_line, header = next(iter_ := iter(rows))
    except StopIteration:
        raise EmptyDatasetError(f"{path}: no header row") from None
    if header != TRIAL_CSV_COLUMNS:
        raise ParseError(
            f"header mismatch: expected {','.join(TRIAL_CSV_COLUMNS)}", header_line
        )
    records = []
    for line, row in iter_:
        if len(row) != len(TRIAL_CSV_COLUMNS):
            raise ParseError(
                f"expected {len(TRIAL_CSV_COLUMNS)} fields, got {len(row)}", line
            )
        f = dict(zip(TRIAL_CSV_COLUMNS, row))
        try:
            records.append(
                TrialRecord(
                    participant_id=f["participant"],
                    block=_parse_int(f["block"], "block", line),
                    trial=_parse_int(f["trial"], "trial", line),
                    condition=Condition(
                        _parse_float(f["A_mm"], "A_mm", line),
                        _parse_float(f["W_mm"], "W_mm", line),
                    ),
                    target_x_mm=_parse_float(f["target_x_mm"], "target_x_mm", line),
                    target_y_mm=_parse_float(f["target_y_mm"], "target_y_mm", line),
                    touch_x_mm=_parse_float(f["touch_x_mm"], "touch_x_mm", line),
                    touch_y_mm=_parse_float(f["touch_y_mm"], "touch_y_mm", line),
                    mt_ms=_parse_float(f["mt_ms"], "mt_ms", line),
                    tap_index=_parse_int(f["tap_index"], "tap_index", line),
                    is_practice=_parse_bool(f["is_practice"], line),
                )
            )
        except ValidationError as exc:
            raise ParseError(str(exc), line) from None
    if not records:
        raise EmptyDatasetError(f"{path}: header but no data rows")
    return records


def write_trials_csv(
    records: list[TrialRecord],
    path: str | Path,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write tap records in the canonical schema.

    Metadata is emitted as leading '# key=value' comment lines, which
    load_trials_csv skips.  Output is deterministic for identical input.
    The path "-" writes to stdout, the mirror of reading "-" from stdin.
    """
    if str(path) == "-":
        _write_trials(sys.stdout, records, metadata)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_trials(fh, records, metadata)


def _write_trials(fh: IO[str], records, metadata) -> None:
    for key, value in (metadata or {}).items():
        fh.write(f"# {key}={value}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRIAL_CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.participant_id, r.block, r.trial,
            repr(r.condition.amplitude_mm), repr(r.condition.width_mm),
            repr(r.target_x_mm), repr(r.target_y_mm),
            repr(r.touch_x_mm), repr(r.touch_y_mm),
            repr(r.mt_ms), r.tap_index,
            "true" if r.is_practice else "false",
        ])


def load_aggregate_csv(
    path: str | Path,
    name: str | None = None,
    dimensionality: Dimensionality = Dimensionality.TWO_D,
) -> Dataset:
    """Load per-condition summaries.

    Requires columns A_mm, W_mm, mt_ms, sigma_obs_mm (any order); optional
    n_trials and error_rate columns are honored when present.
    """
    rows = _open_rows(path)
    try:
        header_line, header = next(iter_ := iter(rows))
    except StopIteration:
        raise EmptyDatasetError(f"{path}: no header row") from None
    missing = [c for c in AGGREGATE_CSV_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"missing column(s): {', '.join(missing)}", header_line)

    summaries = []
    seen: set[tuple[float, float]] = set()
    for line, row in iter_:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line)
        f = dict(zip(header, row))
        a = _parse_float(f["A_mm"], "A_mm", line)
        w = _parse_float(f["W_mm"], "W_mm", line)
        if (a, w) in seen:
            raise DuplicateConditionError(
                f"line {line}: duplicate condition (A={a:g}, W={w:g})"
            )
        seen.add((a, w))
        try:
            summaries.append(
                ConditionSummary(
                    condition=Condition(a, w),
                    mt_ms=_parse_float(f["mt_ms"], "mt_ms", line),
                    sigma_obs_mm=_parse_float(f["sigma_obs_mm"], "sigma_obs_mm", line),
                    n_trials=_parse_int(f["n_trials"], "n_trials", line)
                    if "n_trials" in f else 2,
                    error_rate=_parse_float(f["error_rate"], "error_rate", line)
                    if "error_rate" in f else 0.0,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
    if not summaries:
        raise EmptyDatasetError(f"{path}: header but no data rows")
    return Dataset(
        name=name or Path(path).stem,
        dimensionality=dimensionality,
        summaries=tuple(summaries),
    )


def write_aggregate_csv(dataset: Dataset, path: str | Path) -> None:
    """Write condition summaries; floats use repr so reload is exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_CSV_COLUMNS + _AGGREGATE_OPTIONAL)
        for s in dataset.summaries:
            writer.writerow([
                repr(s.condition.amplitude_mm), repr(s.condition.width_mm),
                repr(s.mt_ms), repr(s.sigma_obs_mm),
                s.n_trials, repr(s.error_rate),
            ])


def embedded(name: str) -> Dataset:
    """Return a bundled reference dataset ("paper-1d" or "paper-2d")."""
    if name not in _EMBEDDED:
        raise UnknownDatasetError(name, EMBEDDED_NAMES)
    return _EMBEDDED[name]


# ---------------------------------------------------------------------------
# Bundled reference data.  Condition order is amplitude-major:
# A in {20, 30, 45, 60} mm crossed with W in {2, 4, 6, 8, 10} mm.
# MT is in ms (printed as integers); endpoint spread in mm (3 significant
# figures).  Per-condition trial counts are the design counts (16 reps x 12
# participants); error rates replicate the study-level mean since
# per-condition rates were not published.
# ---------------------------------------------------------------------------

_AMPLITUDES = (20.0, 30.0, 45.0, 60.0)
_WIDTHS = (2.0, 4.0, 6.0, 8.0, 10.0)

_MT_1D = (
    444, 364, 328, 305, 298,
    489, 400, 353, 327, 315,
    529, 459, 400, 369, 347,
    602, 511, 436, 407, 393,
)
_SIGMA_OBS_1D = (
    0.69, 1.29, 2.16, 2.66, 2.24,
    0.899, 1.28, 1.31, 2.36, 2.33,
    0.757, 1.16, 1.56, 2.39, 2.83,
    0.942, 1.34, 2.13, 2.44, 3.16,
)
_MT_2D = (
    440, 373, 322, 294, 278,
    506, 410, 361, 345, 314,
    560, 476, 413, 368, 354,
    622, 517, 446, 407, 385,
)
_SIGMA_OBS_2D = (
    1.31, 1.51, 1.71, 1.88, 1.99,
    1.25, 1.33, 1.73, 2.03, 1.88,
    1.34, 1.51, 1.68, 2.01, 2.25,
    1.32, 1.49, 1.82, 2.12, 2.31,
)

# Tremor spreads as reported per study, at full reported precision.  The
# calibration values are means of per-participant SDs; the intercept values
# are square roots of the reported regression intercepts (mm^2).  Rounding
# these to display precision would flip borderline cells in the adjusted
# width matrices, so the catalog keeps all reported digits.
_SIGMA_A_1D = {
    SigmaMethod.CALIB_RAPID_ACCURATE: 0.8837,
    SigmaMethod.CALIB_ACCURACY_ONLY: 0.7362,
    SigmaMethod.INTERCEPT_FITTS: math.sqrt(0.9543),
    SigmaMethod.INTERCEPT_RANDOM_A: math.sqrt(1.0123),
}
_SIGMA_A_2D = {
    SigmaMethod.CALIB_RAPID_ACCURATE: 1.372,
    SigmaMethod.CALIB_ACCURACY_ONLY: 1.163,
    SigmaMethod.INTERCEPT_FITTS: math.sqrt(1.7593),
    SigmaMethod.INTERCEPT_RANDOM_A: math.sqrt(1.6155),
}


def _build_embedded(
    name: str,
    dim: Dimensionality,
    mt: tuple,
    sigma_obs: tuple,
    sigma_a: dict,
    error_rate: float,
) -> Dataset:
    conds = [Condition(a, w) for a in _AMPLITUDES for w in _WIDTHS]
    return Dataset(
        name=name,
        dimensionality=dim,
        summaries=tuple(
            ConditionSummary(
                condition=c,
                mt_ms=float(m),
                sigma_obs_mm=float(s),
                n_trials=192,
                error_rate=error_rate,
            )
            for c, m, s in zip(conds, mt, sigma_obs)
        ),
        sigma_a_catalog=tuple(
            SigmaEstimate(sigma_a_mm=v, method=k, source_dataset=name)
            for k, v in sigma_a.items()
        ),
    )


_EMBEDDED = {
    "paper-1d": _build_embedded(
        "paper-1d", Dimensionality.ONE_D, _MT_1D, _SIGMA_OBS_1D, _SIGMA_A_1D, 0.09046
    ),
    "paper-2d": _build_embedded(
        "paper-2d", Dimensionality.TWO_D, _MT_2D, _SIGMA_OBS_2D, _SIGMA_A_2D, 0.1791
    ),
}

#: Names of the bundled datasets, in listing order.
EMBEDDED_NAMES = tuple(_EMBEDDED)
