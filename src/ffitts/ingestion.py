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
import io
import math
import sys
import warnings
from contextlib import contextmanager
from itertools import chain, islice, repeat
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .datamodel import (
    BLOCK_ROWS,
    TAP_COLUMNS,
    Condition,
    ConditionSummary,
    Dataset,
    Dimensionality,
    SigmaEstimate,
    SigmaMethod,
    TapTable,
)
from .errors import (
    DuplicateConditionError,
    EmptyDatasetError,
    ParseError,
    UnknownDatasetError,
    ValidationError,
)

# the TapTable columns, with the amplitude and width under their short CSV names
TRIAL_CSV_COLUMNS = [{"amplitude_mm": "A_mm", "width_mm": "W_mm"}.get(name, name)
                     for name in TAP_COLUMNS]

AGGREGATE_CSV_COLUMNS = ["A_mm", "W_mm", "mt_ms", "sigma_obs_mm"]
# optional extras preserved by write_aggregate_csv round-trips
_AGGREGATE_OPTIONAL = ["n_trials", "error_rate"]

_BOOLS = {**dict.fromkeys(("true", "1", "yes"), True),
          **dict.fromkeys(("false", "0", "no"), False)}
_EXACT_BOOLS = {"true": True, "false": False}  # as write_trials_csv writes them


def _floats(texts) -> np.ndarray:
    values = np.fromiter(map(float, texts), float, len(texts))
    if not np.isfinite(values).all():
        raise ValueError("not finite")
    return values


def _ints(texts, dtype=np.int64) -> np.ndarray:
    return np.fromiter(map(int, texts), dtype, len(texts))


def _bools(texts) -> np.ndarray:
    try:  # "true" and "false" as written, or else any spelling of _BOOLS
        return np.fromiter(map(_EXACT_BOOLS.__getitem__, texts), bool, len(texts))
    except KeyError:
        return np.fromiter(map(_BOOLS.__getitem__, map(str.lower, map(str.strip, texts))),
                           bool, len(texts))


def _texts(texts) -> np.ndarray:
    """Stripped texts as a str array; numpy would drop a text's trailing
    NULs (``p1\\0`` would read as ``p1``), so a text ending in NUL raises."""
    stripped = list(map(str.strip, texts))
    if any(text.endswith("\0") for text in stripped):
        raise ValueError("ends in a NUL")
    return np.array(stripped)


# the text-to-array conversion of a column of each dtype; a bad field raises.
# Condition summaries keep n_trials a Python int (dtype int), unbounded.
_CONVERT = {str: _texts, bool: _bools, float: _floats, np.int64: _ints,
            int: lambda texts: _ints(texts, object)}


def source_name(path: str | Path) -> str:
    """How reports and errors name an input path: "<stdin>" for "-"."""
    return "<stdin>" if str(path) == "-" else str(path)


@contextmanager
def opened(path: str | Path, mode: str = "r") -> Iterator[IO[str]]:
    """The file at ``path`` as UTF-8 text with ``newline=""``, closed on exit;
    the path "-" is stdin when reading and stdout when writing, left open.
    Stdin is read into memory, so that its lines end where a file's would.
    Text read that is not UTF-8 is a ParseError naming the source."""
    try:
        if str(path) == "-":  # a stdin in UTF-8 mode escapes bytes that are not UTF-8
            yield (io.StringIO(sys.stdin.read().encode("utf-8", "surrogateescape")
                               .decode("utf-8"), newline="") if mode == "r" else sys.stdout)
            return
        with open(path, mode, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:  # the decoder reads ahead, so no line is named
        raise ParseError(f"{source_name(path)}: not UTF-8 text") from None


def _read(path: str | Path, trials: bool | None = None) -> TapTable | list[ConditionSummary]:
    """Read a tap log or condition summaries from CSV; the path "-" is stdin.

    One leading byte-order mark is ignored, the blank and '#' (metadata)
    lines before the header are read as plain text, where a quote opens no
    CSV field, and after it blank and '#' rows are skipped, by ``_records``
    alone.  When ``trials`` is None the header picks the kind: a first cell
    'participant' means a tap log.  The lines of a tap log that
    ``_bulk_taps`` reads exactly, one record per line, are read by it, the
    rest by the csv.reader path (``_block``), from the first chunk with a
    blank or '#' line, say, on.  Both stop at the first row that does not
    convert; the rows before it become one TapTable or the list of
    ConditionSummary, whose rules are checked once, so the first bad line is
    named, whichever path read it.
    """
    blocks, error = [], None
    with opened(path) as fh:
        line, before = fh.readline().removeprefix("\ufeff"), 0
        while line and (not line.rstrip("\r\n") or line.lstrip().startswith("#")):
            line, before = fh.readline(), before + 1
        lines = chain([line], fh)
        reader = csv.reader(lines)
        rows = _records(reader, before)
        header_line, header = next(rows, (None, None))
        if header is None:
            raise EmptyDatasetError(f"{source_name(path)}: no header row")
        if isinstance(header[0], ParseError):
            raise header[0]
        header = [name.strip() for name in header]
        trials = header[0] == "participant" if trials is None else trials
        if trials:
            if header != TRIAL_CSV_COLUMNS:
                raise ParseError(f"header mismatch: expected {','.join(TRIAL_CSV_COLUMNS)}",
                                 header_line)
            names, dtypes = TRIAL_CSV_COLUMNS, TAP_COLUMNS.values()
            blocks, lines, before = _bulk_taps(lines, before + reader.line_num)
            rows = _records(csv.reader(lines), before)
        else:
            missing = [c for c in AGGREGATE_CSV_COLUMNS if c not in header]
            if missing:
                raise ParseError(f"missing column(s): {', '.join(missing)}", header_line)
            names = AGGREGATE_CSV_COLUMNS + [c for c in _AGGREGATE_OPTIONAL if c in header]
            dtypes = [int if name == "n_trials" else float for name in names]
        # a repeated header name reads its last column
        index = {name: i for i, name in enumerate(header)}
        columns = [(name, index[name], dtype) for name, dtype in zip(names, dtypes)]
        for chunk in iter(lambda: list(islice(rows, BLOCK_ROWS)), []):
            block, error = _block(*zip(*chunk), len(header), columns)
            blocks.append(block)
            if error:
                break
    if not blocks:
        raise EmptyDatasetError(f"{source_name(path)}: header but no data rows")
    numbers, arrays = zip(*blocks)
    arrays = map(np.concatenate, zip(*arrays))
    try:
        read = TapTable(*arrays) if trials else _summaries(names, chain(*numbers), arrays)
    except ValidationError as exc:  # a tap rule
        raise ParseError(exc.reason, list(chain(*numbers))[exc.row]) from None
    if error:
        raise error
    return read


# what np.loadtxt could read unlike csv.reader, float() and int(): a quote,
# which numpy takes literally, the separators \x1c-\x1f, which it strips
# around a number, and NUL, which no tap log holds; and '#', which may start
# a metadata row that only _records skips
_NOT_BULK = '"#\0\x1c\x1d\x1e\x1f'


def _stripped(texts: np.ndarray) -> np.ndarray:
    """``_CONVERT[str]`` of an object array of texts without a NUL, done on
    the whole array: the stripped texts as a str array as wide as the widest."""
    stripped = np.strings.strip(texts.astype(str))
    return stripped.astype(f"U{np.strings.str_len(stripped).max(initial=1)}")


# the conversion of each text column of a tap-log row as np.loadtxt reads it,
# as Python strings (a fixed-width str field would truncate)
_BULK_CONVERT = {str: _stripped, bool: _bools}
_BULK_ROW = np.dtype([(name, object if dtype in _BULK_CONVERT else dtype)
                      for name, dtype in TAP_COLUMNS.items()])
_FLOAT_COLUMNS = [name for name, dtype in TAP_COLUMNS.items() if dtype is float]


def _bulk_taps(lines, before: int) -> tuple[list, Iterator[str], int]:
    """The blocks of the tap-log data ``lines`` that np.loadtxt reads,
    BLOCK_ROWS lines at a time, up to the first chunk it cannot read exactly.

    Returns those blocks, as ``_block`` gives them, the lines from that
    chunk on and the number of lines before them (``before`` being those
    before ``lines``).  On lines without a character of _NOT_BULK or a line
    beyond csv's field limit, a CSV record is one line split on ',', which
    np.loadtxt reads in C; its numbers come out as float() and int() read
    them, bit for bit.  A chunk with such a character or line, a blank line
    (numpy would skip it, so it gives fewer rows than lines), a field that
    does not read, a non-finite number (only _floats words its error) or a
    numpy warning is left to the csv.reader path, so a numpy that reads an
    integer field such as '2.5' via a float, and only warns, leaves it too.
    """
    blocks, limit = [], csv.field_size_limit()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chunk in iter(lambda: list(islice(lines, BLOCK_ROWS)), []):
            text = "".join(chunk)
            try:
                if any(c in text for c in _NOT_BULK) or len(text) > limit < max(map(len, chunk)):
                    raise ValueError("not a plain chunk")
                rows = np.loadtxt(chunk, _BULK_ROW, delimiter=",", comments=None,
                                  quotechar=None, ndmin=1)
                if len(rows) != len(chunk):
                    raise ValueError("not one row per line")
                # the sum is finite only if every number is; an overflow warns
                if not np.isfinite(sum(rows[name].sum() for name in _FLOAT_COLUMNS)):
                    raise ValueError("not finite")
                # copies, so that the rows and their strings go
                blocks.append((range(before + 1, before + 1 + len(chunk)), [
                    _BULK_CONVERT.get(dtype, np.copy)(rows[name])
                    for name, dtype in TAP_COLUMNS.items()]))
            except (ValueError, KeyError, OverflowError, Warning):
                lines = chain(chunk, lines)
                break
            before += len(chunk)
    return blocks, lines, before


def _records(reader, before: int = 0) -> Iterator[tuple[int, list]]:
    """(first line, fields) of each CSV record that is not blank or a '#' row,
    ``before`` lines preceding the reader's; a quoted field may span lines.
    A record csv.reader cannot read ends them, as [its ParseError]."""
    line = before + 1
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                yield line, row
            line = before + reader.line_num + 1
    except csv.Error as exc:
        yield line, [ParseError(str(exc), before + reader.line_num)]


def _block(lines, rows, width, columns) -> tuple[tuple, ParseError | None]:
    """A block of CSV rows as (their lines, one array per column), and None;
    or, when a row does not convert, the block of the rows before the first
    that does not, and that row's ParseError, naming its line and field."""
    try:
        if set(map(len, rows)) - {width}:
            raise ValueError("field count")
        texts = list(zip(*rows)) or [()] * width
        return (lines, [_CONVERT[dtype](texts[i]) for _, i, dtype in columns]), None
    except (ValueError, KeyError, OverflowError):
        for i, (line, row) in enumerate(zip(lines, rows)):
            if error := _row_error(row, line, width, columns):
                return _block(lines[:i], rows[:i], width, columns)[0], error
        raise


def _row_error(row, line, width, columns) -> ParseError | None:
    """The error naming the first field of a row that its conversion rejects;
    a record csv.reader could not read is its own (``_records``)."""
    if len(row) != width:
        return row[0] if isinstance(row[0], ParseError) else ParseError(
            f"expected {width} fields, got {len(row)}", line)
    for name, i, dtype in columns:
        try:
            _CONVERT[dtype]((row[i],))
        except (ValueError, KeyError, OverflowError):
            text = row[i].strip()
            if dtype is bool:
                return ParseError(f"expected boolean, got {text!r}", line)
            if dtype is str:
                return ParseError(f"column {name!r}: ends in a NUL: {text!r}", line)
            try:
                (float if dtype is float else int)(text)
                problem = "not a finite number" if dtype is float else "not a 64-bit integer"
            except ValueError:
                problem = "not a number" if dtype is float else "not an integer"
            return ParseError(f"column {name!r}: {problem}: {text!r}", line)


def _summaries(names, lines, columns) -> list[ConditionSummary]:
    """The summaries of rows given as one array per column, a bad row a ParseError."""
    summaries, seen = [], set()
    for line, (a, w, *rest) in zip(lines, zip(*(c.tolist() for c in columns))):
        if (a, w) in seen:
            raise DuplicateConditionError(f"duplicate condition (A={a:g}, W={w:g})", line)
        seen.add((a, w))
        try:
            summaries.append(ConditionSummary(Condition(a, w), **dict(zip(names[2:], rest))))
        except ValidationError as exc:
            raise ParseError(exc.reason, line) from None
    return summaries


def load_input(path: str | Path) -> TapTable | list[ConditionSummary]:
    """A tap log or condition summaries, whichever the CSV header names.

    A first header cell 'participant' means a tap log (as load_trials_csv);
    any other header is read as condition summaries (as load_aggregate_csv).
    The path "-" reads from stdin.
    """
    return _read(path)


def load_trials_csv(path: str | Path) -> TapTable:
    """Parse a tap-level log.  Practice rows are kept, flagged is_practice.

    The path "-" reads from stdin, so simulated logs can be piped through.
    """
    return _read(path, trials=True)


def write_trials_csv(
    taps: TapTable,
    path: str | Path,
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a tap table in the canonical schema.

    Metadata is emitted as leading '# key=value' comment lines, which
    load_trials_csv skips; a key or value with a line break (CR or LF)
    raises ValidationError before the file is opened.  Output is
    deterministic for identical input.  Each field is formatted on its own:
    a float with repr, so reloading gives every column back exactly, an
    integer in decimal and is_practice as true/false; a block's column of
    one value is formatted once.  Only a participant ID can need quoting, so
    only IDs go through csv.writer, each distinct ID of a block once.  The
    path "-" writes to stdout, the mirror of reading "-" from stdin.
    """
    formats = [_FORMAT[dtype] for dtype in list(TAP_COLUMNS.values())[1:]]
    comments = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    for text in comments:
        if "\r" in text or "\n" in text:
            raise ValidationError(f"metadata must not contain a line break, got {text[2:]!r}")
    with opened(path, "w") as fh:
        fh.writelines(f"{text}\n" for text in comments)
        fh.write(",".join(TRIAL_CSV_COLUMNS) + "\n")
        for start in range(0, len(taps), BLOCK_ROWS):
            ids, *rest = (getattr(taps, name)[start:start + BLOCK_ROWS]
                          for name in TAP_COLUMNS)
            ids = ids.tolist()
            quoted = {text: _csv_field(text) for text in set(ids)}
            fields = [map(quoted.__getitem__, ids)] + [
                _printed(fmt, column) for fmt, column in zip(formats, rest)]
            fh.writelines(map(",".join, zip(*fields)))


def _printed(fmt, column: np.ndarray):
    """``fmt`` of each value of a block column, formatted once where all the
    values have the same bits (-0.0 == 0.0, but the two print differently)."""
    bits = column.view(f"i{column.itemsize}")
    if bits[0] == bits[-1] and (bits == bits[0]).all():
        return repeat(fmt(column[0].item()), len(column))
    return map(fmt, column.tolist())


# how write_trials_csv prints a value of each non-text TapTable column dtype;
# the one bool column, is_practice, is the last, so it ends the line
_FORMAT = {np.int64: int.__repr__, float: float.__repr__,
           bool: ("false\n", "true\n").__getitem__}


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it among other fields of a row: quoted
    when it holds a comma or a quote, and empty when it is empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def load_aggregate_csv(
    path: str | Path,
    name: str | None = None,
    dimensionality: Dimensionality = Dimensionality.TWO_D,
) -> Dataset:
    """Load per-condition summaries.

    Requires columns A_mm, W_mm, mt_ms, sigma_obs_mm (any order); optional
    n_trials and error_rate columns are honored when present, and any other
    column is ignored.  The path "-" reads from stdin.
    """
    return Dataset(
        name=name or Path(source_name(path)).stem,
        dimensionality=dimensionality,
        summaries=tuple(_read(path, trials=False)),
    )


def write_aggregate_csv(dataset: Dataset, path: str | Path) -> None:
    """Write condition summaries ("-" = stdout); floats print in full (repr)."""
    with opened(path, "w") as fh:
        fh.write(csv_text(AGGREGATE_CSV_COLUMNS + _AGGREGATE_OPTIONAL, [
            (s.condition.amplitude_mm, s.condition.width_mm, s.mt_ms, s.sigma_obs_mm,
             s.n_trials, s.error_rate)
            for s in dataset.summaries
        ]))


def csv_text(header: Sequence[str], rows, preamble: str = "") -> str:
    """A whole table as CSV text: the preamble, the header, then the rows.
    None is an empty field and a float prints in full (repr)."""
    buf = io.StringIO()
    buf.write(preamble)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
