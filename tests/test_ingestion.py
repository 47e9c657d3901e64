import csv
import io
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffitts import (
    AGGREGATE_CSV_COLUMNS,
    Condition,
    ConditionSummary,
    Dataset,
    Dimensionality,
    DuplicateConditionError,
    EMBEDDED_NAMES,
    EmptyDatasetError,
    ParseError,
    TRIAL_CSV_COLUMNS,
    TapTable,
    UnknownDatasetError,
    ValidationError,
    embedded,
    load_aggregate_csv,
    load_input,
    load_trials_csv,
    write_aggregate_csv,
    write_trials_csv,
)
from ffitts import ingestion
from ffitts.datamodel import BLOCK_ROWS, TAP_COLUMNS
from ffitts.errors import FfittsError

HEADER = ",".join(TRIAL_CSV_COLUMNS)
DATA_OUTPUTS = Path(__file__).parent / "data" / "outputs"

GOOD_ROWS = [
    "p1,0,1,20,4,0,0,0.3,-0.2,312.5,1,false",
    "p1,0,2,20,4,0,0,-0.1,0.4,287.0,1,false",
    "p1,0,2,20,4,0,0,0.0,0.1,120.0,2,false",
]


def write(tmp_path, lines, name="trials.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HOSTILE_IDS = ["", "a,b", 'q"x', '"', "é", "mid#hash", "a\tb", "p1"]
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e15,
                  1e16, -1e16, 1e-5, 1e300, -1e300, 1e-300, 1.7976931348623157e308,
                  0.1, 1 / 3]
INT64_EXTREMES = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1]


@st.composite
def tap_tables(draw, max_rows=8):
    n = draw(st.integers(1, max_rows))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    finite = (st.sampled_from(SPECIAL_FLOATS)
              | st.floats(allow_nan=False, allow_infinity=False))
    int64 = st.sampled_from(INT64_EXTREMES) | st.integers(-2**63, 2**63 - 1)
    return TapTable(
        participant=column(st.sampled_from(HOSTILE_IDS) | st.text().filter(
            lambda p: p == p.strip() and not p.startswith("#")
            and "\r" not in p and "\n" not in p)),
        block=column(int64), trial=column(int64),
        amplitude_mm=column(finite.map(abs).filter(bool)),
        width_mm=column(finite.map(abs).filter(bool)),
        target_x_mm=column(finite), target_y_mm=column(finite),
        touch_x_mm=column(finite), touch_y_mm=column(finite),
        mt_ms=column(finite.filter(lambda v: v >= 0)),
        tap_index=column(st.sampled_from([1, 2, 2**63 - 1]) | st.integers(1, 2**63 - 1)),
        is_practice=column(st.booleans()),
    )


def tap_table(n, **columns):
    """An n-tap TapTable: the given columns, the rest a varying default."""
    rows = np.arange(n)
    default = dict(
        participant=np.full(n, "p"), block=np.zeros(n), trial=rows + 1,
        amplitude_mm=np.full(n, 20.0), width_mm=np.full(n, 4.0),
        target_x_mm=np.zeros(n), target_y_mm=np.zeros(n),
        touch_x_mm=rows / 7, touch_y_mm=-rows / 3, mt_ms=rows / 11,
        tap_index=np.ones(n), is_practice=np.zeros(n, dtype=bool),
    )
    return TapTable(**{**default, **columns})


def reference_trials_csv(taps, metadata=None):
    """The tap CSV as a csv.writer row loop writes it: the oracle of the
    writer, which formats every field but the participant ID itself."""
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIAL_CSV_COLUMNS)
    columns = [getattr(taps, name) for name in TAP_COLUMNS]
    for start in range(0, len(taps), BLOCK_ROWS):
        block = [col[start:start + BLOCK_ROWS] for col in columns]
        block[-1] = np.where(block[-1], "true", "false")
        writer.writerows(zip(*(col.tolist() for col in block)))
    return buf.getvalue().encode("utf-8")


class TestTrialsCsv:
    def test_well_formed_file(self, tmp_path):
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        assert len(taps) == 3
        assert (taps.amplitude_mm[0], taps.width_mm[0]) == (20, 4)
        assert taps.tap_index.tolist() == [1, 1, 2]
        assert taps.mt_ms.tolist() == [312.5, 287.0, 120.0]

    def test_header_only_is_empty_dataset(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_trials_csv(write(tmp_path, [HEADER]))

    def test_non_numeric_mt_names_line(self, tmp_path):
        bad = "p1,0,1,20,4,0,0,0.3,-0.2,abc,1,false"
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, [HEADER, bad]))
        assert exc.value.line == 2

    def test_negative_mt_rejected(self, tmp_path):
        bad = "p1,0,1,20,4,0,0,0.3,-0.2,-5.0,1,false"
        with pytest.raises(ParseError):
            load_trials_csv(write(tmp_path, [HEADER, bad]))
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS + [bad]))
        assert str(exc.value) == "line 5: mt_ms must be finite and >= 0, got -5.0"

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, ["a,b,c", "1,2,3"]))
        assert exc.value.line == 1

    def test_header_mismatch_names_the_expected_header(self, tmp_path):
        path = write(tmp_path, ["# seed=7", HEADER.replace("mt_ms", "mt"), GOOD_ROWS[0]])
        assert outcome(load_trials_csv, path) == (
            ParseError, f"line 2: header mismatch: expected {HEADER}", 2)

    @pytest.mark.parametrize("bad,message", [
        ("p1,0,1,20,4,0,0,0.3,-0.2,-5.0,1,false", "mt_ms must be finite and >= 0, got -5.0"),
        ("p1,0,1,20,4,0,0,0.3,-0.2,abc,1,false", "column 'mt_ms': not a number: 'abc'"),
    ])
    def test_line_named_after_a_record_that_spans_lines(self, tmp_path, bad, message):
        quoted = '"# note\ncontinued"'
        for lines, line in [
            # the quoted comment takes lines 3 and 4, so the bad row is on line 5
            ([HEADER, GOOD_ROWS[0], quoted, bad], 5),
            # the quoted comment in the first block, a '#' row after its last
            # row, and the bad row first in the second block
            ([HEADER] + GOOD_ROWS[:1] * (BLOCK_ROWS - 1) + [quoted, GOOD_ROWS[0],
                                                            "# seed=7", bad],
             BLOCK_ROWS + 5),
        ]:
            with pytest.raises(ParseError) as exc:
                load_trials_csv(write(tmp_path, lines))
            assert str(exc.value) == f"line {line}: {message}"

    def test_comment_lines_skipped(self, tmp_path):
        lines = ["# seed=7", "# alpha=0.1", HEADER] + GOOD_ROWS
        assert len(load_trials_csv(write(tmp_path, lines))) == 3

    @pytest.mark.parametrize("column,text", [
        ("touch_x_mm", "nan"), ("mt_ms", "inf"), ("W_mm", "-inf"), ("A_mm", "NaN"),
    ])
    def test_non_finite_number_names_column_and_line(self, tmp_path, column, text):
        fields = dict(zip(TRIAL_CSV_COLUMNS, GOOD_ROWS[0].split(",")))
        fields[column] = text
        bad = ",".join(fields[c] for c in TRIAL_CSV_COLUMNS)
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, [HEADER, GOOD_ROWS[1], bad]))
        assert exc.value.line == 3
        assert column in str(exc.value) and "line 3" in str(exc.value)

    def test_practice_rows_kept_and_flagged(self, tmp_path):
        row = "p1,0,9,20,4,0,0,0.3,-0.2,300,1,true"
        taps = load_trials_csv(write(tmp_path, [HEADER, row] + GOOD_ROWS))
        assert taps.is_practice.tolist() == [True, False, False, False]

    def test_round_trip(self, tmp_path):
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        out = tmp_path / "again.csv"
        write_trials_csv(taps, out, metadata={"seed": "7"})
        assert_same_columns(load_trials_csv(out), taps)

    def test_metadata_with_a_comma_and_a_quote_round_trips(self, tmp_path):
        # read through csv.reader, the quote would open a field running over
        # the header and the rows
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        out = tmp_path / "meta.csv"
        write_trials_csv(taps, out, metadata={"note": 'a,"b'})
        assert out.read_text(encoding="utf-8").startswith('# note=a,"b\n')
        assert_same_columns(load_trials_csv(out), taps)

    @pytest.mark.parametrize("bad", [GOOD_ROWS[1].replace("287.0", "-1.0"),
                                     GOOD_ROWS[1].replace("287.0", "x")])
    @pytest.mark.parametrize("lead", [[], [""], ["", "# seed=6", ""]],
                             ids=["metadata", "blank-first", "blank-between"])
    def test_bad_row_after_metadata_named_by_its_file_line(self, tmp_path, bad, lead):
        # blank lines before the header are read as plain text too, so the
        # quote after them opens no field
        lines = lead + ["# seed=7", '# note=a,"b', " # alpha=0.1", HEADER, GOOD_ROWS[0], bad]
        error = outcome(load_trials_csv, write(tmp_path, lines))
        assert error[0] is ParseError and error[2] == len(lines)
        assert str(error[1]).startswith(f"line {len(lines)}: ")

    @pytest.mark.parametrize("metadata,text", [
        ({"note": "two\nlines"}, "note=two\\nlines"),
        ({"note": "cr\r"}, "note=cr\\r"),
        ({"a\r\nb": "7"}, "a\\r\\nb=7"),
    ])
    def test_metadata_with_a_line_break_rejected_before_writing(self, tmp_path, metadata,
                                                                text):
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        out = tmp_path / "meta.csv"
        with pytest.raises(ValidationError) as exc:
            write_trials_csv(taps, out, metadata={"seed": "7", **metadata})
        assert str(exc.value) == f"metadata must not contain a line break, got '{text}'"
        assert not out.exists()

    def test_participant_ids_round_trip(self, tmp_path):
        # "#p1" (read back as a comment) and " p2 " (read back stripped)
        # cannot enter a table; the others come back as written
        ids = ["p,3", "p4", 'say "p5"', "p\x856"]
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS[:1] * len(ids)))
        taps = TapTable(**{**{n: getattr(taps, n) for n in TAP_COLUMNS}, "participant": ids})
        out = tmp_path / "ids.csv"
        write_trials_csv(taps, out)
        assert load_trials_csv(out).participant.tolist() == ids

    def test_first_of_two_bad_lines_named(self, tmp_path):
        bad_w = "p1,0,1,20,zero,0,0,0.3,-0.2,300,1,false"
        bad_mt = "p1,0,1,20,4,0,0,0.3,-0.2,abc,1,false"
        for first, second, message in [
            (bad_w, bad_mt, "line 3: column 'W_mm': not a number: 'zero'"),
            (bad_mt, bad_w, "line 3: column 'mt_ms': not a number: 'abc'"),
        ]:
            path = write(tmp_path, [HEADER, GOOD_ROWS[0], first, GOOD_ROWS[1], second])
            with pytest.raises(ParseError) as exc:
                load_trials_csv(path)
            assert (exc.value.line, str(exc.value)) == (3, message)

    def test_broken_rule_before_unparseable_line_named_first(self, tmp_path):
        negative_mt = "p1,0,1,20,4,0,0,0.3,-0.2,-5.0,1,false"
        unparseable = "p1,0,1,20,4,0,0,0.3,-0.2,300,1,maybe"
        # in one block, and with the unparseable line in a later block
        for gap in (1, BLOCK_ROWS):
            lines = [HEADER, negative_mt] + GOOD_ROWS[:1] * gap + [unparseable]
            with pytest.raises(ParseError) as exc:
                load_trials_csv(write(tmp_path, lines))
            assert str(exc.value) == "line 2: mt_ms must be finite and >= 0, got -5.0"

    def test_bad_line_in_a_later_block_named(self, tmp_path):
        bad = "p1,0,1,20,4,0,0,0.3,-0.2,300,1,maybe"
        lines = [HEADER] + GOOD_ROWS[:1] * (BLOCK_ROWS + 5) + [bad, "x"]
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, lines))
        assert exc.value.line == BLOCK_ROWS + 7
        assert str(exc.value).endswith("expected boolean, got 'maybe'")

    def test_wrong_field_count_names_line(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, [HEADER, GOOD_ROWS[0], "p1,0,1"]))
        assert str(exc.value) == "line 3: expected 12 fields, got 3"

    def test_integer_beyond_64_bits_names_column(self, tmp_path):
        fields = GOOD_ROWS[0].split(",")
        fields[1] = str(2**63)
        with pytest.raises(ParseError, match="line 2: column 'block'"):
            load_trials_csv(write(tmp_path, [HEADER, ",".join(fields)]))

    @settings(max_examples=100)
    @given(taps=tap_tables(), metadata=st.sampled_from([None, {}, {"seed": "7"}]))
    def test_write_then_load_gives_back_every_column(self, tmp_path_factory, taps, metadata):
        out = tmp_path_factory.mktemp("round") / "taps.csv"
        write_trials_csv(taps, out, metadata=metadata)
        assert out.read_bytes() == reference_trials_csv(taps, metadata)
        assert_same_columns(load_trials_csv(out), taps)

    def test_padded_fields_load_as_unpadded(self, tmp_path):
        rows = [row.replace("false", "FALSE") for row in GOOD_ROWS]
        padded = [" , ".join(f" {f} " for f in line.split(","))
                  for line in [HEADER] + rows]
        assert padded[1].startswith(" p1  ,  0 ") and padded[1].endswith(" FALSE ")
        assert_same_columns(load_trials_csv(write(tmp_path, padded, "padded.csv")),
                            load_trials_csv(write(tmp_path, [HEADER] + rows)))

    def test_padded_bad_field_quoted_stripped(self, tmp_path):
        bad = "p1,0,1,20,4,0,0,0.3,-0.2,  abc ,1,false"
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, [HEADER, bad]))
        assert str(exc.value) == "line 2: column 'mt_ms': not a number: 'abc'"


class TestTrialsCsvWriter:
    """Bytes against reference_trials_csv beyond the drawn tables of
    TestTrialsCsv.test_write_then_load_gives_back_every_column."""

    def test_same_bytes_over_several_blocks(self, tmp_path):
        n = 2 * BLOCK_ROWS + 3
        rows = np.arange(n)
        values = np.array(SPECIAL_FLOATS)
        taps = TapTable(
            participant=np.array(HOSTILE_IDS)[rows % len(HOSTILE_IDS)],
            block=np.array(INT64_EXTREMES)[rows % len(INT64_EXTREMES)],
            trial=rows - BLOCK_ROWS,
            amplitude_mm=np.abs(values[rows % len(values)]) + 1e-300,
            width_mm=rows / 7 + 5e-324,
            target_x_mm=values[rows % len(values)], target_y_mm=-rows / 3,
            touch_x_mm=values[(rows * 7) % len(values)], touch_y_mm=rows * 1e15,
            mt_ms=rows / 11,
            tap_index=rows + 1,
            is_practice=rows % 3 == 0,
        )
        out = tmp_path / "taps.csv"
        write_trials_csv(taps, out, metadata={"generator": "test", "seed": "7"})
        assert out.read_bytes() == reference_trials_csv(
            taps, {"generator": "test", "seed": "7"})
        assert_same_columns(load_trials_csv(out), taps)

    @pytest.mark.parametrize("at", [5, BLOCK_ROWS - 1, 0, BLOCK_ROWS],
                             ids=["inside", "last-row", "first-row", "second-first-row"])
    def test_negative_zero_in_a_zero_column(self, tmp_path, at):
        # a block column of one value is printed once, but -0.0 == 0.0 prints
        # as "-0.0": equal values are not enough, the bits must be
        zeros = np.zeros(2 * BLOCK_ROWS)
        signed = zeros.copy()
        signed[at] = -0.0
        taps = tap_table(len(zeros), target_x_mm=signed, touch_y_mm=signed)
        out = tmp_path / "taps.csv"
        write_trials_csv(taps, out)
        assert out.read_bytes() == reference_trials_csv(taps)
        assert np.signbit(load_trials_csv(out).target_x_mm).tolist() == np.signbit(signed).tolist()

    def test_constant_columns_across_block_boundaries(self, tmp_path):
        # every column but the trial number holds one value over whole
        # blocks; amplitude and is_practice change inside the second block,
        # width only where the third (partial) block starts
        n = 2 * BLOCK_ROWS + 7
        rows = np.arange(n)
        taps = tap_table(
            n, participant=np.full(n, "p1"), block=np.full(n, 3),
            amplitude_mm=np.where(rows < BLOCK_ROWS + 9, 20.0, 45.5),
            width_mm=np.where(rows < 2 * BLOCK_ROWS, 4.0, 0.1),
            target_x_mm=np.full(n, -2.5), touch_y_mm=np.full(n, 1e-300),
            tap_index=np.full(n, 2), is_practice=rows > BLOCK_ROWS + 100,
        )
        out = tmp_path / "taps.csv"
        write_trials_csv(taps, out, metadata={"seed": "7"})
        assert out.read_bytes() == reference_trials_csv(taps, {"seed": "7"})
        assert_same_columns(load_trials_csv(out), taps)

    def test_quoted_and_empty_ids(self, tmp_path):
        ids = ["", "a,b", 'q"x', "p1"]
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS[:1] * len(ids)))
        taps = TapTable(**{**{n: getattr(taps, n) for n in TAP_COLUMNS}, "participant": ids})
        out = tmp_path / "ids.csv"
        write_trials_csv(taps, out)
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",0,1,")[0] for line in lines] == ["", '"a,b"', '"q""x"', "p1"]

    def test_dash_writes_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        taps = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        write_trials_csv(taps, "taps.csv", metadata={"seed": "7"})
        capsys.readouterr()
        write_trials_csv(taps, "-", metadata={"seed": "7"})
        assert capsys.readouterr().out == (tmp_path / "taps.csv").read_text(encoding="utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taps.csv", "trials.csv"]


class TestBlockSize:
    def test_load_sets_off_no_full_collection(self, tmp_path, subprocess_env):
        # a block's row lists must die in the young generations; blocks of
        # 8192 rows reached the oldest one and set off full collections,
        # each a scan of the whole heap
        code = textwrap.dedent("""
            import gc, sys
            from ffitts import (Dimensionality, SimulatorConfig, generate,
                                load_trials_csv, write_trials_csv)
            write_trials_csv(generate(SimulatorConfig(
                0.01, 1.0, (2.0, 4.0, 6.0, 8.0, 10.0), (20.0, 30.0, 45.0, 60.0), 2000,
                dimensionality=Dimensionality.TWO_D)), sys.argv[1])
            full = []
            gc.callbacks.append(lambda phase, info: phase == "start"
                                and info["generation"] == 2 and full.append(info))
            print(len(load_trials_csv(sys.argv[1])), len(full))
        """)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "taps.csv")],
                              env=subprocess_env, capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout.split() == ["40000", "0"]


def bulk_read(path):
    """The tap log at ``path`` as the np.loadtxt reader reads it, or None
    where that reader leaves a line to the csv.reader path, is not reached
    or reads a broken tap rule."""
    read = []
    real = ingestion._bulk_taps

    def spy(lines, before):
        blocks, rest, before = real(lines, before)
        rest = list(rest)
        read.append(None if rest or not blocks else blocks)
        return blocks, iter(rest), before

    with mock.patch.object(ingestion, "_bulk_taps", spy):
        try:
            load_trials_csv(path)
        except FfittsError:
            pass
    if not read or read[0] is None:
        return None
    try:
        return TapTable(*map(np.concatenate, zip(*(arrays for _, arrays in read[0]))))
    except ValidationError:
        return None


def csv_read(path):
    """The tap log at ``path`` as the csv.reader path reads it."""
    with mock.patch.object(ingestion, "_bulk_taps", lambda lines, before: ([], lines, before)):
        return load_trials_csv(path)


def outcome(load, path):
    """What ``load(path)`` returns, or the type, text and line of the error."""
    try:
        return load(path)
    except (FfittsError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def lines_read(load, path):
    """What ``outcome(load, path)`` gives, and the line of every row read on
    the way, in order: the numbers of each block ``_bulk_taps`` returns and
    those ``_block`` gets.  On a log that loads, each row is read once."""
    lines = []
    bulk_taps, block = ingestion._bulk_taps, ingestion._block

    def bulk_spy(*args):
        blocks, rest, before = bulk_taps(*args)
        lines.extend(chain.from_iterable(numbers for numbers, _ in blocks))
        return blocks, rest, before

    def block_spy(*args):
        (numbers, arrays), error = block(*args)
        lines.extend(numbers)
        return (numbers, arrays), error

    with (mock.patch.object(ingestion, "_bulk_taps", bulk_spy),
          mock.patch.object(ingestion, "_block", block_spy)):
        return outcome(load, path), lines


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


# fields on which np.loadtxt, csv.reader, float(), int() and the text
# conversions could part: quotes, NUL, separators numpy strips and Python
# does not, digits only Python reads, non-finite words, padding
HOSTILE_FIELDS = (
    st.text(alphabet='0123456789,.+-e_#" \t\r\n\0\x1c\x1f\u0665\u2003', max_size=6)
    | st.sampled_from(["true", "FALSE", "yes", "0", "nan", "-inf", "Infinity", "1e400",
                       "1_000", "\u0665", "\u20035\u2003", " 7 ", "\x1c5", "5\x1f", "0x10",
                       "", "+3", "-0", '"5"', '"a,b"', "5\0"]))

# the forms a field can take besides the canonical one (repr, str, "true")
NUMBER_FORMS = [" {!r} ".format, "\u2003{!r}\t".format, "{:.3e}".format, "{:+}".format]
INT_FORMS = [" {} ".format, "{:+d}".format, "{:_d}".format, "\u2003{}".format]
ID_FORMS = [" p2 ", "", "mid#hash", "a\tb", "\u00e9", "\u2003p3", "#p4", '"p,5"', "x" * 40]
BOOL_FORMS = ["TRUE", "False", " yes ", "no", "1", "0"]


@st.composite
def tap_log_texts(draw):
    """A tap-log text: well-formed rows, in canonical forms only or in any
    form a log can take, up to two hostile fields, whitespace-only, blank and
    '#' lines, a BOM and \\n, \\r\\n and lone \\r line ends mixed."""
    # within 1e300, so that the 4-digit form cannot round to infinity
    finite = st.floats(-1e300, 1e300)
    positive = st.floats(0.0, 1e300, exclude_min=True)
    number = {"amplitude_mm": positive, "width_mm": positive, "mt_ms": st.floats(0.0, 1e300)}
    integer = {"tap_index": st.integers(1, 2**63 - 1)}
    varied = draw(st.booleans())

    def field(name, dtype):
        if dtype is str:
            return draw(st.sampled_from(["P01", "p1", "sim"] + ID_FORMS * varied))
        if dtype is bool:
            return draw(st.sampled_from(["true", "false"] + BOOL_FORMS * varied))
        if dtype is float:
            value = draw(number.get(name, finite))
            return draw(st.sampled_from([repr] * 2 + NUMBER_FORMS * varied))(value)
        value = draw(integer.get(name, st.integers(-2**63, 2**63 - 1)))
        return draw(st.sampled_from([str] * 2 + INT_FORMS * varied))(value)

    rows = [[field(name, dtype) for name, dtype in TAP_COLUMNS.items()]
            for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(HOSTILE_FIELDS)
    header = draw(st.sampled_from([HEADER] * 6 + [
        " , ".join(TRIAL_CSV_COLUMNS), ",".join(f'"{c}"' for c in TRIAL_CSV_COLUMNS),
        HEADER + ",extra"]))
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "", "# seed=7", "  # meta", "#", "\u2003# x",
                                           "   "])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


class TestBulkReader:
    """The np.loadtxt reader against the csv.reader path, its reference."""

    @settings(max_examples=200)
    @given(text=tap_log_texts(), block=st.sampled_from([1, 2, 3, BLOCK_ROWS]))
    def test_declines_or_reads_what_the_csv_path_reads(self, tmp_path_factory, text, block):
        # short blocks hand a log over to the csv.reader path part-way
        path = write_text(tmp_path_factory.getbasetemp() / "bulk.csv", text)
        exact, exact_lines = lines_read(csv_read, path)
        with mock.patch.object(ingestion, "BLOCK_ROWS", block):
            bulk = bulk_read(path)
            public, public_lines = lines_read(load_trials_csv, path)
        if isinstance(exact, tuple):  # every error comes from the csv.reader path
            assert bulk is None and public == exact
            return
        assert public_lines == exact_lines  # each row from the line csv.reader gives it
        for got in (public, bulk):
            if got is not None:
                assert_same_columns(got, exact)
                assert [getattr(got, n).dtype for n in TAP_COLUMNS] == [
                    getattr(exact, n).dtype for n in TAP_COLUMNS]

    @pytest.mark.parametrize("form", [str, "\ufeff{}".format, lambda t: t.replace("\n", "\r\n")],
                             ids=["plain", "bom", "crlf"])
    @pytest.mark.parametrize("load", [load_trials_csv, load_input])
    def test_simulated_log_read_without_the_csv_path(self, tmp_path, monkeypatch, load, form):
        text = form((DATA_OUTPUTS / "sim-2d-seed3.csv").read_text(encoding="utf-8"))
        path = write_text(tmp_path / "log.csv", text)
        expected = csv_read(path)
        monkeypatch.setattr(ingestion, "_block", mock.Mock(side_effect=AssertionError))
        assert_same_columns(load(path), expected)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert_same_columns(load("-"), expected)

    @pytest.mark.parametrize("lines,declined", [
        # np.loadtxt skips empty lines, so it gives fewer rows than lines ...
        ([HEADER, "", GOOD_ROWS[0], "\r", GOOD_ROWS[1]], True),
        # ... and rejects a whitespace-only line, a one-field record there
        ([HEADER, GOOD_ROWS[0], "   ", GOOD_ROWS[1]], True),
        # it keeps " P01 " unstripped; the reader strips it as the csv path does
        ([HEADER, GOOD_ROWS[0].replace("p1", " P01 ")], False),
        # a fixed-width str field would truncate the longer ID of a later block
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + [GOOD_ROWS[1].replace("p1", "p" * 40)],
         False),
        # with quotechar=None it would read '"' literally
        ([HEADER, GOOD_ROWS[0].replace("p1", '"p,1"')], True),
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + ['"p1",0,1,20,4,0,0,0.3,-0.2,300,1,true'],
         True),
        # numpy strips \x1c-\x1f around a number, which int() rejects
        *(([HEADER, GOOD_ROWS[0].replace(",0,1,", f",{c}0,1,")], True)
          for c in "\x1c\x1d\x1e\x1f"),
        ([HEADER, GOOD_ROWS[0].replace("p1", "p\x00")], True),
        # a '#' row in a later block, and a bad row there
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + ["  # seed=7", GOOD_ROWS[1]], True),
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + ["# seed=7", GOOD_ROWS[1][:-5] + "maybe"],
         True),
        # digits and separators that only Python reads
        ([HEADER, GOOD_ROWS[0].replace(",0,1,", ",1_000,\u0665,")], True),
        # a one-field record after a '#' row
        ([HEADER, "# seed=7", "x", GOOD_ROWS[0]], True),
        # a block of blank lines only, and no data row
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + [""] * BLOCK_ROWS + GOOD_ROWS[1:2], True),
        ([HEADER, "", "\r"], True),
        # no data row, no header
        ([HEADER, "# seed=7"], True),
        (["# seed=7", ""], True),
        ([HEADER.replace("block", "blk"), GOOD_ROWS[0]], True),
        ([HEADER + "x", GOOD_ROWS[0]], True),
        # csv.reader reads the header, so a quoted one is no bar
        ([",".join(f'"{c}"' for c in TRIAL_CSV_COLUMNS), GOOD_ROWS[0]], False),
        # with the cases above, a '#' row and a blank line each in the first
        # chunk, a later one and on the last line; only the csv path skips them
        ([HEADER, GOOD_ROWS[0], "# seed=7", GOOD_ROWS[1]], True),
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + GOOD_ROWS[1:] + ["# end"], True),
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + [GOOD_ROWS[1], "", GOOD_ROWS[2]], True),
        ([HEADER] + GOOD_ROWS[:1] * BLOCK_ROWS + GOOD_ROWS[1:] + [""], True),
        # a '#' inside a participant ID, which the csv path reads as an ID
        ([HEADER, GOOD_ROWS[0].replace("p1", "mid#hash"), GOOD_ROWS[1]], True),
    ])
    def test_seams(self, tmp_path, lines, declined):
        path = write(tmp_path, lines)
        assert (bulk_read(path) is None) == declined
        exact, public = outcome(csv_read, path), outcome(load_trials_csv, path)
        if isinstance(exact, tuple):
            assert public == exact
        else:
            assert_same_columns(public, exact)

    def test_csv_path_reads_from_the_first_chunk_numpy_cannot(self, tmp_path, monkeypatch):
        quoted = GOOD_ROWS[1].replace("p1", '"p,1"')
        lines = ["# seed=7", "", HEADER] + GOOD_ROWS[:1] * (2 * BLOCK_ROWS) + [quoted, ""]
        lines += ["  # x"] + GOOD_ROWS[2:] * 3
        path = write(tmp_path, lines)
        block, seen = ingestion._block, []
        monkeypatch.setattr(ingestion, "_block",
                            lambda numbers, *args: seen.extend(numbers) or block(numbers, *args))
        taps = load_trials_csv(path)
        # line 3 is the header, the csv.reader path reads the third chunk only,
        # skipping its blank and '#' lines
        assert seen == [2 * BLOCK_ROWS + 4] + [2 * BLOCK_ROWS + 7 + i for i in range(3)]
        assert taps.participant.tolist()[-4:] == ["p,1", "p1", "p1", "p1"]
        monkeypatch.setattr(ingestion, "_block", block)
        assert_same_columns(taps, csv_read(path))

    @pytest.mark.parametrize("late", [
        GOOD_ROWS[1].replace("p1", '"p,1"')[:-5] + "maybe", GOOD_ROWS[1].replace("287.0", "x"),
        GOOD_ROWS[1].replace("287.0", "-1.0"), GOOD_ROWS[1]])
    @pytest.mark.parametrize("meta", [[], ["# seed=7", ""]], ids=["header", "metadata"])
    def test_tap_rule_broken_early_named_first(self, tmp_path, late, meta):
        # numpy reads the first chunk, whose rule break only TapTable sees
        lines = meta + [HEADER, GOOD_ROWS[0], GOOD_ROWS[0].replace("312.5", "-5.0")]
        lines += GOOD_ROWS[:1] * BLOCK_ROWS + [late]
        with pytest.raises(ParseError) as exc:
            load_trials_csv(write(tmp_path, lines))
        line = len(meta) + 3
        assert (str(exc.value), exc.value.line) == (
            f"line {line}: mt_ms must be finite and >= 0, got -5.0", line)

    def test_field_beyond_the_csv_limit_declined(self, tmp_path):
        path = write(tmp_path, [HEADER, GOOD_ROWS[0].replace("p1", "p" * 200)])
        assert bulk_read(path) is not None
        limit = csv.field_size_limit(100)
        try:
            assert bulk_read(path) is None
            assert outcome(load_trials_csv, path) == (
                ParseError, "line 2: field larger than field limit (100)", 2)
        finally:
            csv.field_size_limit(limit)


# every character str.strip strips (all below U+3001) but the two that end
# a line in a file
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n"]
PADDING = st.text(st.sampled_from(SPACES), max_size=2)
# IDs without whitespace, '#', a quote, a comma or NUL, Unicode among them
BARE_IDS = st.sampled_from(["P01", "p1", "\u00e9", "\u65e5\u672c", "x" * 12]) | st.text(
    st.characters(exclude_categories=("Cs", "Cc", "Z"), exclude_characters='#",'),
    min_size=1, max_size=5)
# true/false/1/0/yes/no in every mix of upper and lower case
BOOL_WORDS = st.sampled_from(["true", "false", "1", "0", "yes", "no"]).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word))
).map("".join)


def padded(words):
    return st.tuples(PADDING, words, PADDING).map("".join)


class TestTextColumns:
    """The participant and is_practice columns, padded with any whitespace
    str.strip strips: both readers and both conversions agree, dtypes too."""

    @settings(max_examples=150)
    @given(rows=st.lists(st.tuples(padded(BARE_IDS), padded(BOOL_WORDS)
                                   | st.sampled_from(["true", "false"])),
                         min_size=1, max_size=12),
           bad=st.none() | padded(st.sampled_from(["maybe", "tru", "2", "", "yes!", "n o"])),
           data=st.data())
    def test_both_readers_read_alike(self, tmp_path_factory, rows, bad, data):
        ids, flags = (list(column) for column in zip(*rows))
        if bad is not None:
            at = data.draw(st.integers(0, len(rows) - 1))
            flags[at] = bad
        lines = [HEADER] + [f"{pid},0,{i},20,4,0,0,0.3,-0.2,300.0,1,{flag}"
                            for i, (pid, flag) in enumerate(zip(ids, flags))]
        path = write_text(tmp_path_factory.getbasetemp() / "texts.csv",
                          "".join(line + "\n" for line in lines))
        exact = outcome(csv_read, path)
        if bad is not None:  # the line and the stripped field are named
            assert exact == (ParseError, f"line {at + 2}: expected boolean, got "
                                         f"{bad.strip()!r}", at + 2)
            assert outcome(load_trials_csv, path) == exact
            return
        stripped = [pid.strip() for pid in ids]
        practice = [flag.strip().lower() in ("true", "1", "yes") for flag in flags]
        assert (exact.participant.tolist(), exact.is_practice.tolist()) == (stripped, practice)
        for got in (load_trials_csv(path), bulk_read(path)):
            if got is not None:  # a chunk with \x1c-\x1f is left to the csv path
                assert_same_columns(got, exact)
                assert [getattr(got, n).dtype for n in TAP_COLUMNS] == [
                    getattr(exact, n).dtype for n in TAP_COLUMNS]
        # a block's conversion: a whole object array, or the csv path's texts
        for dtype, texts, values in ((str, ids, stripped), (bool, flags, practice)):
            whole = ingestion._BULK_CONVERT[dtype](np.array(texts, dtype=object))
            each = ingestion._CONVERT[dtype](tuple(texts))
            assert whole.dtype == each.dtype and whole.tolist() == each.tolist() == values
        assert [ingestion._bools((flag,)).item() for flag in flags] == practice


class TestIntegerViaFloat:
    """An integer field that only a float reads is a ParseError, with the
    warning filters of a program, where a DeprecationWarning is ignored."""

    @pytest.mark.parametrize("text", ["1.0", "2.5", "1e3", str(2**63), str(-2**63 - 1)])
    @pytest.mark.parametrize("column", ["block", "trial", "tap_index"])
    def test_declined(self, tmp_path, column, text):
        fields = dict(zip(TRIAL_CSV_COLUMNS, GOOD_ROWS[0].split(",")), **{column: text})
        path = write(tmp_path, [HEADER, GOOD_ROWS[1], ",".join(fields.values())])
        assert bulk_read(path) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            public = outcome(load_trials_csv, path)
        assert public[0] is ParseError and public == outcome(csv_read, path)

    def test_numpy_reading_it_with_a_warning_declined(self, tmp_path, monkeypatch):
        # a numpy whose loadtxt still reads '2.5' as the int64 2, and only warns
        real = np.loadtxt

        def via_float(lines, *args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return real([line.replace("p1,2.5,", "p1,2,") for line in lines], *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", via_float)
        path = write(tmp_path, [HEADER, GOOD_ROWS[0].replace("p1,0,", "p1,2.5,")])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            public = outcome(load_trials_csv, path)
        assert public == (ParseError, "line 2: column 'block': not an integer: '2.5'", 2)


class TestStdin:
    LOG = (DATA_OUTPUTS / "sim-2d-seed3.csv").read_text(encoding="utf-8")
    BAD = "\n".join([HEADER] + GOOD_ROWS[:1] * (BLOCK_ROWS + 2)
                    + ["p1,0,1,20,4,0,0,0.3,-0.2,-5.0,1,false", "x"]) + "\n"

    @pytest.mark.parametrize("text", [
        LOG, LOG.replace("\n", "\r\n"), LOG.replace("\n", "\r"), "\ufeff" + LOG, BAD,
        BAD.replace("\n", "\r"), '"' + BAD, '# note=a,"b\n' + LOG, '# note=a,"b\n' + BAD,
        '\r\n# note=a,"b\r\n' + LOG.replace("\n", "\r\n"),
    ], ids=["log", "crlf", "cr", "bom", "bad", "bad-cr", "bad-quoted", "quoted-metadata",
            "bad-after-quoted-metadata", "blank-then-quoted-metadata"])
    @pytest.mark.parametrize("load", [load_trials_csv, load_input])
    def test_same_table_or_error_as_the_file(self, tmp_path, monkeypatch, text, load):
        from_file = outcome(load, write_text(tmp_path / "log.csv", text))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        from_stdin = outcome(load, "-")
        if isinstance(from_file, tuple):
            assert from_stdin == from_file
        else:
            assert_same_columns(from_stdin, from_file)

    @pytest.mark.parametrize("text", [LOG, BAD], ids=["log", "bad"])
    def test_named_pipe_read_like_a_file(self, tmp_path, text):
        # a pipe cannot seek: the log is read once, as it streams
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=write_text, args=(fifo, text), daemon=True)
        writer.start()
        try:
            from_pipe = outcome(load_trials_csv, fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        from_file = outcome(load_trials_csv, write_text(tmp_path / "log.csv", text))
        if isinstance(from_file, tuple):
            assert from_pipe == from_file
        else:
            assert_same_columns(from_pipe, from_file)

    def test_named_pipe_written_like_a_file(self, tmp_path):
        taps = load_trials_csv(DATA_OUTPUTS / "sim-2d-seed3.csv")
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_trials_csv(taps, fifo, metadata={"seed": "3"})
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        write_trials_csv(taps, tmp_path / "log.csv", metadata={"seed": "3"})
        assert got == [(tmp_path / "log.csv").read_bytes()]


class TestOnePass:
    """A load reads its input once, checks the tap rules on one TapTable
    and names the first bad line, whatever found it."""

    SIM = (DATA_OUTPUTS / "sim-2d-seed3.csv").read_text(encoding="utf-8")

    def test_broken_rule_in_the_last_row_read_once(self, tmp_path, monkeypatch):
        *rest, last = self.SIM.splitlines(keepends=True)
        fields = last.rstrip("\n").split(",")
        fields[TRIAL_CSV_COLUMNS.index("mt_ms")] = "-5.0"
        path = write_text(tmp_path / "log.csv", "".join(rest) + ",".join(fields) + "\n")
        real, pulled = ingestion._records, []

        def header_only(reader, before=0):
            for record in real(reader, before):
                assert not pulled, f"the csv.reader path read line {record[0]}"
                pulled.append(record)
                yield record

        monkeypatch.setattr(ingestion, "_records", header_only)
        line = len(rest) + 1  # in numpy's second chunk
        assert outcome(load_trials_csv, path) == (
            ParseError, f"line {line}: mt_ms must be finite and >= 0, got -5.0", line)

    @pytest.mark.parametrize("skipped", [["# seed=7"], [""], ["", "  # x", "\r"]],
                             ids=["comment", "blank", "mixed"])
    def test_broken_rule_after_skipped_lines_named(self, tmp_path, skipped):
        # the line numbers of the rows read must leave out what is skipped
        negative_mt = GOOD_ROWS[1].replace("287.0", "-5.0")
        path = write(tmp_path, [HEADER, GOOD_ROWS[0]] + skipped + [negative_mt, GOOD_ROWS[2]])
        line = 3 + len(skipped)
        assert outcome(load_trials_csv, path) == (
            ParseError, f"line {line}: mt_ms must be finite and >= 0, got -5.0", line)

    def test_line_as_long_as_the_csv_limit_read_by_numpy(self, tmp_path):
        row = GOOD_ROWS[0].replace("p1", "p" * 50)
        path = write(tmp_path, [HEADER, row, GOOD_ROWS[1]])
        limit = csv.field_size_limit(len(row) + 1)  # the line with its newline
        try:
            assert_same_columns(bulk_read(path), csv_read(path))
            csv.field_size_limit(len(row))
            assert bulk_read(path) is None
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("quoted", [False, True], ids=["numpy", "csv-reader"])
    def test_one_table_per_load(self, tmp_path, monkeypatch, quoted):
        start = self.SIM.index("participant")
        rows = self.SIM[start:].splitlines(keepends=True)[1:]
        if quoted:
            rows = ['"{}",{}'.format(*row.split(",", 1)) for row in rows]
        path = write_text(tmp_path / "log.csv", self.SIM[:self.SIM.index("\n", start) + 1]
                          + "".join(rows))
        built = []
        monkeypatch.setattr(ingestion, "TapTable",
                            lambda *columns: built.append(len(columns[0])) or TapTable(*columns))
        taps = load_trials_csv(path)
        assert built == [len(rows)] == [len(taps)]
        monkeypatch.undo()
        assert_same_columns(taps, load_trials_csv(DATA_OUTPUTS / "sim-2d-seed3.csv"))

    @pytest.mark.parametrize("gap", [0, BLOCK_ROWS], ids=["same-block", "later-block"])
    @pytest.mark.parametrize("early, message", [
        (GOOD_ROWS[0].replace("312.5", "-5.0"), "mt_ms must be finite and >= 0, got -5.0"),
        (GOOD_ROWS[0].replace("false", "maybe"), "expected boolean, got 'maybe'"),
        (GOOD_ROWS[0], None),
    ], ids=["rule", "field", "none"])
    def test_unreadable_record_named_after_earlier_bad_lines(self, tmp_path, early, message,
                                                             gap):
        long_id = GOOD_ROWS[1].replace("p1", '"' + "p" * 200 + '"')
        lines = [HEADER, GOOD_ROWS[0], early] + GOOD_ROWS[:1] * gap + [long_id, GOOD_ROWS[2]]
        path = write(tmp_path, lines)
        limit = csv.field_size_limit(100)
        try:
            got = outcome(load_trials_csv, path)
        finally:
            csv.field_size_limit(limit)
        if message is None:
            line, message = gap + 4, "field larger than field limit (100)"
        else:
            line = 3
        assert got == (ParseError, f"line {line}: {message}", line)

    @pytest.mark.parametrize("meta", [[], ["# seed=7"]], ids=["header", "metadata"])
    def test_header_beyond_the_csv_limit(self, tmp_path, meta):
        path = write(tmp_path, meta + [HEADER.replace("participant", "p" * 200), GOOD_ROWS[0]])
        limit = csv.field_size_limit(100)
        try:
            got = [outcome(load, path) for load in (load_trials_csv, load_input)]
        finally:
            csv.field_size_limit(limit)
        line = len(meta) + 1
        assert got == [(ParseError, f"line {line}: field larger than field limit (100)", line)] * 2

    def test_summary_beyond_the_csv_limit(self, tmp_path):
        path = write(tmp_path, ["A_mm,W_mm,mt_ms,sigma_obs_mm", "20,4,300,0.5",
                                '30,4,"' + "3" * 200 + '",0.5'])
        limit = csv.field_size_limit(100)
        try:
            got = outcome(load_aggregate_csv, path)
        finally:
            csv.field_size_limit(limit)
        assert got == (ParseError, "line 3: field larger than field limit (100)", 3)


class TestNotUtf8:
    """Input that is not UTF-8 is a ParseError naming the source, not a line."""

    LOG = ("\n".join([HEADER, GOOD_ROWS[0], GOOD_ROWS[1].replace("p1", "p\udcff")]) + "\n"
           ).encode("utf-8", "surrogateescape")
    SUMMARIES = b"A_mm,W_mm,mt_ms,sigma_obs_mm\n20,4,300,0.5\n30,4,310,0.5 \xff\n"

    @pytest.mark.parametrize("load, data", [
        (load_trials_csv, LOG), (load_input, LOG), (load_aggregate_csv, SUMMARIES),
        (load_input, SUMMARIES), (load_trials_csv, b"\xff" + LOG),
        (load_trials_csv, LOG.replace(b"p1,", b"p1 " * 5000 + b",") + b"# \xff\n"),
    ], ids=["log", "input-log", "summaries", "input-summaries", "first-byte", "late"])
    @pytest.mark.parametrize("source", ["file", "stdin", "stdin-utf8-mode"])
    def test_parse_error_naming_the_source(self, tmp_path, monkeypatch, load, data, source):
        path = tmp_path / "in.csv"
        if source == "file":
            path.write_bytes(data)
        else:
            errors = "surrogateescape" if source == "stdin-utf8-mode" else "strict"
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors))
            path = "-"
        name = "<stdin>" if path == "-" else str(path)
        assert outcome(load, path) == (ParseError, f"{name}: not UTF-8 text", None)


def assert_same_columns(got, expected):
    """Every column equal, floats bit for bit."""
    for name in TAP_COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype.kind == b.dtype.kind and a.tolist() == b.tolist(), name
        if a.dtype.kind == "f":  # -0.0 is not 0.0
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist(), name


class TestAggregateCsv:
    def test_embedded_round_trip(self, tmp_path, paper_1d):
        out = tmp_path / "agg.csv"
        write_aggregate_csv(paper_1d, out)
        loaded = load_aggregate_csv(
            out, name=paper_1d.name, dimensionality=paper_1d.dimensionality
        )
        assert loaded.summaries == paper_1d.summaries
        assert loaded.name == paper_1d.name

    def test_numpy_floats_written_as_numbers(self, tmp_path):
        summary = ConditionSummary(Condition(np.float64(20.0), np.float64(2.0)),
                                   mt_ms=np.float64(444.0), sigma_obs_mm=np.float64(0.69))
        out = tmp_path / "agg.csv"
        write_aggregate_csv(Dataset("d", Dimensionality.ONE_D, (summary,)), out)
        assert out.read_text(encoding="utf-8").splitlines()[1] == "20.0,2.0,444.0,0.69,2,0.0"
        assert load_aggregate_csv(out).summaries == (summary,)

    def test_dash_writes_stdout(self, tmp_path, monkeypatch, capsys, paper_1d):
        monkeypatch.chdir(tmp_path)
        write_aggregate_csv(paper_1d, "agg.csv")
        write_aggregate_csv(paper_1d, "-")
        assert capsys.readouterr().out == (tmp_path / "agg.csv").read_text(encoding="utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["agg.csv"]

    def test_duplicate_condition_rejected(self, tmp_path):
        lines = [
            ",".join(AGGREGATE_CSV_COLUMNS),
            "20,2,444,0.69",
            "20,2,450,0.70",
        ]
        with pytest.raises(DuplicateConditionError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert isinstance(exc.value, ParseError) and exc.value.line == 3

    def test_zero_width_is_validation_error(self, tmp_path):
        # the row breaks a ConditionSummary rule, reported as the row's ParseError
        lines = [",".join(AGGREGATE_CSV_COLUMNS), "20,0,444,0.69"]
        with pytest.raises(ParseError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert (exc.value.line, str(exc.value)) == (
            2, "line 2: width must be finite and > 0, got 0.0")

    @pytest.mark.parametrize("row,column", [
        ("20,nan,444,0.69", "W_mm"),
        ("20,2,inf,0.69", "mt_ms"),
        ("20,2,444,nan", "sigma_obs_mm"),
        ("inf,2,444,0.69", "A_mm"),
    ])
    def test_non_finite_number_names_column_and_line(self, tmp_path, row, column):
        lines = [",".join(AGGREGATE_CSV_COLUMNS), "30,4,400,1.28", row]
        with pytest.raises(ParseError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert exc.value.line == 3
        assert column in str(exc.value)

    @pytest.mark.parametrize("bad,message", [
        ("45,8,350,-2.0,y", "endpoint spread must be finite and > 0, got -2.0"),
        ("45,8,abc,2.0,y", "column 'mt_ms': not a number: 'abc'"),
    ])
    def test_line_named_after_a_field_that_spans_lines(self, tmp_path, bad, message):
        # the quoted note takes lines 2 and 3, so the bad row is on line 5
        lines = [",".join(AGGREGATE_CSV_COLUMNS) + ",note", '20,4,300,1.0,"a\nb"',
                 "30,4,350,1.2,x", bad]
        with pytest.raises(ParseError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert str(exc.value) == f"line 5: {message}"

    def test_stdin_dataset_named_like_the_cli_names_it(self, tmp_path, monkeypatch,
                                                        paper_1d):
        write_aggregate_csv(paper_1d, tmp_path / "agg.csv")
        text = (tmp_path / "agg.csv").read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        loaded = load_aggregate_csv("-")
        assert (loaded.name, loaded.summaries) == ("<stdin>", paper_1d.summaries)

    def test_missing_column_is_parse_error(self, tmp_path):
        lines = ["A_mm,W_mm,mt_ms", "20,2,444"]
        with pytest.raises(ParseError):
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_aggregate_csv(
                write(tmp_path, [",".join(AGGREGATE_CSV_COLUMNS)], "agg.csv")
            )


    def test_padded_fields_and_header_load_as_unpadded(self, tmp_path):
        header = AGGREGATE_CSV_COLUMNS + ["n_trials", "error_rate"]
        rows = ["20,2,444,0.69,16,0.1", "30,4,400,1.28,12,0"]
        padded = [",".join(f"  {f} " for f in line.split(","))
                  for line in [",".join(header)] + rows]
        assert padded[1].startswith("  20 ,  2 ")
        got = load_aggregate_csv(write(tmp_path, padded, "padded.csv"), name="d")
        want = load_aggregate_csv(write(tmp_path, [",".join(header)] + rows), name="d")
        assert got.summaries == want.summaries
        assert [s.n_trials for s in got.summaries] == [16, 12]

    def test_padded_bad_field_quoted_stripped(self, tmp_path):
        lines = [",".join(AGGREGATE_CSV_COLUMNS), "20,2, abc ,0.69"]
        with pytest.raises(ParseError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert str(exc.value) == "line 2: column 'mt_ms': not a number: 'abc'"

    def test_first_of_two_bad_lines_named(self, tmp_path):
        bad_w, bad_mt = "30,zero,400,1.28", "45,2,abc,0.76"
        for first, second, message in [
            (bad_w, bad_mt, "line 3: column 'W_mm': not a number: 'zero'"),
            (bad_mt, bad_w, "line 3: column 'mt_ms': not a number: 'abc'"),
        ]:
            lines = [",".join(AGGREGATE_CSV_COLUMNS), "20,2,444,0.69", first,
                     "60,2,602,0.94", second]
            with pytest.raises(ParseError) as exc:
                load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
            assert (exc.value.line, str(exc.value)) == (3, message)

    def test_duplicate_of_a_row_in_an_earlier_block_named(self, tmp_path):
        rows = [f"{10 + i},2,400,1.1" for i in range(BLOCK_ROWS + 5)]
        lines = [",".join(AGGREGATE_CSV_COLUMNS)] + rows + ["10,2,444,0.69"]
        with pytest.raises(DuplicateConditionError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert str(exc.value) == f"line {BLOCK_ROWS + 7}: duplicate condition (A=10, W=2)"

    def test_bad_line_in_a_later_block_named(self, tmp_path):
        rows = [f"{10 + i},2,400,1.1" for i in range(BLOCK_ROWS + 5)]
        lines = [",".join(AGGREGATE_CSV_COLUMNS)] + rows + ["1,2,400,inf", "x"]
        with pytest.raises(ParseError) as exc:
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))
        assert str(exc.value) == (f"line {BLOCK_ROWS + 7}: column 'sigma_obs_mm': "
                                  "not a finite number: 'inf'")

    @settings(max_examples=100)
    @given(st.data())
    def test_write_then_load_gives_back_every_summary(self, tmp_path_factory, data):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        conditions = data.draw(st.lists(st.tuples(positive, positive), min_size=1,
                                        max_size=8, unique=True))
        summaries = tuple(
            ConditionSummary(
                Condition(a, w), mt_ms=data.draw(positive),
                sigma_obs_mm=data.draw(positive),
                n_trials=data.draw(st.integers(2, 2**80)),
                error_rate=data.draw(st.floats(0.0, 1.0)),
            )
            for a, w in conditions
        )
        out = tmp_path_factory.mktemp("round") / "agg.csv"
        write_aggregate_csv(Dataset("d", Dimensionality.ONE_D, summaries), out)
        loaded = load_aggregate_csv(out, name="d").summaries
        assert loaded == summaries
        assert [type(s.n_trials) for s in loaded] == [int] * len(summaries)

        def floats(summaries):
            return np.array([(s.condition.amplitude_mm, s.condition.width_mm, s.mt_ms,
                              s.sigma_obs_mm, s.error_rate) for s in summaries]).tobytes()

        assert floats(loaded) == floats(summaries)


class TestLoadInput:
    @pytest.mark.parametrize("header", [HEADER, ",".join(f'"{c}"' for c in TRIAL_CSV_COLUMNS)])
    def test_participant_header_is_a_tap_log(self, tmp_path, header):
        taps = load_input(write(tmp_path, ["# seed=7", header] + GOOD_ROWS))
        assert isinstance(taps, TapTable) and len(taps) == 3

    def test_other_header_is_condition_summaries(self, tmp_path):
        lines = ["# study=x", "note," + ",".join(AGGREGATE_CSV_COLUMNS), "a,20,2,444,0.69"]
        assert load_input(write(tmp_path, lines)) == [
            ConditionSummary(Condition(20, 2), mt_ms=444, sigma_obs_mm=0.69)
        ]


class TestEmbedded:
    def test_reference_cells_1d(self, paper_1d):
        lookup = {
            (s.condition.amplitude_mm, s.condition.width_mm): s
            for s in paper_1d.summaries
        }
        assert lookup[(20, 2)].mt_ms == 444
        assert lookup[(20, 2)].sigma_obs_mm == pytest.approx(0.69)
        assert lookup[(60, 10)].mt_ms == 393

    def test_reference_cells_2d(self, paper_2d):
        lookup = {
            (s.condition.amplitude_mm, s.condition.width_mm): s
            for s in paper_2d.summaries
        }
        assert lookup[(60, 10)].mt_ms == 385
        assert lookup[(60, 10)].sigma_obs_mm == pytest.approx(2.31)

    @pytest.mark.parametrize("name", ["paper-1d", "paper-2d"])
    def test_every_cell_matches_the_golden_dump(self, name):
        dump = Path(__file__).parent / "data" / "outputs" / f"{name}-aggregate.csv"
        assert load_aggregate_csv(dump).summaries == embedded(name).summaries

    def test_grid_is_4_by_5(self, paper_1d, paper_2d):
        for ds in (paper_1d, paper_2d):
            amps = {s.condition.amplitude_mm for s in ds.summaries}
            widths = {s.condition.width_mm for s in ds.summaries}
            assert amps == {20, 30, 45, 60}
            assert widths == {2, 4, 6, 8, 10}
            assert len(ds.summaries) == 20

    def test_sigma_catalog_values(self, paper_1d, paper_2d):
        # displayed at 3 significant figures these read
        # 0.884 / 0.736 / 0.977 / 1.01 and 1.37 / 1.16 / 1.33 / 1.27
        vals_1d = [round(e.sigma_a_mm, 3) for e in paper_1d.sigma_a_catalog]
        assert vals_1d == [0.884, 0.736, 0.977, 1.006]
        vals_2d = [round(e.sigma_a_mm, 2) for e in paper_2d.sigma_a_catalog]
        assert vals_2d == [1.37, 1.16, 1.33, 1.27]

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownDatasetError) as exc:
            embedded("paper-3d")
        assert "paper-1d" in str(exc.value)

    def test_embedded_names_listed(self):
        assert set(EMBEDDED_NAMES) >= {"paper-1d", "paper-2d"}
        for name in EMBEDDED_NAMES:
            assert embedded(name).name == name
        with pytest.raises(UnknownDatasetError):
            embedded("nope")
