import pytest

from ffitts import (
    AGGREGATE_CSV_COLUMNS,
    Condition,
    DuplicateConditionError,
    EMBEDDED_NAMES,
    EmptyDatasetError,
    ParseError,
    TRIAL_CSV_COLUMNS,
    UnknownDatasetError,
    ValidationError,
    embedded,
    load_aggregate_csv,
    load_trials_csv,
    write_aggregate_csv,
    write_trials_csv,
)

HEADER = ",".join(TRIAL_CSV_COLUMNS)

GOOD_ROWS = [
    "p1,0,1,20,4,0,0,0.3,-0.2,312.5,1,false",
    "p1,0,2,20,4,0,0,-0.1,0.4,287.0,1,false",
    "p1,0,2,20,4,0,0,0.0,0.1,120.0,2,false",
]


def write(tmp_path, lines, name="trials.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTrialsCsv:
    def test_well_formed_file(self, tmp_path):
        records = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        assert len(records) == 3
        assert records[0].condition == Condition(20, 4)
        assert records[2].tap_index == 2

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

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            load_trials_csv(write(tmp_path, ["a,b,c", "1,2,3"]))

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
        records = load_trials_csv(write(tmp_path, [HEADER, row] + GOOD_ROWS))
        assert records[0].is_practice is True

    def test_round_trip(self, tmp_path):
        records = load_trials_csv(write(tmp_path, [HEADER] + GOOD_ROWS))
        out = tmp_path / "again.csv"
        write_trials_csv(records, out, metadata={"seed": "7"})
        assert load_trials_csv(out) == records


class TestAggregateCsv:
    def test_embedded_round_trip(self, tmp_path, paper_1d):
        out = tmp_path / "agg.csv"
        write_aggregate_csv(paper_1d, out)
        loaded = load_aggregate_csv(
            out, name=paper_1d.name, dimensionality=paper_1d.dimensionality
        )
        assert loaded.summaries == paper_1d.summaries
        assert loaded.name == paper_1d.name

    def test_duplicate_condition_rejected(self, tmp_path):
        lines = [
            ",".join(AGGREGATE_CSV_COLUMNS),
            "20,2,444,0.69",
            "20,2,450,0.70",
        ]
        with pytest.raises(DuplicateConditionError):
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))

    def test_zero_width_is_validation_error(self, tmp_path):
        lines = [",".join(AGGREGATE_CSV_COLUMNS), "20,0,444,0.69"]
        with pytest.raises(ValidationError):
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))

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

    def test_missing_column_is_parse_error(self, tmp_path):
        lines = ["A_mm,W_mm,mt_ms", "20,2,444"]
        with pytest.raises(ParseError):
            load_aggregate_csv(write(tmp_path, lines, "agg.csv"))

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_aggregate_csv(
                write(tmp_path, [",".join(AGGREGATE_CSV_COLUMNS)], "agg.csv")
            )


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
