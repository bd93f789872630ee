"""Panel ingestion, pairing, and validation contracts."""

import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosedid import data as panel_io
from dosedid.data import (
    PanelDataset,
    PanelSchema,
    load_panel,
    pair_periods,
    validate,
    write_panel,
)
from dosedid.errors import (
    DataParseError,
    DataValidationError,
    PeriodLookupError,
    SchemaError,
)
from dosedid.simulation import generate_scenario_data


def _write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = PanelSchema(
    id="store",
    treatment="a",
    dose="dist",
    covariates=("price", "sdi"),
    outcomes={0: "y_0", 1: "y_1"},
)

BASIC = """store,price,sdi,a,dist,y_0,y_1
s1,6.4,83.0,1,2.5,140.0,120.0
s2,6.8,66.0,1,4.0,150.0,140.0
s3,6.7,77.0,0,,143.0,150.0
s4,7.3,17.0,0,,74.0,80.0
"""


def test_load_basic_file_echoes_input(tmp_path):
    panel = load_panel(_write(tmp_path, BASIC), SCHEMA)
    assert panel.n == 4
    assert panel.x.shape == (4, 2)
    assert panel.n_treated == 2
    assert panel.period_labels == (0, 1)
    assert panel.ids == ("s1", "s2", "s3", "s4")
    np.testing.assert_array_equal(panel.dose, [2.5, 4.0])
    np.testing.assert_array_equal(panel.x[0], [6.4, 83.0])
    np.testing.assert_array_equal(panel.outcome(1), [120.0, 140.0, 150.0, 80.0])
    np.testing.assert_array_equal(panel.a, [True, True, False, False])


def test_control_with_dose_rejected(tmp_path):
    bad = BASIC.replace("s3,6.7,77.0,0,,", "s3,6.7,77.0,0,1.1,")
    with pytest.raises(DataValidationError) as err:
        load_panel(_write(tmp_path, bad), SCHEMA)
    assert "s3" in str(err.value)


def test_treated_without_dose_rejected(tmp_path):
    bad = BASIC.replace("s1,6.4,83.0,1,2.5,", "s1,6.4,83.0,1,,")
    with pytest.raises(DataValidationError) as err:
        load_panel(_write(tmp_path, bad), SCHEMA)
    assert "s1" in str(err.value)


def test_missing_column_is_schema_error(tmp_path):
    with pytest.raises(SchemaError) as err:
        load_panel(_write(tmp_path, BASIC.replace("dist", "distance")), SCHEMA)
    assert "dist" in str(err.value)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    bad = BASIC.replace("150.0,140.0", "150.0,oops")
    with pytest.raises(DataParseError) as err:
        load_panel(_write(tmp_path, bad), SCHEMA)
    msg = str(err.value)
    assert "row 3" in msg and "y_1" in msg and "oops" in msg


def test_roundtrip_is_bitwise_identity(tmp_path):
    two = generate_scenario_data(80, 42)
    panel = PanelDataset(
        ids=two.ids,
        x=two.x,
        a=two.a,
        dose=two.dose,
        y=np.column_stack([two.y0, two.y1]),
        period_labels=(0, 1),
        covariate_names=two.covariate_names,
    )
    path = tmp_path / "roundtrip.csv"
    schema = write_panel(panel, path)
    back = load_panel(path, schema)
    assert back.ids == panel.ids
    assert back.period_labels == panel.period_labels
    np.testing.assert_array_equal(back.x, panel.x)
    np.testing.assert_array_equal(back.a, panel.a)
    np.testing.assert_array_equal(back.dose, panel.dose)
    np.testing.assert_array_equal(back.y, panel.y)


# Finite floats of every magnitude and sign: subnormals, -0.0 and values
# near the largest double included.
_VALUES = st.floats(allow_nan=False, allow_infinity=False)
# Text that load_panel's stripping leaves as it is.
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6).filter(lambda t: t == t.strip())


@st.composite
def _panels(draw):
    """A panel of 1-12 units, 1-4 covariates and 1-4 periods, with labels in
    increasing order, the order load_panel reads them in."""
    n, p, m = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels = tuple(sorted(draw(st.sets(st.integers(-99, 99), min_size=m, max_size=m))))
    reserved = {"id", "a", "d", *(f"y_{label}" for label in labels)}
    names = draw(st.lists(_TEXT.filter(lambda t: t not in reserved), min_size=p, max_size=p, unique=True))
    a = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)

    def values(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)), dtype=float).reshape(shape)

    return PanelDataset(
        ids=tuple(draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True))),
        x=values(n, p),
        a=a,
        dose=values(int(a.sum())),
        y=values(n, m),
        period_labels=labels,
        covariate_names=tuple(names),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_panels())
def test_write_then_load_gives_back_every_field_bitwise(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        back = load_panel(path, write_panel(panel, path))
    assert back.ids == panel.ids
    assert back.period_labels == panel.period_labels
    assert back.covariate_names == panel.covariate_names
    for name in ("x", "a", "dose", "y"):
        got, want = getattr(back, name), getattr(panel, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _panel(n=20, periods=(0, 1, 2), seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n, dtype=bool)
    a[: n // 2] = True
    return PanelDataset(
        ids=tuple(f"u{i}" for i in range(n)),
        x=rng.normal(size=(n, 3)),
        a=a,
        dose=rng.uniform(1, 5, int(a.sum())),
        y=rng.normal(size=(n, len(periods))),
        period_labels=tuple(periods),
        covariate_names=("x1", "x2", "x3"),
    )


def test_pair_periods_maps_outcomes_and_copies_rest():
    panel = _panel()
    two = pair_periods(panel, 0, 2)
    np.testing.assert_array_equal(two.y0, panel.outcome(0))
    np.testing.assert_array_equal(two.y1, panel.outcome(2))
    np.testing.assert_array_equal(two.x, panel.x)
    np.testing.assert_array_equal(two.dose, panel.dose)
    assert two.n == panel.n and two.n_treated == panel.n_treated
    assert two.source_pair == (0, 2)


def test_pair_periods_rejects_equal_and_unknown():
    panel = _panel()
    with pytest.raises(DataValidationError):
        pair_periods(panel, 1, 1)
    with pytest.raises(PeriodLookupError):
        pair_periods(panel, 0, 9)


def test_pair_periods_constant_series_zero_trend():
    panel = _panel()
    y = np.repeat(panel.y[:, :1], 3, axis=1)
    flat = PanelDataset(
        ids=panel.ids,
        x=panel.x,
        a=panel.a,
        dose=panel.dose,
        y=y,
        period_labels=panel.period_labels,
        covariate_names=panel.covariate_names,
    )
    for pre, post in ((0, 1), (0, 2), (2, 1)):
        assert np.all(pair_periods(flat, pre, post).trend == 0.0)


def test_validate_flags_no_treated():
    panel = _panel()
    all_control = PanelDataset(
        ids=panel.ids,
        x=panel.x,
        a=np.zeros(panel.n, dtype=bool),
        dose=np.empty(0),
        y=panel.y,
        period_labels=panel.period_labels,
        covariate_names=panel.covariate_names,
    )
    report = validate(all_control)
    assert report.fatal
    assert any("no treated units" in msg for _, msg in report.violations)


def test_validate_clean_simulated_dataset():
    two = generate_scenario_data(200, 5)
    panel = PanelDataset(
        ids=two.ids,
        x=two.x,
        a=two.a,
        dose=two.dose,
        y=np.column_stack([two.y0, two.y1]),
        period_labels=(0, 1),
        covariate_names=two.covariate_names,
    )
    report = validate(panel)
    assert not report.violations
    # treated count within binomial range of n * P(A=1), P(A=1) ~ 0.475
    p = 0.475
    se = np.sqrt(200 * p * (1 - p))
    assert abs(report.n_treated - 200 * p) < 4 * se
    assert report.dose_range[0] < report.dose_range[1]


def test_validate_flags_nan_outcome_with_unit():
    panel = _panel()
    y = panel.y.copy()
    y[3, 1] = np.nan
    bad = PanelDataset(
        ids=panel.ids,
        x=panel.x,
        a=panel.a,
        dose=panel.dose,
        y=y,
        period_labels=panel.period_labels,
        covariate_names=panel.covariate_names,
    )
    report = validate(bad)
    assert report.fatal
    assert any("u3" in msg for _, msg in report.violations)
    # pairing into a two-period dataset rejects the non-finite outcome
    with pytest.raises(DataValidationError):
        pair_periods(bad, 0, 1)


def test_arrays_are_immutable():
    two = generate_scenario_data(60, 1)
    with pytest.raises(ValueError):
        two.x[0, 0] = 1.0
    with pytest.raises(ValueError):
        two.dose[0] = 2.0


def test_default_weight_is_unit_and_read_only():
    two = generate_scenario_data(60, 1)
    np.testing.assert_array_equal(two.weight, np.ones(two.n))
    with pytest.raises(ValueError):
        two.weight[0] = 2.0
    np.testing.assert_array_equal(two.weight_treated, np.ones(two.n_treated))
    np.testing.assert_array_equal(two.weight_control, np.ones(two.n_control))


def test_weight_is_checked_when_the_dataset_is_built():
    two = generate_scenario_data(60, 1)
    w = np.arange(1.0, 61.0)
    weighted = replace(two, weight=w)
    np.testing.assert_array_equal(weighted.weight, w)
    np.testing.assert_array_equal(weighted.weight_treated, w[two.a])
    np.testing.assert_array_equal(weighted.weight_control, w[~two.a])
    assert not weighted.weight.flags.writeable
    stack = np.stack([w, 2.0 * w])
    stacked = replace(two, weight=stack)
    np.testing.assert_array_equal(stacked.weight_treated, stack[:, two.a])
    np.testing.assert_array_equal(stacked.split(stack)[1], stack[:, ~two.a])
    assert stacked.weight_control.flags.c_contiguous and stacked.split(stack)[0].flags.c_contiguous
    for bad in (np.ones(59), np.ones((60, 1)), np.ones((2, 3, 60))):
        with pytest.raises(DataValidationError, match="one entry per unit"):
            replace(two, weight=bad)
    for value in (np.nan, np.inf, -1.0):
        bad = np.ones(60)
        bad[7] = value
        with pytest.raises(DataValidationError, match="finite and nonnegative"):
            replace(two, weight=bad)


# ------------------------------------------------- loader semantics, pinned
#
# BASIC's data rows are file rows 2-5; each case below names the row and
# the exact message the loader gives.


def _rows(*lines):
    return BASIC.splitlines()[0] + "\n" + "".join(line + "\n" for line in lines)


def _load_error(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises((DataParseError, DataValidationError)) as err:
        load_panel(path, SCHEMA)
    return path, err


def test_short_row_names_row_and_first_missing_column(tmp_path):
    path, err = _load_error(tmp_path, _rows("s1,6.4,83.0,1,2.5,140.0,120.0", "s2,6.8,66.0,1"))
    assert err.type is DataParseError
    assert str(err.value) == f"{path}: row 3: short row; no column 'dist'"


def test_non_numeric_treatment_is_a_parse_error(tmp_path):
    path, err = _load_error(tmp_path, BASIC.replace("s2,6.8,66.0,1,", "s2,6.8,66.0, yes ,"))
    assert err.type is DataParseError
    assert str(err.value) == f"{path}: row 3, column 'a': non-numeric value 'yes'"


def test_treatment_outside_zero_one_is_a_validation_error(tmp_path):
    path, err = _load_error(tmp_path, BASIC.replace("s2,6.8,66.0,1,", "s2,6.8,66.0,2,"))
    assert err.type is DataValidationError
    assert str(err.value) == f"{path}: row 3: treatment must be 0 or 1, got 2.0"
    # Without a dose the row would pass for a control's.
    for value, shown in (("2", "2.0"), ("nan", "nan"), ("0.5", "0.5")):
        path, err = _load_error(tmp_path, BASIC.replace("s4,7.3,17.0,0,,", f"s4,7.3,17.0,{value},,"))
        assert str(err.value) == f"{path}: row 5: treatment must be 0 or 1, got {shown}"


def test_treated_dose_and_control_dose_messages(tmp_path):
    path, err = _load_error(tmp_path, BASIC.replace("s2,6.8,66.0,1,4.0,", "s2,6.8,66.0,1,far,"))
    assert err.type is DataParseError
    assert str(err.value) == f"{path}: row 3, column 'dist': non-numeric value 'far'"
    path, err = _load_error(tmp_path, BASIC.replace("s4,7.3,17.0,0,,", "s4,7.3,17.0,0,x,"))
    assert err.type is DataValidationError
    assert str(err.value) == f"{path}: row 5: control unit 's4' carries a dose value"
    path, err = _load_error(tmp_path, BASIC.replace("s2,6.8,66.0,1,4.0,", "s2,6.8,66.0,1, ,"))
    assert str(err.value) == f"{path}: row 3: treated unit 's2' has no dose"


def test_blank_rows_are_skipped_but_counted(tmp_path):
    lines = BASIC.splitlines()
    spaced = "\n".join([lines[0], lines[1], "", "   ", " , ,,", lines[2], "", lines[3], lines[4]]) + "\n"
    plain = load_panel(_write(tmp_path, BASIC, "plain.csv"), SCHEMA)
    skipped = load_panel(_write(tmp_path, spaced, "spaced.csv"), SCHEMA)
    assert skipped.ids == plain.ids
    for name in ("x", "a", "dose", "y"):
        np.testing.assert_array_equal(getattr(skipped, name), getattr(plain, name))
    # s3 sits on file row 8 once the four blank rows before it count.
    bad = spaced.replace("s3,6.7,77.0,0,,143.0", "s3,6.7,77.0,0,,oops")
    path, err = _load_error(tmp_path, bad)
    assert str(err.value) == f"{path}: row 8, column 'y_0': non-numeric value 'oops'"


def test_padded_cells_and_ids_are_stripped(tmp_path):
    """Every character ``str.strip`` removes is stripped, the information
    separators U+001C to U+001F included, which ``float`` alone keeps."""
    plain = load_panel(_write(tmp_path, BASIC, "plain.csv"), SCHEMA)
    for pad in (("  ", "\t"), ("\x1f", "\u00a0"), ("\x1c\u2003", " ")):
        padded = "\n".join(
            ",".join(f"{pad[0]}{cell}{pad[1]}" for cell in line.split(",")) if k else line
            for k, line in enumerate(BASIC.splitlines())
        )
        back = load_panel(_write(tmp_path, padded + "\n", "padded.csv"), SCHEMA)
        assert back.ids == ("s1", "s2", "s3", "s4")
        for name in ("x", "a", "dose", "y"):
            assert getattr(back, name).tobytes() == getattr(plain, name).tobytes()


def test_first_bad_row_in_file_order_is_reported(tmp_path):
    text = BASIC.replace("s2,6.8,66.0", "s2,6.8,bad").replace("s4,7.3,17.0,0,", "s4,7.3,17.0,7,")
    path, err = _load_error(tmp_path, text)
    assert str(err.value) == f"{path}: row 3, column 'sdi': non-numeric value 'bad'"
    # Within a row the checks run id, treatment, dose, covariates, outcomes.
    path, err = _load_error(tmp_path, _rows("s1,nan?,83.0,5"))
    assert str(err.value) == f"{path}: row 2: treatment must be 0 or 1, got 5.0"
    path, err = _load_error(tmp_path, _rows("s1,6.4,83.0,1,,x,y"))
    assert str(err.value) == f"{path}: row 2: treated unit 's1' has no dose"


def test_header_only_file_has_no_data_rows(tmp_path):
    for text in (BASIC.splitlines()[0] + "\n", BASIC.splitlines()[0] + "\n\n  \n"):
        path, err = _load_error(tmp_path, text)
        assert err.type is DataParseError
        assert str(err.value) == f"{path}: no data rows"
    path, err = _load_error(tmp_path, "")
    assert str(err.value) == f"{path}: empty file"


def _same_panel(got, want):
    assert got.ids == want.ids
    for name in ("x", "a", "dose", "y"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_byte_order_mark_is_not_part_of_the_first_column(tmp_path):
    """A panel saved with a UTF-8 byte-order mark, as spreadsheet programs
    write "CSV UTF-8", loads bitwise like the plain file; its first header
    cell is not read as "\ufeffstore"."""
    plain = load_panel(_write(tmp_path, BASIC, "plain.csv"), SCHEMA)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode("utf-8"))
    _same_panel(load_panel(path, SCHEMA), plain)
    # The row loop reads the mark the same way.
    bad = BASIC.replace("150.0,140.0", "150.0,oops")
    path.write_bytes(b"\xef\xbb\xbf" + bad.encode("utf-8"))
    with pytest.raises(DataParseError, match="row 3, column 'y_1'"):
        load_panel(path, SCHEMA)


def test_quoting_and_line_ends_follow_the_csv_dialect(tmp_path):
    """Quoted ids may hold the delimiter, a doubled quote and a line break,
    kept as the file holds it; CRLF and CR line ends read like LF."""
    plain = load_panel(_write(tmp_path, BASIC, "plain.csv"), SCHEMA)
    quoted = BASIC.replace("s1,", '"s,1",').replace("s2,", '"s""2""",')
    cases = {
        "quoted": (quoted.replace("s3,", '"s\r\n3",'), ("s,1", 's"2"', "s\r\n3", "s4")),
        "crlf": (quoted.replace("\n", "\r\n"), ("s,1", 's"2"', "s3", "s4")),
        "cr": (BASIC.replace("\n", "\r"), plain.ids),
    }
    for name, (text, ids) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        _same_panel(load_panel(path, SCHEMA), replace(plain, ids=ids))


def test_numbers_the_c_reader_refuses_load_through_the_row_loop(tmp_path):
    """Digits grouped by underscores and non-ASCII decimal digits, which
    ``float`` reads and numpy's C reader does not, and an all-blank row,
    which the C reader refuses, load through the row loop bitwise as the
    plain file; the plain file takes the C reader."""
    schema_names = [SCHEMA.id, SCHEMA.treatment, SCHEMA.dose, *SCHEMA.covariates, "y_0", "y_1"]
    plain_path = _write(tmp_path, BASIC, "plain.csv")
    plain = load_panel(plain_path, SCHEMA)
    assert panel_io._read_table(plain_path, schema_names, ",") is not None
    variants = {
        "underscore": BASIC.replace("140.0,120.0", "1_40.0,1_2_0.0"),
        "arabic-indic": BASIC.replace("s4,7.3,17.0", "s4,\u0667.\u0663,\u0661\u0667.0"),
        "blank row": BASIC.replace("s3,", " , ,,,,,\ns3,"),
    }
    for name, text in variants.items():
        path = _write(tmp_path, text, "variant.csv")
        assert panel_io._read_table(path, schema_names, ",") is None, name
        _same_panel(load_panel(path, SCHEMA), plain)


class _CatchWarnings310(warnings.catch_warnings):
    """``warnings.catch_warnings`` with Python 3.10's signature, which has
    no ``action``."""

    def __init__(self, *, record=False, module=None):
        super().__init__(record=record, module=module)


def test_c_reader_runs_under_python_310_catch_warnings(tmp_path, monkeypatch):
    """The C reader takes a valid panel on Python 3.10 too, bitwise as the
    row loop reads it: its warning filter uses no argument 3.10 lacks."""
    schema_names = [SCHEMA.id, SCHEMA.treatment, SCHEMA.dose, *SCHEMA.covariates, "y_0", "y_1"]
    path = _write(tmp_path, BASIC)
    monkeypatch.setattr(warnings, "catch_warnings", _CatchWarnings310)
    columns = panel_io._read_table(path, schema_names, ",")
    assert columns is not None
    for mine, rows in zip(columns, panel_io._read_rows(path, SCHEMA, schema_names)):
        assert np.asarray(mine).tobytes() == np.asarray(rows).tobytes()


def test_validate_flags_repeated_unit_ids(tmp_path):
    """A file that repeats a unit id loads, and ``validate`` reports each
    repeated id, with its row count, as one fatal violation."""
    text = BASIC.replace("s3,", "s1,").replace("s4,", "s2,")
    report = validate(load_panel(_write(tmp_path, text), SCHEMA))
    assert report.fatal
    assert (True, "repeated unit ids: 's1' (2 rows), 's2' (2 rows)") in report.violations
    assert not validate(load_panel(_write(tmp_path, BASIC), SCHEMA)).violations
    many = _panel(n=20)
    many = replace(many, ids=tuple(f"u{i // 2}" for i in range(20)))
    (message,) = [msg for fatal, msg in validate(many).violations if fatal]
    assert message.startswith("repeated unit ids: 'u0' (2 rows), 'u1' (2 rows)") and message.endswith("and 5 more")


def test_group_covariates_are_gathered_once_per_dataset():
    """``x_treated`` and ``x_control`` are gathered once per dataset and
    read-only; a dataset made by ``replace`` gathers its own."""
    data = generate_scenario_data(300, 5)
    for name, rows in (("x_treated", data.a), ("x_control", ~data.a)):
        block = getattr(data, name)
        assert getattr(data, name) is block
        assert not block.flags.writeable
        np.testing.assert_array_equal(block, data.x[rows])
        weighted = replace(data, weight=np.full(data.n, 2.0))
        assert getattr(weighted, name) is not block
        np.testing.assert_array_equal(getattr(weighted, name), block)
