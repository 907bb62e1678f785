"""CSV ingest: read_table dialect, error messages and the render round trip."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryoion import csvio
from cryoion.csvio import read_table, read_timeseries, render_table
from cryoion.errors import CsvFormatError, InsufficientDataError


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _read(tmp_path, text):
    return read_table(_write(tmp_path, text), ["a", "b"])


@pytest.mark.parametrize("text", [
    'a,b\n"1.5","2"\n3,"4e-3"\n',
    'a,b\r\n1.5,2\r\n3,4e-3\r\n',
    'a,b\r1.5,2\r3,4e-3\r',
    ' a , b \n 1.5 ,  2 \n3,\t4e-3\n',
    '# header comment\na,b\n1.5,2\n\n# comment in the middle\n   \n3,4e-3\n# end\n',
    'a,b\n1.5,2\n3,4e-3',
    'a,b\n1.5,"2\n3,4e-3\n',
    'a,b\n1.5\x1c,2\n3,4e-3\n',
], ids=["quoted", "crlf", "cr", "spaces", "comments_and_blanks", "no_final_newline",
        "quote_left_open", "strip_only_whitespace"])
def test_read_table_dialect(tmp_path, text):
    table = _read(tmp_path, text)
    assert list(table) == ["a", "b"]
    assert table["a"].tolist() == [1.5, 3.0]
    assert table["b"].tolist() == [2.0, 0.004]
    assert table["a"].dtype == np.float64 and table["a"].flags.c_contiguous


def test_read_table_columns_are_independent_arrays(tmp_path):
    table = _read(tmp_path, "a,b\n1,2\n3,4\n")
    table["a"][0] = 9.0
    assert table["b"].tolist() == [2.0, 4.0]


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
    ("a,b\n1,2,\n", "line 2: expected 2 fields, got 3"),
    ("a,b\n1,2\n3,x\n", "line 3: could not convert string to float: 'x'"),
    ("a,b\n# c\n\n1,2\n,4\n", "line 5: could not convert string to float: ''"),
    ("a,b\n1,nan\n", "line 2: non-finite value"),
    ("a,b\n1,2\n\n-inf,3\n", "line 4: non-finite value"),
    ("a,b\n1,1e999\n", "line 2: non-finite value"),
    ("a,b\n1,2\n3,x\n5\n", "line 3: could not convert string to float: 'x'"),
    ("a,b\n1,2\n5\n3,x\n", "line 3: expected 2 fields, got 1"),
    ("a,b\n1,nan\n3,x\n", "line 2: non-finite value"),
], ids=["ragged", "trailing_comma", "non_numeric", "empty_field", "nan", "inf",
        "overflow", "first_error_wins", "ragged_before_text", "nan_before_text"])
def test_read_table_bad_row_names_its_line(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(CsvFormatError) as info:
        read_table(path, ["a", "b"])
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
def test_read_table_lines_end_only_at_cr_and_lf(tmp_path, sep):
    # str.splitlines would break line 2 in two and move the error to line 4
    path = _write(tmp_path, f"a,b\n1,2{sep}5,6\n7,x\n")
    with pytest.raises(CsvFormatError) as info:
        read_table(path, ["a", "b"])
    assert str(info.value) == f"{path}: line 2: expected 2 fields, got 3"


def test_read_table_header_only(tmp_path):
    path = _write(tmp_path, "# c\na,b\n\n")
    with pytest.raises(InsufficientDataError) as info:
        read_table(path, ["a", "b"])
    assert str(info.value) == f"{path}: no data rows"


def test_read_table_no_header(tmp_path):
    path = _write(tmp_path, "1,2\n3,4\n")
    with pytest.raises(CsvFormatError) as info:
        read_table(path, ["a", "b"])
    assert str(info.value) == (
        f"{path}: header ['1', '2'] does not match expected ['a', 'b']")


def test_read_table_only_comments(tmp_path):
    path = _write(tmp_path, "# nothing here\n\n")
    with pytest.raises(CsvFormatError) as info:
        read_table(path, ["a", "b"])
    assert str(info.value) == f"{path}: missing header row"


def test_read_table_wrong_header_beats_bad_rows(tmp_path):
    path = _write(tmp_path, "a,c\n1,x\n")
    with pytest.raises(CsvFormatError, match=r"header \['a', 'c'\] does not match"):
        read_table(path, ["a", "b"])


def test_read_table_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="cannot open"):
        read_table(tmp_path / "absent.csv", ["a", "b"])


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=20))
def test_render_read_round_trip(tmp_path_factory, rows):
    a, b = (np.array(col) for col in zip(*rows))
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    path.write_text(render_table({"a": a, "b": b}, comments=["round trip"]), encoding="utf-8")
    table = read_table(path, ["a", "b"])
    assert table["a"].tolist() == [float("%.12g" % v) for v in a]
    assert table["b"].tolist() == [float("%.12g" % v) for v in b]


#: time steps from a small alphabet, so that the middle steps often tie, and
#: any positive float; 0.1 and 1 + 2**-52 make the times round
_steps = st.one_of(st.sampled_from([1e-3, 0.1, 0.25, 1.0, 1.0 + 2**-52, 3.0]),
                   st.floats(1e-6, 1e6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=41), st.floats(-1e3, 1e3))
@example([0.1, 0.25], 0.0)  # even: the mean of two different middle steps
@example([0.25, 0.1, 0.1, 0.25], 0.0)  # even, tied
@example([0.1, 3.0, 0.1], 1.0)  # odd
def test_time_step_has_the_bits_of_numpy_median(tmp_path_factory, steps, t0):
    # with the uniformity tolerance lifted, any increasing time column reaches
    # the median step, which must be np.median's float for odd and even counts
    times = [t0]
    for step in steps:
        times.append(times[-1] + step)
    path = tmp_path_factory.mktemp("ts") / "t.csv"
    path.write_text("t,v\n" + "".join(f"{t!r},1\n" for t in times), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvio, "_REL_DT_TOL", math.inf)
        dt = read_timeseries(path, "t", "v").dt
    assert dt.hex() == float(np.median(np.diff(times))).hex()
