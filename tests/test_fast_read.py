"""The fast table read against read_columns.

``jsonio.fast_table`` reads a detections, ground-truth or track file with
numpy's C reader.  It must either decline (None) or return exactly the
table that ``read_columns`` reads for the file through the format's row
reader, with no error; every error then still comes from
``read_columns``.  Tables are compared on their float bits, so the sign of
a zero counts.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridscope import jsonio
from gridscope.detections import (
    DETECTION_FORMAT,
    Detection,
    DetectionTable,
    read_detection_table,
    write_detections,
)
from gridscope.errors import CsvError, FormatError
from gridscope.fusion import TRACK_FORMAT, TrackTable, read_track, write_track
from gridscope.metrics import GT_HEADER, GROUND_TRUTH_FORMAT
from gridscope.metrics import read_ground_truth_table
from strategies import (
    DETECTION_ROW,
    GT_ROW,
    TRACK_ROW,
    plausible_box_row,
    plausible_row,
    plausible_track_row,
)

# Per format: the rows to draw, rows that parse, and the i-th row of a run
# of valid rows.
FORMATS = {
    "detections": (
        DETECTION_FORMAT, DETECTION_ROW, plausible_row(),
        lambda i: ["side0", str(i), f"{i}.5", "1", "2", "3", "4", "0.5"],
    ),
    "ground_truth": (
        GROUND_TRUTH_FORMAT, GT_ROW, plausible_box_row(),
        lambda i: [str(i), "1", "2", "30.5", "40"],
    ),
    "track": (
        TRACK_FORMAT, TRACK_ROW, plausible_track_row(),
        lambda i: [f"{i}.5", "1", "2", "3", "side0", "side1", "0.25", "true"],
    ),
}

# Field texts that float() and np.loadtxt may read differently, or that the
# csv module and a split on commas may part differently.
ODD_FIELDS = [
    "1_0", "\uff11", "\u0663", " 1.5 ", "\x0c2", "2\x0b", "\xa03", "2.5\u3000", "0x10",
    "+1.5", ".5", "5.", "1E5", "-0.0", "0.0", "Infinity", "-nan", "1e400",
    "1e-400", "#1", "#side0", "", " ", "\ufeff1", "si\x0cde0", "a b",
    "1\x1c", "a\x85b", "a\x00b", '"1"', 'a"b', "side0\r",
]

# Lines put between the rows: blank, whitespace only, a lone form feed or
# comma, and a row with a trailing comma.
ODD_LINES = ["", "   ", "\t", "\x0c", ",", "side0,0,1,1,2,3,4,0.5,"]


@st.composite
def csv_text(draw, name):
    """A file's text: the header, then rows that parse and now and then one
    from the format's strategy, an odd field or an odd line; sometimes a
    run of 2047 to 2100 valid rows.  Lines end in LF or CRLF, the last one
    sometimes in nothing."""
    fmt, row, plausible, valid = FORMATS[name]
    rows = [
        list(draw(row if draw(st.integers(0, 7)) == 0 else plausible))
        for _ in range(draw(st.integers(0, 12)))
    ]
    if rows and draw(st.integers(0, 2)) == 0:
        r = rows[draw(st.integers(0, len(rows) - 1))]
        r[draw(st.integers(0, len(r) - 1))] = draw(st.sampled_from(ODD_FIELDS))
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
    run = draw(st.sampled_from([0, 0, 0, 2047, 2100]))
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = [",".join(valid(i)) for i in range(run)]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    ending = draw(st.sampled_from([newline, newline, newline, ""]))
    return newline.join([",".join(fmt.header)] + lines) + ending


def _read_columns(path, fmt):
    """The table and errors read_columns reads of file ``path`` in lenient
    mode through the format's row reader, or None where it raises."""
    try:
        items, errors = jsonio.read_file(
            path, jsonio.read_columns, fmt.header, fmt.make, False
        )
    except CsvError:
        return None
    return fmt.of(items), errors


def assert_same_table(fast, table):
    assert type(fast) is type(table)
    for a, b in zip(fast.columns(), table.columns()):
        if isinstance(b, list):
            assert isinstance(a, list) and a == b
            assert all(type(text) is str for text in a)
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()  # the bits, so -0.0 counts


def check_fast_read(path, fmt):
    """The fast read of ``path`` declines or equals read_columns' table,
    which must then have no error; returns the fast table."""
    fast = jsonio.fast_table(path, fmt)
    if fast is not None:
        expected = _read_columns(path, fmt)
        assert expected is not None
        table, errors = expected
        assert errors == []
        assert_same_table(fast, table)
    return fast


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_read_declines_or_equals_read_columns(name, data):
    text = data.draw(csv_text(name), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode())
        check_fast_read(path, FORMATS[name][0])


LIMIT = csv.field_size_limit()
DETECTIONS_HEADER = ",".join(DETECTION_FORMAT.header)
ROW = "side0,7,1.5,1,2,3,4,0.5"


def _long_row(length: int) -> str:
    """A valid detections row of ``length`` bytes: its timestamp is 1.5
    behind leading zeros, so no field nears the csv field size limit."""
    head, tail = "side0,7,", "1.5,1,2,3,4,0.5"
    return head + "0" * (length - len(head) - len(tail)) + tail

# name: (body below the detections header, whether the fast read takes it)
EXAMPLES = {
    "hash_in_a_text_field": ("#side0,7,1.5,1,2,3,4,0.5\n", True),
    "hash_in_a_real_field": ("side0,7,#1.5,1,2,3,4,0.5\n", False),
    "blank_line": (f"{ROW}\n\n{ROW}\n", True),
    "blank_line_after_the_header": (f"\n{ROW}\n", True),
    "blank_last_lines": (f"{ROW}\n\n\n", True),
    "whitespace_only_line": (f"{ROW}\n   \n{ROW}\n", False),
    "padded_fields": (" side0 , 7 , 1.5 ,\t1, 2 ,3 ,4, 0.5 \n", True),
    "nan": ("side0,7,nan,1,2,3,4,0.5\n", False),
    "inf": ("side0,7,1.5,1,2,inf,4,0.5\n", False),
    "1e400": ("side0,7,1.5,1,2,1e400,4,0.5\n", False),
    # no mask but the finite check refuses an infinite timestamp
    "infinite_timestamp": ("side0,7,inf,1,2,3,4,0.5\n", False),
    "negative_zero": ("side0,7,-0.0,-0.0,2,3,4,0.5\n", True),
    "underscore_digits": ("side0,7,1_0,1,2,3,4,0.5\n", False),
    "full_width_digits": ("side0,7,\uff11,1,2,3,4,0.5\n", False),
    "bom_in_a_text_field": ("\ufeff" + ROW + "\n", True),
    "bom_in_a_real_field": ("side0,7,\ufeff1.5,1,2,3,4,0.5\n", False),
    "form_feed_in_a_field": ("si\x0cde0,7,1.5,\x0c1,2,3,4,0.5\n", True),
    "oversized_padded_real": ("side0,7," + " " * LIMIT + "1.5,1,2,3,4,0.5\n", False),
    "oversized_last_line": (
        f"{ROW}\nside0,7," + " " * LIMIT + "1.5,1,2,3,4,0.5", False
    ),
    # 8000 rows put the padded row far between the body's first and last LF
    "oversized_line_across_reads": (
        f"{ROW}\n" * 8000 + "side0,7," + " " * LIMIT + "1.5,1,2,3,4,0.5\n", False
    ),
    # The scan takes a line of up to the csv field size limit, though it
    # may decline a later one longer than half the limit, and never takes a
    # longer one; the row reader takes both, its fields being shorter.
    "line_at_the_limit": (f"{_long_row(LIMIT)}\n{ROW}\n", True),
    "line_over_half_the_limit": (f"{_long_row(3 * LIMIT // 4)}\n{ROW}\n", True),
    "line_a_byte_over_the_limit": (f"{_long_row(LIMIT + 1)}\n{ROW}\n", False),
    "later_line_a_byte_over_the_limit": (f"{ROW}\n{_long_row(LIMIT + 1)}\n", False),
    "no_final_newline": (f"{ROW}\n{ROW}", True),
    "one_data_row": (f"{ROW}\n", True),
    "header_only": ("", False),
    "trailing_comma": (f"{ROW}\n{ROW},\n", False),
    "crlf_line_ends": (f"{ROW}\r\n\r\n{ROW}\r\n", True),
    "crlf_with_no_final_line_end": (f"{ROW}\r\n{ROW}", True),
    "bare_cr_between_rows": (f"{ROW}\r{ROW}\n", False),
    "bare_cr_at_the_end": (f"{ROW}\n{ROW}\r", False),
    "cr_in_a_field": ("side0\r,7,1.5,1,2,3,4,0.5\n", False),
    # The edges of the buffer the scan checks: the file's last bytes, a body
    # with one LF or none, and a header over a body unlike it.
    "bare_cr_as_the_last_byte": (f"{ROW}\n\r", False),
    "crlf_ending_the_last_row": (f"{ROW}\n{ROW}\r\n", True),
    "one_row_with_no_line_end": (ROW, True),
    "no_lf_in_a_body_over_the_limit": (
        "side0,7," + " " * LIMIT + "1.5,1,2,3,4,0.5", False
    ),
    "header_over_blank_crlf_lines": ("\r\n\r\n", False),
    "padded_header_over_a_plain_body": (f"{ROW}\n{ROW}\n", True),
}

# name: an example's header line, where it is not DETECTIONS_HEADER
HEADERS = {
    "padded_header_over_a_plain_body": " camera_id\t,frame_index ,"
    + ",".join(DETECTION_FORMAT.header[2:]),
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_fast_read_examples(tmp_path, name):
    body, taken = EXAMPLES[name]
    path = tmp_path / "detections.csv"
    path.write_bytes(f"{HEADERS.get(name, DETECTIONS_HEADER)}\n{body}".encode())
    assert (check_fast_read(path, DETECTION_FORMAT) is not None) == taken


# What str.strip removes from a field: every ASCII byte that str.isspace
# holds but the LF and CR of a line end, and two non-ASCII spaces.
PADDING = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u3000"]


@pytest.mark.parametrize("pad", PADDING)
def test_padding_at_the_edge_of_a_text_field_is_stripped(tmp_path, pad):
    """The fast read keeps its text columns unstripped only when the file
    holds no padding; here it strips them as the row reader does."""
    path = tmp_path / "detections.csv"
    body = f"{ROW}\n{pad}side0,7{pad},1.5,1,2,3,4,0.5\n"
    path.write_bytes(f"{DETECTIONS_HEADER}\n{body}".encode())
    fast = check_fast_read(path, DETECTION_FORMAT)
    assert fast is not None and fast.camera_id == ["side0", "side0"]
    assert fast.frame_index == ["7", "7"]


def test_a_bom_before_the_header_declines(tmp_path):
    path = tmp_path / "detections.csv"
    path.write_bytes(f"\ufeff{DETECTIONS_HEADER}\n{ROW}\n".encode())
    assert jsonio.fast_table(path, DETECTION_FORMAT) is None
    with pytest.raises(CsvError) as err:
        read_detection_table(path)
    assert err.value.row == 1


# The public readers, each with one valid row of its format.
READERS = {
    "detections": (read_detection_table, DETECTION_FORMAT, ROW),
    "ground_truth": (read_ground_truth_table, GROUND_TRUTH_FORMAT, "0,1,2,30.5,40"),
    "track": (read_track, TRACK_FORMAT, "0.5,1,2,3,side0,side1,0.25,true"),
}


def _strictly(reader):
    if reader is read_detection_table:
        return lambda path: reader(path, strict=True)
    return reader


# A row's text edited to another width, and the width it then has over
# the header's.
WIDTH_EDITS = {
    "trailing_comma": (lambda row: row + ",", 1),
    "one_field_more": (lambda row: row + ",1", 1),
    "one_field_fewer": (lambda row: row.rsplit(",", 1)[0], -1),
}


@pytest.mark.parametrize("edit", WIDTH_EDITS)
@pytest.mark.parametrize("name", READERS)
def test_a_row_of_another_width_is_refused(tmp_path, name, edit):
    """np.loadtxt refuses a row of another width than its dtype's, so the
    fast read declines the file and read_columns refuses the row."""
    reader, fmt, row = READERS[name]
    rewrite, extra = WIDTH_EDITS[edit]
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(fmt.header)}\n{row}\n{rewrite(row)}\n{row}\n")
    assert jsonio.fast_table(path, fmt) is None
    width = len(fmt.header)
    with pytest.raises(CsvError) as err:
        _strictly(reader)(path)
    reason = f"expected {width} fields, got {width + extra}"
    assert (err.value.row, err.value.reason) == (3, reason)


@pytest.mark.parametrize("name", READERS)
def test_a_plain_file_is_read_in_one_loadtxt_pass(
    tmp_path, monkeypatch, no_slow_read, name
):
    reader, fmt, row = READERS[name]
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(fmt.header)}\n{row}\n{row}\n")
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    table = reader(path)
    assert len(table[0] if isinstance(table, tuple) else table) == 2
    assert len(calls) == 1 and "usecols" not in calls[0]


@pytest.mark.parametrize("body", ["", "\n", "\n\n", "   \n"])
@pytest.mark.parametrize("name", READERS)
def test_a_file_with_no_row_reads_empty_without_a_warning(tmp_path, name, body):
    """np.loadtxt warns on a body with no row, and any warning fails the
    suite; the fast read declines before it calls np.loadtxt."""
    reader, fmt, _ = READERS[name]
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(fmt.header)}\n{body}")
    assert jsonio.fast_table(path, fmt) is None
    table = reader(path)
    assert len(table[0] if isinstance(table, tuple) else table) == 0


# --- files the package writes are read by the fast path --------------------

_REAL = st.floats(0.0, 1e6, allow_subnormal=False)


@st.composite
def detections(draw):
    u, v = draw(_REAL), draw(_REAL)
    return Detection(
        draw(st.sampled_from(["side0", "side1", "top", "cam-7"])),
        str(draw(st.integers(0, 10**6))),
        draw(_REAL),
        u, v, u + draw(st.floats(0.5, 80.0)), v + draw(st.floats(0.5, 80.0)),
        draw(st.floats(0.0, 1.0)),
    )


@st.composite
def tracks(draw):
    n = draw(st.integers(1, 30))
    reals = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    return TrackTable(
        np.array(draw(reals)), np.array(draw(reals)), np.array(draw(reals)),
        np.array(draw(reals)),
        draw(st.lists(st.sampled_from(["side0", "side1"]), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(["side2", "side3"]), min_size=n, max_size=n)),
        np.abs(draw(reals)),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


@pytest.fixture
def no_slow_read(monkeypatch):
    """A read that falls back to read_columns fails the test."""

    def refuse(*args):
        raise AssertionError("the fast read declined a file the package writes")

    monkeypatch.setattr(jsonio, "read_file", refuse)


@settings(max_examples=50, deadline=None)
@given(dets=st.lists(detections(), min_size=1, max_size=40))
def test_written_detections_take_the_fast_path(dets):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "detections.csv"
        write_detections(path, dets)
        fast = check_fast_read(path, DETECTION_FORMAT)
    assert fast is not None
    assert_same_table(fast, DetectionTable.of(dets))


@settings(max_examples=50, deadline=None)
@given(track=tracks())
def test_written_tracks_take_the_fast_path(track):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "track.csv"
        write_track(path, track)
        assert check_fast_read(path, TRACK_FORMAT) is not None


@settings(max_examples=50, deadline=None)
@given(
    boxes=st.lists(
        st.tuples(_REAL, _REAL, st.floats(1.0, 80.0), st.floats(1.0, 80.0)),
        min_size=1,
        max_size=40,
    )
)
def test_written_ground_truth_takes_the_fast_path(boxes):
    # the layout of tests/test_metrics.py: repr of each corner
    rows = [
        f"{i},{u!r},{v!r},{u + w!r},{v + h!r}" for i, (u, v, w, h) in enumerate(boxes)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gt.csv"
        path.write_text("\n".join([",".join(GT_HEADER), *rows, ""]))
        assert check_fast_read(path, GROUND_TRUTH_FORMAT) is not None


def test_the_public_readers_take_the_fast_path(tmp_path, no_slow_read):
    dets = [Detection("side0", str(i), 10.0 * i, 1, 2, 30.25, 40, 0.5) for i in range(3)]
    write_detections(tmp_path / "d.csv", dets)
    assert read_detection_table(tmp_path / "d.csv") == (DetectionTable.of(dets), [])
    flags = np.array([True, False])
    track = TrackTable(*np.ones((4, 2)), ["side0"] * 2, ["side1"] * 2, np.zeros(2), flags)
    write_track(tmp_path / "t.csv", track)
    assert read_track(tmp_path / "t.csv") == track
    (tmp_path / "gt.csv").write_text(f"{','.join(GT_HEADER)}\n0,1.5,2,30.25,40\n")
    assert len(read_ground_truth_table(tmp_path / "gt.csv")) == 1


# Per format: rows whose every real parses as a float but that a mask, and
# so the row reader, refuses.
REFUSED_ROWS = {
    "detections": [
        "side0,7,1.5,3,2,1,4,0.5", "side0,7,-1,1,2,3,4,0.5", ",7,1.5,1,2,3,4,0.5",
        "side0,7,nan,1,2,3,4,0.5", "side0,7,1.5,1,2,3,4,1e400", "side0,7,1.5,1,2,3,4,1.5",
    ],
    "ground_truth": ["0,5,0,5,10", "0,0,0,1e-200,1e-200", "0,-inf,0,1,1"],
    "track": [
        "0,0,0,0,side0,side1,-1,false", "0,0,0,0,side0,side1,0,True",
        "0,nan,0,0,side0,side1,0,true",
    ],
}


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_refused_row_costs_only_itself(name, data):
    """A plain file with one refused row inserted: its lenient read is the
    fast read of the file without that row, plus that row's one error."""
    fmt, _, plausible, _ = FORMATS[name]
    plain_row = plausible.filter(lambda row: row[0] and '"' not in row[0])
    rows = [",".join(row) for row in data.draw(st.lists(plain_row, min_size=1, max_size=12))]
    bad = data.draw(st.sampled_from(REFUSED_ROWS[name]))
    at = data.draw(st.integers(0, len(rows)))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(newline.join([",".join(fmt.header), *rows, ""]).encode())
        fast = jsonio.fast_table(path, fmt)
        assume(fast is not None)
        rows.insert(at, bad)
        path.write_bytes(newline.join([",".join(fmt.header), *rows, ""]).encode())
        assert jsonio.fast_table(path, fmt) is None
        table, errors = fmt.read(path, strict=False)
    assert_same_table(table, fast)
    with pytest.raises((ValueError, FormatError)) as refused:
        fmt.make(*bad.split(","))
    expected = (at + 2, getattr(refused.value, "column", ""), str(refused.value))
    assert [(e.row, e.column, e.reason) for e in errors] == [expected]
