"""The column-table base ``jsonio.Columns``, once for every table it serves.

Each table is built from row tuples here, column by column, and every
operation of the base is checked against what the rows say it must give:
``concat`` the joined rows, ``of`` and ``rows`` the rows themselves, and
``==`` what the rows' tuples give.  Values are compared by ``repr``, so
the sign of -0.0 counts.  A coded column must also be the one coded form
of its str values, and a detections file must read as the row-at-a-time
reader of str camera ids reads it.
"""

from collections import namedtuple
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope.detections import (
    DETECTION_FORMAT,
    Detection,
    DetectionTable,
    read_detection_table,
)
from gridscope.errors import CsvError
from gridscope.fusion import (
    TRACK_FORMAT,
    TRACK_HEADER,
    TrackPoint,
    TrackTable,
    read_track,
    write_track,
)
from gridscope.jsonio import Coded, csv_field
from gridscope.metrics import GROUND_TRUTH_FORMAT, GroundTruthBox, GroundTruthTable

from oracles import rowwise_parse_detections

# each table's column kinds in field order: a coded str column, a str
# list, float64 or bool
KINDS = {
    DetectionTable: "csffffff",
    GroundTruthTable: "sffff",
    TrackTable: "ffffssfb",
}
VALUES = {
    "c": st.text(max_size=4),
    "s": st.text(max_size=4),
    "f": st.floats(width=64) | st.just(-0.0),
    "b": st.booleans(),
}
DTYPES = {"f": np.float64, "b": np.bool_}


def build(cls, rows: list[tuple]):
    """The table of ``rows``, built column by column."""
    kinds = KINDS[cls]
    columns = list(zip(*rows)) or [()] * len(kinds)
    return cls(*(_column(kind, column) for kind, column in zip(kinds, columns)))


def _column(kind: str, values):
    if kind == "c":
        return Coded.of(list(values))
    if kind == "s":
        return list(values)
    return np.array(values, dtype=DTYPES[kind])


def row(*values) -> tuple:
    return values


def check_coded(table, rows: list[tuple]) -> None:
    """Each coded column of ``table`` is the coded form of its rows' values."""
    for i, kind in enumerate(KINDS[type(table)]):
        if kind == "c":
            assert_coded(table.columns()[i], [r[i] for r in rows])


def kinds(table) -> str:
    """The kind of each column that ``table`` holds."""
    out = ""
    for column in table.columns():
        if isinstance(column, Coded):
            out += "c"
        elif isinstance(column, list):
            out += "s"
        else:
            out += {np.dtype(t): k for k, t in DTYPES.items()}[column.dtype]
    return out


def rows_of(cls, max_size: int = 6):
    return st.lists(st.tuples(*map(VALUES.get, KINDS[cls])), max_size=max_size)


@st.composite
def table_rows(draw, max_size: int = 6):
    cls = draw(st.sampled_from(list(KINDS)))
    return cls, draw(rows_of(cls, max_size))


@settings(max_examples=150, deadline=None)
@given(cls=st.sampled_from(list(KINDS)), data=st.data())
def test_concat_joins_the_rows(cls, data):
    parts = data.draw(st.lists(rows_of(cls, 4), min_size=1, max_size=3))
    joined = cls.concat([build(cls, rows) for rows in parts])
    assert type(joined) is cls and kinds(joined) == KINDS[cls]
    assert len(joined) == sum(map(len, parts))
    assert repr(joined.rows(row)) == repr([row for rows in parts for row in rows])
    check_coded(joined, [row for rows in parts for row in rows])


@settings(max_examples=150, deadline=None)
@given(case=table_rows())
def test_of_and_rows_round_trip(case):
    cls, rows = case
    Row = namedtuple("Row", [f.name for f in fields(cls)])
    objects = build(cls, rows).rows(Row)
    assert repr([tuple(o) for o in objects]) == repr(rows)
    again = cls.of(objects)
    assert kinds(again) == KINDS[cls]
    assert repr(again.rows(row)) == repr(rows)
    check_coded(again, rows)


def _flip_zero(value):
    """0.0 for -0.0 and back; any other value as it is."""
    return -value if isinstance(value, float) and value == 0.0 else value


@st.composite
def table_pairs(draw):
    """Two tables of one kind, often with equal or nearly equal rows."""
    cls, rows = draw(table_rows(max_size=4))
    other = draw(
        st.one_of(
            st.just(list(rows)),
            st.just([tuple(map(_flip_zero, row)) for row in rows]),
            rows_of(cls, 4),
            st.just(rows[1:]),
            st.just(rows[::-1]),
        )
    )
    return cls, rows, other


@settings(max_examples=200, deadline=None)
@given(case=table_pairs())
@example(
    case=(
        DetectionTable,
        [("a", "0", 0.0, 1.0, 2.0, 3.0, 4.0, 0.5)] * 2,
        [("a", "0", -0.0, 1.0, 2.0, 3.0, 4.0, 0.5)] * 2,
    )
)
@example(case=(GroundTruthTable, [], []))
def test_equality_is_the_rows_equality(case):
    cls, rows, other = case
    a, b = build(cls, rows), build(cls, other)
    expected = a.rows(row) == b.rows(row)
    assert (a == b) is expected
    assert (a != b) is not expected


def test_tables_of_two_rows_or_none_compare():
    dets = [
        Detection("side0", "0", 0.0, 1.0, 2.0, 3.0, 4.0, 0.5),
        Detection("side1", "1", 1.0, 1.0, 2.0, 5.0, 6.0, 0.9),
    ]
    assert DetectionTable.of(dets) == DetectionTable.of(list(dets))
    assert DetectionTable.of(dets) != DetectionTable.of(dets[::-1])
    assert DetectionTable.of([]) == DetectionTable.of([])
    assert DetectionTable.of([]) != DetectionTable.of(dets)
    boxes = [
        GroundTruthBox("0", 1.0, 2.0, 3.0, 4.0),
        GroundTruthBox("1", 0.0, 0.0, 1.0, 1.0),
    ]
    assert GroundTruthTable.of(boxes) == GroundTruthTable.of(list(boxes))
    assert GroundTruthTable.of(boxes) != GroundTruthTable.of(boxes[:1])
    assert GroundTruthTable.of([]) == GroundTruthTable.of([])
    assert DetectionTable.of([]) != GroundTruthTable.of([])


_NAME = st.sampled_from(["side0", "side1", "si,de2", 'si"de3', '"', ","])
_FINITE = st.floats(-1e6, 1e6) | st.just(-0.0)
_POINT = st.builds(
    TrackPoint,
    _FINITE,
    _FINITE,
    _FINITE,
    _FINITE,
    _NAME,
    _NAME,
    st.floats(0.0, 1e6),
    st.booleans(),
)


def _track_line(p: TrackPoint) -> str:
    """One track file row, written from the point's own fields."""
    flag = "true" if p.depth_corrected else "false"
    return (
        f"{p.timestamp_ms:.6f},{p.x:.6f},{p.y:.6f},{p.z:.6f},"
        f"{csv_field(p.cam_a)},{csv_field(p.cam_b)},{p.z_disagreement_mm:.6f},{flag}\n"
    )


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(st.lists(_POINT, max_size=5), min_size=1, max_size=3))
def test_track_blocks_with_different_quoted_pairs(tmp_path_factory, blocks):
    points = [p for block in blocks for p in block]
    table = TrackTable.concat([TrackTable.of(block) for block in blocks])
    assert repr(list(table)) == repr(points)
    path = tmp_path_factory.mktemp("track") / "track.csv"
    write_track(path, table)
    expected = ",".join(TRACK_HEADER) + "\n" + "".join(map(_track_line, points))
    assert path.read_bytes() == expected.encode()
    assert [(p.cam_a, p.cam_b) for p in read_track(path)] == [
        (p.cam_a, p.cam_b) for p in points
    ]


FORMATS = [DETECTION_FORMAT, GROUND_TRUTH_FORMAT, TRACK_FORMAT]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_format_declares_each_column_once(fmt):
    """The i-th header column is the i-th field of the table and of its row
    class, and each rule of the row class names one of them, or the row."""
    table, row = fields(fmt.table), fields(fmt.table.row)
    assert [f.name for f in table] == [f.name for f in row]
    assert len(fmt.header) == len(row)
    assert {column for column, _, _ in fmt.table.row.rules} <= {"", *(f.name for f in row)}


@pytest.mark.parametrize("fmt", FORMATS)
def test_of_takes_each_column_kind_from_the_row_class(fmt):
    """A column's kind is the type of its row class's field, but for a str
    field that the table declares ``Coded``: that one is a coded column."""
    kind = {"str": "s", "float": "f", "bool": "b"}
    pairs = list(zip(fields(fmt.table), fields(fmt.table.row)))
    expected = "".join("c" if c.type == "Coded" else kind[f.type] for c, f in pairs)
    assert kinds(fmt.table.of([])) == expected
    assert all(f.type == "str" for c, f in pairs if c.type == "Coded")


# --- the coded camera column against the str column it replaced --------------

# Plain names, two padded spellings of "side0", non-ASCII names, names the
# csv module must quote, and an empty one that the rules refuse.
_CAMERA = st.sampled_from(
    ["side0", " side0", "side0\t", "top", "sïde1", "カメラ", "si,de2", 'si"de3', ""]
)


@st.composite
def _detection_files(draw):
    """One to three files of detection rows, each of one camera (read by one
    comparison) or of several (read through a dict); some rows are refused."""
    files = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(_CAMERA, min_size=1, max_size=1 if draw(st.booleans()) else 4))
        rows = []
        for k in range(draw(st.integers(0, 6))):
            good = draw(st.integers(0, 9)) > 0
            rows.append(
                (
                    draw(st.sampled_from(names)),
                    str(k),
                    repr(float(k) if good else -1.0),
                    "1.0", "2.0", "3.0", "4.0", "0.5",
                )
            )
        files.append(rows)
    return files


def _write_detections(path, rows) -> None:
    lines = [",".join(DETECTION_FORMAT.header)]
    lines += [",".join(map(csv_field, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_outcome(read, *args):
    try:
        return read(*args)
    except CsvError as exc:
        return str(exc)


def assert_coded(column, values: list) -> None:
    """``column`` is the one coded form of the str column ``values``."""
    assert isinstance(column, Coded) and column.codes.dtype == np.intp
    assert column.names == tuple(dict.fromkeys(values))
    assert column.tolist() == list(column) == values and column == values
    assert all(type(name) is str for name in column.names)


@settings(max_examples=150, deadline=None)
@given(files=_detection_files(), strict=st.booleans())
def test_a_coded_camera_column_reads_as_the_str_column(tmp_path_factory, files, strict):
    """Each file reads as the row-at-a-time reader of str camera ids reads
    it, strict and lenient alike: the same rows and the same errors, with
    the camera ids coded.  Joined, the tables are the table of the joined
    rows, and ``of`` the detections gives it too."""
    directory = tmp_path_factory.mktemp("coded")
    tables, expected = [], []
    for i, rows in enumerate(files):
        path = directory / f"detections_{i}.csv"
        _write_detections(path, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            oracle = _read_outcome(rowwise_parse_detections, fh, strict)
        got = _read_outcome(read_detection_table, path, strict)
        if isinstance(oracle, str):
            assert got == f"{path}: {oracle}"
            return
        (detections, errors), (table, table_errors) = oracle, got
        assert list(map(str, table_errors)) == list(map(str, errors))
        assert repr(table.rows(row)) == repr([astuple(d) for d in detections])
        assert_coded(table.camera_id, [d.camera_id for d in detections])
        tables.append(table)
        expected += detections
    joined = DetectionTable.concat(tables)
    assert_coded(joined.camera_id, [d.camera_id for d in expected])
    assert joined == DetectionTable.of(expected)
    assert repr(joined.rows(row)) == repr([astuple(d) for d in expected])
    assert len({name.strip() for name in joined.camera_id.names}) == len(
        joined.camera_id.names
    )  # padded spellings of one name are one code


@pytest.mark.parametrize(
    "cameras",
    [[], ["side0"] * 3, ["side0", "top", "side0", "sïde1"], ["side0", " side0 ", "side0\t"]],
)
def test_coded_of_a_str_list_and_of_an_object_array(cameras):
    """Both paths of ``Coded.of`` give one form, and ``strip`` merges the
    names that strip alike into the code of the first."""
    for values in (cameras, np.array(cameras, dtype=object)):
        assert_coded(Coded.of(values), list(cameras))
    stripped = [name.strip() for name in cameras]
    assert_coded(Coded.of(cameras).strip(), stripped)
    assert Coded.concat([Coded.of(cameras), Coded.of([])]) == cameras


@pytest.mark.parametrize(
    "codes, names",
    [
        ([0, 0], ("a", "b")),  # a name no row holds
        ([0, 2], ("a", "b")),  # a code past the names
        ([0, -1], ("a", "b")),
        ([0, 1], ("a", "a")),  # one name twice
    ],
)
def test_a_coded_column_refuses_codes_its_names_do_not_match(codes, names):
    """Consumers read a coded column's names in place of its rows, so each
    name must be distinct and some row's, and each code one of the names."""
    with pytest.raises(ValueError):
        Coded(np.array(codes, dtype=np.intp), names)
