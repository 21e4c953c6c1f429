"""The column-table base ``jsonio.Columns``, once for every table it serves.

Each table is built from row tuples here, column by column, and every
operation of the base is checked against what the rows say it must give:
``concat`` the joined rows, ``of`` and ``rows`` the rows themselves, and
``==`` what the rows' tuples give.  Values are compared by ``repr``, so
the sign of -0.0 counts.
"""

from collections import namedtuple
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope.detections import Detection, DetectionTable
from gridscope.fusion import (
    TRACK_HEADER,
    TrackPoint,
    TrackTable,
    read_track,
    write_track,
)
from gridscope.geometry import WorldPoint3D
from gridscope.jsonio import csv_field
from gridscope.metrics import GroundTruthBox, GroundTruthTable

# each table's column kinds in field order: a str list, float64 or bool
KINDS = {
    DetectionTable: "ssffffff",
    GroundTruthTable: "sffff",
    TrackTable: "ffffssfb",
}
VALUES = {
    "s": st.text(max_size=4),
    "f": st.floats(width=64) | st.just(-0.0),
    "b": st.booleans(),
}
DTYPES = {"f": np.float64, "b": np.bool_}


def build(cls, rows: list[tuple]):
    """The table of ``rows``, built column by column."""
    kinds = KINDS[cls]
    columns = list(zip(*rows)) or [()] * len(kinds)
    return cls(
        *(
            list(column) if kind == "s" else np.array(column, dtype=DTYPES[kind])
            for kind, column in zip(kinds, columns)
        )
    )


def row(*values) -> tuple:
    return values


def kinds(table) -> str:
    """The kind of each column that ``table`` holds."""
    out = ""
    for column in table.columns():
        if isinstance(column, list):
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
    st.builds(WorldPoint3D, _FINITE, _FINITE, _FINITE),
    st.tuples(_NAME, _NAME),
    st.floats(0.0, 1e6),
    st.booleans(),
)


def _track_line(p: TrackPoint) -> str:
    """One track file row, written from the point's own fields."""
    a, b = p.pair
    x, y, z = p.position.x, p.position.y, p.position.z
    flag = "true" if p.depth_corrected else "false"
    return (
        f"{p.timestamp_ms:.6f},{x:.6f},{y:.6f},{z:.6f},"
        f"{csv_field(a)},{csv_field(b)},{p.z_disagreement_mm:.6f},{flag}\n"
    )


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(st.lists(_POINT, max_size=5), min_size=1, max_size=3))
def test_track_blocks_with_different_quoted_pairs(tmp_path_factory, blocks):
    points = [p for block in blocks for p in block]
    table = TrackTable.concat([TrackTable.from_points(block) for block in blocks])
    assert repr(list(table)) == repr(points)
    path = tmp_path_factory.mktemp("track") / "track.csv"
    write_track(path, table)
    expected = ",".join(TRACK_HEADER) + "\n" + "".join(map(_track_line, points))
    assert path.read_bytes() == expected.encode()
    assert [p.pair for p in read_track(path)] == [p.pair for p in points]
