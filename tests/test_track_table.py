"""The track as a TrackTable: its reader, writer and API edges.

``read_track`` checks rows by column masks and re-reads only refused rows
through ``fusion._track_point``; these tests pin it to the row-wise oracle
reader, and every writer and scorer to giving the same bytes for a list of
TrackPoint objects as for their table.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridscope import fusion, jsonio
from gridscope.errors import CsvError, GridscopeError
from gridscope.evaluation import Segment, evaluate_track
from gridscope.export import export_csv, export_ply, export_svg, export_track
from gridscope.fusion import (
    TRACK_HEADER,
    TrackPoint,
    TrackTable,
    as_track_table,
    read_track,
    write_track,
)
from gridscope.geometry import GridBox, WorldPoint3D

GRID = GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 390.0, 850.0)


def valid_row(i: int) -> list[str]:
    pair = ("side0", "side1") if i % 3 else ("side2", "si,de3")
    return [f"{i}.25", f"{i % 7}.5", "-2", "3e2", *pair, "0.125", "true" if i % 2 else "false"]


def track_text(rows: list[list[str]]) -> str:
    lines = [",".join(TRACK_HEADER)]
    lines += [",".join(jsonio.csv_field(f) for f in row) for row in rows]
    return "\n".join(lines) + "\n"


def outcome(read):
    """Each point's repr, so the sign of zero counts, and each error's row,
    column and text; or the error raised."""
    try:
        items, errors = read()
    except CsvError as exc:
        return ("raised", exc.row, exc.column, str(exc))
    return [repr(p) for p in items], [(e.row, e.column, str(e)) for e in errors]


# (column index, text) of each mask a row can fail
MASK_FAILURES = {
    "nan": (1, "nan"),
    "inf": (3, "inf"),
    "negative_dz": (6, "-0.5"),
    "flag": (7, "True"),
}


@pytest.mark.parametrize("failure", MASK_FAILURES)
@pytest.mark.parametrize("n_rows, bad_at", [(2047, 2046), (2048, 2047), (2049, 2048), (2100, 5)])
def test_read_track_equals_the_rowwise_oracle(tmp_path, failure, n_rows, bad_at):
    rows = [valid_row(i) for i in range(n_rows)]
    column, text = MASK_FAILURES[failure]
    rows[bad_at][column] = text
    path = tmp_path / "track.csv"
    path.write_text(track_text(rows))

    def oracle(strict):
        make = lambda row: fusion._track_point(*row)  # noqa: E731
        return jsonio.read_file(path, oracles.read_table, TRACK_HEADER, make, strict)

    def columns(strict):
        return jsonio.read_file(
            path, jsonio.read_columns, TRACK_HEADER, fusion._track_columns,
            TrackTable.concat, strict,
        )

    assert outcome(lambda: (read_track(path), [])) == outcome(lambda: oracle(True))
    assert outcome(lambda: columns(False)) == outcome(lambda: oracle(False))
    with pytest.raises(CsvError) as err:
        read_track(path)
    assert err.value.row == bad_at + 2


def test_a_bad_flag_names_its_column(tmp_path):
    path = tmp_path / "track.csv"
    path.write_text(track_text([valid_row(1), ["0", "0", "0", "0", "side0", "side1", "0", "True"]]))
    with pytest.raises(CsvError) as err:
        read_track(path)
    assert (err.value.row, err.value.column) == (3, "depth_corrected")
    assert str(err.value) == (
        "row 3, column depth_corrected: depth_corrected must be true/false, got 'True'"
    )


_REAL = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.just(-0.0)
_POINT = st.builds(
    TrackPoint,
    _REAL,
    st.builds(WorldPoint3D, _REAL, _REAL, _REAL),
    st.sampled_from([("side0", "side1"), ("side1", "side2"), ("si,de3", 'si"de0')]),
    st.floats(0.0, 1e9) | st.just(-0.0),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_POINT, max_size=30))
def test_write_read_write_is_byte_identical(tmp_path_factory, points):
    tmp = tmp_path_factory.mktemp("track")
    first, second = tmp / "first.csv", tmp / "second.csv"
    write_track(first, TrackTable.from_points(points))
    back = read_track(first)
    assert len(back) == len(points)
    write_track(second, back)
    assert second.read_bytes() == first.read_bytes()


def _bytes_of(write, track, tmp_path: Path, name: str) -> bytes:
    path = tmp_path / name
    write(path, track)
    return path.read_bytes()


WRITERS = {
    "write_track": write_track,
    "export_csv": export_csv,
    "export_ply": export_ply,
    "export_svg": lambda path, track: export_svg(path, track, GRID),
    "export_track_svg": lambda path, track: export_track(path, track, "svg", GRID),
}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(
            TrackPoint,
            st.floats(0.0, 100.0),
            st.builds(
                WorldPoint3D,
                *[st.floats(-500.0, 1500.0) | st.just(-0.0)] * 3,
            ),
            st.sampled_from([("side0", "side1"), ("side3", "side0")]),
            st.floats(0.0, 30.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ),
    st.booleans(),
)
def test_points_and_their_table_give_the_same_bytes(tmp_path_factory, points, bounded):
    tmp = tmp_path_factory.mktemp("out")
    table = TrackTable.from_points(points)
    assert list(table) == points
    for name, write in WRITERS.items():
        assert _bytes_of(write, points, tmp, f"list_{name}") == _bytes_of(
            write, table, tmp, f"table_{name}"
        ), name
    segments = [Segment("a", 0.0, 50.0, "x_min"), Segment("b", 50.0, 100.5, "z_max")]

    def report(track):
        try:
            r = evaluate_track(track, segments, GRID, bounded=bounded)
        except GridscopeError as exc:  # an empty window; the error is the outcome
            return type(exc), str(exc)
        return jsonio.dumps_doc(r.as_doc()), r.human_table()

    assert report(points) == report(table)


def test_read_track_gives_what_the_benchmark_gate_uses(tmp_path):
    points = [
        TrackPoint(50.0 * i, WorldPoint3D(1.0 + i, 2.0, 3.0), ("side0", "side1"), 0.5, True)
        for i in range(5)
    ]
    path = tmp_path / "track.csv"
    write_track(path, points)
    track = read_track(path)
    assert len(track) == 5
    assert all(isinstance(p, TrackPoint) for p in track)
    truth = {p.timestamp_ms: WorldPoint3D(p.position.x, 2.0, 7.0) for p in points}
    assert oracles.mean_point_error(track, truth) == 4.0
    assert as_track_table(track) is track


def test_concat_merges_the_pair_names():
    a = TrackTable.from_points(
        [TrackPoint(0.0, WorldPoint3D(0, 0, 0), ("side0", "side1"), 0.0, False)]
    )
    b = TrackTable.from_points(
        [
            TrackPoint(1.0, WorldPoint3D(1, 1, 1), ("side2", "side3"), 1.0, True),
            TrackPoint(2.0, WorldPoint3D(2, 2, 2), ("side0", "side1"), 2.0, False),
        ]
    )
    joined = TrackTable.concat([a, b])
    assert list(joined) == list(a) + list(b)
    assert [p.pair for p in joined] == [
        ("side0", "side1"), ("side2", "side3"), ("side0", "side1")
    ]
    assert (joined.cam_a, joined.cam_b) == (
        ["side0", "side2", "side0"], ["side1", "side3", "side1"]
    )
