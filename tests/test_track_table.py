"""The track as a TrackTable: its reader, writer and API edges.

``read_track`` reads a plain file whose rows all pass the TrackPoint rules
with numpy's C reader, and any other one row at a time through
``TRACK_FORMAT.make``; these tests pin it to the row-wise oracle reader,
and ``TrackTable.of`` and table iteration, the conversions to and from
TrackPoint objects, to each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridscope import jsonio
from gridscope.errors import CsvError
from gridscope.fusion import (
    TRACK_FORMAT,
    TRACK_HEADER,
    TrackPoint,
    TrackTable,
    read_track,
    write_track,
)
from gridscope.geometry import WorldPoint3D


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


# (column index, text) of each check of the fast read a row can fail
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
        make = lambda row: TRACK_FORMAT.make(*row)  # noqa: E731
        return jsonio.read_file(path, oracles.read_table, TRACK_HEADER, make, strict)

    def columns(strict):
        points, errors = jsonio.read_file(
            path, jsonio.read_columns, TRACK_HEADER, TRACK_FORMAT.make, strict
        )
        return TrackTable.of(points), errors

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
        f"{path}: row 3, column depth_corrected: depth_corrected must be true/false, got 'True'"
    )


@pytest.mark.parametrize(
    "row, column, reason",
    [
        # the first field in header order that does not read
        ("nan,1,2,3,a,b,0.5,maybe", "timestamp_ms", "not a finite number: 'nan'"),
        # a field that does not read, before the TrackPoint check
        ("0,1,2,3,a,b,-1,maybe", "depth_corrected",
         "depth_corrected must be true/false, got 'maybe'"),
        ("0,1,2,3,a,b,-1,true", "z_disagreement_mm",
         "z_disagreement_mm must be >= 0, got -1.0"),
    ],
)
def test_a_row_with_two_faults_names_the_first_in_header_order(tmp_path, row, column, reason):
    path = tmp_path / "track.csv"
    path.write_text(f"{','.join(TRACK_HEADER)}\n{row}\n")
    with pytest.raises(CsvError) as err:
        read_track(path)
    assert (err.value.row, err.value.column, err.value.reason) == (2, column, reason)


_REAL = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.just(-0.0)
_POINT = st.tuples(
    _REAL,
    _REAL,
    _REAL,
    _REAL,
    st.sampled_from([("side0", "side1"), ("side1", "side2"), ("si,de3", 'si"de0')]),
    st.floats(0.0, 1e9) | st.just(-0.0),
    st.booleans(),
).map(lambda f: TrackPoint(*f[:4], *f[4], *f[5:]))


@settings(max_examples=80, deadline=None)
@given(st.lists(_POINT, max_size=30))
def test_write_read_write_is_byte_identical(tmp_path_factory, points):
    tmp = tmp_path_factory.mktemp("track")
    first, second = tmp / "first.csv", tmp / "second.csv"
    write_track(first, TrackTable.of(points))
    back = read_track(first)
    assert len(back) == len(points)
    write_track(second, back)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=80, deadline=None)
@given(st.lists(_POINT, max_size=30))
def test_of_and_iteration_are_inverse(points):
    # repr tells -0.0 from 0.0
    assert repr(list(TrackTable.of(points))) == repr(points)


def test_read_track_gives_what_the_benchmark_gate_uses(tmp_path):
    points = [
        TrackPoint(50.0 * i, 1.0 + i, 2.0, 3.0, "side0", "side1", 0.5, True)
        for i in range(5)
    ]
    path = tmp_path / "track.csv"
    write_track(path, TrackTable.of(points))
    track = read_track(path)
    assert len(track) == 5
    assert all(isinstance(p, TrackPoint) for p in track)
    truth = {p.timestamp_ms: WorldPoint3D(p.x, 2.0, 7.0) for p in points}
    assert oracles.mean_point_error(track, truth) == 4.0


def test_concat_merges_the_pair_names():
    a = TrackTable.of([TrackPoint(0.0, 0, 0, 0, "side0", "side1", 0.0, False)])
    b = TrackTable.of(
        [
            TrackPoint(1.0, 1, 1, 1, "side2", "side3", 1.0, True),
            TrackPoint(2.0, 2, 2, 2, "side0", "side1", 2.0, False),
        ]
    )
    joined = TrackTable.concat([a, b])
    assert list(joined) == list(a) + list(b)
    assert [(p.cam_a, p.cam_b) for p in joined] == [
        ("side0", "side1"), ("side2", "side3"), ("side0", "side1")
    ]
    assert (joined.cam_a, joined.cam_b) == (
        ["side0", "side2", "side0"], ["side1", "side3", "side1"]
    )
