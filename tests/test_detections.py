import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope import detections
from gridscope.detections import (
    CSV_HEADER,
    Detection,
    DetectionTable,
    FrameBundle,
    _own_picks,
    finite_box,
    parse_detections,
    parse_detections_file,
    synchronize,
    synchronize_table,
    write_detections,
)
from gridscope.errors import CsvError
from gridscope.jsonio import FieldError

from oracles import finite_box_oracle, naive_synchronize, rowwise_parse_detections
from strategies import DETECTION_ROW


def det(cam="a", ts=0.0, conf=1.0, box=(0.0, 0.0, 10.0, 10.0), frame="0"):
    return Detection(cam, frame, ts, box[0], box[1], box[2], box[3], conf)


HEADER_LINE = ",".join(CSV_HEADER)


class TestDetection:
    def test_area_and_bbox(self):
        d = det(box=(1.0, 2.0, 4.0, 6.0))
        assert d.area == 12.0
        assert d.bbox == (1.0, 2.0, 4.0, 6.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cam": ""},
            {"ts": -1.0},
            {"box": (5.0, 0.0, 5.0, 10.0)},
            {"box": (0.0, 9.0, 10.0, 9.0)},
            {"box": (2.0, 0.0, 1.0, 10.0)},
            {"conf": 1.5},
            {"conf": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            det(**kwargs)

    def test_an_infinite_time_is_refused(self):
        # simulate's frame times are all the object sees; the reader refuses inf
        with pytest.raises(FieldError, match="timestamp_ms must be finite") as err:
            det(ts=math.inf)
        assert err.value.column == "timestamp_ms"

    def test_frame_index_is_opaque(self):
        assert det(frame="whatever").frame_index == "whatever"

    @pytest.mark.parametrize(
        "box",
        [
            (1.6e308, 0.0, 1.7e308, 10.0),  # u centre overflows
            (0.0, -1.7e308, 10.0, -1.6e308),  # v centre overflows
            (-1e308, 0.0, 1e308, 10.0),  # width overflows
            (0.0, 0.0, 1e200, 1e200),  # area overflows
        ],
    )
    def test_non_finite_centre_or_area_rejected(self, box):
        with pytest.raises(ValueError, match="not finite"):
            det(box=box)

    def test_huge_finite_box_accepted(self):
        d = det(box=(-8e307, 0.0, 8e307, 1.0))
        assert ((d.u_min + d.u_max) / 2.0, d.area) == (0.0, 1.6e308)


# floats at and past every edge of the rule: signed zeros, subnormals, the
# float maximum, infinities and NaN
EDGE_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1.0, -1.0,
         sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan]
    ),
)


@given(box=st.tuples(EDGE_FLOAT, EDGE_FLOAT, EDGE_FLOAT, EDGE_FLOAT))
@example(box=(0.0, 0.0, 1e-200, 1e-200))  # the area underflows
@example(box=(1.6e308, 0.0, 1.7e308, 10.0))  # the centre overflows
@example(box=(math.nan, 0.0, 1.0, 1.0))
@example(box=(-math.inf, 0.0, math.inf, 1.0))
def test_finite_box_gives_one_answer_on_floats_and_on_columns(box):
    on_floats = finite_box(*box)
    with np.errstate(all="ignore"):
        on_columns = finite_box(*(np.array([x]) for x in box))
    assert type(on_floats) is bool
    assert on_columns.shape == (1,)
    assert on_floats == bool(on_columns[0]) == finite_box_oracle(*box)


class TestParse:
    def test_valid_rows(self):
        lines = [
            HEADER_LINE,
            "a,0,100.0,1,2,3,4,0.9",
            "b,1,101.5,5.5,6,7,8,0.75",
        ]
        result = parse_detections(lines)
        assert result.skipped == 0
        assert len(result.detections) == 2
        assert result.detections[1].timestamp_ms == 101.5
        assert result.detections[1].confidence == 0.75

    def test_header_must_match(self):
        with pytest.raises(CsvError) as err:
            parse_detections(["camera,ts", "a,1"])
        assert err.value.row == 1

    def test_missing_header(self):
        with pytest.raises(CsvError):
            parse_detections([])

    def test_blank_lines_ignored(self):
        lines = [HEADER_LINE, "", "a,0,1,0,0,1,1,0.5", "   "]
        assert len(parse_detections(lines).detections) == 1

    def test_lenient_skips_and_reports(self):
        lines = [
            HEADER_LINE,
            "a,0,100,0,0,1,1,0.5",
            "a,0,not_a_number,0,0,1,1,0.5",
            "a,0,100,0,0,1,1",
            "a,0,100,5,0,1,1,0.5",
            "a,0,101,0,0,1,1,0.5",
        ]
        result = parse_detections(lines)
        assert len(result.detections) == 2
        assert result.skipped == 3
        assert [e.row for e in result.errors] == [3, 4, 5]
        assert result.errors[0].column == "timestamp_ms"
        assert result.errors[1].column == ""

    def test_lenient_skips_non_finite_reals(self):
        lines = [
            HEADER_LINE,
            "a,0,nan,0,0,1,1,0.5",
            "a,1,100,0,0,inf,1,0.5",
            "b,0,100,-inf,0,1,1,0.5",
            "b,1,101,0,0,1,1,0.5",
        ]
        result = parse_detections(lines)
        assert [d.timestamp_ms for d in result.detections] == [101.0]
        assert [(e.row, e.column) for e in result.errors] == [
            (2, "timestamp_ms"),
            (3, "u_max"),
            (4, "u_min"),
        ]

    def test_overflowing_box_located(self):
        lines = [
            HEADER_LINE,
            "side0,0,0.0,1.6e308,1.6e308,1.7e308,1.7e308,0.9",
            "side0,1,50.0,0,0,1,1,0.9",
        ]
        result = parse_detections(lines)
        assert [d.frame_index for d in result.detections] == ["1"]
        assert [e.row for e in result.errors] == [2]
        with pytest.raises(CsvError, match="not finite") as err:
            parse_detections(lines, strict=True)
        assert err.value.row == 2

    def test_underflowing_box_located(self):
        # the halved area of the first box underflows to 0; the second's is
        # subnormal but positive
        lines = [
            HEADER_LINE,
            "side0,0,0.0,0,0,1e-200,1e-200,0.9",
            "side0,1,50.0,0,0,1e-160,1e-160,0.9",
        ]
        result = parse_detections(lines)
        assert [d.frame_index for d in result.detections] == ["1"]
        assert [(e.row, e.column) for e in result.errors] == [(2, "")]
        with pytest.raises(CsvError, match="not finite or positive") as err:
            parse_detections(lines, strict=True)
        assert err.value.row == 2

    def test_strict_raises_with_location(self):
        lines = [HEADER_LINE, "a,0,100,0,0,1,1,0.5", "a,0,100,0,0,1,1,bad"]
        with pytest.raises(CsvError) as err:
            parse_detections(lines, strict=True)
        assert err.value.row == 3
        assert err.value.column == "confidence"

    def test_round_trip_preserves_floats(self, tmp_path):
        dets = [
            det("a", 0.1 + 0.2, conf=1.0 / 3.0, box=(0.1, 0.2, 0.30000000000000004, 1.7)),
            det("b", 12345.6789, conf=0.875),
        ]
        path = tmp_path / "d.csv"
        write_detections(path, dets)
        back = parse_detections_file(path).detections
        assert back == dets

    def test_two_writes_byte_identical(self, tmp_path):
        dets = [det("a", 1.5), det("b", 2.5)]
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_detections(p1, dets)
        write_detections(p2, dets)
        assert p1.read_bytes() == p2.read_bytes()


# Tokens whose float() reading is easy to get wrong, and fields that only
# parse when quoted.
TRICKY_FIELDS = ["1_0", " 1.5 ", "-0.0", "nan", "1e400", "1.7e308", "si,de0", 'a"b']


@st.composite
def detection_line(draw):
    """One line of a detections CSV: blank, or a row with some fields quoted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "\t"]))
    fields = list(draw(DETECTION_ROW))
    places = st.sets(st.integers(0, len(fields) - 1), max_size=3)
    for k in draw(places):
        fields[k] = draw(st.sampled_from(TRICKY_FIELDS))
    quoted = draw(places)
    return ",".join(
        '"' + f.replace('"', '""') + '"' if k in quoted else f
        for k, f in enumerate(fields)
    )


def _parse_outcome(parse, lines, strict):
    """What a reader made of ``lines``: each row's values, sign of zero
    included, and each error's row, column and message; or the error raised."""
    try:
        detections, errors = parse(lines, strict)
    except CsvError as exc:
        return ("raised", exc.row, exc.column, str(exc))
    rows = [
        (d.camera_id, d.frame_index, *map(repr, (d.timestamp_ms, *d.bbox, d.confidence)))
        for d in detections
    ]
    return rows, [(e.row, e.column, str(e)) for e in errors]


def _table_parse(lines, strict):
    result = parse_detections(lines, strict=strict)
    return result.detections, result.errors


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(detection_line(), max_size=20), strict=st.booleans())
@example(  # finite corners whose centre and area overflow
    lines=["side0,0,0.0,1.6e308,1.6e308,1.7e308,1.7e308,0.9"], strict=False
)
@example(lines=["side0,0,0.0,1,1,5,5,1.5", "side0,0,0.0,1,1,5,5,-0.0"], strict=False)
@example(  # two bad columns: the first one in the header names the error
    lines=["side0,0,nan,1,1,5,5,x", "side0,0,0.0,1,1,5,5,1"], strict=True
)
@example(lines=["side0,0,1", "side0,0,-1.0,1,1,5,5,1"], strict=False)
@example(  # halved areas that underflow to 0 and that stay subnormal
    lines=["side0,0,0.0,0,0,1e-200,1e-200,0.9", "side0,0,0.0,0,0,5e-324,1,0.9",
           "side0,0,0.0,0,0,1e-160,1e-160,0.9"],
    strict=False,
)
def test_table_reader_matches_the_rowwise_reader(lines, strict):
    text = [HEADER_LINE] + lines
    assert _parse_outcome(_table_parse, text, strict) == _parse_outcome(
        rowwise_parse_detections, text, strict
    )


class TestSynchronize:
    def test_empty(self):
        assert synchronize([]) == []

    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            synchronize([], tolerance_ms=-1.0)

    def test_nan_tolerance(self):
        with pytest.raises(ValueError):
            synchronize([det("a", 100.0)], tolerance_ms=float("nan"))

    def test_nan_timestamp_refused(self):
        # once accepted, these gave bundles at nan, 10.0, nan
        nan = float("nan")
        with pytest.raises(ValueError, match="timestamp_ms"):
            synchronize(
                [
                    det("a", nan, frame="0"),
                    det("a", 10.0, frame="1"),
                    det("b", 10.0, frame="0"),
                    det("a", nan, frame="2"),
                ]
            )

    def test_basic_bundling(self):
        dets = [
            det("a", 100.0),
            det("b", 104.0),
            det("a", 200.0),
            det("b", 203.0),
        ]
        bundles = synchronize(dets, tolerance_ms=25.0, reference_camera="a")
        assert len(bundles) == 2
        assert bundles[0].timestamp_ms == 100.0
        assert tuple(sorted(bundles[0].per_camera)) == ("a", "b")
        assert bundles[1].per_camera["b"].timestamp_ms == 203.0

    def test_out_of_tolerance_left_out(self):
        dets = [det("a", 100.0), det("b", 150.0)]
        bundles = synchronize(dets, tolerance_ms=25.0, reference_camera="a")
        assert tuple(sorted(bundles[0].per_camera)) == ("a",)

    def test_default_reference_is_earliest_first_detection(self):
        dets = [det("b", 90.0), det("a", 100.0), det("b", 200.0)]
        bundles = synchronize(dets, tolerance_ms=1000.0)
        # b starts earlier, so it seeds one bundle per b detection.
        assert len(bundles) == 2

    def test_reference_tie_breaks_by_camera_id(self):
        dets = [det("b", 100.0), det("a", 100.0), det("a", 101.0)]
        bundles = synchronize(dets, tolerance_ms=0.5)
        assert len(bundles) == 2  # "a" wins the tie and has two frames

    def test_unknown_reference_falls_back(self):
        dets = [det("a", 100.0)]
        bundles = synchronize(dets, reference_camera="zz")
        assert len(bundles) == 1

    def test_same_timestamp_reduced_to_primary(self):
        dets = [
            det("a", 100.0, conf=0.9),
            det("a", 100.0, conf=0.4),
            det("b", 100.0),
        ]
        bundles = synchronize(dets, reference_camera="b")
        assert bundles[0].per_camera["a"].confidence == 0.9

    @pytest.mark.parametrize(
        "rows, winner",
        [
            pytest.param([{"conf": 0.5}, {"conf": 0.9}], 1, id="highest-confidence"),
            pytest.param(
                [{"conf": 0.8, "box": (0, 0, 5, 5)}, {"conf": 0.8, "box": (0, 0, 9, 9)}],
                1,
                id="confidence-tie-larger-area",
            ),
            pytest.param(
                [
                    {"conf": 0.8, "box": (1.0, 0.0, 3.0, 8.0)},
                    {"conf": 0.8, "box": (0.0, 0.0, 2.0, 8.0)},
                ],
                1,
                id="area-tie-smallest-bbox",
            ),
            pytest.param([{"frame": "0"}, {"frame": "1"}], 0, id="full-tie-earliest-row"),
        ],
    )
    def test_one_detection_per_camera_frame(self, rows, winner):
        dets = [det("a", 100.0, **row) for row in rows]
        [bundle] = synchronize(dets)
        assert bundle.per_camera["a"] is dets[winner]

    def test_no_detection_claimed_twice(self):
        dets = [det("a", 100.0), det("a", 110.0), det("b", 105.0)]
        bundles = synchronize(dets, tolerance_ms=25.0, reference_camera="a")
        claimed = [b.per_camera.get("b") for b in bundles]
        assert sum(c is not None for c in claimed) == 1

    def test_exact_tie_takes_earlier(self):
        dets = [det("a", 100.0), det("b", 95.0), det("b", 105.0)]
        bundles = synchronize(dets, tolerance_ms=25.0, reference_camera="a")
        assert bundles[0].per_camera["b"].timestamp_ms == 95.0

    def test_bundle_count_never_exceeds_reference(self):
        dets = [det("a", 100.0), det("b", 99.0), det("b", 101.0), det("b", 150.0)]
        bundles = synchronize(dets, tolerance_ms=1000.0, reference_camera="a")
        assert len(bundles) == 1


def _as_comparable(bundles: list[FrameBundle]):
    return [(b.timestamp_ms, dict(b.per_camera)) for b in bundles]


detection_strategy = st.builds(
    det,
    cam=st.sampled_from(["a", "b", "c"]),
    ts=st.sampled_from([float(t) for t in range(0, 60, 5)]),
    conf=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    box=st.sampled_from(
        [(0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 4.0, 4.0), (1.0, 1.0, 5.0, 5.0)]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    dets=st.lists(detection_strategy, max_size=25),
    tolerance=st.sampled_from([0.0, 5.0, 7.5, 25.0]),
    reference=st.sampled_from([None, "a", "b", "zz"]),
)
def test_synchronize_matches_quadratic_reference(dets, tolerance, reference):
    fast = synchronize(dets, tolerance_ms=tolerance, reference_camera=reference)
    slow = naive_synchronize(dets, tolerance, reference_camera=reference)
    assert _as_comparable(fast) == [(ts, members) for ts, members in slow]


FRAME_GAP_MS = 50.0


def clock(cam, times, conf=1.0):
    return [det(cam, t, conf=conf, frame=str(k)) for k, t in enumerate(times)]


# Two boxes of one area at different positions, and one larger box.
CLOCK_BOXES = ((0.0, 0.0, 4.0, 4.0), (1.0, 1.0, 5.0, 5.0), (0.0, 0.0, 10.0, 10.0))


@st.composite
def multi_camera_clocks(draw):
    """2-4 cameras on lockstep or jittered clocks, up to 300 frames each.

    Camera "a" never drops a frame; the others drop at random.  Jitter and
    clock lag come from a few fractions of the frame gap, so exact
    earlier/later ties and shared timestamps both occur.  A frame may hold
    up to three detections, which then differ in confidence, box area or
    box position, or tie on all three; every row gets its own frame index,
    so the rows of a full tie stay apart.
    """
    n_frames = draw(st.integers(1, 300))
    rng = draw(st.randoms(use_true_random=False))
    dets = []
    for cam in "abcd"[: draw(st.integers(2, 4))]:
        lag = draw(st.sampled_from([0.0, 0.25, 0.5])) * FRAME_GAP_MS
        jitter = draw(st.sampled_from([(0.0,), (-0.5, -0.25, 0.0, 0.25, 0.5)]))
        drop = 0.0 if cam == "a" else draw(st.sampled_from([0.0, 0.1, 0.5]))
        for f in range(n_frames):
            if rng.random() < drop:
                continue
            t = (f + 1 + rng.choice(jitter)) * FRAME_GAP_MS + lag
            for _ in range(rng.choice((1, 1, 2, 3))):
                conf = rng.choice((0.5, 1.0))
                box = rng.choice(CLOCK_BOXES)
                dets.append(det(cam, t, conf=conf, box=box, frame=str(len(dets))))
    return dets


@settings(max_examples=100, deadline=None)
@given(
    dets=multi_camera_clocks(),
    tolerance=st.sampled_from(
        [0.0, 0.5 * FRAME_GAP_MS, FRAME_GAP_MS, 2.5 * FRAME_GAP_MS]
    ),
    reference=st.sampled_from(["a", None, "zz"]),
)
# a claimed run on both sides of the insertion point (reference 53 ms)
@example(
    dets=clock("a", [49.0, 50.0, 51.0, 52.0, 53.0, 54.0])
    + clock("b", [10.0 * k for k in range(11)]),
    tolerance=100.0,
    reference="a",
)
# a claim at index 0, with nothing to its left
@example(
    dets=clock("a", [0.0]) + clock("b", [0.0, 50.0]), tolerance=0.0, reference="a"
)
# a claim at the last index, from past the end of the list
@example(
    dets=clock("a", [120.0]) + clock("b", [0.0, 50.0, 100.0]),
    tolerance=25.0,
    reference="a",
)
# an exact earlier/later tie, both at the inclusive tolerance
@example(
    dets=clock("a", [50.0]) + clock("b", [40.0, 60.0]), tolerance=10.0, reference="a"
)
# -0.0 and 0.0 are one timestamp, so one frame of camera "a"
@example(
    dets=[det("a", -0.0, conf=0.5, frame="0"), det("a", 0.0, conf=1.0, frame="1")],
    tolerance=0.0,
    reference="a",
)
def test_synchronize_matches_quadratic_reference_on_long_clocks(
    dets, tolerance, reference
):
    fast = synchronize(dets, tolerance_ms=tolerance, reference_camera=reference)
    slow = naive_synchronize(dets, tolerance, reference_camera=reference)
    assert _as_comparable(fast) == [(ts, members) for ts, members in slow]
    # the bundles hold the caller's own objects, not equal copies
    given_ids = {id(d) for d in dets}
    assert all(id(d) in given_ids for b in fast for d in b.per_camera.values())


def test_synchronize_lockstep_20k_frames_joins_each_frame_to_its_twin():
    # Every claim sits right of a run of claimed slots as long as the
    # recording so far; a scan over that run makes this test take minutes.
    n_frames = 20_000
    cams = ("ref", "s0", "s1", "s2", "s3")
    times = [f * FRAME_GAP_MS for f in range(n_frames)]
    per_cam = {cam: clock(cam, times) for cam in cams}
    dets = [d for cam in cams for d in per_cam[cam]]
    bundles = synchronize(
        dets, tolerance_ms=FRAME_GAP_MS / 2, reference_camera="ref"
    )
    expected = [
        FrameBundle(t, {cam: per_cam[cam][f] for cam in cams})
        for f, t in enumerate(times)
    ]
    assert bundles == expected


# One duplicated frame's rows, by the tie level that decides between them:
# (confidence, box) of each row, table order.
TIE_LEVELS = {
    "confidence": ((0.5, (0.0, 0.0, 10.0, 10.0)), (1.0, (0.0, 0.0, 4.0, 4.0))),
    "area": ((1.0, (0.0, 0.0, 4.0, 4.0)), (1.0, (0.0, 0.0, 10.0, 10.0))),
    # u_min decides; u_max alone would pick the other row
    "box": ((1.0, (1.0, 0.0, 3.0, 8.0)), (1.0, (0.0, 0.0, 4.0, 4.0))),
    "row": ((1.0, (0.0, 0.0, 4.0, 4.0)), (1.0, (0.0, 0.0, 4.0, 4.0))),
}
STEP_MS = 2.5


def frame(cam, t, level=None):
    """The rows of one camera frame: one row, or the two rows of a tie level."""
    rows = TIE_LEVELS[level] if level else ((1.0, (0.0, 0.0, 4.0, 4.0)),)
    return [
        det(cam, t, conf=conf, box=box, frame=f"{cam}{t}/{k}")
        for k, (conf, box) in enumerate(rows)
    ]


@st.composite
def contested_tables(draw):
    """A reference camera "a" and one to three other cameras on a 2.5 ms grid.

    "a" keeps about every second grid point and each other camera a fifth,
    a half or nine tenths of them, so at a tolerance of a few grid steps two
    reference frames often want one frame of a sparse camera (its claim
    loop runs) while a dense camera of the same table has no such pair.
    Any frame may be duplicated at one of the tie levels, a frame at 0 ms
    may be written -0.0, and rows come in a shuffled order.
    """
    rng = draw(st.randoms(use_true_random=False))
    n_steps = draw(st.integers(1, 40))
    dets = []
    for cam in "abcd"[: draw(st.integers(2, 4))]:
        keep = 0.5 if cam == "a" else rng.choice((0.2, 0.5, 0.9))
        for step in range(n_steps):
            if rng.random() >= keep:
                continue
            t = step * STEP_MS
            level = rng.choice((None, None, *TIE_LEVELS))
            rows = frame(cam, t, level)
            if t == 0.0:
                rows = [replace(d, timestamp_ms=rng.choice((0.0, -0.0))) for d in rows]
            dets.extend(rows)
    rng.shuffle(dets)
    return dets


def _same_bundles(dets, tolerance, reference):
    fast = synchronize(dets, tolerance_ms=tolerance, reference_camera=reference)
    slow = naive_synchronize(dets, tolerance, reference_camera=reference)
    assert _as_comparable(fast) == [(ts, members) for ts, members in slow]
    # a representative's -0.0 reaches the bundle instant, as the oracle's does
    assert np.signbit([b.timestamp_ms for b in fast]).tolist() == np.signbit(
        [ts for ts, _ in slow]
    ).tolist()
    given_ids = {id(d) for d in dets}
    assert all(id(d) in given_ids for b in fast for d in b.per_camera.values())


@settings(max_examples=300, deadline=None)
@given(
    dets=contested_tables(),
    tolerance=st.sampled_from([0.0, STEP_MS, 2 * STEP_MS, 3 * STEP_MS, 5 * STEP_MS]),
    reference=st.sampled_from(["a", None]),
)
# no duplicates and no collision: every pick is the reference frame's own
@example(
    dets=frame("a", 0.0) + frame("a", 50.0) + frame("b", 5.0) + frame("b", 45.0),
    tolerance=10.0,
    reference="a",
)
# a duplicated frame of a non-reference camera, decided at each tie level
@example(
    dets=frame("a", 10.0) + frame("b", 10.0, "confidence"), tolerance=0.0, reference="a"
)
@example(dets=frame("a", 10.0) + frame("b", 10.0, "area"), tolerance=0.0, reference="a")
@example(dets=frame("a", 10.0) + frame("b", 10.0, "box"), tolerance=0.0, reference="a")
@example(dets=frame("a", 10.0) + frame("b", 10.0, "row"), tolerance=0.0, reference="a")
# -0.0 and 0.0 in one reference frame; the representative (higher
# confidence, second row) is the -0.0 one, and its sign is the bundle's
@example(
    dets=[det("a", 0.0, conf=0.5, frame="0"), det("a", -0.0, conf=1.0, frame="1")]
    + frame("b", 0.0),
    tolerance=0.0,
    reference="a",
)
# "b" has one frame that both reference frames want; "c" has one frame each
@example(
    dets=frame("a", 45.0) + frame("a", 55.0) + frame("b", 50.0)
    + frame("c", 45.0) + frame("c", 55.0),
    tolerance=10.0,
    reference="a",
)
# an exact earlier/later tie, both at the inclusive tolerance
@example(
    dets=frame("a", 50.0) + frame("b", 40.0) + frame("b", 60.0),
    tolerance=10.0,
    reference="a",
)
def test_synchronize_matches_naive_on_contested_tables(dets, tolerance, reference):
    _same_bundles(dets, tolerance, reference)


@pytest.mark.parametrize(
    "ts, refs, tolerance, picks",
    [
        pytest.param([5.0, 45.0], [0.0, 50.0], 10.0, [0, 1], id="no-collision"),
        pytest.param([40.0, 60.0], [50.0], 10.0, [0], id="tie-takes-earlier"),
        pytest.param([40.0, 59.0], [50.0], 10.0, [1], id="later-strictly-nearer"),
        pytest.param([0.0, 100.0], [50.0], 10.0, [-1], id="none-in-tolerance"),
        pytest.param([50.0], [45.0, 55.0], 10.0, None, id="two-want-one"),
        pytest.param([50.0, 70.0], [45.0, 55.0], 10.0, None, id="two-want-one-earlier"),
    ],
)
def test_own_picks(ts, refs, tolerance, picks):
    got = _own_picks(np.array(ts), np.array(refs), tolerance)
    assert (got if got is None else got.tolist()) == picks


def _clock_table(clocks: dict) -> DetectionTable:
    """One row per (camera, timestamp), built as columns."""
    cams = [cam for cam, times in clocks.items() for _ in times]
    t = np.concatenate(list(clocks.values()))
    box = np.zeros(len(t)), np.zeros(len(t)), np.full(len(t), 4.0), np.full(len(t), 4.0)
    return DetectionTable(cams, ["0"] * len(t), t, *box, np.ones(len(t)))


def _lagged_clocks(n_frames: int) -> dict:
    """A reference camera and four side cameras 5-15 ms behind it, each
    dropping 10% of its frames (the shape of a free-running rig)."""
    rng = np.random.default_rng(7)
    times = np.arange(n_frames) * FRAME_GAP_MS
    clocks = {}
    for cam, lag in zip(("ref", "s0", "s1", "s2", "s3"), (0.0, 5.0, 8.5, 12.0, 15.0)):
        kept = times[rng.random(n_frames) >= 0.1]
        clocks[cam] = np.maximum(kept - lag, 0.0)
    return clocks


@pytest.mark.parametrize("shape", ["lockstep", "lagged"])
def test_long_clocks_take_the_vectorized_path(shape, monkeypatch):
    # 20k frames of either shape have no collision: a change that sends them
    # through the claim loop fails here, not only in a timing
    n_frames = 20_000
    if shape == "lockstep":
        times = np.arange(n_frames) * FRAME_GAP_MS
        clocks = {cam: times for cam in ("ref", "s0", "s1", "s2", "s3")}
    else:
        clocks = _lagged_clocks(n_frames)
    for cam, ts in clocks.items():
        assert _own_picks(ts, clocks["ref"], FRAME_GAP_MS / 2) is not None, cam

    def loop(*args):
        raise AssertionError("the claim loop ran")

    monkeypatch.setattr(detections, "_claimed_slots", loop)
    bundles = synchronize_table(_clock_table(clocks), FRAME_GAP_MS / 2, "ref")
    assert len(bundles) == len(clocks["ref"])
    if shape == "lockstep":
        # each camera's rows follow the last one's, frame by frame
        expected = np.arange(n_frames)[:, None] + n_frames * np.arange(5)
        assert (bundles.rows == expected).all()
