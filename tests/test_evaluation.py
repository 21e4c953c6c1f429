import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import distance_to_face, scan_evaluate_track

from gridscope.errors import (
    CsvError,
    EmptySegment,
    FormatError,
    GridscopeError,
    NoDetections,
    NoSegments,
)
from gridscope.evaluation import (
    FACES,
    EvaluationReport,
    Segment,
    SegmentResult,
    evaluate_track,
    overall_accuracy,
    plot_rate,
    plot_rate_two_sides,
    read_segments,
    validate_segments,
    write_segments,
)
from gridscope.fusion import FusionStats, TrackPoint, TrackTable
from gridscope.geometry import GridBox, WorldPoint3D
from gridscope.jsonio import dumps_doc

BOX = GridBox(WorldPoint3D(100.0, 100.0, 50.0), 200.0, 150.0, 300.0)


def tp(ts, x, y, z):
    return TrackPoint(ts, x, y, z, "side0", "side1", 0.0, False)


class TestSegment:
    def test_validation(self):
        with pytest.raises(FormatError):
            Segment("", 0.0, 1.0, "y_max")
        with pytest.raises(FormatError):
            Segment("s", 5.0, 5.0, "y_max")
        with pytest.raises(FormatError):
            Segment("s", 0.0, 1.0, "front")


class TestDistanceToFace:
    def test_plane_distances_all_faces(self):
        p = WorldPoint3D(150.0, 130.0, 80.0)
        assert distance_to_face(p, BOX, "x_min") == 50.0
        assert distance_to_face(p, BOX, "x_max") == 150.0
        assert distance_to_face(p, BOX, "y_min") == 30.0
        assert distance_to_face(p, BOX, "y_max") == 120.0
        assert distance_to_face(p, BOX, "z_min") == 30.0
        assert distance_to_face(p, BOX, "z_max") == 270.0

    def test_on_face_is_zero(self):
        assert distance_to_face(WorldPoint3D(150.0, 250.0, 80.0), BOX, "y_max") == 0.0

    def test_unknown_face(self):
        with pytest.raises(FormatError):
            distance_to_face(WorldPoint3D(0, 0, 0), BOX, "top")

    def test_bounded_equals_plane_inside_rectangle(self):
        p = WorldPoint3D(150.0, 130.0, 80.0)
        for face in FACES:
            assert distance_to_face(p, BOX, face, bounded=True) == (
                distance_to_face(p, BOX, face)
            )

    def test_bounded_adds_in_plane_excursion(self):
        # 40 beyond the x_max edge, 30 off the y_max plane.
        p = WorldPoint3D(340.0, 280.0, 100.0)
        assert distance_to_face(p, BOX, "y_max") == 30.0
        assert distance_to_face(p, BOX, "y_max", bounded=True) == 50.0

    def test_bounded_two_axis_excursion(self):
        p = WorldPoint3D(340.0, 250.0, 30.0)  # 40 past x_max, 20 below z_min
        d = distance_to_face(p, BOX, "y_max", bounded=True)
        assert d == pytest.approx(math.sqrt(40.0**2 + 20.0**2), rel=1e-12)


class TestRates:
    def test_overall_is_unweighted(self):
        assert overall_accuracy([10.0, 20.0, 60.0]) == 30.0

    def test_overall_needs_segments(self):
        with pytest.raises(NoSegments):
            overall_accuracy([])

    def test_plot_rates(self):
        stats = FusionStats(
            total=10,
            with_side_detection=8,
            with_two_side_detections=4,
            plotted=3,
        )
        assert plot_rate(stats) == 0.375
        assert plot_rate_two_sides(stats) == 0.75

    def test_zero_denominators(self):
        with pytest.raises(NoDetections):
            plot_rate(FusionStats())
        with pytest.raises(NoDetections):
            plot_rate_two_sides(FusionStats(with_side_detection=5))


class TestValidateSegments:
    def test_ok(self):
        validate_segments(
            [Segment("a", 0.0, 10.0, "y_max"), Segment("b", 10.0, 20.0, "x_min")]
        )

    def test_duplicate_ids(self):
        with pytest.raises(FormatError):
            validate_segments(
                [Segment("a", 0.0, 10.0, "y_max"), Segment("a", 10.0, 20.0, "y_max")]
            )

    def test_duplicate_ids_name_the_first_repeated(self):
        segments = [
            Segment("s0", 0.0, 5.0, "y_max"),
            Segment("s1", 10.0, 15.0, "y_max"),
            Segment("s0", 20.0, 25.0, "y_max"),
        ]
        with pytest.raises(FormatError, match=r"^duplicate segment id 's0'$"):
            validate_segments(segments)

    def test_overlap(self):
        with pytest.raises(FormatError):
            validate_segments(
                [Segment("a", 0.0, 10.0, "y_max"), Segment("b", 9.0, 20.0, "y_max")]
            )

    def test_touching_windows_allowed(self):
        validate_segments(
            [Segment("a", 0.0, 10.0, "y_max"), Segment("b", 10.0, 11.0, "y_max")]
        )


class TestSegmentsCsv:
    def test_round_trip(self, tmp_path):
        segments = [
            Segment("walk1", 0.0, 1000.0, "y_max"),
            Segment("walk2", 1000.0, 2500.0, "x_min"),
        ]
        path = tmp_path / "segments.csv"
        write_segments(path, segments)
        assert read_segments(path) == segments

    def test_write_is_deterministic(self, tmp_path):
        segments = [Segment("walk1", 0.0, 1000.0, "y_max")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_segments(a, segments)
        write_segments(b, segments)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("id,start,end,face\n")
        with pytest.raises(CsvError):
            read_segments(p)

    def test_bad_face_names_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("segment_id,t_start_ms,t_end_ms,face\nw,0,10,front\n")
        with pytest.raises(CsvError) as err:
            read_segments(p)
        assert err.value.row == 2

    def test_bad_face_names_its_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("segment_id,t_start_ms,t_end_ms,face\nw,0,10,y_max\nv,10,20,Top\n")
        with pytest.raises(CsvError) as err:
            read_segments(p)
        assert (err.value.row, err.value.column) == (3, "face")
        assert str(err.value) == (
            f"{p}: row 3, column face: segment v: unknown face 'Top', expected one of "
            "x_min, x_max, y_min, y_max, z_min, z_max"
        )

    def test_overlapping_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(
            "segment_id,t_start_ms,t_end_ms,face\n"
            "a,0,10,y_max\n"
            "b,5,15,y_max\n"
        )
        with pytest.raises(FormatError):
            read_segments(p)


class TestEvaluateTrack:
    def track_and_segments(self):
        track = TrackTable.of(
            [
                tp(0.0, 150.0, 240.0, 80.0),
                tp(10.0, 150.0, 260.0, 80.0),
                tp(100.0, 110.0, 150.0, 80.0),
            ]
        )
        segments = [
            Segment("w1", 0.0, 50.0, "y_max"),
            Segment("w2", 50.0, 150.0, "x_min"),
        ]
        return track, segments

    def test_report_values(self):
        track, segments = self.track_and_segments()
        report = evaluate_track(track, segments, BOX, px_per_mm=2.0)
        assert [s.mean_error_mm for s in report.segments] == [10.0, 10.0]
        assert report.overall_mm == 10.0
        assert report.overall_model_px == 20.0
        assert report.plot_rate_one_side is None

    def test_rates_from_stats(self):
        track, segments = self.track_and_segments()
        stats = FusionStats(
            total=4, with_side_detection=4, with_two_side_detections=3, plotted=3
        )
        report = evaluate_track(track, segments, BOX, stats=stats)
        assert report.plot_rate_one_side == 0.75
        assert report.plot_rate_two_sides == 1.0

    def test_two_side_rate_optional(self):
        track, segments = self.track_and_segments()
        stats = FusionStats(total=4, with_side_detection=4, plotted=3)
        report = evaluate_track(track, segments, BOX, stats=stats)
        assert report.plot_rate_one_side == 0.75
        assert report.plot_rate_two_sides is None

    def test_windows_are_half_open(self):
        track = TrackTable.of(
            [
                tp(0.0, 150.0, 240.0, 80.0),  # a's start: 10 off y_max
                tp(49.999, 150.0, 230.0, 80.0),  # just inside a: 20 off
                tp(50.0, 150.0, 220.0, 80.0),  # a's end is b's start: 30 off
                tp(100.0, 150.0, 0.0, 80.0),  # b's end, in no window
                tp(-1.0, 150.0, 0.0, 80.0),  # before every window
            ]
        )
        segments = [Segment("b", 50.0, 100.0, "y_max"), Segment("a", 0.0, 50.0, "y_max")]
        report = evaluate_track(track, segments, BOX)
        assert [(s.segment_id, s.points, s.mean_error_mm) for s in report.segments] == [
            ("b", 1, 30.0),
            ("a", 2, 15.0),
        ]

    def test_point_in_a_gap_is_not_scored(self):
        track = TrackTable.of(
            [tp(5.0, 150.0, 240.0, 80.0), tp(15.0, 150.0, 0.0, 80.0)]
        )
        segments = [Segment("a", 0.0, 10.0, "y_max"), Segment("b", 20.0, 30.0, "y_max")]
        with pytest.raises(EmptySegment, match="segment b: no track points in"):
            evaluate_track(track, segments, BOX)

    def test_first_empty_segment_in_given_order_is_named(self):
        segments = [
            Segment("late", 20.0, 30.0, "y_max"),
            Segment("mid", 10.0, 20.0, "y_max"),
            Segment("early", 0.0, 10.0, "y_max"),
        ]
        with pytest.raises(EmptySegment, match=r"segment late: .* \[20.0, 30.0\)"):
            evaluate_track(TrackTable.of([tp(15.0, 150.0, 240.0, 80.0)]), segments, BOX)

    def test_no_segments(self):
        with pytest.raises(NoSegments):
            evaluate_track(TrackTable.of([tp(0.0, 0, 0, 0)]), [], BOX)

    def test_doc_keys_follow_availability(self):
        report = EvaluationReport(
            segments=(SegmentResult("w", "y_max", 3, 1.5),),
            overall_mm=1.5,
            overall_model_px=1.5,
            plot_rate_one_side=None,
            plot_rate_two_sides=None,
        )
        doc = report.as_doc()
        assert "plot_rate" not in doc
        assert doc["segments"][0]["points"] == 3

    def test_doc_includes_rates_when_known(self):
        track, segments = self.track_and_segments()
        stats = FusionStats(
            total=4, with_side_detection=4, with_two_side_detections=3, plotted=3
        )
        doc = evaluate_track(track, segments, BOX, stats=stats).as_doc()
        assert doc["plot_rate"] == 0.75
        assert doc["plot_rate_two_sides"] == 1.0

    def test_human_table_mentions_each_segment(self):
        track, segments = self.track_and_segments()
        text = evaluate_track(track, segments, BOX).human_table()
        assert "w1" in text and "w2" in text
        assert "overall mean error" in text

    @pytest.mark.parametrize(
        "xs,ends_ms,px_per_mm,what",
        [
            # the point x positions at 0 ms and 10 ms; segments end at ends_ms
            ((1e308, -1e308), (20.0,), 1.0, "segment s0: mean error"),
            ((1.7e308, 1.7e308), (5.0, 20.0), 1.0, "overall mean error is"),
            ((1e308, 0.0), (5.0,), 2.0, "overall mean error in model px"),
        ],
    )
    def test_non_finite_error_refused(self, xs, ends_ms, px_per_mm, what):
        track = TrackTable.of([tp(0.0, xs[0], 0.0, 0.0), tp(10.0, xs[1], 0.0, 0.0)])
        starts_ms = (0.0,) + ends_ms[:-1]
        segments = [
            Segment(f"s{i}", start, end, "x_min")
            for i, (start, end) in enumerate(zip(starts_ms, ends_ms))
        ]
        with pytest.raises(FormatError, match=what):
            evaluate_track(track, segments, BOX, px_per_mm=px_per_mm)


# --- one pass against the per-segment scan -------------------------------------


@st.composite
def _scoring_case(draw):
    """Windows given out of time order, some sharing a boundary, some with a
    gap between; an unsorted track with timestamps on the boundaries, inside
    and outside them; in some cases an empty window, in half the cases
    coordinates near the double maximum."""
    bounds = sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=8)))
    faces = st.sampled_from(FACES)
    segments = [
        Segment(f"s{j}", float(lo), float(hi), draw(faces))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if draw(st.integers(0, 4))
    ]
    coord = st.floats(-500.0, 1000.0)
    if draw(st.booleans()):
        coord = coord | st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])
    least = 0 if draw(st.integers(0, 3)) == 0 else 1
    times = [
        t
        for s in segments
        for t in draw(
            st.lists(
                st.sampled_from([s.t_start_ms, s.t_end_ms - 1e-9, s.t_end_ms])
                | st.floats(s.t_start_ms, s.t_end_ms, exclude_max=True),
                min_size=least,
                max_size=4,
            )
        )
    ]
    times += draw(
        st.lists(
            st.sampled_from(bounds).map(float)
            | st.just(-0.0)
            | st.floats(-2.0, 42.0)
            | st.integers(-2, 42).map(lambda t: t - 1e-9),
            max_size=8,
        )
    )
    track = [tp(t, draw(coord), draw(coord), draw(coord)) for t in times]
    return draw(st.permutations(track)), draw(st.permutations(segments))


def _outcome(score, track, segments, px_per_mm, bounded):
    try:
        report = score(track, segments, BOX, px_per_mm=px_per_mm, bounded=bounded)
    except GridscopeError as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return dumps_doc(report.as_doc()), report.human_table()


@settings(max_examples=300, deadline=None)
@given(_scoring_case(), st.sampled_from([1.0, 2.0]), st.booleans())
def test_one_pass_equals_per_segment_scan(case, px_per_mm, bounded):
    track, segments = case
    want = _outcome(scan_evaluate_track, track, segments, px_per_mm, bounded)
    table = TrackTable.of(track)
    assert _outcome(evaluate_track, table, segments, px_per_mm, bounded) == want


def test_bounded_excess_is_squared_as_distance_to_face_squares_it():
    # C's pow rounds this excess's square to a different last bit than
    # e * e does, and the difference survives the square root
    p = WorldPoint3D(70.234, 130.0, 80.0)
    e = BOX.origin.x - p.x
    assert math.sqrt(30.0 * 30.0 + e**2) != math.sqrt(30.0 * 30.0 + e * e)
    segments = [Segment("s", 0.0, 10.0, "y_min")]
    track = TrackTable.of([tp(0.0, p.x, p.y, p.z)])
    report = evaluate_track(track, segments, BOX, bounded=True)
    assert report.overall_mm == distance_to_face(p, BOX, "y_min", bounded=True)
