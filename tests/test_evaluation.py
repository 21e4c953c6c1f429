import math

import pytest

from gridscope.errors import (
    CsvError,
    EmptySegment,
    FormatError,
    NoDetections,
    NoSegments,
)
from gridscope.evaluation import (
    FACES,
    EvaluationReport,
    Segment,
    SegmentResult,
    distance_to_face,
    evaluate_track,
    overall_accuracy,
    plot_rate,
    plot_rate_two_sides,
    read_segments,
    segment_error,
    validate_segments,
    write_segments,
)
from gridscope.fusion import FusionStats, TrackPoint
from gridscope.geometry import GridBox, WorldPoint3D

BOX = GridBox(WorldPoint3D(100.0, 100.0, 50.0), 200.0, 150.0, 300.0)


def tp(ts, x, y, z):
    return TrackPoint(ts, WorldPoint3D(x, y, z), ("side0", "side1"), 0.0, False)


class TestSegment:
    def test_covers_half_open(self):
        s = Segment("s1", 100.0, 200.0, "y_max")
        assert s.covers(100.0)
        assert s.covers(199.999)
        assert not s.covers(200.0)
        assert not s.covers(99.999)

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


class TestSegmentError:
    def test_mean_over_covered_points(self):
        track = [
            tp(0.0, 150.0, 240.0, 80.0),   # 10 off y_max
            tp(10.0, 150.0, 270.0, 80.0),  # 20 off
            tp(999.0, 150.0, 999.0, 80.0),  # outside the window
        ]
        seg = Segment("s1", 0.0, 100.0, "y_max")
        mean, count = segment_error(track, seg, BOX)
        assert (mean, count) == (15.0, 2)

    def test_empty_segment_raises(self):
        seg = Segment("s1", 0.0, 100.0, "y_max")
        with pytest.raises(EmptySegment):
            segment_error([tp(500.0, 0, 0, 0)], seg, BOX)


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
        track = [
            tp(0.0, 150.0, 240.0, 80.0),
            tp(10.0, 150.0, 260.0, 80.0),
            tp(100.0, 110.0, 150.0, 80.0),
        ]
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

    def test_no_segments(self):
        with pytest.raises(NoSegments):
            evaluate_track([tp(0.0, 0, 0, 0)], [], BOX)

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
        track = [tp(0.0, xs[0], 0.0, 0.0), tp(10.0, xs[1], 0.0, 0.0)]
        starts_ms = (0.0,) + ends_ms[:-1]
        segments = [
            Segment(f"s{i}", start, end, "x_min")
            for i, (start, end) in enumerate(zip(starts_ms, ends_ms))
        ]
        with pytest.raises(FormatError, match=what):
            evaluate_track(track, segments, BOX, px_per_mm=px_per_mm)
