"""End-to-end checks, one per numbered criterion, at pinned tolerances.

Each test wraps its assertions in the ``criterion`` context manager, which
records a PASS/FAIL verdict; conftest echoes the verdicts after the run.
A failing assertion still fails the test the normal way.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from gridscope import jsonio
from gridscope.calibration import (
    build_calibration,
    load_calibration,
    load_marker_picks,
    save_calibration,
    to_model_grid,
)
from gridscope.detections import (
    Detection,
    DetectionTable,
    parse_detections_file,
    synchronize_table,
    write_detections,
)
from gridscope.evaluation import (
    Segment,
    evaluate_track,
    read_segments,
    write_segments,
)
from gridscope.fusion import (
    SideView,
    build_track,
    read_track,
    reconstruct_point,
    write_track,
)
from gridscope.geometry import GridBox, PixelPoint, WorldPoint3D, apply_homography, compute_homography
from gridscope.metrics import (
    MAP_THRESHOLDS,
    evaluate_detections,
    fitness,
    iou,
    match_greedy,
)
from gridscope.simulate import (
    PathSpec,
    generate_scenario,
    marker_picks_for,
    project,
    write_generated,
)

from conftest import make_scenario, record_criterion
from oracles import ap_oracle, match_oracle, mean_point_error, plot_rate_enumeration
from test_geometry import convex_quad


@contextmanager
def criterion(number: int):
    passed = False
    try:
        yield
        passed = True
    finally:
        record_criterion(number, passed)
        print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}")


def run_pipeline(scenario, reference_camera=None, **track_kwargs):
    """Scenario -> (generated data, calibration, track, stats), in memory."""
    data = generate_scenario(scenario)
    cal = build_calibration(marker_picks_for(scenario))
    detections = [d for per_cam in data.detections.values() for d in per_cam]
    bundles = synchronize_table(
        DetectionTable.of(detections), reference_camera=reference_camera
    )
    track, stats = build_track(cal, bundles, **track_kwargs)
    return data, cal, track, stats


def point_error(point, truth: WorldPoint3D) -> float:
    return math.dist((point.x, point.y, point.z), (truth.x, truth.y, truth.z))


def test_c1_homography_round_trip():
    with criterion(1):
        start = time.monotonic()
        for i in range(100):
            src = convex_quad(i)
            dst = convex_quad(100_000 + i)
            h = compute_homography(src, dst)
            inv = h.inverse()
            for s, d in zip(src.corners, dst.corners):
                fwd = apply_homography(h, s)
                assert abs(fwd.a - d.u) <= 1e-9
                assert abs(fwd.b - d.v) <= 1e-9
                back = apply_homography(inv, PixelPoint(fwd.a, fwd.b))
                assert abs(back.a - s.u) <= 1e-6
                assert abs(back.b - s.v) <= 1e-6
        assert time.monotonic() - start < 1.0


def test_c2_fitness_reference_points():
    with criterion(2):
        assert abs(fitness(0.7, 0.7, 0.94, 0.39) - 0.445) <= 1e-12
        assert abs(fitness(0.2, 0.9, 0.91, 0.38) - 0.433) <= 1e-12


def test_c3_clean_aligned_run_is_exact():
    with criterion(3):
        start = time.monotonic()
        scenario = make_scenario(
            path=PathSpec(
                "y_max",
                (
                    WorldPoint3D(150.0, 270.0, 200.0),
                    WorldPoint3D(250.0, 270.0, 200.0),
                    WorldPoint3D(250.0, 270.0, 400.0),
                ),
                40.0,
            ),
            n_frames=1000,
        )
        data, cal, track, stats = run_pipeline(scenario)
        assert len(track) == 1000
        segments = [
            Segment("leg1", 0.0, 25_000.0, "y_max"),
            Segment("leg2", 25_000.0, 50_000.0, "y_max"),
        ]
        report = evaluate_track(
            track, segments, scenario.grid_b,
            px_per_mm=cal.rig.px_per_mm, stats=stats,
        )
        assert report.overall_mm < 1e-6
        assert report.plot_rate_one_side == 1.0
        assert time.monotonic() - start < 10.0


def serpentine_waypoints():
    """A horizontal sweep per height row, alternating direction, y_max face."""
    points = []
    for i in range(9):
        z = 60.0 + 91.25 * i
        xs = (15.0, 375.0) if i % 2 == 0 else (375.0, 15.0)
        points.append(WorldPoint3D(xs[0], 390.0, z))
        points.append(WorldPoint3D(xs[1], 390.0, z))
    return tuple(points)


def test_c4_depth_correction_halves_pinhole_error():
    with criterion(4):
        start = time.monotonic()
        scenario = make_scenario(
            "pinhole",
            grid_b=GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 390.0, 850.0),
            path=PathSpec("y_max", serpentine_waypoints(), 80.0),
            n_frames=1000,
            top_mode="aligned",
        )
        data = generate_scenario(scenario)
        cal = build_calibration(marker_picks_for(scenario))
        detections = [d for per_cam in data.detections.values() for d in per_cam]
        bundles = synchronize_table(DetectionTable.of(detections))
        corrected, _ = build_track(cal, bundles, z_reject_mm=1e9)
        plain, _ = build_track(
            cal, bundles, z_reject_mm=1e9, depth_correction=False
        )
        assert len(corrected) == len(plain) == 1000

        truth = {t.timestamp_ms: t.position for t in data.truth}
        mean_corrected = mean_point_error(corrected, truth)
        mean_plain = mean_point_error(plain, truth)
        assert mean_corrected <= 0.5 * mean_plain

        plain_by_ts = {p.timestamp_ms: p for p in plain}
        worse = 0
        for p in corrected:
            err_c = point_error(p, truth[p.timestamp_ms])
            err_p = point_error(plain_by_ts[p.timestamp_ms], truth[p.timestamp_ms])
            if err_c > err_p + 1e-9:
                worse += 1
        assert worse <= 0.05 * len(corrected)

        # A subject on both centre axes: the overhead fix lands exactly on
        # the axis values, so the horizontal correction must vanish bit for
        # bit while the vertical estimate still moves.
        centre = WorldPoint3D(195.0, 195.0, 650.0)
        views = []
        for index in (0, 1):
            cam_id = f"side{index}"
            pix = project(scenario.cameras[index], centre)
            det = Detection(
                cam_id, "0", 0.0,
                pix.u - 15.0, pix.v - 15.0, pix.u + 15.0, pix.v + 15.0, 1.0,
            )
            profile = cal.camera(cam_id)
            mg = to_model_grid(profile, PixelPoint(pix.u, pix.v))
            views.append(SideView(index, profile, det, mg))
        with_fix = reconstruct_point(
            cal, 0.0, views[0], views[1], (195.0, 195.0), z_reject_mm=1e9
        )
        without = reconstruct_point(
            cal, 0.0, views[0], views[1], (195.0, 195.0),
            z_reject_mm=1e9, depth_correction=False,
        )
        assert with_fix.x == without.x
        assert with_fix.y == without.y
        assert with_fix.z != without.z
        assert with_fix.depth_corrected

        assert time.monotonic() - start < 10.0


def test_c5_dropout_plot_rate_matches_enumeration():
    with criterion(5):
        start = time.monotonic()
        scenario = make_scenario(
            dropout={"default": 0.2}, n_frames=10_000, seed=1
        )
        data, cal, track, stats = run_pipeline(scenario, reference_camera="top")
        expected = plot_rate_enumeration(Fraction(4, 5))
        assert expected == Fraction(12, 13)
        n = stats.with_side_detection
        assert n > 0
        observed = stats.plotted / n
        p = float(expected)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(observed - p) <= 3.0 * sigma
        assert time.monotonic() - start < 10.0


CONTRIVED_PREDICTIONS = [
    Detection("det", "2", 0.0, 100.0, 100.0, 110.0, 110.0, 0.95),
    Detection("det", "0", 0.0, 0.0, 0.0, 10.0, 10.0, 0.9),
    Detection("det", "1", 0.0, 2.0, 0.0, 12.0, 10.0, 0.85),
    Detection("det", "0", 0.0, 19.0, 20.0, 29.0, 30.0, 0.8),
    Detection("det", "0", 0.0, 0.0, 0.0, 10.0, 10.0, 0.5),
]

from gridscope.metrics import GroundTruthBox  # noqa: E402

CONTRIVED_BOXES = [
    GroundTruthBox("0", 0.0, 0.0, 10.0, 10.0),
    GroundTruthBox("0", 20.0, 20.0, 30.0, 30.0),
    GroundTruthBox("1", 0.0, 0.0, 10.0, 10.0),
    GroundTruthBox("2", 5.0, 5.0, 15.0, 15.0),
]


def test_c6_detection_metrics_equal_brute_force():
    with criterion(6):
        assert iou((0.0, 0.0, 2.0, 2.0), (1.0, 0.0, 3.0, 2.0)) == 1.0 / 3.0

        outcome = match_greedy(CONTRIVED_PREDICTIONS, CONTRIVED_BOXES, 0.5)
        _, counts = match_oracle(CONTRIVED_PREDICTIONS, CONTRIVED_BOXES, 0.5)
        assert (outcome.tp, outcome.fp, outcome.fn) == counts == (3, 2, 1)

        report = evaluate_detections(CONTRIVED_PREDICTIONS, CONTRIVED_BOXES)
        assert report.precision == 3.0 / 5.0
        assert report.recall == 3.0 / 4.0

        reference = [
            ap_oracle(CONTRIVED_PREDICTIONS, CONTRIVED_BOXES, t)
            for t in MAP_THRESHOLDS
        ]
        assert report.map50 == reference[0] == 57.0 / 101.0
        for (_, ap), expected in zip(report.per_threshold, reference):
            assert ap == expected
        assert report.map5095 == sum(reference) / len(reference)


def test_c7_depth_error_scales_with_camera_distance():
    with criterion(7):
        aligned = build_calibration(
            marker_picks_for(make_scenario("aligned", n_frames=1))
        )
        for cam in aligned.cameras:
            if cam.role.is_side:
                assert (cam.mde_h, cam.mde_v) == (0.0, 0.0)

        near = build_calibration(
            marker_picks_for(make_scenario("pinhole", n_frames=1))
        )
        far = build_calibration(
            marker_picks_for(
                make_scenario("pinhole", n_frames=1, side_distance_mm=490.0)
            )
        )
        for cam_near in near.cameras:
            if not cam_near.role.is_side:
                continue
            cam_far = far.camera(cam_near.camera_id)
            assert 0.0 < cam_far.mde_h < cam_near.mde_h
            assert 0.0 < cam_far.mde_v < cam_near.mde_v


def test_c8_round_trips_and_golden_reruns(tmp_path):
    with criterion(8):
        scenario = make_scenario(
            noise_sigma_px=1.5,
            confidence_jitter=0.05,
            dropout={"default": 0.1},
            n_frames=200,
            seed=123,
        )
        segments = [
            Segment("one", 0.0, 5_000.0, "y_max"),
            Segment("two", 5_000.0, 10_000.0, "y_max"),
        ]

        def full_run(tag):
            out = tmp_path / tag
            files = write_generated(generate_scenario(scenario), out)
            cal = build_calibration(load_marker_picks(files["picks"]))
            detections = []
            for cam_id in ("side0", "side1", "side2", "side3", "top"):
                detections.extend(
                    parse_detections_file(files[f"detections_{cam_id}"]).detections
                )
            track, stats = build_track(
                cal, synchronize_table(DetectionTable.of(detections))
            )
            track_path = out / "track.csv"
            write_track(track_path, track)
            report = evaluate_track(
                read_track(track_path), segments, scenario.grid_b,
                px_per_mm=cal.rig.px_per_mm, stats=stats,
            )
            report_path = out / "report.json"
            jsonio.write_doc(report_path, report.as_doc())
            blobs = {k: Path(p).read_bytes() for k, p in files.items()}
            blobs["track"] = track_path.read_bytes()
            blobs["report"] = report_path.read_bytes()
            return files, cal, blobs

        files, cal, first = full_run("run_a")
        _, _, second = full_run("run_b")
        assert set(first) == set(second)
        for key in first:
            assert first[key] == second[key], f"{key} differs between reruns"

        # Calibration: save -> load -> save, equal object and equal bytes.
        cal_1 = tmp_path / "cal1.json"
        cal_2 = tmp_path / "cal2.json"
        save_calibration(cal_1, cal)
        loaded = load_calibration(cal_1)
        assert loaded == cal
        save_calibration(cal_2, loaded)
        assert cal_1.read_bytes() == cal_2.read_bytes()

        # Detections: parse -> write reproduces the simulator's file.
        source = files["detections_side0"]
        parsed = parse_detections_file(source).detections
        det_copy = tmp_path / "side0_copy.csv"
        write_detections(det_copy, parsed)
        assert det_copy.read_bytes() == Path(source).read_bytes()
        assert parse_detections_file(det_copy).detections == parsed

        # Segments: write -> read -> write.
        seg_1 = tmp_path / "seg1.csv"
        seg_2 = tmp_path / "seg2.csv"
        write_segments(seg_1, segments)
        assert read_segments(seg_1) == segments
        write_segments(seg_2, read_segments(seg_1))
        assert seg_1.read_bytes() == seg_2.read_bytes()

        # Track: the file format is its own fixed point.
        track_1 = tmp_path / "run_a" / "track.csv"
        track_2 = tmp_path / "track_rewrite.csv"
        loaded_track = read_track(track_1)
        write_track(track_2, loaded_track)
        assert track_1.read_bytes() == track_2.read_bytes()
        assert read_track(track_2) == loaded_track

        # Report: document round trip is lossless.
        report_doc = jsonio.read_doc(tmp_path / "run_a" / "report.json")
        report_2 = tmp_path / "report_rewrite.json"
        jsonio.write_doc(report_2, report_doc)
        assert (tmp_path / "run_a" / "report.json").read_bytes() == report_2.read_bytes()
        assert jsonio.read_doc(report_2) == report_doc
