import math
from pathlib import Path

import pytest

from gridscope.calibration import CameraRole
from gridscope.errors import BehindCamera, ConfigError, CsvError
from gridscope.geometry import GridBox, WorldPoint3D
from gridscope.simulate import (
    PathSpec,
    SimScenario,
    TruthSample,
    _sample_path,
    face_frame,
    generate_scenario,
    load_scenario,
    make_camera,
    marker_picks_for,
    project,
    read_truth,
    scenario_from_doc,
    standard_cameras,
    sub_area_rects,
    write_generated,
    write_truth,
)

from conftest import make_rig, make_scenario
from oracles import pinhole_projection_oracle

GRID = GridBox(WorldPoint3D(0, 0, 0), 390.0, 390.0, 850.0)


def cameras(mode="aligned", distance=245.0, height=425.0, top_mode=None):
    return standard_cameras(
        GRID, mode, (1920, 1080), distance, height, 3350.0, 200.0, 2000.0,
        top_mode=top_mode,
    )


class TestFaceFrame:
    def test_side0_spans_its_face(self):
        ff = face_frame(CameraRole.side(0), GRID)
        assert ff.point(0.0, 0.0) == WorldPoint3D(0.0, 0.0, 850.0)
        assert ff.point(390.0, 850.0) == WorldPoint3D(390.0, 0.0, 0.0)
        assert ff.point(0.0, 0.0, depth=390.0) == WorldPoint3D(0.0, 390.0, 850.0)
        assert ff.nf_mm == 390.0

    def test_side_frames_wind_counter_clockwise(self):
        # Each side's a axis matches the default axis-map horizontal.
        assert face_frame(CameraRole.side(1), GRID).point(10.0, 0.0) == (
            WorldPoint3D(390.0, 10.0, 850.0)
        )
        assert face_frame(CameraRole.side(2), GRID).point(10.0, 0.0) == (
            WorldPoint3D(380.0, 390.0, 850.0)
        )
        assert face_frame(CameraRole.side(3), GRID).point(10.0, 0.0) == (
            WorldPoint3D(0.0, 380.0, 850.0)
        )

    def test_top_frame(self):
        ff = face_frame(CameraRole.top(), GRID)
        assert ff.point(0.0, 0.0) == WorldPoint3D(0.0, 390.0, 850.0)
        assert ff.point(30.0, 90.0) == WorldPoint3D(30.0, 300.0, 850.0)
        assert ff.nf_mm == 850.0


class TestStandardCameras:
    def test_roster_and_placement(self):
        cams = cameras()
        assert [c.camera_id for c in cams] == [
            "side0", "side1", "side2", "side3", "top",
        ]
        side0 = cams[0]
        assert side0.position == (195.0, -245.0, 425.0)
        assert side0.axis == (0.0, 1.0, 0.0)
        top = cams[4]
        assert top.position == (195.0, 195.0, 3350.0)
        assert top.axis == (0.0, 0.0, -1.0)

    def test_side_height_measured_from_floor(self):
        cams = cameras(height=245.0)
        assert cams[0].position[2] == 245.0

    def test_top_mode_override(self):
        cams = cameras(mode="pinhole", top_mode="aligned")
        assert cams[0].mode == "pinhole"
        assert cams[4].mode == "aligned"

    def test_side_cameras_must_stay_horizontal(self):
        with pytest.raises(ConfigError):
            make_camera(
                "bad", CameraRole.side(0), (0.0, -245.0, 0.0), (0.0, 1.0, 0.5),
                200.0, (1920, 1080), "aligned",
            )

    def test_top_camera_must_look_down(self):
        with pytest.raises(ConfigError):
            make_camera(
                "bad", CameraRole.top(), (195.0, 195.0, 3350.0), (0.0, 0.0, 1.0),
                200.0, (1920, 1080), "aligned",
            )


class TestProject:
    def test_aligned_face_centre_hits_sensor_centre(self):
        cam = cameras("aligned")[0]
        pix = project(cam, WorldPoint3D(195.0, 0.0, 425.0))
        assert (pix.u, pix.v) == (960.0, 540.0)

    def test_aligned_axes_directions(self):
        cam = cameras("aligned")[0]
        right = project(cam, WorldPoint3D(196.0, 0.0, 425.0))
        up = project(cam, WorldPoint3D(195.0, 0.0, 426.0))
        assert (right.u, right.v) == (961.0, 540.0)
        assert (up.u, up.v) == (960.0, 539.0)

    def test_aligned_depth_is_invisible(self):
        cam = cameras("aligned")[0]
        near = project(cam, WorldPoint3D(100.0, 0.0, 300.0))
        far = project(cam, WorldPoint3D(100.0, 390.0, 300.0))
        assert (near.u, near.v) == (far.u, far.v)

    def test_pinhole_matches_reference_formula(self):
        cam = cameras("pinhole")[0]
        pix = project(cam, WorldPoint3D(295.0, 0.0, 425.0))
        ref = pinhole_projection_oracle(200.0, (960.0, 540.0), 100.0, 0.0, 245.0)
        assert (pix.u, pix.v) == ref

    def test_pinhole_pulls_deep_points_inward(self):
        cam = cameras("pinhole")[0]
        near = project(cam, WorldPoint3D(295.0, 0.0, 425.0))
        far = project(cam, WorldPoint3D(295.0, 390.0, 425.0))
        assert 960.0 < far.u < near.u

    def test_pinhole_on_axis_is_depth_invariant(self):
        cam = cameras("pinhole")[0]
        near = project(cam, WorldPoint3D(195.0, 0.0, 425.0))
        far = project(cam, WorldPoint3D(195.0, 390.0, 425.0))
        assert (near.u, near.v) == (960.0, 540.0)
        assert (far.u, far.v) == (960.0, 540.0)

    def test_behind_camera(self):
        cam = cameras("pinhole")[0]
        with pytest.raises(BehindCamera):
            project(cam, WorldPoint3D(195.0, -245.0, 425.0))
        with pytest.raises(BehindCamera):
            project(cam, WorldPoint3D(195.0, -300.0, 425.0))


class TestSubAreaRects:
    def test_single(self):
        assert sub_area_rects("single", 390.0, 850.0, (0.25, 0.75)) == [
            (0.0, 0.0, 390.0, 850.0)
        ]

    def test_four_tiles_without_overlap(self):
        rects = sub_area_rects("four", 100.0, 80.0, (0.25, 0.75))
        assert len(rects) == 4
        assert sum((a1 - a0) * (b1 - b0) for a0, b0, a1, b1 in rects) == 8000.0

    def test_five_centre_first(self):
        rects = sub_area_rects("five", 400.0, 800.0, (0.25, 0.75))
        assert rects[0] == (100.0, 200.0, 300.0, 600.0)
        assert len(rects) == 5

    def test_five_tiles_exactly(self):
        ext_a, ext_b = 400.0, 800.0
        rects = sub_area_rects("five", ext_a, ext_b, (0.25, 0.75))
        assert sum((a1 - a0) * (b1 - b0) for a0, b0, a1, b1 in rects) == (
            ext_a * ext_b
        )
        # Interior sample points are covered exactly once.
        for a in (50.0, 150.0, 250.0, 350.0):
            for b in (100.0, 300.0, 500.0, 700.0):
                hits = [
                    r for r in rects if r[0] < a < r[2] and r[1] < b < r[3]
                ]
                assert len(hits) == 1

    def test_five_needs_ordered_fractions(self):
        with pytest.raises(ConfigError):
            sub_area_rects("five", 100.0, 100.0, (0.75, 0.25))

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            sub_area_rects("nine", 100.0, 100.0, (0.25, 0.75))


class TestMarkerPicks:
    def test_sides_carry_depth_markers(self):
        picks = marker_picks_for(make_scenario("aligned", n_frames=1))
        for cam in picks.cameras:
            if cam.role.is_side:
                assert cam.face_n_quad is not None
                assert cam.face_f_quad is not None
            else:
                assert cam.face_n_quad is None

    def test_aligned_near_equals_far(self):
        picks = marker_picks_for(make_scenario("aligned", n_frames=1))
        side = picks.cameras[0]
        assert side.face_n_quad == side.face_f_quad

    def test_pinhole_far_quad_is_smaller(self):
        picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
        side = picks.cameras[0]
        near_w = side.face_n_quad.corners[1].u - side.face_n_quad.corners[0].u
        far_w = side.face_f_quad.corners[1].u - side.face_f_quad.corners[0].u
        assert far_w < near_w

    def test_off_sensor_marker_rejected(self):
        # A tiny sensor cannot hold the face corners.
        cams = standard_cameras(
            GRID, "aligned", (100, 100), 245.0, 425.0, 3350.0, 200.0, 2000.0
        )
        scenario = make_scenario("aligned", n_frames=1)
        with pytest.raises(ConfigError):
            marker_picks_for(
                SimScenario(
                    rig=scenario.rig,
                    cameras=cams,
                    grid_b=scenario.grid_b,
                    path=scenario.path,
                    n_frames=1,
                    noise_sigma_px=0.0,
                    confidence_jitter=0.0,
                )
            )


class TestSamplePath:
    def wp(self, *coords):
        return tuple(WorldPoint3D(*c) for c in coords)

    def test_constant_speed(self):
        path = PathSpec(
            "y_max", self.wp((0, 270, 200), (100, 270, 200)), 20.0
        )
        pts = _sample_path(path, 5, 20.0)
        assert [p.x for p in pts] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_clamps_at_end_without_loop(self):
        path = PathSpec("y_max", self.wp((0, 270, 200), (10, 270, 200)), 100.0)
        pts = _sample_path(path, 5, 20.0)
        assert [p.x for p in pts] == [0.0, 5.0, 10.0, 10.0, 10.0]

    def test_loop_wraps(self):
        path = PathSpec(
            "y_max", self.wp((0, 270, 200), (10, 270, 200), (0, 270, 200)), 100.0,
            loop=True,
        )
        pts = _sample_path(path, 6, 20.0)
        assert [p.x for p in pts] == [0.0, 5.0, 10.0, 5.0, 0.0, 5.0]

    def test_single_waypoint_stays_put(self):
        path = PathSpec("y_max", self.wp((3, 270, 200)), 50.0)
        pts = _sample_path(path, 3, 20.0)
        assert all(p == WorldPoint3D(3.0, 270.0, 200.0) for p in pts)

    def test_duplicate_waypoints_skipped(self):
        path = PathSpec(
            "y_max",
            self.wp((0, 270, 200), (0, 270, 200), (10, 270, 200)),
            20.0,
        )
        pts = _sample_path(path, 4, 20.0)
        assert [p.x for p in pts] == [0.0, 1.0, 2.0, 3.0]

    def test_multi_segment_turns(self):
        path = PathSpec(
            "y_max",
            self.wp((0, 270, 200), (10, 270, 200), (10, 270, 300)),
            100.0,
        )
        pts = _sample_path(path, 4, 20.0)
        assert pts[1] == WorldPoint3D(5.0, 270.0, 200.0)
        assert pts[3] == WorldPoint3D(10.0, 270.0, 205.0)


class TestScenarioValidation:
    def test_waypoint_off_face_plane(self):
        with pytest.raises(ConfigError) as err:
            make_scenario(
                path=PathSpec(
                    "y_max",
                    (WorldPoint3D(150.0, 200.0, 200.0),),
                    10.0,
                )
            )
        assert "off the y_max plane" in str(err.value)

    def test_waypoint_leaves_face_rectangle(self):
        with pytest.raises(ConfigError):
            make_scenario(
                path=PathSpec(
                    "y_max",
                    (WorldPoint3D(500.0, 270.0, 200.0),),
                    10.0,
                )
            )

    def test_grid_b_must_fit_inside_grid_a(self):
        with pytest.raises(ConfigError):
            make_scenario(
                grid_b=GridBox(WorldPoint3D(300.0, 300.0, 100.0), 150.0, 150.0, 400.0),
                path=PathSpec("y_max", (WorldPoint3D(350.0, 450.0, 200.0),), 10.0),
            )

    def test_dropout_probability_range(self):
        with pytest.raises(ConfigError):
            make_scenario(dropout={"side0": 1.5})

    def test_dropout_lookup_with_default(self):
        s = make_scenario(dropout={"default": 0.2, "top": 0.05})
        assert s.dropout_for("side0") == 0.2
        assert s.dropout_for("top") == 0.05
        assert make_scenario().dropout_for("side0") == 0.0

    def test_n_frames_positive(self):
        with pytest.raises(ConfigError):
            make_scenario(n_frames=0)


class TestGenerate:
    def test_truth_timestamps_follow_frame_rate(self):
        data = generate_scenario(make_scenario(n_frames=3))
        assert [s.timestamp_ms for s in data.truth] == [0.0, 50.0, 100.0]

    def test_noise_free_centres_match_projection(self):
        scenario = make_scenario(n_frames=2)
        data = generate_scenario(scenario)
        truth0 = data.truth[0].position
        for cam in scenario.cameras:
            det = data.detections[cam.camera_id][0]
            pix = project(cam, truth0)
            assert (det.u_min + det.u_max) / 2.0 == pix.u
            assert (det.v_min + det.v_max) / 2.0 == pix.v
            assert det.confidence == 1.0

    def test_same_seed_same_output(self):
        a = generate_scenario(make_scenario(noise_sigma_px=2.0, seed=7))
        b = generate_scenario(make_scenario(noise_sigma_px=2.0, seed=7))
        assert a.detections == b.detections
        assert a.truth == b.truth

    def test_different_seed_different_noise(self):
        a = generate_scenario(make_scenario(noise_sigma_px=2.0, seed=1))
        b = generate_scenario(make_scenario(noise_sigma_px=2.0, seed=2))
        assert a.detections != b.detections

    def test_full_dropout_silences_camera(self):
        data = generate_scenario(make_scenario(dropout={"side1": 1.0}, n_frames=10))
        assert data.detections["side1"] == []
        assert len(data.detections["side0"]) == 10

    def test_confidence_jitter_range(self):
        data = generate_scenario(
            make_scenario(confidence_jitter=0.1, n_frames=20, seed=3)
        )
        confs = [d.confidence for d in data.detections["top"]]
        assert all(0.9 < c <= 1.0 for c in confs)
        assert len(set(confs)) > 1

    def test_write_generated_files(self, tmp_path):
        data = generate_scenario(make_scenario(n_frames=2))
        files = write_generated(data, tmp_path / "out")
        assert set(files) == {
            "picks", "truth",
            "detections_side0", "detections_side1", "detections_side2",
            "detections_side3", "detections_top",
        }
        for path in files.values():
            assert Path(path).stat().st_size > 0

    def test_write_generated_deterministic(self, tmp_path):
        scenario = make_scenario(noise_sigma_px=1.5, seed=11, n_frames=5)
        files_a = write_generated(generate_scenario(scenario), tmp_path / "a")
        files_b = write_generated(generate_scenario(scenario), tmp_path / "b")
        for key in files_a:
            assert Path(files_a[key]).read_bytes() == Path(files_b[key]).read_bytes()


class TestTruthFile:
    def test_round_trip_lossless(self, tmp_path):
        truth = [
            TruthSample(0.0, WorldPoint3D(1.0 / 3.0, 0.1, 0.2)),
            TruthSample(50.0, WorldPoint3D(150.0, 270.0, 200.0)),
        ]
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        assert read_truth(path) == truth

    def test_header_checked(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,x,y,z\n")
        with pytest.raises(CsvError):
            read_truth(p)


class TestScenarioDocs:
    def minimal_doc(self):
        return {
            "format_version": 1,
            "seed": 5,
            "n_frames": 4,
            "grid_a": {"w_mm": 390.0, "d_mm": 390.0, "h_mm": 850.0},
            "cameras": {"mode": "aligned", "resolution": [1920, 1080]},
            "grid_b": {"origin": [120.0, 120.0, 100.0], "size": [150.0, 150.0, 400.0]},
            "path": {
                "face": "y_max",
                "speed_mm_s": 20.0,
                "waypoints": [[150.0, 270.0, 200.0], [250.0, 270.0, 200.0]],
            },
        }

    def test_minimal_doc_defaults(self):
        s = scenario_from_doc(self.minimal_doc())
        assert s.seed == 5
        assert s.n_frames == 4
        assert s.frame_rate_fps == 20.0
        assert s.noise_sigma_px == 0.0
        assert s.sub_area_layout == "five"
        assert s.cameras[0].mode == "aligned"
        assert s.cameras[0].position[1] == -245.0  # default side distance
        assert s.cameras[0].position[2] == 425.0  # default mid-height

    def test_wrong_version(self):
        doc = self.minimal_doc()
        doc["format_version"] = 3
        with pytest.raises(ConfigError):
            scenario_from_doc(doc)

    def test_pinhole_requires_distance(self):
        doc = self.minimal_doc()
        doc["cameras"]["mode"] = "pinhole"
        with pytest.raises(ConfigError) as err:
            scenario_from_doc(doc)
        assert "side_distance_mm" in str(err.value)
        doc["cameras"]["side_distance_mm"] = 245.0
        assert scenario_from_doc(doc).cameras[0].mode == "pinhole"

    def test_dropout_and_options(self):
        doc = self.minimal_doc()
        doc["dropout"] = {"default": 0.25}
        doc["noise_sigma_px"] = 1.5
        doc["confidence_jitter"] = 0.0
        doc["sub_area_layout"] = "four"
        s = scenario_from_doc(doc)
        assert s.dropout_for("side3") == 0.25
        assert s.noise_sigma_px == 1.5
        assert s.sub_area_layout == "four"

    def test_load_scenario_file(self, tmp_path):
        from gridscope import jsonio

        p = tmp_path / "scenario.json"
        jsonio.write_doc(p, self.minimal_doc())
        s = load_scenario(p)
        assert s.n_frames == 4
