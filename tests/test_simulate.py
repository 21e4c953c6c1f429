import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscope.calibration import CameraRole, default_axis_map
from gridscope.errors import BehindCamera, ConfigError, CsvError, FormatError
from gridscope.geometry import GridBox, WorldPoint3D
from gridscope.simulate import (
    PathSpec,
    SimScenario,
    TruthSample,
    _extents,
    _face_links,
    _face_point,
    _sample_path,
    generate_scenario,
    load_scenario,
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
from oracles import (
    RIG_VIEW_AXES,
    frame_vector_projection,
    pinhole_projection_oracle,
)

GRID = GridBox(WorldPoint3D(0, 0, 0), 390.0, 390.0, 850.0)


def cameras(mode="aligned", distance=245.0, height=425.0, top_mode=None):
    return standard_cameras(
        GRID, mode, (1920, 1080), distance, height, 3350.0, 200.0, 2000.0,
        top_mode=top_mode,
    )


def looking(cam):
    """The unit vector a camera looks along: its depth link's axis and sign."""
    depth = cam.links[2]
    return tuple(float(depth.sign) if a == depth.axis else 0.0 for a in "xyz")


def face(role, grid=GRID):
    """A face's (a, b, depth) links and the grid's extent along each."""
    links = _face_links(default_axis_map(grid), role, grid)
    return links, _extents(grid, links)


class TestFaces:
    def test_side0_spans_its_face(self):
        links, (ext_a, ext_b, far) = face(CameraRole.side(0))
        assert _face_point(links, 0.0, 0.0) == WorldPoint3D(0.0, 0.0, 850.0)
        assert _face_point(links, 390.0, 850.0) == WorldPoint3D(390.0, 0.0, 0.0)
        assert _face_point(links, 0.0, 0.0, depth=390.0) == (
            WorldPoint3D(0.0, 390.0, 850.0)
        )
        assert (ext_a, ext_b, far) == (390.0, 850.0, 390.0)

    def test_side_faces_wind_counter_clockwise(self):
        # Each side's a axis is its axis-map horizontal link.
        points = [
            _face_point(face(CameraRole.side(i))[0], 10.0, 0.0) for i in (1, 2, 3)
        ]
        assert points == [
            WorldPoint3D(390.0, 10.0, 850.0),
            WorldPoint3D(380.0, 390.0, 850.0),
            WorldPoint3D(0.0, 380.0, 850.0),
        ]

    def test_top_face(self):
        links, (_, _, far) = face(CameraRole.top())
        assert _face_point(links, 0.0, 0.0) == WorldPoint3D(0.0, 390.0, 850.0)
        assert _face_point(links, 30.0, 90.0) == WorldPoint3D(30.0, 300.0, 850.0)
        assert far == 850.0

    # Recorded from the literal face table these faces replaced, on a grid
    # whose width and depth differ: (0, 0), (ext_a, ext_b), the far face.
    FACES_390_410_850 = {
        "side:0": ((0.0, 0.0, 850.0), (390.0, 0.0, 0.0), (0.0, 410.0, 850.0)),
        "side:1": ((390.0, 0.0, 850.0), (390.0, 410.0, 0.0), (0.0, 0.0, 850.0)),
        "side:2": ((390.0, 410.0, 850.0), (0.0, 410.0, 0.0), (390.0, 0.0, 850.0)),
        "side:3": ((0.0, 410.0, 850.0), (0.0, 0.0, 0.0), (390.0, 410.0, 850.0)),
        "top": ((0.0, 410.0, 850.0), (390.0, 0.0, 850.0), (0.0, 410.0, 0.0)),
    }

    @pytest.mark.parametrize("role", list(CameraRole))
    def test_faces_keep_the_recorded_points(self, role):
        grid = GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 410.0, 850.0)
        links, (ext_a, ext_b, far) = face(role, grid)
        points = (
            _face_point(links, 0.0, 0.0),
            _face_point(links, ext_a, ext_b),
            _face_point(links, 0.0, 0.0, far),
        )
        expected = self.FACES_390_410_850[role.label()]
        assert [repr(p) for p in points] == [repr(WorldPoint3D(*p)) for p in expected]

    @pytest.mark.parametrize("mode", ["aligned", "pinhole"])
    def test_side_cameras_keep_the_recorded_placement(self, mode):
        grid = GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 410.0, 850.0)
        cams = standard_cameras(
            grid, mode, (1920, 1080), 245.0, 300.0, 3350.0, 200.0, 2000.0
        )
        placed = [(repr(c.position), repr(looking(c))) for c in cams[:4]]
        assert placed == [
            ("(195.0, -245.0, 300.0)", "(0.0, 1.0, 0.0)"),
            ("(635.0, 205.0, 300.0)", "(-1.0, 0.0, 0.0)"),
            ("(195.0, 655.0, 300.0)", "(0.0, -1.0, 0.0)"),
            ("(-245.0, 205.0, 300.0)", "(1.0, 0.0, 0.0)"),
        ]


class TestStandardCameras:
    def test_roster_and_placement(self):
        cams = cameras()
        assert [c.camera_id for c in cams] == [
            "side0", "side1", "side2", "side3", "top",
        ]
        side0 = cams[0]
        assert side0.position == (195.0, -245.0, 425.0)
        assert looking(side0) == (0.0, 1.0, 0.0)
        top = cams[4]
        assert top.position == (195.0, 195.0, 3350.0)
        assert looking(top) == (0.0, 0.0, -1.0)

    def test_side_height_measured_from_floor(self):
        cams = cameras(height=245.0)
        assert cams[0].position[2] == 245.0

    def test_top_mode_override(self):
        cams = cameras(mode="pinhole", top_mode="aligned")
        assert cams[0].mode == "pinhole"
        assert cams[4].mode == "aligned"

    @pytest.mark.parametrize("resolution", [(0, 0), (1920, 0), (-1920, 1080)])
    def test_a_resolution_that_is_not_positive_is_refused(self, resolution):
        with pytest.raises(ConfigError) as err:
            standard_cameras(
                GRID, "aligned", resolution, 245.0, 425.0, 3350.0, 200.0, 2000.0
            )
        assert str(err.value) == (
            f"camera side0: resolution must be positive, got {resolution}"
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


# A world point relative to a camera and the grid: "inside" the grid,
# "near" it with each coordinate the camera's own where asked (its offset is
# then 0), "behind" the camera, up to two grid spans back along its axis, or
# "grazing" its image plane, up to 2e-9 mm in front of it.
POINT_RECIPE = st.tuples(
    st.sampled_from(["inside", "near", "behind", "grazing"]),
    st.tuples(*3 * [st.floats(0.0, 1.0)]),
    st.tuples(*3 * [st.booleans()]),
)


def recipe_point(recipe, cam, grid):
    kind, fractions, own = recipe
    span = max(grid.w_mm, grid.d_mm, grid.h_mm)
    if kind == "inside":
        return tuple(f * e for f, e in zip(fractions, (grid.w_mm, grid.d_mm, grid.h_mm)))
    if kind == "near":
        return tuple(
            p if keep else (6.0 * f - 3.0) * span
            for p, f, keep in zip(cam.position, fractions, own)
        )
    t, *sideways = fractions
    back = 2.0 * span * t if kind == "behind" else -2e-9 * t
    axis = RIG_VIEW_AXES[cam.role.label()]
    across = iter(sideways)
    return tuple(
        p - a * back if a else p + (2.0 * next(across) - 1.0) * span
        for p, a in zip(cam.position, axis)
    )


@settings(max_examples=200, deadline=None)
@given(
    size=st.tuples(*3 * [st.floats(1.0, 5000.0)]),
    resolution=st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
    side_distance=st.floats(-1000.0, 5000.0),
    heights=st.tuples(st.floats(-1000.0, 6000.0), st.floats(-1000.0, 12000.0)),
    focals=st.tuples(st.floats(1.0, 5000.0), st.floats(1.0, 5000.0)),
    ortho_px_per_mm=st.floats(0.01, 10.0),
    modes=st.tuples(
        st.sampled_from(["aligned", "pinhole"]),
        st.sampled_from([None, "aligned", "pinhole"]),
    ),
    recipes=st.lists(POINT_RECIPE, min_size=1, max_size=8),
)
def test_project_matches_the_frame_vector_oracle(
    size, resolution, side_distance, heights, focals, ortho_px_per_mm, modes, recipes
):
    """Reading a camera's links gives the bits of the frame that cross
    products build from its viewing axis, and the same refusals."""
    grid = GridBox(WorldPoint3D(0.0, 0.0, 0.0), *size)
    cams = standard_cameras(
        grid, modes[0], resolution, side_distance, *heights, *focals,
        ortho_px_per_mm, top_mode=modes[1],
    )
    for cam in cams:
        for point in (recipe_point(r, cam, grid) for r in recipes):
            expected = frame_vector_projection(
                RIG_VIEW_AXES[cam.role.label()], cam.position, point,
                cam.resolution, cam.mode, cam.focal_px, cam.ortho_px_per_mm,
            )
            if expected is None:
                with pytest.raises(BehindCamera) as err:
                    project(cam, WorldPoint3D(*point))
                x, y, z = point
                assert str(err.value) == (
                    f"camera {cam.camera_id}: point ({x}, {y}, {z}) "
                    "is not in front of the image plane"
                )
            else:
                pix = project(cam, WorldPoint3D(*point))
                assert repr((pix.u, pix.v)) == repr(expected), (cam.camera_id, point)


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (("grid_b", "origin"), [1.0, 2.0],
             "grid_b.origin: expected an array of 3 elements, found list"),
            (("grid_b", "origin"), [1.0, True, 2.0],
             "grid_b.origin[1]: expected a real number, found bool"),
            (("grid_b", "size"), "abc",
             "grid_b.size: expected an array of 3 elements, found str"),
            (("grid_b", "size"), [1.0, 2.0, 10**400],
             "grid_b.size[2]: expected a finite real number, found int"),
            (("path", "waypoints"), [[150.0, 270.0, 200.0], [250.0, 270.0]],
             "path.waypoints[1]: expected an array of 3 elements, found list"),
            (("path", "waypoints"), [[150.0, 270.0, 200.0], [250.0, None, [1]]],
             "path.waypoints[1][1]: expected a real number, found null"),
        ],
    )
    def test_a_bad_point_names_its_path(self, key, value, message):
        doc = self.minimal_doc()
        doc[key[0]][key[1]] = value
        with pytest.raises(FormatError) as err:
            scenario_from_doc(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "where, key",
        [
            ((), "noise_sigma"),  # noise_sigma_px misspelled: noise-free boxes
            (("grid_a",), "height_mm"),
            (("cameras",), "side_distance"),
            (("grid_b",), "sizes"),
            (("path",), "loops"),
        ],
    )
    def test_an_unknown_key_is_refused_at_each_level(self, where, key):
        doc = self.minimal_doc()
        node = doc
        for name in where:
            node = node[name]
        node[key] = 1.5
        with pytest.raises(FormatError) as err:
            scenario_from_doc(doc)
        assert str(err.value) == f"{'.'.join(where) or 'top level'}: unknown key {key!r}"

    def test_dropout_keys_are_default_or_camera_ids(self):
        doc = self.minimal_doc()
        doc["dropout"] = {"default": 0.25, "side3": 0.5}
        s = scenario_from_doc(doc)
        assert (s.dropout_for("side3"), s.dropout_for("top")) == (0.5, 0.25)

    @pytest.mark.parametrize("key", ["side9", "side5", "Side0", "top0", ""])
    def test_a_dropout_key_that_names_no_camera_is_refused(self, key):
        doc = self.minimal_doc()
        doc["dropout"] = {"default": 0.25, key: 0.5}
        with pytest.raises(ConfigError) as err:
            scenario_from_doc(doc)
        assert str(err.value) == (
            f"dropout names camera {key!r}, which is not one of "
            "side0, side1, side2, side3, top (or default)"
        )

    @pytest.mark.parametrize(
        "where, faults, message",
        [
            (("path",), {"waypoints": 1, "face": 2}, "path.face: expected a string, found int"),
            ((), {"dropout": [0.5], "n_frames": "4"},
             "n_frames: expected an integer, found str"),
            ((), {"dropout": [0.5], "bbox_half_px": "4"},
             "dropout: expected a mapping of camera id to probability, found list"),
        ],
    )
    def test_of_two_faults_the_first_declared_key_is_named(self, where, faults, message):
        doc = self.minimal_doc()
        node = doc
        for name in where:
            node = node[name]
        node.update(faults)
        with pytest.raises(FormatError) as err:
            scenario_from_doc(doc)
        assert str(err.value) == message

    def test_load_scenario_file(self, tmp_path):
        from gridscope import jsonio

        p = tmp_path / "scenario.json"
        jsonio.write_doc(p, self.minimal_doc())
        s = load_scenario(p)
        assert s.n_frames == 4
