import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridscope.calibration import (
    AxisComponent,
    AxisMap,
    CameraProfile,
    CameraRole,
    Calibration,
    RigGeometry,
    SideAxes,
    SubArea,
    TopAxes,
    build_calibration,
    build_sub_area,
    calibration_doc,
    calibration_from_doc,
    default_axis_map,
    load_calibration,
    load_marker_picks,
    load_rig,
    marker_picks_doc,
    measure_mde,
    mg_bounds,
    model_grid_columns,
    save_calibration,
    to_model_grid,
)
from gridscope.errors import (
    DegenerateQuad,
    FormatError,
    GridscopeError,
    NonPositiveLength,
    OutsideCalibratedArea,
    PointAtInfinity,
    VersionMismatch,
)
from gridscope.geometry import (
    GridBox,
    Homography,
    ModelPoint2D,
    PixelPoint,
    Quad,
    ScaleRatios,
    WorldPoint3D,
    apply_homography,
    apply_scale,
    compute_homography,
    homography_columns,
    homography_points,
    point_in_quad,
)
from gridscope import jsonio
from gridscope.simulate import marker_picks_for

from conftest import SIDE_DISTANCE_MM, make_scenario
from oracles import _model_grid, pinhole_mde_oracle
from strategies import fuzzed_doc


def square_sub_area(index=0, origin=(0.0, 0.0), offset=(0.0, 0.0), size=10.0):
    """Identity-ish sub-area: a size x size pixel square rectified 1:1."""
    ox, oy = offset
    quad = Quad.from_coords(
        [(ox, oy), (ox + size, oy), (ox + size, oy + size), (ox, oy + size)]
    )
    return build_sub_area(index, quad, (size, size), origin)


class TestCameraRole:
    def test_labels_round_trip(self):
        for role in [CameraRole.side(0), CameraRole.side(3), CameraRole.top()]:
            assert CameraRole.from_label(role.label()) == role

    def test_side_properties(self):
        assert CameraRole.side(2).is_side
        assert not CameraRole.top().is_side

    @pytest.mark.parametrize(
        "bad",
        ["side:4", "side:", "ceiling", "side",
         # int() reads these as an index; only the canonical label is one
         "side:01", "side: 1", "side:+1", "side:-0", "side:1 ", "side:\uff11",
         "side:\u0661", "side:1_0"],
    )
    def test_bad_labels_rejected(self, bad):
        with pytest.raises(FormatError, match="unknown camera role"):
            CameraRole.from_label(bad)

    def test_bad_construction(self):
        with pytest.raises(FormatError):
            CameraRole.side(5)

    def test_the_five_roles(self):
        assert [role.label() for role in CameraRole] == [
            "side:0", "side:1", "side:2", "side:3", "top"
        ]
        assert [role.index for role in CameraRole] == [0, 1, 2, 3, None]
        assert CameraRole.top() is CameraRole.TOP

    @given(st.one_of(st.integers(), st.booleans(), st.floats()))
    @example(True)
    @example(1.0)
    def test_a_side_role_reads_back_from_its_label(self, value):
        """side() refuses a value, or its role's label is one from_label reads."""
        try:
            role = CameraRole.side(value)
        except FormatError as exc:
            assert str(exc) == f"side camera index must be 0..3, got {value}"
            return
        assert CameraRole.from_label(role.label()) is role


class TestSubArea:
    def test_build_identity_patch(self):
        sub = square_sub_area()
        out = apply_homography(sub.homography, PixelPoint(3.0, 7.0))
        assert out.a == pytest.approx(3.0, abs=1e-9)
        assert out.b == pytest.approx(7.0, abs=1e-9)
        assert sub.scale == ScaleRatios(1.0, 1.0)

    def test_required_dims_set_scale(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        sub = build_sub_area(0, quad, (10, 10), (0.0, 0.0), required_dims=(20, 10))
        assert sub.scale == ScaleRatios(2.0, 1.0)

    def test_corner_consistency_enforced(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        wrong = compute_homography(
            Quad.from_coords([(0, 0), (12, 0), (12, 10), (0, 10)]),
            Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)]),
        )
        with pytest.raises(FormatError):
            SubArea(0, quad, 10.0, 10.0, ModelPoint2D(0, 0), wrong, ScaleRatios(1, 1))

    def test_mg_corners_include_origin_and_scale(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        sub = build_sub_area(2, quad, (10, 10), (100.0, 50.0), required_dims=(20, 10))
        corners = sub.mg_corners()
        assert corners[0] == ModelPoint2D(100.0, 50.0)
        assert corners[2] == ModelPoint2D(120.0, 60.0)

    def test_negative_index_rejected(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        with pytest.raises(FormatError):
            build_sub_area(-1, quad, (10, 10), (0.0, 0.0))

    def test_zero_canonical_rejected(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        with pytest.raises(NonPositiveLength):
            build_sub_area(0, quad, (0, 10), (0.0, 0.0))


def two_patch_profile():
    return CameraProfile(
        camera_id="cam",
        role=CameraRole.side(0),
        resolution=(100, 100),
        sub_areas=(
            square_sub_area(0, origin=(0.0, 0.0), offset=(0.0, 0.0)),
            square_sub_area(1, origin=(10.0, 0.0), offset=(10.0, 0.0)),
        ),
    )


class TestCameraProfile:
    def test_requires_sub_areas(self):
        with pytest.raises(FormatError):
            CameraProfile("cam", CameraRole.top(), (10, 10), ())

    def test_indices_must_ascend(self):
        subs = (square_sub_area(1), )
        CameraProfile("cam", CameraRole.top(), (10, 10), subs)  # fine alone
        bad = (square_sub_area(1, offset=(0, 0)), square_sub_area(0, offset=(10, 0), origin=(10, 0)))
        with pytest.raises(FormatError):
            CameraProfile("cam", CameraRole.top(), (10, 10), bad)

    def test_negative_mde_rejected(self):
        with pytest.raises(FormatError):
            CameraProfile(
                "cam", CameraRole.top(), (10, 10), (square_sub_area(),), mde_h=-1.0
            )


def gapped_profile():
    """Two patches sharing the pixel edge u = 10 but 20 model units apart."""
    return CameraProfile(
        camera_id="cam",
        role=CameraRole.side(0),
        resolution=(100, 100),
        sub_areas=(
            square_sub_area(0, origin=(0.0, 0.0), offset=(0.0, 0.0)),
            square_sub_area(1, origin=(30.0, 0.0), offset=(10.0, 0.0)),
        ),
    )


class TestToModelGrid:
    def test_interior_point(self):
        mg = to_model_grid(two_patch_profile(), PixelPoint(14.0, 6.0))
        assert mg.a == pytest.approx(14.0, abs=1e-9)
        assert mg.b == pytest.approx(6.0, abs=1e-9)

    def test_interior_point_uses_its_own_patch(self):
        mg = to_model_grid(gapped_profile(), PixelPoint(14.0, 6.0))
        assert mg.a == pytest.approx(34.0, abs=1e-9)
        assert mg.b == pytest.approx(6.0, abs=1e-9)

    def test_shared_edge_goes_to_lowest_index(self):
        # patch 1 would put this pixel at a = 30
        mg = to_model_grid(gapped_profile(), PixelPoint(10.0, 5.0))
        assert mg.a == pytest.approx(10.0, abs=1e-9)
        assert mg.b == pytest.approx(5.0, abs=1e-9)

    def test_outside_every_patch(self):
        with pytest.raises(OutsideCalibratedArea):
            to_model_grid(two_patch_profile(), PixelPoint(50.0, 50.0))

    @pytest.mark.parametrize(
        "u, v", [(math.nan, 5.0), (5.0, math.nan), (math.nan, math.nan)]
    )
    def test_a_nan_pixel_is_outside_every_patch(self, u, v):
        with pytest.raises(OutsideCalibratedArea):
            to_model_grid(two_patch_profile(), PixelPoint(u, v))

    def test_scaled_patch_mapping(self):
        quad = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        sub = build_sub_area(0, quad, (10, 10), (5.0, 0.0), required_dims=(20, 10))
        profile = CameraProfile("cam", CameraRole.top(), (20, 20), (sub,))
        mg = to_model_grid(profile, PixelPoint(5.0, 5.0))
        # Rectified (5,5), shifted to (10,5), doubled in a about a=5.
        assert mg.a == pytest.approx(15.0, abs=1e-9)
        assert mg.b == pytest.approx(5.0, abs=1e-9)

    def test_mg_bounds_covers_all_patches(self):
        assert mg_bounds(two_patch_profile()) == (0.0, 0.0, 20.0, 10.0)

    @pytest.mark.parametrize(
        "calibration", [None, "aligned_calibration", "pinhole_calibration"]
    )
    def test_mg_bounds_equals_corner_extremes(self, calibration, request):
        if calibration is None:
            profiles = [two_patch_profile()]
        else:
            profiles = list(request.getfixturevalue(calibration).cameras)
        for profile in profiles:
            corners = [c for sub in profile.sub_areas for c in sub.mg_corners()]
            expected = (
                min(c.a for c in corners),
                min(c.b for c in corners),
                max(c.a for c in corners),
                max(c.b for c in corners),
            )
            first = mg_bounds(profile)
            assert first == expected
            assert mg_bounds(profile) is first
            # the cached footprint is not a field: equality is unchanged
            assert profile == replace(profile)


class TestMeasureMde:
    def near_far(self):
        profile = CameraProfile(
            "cam",
            CameraRole.side(0),
            (20, 20),
            (square_sub_area(size=20.0),),
        )
        near = Quad.from_coords([(2, 2), (18, 2), (18, 18), (2, 18)])
        far = Quad.from_coords([(5, 3), (16, 4), (17, 16), (4, 15)])
        return profile, near, far

    def test_max_aggregate(self):
        profile, near, far = self.near_far()
        assert measure_mde(profile, near, far) == (3.0, 3.0)

    def test_mean_aggregate(self):
        profile, near, far = self.near_far()
        assert measure_mde(profile, near, far, aggregate="mean") == (2.0, 2.0)

    def test_unknown_aggregate(self):
        profile, near, far = self.near_far()
        with pytest.raises(FormatError):
            measure_mde(profile, near, far, aggregate="median")

    def test_zero_for_identical_quads(self):
        profile, near, _ = self.near_far()
        assert measure_mde(profile, near, near) == (0.0, 0.0)


class TestAxisMap:
    def test_default_side_conversions(self):
        am = default_axis_map(GridBox(WorldPoint3D(0, 0, 0), 390, 390, 850))
        assert am.sides[0].horizontal.world_from_model(100.0, 1.0) == 100.0
        assert am.sides[2].horizontal.world_from_model(100.0, 1.0) == 290.0
        assert am.sides[0].vertical.world_from_model(0.0, 1.0) == 850.0
        assert am.sides[0].vertical.world_from_model(850.0, 1.0) == 0.0

    def test_default_top_conversions(self):
        am = default_axis_map(GridBox(WorldPoint3D(0, 0, 0), 390, 390, 850))
        assert am.top.a.world_from_model(25.0, 1.0) == 25.0
        assert am.top.b.world_from_model(25.0, 1.0) == 365.0

    def test_px_per_mm_divides(self):
        c = AxisComponent("x", 10.0, 1)
        assert c.world_from_model(30.0, 2.0) == 25.0

    def test_depth_components_start_on_near_faces(self):
        am = default_axis_map(GridBox(WorldPoint3D(0, 0, 0), 390, 390, 850))
        assert (am.sides[0].depth.axis, am.sides[0].depth.origin_mm) == ("y", 0.0)
        assert (am.sides[1].depth.axis, am.sides[1].depth.sign) == ("x", -1)

    def test_adjacent_sides_must_differ(self):
        am = default_axis_map(GridBox(WorldPoint3D(0, 0, 0), 390, 390, 850))
        clash = (am.sides[0], am.sides[0], am.sides[2], am.sides[3])
        with pytest.raises(FormatError):
            AxisMap(clash, am.top)

    def test_side_horizontal_vs_depth_axis(self):
        with pytest.raises(FormatError):
            SideAxes(
                AxisComponent("x", 0.0, 1),
                AxisComponent("z", 850.0, -1),
                AxisComponent("x", 0.0, 1),
            )

    def test_top_axes_must_differ(self):
        with pytest.raises(FormatError):
            TopAxes(AxisComponent("x", 0.0, 1), AxisComponent("x", 390.0, -1))


class TestSerialization:
    def test_round_trip_equality(self, pinhole_calibration, tmp_path):
        path = tmp_path / "rig.calib"
        save_calibration(path, pinhole_calibration)
        assert load_calibration(path) == pinhole_calibration

    def test_two_saves_byte_identical(self, aligned_calibration, tmp_path):
        p1, p2 = tmp_path / "a.calib", tmp_path / "b.calib"
        save_calibration(p1, aligned_calibration)
        save_calibration(p2, aligned_calibration)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self, aligned_calibration):
        doc = calibration_doc(aligned_calibration)
        doc["format_version"] = 99
        with pytest.raises(VersionMismatch):
            calibration_from_doc(doc)

    def test_axis_map_defaults_when_absent(self, aligned_calibration):
        doc = calibration_doc(aligned_calibration)
        del doc["axis_map"]
        cal = calibration_from_doc(doc)
        assert cal.axis_map == default_axis_map(cal.rig.grid_a)

    def test_duplicate_camera_ids_rejected(self, aligned_calibration):
        cams = aligned_calibration.cameras
        with pytest.raises(FormatError):
            Calibration(aligned_calibration.rig, cams + cams[:1], aligned_calibration.axis_map)

    def test_camera_lookup(self, aligned_calibration):
        assert aligned_calibration.camera("top").role == CameraRole.top()
        assert aligned_calibration.side_camera(2).camera_id == "side2"
        assert aligned_calibration.role_camera(CameraRole.top()).camera_id == "top"
        with pytest.raises(FormatError):
            aligned_calibration.camera("side9")

    def test_marker_picks_round_trip(self, tmp_path):
        picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
        path = tmp_path / "picks.json"
        jsonio.write_doc(path, marker_picks_doc(picks))
        loaded = load_marker_picks(path)
        assert loaded == picks

    def test_marker_picks_version_mismatch(self, tmp_path):
        picks = marker_picks_for(make_scenario("aligned", n_frames=1))
        doc = marker_picks_doc(picks)
        doc["format_version"] = 2
        path = tmp_path / "picks.json"
        jsonio.write_doc(path, doc)
        with pytest.raises(VersionMismatch):
            load_marker_picks(path)


class TestBuildCalibration:
    def test_camera_roster(self, aligned_calibration):
        ids = [c.camera_id for c in aligned_calibration.cameras]
        assert ids == ["side0", "side1", "side2", "side3", "top"]
        for cam in aligned_calibration.cameras:
            assert len(cam.sub_areas) == 5

    def test_aligned_rig_has_zero_mde(self, aligned_calibration):
        for i in range(4):
            cam = aligned_calibration.side_camera(i)
            assert cam.mde_h == 0.0
            assert cam.mde_v == 0.0

    def test_top_camera_gets_no_mde(self, pinhole_calibration):
        top = pinhole_calibration.role_camera(CameraRole.top())
        assert (top.mde_h, top.mde_v) == (0.0, 0.0)

    def test_pinhole_mde_matches_similar_triangles(self, pinhole_calibration):
        rig = pinhole_calibration.rig
        expect_h, expect_v = pinhole_mde_oracle(
            half_width_mm=rig.grid_a.w_mm / 2.0,
            half_height_mm=rig.grid_a.h_mm / 2.0,
            depth_mm=rig.grid_a.d_mm,
            camera_distance_mm=SIDE_DISTANCE_MM,
        )
        for i in range(4):
            cam = pinhole_calibration.side_camera(i)
            assert cam.mde_h == pytest.approx(expect_h, rel=1e-9)
            assert cam.mde_v == pytest.approx(expect_v, rel=1e-9)

    def test_pinhole_mde_frozen_values(self, pinhole_calibration):
        # 195 mm half-width and 425 mm half-height, pulled by 390/635.
        cam = pinhole_calibration.side_camera(0)
        assert cam.mde_h == pytest.approx(76050.0 / 635.0, rel=1e-9)
        assert cam.mde_v == pytest.approx(165750.0 / 635.0, rel=1e-9)

    def test_mean_aggregate_not_larger_than_max(self):
        picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
        cal_max = build_calibration(picks, mde_aggregate="max")
        cal_mean = build_calibration(picks, mde_aggregate="mean")
        for i in range(4):
            assert cal_mean.side_camera(i).mde_h <= cal_max.side_camera(i).mde_h

    def test_shared_patch_edges_agree(self, pinhole_calibration):
        """A pixel on two patches' shared edge maps consistently through both."""
        cam = pinhole_calibration.side_camera(0)
        centre = cam.sub_areas[0]
        tl, tr = centre.src.corners[0], centre.src.corners[1]
        p = PixelPoint((tl.u + tr.u) / 2.0, (tl.v + tr.v) / 2.0)
        claims = []
        for sub in cam.sub_areas:
            if point_in_quad(p, sub.src):
                rectified = apply_homography(sub.homography, p)
                shifted = ModelPoint2D(
                    sub.mg_origin.a + rectified.a, sub.mg_origin.b + rectified.b
                )
                claims.append(apply_scale(sub.scale, shifted, sub.mg_origin))
        assert len(claims) >= 2
        for other in claims[1:]:
            assert math.isclose(claims[0].a, other.a, abs_tol=1e-6)
            assert math.isclose(claims[0].b, other.b, abs_tol=1e-6)


class TestRigGeometry:
    def test_default_dimensions(self):
        rig = RigGeometry(GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 390.0, 850.0))
        assert (rig.grid_a.w_mm, rig.grid_a.d_mm, rig.grid_a.h_mm) == (390, 390, 850)
        assert (rig.px_per_mm, rig.marker_count) == (1.0, 20)

    def test_px_per_mm_positive(self):
        with pytest.raises(NonPositiveLength):
            RigGeometry(GridBox(WorldPoint3D(0, 0, 0), 1, 1, 1), px_per_mm=0.0)


class TestOneCameraPerRole:
    """A second camera with a role already taken is refused wherever it comes in."""

    @staticmethod
    def _second(cameras, camera_id):
        """A copy of ``camera_id``'s entry under the id ``camera_id + "b"``."""
        original = next(c for c in cameras if c.camera_id == camera_id)
        return replace(original, camera_id=camera_id + "b")

    @staticmethod
    def _assert_names_role(err, camera_id, label):
        message = str(err.value)
        assert label in message
        assert repr(camera_id) in message and repr(camera_id + "b") in message

    @pytest.mark.parametrize("camera_id, label", [("side0", "side:0"), ("top", "top")])
    def test_constructor(self, aligned_calibration, camera_id, label):
        cal = aligned_calibration
        extra = self._second(cal.cameras, camera_id)
        with pytest.raises(FormatError) as err:
            Calibration(cal.rig, cal.cameras + (extra,), cal.axis_map)
        self._assert_names_role(err, camera_id, label)

    @pytest.mark.parametrize("camera_id, label", [("side0", "side:0"), ("top", "top")])
    def test_load_calibration(self, aligned_calibration, tmp_path, camera_id, label):
        doc = calibration_doc(aligned_calibration)
        entry = next(c for c in doc["cameras"] if c["id"] == camera_id)
        doc["cameras"].append({**entry, "id": camera_id + "b"})
        path = tmp_path / "rig.calib"
        jsonio.write_doc(path, doc)
        with pytest.raises(FormatError) as err:
            load_calibration(path)
        self._assert_names_role(err, camera_id, label)

    @pytest.mark.parametrize("camera_id, label", [("side0", "side:0"), ("top", "top")])
    def test_build_calibration_from_picks(self, camera_id, label):
        picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
        extra = self._second(picks.cameras, camera_id)
        picks = replace(picks, cameras=picks.cameras + (extra,))
        with pytest.raises(FormatError) as err:
            build_calibration(picks)
        self._assert_names_role(err, camera_id, label)

    def test_role_lookups_name_the_one_camera(self, aligned_calibration):
        cal = aligned_calibration
        for cam in cal.cameras:
            assert cal.role_camera(cam.role) is cam
        no_top = replace(cal, cameras=cal.cameras[:4])
        assert no_top.role_camera(CameraRole.top()) is None
        assert no_top.role_camera(CameraRole.side(3)).camera_id == "side3"


# --- the rig-only load ---------------------------------------------------------


def _outcome(load, path):
    try:
        return "ok", load(path)
    except (GridscopeError, OSError) as exc:
        return type(exc).__name__, str(exc)


def _both_loads(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calibration.json"
        path.write_bytes(raw)
        return _outcome(load_rig, path), _outcome(load_calibration, path)


def _check_rig_load(rig, full):
    """A header fault is the full load's fault too, with the same text; a
    calibration that loads has the rig that load_rig returns."""
    if rig[0] != "ok":
        assert full == rig
    elif full[0] == "ok":
        assert rig[1] == full[1].rig


def _calibration_json(cal) -> dict:
    return json.loads(jsonio.dumps_doc(calibration_doc(cal)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cameras=st.booleans())
def test_load_rig_agrees_with_load_calibration(pinhole_calibration, data, cameras):
    doc = _calibration_json(pinhole_calibration)
    if not cameras:  # fuzz the header keys only
        doc["cameras"] = []
    _check_rig_load(*_both_loads(data.draw(fuzzed_doc(doc))))


def _axis_map_with(path, value):
    def change(doc):
        node = doc["axis_map"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return change


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(format_version=2),
        lambda doc: doc.update(format_version="1"),
        lambda doc: doc.pop("format_version"),
        lambda doc: doc.update(grid_a=[390.0, 390.0, 850.0]),
        lambda doc: doc["grid_a"].update(d_mm=0.0),
        lambda doc: doc["grid_a"].pop("h_mm"),
        lambda doc: doc["grid_a"].update(w_mm=10**400),
        lambda doc: doc.update(px_per_mm=0.0),
        lambda doc: doc.update(px_per_mm=True),
        lambda doc: doc.pop("px_per_mm"),
        lambda doc: doc.update(marker_count=-1),
        lambda doc: doc.update(marker_count=2.5),
        lambda doc: doc.update(axis_map=[]),
        _axis_map_with(["sides"], []),
        _axis_map_with(["sides", 1, "horizontal", "axis"], "x"),
        _axis_map_with(["sides", 2, "depth", "sign"], 0),
        _axis_map_with(["sides", 0, "vertical"], {"origin_mm": 850.0}),
        _axis_map_with(["top", "b", "axis"], "x"),
        _axis_map_with(["top", "a", "origin_mm"], None),
    ],
)
def test_load_rig_refuses_each_header_fault_as_load_calibration_does(
    aligned_calibration, change
):
    doc = _calibration_json(aligned_calibration)
    change(doc)
    rig, full = _both_loads(json.dumps(doc).encode())
    assert rig[0] != "ok"
    assert rig == full


def test_load_rig_reads_no_camera_entry(aligned_calibration, tmp_path):
    doc = _calibration_json(aligned_calibration)
    doc["cameras"][0]["sub_areas"][0]["homography"][1] = "not a row"
    doc["cameras"][1]["role"] = "side:0"  # a repeated role
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_calibration(path)
    assert load_rig(path) == aligned_calibration.rig


def _add_key(doc: dict, where: tuple, key: str) -> str:
    """Put ``key`` into the mapping at ``where`` in ``doc``; that mapping's path."""
    node = doc
    for name in where:
        node = node[name]
    node[key] = 1.0
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)
    return path.lstrip(".") or "top level"


_HEADER_LEVELS = [
    ((), "grid"),
    (("grid_a",), "w"),
    (("axis_map",), "side"),
    (("axis_map", "sides", 1), "vertcal"),
    (("axis_map", "sides", 1, "horizontal"), "origin"),
    (("axis_map", "sides", 2, "depth"), "face_f_mm"),
    (("axis_map", "sides", 3, "vertical"), "signs"),
    (("axis_map", "top"), "c"),
    (("axis_map", "top", "b"), "face_n_mm"),
]


def _picks_json() -> dict:
    picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
    return json.loads(jsonio.dumps_doc(marker_picks_doc(picks)))


@pytest.mark.parametrize(
    "where, key",
    _HEADER_LEVELS
    + [
        (("cameras", 1), "mde_h"),
        (("cameras", 1, "sub_areas", 2), "scale"),
        (("cameras", 1, "depth_markers"), "face_m"),
    ],
)
def test_marker_picks_refuse_an_unknown_key_at_each_level(tmp_path, where, key):
    doc = _picks_json()
    path = tmp_path / "picks.json"
    jsonio.write_doc(path, doc)
    load_marker_picks(path)
    place = _add_key(doc, where, key)
    jsonio.write_doc(path, doc)
    with pytest.raises(FormatError) as err:
        load_marker_picks(path)
    assert str(err.value) == f"{path}: {place}: unknown key {key!r}"


def test_a_misspelled_depth_markers_key_is_refused(tmp_path):
    """Read unrefused, it would leave every side's MDE at 0."""
    doc = _picks_json()
    doc["cameras"][0]["depth_marker"] = doc["cameras"][0].pop("depth_markers")
    path = tmp_path / "picks.json"
    jsonio.write_doc(path, doc)
    with pytest.raises(FormatError, match=r"cameras\[0\]: unknown key 'depth_marker'$"):
        load_marker_picks(path)


@pytest.mark.parametrize(
    "where, key",
    _HEADER_LEVELS
    + [
        (("cameras", 4), "depth_markers"),
        (("cameras", 0, "sub_areas", 3), "required"),
    ],
)
def test_calibration_refuses_an_unknown_key_at_each_level(
    aligned_calibration, tmp_path, where, key
):
    doc = _calibration_json(aligned_calibration)
    place = _add_key(doc, where, key)
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_calibration(path)
    assert str(err.value) == f"{path}: {place}: unknown key {key!r}"
    if where[:1] != ("cameras",):  # a header key; load_rig reads no camera entry
        with pytest.raises(FormatError) as rig_err:
            load_rig(path)
        assert str(rig_err.value) == str(err.value)
    else:
        assert load_rig(path) == aligned_calibration.rig


def test_load_rig_reads_a_marker_picks_header(tmp_path):
    picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
    path = tmp_path / "picks.json"
    jsonio.write_doc(path, marker_picks_doc(picks))
    assert load_rig(path) == picks.rig


# --- quad edges: boundaries and the cached state -------------------------------


def _edge_pixels(profile):
    """Each sub-area's corners and points along its edges, on them, 1e-9 px off
    them in u and in v, and NaN pixels."""
    on = []
    for sub in profile.sub_areas:
        corners = sub.src.corners
        for k in range(4):
            p, q = corners[k], corners[(k + 1) % 4]
            for t in (0.0, 0.25, 0.5, 0.75):
                on.append((p.u + t * (q.u - p.u), p.v + t * (q.v - p.v)))
    steps = ((0.0, 0.0), (1e-9, 0.0), (-1e-9, 0.0), (0.0, 1e-9), (0.0, -1e-9))
    pixels = [(u + du, v + dv) for u, v in on for du, dv in steps]
    return pixels + [(math.nan, 500.0), (500.0, math.nan), (math.nan, math.nan)]


def _assert_matches_oracle(profile, pixels):
    u = np.array([p[0] for p in pixels])
    v = np.array([p[1] for p in pixels])
    a, b, claimed = model_grid_columns(profile, u, v)
    for i, (pu, pv) in enumerate(pixels):
        expected = _model_grid(profile, pu, pv)
        if expected is None:
            assert not claimed[i] and math.isnan(a[i]) and math.isnan(b[i])
        else:
            assert claimed[i]
            assert repr((float(a[i]), float(b[i]))) == repr(expected)


@pytest.mark.parametrize("calibration", ["aligned_calibration", "pinhole_calibration"])
def test_model_grid_columns_on_sub_area_edges_equals_the_oracle(calibration, request):
    for profile in request.getfixturevalue(calibration).cameras:
        pixels = _edge_pixels(profile)
        _assert_matches_oracle(profile, pixels)
        # each quad on its own, so a later sub-area's test is seen too
        for sub in profile.sub_areas:
            _assert_matches_oracle(replace(profile, sub_areas=(sub,)), pixels)


def test_cached_edges_are_not_quad_state(pinhole_calibration, tmp_path):
    quad = Quad.from_coords([(0.0, 0.0), (10.0, 0.5), (11.0, 9.0), (-1.0, 10.0)])
    twin = Quad.from_coords([(0.0, 0.0), (10.0, 0.5), (11.0, 9.0), (-1.0, 10.0)])
    before = hash(quad), repr(quad)
    edges = quad._edges
    assert quad._edges is edges
    assert (hash(quad), repr(quad)) == before and quad == twin and twin == quad
    with pytest.raises(ValueError):
        edges[2][0, 0] = 1.0

    cal = calibration_from_doc(_calibration_json(pinhole_calibration))
    path = tmp_path / "calibration.json"
    save_calibration(path, cal)
    uncached = path.read_bytes()
    for cam in cal.cameras:
        model_grid_columns(cam, np.array([500.0, 900.0]), np.array([300.0, 600.0]))
        assert all("_edges" in vars(sub.src) for sub in cam.sub_areas)
    assert cal == pinhole_calibration and hash(cal) == hash(pinhole_calibration)
    save_calibration(path, cal)
    assert path.read_bytes() == uncached


# --- the axis map's document ---------------------------------------------------


def _non_default_axis_map(grid_a: GridBox) -> AxisMap:
    """The default map with the top axes swapped, side 1's vertical link
    rising from the floor (sign +1) and side 0's depth measured from its far
    face (sign -1)."""
    am = default_axis_map(grid_a)
    sides = list(am.sides)
    sides[0] = replace(sides[0], depth=AxisComponent("y", grid_a.d_mm, -1))
    sides[1] = replace(sides[1], vertical=AxisComponent("z", 0.0, 1))
    top = TopAxes(AxisComponent("y", 0.0, 1), AxisComponent("x", grid_a.w_mm, -1))
    return AxisMap(tuple(sides), top)


# The written axis map of ``_non_default_axis_map`` on the 390 x 390 x 850
# grid, recorded when each kind of link had a class of its own; the digests
# pin only the default map.
NON_DEFAULT_AXIS_MAP = (
    '{"sides": [{"horizontal": {"axis": "x", "origin_mm": 0, "sign": 1}, '
    '"vertical": {"origin_mm": 850, "sign": -1}, '
    '"depth": {"axis": "y", "face_n_mm": 390, "sign": -1}}, '
    '{"horizontal": {"axis": "y", "origin_mm": 0, "sign": 1}, '
    '"vertical": {"origin_mm": 0, "sign": 1}, '
    '"depth": {"axis": "x", "face_n_mm": 390, "sign": -1}}, '
    '{"horizontal": {"axis": "x", "origin_mm": 390, "sign": -1}, '
    '"vertical": {"origin_mm": 850, "sign": -1}, '
    '"depth": {"axis": "y", "face_n_mm": 390, "sign": -1}}, '
    '{"horizontal": {"axis": "y", "origin_mm": 390, "sign": -1}, '
    '"vertical": {"origin_mm": 850, "sign": -1}, '
    '"depth": {"axis": "x", "face_n_mm": 0, "sign": 1}}], '
    '"top": {"a": {"axis": "y", "origin_mm": 0, "sign": 1}, '
    '"b": {"axis": "x", "origin_mm": 390, "sign": -1}}}'
)


def test_a_non_default_axis_map_round_trips(aligned_calibration, tmp_path):
    cal = replace(
        aligned_calibration, axis_map=_non_default_axis_map(aligned_calibration.rig.grid_a)
    )
    first, second = tmp_path / "a.calib", tmp_path / "b.calib"
    save_calibration(first, cal)
    loaded = load_calibration(first)
    assert loaded == cal
    save_calibration(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    # json.dumps keeps the key order and tells 0 from 0.0, as the bytes do
    assert json.dumps(json.loads(first.read_text())["axis_map"]) == NON_DEFAULT_AXIS_MAP
    assert load_rig(first) == cal.rig


_GONE = object()  # the key is deleted

# One fault in the default axis map, and its error text as recorded when each
# kind of link had a class of its own.
AXIS_MAP_FAULTS = [
    (["sides"], [], "axis_map.sides: expected an array of 4 elements, found list"),
    (["sides", 0], [], "axis_map.sides[0]: expected a mapping, found list"),
    (["sides", 0, "horizontal"], [],
     "axis_map.sides[0].horizontal: expected a mapping, found list"),
    (["sides", 0, "horizontal", "axis"], "w", "axis must be 'x' or 'y', got 'w'"),
    (["sides", 0, "horizontal", "axis"], "z", "axis must be 'x' or 'y', got 'z'"),
    (["sides", 0, "horizontal", "axis"], "X", "axis must be 'x' or 'y', got 'X'"),
    (["sides", 0, "horizontal", "axis"], 1,
     "axis_map.sides[0].horizontal.axis: expected a string, found int"),
    (["sides", 0, "horizontal", "axis"], _GONE,
     "axis_map.sides[0].horizontal: missing required key 'axis'"),
    (["sides", 1, "horizontal", "axis"], "x",
     "a side camera's horizontal axis must differ from its depth axis"),
    (["sides", 2, "horizontal", "sign"], 0, "sign must be -1 or 1, got 0"),
    (["sides", 2, "horizontal", "sign"], -1.0,
     "axis_map.sides[2].horizontal.sign: expected an integer, found float"),
    (["sides", 2, "horizontal", "sign"], True,
     "axis_map.sides[2].horizontal.sign: expected an integer, found bool"),
    (["sides", 3, "horizontal", "origin_mm"], None,
     "axis_map.sides[3].horizontal.origin_mm: expected a real number, found null"),
    (["sides", 3, "horizontal", "origin_mm"], _GONE,
     "axis_map.sides[3].horizontal: missing required key 'origin_mm'"),
    (["sides", 0, "vertical"], 5, "axis_map.sides[0].vertical: expected a mapping, found int"),
    (["sides", 0, "vertical", "sign"], _GONE,
     "axis_map.sides[0].vertical: missing required key 'sign'"),
    (["sides", 1, "vertical", "sign"], 3, "sign must be -1 or 1, got 3"),
    (["sides", 1, "vertical", "sign"], "1",
     "axis_map.sides[1].vertical.sign: expected an integer, found str"),
    (["sides", 2, "vertical", "origin_mm"], "x",
     "axis_map.sides[2].vertical.origin_mm: expected a real number, found str"),
    (["sides", 2, "vertical", "origin_mm"], _GONE,
     "axis_map.sides[2].vertical: missing required key 'origin_mm'"),
    (["sides", 0, "depth"], None, "axis_map.sides[0].depth: expected a mapping, found null"),
    (["sides", 0, "depth", "axis"], "w", "axis must be 'x' or 'y', got 'w'"),
    (["sides", 0, "depth", "axis"], "z", "axis must be 'x' or 'y', got 'z'"),
    (["sides", 1, "depth", "axis"], "y",
     "a side camera's horizontal axis must differ from its depth axis"),
    (["sides", 1, "depth", "axis"], _GONE,
     "axis_map.sides[1].depth: missing required key 'axis'"),
    (["sides", 2, "depth", "sign"], -2, "sign must be -1 or 1, got -2"),
    (["sides", 3, "depth", "face_n_mm"], "a",
     "axis_map.sides[3].depth.face_n_mm: expected a real number, found str"),
    (["sides", 3, "depth", "face_n_mm"], _GONE,
     "axis_map.sides[3].depth: missing required key 'face_n_mm'"),
    (["sides", 1], {"horizontal": {"axis": "x", "origin_mm": 0.0, "sign": 1},
                    "vertical": {"origin_mm": 850.0, "sign": -1},
                    "depth": {"axis": "y", "face_n_mm": 0.0, "sign": 1}},
     "adjacent side cameras 0 and 1 must measure different world axes, both have 'x'"),
    (["top"], [], "axis_map.top: expected a mapping, found list"),
    (["top", "a"], _GONE, "axis_map.top: missing required key 'a'"),
    (["top", "a", "axis"], "z", "axis must be 'x' or 'y', got 'z'"),
    (["top", "a", "axis"], "w", "axis must be 'x' or 'y', got 'w'"),
    (["top", "b", "axis"], "x", "top camera model axes must map distinct world axes"),
    (["top", "b", "axis"], "z", "axis must be 'x' or 'y', got 'z'"),
    (["top", "b", "sign"], -2, "sign must be -1 or 1, got -2"),
    (["top", "a", "origin_mm"], None,
     "axis_map.top.a.origin_mm: expected a real number, found null"),
]


def _set_in_axis_map(doc: dict, path: list, value) -> dict:
    node = doc["axis_map"]
    for key in path[:-1]:
        node = node[key]
    if value is _GONE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, message", AXIS_MAP_FAULTS)
def test_each_axis_map_fault_keeps_its_text(aligned_calibration, path, value, message):
    doc = _set_in_axis_map(_calibration_json(aligned_calibration), path, value)
    with pytest.raises(FormatError) as err:
        calibration_from_doc(doc)
    assert str(err.value) == message


def test_a_vertical_entry_with_an_axis_key_reads_as_before(aligned_calibration):
    """A vertical link is on z; an axis key in its entry is not read."""
    doc = _set_in_axis_map(
        _calibration_json(aligned_calibration), ["sides", 0, "vertical", "axis"], "x"
    )
    assert calibration_from_doc(doc) == aligned_calibration


def test_each_link_is_checked_for_its_place():
    links = {axis: AxisComponent(axis, 0.0, 1) for axis in "xyz"}
    with pytest.raises(FormatError, match="axis must be 'z', got 'x'"):
        SideAxes(links["y"], links["x"], links["x"])
    with pytest.raises(FormatError, match="axis must be 'x' or 'y', got 'z'"):
        TopAxes(links["x"], links["z"])


# --- the sub-area corner check against homography_columns --------------------


@st.composite
def _corner_quads(draw):
    """A strictly convex quad: a rectangle's corners, each moved by up to a
    fifth of its sides."""
    x0, y0 = draw(st.floats(-2000, 2000)), draw(st.floats(-2000, 2000))
    w, h = draw(st.floats(1e-3, 3000)), draw(st.floats(1e-3, 3000))
    shift = st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
    corners = [
        (x + dx * w, y + dy * h)
        for (x, y), (dx, dy) in zip(
            [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)],
            draw(st.lists(shift, min_size=4, max_size=4)),
        )
    ]
    try:
        return Quad.from_coords(corners)
    except DegenerateQuad:
        assume(False)


_ENTRY = st.one_of(st.floats(-10, 10), st.floats(-1e6, 1e6), st.just(0.0))


@st.composite
def _corner_cases(draw):
    """(quad, canonical width, height, homography): fitted to the quad, any
    invertible one, or one that sends a corner to infinity."""
    quad = draw(_corner_quads())
    w, h = draw(st.floats(1e-3, 1e4)), draw(st.floats(1e-3, 1e4))
    kind = draw(st.sampled_from(["fitted", "any", "infinity"]))
    if kind == "fitted":
        canonical = Quad.from_coords([(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)])
        try:
            return quad, w, h, compute_homography(quad, canonical)
        except DegenerateQuad:
            assume(False)
    entries = draw(st.lists(_ENTRY, min_size=9, max_size=9))
    if kind == "infinity":  # the scale at one corner is zero before normalizing
        corner = quad.corners[draw(st.integers(0, 3))]
        entries[8] = -(entries[6] * corner.u + entries[7] * corner.v)
    try:
        return quad, w, h, Homography([entries[0:3], entries[3:6], entries[6:9]])
    except DegenerateQuad:
        assume(False)


def _columns_corner_check(quad, w, h, homography):
    """The corner check as the sub-area made it with ``homography_columns``."""
    targets = ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h))
    got_a, got_b = homography_columns(
        homography,
        np.array([c.u for c in quad.corners], dtype=float),
        np.array([c.v for c in quad.corners], dtype=float),
    )
    for corner, (ta, tb), ga, gb in zip(quad.corners, targets, got_a.tolist(), got_b.tolist()):
        if abs(ga - ta) > 1e-9 or abs(gb - tb) > 1e-9:
            raise FormatError(
                f"sub-area 0: corner ({corner.u}, {corner.v}) "
                f"maps to ({ga}, {gb}), expected ({ta}, {tb})"
            )


def _check_outcome(check, *args) -> tuple[str, str]:
    try:
        check(*args)
    except GridscopeError as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


@settings(max_examples=400, deadline=None)
@given(case=_corner_cases())
def test_the_corner_check_maps_as_homography_columns(case):
    """The sub-area maps its corners in Python floats: the same doubles as
    ``homography_columns``, bit for bit, and the same error, naming the
    same corner, whether it is at infinity or off its target."""
    quad, w, h, homography = case
    points = [(c.u, c.v) for c in quad.corners]
    xs, ys = np.array(points).T
    try:
        got_a, got_b = homography_columns(homography, xs, ys)
    except PointAtInfinity as exc:
        with pytest.raises(PointAtInfinity) as err:
            homography_points(homography, points)
        assert str(err.value) == str(exc)
    else:
        expected = [(a.hex(), b.hex()) for a, b in zip(got_a.tolist(), got_b.tolist())]
        got = homography_points(homography, points)
        assert [(a.hex(), b.hex()) for a, b in got] == expected

    def build():
        SubArea(0, quad, w, h, ModelPoint2D(0.0, 0.0), homography, ScaleRatios(1.0, 1.0))

    assert _check_outcome(build) == _check_outcome(_columns_corner_check, quad, w, h, homography)


# --- declared documents: optional entries and read order ------------------------


def test_marker_picks_with_required_sizes_round_trip_byte_for_byte(tmp_path):
    """The simulator never sets ``required``: here two sub-areas have one."""
    picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
    cameras = list(picks.cameras)
    for i, j, size in ((0, 1, (30.0, 40.5)), (4, 0, (12.25, 7.0))):
        subs = list(cameras[i].sub_areas)
        subs[j] = replace(subs[j], required=size)
        cameras[i] = replace(cameras[i], sub_areas=tuple(subs))
    picks = replace(picks, cameras=tuple(cameras))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.write_doc(first, marker_picks_doc(picks))
    loaded = load_marker_picks(first)
    assert loaded == picks
    jsonio.write_doc(second, marker_picks_doc(loaded))
    assert second.read_bytes() == first.read_bytes()
    doc = json.loads(first.read_text())
    required = {
        (i, j): s["required"]
        for i, cam in enumerate(doc["cameras"])
        for j, s in enumerate(cam["sub_areas"])
        if "required" in s
    }
    assert required == {(0, 1): [30.0, 40.5], (4, 0): [12.25, 7.0]}
    assert list(doc["cameras"][0]["sub_areas"][1]) == [
        "index", "src_quad", "canonical", "mg_origin", "required"
    ]


@pytest.mark.parametrize("missing", ["face_n_quad", "face_f_quad"])
def test_camera_picks_refuse_one_depth_marker_quad(missing):
    """A side camera with one quad would write neither and get MDE (0, 0)."""
    picks = marker_picks_for(make_scenario("pinhole", n_frames=1))
    side = picks.cameras[2]
    with pytest.raises(FormatError) as err:
        replace(side, **{missing: None})
    assert str(err.value) == (
        "camera side2: depth markers need both the near-face and the far-face "
        "quad, got one"
    )
    replace(side, face_n_quad=None, face_f_quad=None)  # a camera may have neither


# Two faults in one mapping: the reader asks for the keys in the order the
# document declares them, so the first declared key is named.  (kind, the
# mapping's path, {key: value}, the message after the file's path.)
TWO_FAULTS = [
    ("calibration", ("cameras", 1, "sub_areas", 2), {"homography": "h", "index": "i"},
     "cameras[1].sub_areas[2].index: expected an integer, found str"),
    ("calibration", ("cameras", 1, "sub_areas", 2), {"scale": 1, "src_quad": 1},
     "cameras[1].sub_areas[2].src_quad: expected an array of 4 elements, found int"),
    ("calibration", ("cameras", 3), {"resolution": 1, "id": 2},
     "cameras[3].id: expected a string, found int"),
    ("calibration", ("cameras", 3), {"sub_areas": 1, "mde_h": "m"},
     "cameras[3].mde_h: expected a real number, found str"),
    ("marker picks", ("cameras", 0), {"sub_areas": 1, "role": 2},
     "cameras[0].role: expected a string, found int"),
    ("marker picks", ("cameras", 0), {"depth_markers": 1, "resolution": [1]},
     "cameras[0].resolution: expected an array of 2 elements, found list"),
    # the cameras are read before any key is refused as unknown
    ("calibration", (), {"colour": "red", "cameras": 1},
     "cameras: expected an array, found int"),
]


@pytest.mark.parametrize("kind, where, faults, message", TWO_FAULTS)
def test_of_two_faults_the_first_declared_key_is_named(
    aligned_calibration, tmp_path, kind, where, faults, message
):
    if kind == "calibration":
        doc, load = _calibration_json(aligned_calibration), load_calibration
    else:
        doc, load = _picks_json(), load_marker_picks
    node = doc
    for name in where:
        node = node[name]
    node.update(faults)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GridscopeError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"
