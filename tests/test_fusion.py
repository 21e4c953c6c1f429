from dataclasses import replace
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope.calibration import (
    AxisComponent,
    CameraProfile,
    CameraRole,
    Calibration,
    RigGeometry,
    TopAxes,
    build_calibration,
    build_sub_area,
    default_axis_map,
)
from gridscope.detections import Detection, FrameBundle
from gridscope.errors import CsvError, FormatError, ZDisagreementExceeded
from gridscope import fusion
from gridscope.fusion import (
    PAIR_STRATEGIES,
    FusionStats,
    SideView,
    TrackPoint,
    TrackTable,
    build_track,
    observation_for_side,
    read_track,
    reconstruct_point,
    top_world_xy,
    write_track,
)
from gridscope.geometry import (
    GridBox,
    ModelPoint2D,
    PixelPoint,
    Quad,
    WorldPoint3D,
    point_in_quad,
)
from gridscope.simulate import marker_picks_for

from conftest import make_scenario
from oracles import bundle_table, has_adjacent_pair, naive_build_track

GRID = GridBox(WorldPoint3D(0, 0, 0), 390.0, 390.0, 850.0)


def make_cal(mde_h=0.0, mde_v=0.0) -> Calibration:
    """Identity calibration: each model grid equals its face in pixels."""
    face = Quad.from_coords([(0, 0), (390, 0), (390, 850), (0, 850)])
    top_face = Quad.from_coords([(0, 0), (390, 0), (390, 390), (0, 390)])
    cams = []
    for i in range(4):
        sub = build_sub_area(0, face, (390, 850), (0.0, 0.0))
        cams.append(
            CameraProfile(
                f"side{i}", CameraRole.side(i), (390, 850), (sub,),
                mde_h=mde_h, mde_v=mde_v,
            )
        )
    top_sub = build_sub_area(0, top_face, (390, 390), (0.0, 0.0))
    cams.append(CameraProfile("top", CameraRole.top(), (390, 390), (top_sub,)))
    return Calibration(RigGeometry(GRID), tuple(cams), default_axis_map(GRID))


def side_pixel(index: int, x: float, y: float, z: float) -> tuple[float, float]:
    u = {0: x, 1: y, 2: 390.0 - x, 3: 390.0 - y}[index]
    return u, 850.0 - z


def side_det(index: int, world: WorldPoint3D, conf=1.0, ts=0.0) -> Detection:
    u, v = side_pixel(index, world.x, world.y, world.z)
    return Detection(f"side{index}", "0", ts, u - 5, v - 5, u + 5, v + 5, conf)


def top_det(world: WorldPoint3D, conf=1.0, ts=0.0) -> Detection:
    u, v = world.x, 390.0 - world.y
    return Detection("top", "0", ts, u - 5, v - 5, u + 5, v + 5, conf)


def bundle(ts: float, dets: list[Detection]) -> FrameBundle:
    return FrameBundle(ts, {d.camera_id: d for d in dets})


def position(p: TrackPoint) -> WorldPoint3D:
    return WorldPoint3D(p.x, p.y, p.z)


def pair(p: TrackPoint) -> tuple[str, str]:
    return p.cam_a, p.cam_b


def view(cal: Calibration, index: int, world: WorldPoint3D, conf=1.0) -> SideView:
    profile = cal.side_camera(index)
    det = side_det(index, world, conf=conf)
    u, v = side_pixel(index, world.x, world.y, world.z)
    return SideView(index, profile, det, ModelPoint2D(u, v))


class TestEligiblePairs:
    """Which side cameras build_track pairs, by which sides saw the subject."""

    def plotted_pair(self, sides):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        dets = [side_det(i, world, conf=0.5) for i in sides] + [top_det(world)]
        track, _ = build_track(cal, bundle_table([bundle(0.0, dets)]))
        return pair(list(track)[0]) if len(track) else None

    def test_matches_enumeration(self):
        for size in range(5):
            for subset in combinations(range(4), size):
                assert (self.plotted_pair(subset) is not None) == has_adjacent_pair(
                    subset
                )

    def test_opposite_only_is_empty(self):
        assert self.plotted_pair((0, 2)) is None
        assert self.plotted_pair((1, 3)) is None

    def test_canonical_order(self):
        # equal confidences: the first adjacent pair present wins
        assert self.plotted_pair((0, 1, 2, 3)) == ("side0", "side1")
        assert self.plotted_pair((3, 0)) == ("side3", "side0")
        assert self.plotted_pair((2, 3, 0)) == ("side2", "side3")


class TestObservationForSide:
    def test_side0_distances(self):
        cal = make_cal()
        obs = observation_for_side(
            cal.axis_map.sides[0], 100.0, 150.0, (390.0, 390.0), 1.0
        )
        assert obs.ni_top == 150.0
        assert obs.nf_top == 390.0
        assert obs.ic_ax == 95.0
        assert obs.sc_ax == 195.0

    def test_side1_reversed_depth(self):
        cal = make_cal()
        obs = observation_for_side(
            cal.axis_map.sides[1], 100.0, 150.0, (390.0, 390.0), 1.0
        )
        assert obs.ni_top == 290.0
        assert obs.ic_ax == 45.0

    def test_out_of_grid_position_clamped(self):
        cal = make_cal()
        obs = observation_for_side(
            cal.axis_map.sides[0], -20.0, 400.0, (390.0, 390.0), 1.0
        )
        assert obs.ni_top == 390.0  # past the far face
        assert obs.ic_ax == 195.0  # clamped to the half width

    def test_px_per_mm_scales_all_distances(self):
        cal = make_cal()
        obs = observation_for_side(
            cal.axis_map.sides[0], 100.0, 150.0, (390.0, 390.0), 2.0
        )
        assert (obs.ni_top, obs.nf_top) == (300.0, 780.0)


class TestTopWorldXy:
    def test_default_mapping(self):
        cal = make_cal()
        assert top_world_xy(cal, ModelPoint2D(100.0, 90.0)) == (100.0, 300.0)

    def test_swapped_top_axes(self):
        cal = make_cal()
        swapped = replace(
            cal.axis_map,
            top=TopAxes(AxisComponent("y", 0.0, 1), AxisComponent("x", 0.0, 1)),
        )
        cal2 = replace(cal, axis_map=swapped)
        assert top_world_xy(cal2, ModelPoint2D(120.0, 30.0)) == (30.0, 120.0)


class TestReconstructPoint:
    def test_aligned_exact(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        p = reconstruct_point(
            cal, 40.0, view(cal, 0, world), view(cal, 1, world), (100.0, 150.0)
        )
        assert position(p) == world
        assert p.z_disagreement_mm == 0.0
        assert pair(p) == ("side0", "side1")
        assert p.depth_corrected

    def test_depth_correction_hand_values(self):
        cal = make_cal(mde_h=120.0, mde_v=260.0)
        world = WorldPoint3D(97.5, 195.0, 637.5)
        p = reconstruct_point(
            cal,
            0.0,
            view(cal, 0, world),
            view(cal, 1, world),
            (97.5, 195.0),
            z_reject_mm=1000.0,
        )
        # side0: DEF_H 60, ADJ_H 30 outward (left of centre); DEF_V 130,
        # offset fraction 0.5, so z goes 637.5 -> 702.5.  side1 sits on its
        # centre axis (ADJ_H 0) at depth 292.5 (DEF_V 195, z -> 735).
        assert p.x == 67.5
        assert p.y == 195.0
        assert p.z == 718.75
        assert p.z_disagreement_mm == 32.5
        assert p.depth_corrected

    def test_without_top_view_no_correction(self):
        cal = make_cal(mde_h=120.0, mde_v=260.0)
        world = WorldPoint3D(97.5, 195.0, 637.5)
        p = reconstruct_point(cal, 0.0, view(cal, 0, world), view(cal, 1, world), None)
        assert position(p) == world
        assert not p.depth_corrected

    def test_depth_correction_disabled(self):
        cal = make_cal(mde_h=120.0, mde_v=260.0)
        world = WorldPoint3D(97.5, 195.0, 637.5)
        p = reconstruct_point(
            cal, 0.0, view(cal, 0, world), view(cal, 1, world), (97.5, 195.0),
            depth_correction=False,
        )
        assert position(p) == world
        assert not p.depth_corrected

    def test_vertical_correction_disabled(self):
        cal = make_cal(mde_h=120.0, mde_v=260.0)
        world = WorldPoint3D(97.5, 195.0, 637.5)
        p = reconstruct_point(
            cal, 0.0, view(cal, 0, world), view(cal, 1, world), (97.5, 195.0),
            vertical_correction=False,
        )
        assert p.x == 67.5
        assert p.z == 637.5
        assert p.z_disagreement_mm == 0.0

    def test_z_reject_strictly_greater(self):
        cal = make_cal()
        a = view(cal, 0, WorldPoint3D(100.0, 150.0, 300.0))
        b = view(cal, 1, WorldPoint3D(100.0, 150.0, 330.0))
        p = reconstruct_point(cal, 0.0, a, b, None, z_reject_mm=30.0)
        assert p.z == 315.0
        assert p.z_disagreement_mm == 30.0
        with pytest.raises(ZDisagreementExceeded) as err:
            reconstruct_point(cal, 0.0, a, b, None, z_reject_mm=29.9)
        assert err.value.disagreement_mm == 30.0

    def test_pair_records_camera_ids(self):
        cal = make_cal()
        world = WorldPoint3D(50.0, 50.0, 100.0)
        p = reconstruct_point(cal, 0.0, view(cal, 2, world), view(cal, 3, world), None)
        assert pair(p) == ("side2", "side3")
        assert position(p) == world


class TestBuildTrack:
    def test_full_bundle_plots(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        dets = [side_det(i, world) for i in range(4)] + [top_det(world)]
        track, stats = build_track(cal, bundle_table([bundle(0.0, dets)]))
        assert len(track) == 1
        assert position(list(track)[0]) == world
        assert stats.plotted == 1
        assert stats.with_two_side_detections == 1

    def test_single_side_cannot_plot(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        bundles = bundle_table([bundle(0.0, [side_det(0, world)])])
        track, stats = build_track(cal, bundles)
        assert len(track) == 0
        assert stats.total == 1
        assert stats.with_side_detection == 1
        assert stats.with_two_side_detections == 0
        assert stats.missing_top == 1

    def test_opposite_sides_cannot_plot(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        dets = [side_det(0, world), side_det(2, world), top_det(world)]
        track, stats = build_track(cal, bundle_table([bundle(0.0, dets)]))
        assert len(track) == 0
        assert stats.with_two_side_detections == 1

    def test_best_pair_by_confidence(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        dets = [
            side_det(0, world, conf=0.9),
            side_det(1, world, conf=0.5),
            side_det(2, world, conf=0.8),
        ]
        track, _ = build_track(cal, bundle_table([bundle(0.0, dets)]))
        assert pair(list(track)[0]) == ("side0", "side1")

    def test_confidence_tie_takes_lowest_pair_index(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        dets = [side_det(i, world, conf=0.7) for i in (1, 2, 3)]
        track, _ = build_track(cal, bundle_table([bundle(0.0, dets)]))
        assert pair(list(track)[0]) == ("side1", "side2")

    def test_average_all_strategy(self):
        cal = make_cal()
        dets = [
            side_det(0, WorldPoint3D(100.0, 150.0, 300.0)),
            side_det(1, WorldPoint3D(104.0, 150.0, 298.0)),
            side_det(2, WorldPoint3D(104.0, 150.0, 296.0)),
        ]
        track, stats = build_track(
            cal, bundle_table([bundle(0.0, dets)]), pair_strategy="average_all"
        )
        # Pair (0,1): (100, 150, 299); pair (1,2): (104, 150, 297).
        assert position(list(track)[0]) == WorldPoint3D(102.0, 150.0, 298.0)
        assert pair(list(track)[0]) == ("side0", "side1")
        assert list(track)[0].z_disagreement_mm == 2.0
        assert stats.plotted == 1

    def test_rejected_z_counted_once_per_bundle(self):
        cal = make_cal()
        dets = [
            side_det(0, WorldPoint3D(100.0, 150.0, 300.0)),
            side_det(1, WorldPoint3D(100.0, 150.0, 400.0)),
        ]
        track, stats = build_track(
            cal, bundle_table([bundle(0.0, dets)]), z_reject_mm=30.0
        )
        assert len(track) == 0
        assert stats.rejected_z == 1

    def test_average_all_drops_rejected_pairs(self):
        cal = make_cal()
        dets = [
            side_det(0, WorldPoint3D(100.0, 150.0, 300.0)),
            side_det(1, WorldPoint3D(100.0, 150.0, 302.0)),
            side_det(2, WorldPoint3D(100.0, 150.0, 400.0)),
        ]
        track, stats = build_track(
            cal,
            bundle_table([bundle(0.0, dets)]),
            z_reject_mm=30.0,
            pair_strategy="average_all",
        )
        # (0,1) survives, (1,2) disagrees by 98 and is dropped.
        assert len(track) == 1
        assert list(track)[0].z == 301.0
        assert stats.rejected_z == 0

    def test_outside_area_detection_counted_and_unused(self):
        cal = make_cal()
        world = WorldPoint3D(100.0, 150.0, 300.0)
        stray = Detection("side1", "0", 0.0, 1000.0, 1000.0, 1010.0, 1010.0, 1.0)
        bundles = bundle_table([bundle(0.0, [side_det(0, world), stray])])
        track, stats = build_track(cal, bundles)
        assert len(track) == 0
        assert stats.outside_area == 1
        assert stats.with_two_side_detections == 1  # raw detections counted

    def test_unknown_strategy(self):
        with pytest.raises(FormatError):
            build_track(make_cal(), bundle_table([]), pair_strategy="first")

    def test_stats_doc_round_trip(self):
        stats = FusionStats(10, 9, 7, 6, 1, 2, 3)
        assert FusionStats.from_doc(stats.as_doc()) == stats


class TestTrackPoint:
    @pytest.mark.parametrize("dz", [-0.5, float("nan")])
    def test_z_disagreement_must_be_a_non_negative_number(self, dz):
        # a NaN would be written as "nan", which read_track then refuses
        with pytest.raises(FormatError, match="z_disagreement_mm"):
            TrackPoint(0.0, 1.0, 2.0, 3.0, "side0", "side1", dz, True)


class TestTrackFiles:
    def sample(self):
        return [
            TrackPoint(0.0, 1.25, 2.5, 3.75, "side0", "side1", 0.5, True),
            TrackPoint(50.0, 4.0, 5.0, 6.0, "side2", "side3", 0.0, False),
        ]

    def test_round_trip_to_six_decimals(self, tmp_path):
        path = tmp_path / "track.csv"
        write_track(path, TrackTable.of(self.sample()))
        back = read_track(path)
        assert list(back) == self.sample()

    def test_file_level_fixed_point(self, tmp_path):
        path1 = tmp_path / "a.csv"
        path2 = tmp_path / "b.csv"
        write_track(path1, TrackTable.of(self.sample()))
        write_track(path2, read_track(path1))
        assert path1.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "column, name",
        [("x", "x_mm"), ("timestamp_ms", "timestamp_ms"),
         ("z_disagreement_mm", "z_disagreement_mm")],
    )
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_real_is_refused_before_the_file_opens(
        self, tmp_path, column, name, value
    ):
        # read_track refuses it, so a track holding one is not written
        table = TrackTable.of(self.sample())
        values = getattr(table, column).copy()
        values[1] = value
        path = tmp_path / "track.csv"
        with pytest.raises(FormatError) as err:
            write_track(path, replace(table, **{column: values}))
        assert str(err.value) == (
            f"{path}: row 3, column {name}: cannot write non-finite real {value!r}"
        )
        assert not path.exists()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x\n")
        with pytest.raises(CsvError) as err:
            read_track(path)
        assert err.value.row == 1

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_track(path, TrackTable.of(self.sample()))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("true", "yes")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvError) as err:
            read_track(path)
        assert err.value.row == 2

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_track(path, TrackTable.of(self.sample()))
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(CsvError):
            read_track(path)


# --- the columnar builder against the per-pair loop -------------------------


def strip_profile(camera_id, role, width, height, cuts, mde_h=0.0, mde_v=0.0):
    """A face cut into vertical pixel strips at ``cuts``.

    Strip k sits 10*k model units right of its pixels and is stretched by
    1 + k/10, so a pixel on a shared edge maps to a different model point
    through each of its two strips.
    """
    edges = [0.0, *cuts, float(width)]
    subs = tuple(
        build_sub_area(
            k,
            Quad.from_coords([(lo, 0), (hi, 0), (hi, height), (lo, height)]),
            (hi - lo, height),
            (lo + 10.0 * k, 0.0),
            required_dims=((hi - lo) * (1.0 + k / 10.0), height),
        )
        for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
    )
    return CameraProfile(camera_id, role, (width, height), subs, mde_h, mde_v)


def strip_cal(px_per_mm=1.0) -> Calibration:
    """Every side face in three strips and the top in two; side MDE set."""
    cams = [
        strip_profile(
            f"side{i}", CameraRole.side(i), 390, 850, (130.0, 260.0), 60.0, 130.0
        )
        for i in range(4)
    ]
    cams.append(strip_profile("top", CameraRole.top(), 390, 390, (195.0,)))
    return Calibration(
        RigGeometry(GRID, px_per_mm=px_per_mm), tuple(cams), default_axis_map(GRID)
    )


def _without_top(cal: Calibration) -> Calibration:
    return replace(cal, cameras=tuple(c for c in cal.cameras if c.role.is_side))


CALIBRATIONS = {
    "identity": make_cal(mde_h=120.0, mde_v=260.0),
    "strips": strip_cal(),
    "strips_2px": strip_cal(px_per_mm=2.0),
    "strips_no_top": _without_top(strip_cal()),
    "pinhole": build_calibration(
        marker_picks_for(make_scenario("pinhole", n_frames=1))
    ),
}


def _pixel_range(cam: CameraProfile):
    """The box around every sub-area's corners, widened by 5% each way."""
    us = [c.u for sub in cam.sub_areas for c in sub.src.corners]
    vs = [c.v for sub in cam.sub_areas for c in sub.src.corners]
    du, dv = (max(us) - min(us)) / 20.0, (max(vs) - min(vs)) / 20.0
    return min(us) - du, max(us) + du, min(vs) - dv, max(vs) + dv


def _box(cam_id: str, u: float, v: float, conf: float, ts: float) -> Detection:
    # half-sizes of 2 keep integer centres exact
    return Detection(cam_id, "0", ts, u - 2.0, v - 2.0, u + 2.0, v + 2.0, conf)


@st.composite
def fusion_cases(draw):
    name = draw(st.sampled_from(sorted(CALIBRATIONS)))
    cal = CALIBRATIONS[name]
    bundles = []
    for frame in range(draw(st.integers(0, 12))):
        dets = []
        for cam in cal.cameras:
            if not draw(st.booleans()):
                continue
            u0, u1, v0, v1 = _pixel_range(cam)
            if draw(st.booleans()):  # whole pixels land on shared strip edges
                u = float(draw(st.integers(int(u0), int(u1))))
                v = float(draw(st.integers(int(v0), int(v1))))
            else:
                u = draw(st.floats(u0, u1))
                v = draw(st.floats(v0, v1))
            conf = draw(st.sampled_from((0.25, 0.5, 0.75, 1.0)))
            dets.append(_box(cam.camera_id, u, v, conf, 50.0 * frame))
        bundles.append(FrameBundle(50.0 * frame, {d.camera_id: d for d in dets}))
    options = {
        "pair_strategy": draw(st.sampled_from(PAIR_STRATEGIES)),
        "depth_correction": draw(st.booleans()),
        "vertical_correction": draw(st.booleans()),
        "z_reject_mm": draw(st.sampled_from((0.0, 30.0, 1e9))),
    }
    return cal, bundles, options


def _case(name, boxes, **options):
    """One bundle of (camera id, u, v, confidence) boxes on a named rig."""
    dets = [_box(cam, u, v, conf, 0.0) for cam, u, v, conf in boxes]
    options = {"pair_strategy": "best", "z_reject_mm": 1e9, **options}
    return CALIBRATIONS[name], [FrameBundle(0.0, {d.camera_id: d for d in dets})], options


# side0's pixel lies on the edge its strips 0 and 1 share (model a = 130 or 140)
SHARED_EDGE = _case(
    "strips",
    [
        ("side0", 130.0, 400.0, 1.0),
        ("side1", 200.0, 300.0, 1.0),
        ("top", 195.0, 100.0, 1.0),
    ],
)
# pairs (0, 1) and (1, 2) both sum to 1.25: the lower pair index must win
TIED_PAIRS = _case(
    "strips",
    [
        ("side0", 100.0, 400.0, 0.5),
        ("side1", 200.0, 300.0, 0.75),
        ("side2", 300.0, 500.0, 0.5),
        ("top", 120.0, 220.0, 1.0),
    ],
)


@settings(max_examples=150, deadline=None)
# 4096 is build_track's block; a block of 10**6 is larger than any input
@given(case=fusion_cases(), chunk=st.sampled_from((1, 5, 1024, 4096, 10**6)))
@example(case=SHARED_EDGE, chunk=1024)
@example(case=TIED_PAIRS, chunk=1024)
@example(
    case=(*TIED_PAIRS[:2], {**TIED_PAIRS[2], "pair_strategy": "average_all"}),
    chunk=1024,
)
def test_build_track_equals_per_pair_oracle(case, chunk):
    cal, bundles, options = case
    with mock.patch.object(fusion, "_CHUNK_BUNDLES", chunk):
        track, stats = build_track(cal, bundle_table(bundles), **options)
    want_track, want_stats = naive_build_track(cal, bundles, **options)
    # repr tells -0.0 from 0.0, as the written track does
    assert repr(list(track)) == repr(want_track)
    assert stats == want_stats
    # the counts obey every bound a stats document is checked against
    assert FusionStats.from_doc(stats.as_doc()) == stats


def test_shared_edge_example_takes_the_lowest_strip():
    cal, bundles, options = SHARED_EDGE
    side0 = cal.side_camera(0)
    pixel = PixelPoint(130.0, 400.0)
    inside = [point_in_quad(pixel, sub.src) for sub in side0.sub_areas]
    assert inside == [True, True, False]
    (point,), _ = build_track(
        cal, bundle_table(bundles), **options, depth_correction=False
    )
    assert point.x == 130.0  # strip 1 would give 140
