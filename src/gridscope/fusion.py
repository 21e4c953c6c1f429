"""3D reconstruction from pairs of adjacent side cameras.

Two side cameras watching perpendicular faces each contribute one world
axis from their model-grid horizontal coordinate; both see height, so the
world z is the mean of the two vertical estimates and their spread is kept
as a per-point quality figure.  Cameras facing each other measure the same
axes and are never paired.

For every synchronized frame bundle the builder picks the eligible
adjacent pair with the highest combined detection confidence, corrects
each side point for depth error when the top camera saw the subject, and
emits at most one track point.  Frames whose height estimates disagree
beyond the configured threshold are rejected and counted rather than
plotted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

from .calibration import (
    AxisMap,
    Calibration,
    CameraProfile,
    SideAxes,
    mg_bounds,
    to_model_grid,
)
from .depth import DepthCorrection, DepthObservation, correct_side_point
from .detections import Detection, FrameBundle, bbox_center
from .errors import FormatError, OutsideCalibratedArea, ZDisagreementExceeded
from .geometry import ModelPoint2D, WorldPoint3D
from .jsonio import read_table, real

DEFAULT_Z_REJECT_MM = 30.0

# The four admissible side-camera pairs, in tie-break order.
ADJACENT_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 0))

# How build_track chooses among a bundle's eligible pairs.
PAIR_STRATEGIES = ("best", "average_all")

TRACK_HEADER = (
    "timestamp_ms",
    "x_mm",
    "y_mm",
    "z_mm",
    "cam_a",
    "cam_b",
    "z_disagreement_mm",
    "depth_corrected",
)


@dataclass(frozen=True)
class TrackPoint:
    """One reconstructed 3D position."""

    timestamp_ms: float
    position: WorldPoint3D
    pair: tuple[str, str]
    z_disagreement_mm: float
    depth_corrected: bool

    def __post_init__(self):
        if self.z_disagreement_mm < 0:
            raise FormatError(
                f"z_disagreement_mm must be >= 0, got {self.z_disagreement_mm}"
            )


@dataclass
class FusionStats:
    """Bundle bookkeeping for one reconstruction run."""

    total: int = 0
    with_side_detection: int = 0
    with_two_side_detections: int = 0
    plotted: int = 0
    rejected_z: int = 0
    missing_top: int = 0
    outside_area: int = 0

    def as_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "FusionStats":
        return cls(**{k: int(doc[k]) for k in cls().as_doc()})


def eligible_pairs(side_indices: Iterable[int]) -> list[tuple[int, int]]:
    """Adjacent (90-degree) pairs available among the present side cameras.

    Directly opposite cameras are excluded by construction; the result
    preserves the canonical pair order (0,1), (1,2), (2,3), (3,0).
    """
    present = set(side_indices)
    return [p for p in ADJACENT_PAIRS if p[0] in present and p[1] in present]


@dataclass(frozen=True)
class SideView:
    """One side camera's usable measurement within a bundle."""

    side_index: int
    profile: CameraProfile
    detection: Detection
    mg: ModelPoint2D


def _vertical_offset_fraction(profile: CameraProfile, mg: ModelPoint2D) -> float:
    min_a, min_b, max_a, max_b = mg_bounds(profile)
    half = (max_b - min_b) / 2.0
    if half <= 0:
        return 0.0
    center = (min_b + max_b) / 2.0
    frac = abs(mg.b - center) / half
    return min(frac, 1.0)


def observation_for_side(
    side: SideAxes,
    top_x_mm: float,
    top_y_mm: float,
    rig_extents: tuple[float, float],
    px_per_mm: float,
) -> DepthObservation:
    """Derive the depth observation for one side camera from the top view.

    The top camera supplies the subject's world (x, y); distances to the
    side's near face and to the centre axis fall out of the axis mapping.
    Values land in model-grid units and are clamped into the admissible
    range so borderline top positions (a subject touching a face) stay
    valid.
    """
    extent_x, extent_y = rig_extents
    depth_extent = extent_x if side.depth.axis == "x" else extent_y
    coord_d = top_x_mm if side.depth.axis == "x" else top_y_mm
    ni_mm = side.depth.sign * (coord_d - side.depth.face_n_mm)
    ni_mm = min(max(ni_mm, 0.0), depth_extent)

    lateral_extent = extent_x if side.horizontal.axis == "x" else extent_y
    coord_l = top_x_mm if side.horizontal.axis == "x" else top_y_mm
    sc_mm = lateral_extent / 2.0
    ic_mm = min(abs(coord_l - sc_mm), sc_mm)

    return DepthObservation(
        ni_top=ni_mm * px_per_mm,
        nf_top=depth_extent * px_per_mm,
        ic_ax=ic_mm * px_per_mm,
        sc_ax=sc_mm * px_per_mm,
    )


def top_world_xy(cal: Calibration, mg: ModelPoint2D) -> tuple[float, float]:
    """The top camera's model-grid point interpreted as world (x, y) mm."""
    top = cal.axis_map.top
    px = cal.rig.px_per_mm
    va = top.a.world_from_model(mg.a, px)
    vb = top.b.world_from_model(mg.b, px)
    if top.a.axis == "x":
        return va, vb
    return vb, va


def reconstruct_point(
    cal: Calibration,
    timestamp_ms: float,
    view_a: SideView,
    view_b: SideView,
    top_xy: tuple[float, float] | None,
    z_reject_mm: float = DEFAULT_Z_REJECT_MM,
    depth_correction: bool = True,
    vertical_correction: bool = True,
) -> TrackPoint:
    """Fuse two adjacent side views into one world point.

    Each view's horizontal coordinate fixes one world axis via the axis
    map; z is the mean of the two vertical estimates.  With a top-view
    position available, both model-grid points are depth-corrected first.

    Raises:
        ZDisagreementExceeded: the two z estimates differ by more than
            ``z_reject_mm``.
    """
    px = cal.rig.px_per_mm
    rig_extents = (cal.rig.grid_a.w_mm, cal.rig.grid_a.d_mm)
    world: dict[str, float] = {}
    z_values: list[float] = []
    corrected_any = False
    for view in (view_a, view_b):
        side = cal.axis_map.sides[view.side_index]
        mg = view.mg
        if depth_correction and top_xy is not None:
            obs = observation_for_side(side, top_xy[0], top_xy[1], rig_extents, px)
            voff = _vertical_offset_fraction(view.profile, mg)
            mg, correction = correct_side_point(
                view.profile, mg, obs, voff, vertical_correction=vertical_correction
            )
            corrected_any = corrected_any or correction.applied
        world[side.horizontal.axis] = side.horizontal.world_from_model(mg.a, px)
        z_values.append(side.vertical.world_from_model(mg.b, px))
    z_disagreement = abs(z_values[0] - z_values[1])
    if z_disagreement > z_reject_mm:
        raise ZDisagreementExceeded(z_disagreement, z_reject_mm)
    position = WorldPoint3D(world["x"], world["y"], (z_values[0] + z_values[1]) / 2.0)
    return TrackPoint(
        timestamp_ms=timestamp_ms,
        position=position,
        pair=(view_a.detection.camera_id, view_b.detection.camera_id),
        z_disagreement_mm=z_disagreement,
        depth_corrected=corrected_any,
    )


def _pair_views(
    cal: Calibration, bundle: FrameBundle, stats: FusionStats
) -> tuple[dict[int, SideView], tuple[float, float] | None, int]:
    """Split a bundle into usable side views and the top position."""
    views: dict[int, SideView] = {}
    raw_side_count = 0
    top_xy: tuple[float, float] | None = None
    for cam in cal.cameras:
        det = bundle.per_camera.get(cam.camera_id)
        if det is None:
            continue
        if cam.role.is_side:
            raw_side_count += 1
            try:
                mg, _ = to_model_grid(cam, bbox_center(det))
            except OutsideCalibratedArea:
                stats.outside_area += 1
                continue
            views[cam.role.index] = SideView(cam.role.index, cam, det, mg)
        else:
            try:
                mg, _ = to_model_grid(cam, bbox_center(det))
            except OutsideCalibratedArea:
                stats.outside_area += 1
                continue
            top_xy = top_world_xy(cal, mg)
    return views, top_xy, raw_side_count


def build_track(
    cal: Calibration,
    bundles: Iterable[FrameBundle],
    z_reject_mm: float = DEFAULT_Z_REJECT_MM,
    depth_correction: bool = True,
    vertical_correction: bool = True,
    pair_strategy: str = "best",
) -> tuple[list[TrackPoint], FusionStats]:
    """Reconstruct a track from synchronized bundles.

    ``pair_strategy`` is "best" (use the eligible pair with the highest
    combined confidence, ties to the lowest pair index) or "average_all"
    (average the positions from every eligible pair that survives the
    z check; the recorded pair and disagreement come from the
    highest-confidence contributor).
    """
    if pair_strategy not in PAIR_STRATEGIES:
        raise FormatError(
            f"pair_strategy must be {'|'.join(PAIR_STRATEGIES)}, "
            f"got {pair_strategy!r}"
        )
    track: list[TrackPoint] = []
    stats = FusionStats()
    for bundle in bundles:
        stats.total += 1
        views, top_xy, raw_side_count = _pair_views(cal, bundle, stats)
        if raw_side_count >= 1:
            stats.with_side_detection += 1
        if raw_side_count >= 2:
            stats.with_two_side_detections += 1
        if top_xy is None:
            stats.missing_top += 1
        pairs = eligible_pairs(views)
        if not pairs:
            continue

        def confidence(pair: tuple[int, int]) -> float:
            return (
                views[pair[0]].detection.confidence
                + views[pair[1]].detection.confidence
            )

        ranked = sorted(
            pairs, key=lambda p: (-confidence(p), ADJACENT_PAIRS.index(p))
        )
        candidates = ranked[:1] if pair_strategy == "best" else ranked
        points: list[TrackPoint] = []
        rejected = 0
        for pair in candidates:
            try:
                points.append(
                    reconstruct_point(
                        cal,
                        bundle.timestamp_ms,
                        views[pair[0]],
                        views[pair[1]],
                        top_xy,
                        z_reject_mm=z_reject_mm,
                        depth_correction=depth_correction,
                        vertical_correction=vertical_correction,
                    )
                )
            except ZDisagreementExceeded:
                rejected += 1
        if not points:
            if rejected:
                stats.rejected_z += 1
            continue
        if len(points) == 1:
            chosen = points[0]
        else:
            n = float(len(points))
            mean = WorldPoint3D(
                sum(p.position.x for p in points) / n,
                sum(p.position.y for p in points) / n,
                sum(p.position.z for p in points) / n,
            )
            first = points[0]
            chosen = TrackPoint(
                timestamp_ms=first.timestamp_ms,
                position=mean,
                pair=first.pair,
                z_disagreement_mm=max(p.z_disagreement_mm for p in points),
                depth_corrected=any(p.depth_corrected for p in points),
            )
        track.append(chosen)
        stats.plotted += 1
    return track, stats


# --- track persistence ------------------------------------------------------


def write_track(path, track: Iterable[TrackPoint]) -> None:
    """Write a track CSV; reals carry six decimal places."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACK_HEADER) + "\n")
        for p in track:
            fh.write(
                f"{p.timestamp_ms:.6f},{p.position.x:.6f},{p.position.y:.6f},"
                f"{p.position.z:.6f},{p.pair[0]},{p.pair[1]},"
                f"{p.z_disagreement_mm:.6f},"
                f"{'true' if p.depth_corrected else 'false'}\n"
            )


def _track_point(row: list[str]) -> TrackPoint:
    t, x, y, z, cam_a, cam_b, dz, flag = row
    if flag not in ("true", "false"):
        raise ValueError(f"depth_corrected must be true/false, got {flag!r}")
    return TrackPoint(
        timestamp_ms=real(t, "timestamp_ms"),
        position=WorldPoint3D(real(x, "x_mm"), real(y, "y_mm"), real(z, "z_mm")),
        pair=(cam_a, cam_b),
        z_disagreement_mm=real(dz, "z_disagreement_mm"),
        depth_corrected=(flag == "true"),
    )


def read_track(path) -> list[TrackPoint]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_table(fh, TRACK_HEADER, _track_point)[0]
