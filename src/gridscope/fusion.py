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

The builder works on numpy columns: each camera's box centres go through
its model-grid map in one call, each side view that a candidate pair uses
is depth-corrected once per bundle, and a (bundles x 4 adjacent pairs)
table of eligibility, confidence sum, world position and z disagreement
picks the result.  Views are kept by side slot, which names one camera.
``reconstruct_point`` runs the same column code on one pair of views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .calibration import (
    Calibration,
    CameraProfile,
    SideAxes,
    mg_bounds,
    model_grid_columns,
    to_model_grid,  # noqa: F401  (perfbench/spans.py wraps this name)
)
from .depth import (
    DepthObservation,
    correct_columns,
    correct_side_point,  # noqa: F401  (perfbench/spans.py wraps this name)
)
from .detections import BundleTable, Detection, DetectionTable, FrameBundle
from .errors import FormatError, ZDisagreementExceeded
from .geometry import ModelPoint2D, WorldPoint3D
from .jsonio import DocReader, csv_field, per_row, read_columns, read_file, real

DEFAULT_Z_REJECT_MM = 30.0

# The four admissible side-camera pairs, in tie-break order.
ADJACENT_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 0))
_FIRST = np.array([i for i, _ in ADJACENT_PAIRS])
_SECOND = np.array([j for _, j in ADJACENT_PAIRS])

# build_track fuses this many bundles at a time, so its arrays stay small
# however long the recording is.
_CHUNK_BUNDLES = 1024

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
        if not self.z_disagreement_mm >= 0:
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
        """Read every counter of a stats document; other keys are ignored."""
        root = DocReader(doc)
        counts = {k: root.key(k).integer() for k in cls().as_doc()}
        for k, n in counts.items():
            if not 0 <= n < 2**63:  # a larger count overflows the plot rates
                raise FormatError(f"{k}: expected a count in [0, 2**63), found {n}")
        return cls(**counts)


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


def _vertical_offset_fraction(profile: CameraProfile, b: np.ndarray) -> np.ndarray:
    """|b - face mid-height| over the face half height, at most 1, per point."""
    min_a, min_b, max_a, max_b = mg_bounds(profile)
    half = (max_b - min_b) / 2.0
    if half <= 0:
        return np.zeros(np.shape(b))
    center = (min_b + max_b) / 2.0
    frac = np.abs(b - center) / half
    return np.where(1.0 < frac, 1.0, frac)


def observation_for_side(
    side: SideAxes,
    top_x_mm,
    top_y_mm,
    rig_extents: tuple[float, float],
    px_per_mm: float,
) -> DepthObservation:
    """Derive the depth observation for one side camera from the top view.

    The top camera supplies the subject's world (x, y), as floats or as
    columns with one entry per subject; distances to the side's near face
    and to the centre axis fall out of the axis mapping.  Values land in
    model-grid units and are clamped into the admissible range so
    borderline top positions (a subject touching a face) stay valid.
    """
    extent_x, extent_y = rig_extents
    depth_extent = extent_x if side.depth.axis == "x" else extent_y
    coord_d = top_x_mm if side.depth.axis == "x" else top_y_mm
    ni_mm = side.depth.sign * (coord_d - side.depth.face_n_mm)
    # min(max(ni_mm, 0.0), depth_extent), with Python's tie and NaN rules
    ni_mm = np.where(0.0 > ni_mm, 0.0, ni_mm)
    ni_mm = np.where(depth_extent < ni_mm, depth_extent, ni_mm)

    lateral_extent = extent_x if side.horizontal.axis == "x" else extent_y
    coord_l = top_x_mm if side.horizontal.axis == "x" else top_y_mm
    sc_mm = lateral_extent / 2.0
    ic_mm = np.abs(coord_l - sc_mm)
    ic_mm = np.where(sc_mm < ic_mm, sc_mm, ic_mm)

    return DepthObservation(
        ni_top=ni_mm * px_per_mm,
        nf_top=depth_extent * px_per_mm,
        ic_ax=ic_mm * px_per_mm,
        sc_ax=sc_mm * px_per_mm,
    )


def top_world_xy(cal: Calibration, mg: ModelPoint2D) -> tuple[float, float]:
    """The top camera's model-grid point interpreted as world (x, y) mm.

    The point's coordinates may also be equal-length columns.
    """
    top = cal.axis_map.top
    px = cal.rig.px_per_mm
    va = top.a.world_from_model(mg.a, px)
    vb = top.b.world_from_model(mg.b, px)
    if top.a.axis == "x":
        return va, vb
    return vb, va


def _side_mm(
    cal: Calibration,
    index: int,
    profile: CameraProfile,
    a: np.ndarray,
    b: np.ndarray,
    top: tuple[np.ndarray, np.ndarray] | None,
    vertical_correction: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """World (horizontal mm, z mm) of side camera ``index``'s model-grid columns.

    ``top`` is None, or the top view's world (x, y) columns for the same
    points; then every point is depth-corrected first.
    """
    side = cal.axis_map.sides[index]
    px = cal.rig.px_per_mm
    if top is not None:
        rig_extents = (cal.rig.grid_a.w_mm, cal.rig.grid_a.d_mm)
        obs = observation_for_side(side, top[0], top[1], rig_extents, px)
        voff = _vertical_offset_fraction(profile, b)
        a, b, _ = correct_columns(
            profile, a, b, obs, voff, vertical_correction=vertical_correction
        )
    return (
        side.horizontal.world_from_model(a, px),
        side.vertical.world_from_model(b, px),
    )


def _fuse_pair(cal: Calibration, i: int, h_i, z_i, j: int, h_j, z_j):
    """World x, y and z and the z disagreement of side views i and j, per row."""
    world = {cal.axis_map.sides[i].horizontal.axis: h_i}
    world[cal.axis_map.sides[j].horizontal.axis] = h_j
    return world["x"], world["y"], (z_i + z_j) / 2.0, np.abs(z_i - z_j)


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
    This is the column code of ``build_track`` run on one row.

    Raises:
        ZDisagreementExceeded: the two z estimates differ by more than
            ``z_reject_mm``.
    """
    top = None
    if depth_correction and top_xy is not None:
        top = tuple(np.array([value], dtype=float) for value in top_xy)
    columns = []
    for view in (view_a, view_b):
        a = np.array([view.mg.a], dtype=float)
        b = np.array([view.mg.b], dtype=float)
        h, z = _side_mm(
            cal, view.side_index, view.profile, a, b, top, vertical_correction
        )
        columns += [view.side_index, h, z]
    x, y, z, dz = (float(c[0]) for c in _fuse_pair(cal, *columns))
    if dz > z_reject_mm:
        raise ZDisagreementExceeded(dz, z_reject_mm)
    return TrackPoint(
        timestamp_ms=timestamp_ms,
        position=WorldPoint3D(x, y, z),
        pair=(view_a.detection.camera_id, view_b.detection.camera_id),
        z_disagreement_mm=dz,
        depth_corrected=top is not None,
    )


@dataclass
class _Views:
    """Every bundle's usable views, one column per bundle.

    Side arrays have one row per side slot: ``present`` says whether the
    slot's camera saw the subject inside its calibrated area, ``a``/``b``
    give its model-grid point and ``conf`` its detection confidence.
    """

    present: np.ndarray
    a: np.ndarray
    b: np.ndarray
    conf: np.ndarray
    has_top: np.ndarray
    top_x: np.ndarray
    top_y: np.ndarray


def _map_views(
    cal: Calibration,
    table: DetectionTable,
    cameras: tuple[str, ...],
    rows: np.ndarray,
    stats: FusionStats,
) -> _Views:
    """Map every camera's box centres into its model grid, one column each.

    ``rows[k, c]`` is the ``table`` row of camera ``cameras[c]`` in bundle
    ``k``, or -1.
    """
    n = len(rows)
    views = _Views(
        present=np.zeros((4, n), dtype=bool),
        a=np.full((4, n), np.nan),
        b=np.full((4, n), np.nan),
        conf=np.zeros((4, n)),
        has_top=np.zeros(n, dtype=bool),
        top_x=np.full(n, np.nan),
        top_y=np.full(n, np.nan),
    )
    side_hits = np.zeros(n, dtype=int)
    for cam in cal.cameras:
        if cam.camera_id not in cameras:
            continue
        found = rows[:, cameras.index(cam.camera_id)]
        seen = np.flatnonzero(found >= 0)
        if not seen.size:
            continue
        at = found[seen]
        # the centre as bbox_center computes it
        u = (table.u_min[at] + table.u_max[at]) / 2.0
        v = (table.v_min[at] + table.v_max[at]) / 2.0
        a, b, inside = model_grid_columns(cam, u, v)
        stats.outside_area += int(np.count_nonzero(~inside))
        hit = seen[inside]
        if cam.role.is_side:
            side_hits[seen] += 1
            s = cam.role.index
            views.present[s, hit] = True
            views.a[s, hit] = a[inside]
            views.b[s, hit] = b[inside]
            views.conf[s, hit] = table.confidence[at[inside]]
        else:
            x, y = top_world_xy(cal, ModelPoint2D(a[inside], b[inside]))
            views.has_top[hit] = True
            views.top_x[hit] = x
            views.top_y[hit] = y
    stats.with_side_detection += int(np.count_nonzero(side_hits >= 1))
    stats.with_two_side_detections += int(np.count_nonzero(side_hits >= 2))
    stats.missing_top += n - int(np.count_nonzero(views.has_top))
    return views


def _rank_pairs(views: _Views, pair_strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """Per bundle, the adjacent pairs in rank order and which ranks to fuse.

    Eligible pairs rank by descending confidence sum; the stable sort keeps
    the lowest pair index first on a tie.  "best" fuses rank 0 only,
    "average_all" every eligible pair.
    """
    eligible = (views.present[_FIRST] & views.present[_SECOND]).T
    confidence = (views.conf[_FIRST] + views.conf[_SECOND]).T
    key = np.where(eligible, -confidence, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    fused = np.count_nonzero(eligible, axis=1)
    if pair_strategy == "best":
        fused = np.minimum(fused, 1)
    return order, np.arange(len(ADJACENT_PAIRS)) < fused[:, None]


def _pair_table(
    cal: Calibration,
    views: _Views,
    order: np.ndarray,
    fused: np.ndarray,
    depth_correction: bool,
    vertical_correction: bool,
) -> np.ndarray:
    """The (x, y, z, z disagreement) x bundles x adjacent pairs table.

    Only side views that a fused pair uses are turned into world mm, each
    once per bundle (depth-corrected first where the top view saw the
    subject); every other entry is NaN.
    """
    rows, ranks = np.nonzero(fused)
    pairs = order[rows, ranks]
    used = np.zeros(views.present.shape, dtype=bool)
    used[_FIRST[pairs], rows] = True
    used[_SECOND[pairs], rows] = True
    corrected = views.has_top & depth_correction
    h = np.full(views.a.shape, np.nan)
    z = np.full(views.a.shape, np.nan)
    for cam in cal.cameras:
        if not cam.role.is_side:
            continue
        s = cam.role.index
        for with_top in (True, False):
            at = np.flatnonzero(used[s] & (corrected == with_top))
            top = (views.top_x[at], views.top_y[at]) if with_top else None
            h[s, at], z[s, at] = _side_mm(
                cal, s, cam, views.a[s, at], views.b[s, at], top, vertical_correction
            )
    table = np.empty((4, *h.shape[1:], len(ADJACENT_PAIRS)))
    for p, (i, j) in enumerate(ADJACENT_PAIRS):
        table[:, :, p] = _fuse_pair(cal, i, h[i], z[i], j, h[j], z[j])
    return table


def _combine(
    table: np.ndarray, order: np.ndarray, fused: np.ndarray, z_reject_mm: float
):
    """Fold each bundle's fused pairs in rank order, as the average is defined.

    A pair contributes unless its z disagreement exceeds ``z_reject_mm``.
    The first contributor names the pair; a lone contributor is taken as
    is; several are averaged with sums that start from 0, as ``sum()``
    does; the disagreement is the largest, the first one on a tie, as
    ``max()`` keeps it.

    Returns:
        The plotted bundle rows, each one's leading pair, its (x, y, z)
        and its z disagreement.
    """
    n = order.shape[0]
    row = np.arange(n)
    count = np.zeros(n, dtype=int)
    lead = np.zeros(n, dtype=int)
    total = np.zeros((3, n))
    dz = np.zeros(n)
    for rank in range(len(ADJACENT_PAIRS)):
        pair = order[:, rank]
        point = table[:, row, pair]
        ok = fused[:, rank] & ~(point[3] > z_reject_mm)
        first = ok & (count == 0)
        np.copyto(lead, pair, where=first)
        np.copyto(dz, point[3], where=first | (ok & (point[3] > dz)))
        np.add(total, point[:3], out=total, where=ok)
        count += ok
    plotted = np.flatnonzero(count)
    lead = lead[plotted]
    alone = table[:3, plotted, lead]
    mean = total[:, plotted] / count[plotted]
    xyz = np.where(count[plotted] == 1, alone, mean)
    return plotted, lead, xyz, dz[plotted]


def _fuse(
    cal: Calibration,
    bundles: BundleTable,
    rows: np.ndarray,
    stats: FusionStats,
    z_reject_mm: float,
    depth_correction: bool,
    vertical_correction: bool,
    pair_strategy: str,
):
    """build_track's columns for the bundles ``rows`` of ``bundles.rows``.

    Every intermediate array is dropped on return.

    Returns:
        The plotted bundle rows, their (x, y, z) and z disagreement, each
        point's leading pair index and its depth-corrected flag.
    """
    with np.errstate(all="ignore"):
        views = _map_views(cal, bundles.table, bundles.cameras, rows, stats)
        order, fused = _rank_pairs(views, pair_strategy)
        table = _pair_table(
            cal, views, order, fused, depth_correction, vertical_correction
        )
        plotted, lead, xyz, dz = _combine(table, order, fused, z_reject_mm)
    stats.plotted += len(plotted)
    stats.rejected_z += int(np.count_nonzero(fused[:, 0])) - len(plotted)
    return plotted, xyz, dz, lead, views.has_top[plotted] & depth_correction


def build_track(
    cal: Calibration,
    bundles: BundleTable | Iterable[FrameBundle],
    z_reject_mm: float = DEFAULT_Z_REJECT_MM,
    depth_correction: bool = True,
    vertical_correction: bool = True,
    pair_strategy: str = "best",
) -> tuple[list[TrackPoint], FusionStats]:
    """Reconstruct a track from synchronized bundles.

    ``bundles`` is a BundleTable, or FrameBundle objects, which are put in
    one first.  ``pair_strategy`` is "best" (use the eligible pair with the
    highest combined confidence, ties to the lowest pair index) or
    "average_all" (average the positions from every eligible pair that
    survives the z check; the recorded pair and disagreement come from the
    highest-confidence contributor).
    """
    if pair_strategy not in PAIR_STRATEGIES:
        raise FormatError(
            f"pair_strategy must be {'|'.join(PAIR_STRATEGIES)}, "
            f"got {pair_strategy!r}"
        )
    if not isinstance(bundles, BundleTable):
        bundles = BundleTable.from_frame_bundles(list(bundles))
    stats = FusionStats(total=len(bundles))
    names = [getattr(cal.side_camera(i), "camera_id", None) for i in range(4)]
    pair_names = [(names[i], names[j]) for i, j in ADJACENT_PAIRS]
    track: list[TrackPoint] = []
    for start in range(0, len(bundles), _CHUNK_BUNDLES):
        stop = start + _CHUNK_BUNDLES
        plotted, xyz, dz, lead, corrected = _fuse(
            cal,
            bundles,
            bundles.rows[start:stop],
            stats,
            z_reject_mm,
            depth_correction,
            vertical_correction,
            pair_strategy,
        )
        times = bundles.timestamp_ms[start:stop][plotted]
        track.extend(
            TrackPoint(
                timestamp_ms=t,
                position=WorldPoint3D(x, y, z),
                pair=pair_names[p],
                z_disagreement_mm=d,
                depth_corrected=flag,
            )
            for t, x, y, z, d, p, flag in zip(
                times.tolist(),
                *xyz.tolist(),
                dz.tolist(),
                lead.tolist(),
                corrected.tolist(),
            )
        )
    return track, stats


# --- track persistence ------------------------------------------------------


def write_track(path, track: Iterable[TrackPoint]) -> None:
    """Write a track CSV; reals carry six decimal places."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACK_HEADER) + "\n")
        for p in track:
            fh.write(
                f"{p.timestamp_ms:.6f},{p.position.x:.6f},{p.position.y:.6f},"
                f"{p.position.z:.6f},{csv_field(p.pair[0])},{csv_field(p.pair[1])},"
                f"{p.z_disagreement_mm:.6f},"
                f"{'true' if p.depth_corrected else 'false'}\n"
            )


def _track_point(
    t: str, x: str, y: str, z: str, cam_a: str, cam_b: str, dz: str, flag: str
) -> TrackPoint:
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
    return read_file(path, read_columns, TRACK_HEADER, per_row(_track_point))[0]
