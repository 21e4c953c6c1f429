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

``build_track`` takes the ``BundleTable`` that ``synchronize_table``
returns.  The track is a ``TrackTable`` of columns, in the track file's
order with the camera pair as two str columns, from ``build_track``
through ``write_track`` and back from ``read_track``.  There one
``np.loadtxt`` pass reads a plain file whose rows all pass the column
masks of ``TRACK_FORMAT``; any other file is read one row at a time into
``TrackPoint`` objects (``_track_point``), so each error names its row,
column and reason.  ``TrackPoint`` is the API edge: a table iterates as
points, and ``TrackTable.from_points`` puts points into the table every
consumer takes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Iterable, Iterator

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
from .detections import BundleTable, Detection, DetectionTable
from .errors import FormatError, ZDisagreementExceeded
from .geometry import ModelPoint2D, WorldPoint3D
from .jsonio import (
    Columns,
    DocReader,
    FieldError,
    TableFormat,
    csv_field,
    naming,
    real,
)
from .options import DEFAULT_Z_REJECT_MM, PAIR_STRATEGIES

# The four admissible side-camera pairs, in tie-break order.
ADJACENT_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 0))
_FIRST = np.array([i for i, _ in ADJACENT_PAIRS])
_SECOND = np.array([j for _, j in ADJACENT_PAIRS])

# build_track fuses this many bundles at a time, so its arrays stay within
# a fixed bound (about 1.9 MiB for a block of 4096, by tracemalloc) however
# long the recording is.  Each block also pays a fixed cost of about 0.8 ms,
# whatever its size; at 1024 bundles that cost was near the per-bundle work.
_CHUNK_BUNDLES = 4096

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
            raise FieldError(
                "z_disagreement_mm",
                f"z_disagreement_mm must be >= 0, got {self.z_disagreement_mm}",
            )


@dataclass(frozen=True, eq=False)
class TrackTable(Columns):
    """The track as columns, one entry per point in track order.

    Every row holds what a ``TrackPoint`` would, in the track file's column
    order: float64 columns for the time, position and z disagreement, the
    camera pair as two str columns and a bool column for the depth
    correction.  A table iterates as TrackPoint objects.
    """

    timestamp_ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    cam_a: list[str]
    cam_b: list[str]
    z_disagreement_mm: np.ndarray
    depth_corrected: np.ndarray = field(metadata={"dtype": bool})

    def __iter__(self) -> Iterator[TrackPoint]:
        return iter(self.rows(_point))

    @classmethod
    def from_points(cls, points: Iterable[TrackPoint]) -> "TrackTable":
        return cls.of(
            SimpleNamespace(
                timestamp_ms=p.timestamp_ms,
                x=p.position.x,
                y=p.position.y,
                z=p.position.z,
                cam_a=p.pair[0],
                cam_b=p.pair[1],
                z_disagreement_mm=p.z_disagreement_mm,
                depth_corrected=p.depth_corrected,
            )
            for p in points
        )


def _point(t, x, y, z, cam_a, cam_b, dz, flag) -> TrackPoint:
    return TrackPoint(t, WorldPoint3D(x, y, z), (cam_a, cam_b), dz, flag)


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
        """Read every counter of a stats document and check that they agree
        (``_COUNT_BOUNDS``); other keys are ignored."""
        root = DocReader(doc)
        counts = {k: root.key(k).integer() for k in cls().as_doc()}
        for k, n in counts.items():
            if not 0 <= n < 2**63:  # a larger count overflows the plot rates
                raise FormatError(f"{k}: expected a count in [0, 2**63), found {n}")
        for parts, whole in _COUNT_BOUNDS:
            if sum(counts[k] for k in parts) > counts[whole]:
                named = " + ".join(f"{k} ({counts[k]})" for k in parts)
                raise FormatError(f"{named} exceeds {whole} ({counts[whole]})")
        return cls(**counts)


# Each as (counts, the count their sum is at most); every run's stats obey
# them.  A plotted or z-rejected bundle has an adjacent pair of in-area side
# views, so it has two side detections, and so at least one.
_COUNT_BOUNDS = (
    (("plotted", "rejected_z"), "with_two_side_detections"),
    (("with_two_side_detections",), "with_side_detection"),
    (("with_side_detection",), "total"),
    (("missing_top",), "total"),
)


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
    ni_mm = side.depth.sign * (coord_d - side.depth.origin_mm)
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
        a, b = correct_columns(
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
        # each box's centre
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
    bundles: BundleTable,
    z_reject_mm: float = DEFAULT_Z_REJECT_MM,
    depth_correction: bool = True,
    vertical_correction: bool = True,
    pair_strategy: str = "best",
) -> tuple[TrackTable, FusionStats]:
    """Reconstruct a track from synchronized bundles.

    ``pair_strategy`` is "best" (use the eligible pair with the highest
    combined confidence, ties to the lowest pair index) or "average_all"
    (average the positions from every eligible pair that survives the z
    check; the recorded pair and disagreement come from the
    highest-confidence contributor).
    """
    if pair_strategy not in PAIR_STRATEGIES:
        raise FormatError(
            f"pair_strategy must be {'|'.join(PAIR_STRATEGIES)}, "
            f"got {pair_strategy!r}"
        )
    stats = FusionStats(total=len(bundles))
    # a slot without a camera is never in a plotted pair
    names = [getattr(cal.side_camera(i), "camera_id", "") for i in range(4)]
    chunks = []
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
        chunks.append(
            (bundles.timestamp_ms[start:stop][plotted], *xyz, dz, corrected, lead)
        )
    if not chunks:
        return TrackTable.of([]), stats
    t, x, y, z, dz, corrected, lead = map(np.concatenate, zip(*chunks))
    leads = lead.tolist()
    cam_a = [names[ADJACENT_PAIRS[p][0]] for p in leads]
    cam_b = [names[ADJACENT_PAIRS[p][1]] for p in leads]
    return TrackTable(t, x, y, z, cam_a, cam_b, dz, corrected), stats


# --- track persistence ------------------------------------------------------


def write_track(path, track: TrackTable) -> None:
    """Write a track CSV; reals carry six decimal places.  A NaN or an
    infinity, which no reader accepts, raises FormatError before the file
    is opened."""
    reals = (track.timestamp_ms, track.x, track.y, track.z, track.z_disagreement_mm)
    for position, column in zip(TRACK_FORMAT.reals, reals):
        finite = np.isfinite(column)
        if not finite.all():
            row = int(finite.argmin())
            with naming(path):
                raise FormatError(
                    f"row {row + 2}, column {TRACK_HEADER[position]}: "
                    f"cannot write non-finite real {float(column[row])!r}"
                )
    quoted = {name: csv_field(name) for name in {*track.cam_a, *track.cam_b}}
    rows = map(
        "{:.6f},{:.6f},{:.6f},{:.6f},{},{},{:.6f},{}\n".format,
        track.timestamp_ms.tolist(),
        track.x.tolist(),
        track.y.tolist(),
        track.z.tolist(),
        map(quoted.__getitem__, track.cam_a),
        map(quoted.__getitem__, track.cam_b),
        track.z_disagreement_mm.tolist(),
        map(("false", "true").__getitem__, track.depth_corrected.tolist()),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACK_HEADER) + "\n")
        fh.writelines(rows)


def _track_point(
    t: str, x: str, y: str, z: str, cam_a: str, cam_b: str, dz: str, flag: str
) -> TrackPoint:
    if flag not in ("true", "false"):
        raise FieldError(
            "depth_corrected", f"depth_corrected must be true/false, got {flag!r}"
        )
    return TrackPoint(
        timestamp_ms=real(t, "timestamp_ms"),
        position=WorldPoint3D(real(x, "x_mm"), real(y, "y_mm"), real(z, "z_mm")),
        pair=(cam_a, cam_b),
        z_disagreement_mm=real(dz, "z_disagreement_mm"),
        depth_corrected=(flag == "true"),
    )


def _track_mask(texts: list[list[str]], reals) -> np.ndarray:
    """Which rows of finite reals pass every track check, as column masks."""
    flag = texts[2]
    known = np.fromiter(map(("true", "false").__contains__, flag), bool, len(flag))
    return (reals[4] >= 0) & known


def _track_table(texts: list[list[str]], reals) -> TrackTable:
    cam_a, cam_b, flag = texts
    corrected = np.fromiter(map("true".__eq__, flag), bool, len(flag))
    return TrackTable(*reals[:4], cam_a, cam_b, reals[4], corrected)


TRACK_FORMAT = TableFormat(
    TRACK_HEADER,
    (0, 1, 2, 3, 6),
    _track_mask,
    _track_table,
    _track_point,
    TrackTable.from_points,
)


def read_track(path) -> TrackTable:
    return TRACK_FORMAT.read(path)[0]
