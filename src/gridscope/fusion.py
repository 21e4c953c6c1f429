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
through ``write_track``, which formats the columns with ``format_rows``,
an exact fixed-point kernel with the bytes of ``"{:.6f}".format``, and
back from ``read_track``.  There one
``np.loadtxt`` pass reads a plain file whose rows all pass the
``TrackPoint`` rules, run on its columns; any other file is read one row
at a time into ``TrackPoint`` objects, so each error names its row,
column and reason.
``TrackPoint``, the table's row, is the API edge: a table iterates as
points, and ``TrackTable.of`` puts points into the table every consumer
takes.

The camera pair stays two str columns, not ``jsonio.Coded`` ones as the
detections' camera ids are.  Coding them would cost each ``read_track``
about 0.46 ms at 2,258 rows, and a pipeline reads the track twice
(``evaluate``, ``export``), while it would save ``build_track`` and
``write_track`` about 0.44 ms between them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

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
from .geometry import ModelPoint2D
from .jsonio import Columns, DocReader, TableFormat, compile_rules, csv_field, naming
from .options import DEFAULT_Z_REJECT_MM, PAIR_STRATEGIES

# The four admissible side-camera pairs, in tie-break order.
ADJACENT_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 0))
_FIRST = np.array([i for i, _ in ADJACENT_PAIRS])
_SECOND = np.array([j for _, j in ADJACENT_PAIRS])

# build_track fuses this many bundles at a time, so its arrays stay within
# a fixed bound (about 1.9 MiB for a block of 4096, by tracemalloc) however
# long the recording is.  Each block also pays a fixed cost of about 0.8 ms,
# whatever its size; at 1024 bundles that cost was near the per-bundle work.
# write_track formats as many rows at a time.
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
    """One reconstructed 3D position, from side cameras ``cam_a`` and
    ``cam_b``: a row of the track, in file order."""

    timestamp_ms: float
    x: float
    y: float
    z: float
    cam_a: str
    cam_b: str
    z_disagreement_mm: float
    depth_corrected: bool

    rules = (
        ("z_disagreement_mm", "r.z_disagreement_mm >= 0",
         "z_disagreement_mm must be >= 0, got {r.z_disagreement_mm}"),
    )
    __post_init__, passes = compile_rules(rules)


@dataclass(frozen=True, eq=False)
class TrackTable(Columns):
    """The track as columns, one entry per point in track order.

    Every row holds what a ``TrackPoint`` does, in the track file's column
    order: float64 columns for the time, position and z disagreement, the
    camera pair as two str columns and a bool column for the depth
    correction.  A table iterates as TrackPoint objects, and ``of`` puts
    points into one.
    """

    timestamp_ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    cam_a: list[str]
    cam_b: list[str]
    z_disagreement_mm: np.ndarray
    depth_corrected: np.ndarray

    row = TrackPoint

    def __iter__(self) -> Iterator[TrackPoint]:
        return iter(self.rows(TrackPoint))


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
    cams = (view_a.detection.camera_id, view_b.detection.camera_id)
    return TrackPoint(timestamp_ms, x, y, z, *cams, dz, top is not None)


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


# What pads a field to its column's width; format_rows drops it.  No UTF-8
# text holds this byte, so a camera id keeps every character it has, NUL too.
_PAD = 0xFF
# The two bytes of each number 0 to 99, as one uint16 in memory order, in
# three runs: as digits; as the leading pair of a whole part, whose leading
# zeros are _PAD; and as that pair when it also holds the ones digit.
_DIGIT_PAIRS = np.frombuffer(
    "".join(
        [f"{i:02d}" for i in range(100)]
        + [f"{i:2d}" if i else "  " for i in range(100)]
        + [f"{i:2d}" for i in range(100)]
    ).replace(" ", chr(_PAD)).encode("latin-1"),
    dtype=np.uint16,
)
_FLAGS = np.array([list(b"false"), [*b"true", _PAD]], dtype=np.uint8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: high + low == a exactly, each with at most 26
    significant bits, so the product of two halves is exact."""
    high = a * 134217729.0  # 2**27 + 1
    high -= high - a
    return high, a - high


def _fixed6(column: np.ndarray) -> np.ndarray:
    """What "{:.6f}".format writes for each value of a finite real column:
    one row of bytes each, padded with _PAD.

    |x| * 10**6 is p + err exactly, by Dekker's product: 10**6 has 14
    significant bits, so it splits into itself and 0, and each half of
    Veltkamp's split of |x| times it is exact.  Python rounds the exact
    product half to even; that is rint(p), moved one step the way err
    points where p lies exactly halfway, since elsewhere |err| <= ulp(p) / 2
    cannot cross a half.  The digits come two at a time by integer division,
    and the sign from the sign bit, so -0.0 writes "-0.000000".  A column
    with a p of 2**52 or more, where a half need not be a multiple of
    ulp(p), is formatted by str.format.
    """
    column = np.asarray(column, dtype=float)
    n = len(column)
    magnitude = np.abs(column)
    with np.errstate(over="ignore"):
        p = magnitude * 1e6
    if not (p < 2.0**52).all():
        return _str_formatted(column, "{:.6f}".format)
    high, low = _split(magnitude)
    err = (high * 1e6 - p) + low * 1e6
    rounded = np.rint(p)
    half = p - rounded
    rounded += (half == 0.5) & (err > 0)
    rounded -= (half == -0.5) & (err < 0)
    rest = rounded.astype(np.int64)
    # the whole part's digits, at least one, to an even count
    whole = 2 * ((len(str(int(rest.max(initial=0)) // 10**6)) + 1) // 2)
    runs = [100] * (whole // 2 - 1) + [200, 0, 0, 0]  # each pair's table
    pairs = np.empty((n, len(runs)), np.intp)
    for k in range(len(runs) - 1, -1, -1):
        above = rest // 100
        pairs[:, k] = rest - 100 * above + runs[k] * (above == 0)
        rest = above
    digits = _DIGIT_PAIRS[pairs].view(np.uint8)
    fields = np.empty((n, whole + 8), np.uint8)
    fields[:, 0] = np.where(np.signbit(column), ord("-"), _PAD)
    fields[:, 1:whole + 1] = digits[:, :whole]
    fields[:, whole + 1] = ord(".")
    fields[:, whole + 2:] = digits[:, whole:]
    return fields


# 10**k for k = 0 to 21, exact, and Veltkamp's split of each: _g17 scales by
# 10**(16 - E) for a decimal exponent E from -5 to 16.
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _positional_layout() -> np.ndarray:
    """The bytes of "{:.17g}" in positional form, by decimal exponent E
    (-4 to 15) and the index of the last digit that is not 0, one row of 39
    for 17 * (E + 4) + that index: a sign slot; "0." and -E - 1 zeros when
    E < 0; then 17 digit slots, 0 up to the last digit written and _PAD
    after it, with a slot after each of the first 16 that holds "." after
    digit E when a digit not 0 follows.
    """
    exponent = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[:, None]
    layout = np.full((20, 17, 39), _PAD, np.uint8)
    lead = np.frombuffer(b"0.000", np.uint8)
    layout[..., 1:6] = np.where(exponent < [0, 0, -1, -2, -3], lead, _PAD)
    written = np.arange(17) <= np.maximum(last, exponent)
    layout[..., 6::2] = np.where(written, 0, _PAD)
    point = (np.arange(16) == exponent) & (last > exponent)
    layout[..., 7::2] = np.where(point, ord("."), _PAD)
    return layout.reshape(20 * 17, 39)


_LAYOUT = _positional_layout()


def _g17_digits(
    magnitude: np.ndarray, exponent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N, E) for each positive real m, with m rounded half to even to 17
    significant digits equal to N * 10**(E - 16) and 10**16 <= N < 10**17.

    ``exponent`` is a guess of E, right or one off either way.
    m * 10**(16 - E) is p + err exactly, by Dekker's product, and the guess
    moves until that exact product lies in [10**16, 10**17).  p is then an
    even integer, past 2**53, so N = p + rint(err).  N never rounds up to
    10**17 for 1e-4 <= m < 1e16: the largest double below each power of ten
    from 1e-3 to 1e16 is more than 8e-17 of it away, and half a unit in the
    17th digit is 5e-18 of it.
    """
    high, low = _split(magnitude)
    while True:
        k = 16 - exponent
        scale_high, scale_low = _POW10_HIGH[k], _POW10_LOW[k]
        p = magnitude * _POW10[k]
        err = low * scale_low - (
            ((p - high * scale_high) - low * scale_high) - high * scale_low
        )
        below = (p < 1e16) | ((p == 1e16) & (err < 0))
        above = (p > 1e17) | ((p == 1e17) & (err >= 0))
        if not (below.any() or above.any()):
            break
        exponent = exponent + above - below
    return p.astype(np.int64) + np.rint(err).astype(np.int64), exponent


def _g17(column: np.ndarray) -> np.ndarray:
    """What "{:.17g}".format writes for each value of a finite real column:
    one row of bytes each, padded with _PAD.

    Each value with 1e-4 <= |x| < 1e16 is written in positional form:
    ``_g17_digits`` gives its 17 digits and decimal exponent E, from a
    guess by np.log10 whose last bit never reaches a digit.  The digits come
    from _DIGIT_PAIRS; a "." follows digit E, and "0." and -E - 1 zeros lead
    when E < 0.  Zeros after the point that end the digits are dropped, and
    so is a "." that nothing follows.  A column with any other value, zero
    included, is formatted by str.format.
    """
    column = np.asarray(column, dtype=float)
    magnitude = np.abs(column)
    if not ((magnitude >= 1e-4) & (magnitude < 1e16)).all():
        return _str_formatted(column, "{:.17g}".format)
    guess = np.floor(np.log10(magnitude)).astype(np.int64)
    n, exponent = _g17_digits(magnitude, guess)
    # nine pairs of an 18-digit number whose first digit is 0
    pairs = np.empty((len(column), 9), np.intp)
    for k in range(8, -1, -1):
        above = n // 100
        pairs[:, k] = n - 100 * above
        n = above
    digits = _DIGIT_PAIRS[pairs].view(np.uint8)[:, 1:]
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    fields = _LAYOUT[17 * (exponent + 4) + last]
    fields[:, 0] = np.where(column < 0, ord("-"), _PAD)
    fields[:, 6::2] |= digits
    return fields


def _str_formatted(column: np.ndarray, spec) -> np.ndarray:
    """A kernel's column past its range: ``spec`` of each value, as bytes
    padded with _PAD."""
    text = np.array(list(map(spec, column.tolist())), dtype="S")
    fields = text.view(np.uint8).reshape(len(column), text.itemsize)
    return np.where(fields == 0, _PAD, fields)


def format_rows(fields: list) -> bytes:
    """Rows of text, each made of its entry of every field in turn.

    A field is a column of reals, each written as "{:.6f}".format writes
    it; a 2-D uint8 array, one row of bytes per row, padded with _PAD, such
    as ``_g17`` makes of a column for "{:.17g}"; or bytes, written in every
    row.
    """
    parts = [
        np.frombuffer(f, np.uint8)[None] if isinstance(f, bytes)
        else _fixed6(f) if f.ndim == 1
        else f
        for f in fields
    ]
    n = len(next(f for f in fields if not isinstance(f, bytes)))
    rows = np.empty((n, sum(part.shape[1] for part in parts)), np.uint8)
    at = 0
    for part in parts:
        rows[:, at:at + part.shape[1]] = part
        at += part.shape[1]
    return rows.tobytes().translate(None, bytes([_PAD]))


def write_track(path, track: TrackTable) -> None:
    """Write a track CSV; reals carry six decimal places.  A NaN or an
    infinity, which no reader accepts, raises FormatError before the file
    is opened.

    The bytes are those of one ``str.format`` per row.  ``format_rows``
    writes each block of _CHUNK_BUNDLES rows from the columns: the reals by
    its fixed-point kernel, and the quoted camera names and the flags
    gathered by code from small tables of their UTF-8 bytes.
    """
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
    code = {name: i for i, name in enumerate({*track.cam_a, *track.cam_b})}
    quoted = [csv_field(name).encode() for name in code]
    names = np.full((len(quoted), max(map(len, quoted), default=0)), _PAD, np.uint8)
    for i, text in enumerate(quoted):
        names[i, :len(text)] = list(text)
    cam_a, cam_b = (
        np.fromiter(map(code.__getitem__, cams), np.intp, len(track))
        for cams in (track.cam_a, track.cam_b)
    )
    flags = np.asarray(track.depth_corrected, dtype=np.intp)
    with open(path, "wb") as fh:
        fh.write((",".join(TRACK_HEADER) + "\n").encode())
        for start in range(0, len(track), _CHUNK_BUNDLES):
            rows = slice(start, start + _CHUNK_BUNDLES)
            fh.write(format_rows([
                track.timestamp_ms[rows], b",", track.x[rows], b",",
                track.y[rows], b",", track.z[rows], b",",
                names[cam_a[rows]], b",", names[cam_b[rows]], b",",
                track.z_disagreement_mm[rows], b",", _FLAGS[flags[rows]], b"\n",
            ]))


TRACK_FORMAT = TableFormat(TRACK_HEADER, TrackTable)


def read_track(path) -> TrackTable:
    return TRACK_FORMAT.read(path)[0]
