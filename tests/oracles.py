"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles with a
different mechanism than the production code: linear algebra goes through
numpy solvers instead of hand-rolled elimination, synchronization is a
quadratic scan instead of bisect bookkeeping, detection metrics are a
brute-force staircase enumeration.  Tests compare the two routes.

``naive_build_track`` fuses one bundle and one pair at a time in plain
Python floats, written from the definitions and reading only calibration
data; it calls none of gridscope's mapping, depth or fusion code, so it
pins the mapping and the depth arithmetic as well as the batching (pair
ranking, one correction per view, the average).  It takes
``FrameBundle`` objects, which ``bundle_table`` puts into the
``BundleTable`` that ``build_track`` takes.

The exception is ``read_table``, a per-row CSV reader written apart from
``jsonio.read_columns``, kept to pin that reader's row numbers, skipped
rows and error order to it; ``rowwise_parse_detections`` and
``rowwise_read_ground_truth`` run it with per-row copies of the detection
and ground-truth checks, to pin the row rules and row readers to them.

``write_track_oracle`` and ``polyline_points`` write six-decimal reals one
``str.format`` per row, the reference for the fixed-point kernel behind
``write_track`` and the SVG polylines; ``ply_oracle`` writes the PLY export
one ``"{:.17g}"`` row at a time, the reference for the kernel behind
``export_ply``.  ``python tests/oracles.py TRACK CALIBRATION CSV_OUT SVG_OUT
PLY_OUT`` writes a track file again by them, as a track CSV, as the export's
SVG figure and as its PLY point cloud.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# --- homography via numpy ---------------------------------------------------


def homography_oracle(src_corners, dst_corners) -> np.ndarray:
    """Solve the four-point direct linear transform with numpy.

    ``src_corners``/``dst_corners`` are sequences of four (x, y) pairs.
    Returns the 3x3 matrix with bottom-right entry 1.
    """
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (xx, yy)) in enumerate(zip(src_corners, dst_corners)):
        a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -xx * x, -xx * y]
        b[2 * i] = xx
        a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -yy * x, -yy * y]
        b[2 * i + 1] = yy
    h = np.linalg.solve(a, b)
    return np.array(
        [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]]
    )


def apply_matrix(m: np.ndarray, x: float, y: float) -> tuple[float, float]:
    v = m @ np.array([x, y, 1.0])
    return float(v[0] / v[2]), float(v[1] / v[2])


# --- similar-triangles pinhole predictions ----------------------------------


def pinhole_mde_oracle(
    half_width_mm: float,
    half_height_mm: float,
    depth_mm: float,
    camera_distance_mm: float,
) -> tuple[float, float]:
    """Expected per-axis maximum depth error for a mid-height side camera.

    A far-face corner sits ``depth_mm`` behind the near face.  By similar
    triangles its apparent position in the rectified near-face frame is
    pulled toward the centre by the factor ``distance / (distance + depth)``,
    so the largest apparent shift per axis is the corner offset times
    ``depth / (distance + depth)``.
    """
    pull = depth_mm / (camera_distance_mm + depth_mm)
    return half_width_mm * pull, half_height_mm * pull


def pinhole_projection_oracle(
    focal_px: float,
    centre_px: tuple[float, float],
    lateral_mm: float,
    vertical_mm: float,
    depth_mm: float,
) -> tuple[float, float]:
    """u, v for a point expressed in a camera's own (right, down, axis) frame."""
    return (
        centre_px[0] + focal_px * lateral_mm / depth_mm,
        centre_px[1] + focal_px * vertical_mm / depth_mm,
    )


# --- cameras framed by cross products ---------------------------------------

# The way each camera of the standard rig looks: side 0 to 3 face the y=0,
# x=W, y=D and x=0 faces in turn, and the top camera looks down.
RIG_VIEW_AXES = {
    "side:0": (0.0, 1.0, 0.0),
    "side:1": (-1.0, 0.0, 0.0),
    "side:2": (0.0, -1.0, 0.0),
    "side:3": (1.0, 0.0, 0.0),
    "top": (0.0, 0.0, -1.0),
}


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _unit(a):
    scale = 1.0 / math.sqrt(_dot(a, a))
    return (a[0] * scale, a[1] * scale, a[2] * scale)


def frame_vector_projection(
    axis, position, point, resolution, mode, focal_px, ortho_px_per_mm
) -> tuple[float, float] | None:
    """u, v of world point ``point`` for a camera at ``position`` looking
    along ``axis``, or None for a pinhole camera when the point is not in
    front of its image plane.

    The camera's frame is built from its axis alone: right = unit(axis x
    z-hat), or x-hat for a camera looking straight down, and down =
    unit(axis x right); each camera coordinate is a dot product with the
    point's offset.
    """
    axis = _unit(axis)
    if axis == (0.0, 0.0, -1.0):
        right = (1.0, 0.0, 0.0)
    else:
        right = _unit(_cross(axis, (0.0, 0.0, 1.0)))
    down = _unit(_cross(axis, right))
    d = (point[0] - position[0], point[1] - position[1], point[2] - position[2])
    cx, cy = resolution[0] / 2.0, resolution[1] / 2.0
    if mode == "aligned":
        s = ortho_px_per_mm
        return cx + s * _dot(right, d), cy + s * _dot(down, d)
    zc = _dot(axis, d)
    if zc <= 1e-9:
        return None
    return (
        cx + focal_px * _dot(right, d) / zc,
        cy + focal_px * _dot(down, d) / zc,
    )


# --- quadratic synchronization ----------------------------------------------


def box_area(d) -> float:
    """A detection's box area, with the operations of synchronize_table's tie rule."""
    return (d.u_max - d.u_min) * (d.v_max - d.v_min)


def naive_synchronize(detections, tolerance_ms, reference_camera=None):
    """Reference grouping: same rules as the library, quadratic scans.

    Returns a list of (timestamp, {camera_id: detection}) tuples.
    """
    per_frame = {}
    for det in detections:
        per_frame.setdefault((det.camera_id, det.timestamp_ms), []).append(det)
    by_camera = {}
    for (cam, _), group in per_frame.items():
        chosen = min(group, key=lambda d: (-d.confidence, -box_area(d), d.bbox))
        by_camera.setdefault(cam, []).append(chosen)
    for dets in by_camera.values():
        dets.sort(key=lambda d: d.timestamp_ms)
    if not by_camera:
        return []
    if reference_camera is None or reference_camera not in by_camera:
        reference_camera = min(
            by_camera, key=lambda cam: (by_camera[cam][0].timestamp_ms, cam)
        )
    used = {cam: [False] * len(dets) for cam, dets in by_camera.items()}
    bundles = []
    for ref_idx, ref in enumerate(by_camera[reference_camera]):
        used[reference_camera][ref_idx] = True
        members = {reference_camera: ref}
        for cam in sorted(by_camera):
            if cam == reference_camera:
                continue
            best = None
            for idx, det in enumerate(by_camera[cam]):
                if used[cam][idx]:
                    continue
                delta = abs(det.timestamp_ms - ref.timestamp_ms)
                if delta > tolerance_ms:
                    continue
                key = (delta, det.timestamp_ms)
                if best is None or key < best[0]:
                    best = (key, idx, det)
            if best is not None:
                used[cam][best[1]] = True
                members[cam] = best[2]
        bundles.append((ref.timestamp_ms, members))
    return bundles


# --- per-bundle, per-pair fusion --------------------------------------------


def bundle_table(bundles):
    """FrameBundle objects as the BundleTable that build_track takes.

    Each bundle's members become rows of one detection table, bundle by
    bundle; its cameras are every camera that appears, sorted.
    """
    from gridscope.detections import BundleTable, DetectionTable

    cameras = sorted({cam for bundle in bundles for cam in bundle.per_camera})
    rows = np.full((len(bundles), len(cameras)), -1, dtype=np.intp)
    members = []
    for k, bundle in enumerate(bundles):
        for cam, det in bundle.per_camera.items():
            rows[k, cameras.index(cam)] = len(members)
            members.append(det)
    times = np.array([bundle.timestamp_ms for bundle in bundles], dtype=float)
    return BundleTable(DetectionTable.of(members), tuple(cameras), rows, times)


def _model_grid(profile, u, v):
    """The model-grid point of pixel (u, v), or None outside every sub-area.

    Sub-areas are tried in index order and the first whose quad holds the
    pixel, within 1e-9 px of each edge (a NaN pixel is in none), maps it:
    the stored homography, then the scale ratios about the sub-area origin.
    """
    from gridscope.errors import PointAtInfinity

    for sub in profile.sub_areas:
        corners = sub.src.corners
        inside = True
        for k in range(4):
            p, q = corners[k], corners[(k + 1) % 4]
            ex, ey = q.u - p.u, q.v - p.v
            cross = ex * (v - p.v) - ey * (u - p.u)
            inside = inside and cross / math.hypot(ex, ey) >= -1e-9
        if not inside:
            continue
        h = [float(value) for value in sub.homography.matrix.reshape(-1)]
        w = h[6] * u + h[7] * v + h[8]
        if abs(w) < 1e-12:
            raise PointAtInfinity(f"point ({u}, {v}) maps to infinity")
        a = (h[0] * u + h[1] * v + h[2]) / w
        b = (h[3] * u + h[4] * v + h[5]) / w
        o = sub.mg_origin
        return (
            o.a + sub.scale.rx * ((o.a + a) - o.a),
            o.b + sub.scale.ry * ((o.b + b) - o.b),
        )
    return None


def _footprint(profile):
    """(min_a, min_b, max_a, max_b) over every sub-area's placed corners."""
    a_values, b_values = [], []
    for sub in profile.sub_areas:
        w, h = sub.canonical_width, sub.canonical_height
        for ca, cb in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)):
            a_values.append(sub.mg_origin.a + sub.scale.rx * ca)
            b_values.append(sub.mg_origin.b + sub.scale.ry * cb)
    return min(a_values), min(b_values), max(a_values), max(b_values)


def _world(component, value, px_per_mm):
    return component.origin_mm + component.sign * (value / px_per_mm)


def _corrected(cal, index, profile, a, b, top_xy, vertical_correction):
    """Side ``index``'s model-grid point pushed outward by the depth error.

    The top view's world (x, y) gives the distance from the side's near
    face (ni, clamped to [0, nf]) and from the centre axis (ic, clamped to
    [0, sc]), in model-grid units; DEF = MDE * ni / nf per axis, and the
    horizontal push is DEF * ic / sc, the vertical one DEF times the
    point's offset from mid-height over the half height.
    """
    side = cal.axis_map.sides[index]
    px = cal.rig.px_per_mm
    extent = {"x": cal.rig.grid_a.w_mm, "y": cal.rig.grid_a.d_mm}
    coord = {"x": top_xy[0], "y": top_xy[1]}
    nf_mm = extent[side.depth.axis]
    ni_mm = side.depth.sign * (coord[side.depth.axis] - side.depth.origin_mm)
    ni_mm = 0.0 if 0.0 > ni_mm else ni_mm
    ni_mm = nf_mm if nf_mm < ni_mm else ni_mm
    sc_mm = extent[side.horizontal.axis] / 2.0
    ic_mm = abs(coord[side.horizontal.axis] - sc_mm)
    ic_mm = sc_mm if sc_mm < ic_mm else ic_mm
    ni, nf, ic, sc = ni_mm * px, nf_mm * px, ic_mm * px, sc_mm * px

    min_a, min_b, max_a, max_b = _footprint(profile)
    half = (max_b - min_b) / 2.0
    fraction = 0.0
    if half > 0:
        fraction = abs(b - (min_b + max_b) / 2.0) / half
        fraction = 1.0 if 1.0 < fraction else fraction
    def_h = profile.mde_h * (ni / nf)
    adj_h = def_h * (ic / sc)
    adj_v = profile.mde_v * (ni / nf) * fraction if vertical_correction else 0.0
    a = a + adj_h if a >= (min_a + max_a) / 2.0 else a - adj_h
    b = b + adj_v if b >= (min_b + max_b) / 2.0 else b - adj_v
    return a, b


def naive_build_track(
    cal,
    bundles,
    z_reject_mm=30.0,
    depth_correction=True,
    vertical_correction=True,
    pair_strategy="best",
):
    """build_track one bundle and one pair at a time, in plain Python floats.

    Written from the definitions, reading only calibration data: each box
    centre is located in its camera's sub-areas and mapped into the model
    grid; the top view's model point is read as world (x, y); each side
    point of a fused pair is depth-corrected, again for every pair that
    uses it, and turned into world mm; a pair gives world x and y from its
    two horizontal axes, z as the mean of its two heights and their
    difference as the disagreement.  Every step keeps build_track's
    operation order, so the two agree bit for bit.
    """
    from gridscope.fusion import FusionStats, TrackPoint

    px = cal.rig.px_per_mm
    track = []
    stats = FusionStats()
    for bundle in bundles:
        stats.total += 1
        views, confidence, names = {}, {}, {}
        side_count = 0
        top_xy = None
        for cam in cal.cameras:
            det = bundle.per_camera.get(cam.camera_id)
            if det is None:
                continue
            side_count += cam.role.is_side
            u = (det.u_min + det.u_max) / 2.0
            v = (det.v_min + det.v_max) / 2.0
            mg = _model_grid(cam, u, v)
            if mg is None:
                stats.outside_area += 1
            elif cam.role.is_side:
                views[cam.role.index] = (cam, *mg)
                confidence[cam.role.index] = det.confidence
                names[cam.role.index] = det.camera_id
            else:
                top = cal.axis_map.top
                world = {top.a.axis: _world(top.a, mg[0], px)}
                world[top.b.axis] = _world(top.b, mg[1], px)
                top_xy = (world["x"], world["y"])
        stats.with_side_detection += side_count >= 1
        stats.with_two_side_detections += side_count >= 2
        stats.missing_top += top_xy is None
        corrected = depth_correction and top_xy is not None
        # adjacent sides, in tie-break order; opposite sides are never paired
        pairs = [
            (i, (i + 1) % 4) for i in range(4) if i in views and (i + 1) % 4 in views
        ]
        if not pairs:
            continue
        # highest confidence sum first; the stable sort keeps ties in that order
        pairs.sort(key=lambda p: -(confidence[p[0]] + confidence[p[1]]))

        def side_mm(index):
            cam, a, b = views[index]
            if corrected:
                a, b = _corrected(cal, index, cam, a, b, top_xy, vertical_correction)
            side = cal.axis_map.sides[index]
            return _world(side.horizontal, a, px), _world(side.vertical, b, px)

        points = []
        for i, j in pairs[:1] if pair_strategy == "best" else pairs:
            (h_i, z_i), (h_j, z_j) = side_mm(i), side_mm(j)
            world = {cal.axis_map.sides[i].horizontal.axis: h_i}
            world[cal.axis_map.sides[j].horizontal.axis] = h_j
            dz = abs(z_i - z_j)
            if not dz > z_reject_mm:
                xyz = (world["x"], world["y"], (z_i + z_j) / 2.0)
                points.append((xyz, (names[i], names[j]), dz))
        if not points:
            stats.rejected_z += 1
            continue
        xyz, pair, dz = points[0]
        if len(points) > 1:
            totals = [0.0, 0.0, 0.0]
            for point, _, other_dz in points:
                totals = [t + c for t, c in zip(totals, point)]
                dz = other_dz if other_dz > dz else dz
            xyz = [t / len(points) for t in totals]
        track.append(TrackPoint(bundle.timestamp_ms, *xyz, *pair, dz, corrected))
        stats.plotted += 1
    return track, stats


# --- detection metrics by brute force ---------------------------------------


def finite_box_oracle(u_min, v_min, u_max, v_max) -> bool:
    """The box rule as four ``math.isfinite``/``>`` tests joined by ``and``."""
    area = (u_max - u_min) * (v_max - v_min)
    return (
        math.isfinite(u_min + u_max)
        and math.isfinite(v_min + v_max)
        and math.isfinite(area)
        and 0.5 * area > 0
    )


def iou_oracle(a, b) -> float:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def match_oracle(predictions, ground_truth, threshold):
    """Greedy confidence-ordered matching; returns per-prediction TP flags
    in ranked order plus (tp, fp, fn).

    ``predictions`` are objects with .frame_index, .confidence, .bbox;
    ``ground_truth`` objects with .frame_id and box corner fields.
    """
    order = sorted(
        range(len(predictions)), key=lambda i: (-predictions[i].confidence, i)
    )
    taken = [False] * len(ground_truth)
    flags = []
    for i in order:
        pred = predictions[i]
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(ground_truth):
            if taken[j] or gt.frame_id != pred.frame_index:
                continue
            overlap = iou_oracle(
                pred.bbox, (gt.u_min, gt.v_min, gt.u_max, gt.v_max)
            )
            if overlap >= threshold and overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j is None:
            flags.append(False)
        else:
            taken[best_j] = True
            flags.append(True)
    tp = sum(flags)
    fp = len(flags) - tp
    fn = len(ground_truth) - tp
    return flags, (tp, fp, fn)


def ap_oracle(predictions, ground_truth, threshold) -> float:
    """101-point interpolated average precision, enumerated directly."""
    if not ground_truth:
        raise ValueError("AP undefined without ground truth")
    if not predictions:
        return 0.0
    flags, _ = match_oracle(predictions, ground_truth, threshold)
    points = []
    tp = fp = 0
    for flag in flags:
        if flag:
            tp += 1
        else:
            fp += 1
        points.append((tp / (tp + fp), tp / len(ground_truth)))
    total = 0.0
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for precision, recall in points:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 101.0


# --- side-camera presence enumeration ---------------------------------------

_ADJACENT = ((0, 1), (1, 2), (2, 3), (3, 0))


def has_adjacent_pair(pattern) -> bool:
    """Whether a set of present side indices contains a 90-degree pair."""
    present = set(pattern)
    return any(a in present and b in present for a, b in _ADJACENT)


def plot_rate_enumeration(presence: Fraction) -> Fraction:
    """P(an adjacent pair is present | at least one side is present).

    Exhausts all 16 presence patterns of the four side cameras, each side
    independently present with the given probability.
    """
    p, q = presence, 1 - presence
    num = Fraction(0)
    den = Fraction(0)
    for mask in range(16):
        pattern = [i for i in range(4) if mask >> i & 1]
        weight = p ** len(pattern) * q ** (4 - len(pattern))
        if pattern:
            den += weight
            if has_adjacent_pair(pattern):
                num += weight
    return num / den


def mean_point_error(track_points, truth_by_timestamp) -> float:
    """Plain recomputation of the mean 3D distance to ground truth."""
    errs = []
    for p in track_points:
        g = truth_by_timestamp[p.timestamp_ms]
        errs.append(
            math.sqrt(
                (p.x - g.x) ** 2
                + (p.y - g.y) ** 2
                + (p.z - g.z) ** 2
            )
        )
    return sum(errs) / len(errs)


# --- per-segment scan of a track ----------------------------------------------


def distance_to_face(point, box, face: str, bounded: bool = False) -> float:
    """Unsigned distance from a point to one face of a box, one point at a time.

    ``evaluation._face_distances`` follows these operations column-wise.

    The default measures distance to the face's infinite plane.  With
    ``bounded=True`` the distance is taken to the face rectangle itself,
    so positions beyond the face edges pick up the in-plane excursion too.
    """
    axis, value = box.face_plane(face)
    plane_dist = abs(getattr(point, axis) - value)
    if not bounded:
        return plane_dist
    excess_sq = 0.0
    for other_axis, (lo, hi) in box.spans().items():
        if other_axis == axis:
            continue
        c = getattr(point, other_axis)
        if c < lo:
            excess_sq += (lo - c) ** 2
        elif c > hi:
            excess_sq += (c - hi) ** 2
    return math.sqrt(plane_dist * plane_dist + excess_sq)


def scan_evaluate_track(track, segments, box, px_per_mm=1.0, bounded=False):
    """evaluate_track as a scan of the whole track for every segment.

    O(points x segments); each segment sums its points' face distances in
    track order, and the first bad segment in the order given raises.
    """
    from gridscope.errors import EmptySegment, NoSegments
    from gridscope.evaluation import (
        EvaluationReport,
        SegmentResult,
        _check_finite,
        overall_accuracy,
        validate_segments,
    )

    validate_segments(segments)
    if not segments:
        raise NoSegments("evaluation needs at least one segment")
    results = []
    for seg in segments:
        total = 0.0
        count = 0
        try:
            for p in track:
                if seg.t_start_ms <= p.timestamp_ms < seg.t_end_ms:
                    total += distance_to_face(p, box, seg.face, bounded=bounded)
                    count += 1
        except OverflowError:
            total, count = math.inf, 1
        if count == 0:
            raise EmptySegment(
                f"segment {seg.segment_id}: no track points in "
                f"[{seg.t_start_ms}, {seg.t_end_ms})"
            )
        mean_mm = total / count
        _check_finite(mean_mm, f"segment {seg.segment_id}: mean error")
        results.append(SegmentResult(seg.segment_id, seg.face, count, mean_mm))
    overall = overall_accuracy([r.mean_error_mm for r in results])
    _check_finite(overall, "overall mean error")
    _check_finite(overall * px_per_mm, "overall mean error in model px")
    return EvaluationReport(tuple(results), overall, overall * px_per_mm, None, None)


# --- row-at-a-time CSV readers ----------------------------------------------


def read_table(lines, header, make, strict=True):
    """A CSV table reader that builds one item per row, in file order.

    Each row goes through ``csv.reader`` and, unless it is blank, through a
    width check and ``make`` of its stripped fields, in file order.  A
    ValueError or FormatError becomes a CsvError naming the row (the header
    is row 1) and, for a FieldError, the column; strict mode raises the
    first, lenient mode skips the row and returns its error.  A row the csv
    module cannot split raises a CsvError naming its line.
    """
    import csv

    from gridscope.errors import CsvError, FormatError

    items, errors = [], []
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise CsvError(1, "", f"expected header {','.join(header)}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                items.append(make([f.strip() for f in row]))
            except (ValueError, FormatError) as exc:
                error = CsvError(row_no, getattr(exc, "column", ""), str(exc))
                if strict:
                    raise error from exc
                errors.append(error)
    except csv.Error as exc:
        raise CsvError(reader.line_num, "", str(exc)) from None
    return items, errors


def rowwise_parse_detections(lines, strict=False):
    """The detections reader as it was before the table: one Detection per row.

    Each row's reals are read in column order with ``jsonio.real``, so the
    first failing column names the error, then ``Detection`` checks the
    row.  Returns (detections, errors) as ``read_table`` does.
    """
    from gridscope.detections import CSV_HEADER, Detection
    from gridscope.jsonio import real

    def detection(row):
        reals = [real(text, name) for text, name in zip(row[2:], CSV_HEADER[2:])]
        return Detection(row[0], row[1], *reals)

    return read_table(lines, CSV_HEADER, detection, strict=strict)


def rowwise_read_ground_truth(lines, strict=True):
    """The ground-truth reader as it was before the table: one box per row.

    Each row's corners are read in column order with ``jsonio.real``, so
    the first failing column names the error, then ``GroundTruthBox``
    checks the row.  Returns (boxes, errors) as ``read_table`` does.
    """
    from gridscope.jsonio import real
    from gridscope.metrics import GT_HEADER, GroundTruthBox

    def ground_truth_box(row):
        reals = [real(text, name) for text, name in zip(row[1:], GT_HEADER[1:])]
        return GroundTruthBox(row[0], *reals)

    return read_table(lines, GT_HEADER, ground_truth_box, strict=strict)


# --- str.format writers -----------------------------------------------------


def write_track_oracle(path, track) -> None:
    """The track CSV written one ``str.format`` per row, with the excel
    quoting written out here; ``fusion.write_track`` must write its bytes."""

    def quoted(name):
        if any(c in name for c in ',"\r\n'):
            return '"' + name.replace('"', '""') + '"'
        return name

    rows = map(
        "{:.6f},{:.6f},{:.6f},{:.6f},{},{},{:.6f},{}\n".format,
        track.timestamp_ms.tolist(),
        track.x.tolist(),
        track.y.tolist(),
        track.z.tolist(),
        map(quoted, track.cam_a),
        map(quoted, track.cam_b),
        track.z_disagreement_mm.tolist(),
        map(("false", "true").__getitem__, track.depth_corrected.tolist()),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp_ms,x_mm,y_mm,z_mm,cam_a,cam_b,z_disagreement_mm,"
                 "depth_corrected\n")
        fh.writelines(rows)


def polyline_points(xs, ys) -> str:
    """An SVG polyline's points joined one ``str.format`` per point;
    ``export._polyline`` must write this text."""
    return " ".join(map("{:.6f},{:.6f}".format, xs.tolist(), ys.tolist()))


def ply_oracle(path, track) -> None:
    """The PLY point cloud written one ``str.format`` per row;
    ``export.export_ply`` must write its bytes.  Adding 0.0 writes -0.0 as
    0, as ``format_real`` does."""
    x, y, z = ((column + 0.0).tolist() for column in (track.x, track.y, track.z))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"ply\nformat ascii 1.0\nelement vertex {len(x)}\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "end_header\n")
        fh.writelines(map("{:.17g} {:.17g} {:.17g}\n".format, x, y, z))


def rewrite_with_oracles(track_csv, calibration, csv_out, svg_out, ply_out) -> None:
    """Read the track file ``track_csv`` and write it again by the
    ``str.format`` writers: as a track CSV to ``csv_out``; as ``export
    --format svg`` draws it, with the rig of ``calibration``, to
    ``svg_out``; and as ``export --format ply`` writes it to ``ply_out``."""
    from unittest import mock

    from gridscope import export
    from gridscope.calibration import load_rig
    from gridscope.fusion import read_track

    track = read_track(track_csv)
    write_track_oracle(csv_out, track)
    with mock.patch.object(export, "_polyline", polyline_points):
        export.export_svg(svg_out, track, load_rig(calibration).grid_a)
    ply_oracle(ply_out, track)


if __name__ == "__main__":
    # python tests/oracles.py TRACK CALIBRATION CSV_OUT SVG_OUT PLY_OUT
    import sys

    rewrite_with_oracles(*sys.argv[1:])
