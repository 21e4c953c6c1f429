"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles with a
different mechanism than the production code: linear algebra goes through
numpy solvers instead of hand-rolled elimination, synchronization is a
quadratic scan instead of bisect bookkeeping, detection metrics are a
brute-force staircase enumeration.  Tests compare the two routes.

``naive_build_track`` is the exception: it is the per-bundle, per-pair
fusion loop that the columnar ``build_track`` replaced, kept to pin the
batching (pair ranking, one correction per view, the average) to it.
So is ``read_table``, the per-row CSV reader that the block reader
``jsonio.read_columns`` replaced, kept to pin its row numbers, skipped
rows and error order to it; ``rowwise_parse_detections`` and
``rowwise_read_ground_truth`` run it with per-row copies of the detection
and ground-truth checks, to pin the column masks to them.
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


# --- quadratic synchronization ----------------------------------------------


def naive_synchronize(detections, tolerance_ms, reference_camera=None):
    """Reference grouping: same rules as the library, quadratic scans.

    Returns a list of (timestamp, {camera_id: detection}) tuples.
    """
    per_frame = {}
    for det in detections:
        per_frame.setdefault((det.camera_id, det.timestamp_ms), []).append(det)
    by_camera = {}
    for (cam, _), group in per_frame.items():
        chosen = min(group, key=lambda d: (-d.confidence, -d.area, d.bbox))
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


def naive_build_track(
    cal,
    bundles,
    z_reject_mm=30.0,
    depth_correction=True,
    vertical_correction=True,
    pair_strategy="best",
):
    """build_track one bundle and one pair at a time, through reconstruct_point.

    Each side view is depth-corrected again for every pair that uses it.
    """
    from gridscope.detections import bbox_center
    from gridscope.errors import OutsideCalibratedArea, ZDisagreementExceeded
    from gridscope.fusion import (
        ADJACENT_PAIRS,
        FusionStats,
        SideView,
        TrackPoint,
        eligible_pairs,
        reconstruct_point,
        top_world_xy,
    )
    from gridscope.calibration import to_model_grid
    from gridscope.geometry import WorldPoint3D

    track = []
    stats = FusionStats()
    for bundle in bundles:
        stats.total += 1
        views = {}
        raw_side_count = 0
        top_xy = None
        for cam in cal.cameras:
            det = bundle.per_camera.get(cam.camera_id)
            if det is None:
                continue
            raw_side_count += cam.role.is_side
            try:
                mg = to_model_grid(cam, bbox_center(det))
            except OutsideCalibratedArea:
                stats.outside_area += 1
                continue
            if cam.role.is_side:
                views[cam.role.index] = SideView(cam.role.index, cam, det, mg)
            else:
                top_xy = top_world_xy(cal, mg)
        stats.with_side_detection += raw_side_count >= 1
        stats.with_two_side_detections += raw_side_count >= 2
        stats.missing_top += top_xy is None
        pairs = eligible_pairs(views)
        if not pairs:
            continue

        def confidence(pair):
            return (
                views[pair[0]].detection.confidence
                + views[pair[1]].detection.confidence
            )

        ranked = sorted(
            pairs, key=lambda p: (-confidence(p), ADJACENT_PAIRS.index(p))
        )
        points = []
        for pair in ranked[:1] if pair_strategy == "best" else ranked:
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
                pass
        if not points:
            stats.rejected_z += 1
            continue
        chosen = points[0]
        if len(points) > 1:
            n = float(len(points))
            chosen = TrackPoint(
                timestamp_ms=chosen.timestamp_ms,
                position=WorldPoint3D(
                    sum(p.position.x for p in points) / n,
                    sum(p.position.y for p in points) / n,
                    sum(p.position.z for p in points) / n,
                ),
                pair=chosen.pair,
                z_disagreement_mm=max(p.z_disagreement_mm for p in points),
                depth_corrected=any(p.depth_corrected for p in points),
            )
        track.append(chosen)
        stats.plotted += 1
    return track, stats


# --- detection metrics by brute force ---------------------------------------


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
                (p.position.x - g.x) ** 2
                + (p.position.y - g.y) ** 2
                + (p.position.z - g.z) ** 2
            )
        )
    return sum(errs) / len(errs)


# --- per-segment scan of a track ----------------------------------------------


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
        distance_to_face,
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
                    total += distance_to_face(p.position, box, seg.face, bounded=bounded)
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
    """The CSV table reader as it was before the block reader: one item per row.

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
