"""Accuracy evaluation of reconstructed tracks against a reference grid.

Ground truth for an evaluation run is a smaller reference box (grid B)
whose faces the subject walks on, plus a set of time segments declaring
which face was walked during each window.  The error of a track point is
its unsigned perpendicular distance to the declared face's infinite plane;
a bounded variant that also penalizes walking off the face rectangle is
available behind a flag.  Per-segment means are combined into an
unweighted overall mean so long and short segments count equally.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import EmptySegment, FormatError, NoDetections, NoSegments
from .fusion import FusionStats, TrackPoint
from .geometry import FACES, GridBox, WorldPoint3D
from .jsonio import csv_field, per_row, read_columns, read_file, real

SEGMENTS_HEADER = ("segment_id", "t_start_ms", "t_end_ms", "face")


@dataclass(frozen=True)
class Segment:
    """One face-walk window; the end timestamp is exclusive."""

    segment_id: str
    t_start_ms: float
    t_end_ms: float
    face: str

    def __post_init__(self):
        if not self.segment_id:
            raise FormatError("segment_id must be non-empty")
        if not self.t_start_ms < self.t_end_ms:
            raise FormatError(
                f"segment {self.segment_id}: need t_start < t_end, got "
                f"{self.t_start_ms} >= {self.t_end_ms}"
            )
        if self.face not in FACES:
            raise FormatError(
                f"segment {self.segment_id}: unknown face {self.face!r}, "
                f"expected one of {', '.join(FACES)}"
            )


def distance_to_face(
    point: WorldPoint3D, box: GridBox, face: str, bounded: bool = False
) -> float:
    """Unsigned distance from a point to one face of a box.

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


def overall_accuracy(segment_means: Sequence[float]) -> float:
    """Unweighted mean of the per-segment means."""
    if not segment_means:
        raise NoSegments("overall accuracy needs at least one segment")
    return sum(segment_means) / len(segment_means)


def plot_rate(stats: FusionStats) -> float:
    """Fraction of side-detected frames that produced a track point.

    The denominator counts bundles with at least one side-camera
    detection; see plot_rate_two_sides for the stricter variant.
    """
    if stats.with_side_detection == 0:
        raise NoDetections("no bundles with a side-camera detection")
    return stats.plotted / stats.with_side_detection


def plot_rate_two_sides(stats: FusionStats) -> float:
    """Plot rate against bundles holding two or more side detections."""
    if stats.with_two_side_detections == 0:
        raise NoDetections("no bundles with two side-camera detections")
    return stats.plotted / stats.with_two_side_detections


def validate_segments(segments: Sequence[Segment]) -> list[Segment]:
    """Reject duplicate ids and overlapping windows; return them by start."""
    ids = [s.segment_id for s in segments]
    if len(set(ids)) != len(ids):
        raise FormatError(f"duplicate segment ids: {ids}")
    ordered = sorted(segments, key=lambda s: s.t_start_ms)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.t_start_ms < prev.t_end_ms:
            raise FormatError(
                f"segments {prev.segment_id} and {nxt.segment_id} overlap "
                f"in time"
            )
    return ordered


# --- segments CSV -----------------------------------------------------------


def _segment(segment_id: str, t_start: str, t_end: str, face: str) -> Segment:
    return Segment(
        segment_id, real(t_start, "t_start_ms"), real(t_end, "t_end_ms"), face
    )


def read_segments(path) -> list[Segment]:
    segments = read_file(path, read_columns, SEGMENTS_HEADER, per_row(_segment))[0]
    validate_segments(segments)
    return segments


def write_segments(path, segments: Iterable[Segment]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SEGMENTS_HEADER) + "\n")
        for s in segments:
            fh.write(f"{csv_field(s.segment_id)},{s.t_start_ms:.6f},"
                     f"{s.t_end_ms:.6f},{s.face}\n")


# --- report -----------------------------------------------------------------


@dataclass(frozen=True)
class SegmentResult:
    segment_id: str
    face: str
    points: int
    mean_error_mm: float


@dataclass(frozen=True)
class EvaluationReport:
    segments: tuple[SegmentResult, ...]
    overall_mm: float
    overall_model_px: float
    plot_rate_one_side: float | None
    plot_rate_two_sides: float | None

    def as_doc(self) -> dict:
        doc: dict = {
            "segments": [asdict(s) for s in self.segments],
            "overall_mm": self.overall_mm,
            "overall_model_px": self.overall_model_px,
        }
        if self.plot_rate_one_side is not None:
            doc["plot_rate"] = self.plot_rate_one_side
        if self.plot_rate_two_sides is not None:
            doc["plot_rate_two_sides"] = self.plot_rate_two_sides
        return doc

    def human_table(self) -> str:
        lines = [
            f"{'segment':<12} {'face':<6} {'points':>7} {'mean error (mm)':>16}",
        ]
        for s in self.segments:
            lines.append(
                f"{s.segment_id:<12} {s.face:<6} {s.points:>7} "
                f"{s.mean_error_mm:>16.3f}"
            )
        lines.append("")
        lines.append(f"overall mean error: {self.overall_mm:.3f} mm "
                     f"({self.overall_model_px:.3f} model px)")
        if self.plot_rate_one_side is not None:
            lines.append(f"plot rate (>=1 side): {self.plot_rate_one_side:.4f}")
        if self.plot_rate_two_sides is not None:
            lines.append(f"plot rate (>=2 sides): {self.plot_rate_two_sides:.4f}")
        return "\n".join(lines) + "\n"


def _check_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise FormatError(
            f"{what} is non-finite ({value}): track coordinates too large to score"
        )


def evaluate_track(
    track: Sequence[TrackPoint],
    segments: Sequence[Segment],
    box: GridBox,
    px_per_mm: float = 1.0,
    stats: FusionStats | None = None,
    bounded: bool = False,
) -> EvaluationReport:
    """Score a track against its segment declarations.

    One pass, O(N log S): windows do not overlap, so a point can only be in
    the last one starting at or before it.  Sums run in track order.

    Raises:
        EmptySegment: the first segment, in the order given, with no point.
        FormatError: a segment mean or the overall error overflows to a
            non-finite value, which finite but huge coordinates can cause.
    """
    ordered = validate_segments(segments)
    if not segments:
        raise NoSegments("evaluation needs at least one segment")
    starts = [s.t_start_ms for s in ordered]
    totals = [0.0] * len(ordered)
    counts = [0] * len(ordered)
    for p in track:
        i = bisect_right(starts, p.timestamp_ms) - 1
        if i < 0 or not p.timestamp_ms < ordered[i].t_end_ms:
            continue
        try:
            totals[i] += distance_to_face(
                p.position, box, ordered[i].face, bounded=bounded
            )
        except OverflowError:  # a bounded excursion squared beyond the double range
            totals[i] = math.inf
        counts[i] += 1
    slot = {s.segment_id: i for i, s in enumerate(ordered)}
    results = []
    for seg in segments:
        i = slot[seg.segment_id]
        count = counts[i]
        if count == 0:
            raise EmptySegment(
                f"segment {seg.segment_id}: no track points in "
                f"[{seg.t_start_ms}, {seg.t_end_ms})"
            )
        mean_mm = totals[i] / count
        _check_finite(mean_mm, f"segment {seg.segment_id}: mean error")
        results.append(SegmentResult(seg.segment_id, seg.face, count, mean_mm))
    overall = overall_accuracy([r.mean_error_mm for r in results])
    _check_finite(overall, "overall mean error")
    _check_finite(overall * px_per_mm, "overall mean error in model px")
    rate_one = rate_two = None
    if stats is not None:
        rate_one = plot_rate(stats)
        try:
            rate_two = plot_rate_two_sides(stats)
        except NoDetections:
            rate_two = None
    return EvaluationReport(
        segments=tuple(results),
        overall_mm=overall,
        overall_model_px=overall * px_per_mm,
        plot_rate_one_side=rate_one,
        plot_rate_two_sides=rate_two,
    )
