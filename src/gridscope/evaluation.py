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
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import EmptySegment, FormatError, NoDetections, NoSegments
from .fusion import FusionStats, TrackPoint
from .geometry import FACES, GridBox, WorldPoint3D
from .jsonio import read_table_file, real

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

    def covers(self, timestamp_ms: float) -> bool:
        return self.t_start_ms <= timestamp_ms < self.t_end_ms


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


def segment_error(
    track: Sequence[TrackPoint],
    segment: Segment,
    box: GridBox,
    bounded: bool = False,
) -> tuple[float, int]:
    """Mean face distance over the track points inside one segment.

    Returns the mean error in millimetres and the number of points used.

    Raises:
        EmptySegment: no track point falls in the segment window.
    """
    total = 0.0
    count = 0
    for p in track:
        if segment.covers(p.timestamp_ms):
            total += distance_to_face(p.position, box, segment.face, bounded=bounded)
            count += 1
    if count == 0:
        raise EmptySegment(
            f"segment {segment.segment_id}: no track points in "
            f"[{segment.t_start_ms}, {segment.t_end_ms})"
        )
    return total / count, count


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


def validate_segments(segments: Sequence[Segment]) -> None:
    """Reject duplicate ids and overlapping windows."""
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


# --- segments CSV -----------------------------------------------------------


def _segment(row: list[str]) -> Segment:
    segment_id, t_start, t_end, face = row
    return Segment(
        segment_id, real(t_start, "t_start_ms"), real(t_end, "t_end_ms"), face
    )


def read_segments(path) -> list[Segment]:
    segments = read_table_file(path, SEGMENTS_HEADER, _segment)[0]
    validate_segments(segments)
    return segments


def write_segments(path, segments: Iterable[Segment]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SEGMENTS_HEADER) + "\n")
        for s in segments:
            fh.write(f"{s.segment_id},{s.t_start_ms:.6f},{s.t_end_ms:.6f},{s.face}\n")


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

    Raises:
        FormatError: a segment mean or the overall error overflows to a
            non-finite value, which finite but huge coordinates can cause.
    """
    validate_segments(segments)
    if not segments:
        raise NoSegments("evaluation needs at least one segment")
    results = []
    for seg in segments:
        try:
            mean_mm, count = segment_error(track, seg, box, bounded=bounded)
        except OverflowError:  # a bounded excursion squared beyond the double range
            mean_mm, count = math.inf, 0
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
