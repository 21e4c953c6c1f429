"""Accuracy evaluation of reconstructed tracks against a reference grid.

Ground truth for an evaluation run is a smaller reference box (grid B)
whose faces the subject walks on, plus a set of time segments declaring
which face was walked during each window.  The error of a track point is
its unsigned perpendicular distance to the declared face's infinite plane;
a bounded variant that also penalizes walking off the face rectangle is
available behind a flag.  Per-segment means are combined into an
unweighted overall mean so long and short segments count equally.

``evaluate_track`` scores only a ``TrackTable`` (``TrackTable.of`` makes
one of points) in numpy: one ``searchsorted`` puts every point in its window,
the face distances follow the operations of the scalar reference
``tests/oracles.distance_to_face`` column-wise, and ``np.bincount`` sums
each window's distances in track order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySegment, FormatError, NoDetections, NoSegments
from .fusion import FusionStats, TrackTable
from .geometry import FACES, GridBox
from .jsonio import compile_rules, csv_field, naming, read_columns, read_file, row_reader

SEGMENTS_HEADER = ("segment_id", "t_start_ms", "t_end_ms", "face")


@dataclass(frozen=True)
class Segment:
    """One face-walk window; the end timestamp is exclusive."""

    segment_id: str
    t_start_ms: float
    t_end_ms: float
    face: str

    rules = (
        ("face", "r.face in FACES",
         "segment {r.segment_id}: unknown face {r.face!r}, expected one of "
         + ", ".join(FACES)),
        ("segment_id", "nonempty(r.segment_id)", "segment_id must be non-empty"),
        ("", "r.t_start_ms < r.t_end_ms",
         "segment {r.segment_id}: need t_start < t_end, "
         "got {r.t_start_ms} >= {r.t_end_ms}"),
    )
    __post_init__ = compile_rules(rules, FACES=FACES)[0]


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
    seen = set()
    for s in segments:
        if s.segment_id in seen:
            raise FormatError(f"duplicate segment id {s.segment_id!r}")
        seen.add(s.segment_id)
    ordered = sorted(segments, key=lambda s: s.t_start_ms)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.t_start_ms < prev.t_end_ms:
            raise FormatError(
                f"segments {prev.segment_id} and {nxt.segment_id} overlap "
                f"in time"
            )
    return ordered


# --- segments CSV -----------------------------------------------------------


def read_segments(path) -> list[Segment]:
    make = row_reader(SEGMENTS_HEADER, Segment)
    segments = read_file(path, read_columns, SEGMENTS_HEADER, make)[0]
    with naming(path):
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


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it, inf where that overflows.

    Python's ``**`` is the C library's ``pow``, which (in glibc) rounds
    about one square in a thousand to a different last bit than ``v * v``;
    the scalar reference ``distance_to_face`` squares that way, and so does this.
    """
    out = np.zeros(len(values))
    at = np.flatnonzero(values)  # a point inside the face's span has no excess
    out[at] = np.fromiter(map(_square, values[at].tolist()), float, len(at))
    return out


def _square(value: float) -> float:
    try:
        return value**2
    except OverflowError:
        return math.inf


def _face_distances(
    track: TrackTable,
    inside: np.ndarray,
    window: np.ndarray,
    ordered: list[Segment],
    box: GridBox,
    bounded: bool,
) -> np.ndarray:
    """distance_to_face of each point ``inside`` to its window's face, column-wise."""
    coords = [column[inside] for column in (track.x, track.y, track.z)]
    spans = box.spans()
    axes = list(spans)
    planes = [box.face_plane(s.face) for s in ordered]
    axis = np.array([axes.index(a) for a, _ in planes], dtype=np.intp)[window]
    value = np.array([v for _, v in planes])[window]
    with np.errstate(over="ignore", invalid="ignore"):
        plane = np.abs(np.choose(axis, coords) - value)
        if not bounded:
            return plane
        excess = np.zeros(len(plane))
        for k, (lo, hi) in enumerate(spans.values()):
            c = coords[k]
            off = np.where(c < lo, lo - c, np.where(c > hi, c - hi, 0.0))
            excess += _squares(np.where(axis == k, 0.0, off))
        return np.sqrt(plane * plane + excess)


def evaluate_track(
    track: TrackTable,
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
    starts = np.array([s.t_start_ms for s in ordered])
    ends = np.array([s.t_end_ms for s in ordered])
    t = track.timestamp_ms
    window = np.searchsorted(starts, t, side="right") - 1
    inside = (window >= 0) & (t < ends[window])
    window = window[inside]
    distances = _face_distances(track, inside, window, ordered, box, bounded)
    n = len(ordered)
    totals = np.bincount(window, weights=distances, minlength=n).tolist()
    counts = np.bincount(window, minlength=n).tolist()
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
