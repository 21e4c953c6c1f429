"""Detection CSV parsing and cross-camera frame synchronization.

The detector side of the system hands over per-camera CSV files with the
fixed header ``camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,
confidence``.  Parsing runs in strict mode (first bad row aborts with a
CsvError naming row and column) or lenient mode (bad rows are skipped and
reported).  Cameras run free, so bundles are assembled in two steps: one
sort per camera picks the detection that stands for each camera frame,
then greedy nearest-timestamp grouping joins those frames around a
reference camera.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CsvError
from .geometry import PixelPoint
from .jsonio import csv_field, read_table, read_table_file, real

CSV_HEADER = (
    "camera_id",
    "frame_index",
    "timestamp_ms",
    "u_min",
    "v_min",
    "u_max",
    "v_max",
    "confidence",
)

DEFAULT_SYNC_TOLERANCE_MS = 25.0


def finite_box(u_min: float, v_min: float, u_max: float, v_max: float) -> bool:
    """Whether a box's centre and area stay finite (finite corners can overflow)."""
    return (
        math.isfinite(u_min + u_max)
        and math.isfinite(v_min + v_max)
        and math.isfinite((u_max - u_min) * (v_max - v_min))
    )


@dataclass(frozen=True)
class Detection:
    """One detector hit: an axis-aligned box in one camera at one time.

    ``frame_index`` is carried through untouched as opaque metadata.
    """

    camera_id: str
    frame_index: str
    timestamp_ms: float
    u_min: float
    v_min: float
    u_max: float
    v_max: float
    confidence: float

    def __post_init__(self):
        if not self.camera_id:
            raise ValueError("camera_id must be non-empty")
        if self.timestamp_ms < 0:
            raise ValueError(f"timestamp_ms must be >= 0, got {self.timestamp_ms}")
        if not self.u_min < self.u_max:
            raise ValueError(f"need u_min < u_max, got {self.u_min} >= {self.u_max}")
        if not self.v_min < self.v_max:
            raise ValueError(f"need v_min < v_max, got {self.v_min} >= {self.v_max}")
        if not finite_box(self.u_min, self.v_min, self.u_max, self.v_max):
            raise ValueError(f"box centre or area is not finite: {self.bbox}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def area(self) -> float:
        return (self.u_max - self.u_min) * (self.v_max - self.v_min)

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return (self.u_min, self.v_min, self.u_max, self.v_max)


def bbox_center(det: Detection) -> PixelPoint:
    """Midpoint of the detection box."""
    return PixelPoint(
        (det.u_min + det.u_max) / 2.0, (det.v_min + det.v_max) / 2.0
    )


@dataclass
class ParseResult:
    """Detections plus, in lenient mode, the rows that were rejected."""

    detections: list[Detection]
    errors: list[CsvError]

    @property
    def skipped(self) -> int:
        return len(self.errors)


def _detection(row: list[str]) -> Detection:
    reals = [real(text, name) for text, name in zip(row[2:], CSV_HEADER[2:])]
    return Detection(row[0], row[1], *reals)


def parse_detections(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse detection rows from an iterable of CSV lines.

    Args:
        lines: the file content, header row first.
        strict: raise on the first malformed row instead of skipping it.
    """
    return ParseResult(*read_table(lines, CSV_HEADER, _detection, strict=strict))


def parse_detections_file(path, strict: bool = False) -> ParseResult:
    return ParseResult(*read_table_file(path, CSV_HEADER, _detection, strict))


def write_detections(path, detections: Iterable[Detection]) -> None:
    """Write a detections CSV; a real's repr parses back to the same float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for d in detections:
            fh.write(
                ",".join(
                    (
                        csv_field(d.camera_id),
                        csv_field(d.frame_index),
                        repr(d.timestamp_ms),
                        repr(d.u_min),
                        repr(d.v_min),
                        repr(d.u_max),
                        repr(d.v_max),
                        repr(d.confidence),
                    )
                )
                + "\n"
            )


@dataclass(frozen=True)
class FrameBundle:
    """At most one detection per camera, grouped around one instant."""

    timestamp_ms: float
    per_camera: Mapping[str, Detection]

    def cameras(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_camera))


def synchronize(
    detections: Iterable[Detection],
    tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS,
    reference_camera: str | None = None,
) -> list[FrameBundle]:
    """Group per-camera detections into time-aligned bundles.

    Within each camera, detections sharing a timestamp are first reduced to
    one representative: the highest confidence, then the larger box, then
    the lexicographically smallest box tuple, then the earliest row.  The
    reference camera's detections then seed one bundle each, in time order;
    every other camera contributes its nearest-in-time unused detection
    when the offset is within ``tolerance_ms`` (an exact tie between an
    earlier and a later candidate takes the earlier one).  No detection
    lands in two bundles, and the bundle count never exceeds the reference
    camera's detection count.  Each camera costs one sort, then one stack
    and one pointer over its claimed slots: O(n log n) per camera.

    Args:
        reference_camera: camera id to group around.  When absent from the
            data (or None), the camera whose first detection is earliest is
            used, ties broken by camera id.
    """
    if not tolerance_ms >= 0:
        raise ValueError(f"tolerance_ms must be >= 0, got {tolerance_ms}")
    by_camera: dict[str, list[Detection]] = {}
    for det in detections:
        by_camera.setdefault(det.camera_id, []).append(det)
    if not by_camera:
        return []
    for cam, dets in by_camera.items():
        # stable, so a full tie keeps the earliest row first in its run
        dets.sort(key=lambda d: (d.timestamp_ms, -d.confidence, -d.area, d.bbox))
        by_camera[cam] = [
            d for k, d in enumerate(dets)
            if k == 0 or d.timestamp_ms != dets[k - 1].timestamp_ms
        ]

    if reference_camera is None or reference_camera not in by_camera:
        reference_camera = min(
            by_camera, key=lambda cam: (by_camera[cam][0].timestamp_ms, cam)
        )

    refs = by_camera[reference_camera]
    members = [{reference_camera: ref} for ref in refs]
    for cam in sorted(by_camera):
        if cam == reference_camera:
            continue
        dets = by_camera[cam]
        ts = [d.timestamp_ms for d in dets]
        # The reference times ascend, so the insertion point never moves
        # left and the slots from it up to ``right`` are all claimed.  The
        # unclaimed slots below ``right`` sit on ``free``, largest on top;
        # every slot from ``right`` on is unclaimed.
        free: list[int] = []
        right = 0
        for ref, per_camera in zip(refs, members):
            t = ref.timestamp_ms
            i = bisect.bisect_left(ts, t)
            if i > right:
                free.extend(range(right, i))
                right = i
            # ts[free[-1]] < t <= ts[right]: the earlier candidate is tried
            # first and the later one must be strictly nearer to win
            early = free[-1] if free and t - ts[free[-1]] <= tolerance_ms else None
            if (
                right < len(ts)
                and ts[right] - t <= tolerance_ms
                and (early is None or ts[right] - t < t - ts[early])
            ):
                per_camera[cam] = dets[right]
                right += 1
            elif early is not None:
                per_camera[cam] = dets[free.pop()]
    return [FrameBundle(ref.timestamp_ms, m) for ref, m in zip(refs, members)]
