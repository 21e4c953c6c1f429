"""Detection CSV parsing and cross-camera frame synchronization.

The detector side of the system hands over per-camera CSV files with the
fixed header ``camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,
confidence``.  Parsing runs in strict mode (first bad row aborts with a
CsvError naming row and column) or lenient mode (bad rows are skipped and
reported).  Cameras run free, so bundles are assembled by greedy
nearest-timestamp grouping around a reference camera.
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


def select_primary(detections: Iterable[Detection]) -> Detection | None:
    """The single detection that represents a camera frame.

    Highest confidence wins; ties fall to the larger box, then to the
    lexicographically smallest box tuple so the choice is deterministic.
    """
    best: Detection | None = None
    best_key = None
    for det in detections:
        key = (-det.confidence, -det.area, det.bbox)
        if best is None or key < best_key:
            best, best_key = det, key
    return best


@dataclass(frozen=True)
class FrameBundle:
    """At most one detection per camera, grouped around one instant."""

    timestamp_ms: float
    per_camera: Mapping[str, Detection]

    def cameras(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_camera))


def _free(parent: list[int], j: int) -> int:
    """Follow ``parent`` from ``j`` until it leaves the list or stops moving.

    Every index on the way is then pointed straight at that end (path
    compression), so later lookups skip the whole claimed run at once.
    """
    root = j
    while 0 <= root < len(parent) and parent[root] != root:
        root = parent[root]
    while j != root:
        parent[j], j = root, parent[j]
    return root


def synchronize(
    detections: Iterable[Detection],
    tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS,
    reference_camera: str | None = None,
) -> list[FrameBundle]:
    """Group per-camera detections into time-aligned bundles.

    Within each camera, detections sharing a timestamp are first reduced to
    one representative via select_primary.  The reference camera's
    detections then seed one bundle each, in time order; every other camera
    contributes its nearest-in-time unused detection when the offset is
    within ``tolerance_ms`` (an exact tie between an earlier and a later
    candidate takes the earlier one).  No detection lands in two bundles,
    and the bundle count never exceeds the reference camera's detection
    count.  Claimed slots are skipped through path-compressed "next free
    slot" links, so the pass costs O(n log n) per camera.

    Args:
        reference_camera: camera id to group around.  When absent from the
            data (or None), the camera whose first detection is earliest is
            used, ties broken by camera id.
    """
    if tolerance_ms < 0:
        raise ValueError(f"tolerance_ms must be >= 0, got {tolerance_ms}")
    per_frame: dict[tuple[str, float], list[Detection]] = {}
    for det in detections:
        per_frame.setdefault((det.camera_id, det.timestamp_ms), []).append(det)
    by_camera: dict[str, list[Detection]] = {}
    for (camera_id, _), group in per_frame.items():
        chosen = select_primary(group)
        assert chosen is not None
        by_camera.setdefault(camera_id, []).append(chosen)
    for dets in by_camera.values():
        dets.sort(key=lambda d: d.timestamp_ms)
    if not by_camera:
        return []

    if reference_camera is None or reference_camera not in by_camera:
        reference_camera = min(
            by_camera, key=lambda cam: (by_camera[cam][0].timestamp_ms, cam)
        )

    others = [cam for cam in sorted(by_camera) if cam != reference_camera]
    times = {cam: [d.timestamp_ms for d in by_camera[cam]] for cam in others}
    # Per camera, two "next free slot" forests over the detection indices:
    # _free(left, j) is the largest unclaimed index <= j (or -1) and
    # _free(right, j) the smallest unclaimed index >= j (or len).
    left = {cam: list(range(len(ts))) for cam, ts in times.items()}
    right = {cam: list(range(len(ts))) for cam, ts in times.items()}

    def claim_nearest(cam: str, t: float) -> Detection | None:
        ts = times[cam]
        i = bisect.bisect_left(ts, t)
        # ts[lo] < t <= ts[hi]: the earlier candidate is tried first and
        # the later one must be strictly nearer to win
        lo = _free(left[cam], i - 1)
        hi = _free(right[cam], i)
        best = lo if lo >= 0 and t - ts[lo] <= tolerance_ms else None
        if hi < len(ts) and ts[hi] - t <= tolerance_ms and (
            best is None or ts[hi] - t < t - ts[best]
        ):
            best = hi
        if best is None:
            return None
        left[cam][best] = best - 1
        right[cam][best] = best + 1
        return by_camera[cam][best]

    bundles: list[FrameBundle] = []
    for ref_det in by_camera[reference_camera]:
        members = {reference_camera: ref_det}
        for cam in others:
            hit = claim_nearest(cam, ref_det.timestamp_ms)
            if hit is not None:
                members[cam] = hit
        bundles.append(FrameBundle(ref_det.timestamp_ms, members))
    return bundles
