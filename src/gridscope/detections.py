"""Detection CSV parsing and cross-camera frame synchronization.

The detector side of the system hands over per-camera CSV files with the
fixed header ``camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,
confidence``.  Parsing runs in strict mode (first bad row aborts with a
CsvError naming row and column) or lenient mode (bad rows are skipped and
reported).

A file is read into one ``DetectionTable``: ``jsonio.read_columns`` hands
over blocks of rows as columns, each real column goes through ``float``
in one pass, and every ``Detection`` check runs as a column mask.  Only
the rows a mask refuses are read again one at a time, as a ``Detection``
would be, so each error names the same row, column and reason: the first
real column (in header order) that is not a finite number, else the
first failed check.  Errors are reported in row order.

Cameras run free, so bundles are assembled in two steps: one stable
``np.lexsort`` over the whole table picks the detection that stands for
each camera frame, then greedy nearest-timestamp grouping joins those
frames around a reference camera.  The result is a ``BundleTable`` of row
ids, which fusion reads the table through.  ``Detection`` and
``FrameBundle`` objects are the API edge: ``parse_detections`` and
``synchronize`` build them from the same table code.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

from .errors import CsvError
from .geometry import PixelPoint
from .jsonio import checked_table, csv_field, float_column, read_columns, read_file, real

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
_REAL_COLUMNS = CSV_HEADER[2:]

DEFAULT_SYNC_TOLERANCE_MS = 25.0


def finite_box(u_min: float, v_min: float, u_max: float, v_max: float) -> bool:
    """Whether a box's centre and area stay finite and its halved area, as
    ``metrics.iou`` computes it, is positive: finite corners can overflow,
    and a tiny box's area can underflow to zero."""
    area = (u_max - u_min) * (v_max - v_min)
    return (
        math.isfinite(u_min + u_max)
        and math.isfinite(v_min + v_max)
        and math.isfinite(area)
        and 0.5 * area > 0
    )


def box_mask(
    u_min: np.ndarray, v_min: np.ndarray, u_max: np.ndarray, v_max: np.ndarray
) -> np.ndarray:
    """finite_box of each row of four columns (call under np.errstate)."""
    area = (u_max - u_min) * (v_max - v_min)
    return (
        np.isfinite(u_min + u_max)
        & np.isfinite(v_min + v_max)
        & np.isfinite(area)
        & (0.5 * area > 0)
    )


# slots: the object API holds one of these per detection row
@dataclass(frozen=True, slots=True)
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
        if not self.timestamp_ms >= 0:
            raise ValueError(f"timestamp_ms must be >= 0, got {self.timestamp_ms}")
        if not self.u_min < self.u_max:
            raise ValueError(f"need u_min < u_max, got {self.u_min} >= {self.u_max}")
        if not self.v_min < self.v_max:
            raise ValueError(f"need v_min < v_max, got {self.v_min} >= {self.v_max}")
        if not finite_box(self.u_min, self.v_min, self.u_max, self.v_max):
            raise ValueError(
                f"box centre or area is not finite or positive: {self.bbox}"
            )
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


@dataclass(frozen=True)
class DetectionTable:
    """Detections as columns, one entry per row in read order.

    Every row holds what a ``Detection`` would: the text columns are str
    lists and the real columns float64 arrays.
    """

    camera_id: list[str]
    frame_index: list[str]
    timestamp_ms: np.ndarray
    u_min: np.ndarray
    v_min: np.ndarray
    u_max: np.ndarray
    v_max: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.camera_id)

    def _reals(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _REAL_COLUMNS]

    def take(self, rows: np.ndarray) -> "DetectionTable":
        """The table of ``rows`` (indices), in that order."""
        picked = rows.tolist()
        return DetectionTable(
            [self.camera_id[i] for i in picked],
            [self.frame_index[i] for i in picked],
            *(column[rows] for column in self._reals()),
        )

    @classmethod
    def concat(cls, tables: list["DetectionTable"]) -> "DetectionTable":
        """One table holding the rows of ``tables`` in turn."""
        if len(tables) == 1:
            return tables[0]
        return cls(
            list(chain.from_iterable(t.camera_id for t in tables)),
            list(chain.from_iterable(t.frame_index for t in tables)),
            *map(np.concatenate, zip(*(t._reals() for t in tables))),
        )

    @classmethod
    def from_detections(cls, detections: list[Detection]) -> "DetectionTable":
        def column(name: str) -> np.ndarray:
            values = map(attrgetter(name), detections)
            return np.fromiter(values, float, len(detections))

        return cls(
            [d.camera_id for d in detections],
            [d.frame_index for d in detections],
            *map(column, _REAL_COLUMNS),
        )

    def detections(self) -> list[Detection]:
        return list(
            map(
                Detection,
                self.camera_id,
                self.frame_index,
                *(column.tolist() for column in self._reals()),
            )
        )


def _detection(camera_id: str, frame_index: str, *texts: str) -> Detection:
    reals = [real(text, name) for text, name in zip(texts, _REAL_COLUMNS)]
    return Detection(camera_id, frame_index, *reals)


def _detection_columns(
    columns: list[list[str]],
) -> tuple[DetectionTable, list[tuple[int, Exception]]]:
    """The table of the rows that pass every Detection check (a read_columns check).

    The checks run as column masks; only a row that fails one goes through
    ``_detection``, whose error names the row's first failing column.
    """
    cameras, frames, *texts = columns
    reals = [float_column(column) for column in texts]
    t, u_min, v_min, u_max, v_max, confidence = reals
    with np.errstate(all="ignore"):
        ok = np.isfinite(reals).all(axis=0)
        ok &= (t >= 0) & (u_min < u_max) & (v_min < v_max)
        ok &= box_mask(u_min, v_min, u_max, v_max)
        ok &= (0.0 <= confidence) & (confidence <= 1.0)
    ok &= np.fromiter(map(bool, cameras), bool, len(cameras))
    return checked_table(DetectionTable(cameras, frames, *reals), ok, columns, _detection)


def _detection_list(
    columns: list[list[str]],
) -> tuple[list[Detection], list[tuple[int, Exception]]]:
    """_detection_columns, with the table's rows as Detection objects."""
    table, refused = _detection_columns(columns)
    return table.detections(), refused


def read_detection_table(
    path, strict: bool = False
) -> tuple[DetectionTable, list[CsvError]]:
    """A detections CSV file as one table, plus the errors of skipped rows."""
    return read_file(
        path, read_columns, CSV_HEADER, _detection_columns, DetectionTable.concat, strict
    )


def parse_detections(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse detection rows from an iterable of CSV lines.

    Args:
        lines: the file content, header row first.
        strict: raise on the first malformed row instead of skipping it.
    """
    return ParseResult(*read_columns(lines, CSV_HEADER, _detection_list, strict=strict))


def parse_detections_file(path, strict: bool = False) -> ParseResult:
    return read_file(path, parse_detections, strict)


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


@dataclass(frozen=True)
class BundleTable:
    """Synchronized bundles as row ids into one detection table.

    ``rows[k, c]`` is the row of camera ``cameras[c]`` in bundle ``k``, or
    -1 when that camera has none; ``timestamp_ms[k]`` is the bundle's
    instant.
    """

    table: DetectionTable
    cameras: tuple[str, ...]
    rows: np.ndarray
    timestamp_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_frame_bundles(cls, bundles: list[FrameBundle]) -> "BundleTable":
        """The bundles over a table of their detections, one row per member."""
        cameras = sorted({cam for bundle in bundles for cam in bundle.per_camera})
        slot = {cam: c for c, cam in enumerate(cameras)}
        rows = np.full((len(bundles), len(cameras)), -1, dtype=np.intp)
        members: list[Detection] = []
        for k, bundle in enumerate(bundles):
            for cam, det in bundle.per_camera.items():
                rows[k, slot[cam]] = len(members)
                members.append(det)
        times = np.fromiter((b.timestamp_ms for b in bundles), float, len(bundles))
        return cls(DetectionTable.from_detections(members), tuple(cameras), rows, times)


def synchronize_table(
    table: DetectionTable,
    tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS,
    reference_camera: str | None = None,
) -> BundleTable:
    """Group a table's detections into time-aligned bundles.

    Within each camera, detections sharing a timestamp are first reduced to
    one representative: the highest confidence, then the larger box, then
    the lexicographically smallest box tuple, then the earliest row.  The
    reference camera's detections then seed one bundle each, in time order;
    every other camera contributes its nearest-in-time unused detection
    when the offset is within ``tolerance_ms`` (an exact tie between an
    earlier and a later candidate takes the earlier one).  No detection
    lands in two bundles, and the bundle count never exceeds the reference
    camera's detection count.  One stable ``np.lexsort`` orders every row
    by camera and that key; claims then cost one stack and one pointer per
    camera over its claimed slots: O(n log n) in all.

    Args:
        reference_camera: camera id to group around.  When absent from the
            data (or None), the camera whose first detection is earliest is
            used, ties broken by camera id.
    """
    if not tolerance_ms >= 0:
        raise ValueError(f"tolerance_ms must be >= 0, got {tolerance_ms}")
    cameras = sorted(set(table.camera_id))
    if not cameras:
        return BundleTable(table, (), np.empty((0, 0), dtype=np.intp), np.empty(0))
    slot = {cam: c for c, cam in enumerate(cameras)}
    code = np.fromiter(map(slot.__getitem__, table.camera_id), np.intp, len(table))
    t = table.timestamp_ms
    area = (table.u_max - table.u_min) * (table.v_max - table.v_min)
    order = np.lexsort(
        (
            table.v_max,
            table.u_max,
            table.v_min,
            table.u_min,
            -area,
            -table.confidence,
            t,
            code,
        )
    )
    # the first row of each (camera, timestamp) run; != keeps -0.0 == 0.0
    first = np.ones(len(order), dtype=bool)
    first[1:] = (code[order[1:]] != code[order[:-1]]) | (t[order[1:]] != t[order[:-1]])
    kept = order[first]
    bounds = np.searchsorted(code[kept], np.arange(len(cameras) + 1)).tolist()
    ids = [kept[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    times = [t[rows].tolist() for rows in ids]

    if reference_camera in slot:
        ref = slot[reference_camera]
    else:  # cameras are sorted, so an equal first time goes to the smaller id
        ref = min(range(len(cameras)), key=lambda c: times[c][0])

    refs = times[ref]
    rows = np.full((len(refs), len(cameras)), -1, dtype=np.intp)
    for c, ts in enumerate(times):
        if c == ref:
            rows[:, c] = ids[c]
            continue
        own = ids[c].tolist()
        claimed = [-1] * len(refs)
        # The reference times ascend, so the insertion point never moves
        # left and the slots from it up to ``right`` are all claimed.  The
        # unclaimed slots below ``right`` sit on ``free``, largest on top;
        # every slot from ``right`` on is unclaimed.
        free: list[int] = []
        right = 0
        for k, tr in enumerate(refs):
            i = bisect.bisect_left(ts, tr)
            if i > right:
                free.extend(range(right, i))
                right = i
            # ts[free[-1]] < tr <= ts[right]: the earlier candidate is tried
            # first and the later one must be strictly nearer to win
            early = free[-1] if free and tr - ts[free[-1]] <= tolerance_ms else None
            if (
                right < len(ts)
                and ts[right] - tr <= tolerance_ms
                and (early is None or ts[right] - tr < tr - ts[early])
            ):
                claimed[k] = own[right]
                right += 1
            elif early is not None:
                claimed[k] = own[free.pop()]
        rows[:, c] = claimed
    return BundleTable(table, tuple(cameras), rows, t[ids[ref]])


def synchronize(
    detections: Iterable[Detection],
    tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS,
    reference_camera: str | None = None,
) -> list[FrameBundle]:
    """synchronize_table over detection objects; bundles hold those objects."""
    detections = list(detections)
    bundles = synchronize_table(
        DetectionTable.from_detections(detections), tolerance_ms, reference_camera
    )
    return [
        FrameBundle(t, {cam: detections[r] for cam, r in zip(bundles.cameras, row) if r >= 0})
        for t, row in zip(bundles.timestamp_ms.tolist(), bundles.rows.tolist())
    ]
