"""Detection CSV parsing and cross-camera frame synchronization.

The detector side of the system hands over per-camera CSV files with the
fixed header ``camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,
confidence``.  Parsing runs in strict mode (first bad row aborts with a
CsvError naming row and column) or lenient mode (bad rows are skipped and
reported).

A file is read into one ``DetectionTable`` of ``Detection`` rows through
``DETECTION_FORMAT``.  A plain file (no quote, NUL or bare CR) whose rows
all pass the ``Detection`` rules, run on its columns, is read in one
``np.loadtxt`` pass (``jsonio.fast_table``); ``finite_box`` is the one box
rule.  Any other goes through ``jsonio.read_columns``, which reads each
row into a ``Detection``; ``DetectionTable.of`` puts them into the table.
The camera ids become a ``jsonio.Coded`` column as the file is read: codes
into the file's few camera names, found by one comparison when the file
holds one camera and through a dict when it mixes them.  Joining files
maps the codes onto the union of the names, the non-empty rule and the
calibration check test each name once, and synchronization takes each
row's camera slot from its code.
Each error names its row and reason, and the column of the first field
(in header order) that does not read, else of the first rule the row
fails.  Errors are reported in row order.

Cameras run free, so bundles are assembled in two steps.  One stable
``np.lexsort`` by camera and timestamp finds each camera frame, and only a
frame of two or more rows is reduced by the tie rule.  Greedy
nearest-timestamp grouping then joins those frames around a reference
camera: one ``np.searchsorted`` per camera gives each reference frame its
own nearest candidate, and a claim loop runs only for a camera where two
reference frames want one frame.  The result is a ``BundleTable`` of row
ids, which fusion reads the table through.  ``Detection`` and
``FrameBundle`` objects are the API edge: ``parse_detections`` returns
the ``Detection`` objects ``read_columns`` reads, ``synchronize`` builds
its bundles from a table, and ``DetectionTable.of`` puts Detection objects
into one.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CsvError
from .jsonio import Coded, Columns, TableFormat, compile_rules, csv_field
from .jsonio import read_columns, read_file
from .options import DEFAULT_SYNC_TOLERANCE_MS

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


def finite_box(u_min, v_min, u_max, v_max):
    """Whether a box's centre and area stay finite and its halved area, as
    ``metrics.iou`` computes it, is positive: finite corners can overflow,
    and a tiny box's area can underflow to zero.  Takes floats, or equal-length
    columns for a mask (under np.errstate); NaN and +-inf fail both ways."""
    area = (u_max - u_min) * (v_max - v_min)
    big = sys.float_info.max
    return (
        (abs(u_min + u_max) <= big)
        & (abs(v_min + v_max) <= big)
        & (abs(area) <= big)
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

    rules = (
        ("camera_id", "nonempty(r.camera_id)", "camera_id must be non-empty"),
        ("timestamp_ms", "r.timestamp_ms >= 0",
         "timestamp_ms must be >= 0, got {r.timestamp_ms}"),
        ("timestamp_ms", "r.timestamp_ms != inf",
         "timestamp_ms must be finite, got inf"),
        ("", "r.u_min < r.u_max", "need u_min < u_max, got {r.u_min} >= {r.u_max}"),
        ("", "r.v_min < r.v_max", "need v_min < v_max, got {r.v_min} >= {r.v_max}"),
        ("", "finite_box(r.u_min, r.v_min, r.u_max, r.v_max)",
         "box centre or area is not finite or positive: {r.bbox}"),
        ("confidence", "(0.0 <= r.confidence) & (r.confidence <= 1.0)",
         "confidence must be in [0, 1], got {r.confidence}"),
    )
    __post_init__, passes = compile_rules(rules, finite_box=finite_box)

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return (self.u_min, self.v_min, self.u_max, self.v_max)


@dataclass
class ParseResult:
    """Detections plus, in lenient mode, the rows that were rejected."""

    detections: list[Detection]
    errors: list[CsvError]

    @property
    def skipped(self) -> int:
        return len(self.errors)


@dataclass(frozen=True, eq=False)
class DetectionTable(Columns):
    """Detections as columns, one entry per row in read order.

    Every row holds what a ``Detection`` would.  The camera ids are a
    ``Coded`` column, codes into a tuple of the few camera names, so that
    synchronization and the calibration check look at each name once; the
    frame indices are a str list and the real columns float64 arrays.
    """

    camera_id: Coded
    frame_index: list[str]
    timestamp_ms: np.ndarray
    u_min: np.ndarray
    v_min: np.ndarray
    u_max: np.ndarray
    v_max: np.ndarray
    confidence: np.ndarray

    row = Detection


DETECTION_FORMAT = TableFormat(CSV_HEADER, DetectionTable)


def read_detection_table(
    path, strict: bool = False
) -> tuple[DetectionTable, list[CsvError]]:
    """A detections CSV file as one table, plus the errors of skipped rows."""
    return DETECTION_FORMAT.read(path, strict)


def parse_detections(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse detection rows from an iterable of CSV lines.

    Args:
        lines: the file content, header row first.
        strict: raise on the first malformed row instead of skipping it.
    """
    return ParseResult(*read_columns(lines, CSV_HEADER, DETECTION_FORMAT.make, strict))


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


@dataclass(frozen=True)
class BundleTable:
    """Synchronized bundles as row ids into one detection table.

    ``rows[k, c]`` is the row of camera ``cameras[c]`` in bundle ``k``, or
    -1 when that camera has none; ``timestamp_ms[k]`` is the bundle's
    instant.  ``reference`` is the camera the bundles were grouped around,
    if one was chosen.
    """

    table: DetectionTable
    cameras: tuple[str, ...]
    rows: np.ndarray
    timestamp_ms: np.ndarray
    reference: str | None = None

    def __len__(self) -> int:
        return len(self.rows)


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
    camera's detection count.

    One stable ``np.lexsort`` orders the rows by camera and timestamp, so
    each (camera, timestamp) run keeps its rows in table order; only runs
    of two or more rows are sorted again by the tie rule.  For each other
    camera, one ``np.searchsorted`` then gives every reference time its own
    nearest candidate, ignoring the other claims (``_own_picks``).  When no
    two reference times pick the same slot, those picks are the greedy
    claims; otherwise the stack-and-pointer loop (``_claimed_slots``) runs
    for that camera alone.  O(n log n) in all.

    Args:
        reference_camera: camera id to group around.  When absent from the
            data (or None), the camera whose first detection is earliest is
            used, ties broken by camera id.
    """
    if not tolerance_ms >= 0:
        raise ValueError(f"tolerance_ms must be >= 0, got {tolerance_ms}")
    names = table.camera_id.names
    cameras = sorted(names)
    if not cameras:
        return BundleTable(table, (), np.empty((0, 0), dtype=np.intp), np.empty(0))
    slot = {cam: c for c, cam in enumerate(cameras)}
    # each row's slot, from its camera's code; every name is some row's
    code = np.fromiter(map(slot.__getitem__, names), np.intp, len(names))[
        table.camera_id.codes
    ]
    t = table.timestamp_ms
    kept = _camera_frames(table, code, np.lexsort((t, code)))
    bounds = np.searchsorted(code[kept], np.arange(len(cameras) + 1))
    ids = [kept[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    times = [t[rows] for rows in ids]

    if reference_camera in slot:
        ref = slot[reference_camera]
    else:  # cameras are sorted, and argmin takes the first of equal first times
        ref = int(np.argmin(t[kept[bounds[:-1]]]))

    refs = times[ref]
    rows = np.full((len(refs), len(cameras)), -1, dtype=np.intp)
    for c, ts in enumerate(times):
        if c == ref:
            rows[:, c] = ids[c]
            continue
        picks = _own_picks(ts, refs, tolerance_ms)
        if picks is None:
            picks = _claimed_slots(ts.tolist(), refs.tolist(), tolerance_ms)
        # a pick of -1 takes the appended -1: no detection of this camera
        rows[:, c] = np.append(ids[c], -1)[picks]
    return BundleTable(table, tuple(cameras), rows, refs, cameras[ref])


def _camera_frames(
    table: DetectionTable, code: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """The row that stands for each camera frame, in ``order``.

    ``order`` sorts the rows by camera and timestamp and keeps table order
    within a (camera, timestamp) run; a run of one row stands for itself,
    and a longer one is reduced by the tie rule.
    """
    t = table.timestamp_ms
    # a run starts where the camera or the timestamp changes; != joins -0.0 and 0.0
    first = np.ones(len(order), dtype=bool)
    first[1:] = (code[order[1:]] != code[order[:-1]]) | (t[order[1:]] != t[order[:-1]])
    starts = np.flatnonzero(first)
    kept = order[starts]
    if len(starts) == len(order):
        return kept
    sizes = np.diff(starts, append=len(order))
    shared = np.flatnonzero(sizes > 1)
    rows = order[np.repeat(sizes > 1, sizes)]
    run = np.repeat(shared, sizes[shared])
    area = (table.u_max[rows] - table.u_min[rows]) * (
        table.v_max[rows] - table.v_min[rows]
    )
    # stable, so a full tie keeps the earliest row first
    best = np.lexsort(
        (
            table.v_max[rows],
            table.u_max[rows],
            table.v_min[rows],
            table.u_min[rows],
            -area,
            -table.confidence[rows],
            run,
        )
    )
    lead = np.ones(len(best), dtype=bool)
    lead[1:] = run[best[1:]] != run[best[:-1]]
    kept[shared] = rows[best[lead]]
    return kept


def _own_picks(
    ts: np.ndarray, refs: np.ndarray, tolerance_ms: float
) -> np.ndarray | None:
    """Each reference time's nearest in-tolerance slot of ``ts``, or -1, as
    if no slot were claimed yet; None when two reference times pick one slot.

    Both arguments ascend strictly.  At insertion point ``i`` the candidates
    are ``i - 1`` and ``i``, and the later one must be strictly nearer to
    win.  The picks never decrease: a later reference time has an insertion
    point no further left, and between the same two slots it is no nearer
    the earlier one.  So one adjacent-equal test finds a shared slot.

    Without one, the picks are what ``_claimed_slots`` claims.  By induction
    over the reference times, suppose every earlier time claimed its own
    pick; the current pick is shared with none of them, so it is unclaimed.
    The loop keeps every slot from ``i`` up to ``right`` claimed, and
    ``free[-1]`` is the largest unclaimed slot below ``i``.  An unclaimed
    pick ``i`` therefore forces ``right == i``, and ``free[-1] <= i - 1``
    is no nearer, so the loop takes ``i``.  An unclaimed pick ``i - 1`` is
    ``free[-1]``, and ``right >= i`` is no nearer than ``i``, so the loop
    takes ``i - 1``.  With no pick, the loop's candidates lie no nearer than
    ``i - 1`` and ``i``, out of tolerance, so it claims nothing.
    """
    i = np.searchsorted(ts, refs, "left")
    later_gap = ts[np.minimum(i, len(ts) - 1)] - refs
    early_gap = refs - ts[np.maximum(i - 1, 0)]
    later = (i < len(ts)) & (later_gap <= tolerance_ms)
    early = (i > 0) & (early_gap <= tolerance_ms)
    take_later = later & (~early | (later_gap < early_gap))
    picks = np.where(take_later, i, np.where(early, i - 1, -1))
    claimed = picks[picks >= 0]
    if (claimed[1:] == claimed[:-1]).any():
        return None
    return picks


def _claimed_slots(
    ts: list[float], refs: list[float], tolerance_ms: float
) -> list[int]:
    """The greedy claims: each reference time in turn takes its nearest
    unclaimed in-tolerance slot of ``ts``, or -1."""
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
            claimed[k] = right
            right += 1
        elif early is not None:
            claimed[k] = free.pop()
    return claimed


def synchronize(
    detections: Iterable[Detection],
    tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS,
    reference_camera: str | None = None,
) -> list[FrameBundle]:
    """synchronize_table over detection objects; bundles hold those objects."""
    detections = list(detections)
    bundles = synchronize_table(
        DetectionTable.of(detections), tolerance_ms, reference_camera
    )
    return [
        FrameBundle(t, {cam: detections[r] for cam, r in zip(bundles.cameras, row) if r >= 0})
        for t, row in zip(bundles.timestamp_ms.tolist(), bundles.rows.tolist())
    ]
