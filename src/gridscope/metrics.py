"""Detector quality metrics: IoU matching, PR, interpolated AP, fitness.

Single-class evaluation.  Predictions are ranked by descending confidence
(ties keep input order) and each one greedily claims the unmatched
ground-truth box in its own frame with the highest IoU at or above the
threshold (IoU ties go to the earliest ground-truth row).

Both inputs are tables: predictions a ``DetectionTable``, ground truth a
``GroundTruthTable`` (frame ids as a str list, corners as float64
columns).  A plain ground-truth file whose rows all pass the column masks
is read in one ``np.loadtxt`` pass; any other is read one row at a time
into ``GroundTruthBox`` objects, which ``GroundTruthTable.of`` puts into
the table.  All thresholds share one array of candidate pairs: every
(prediction, same-frame box) pair, predictions in rank order and boxes in
row order, whose IoUs ``pair_iou`` computes once in numpy with ``iou``'s
operations, so the doubles are the same.  At each threshold, a candidate at or above it that is the only one
of both its prediction and its box is a hit by array operations; only the
rest, where predictions contest a box or a prediction has a choice, go
through the greedy claim loop, and each threshold keeps its own claimed
boxes.

Average precision interpolates the precision/recall staircase at the 101
recall points 0.00, 0.01, ..., 1.00, taking at each point the maximum
precision among ranks whose recall reaches it.  Recall never decreases
with rank, so those ranks form a suffix: a suffix maximum of precision and
one binary search over recall give every point.  The mean over the ten
thresholds 0.50, 0.55, ..., 0.95 gives the stricter mAP, and the scalar
used for model selection weights the two as

    fitness = 0.1 * mAP@.5 + 0.9 * mAP@.5:95

with zero weight on raw precision and recall.

``Detection`` and ``GroundTruthBox`` lists are the API edge: every
function that takes predictions and ground truth also takes them as lists
of objects, and puts them into tables with ``of`` to run the same code;
``read_predictions`` and ``read_ground_truth`` give a table's ``rows`` as
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Sequence

import numpy as np

from .detections import (
    Detection,
    DetectionTable,
    finite_box,
    read_detection_table,
)
from .errors import NoGroundTruth, UndefinedMetric
from .jsonio import Columns, TableFormat, real

GT_HEADER = ("frame_id", "u_min", "v_min", "u_max", "v_max")

# i/100 keeps thresholds exact so boxes engineered to a rational IoU
# compare predictably
MAP_THRESHOLDS = tuple(i / 100.0 for i in range(50, 100, 5))

RECALL_POINTS = tuple(i / 100.0 for i in range(101))
_RECALL_POINTS = np.array(RECALL_POINTS)

# Candidate pairs get their IoUs about this many at a time, so a frame with
# thousands of boxes and predictions needs no arrays of all its pairs.
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True, slots=True)
class GroundTruthBox:
    frame_id: str
    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if not self.u_min < self.u_max or not self.v_min < self.v_max:
            raise ValueError(
                f"degenerate ground-truth box "
                f"({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
            )
        if not finite_box(self.u_min, self.v_min, self.u_max, self.v_max):
            raise ValueError(
                f"ground-truth box centre or area is not finite or positive: "
                f"({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
            )


@dataclass(frozen=True, eq=False)
class GroundTruthTable(Columns):
    """Ground-truth boxes as columns, one entry per row in read order."""

    frame_id: list[str]
    u_min: np.ndarray
    v_min: np.ndarray
    u_max: np.ndarray
    v_max: np.ndarray

    def corners(self) -> list[np.ndarray]:
        return [self.u_min, self.v_min, self.u_max, self.v_max]


# Predictions and ground truth as tables, or as lists of objects.
Predictions = DetectionTable | Sequence[Detection]
GroundTruth = GroundTruthTable | Sequence[GroundTruthBox]


def iou(box_a, box_b) -> float:
    """Intersection over union of two (u_min, v_min, u_max, v_max) boxes.

    The union is summed at half scale, so two areas near the float maximum
    cannot overflow it; halving is exact for normal numbers, so the ratio
    is the same as at full scale.  Every box the readers accept has a
    positive halved area, so no pair of them divides by zero.
    """
    ax0, ay0, ax1, ay1 = box_a
    bx0, by0, bx1, by1 = box_b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    half = 0.5 * (iw * ih)
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    return half / (0.5 * area_a + 0.5 * area_b - half)


def pair_iou(boxes_a: Sequence[np.ndarray], boxes_b: Sequence[np.ndarray]) -> np.ndarray:
    """``iou`` of each pair of rows of two boxes given as corner columns.

    The operations are ``iou``'s, in its order, so every value is the
    double ``iou`` returns for that pair.
    """
    ax0, ay0, ax1, ay1 = boxes_a
    bx0, by0, bx1, by1 = boxes_b
    with np.errstate(all="ignore"):  # a pair that does not overlap may give any value
        iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
        ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
        half = 0.5 * (iw * ih)
        area_a = (ax1 - ax0) * (ay1 - ay0)
        area_b = (bx1 - bx0) * (by1 - by0)
        ratio = half / (0.5 * area_a + 0.5 * area_b - half)
    return np.where((iw > 0.0) & (ih > 0.0), ratio, 0.0)


def _tables(
    predictions: Predictions, ground_truth: GroundTruth
) -> tuple[DetectionTable, GroundTruthTable]:
    """Both inputs as tables; lists of objects are converted."""
    if not isinstance(predictions, DetectionTable):
        predictions = DetectionTable.of(predictions)
    if not isinstance(ground_truth, GroundTruthTable):
        ground_truth = GroundTruthTable.of(ground_truth)
    return predictions, ground_truth


def _candidates(
    predictions: DetectionTable, ground_truth: GroundTruthTable, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rank, box row, IoU) of each same-frame pair with a positive IoU.

    ``order`` ranks the predictions.  Pairs run by rank, and by box row
    within a rank; every pair's IoU is computed once, a block of ranks at a
    time.  A pair of IoU 0 claims at no threshold, so it is dropped.
    """
    codes = {f: c for c, f in enumerate(dict.fromkeys(ground_truth.frame_id))}
    box_code = np.fromiter(
        map(codes.__getitem__, ground_truth.frame_id), np.intp, len(ground_truth)
    )
    # a frame without boxes gets the code len(codes), which holds none
    pred_code = np.fromiter(
        map(codes.get, predictions.frame_index, repeat(len(codes))),
        np.intp,
        len(predictions),
    )
    rank_code = pred_code[order]
    by_frame = np.argsort(box_code, kind="stable")
    per_frame = np.bincount(box_code, minlength=len(codes) + 1)
    frame_start = np.cumsum(per_frame) - per_frame  # first index into by_frame
    n_pairs = per_frame[rank_code]
    ends = np.cumsum(n_pairs)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_PAIR_BLOCK, total, _PAIR_BLOCK), "right")
    pred_corners = (
        predictions.u_min, predictions.v_min, predictions.u_max, predictions.v_max
    )
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    bounds = [0, *cuts.tolist(), len(order)]
    for lo, hi in zip(bounds, bounds[1:]):
        counts = n_pairs[lo:hi]
        rank = np.repeat(np.arange(lo, hi), counts)
        # the pair's box is its rank's frame start plus its place in the rank
        shift = frame_start[rank_code[lo:hi]] - (np.cumsum(counts) - counts)
        box = by_frame[np.repeat(shift, counts) + np.arange(len(rank))]
        rows = order[rank]
        overlap = pair_iou(
            [c[rows] for c in pred_corners], [c[box] for c in ground_truth.corners()]
        )
        positive = overlap > 0.0
        found.append((rank[positive], box[positive], overlap[positive]))
    return tuple(map(np.concatenate, zip(*found)))


def _claims(ranks: list[int], boxes: list[int], overlaps: list[float]) -> list[int]:
    """The ranks that claim a box, by the greedy loop over candidates.

    Candidates come by rank, and by box row within a rank.  Each rank in
    turn claims its unclaimed box of highest IoU; the strict ``>`` gives an
    IoU tie to the earliest row.
    """
    taken: set[int] = set()
    hits = []
    for rank, group in groupby(zip(ranks, boxes, overlaps), key=itemgetter(0)):
        best, best_iou = -1, 0.0
        for _, box, overlap in group:
            if overlap > best_iou and box not in taken:
                best, best_iou = box, overlap
        if best >= 0:
            taken.add(best)
            hits.append(rank)
    return hits


def _match_flags(
    predictions: Predictions,
    ground_truth: GroundTruth,
    thresholds: Sequence[float],
) -> list[np.ndarray]:
    """True-positive flag per ranked prediction, one bool array per threshold.

    The candidate pairs and their IoUs are shared by every threshold; each
    threshold keeps its own record of claimed boxes.
    """
    predictions, ground_truth = _tables(predictions, ground_truth)
    # stable: equal confidences keep their input order
    order = np.argsort(-predictions.confidence, kind="stable")
    rank, box, overlap = _candidates(predictions, ground_truth, order)
    flags = []
    for threshold in thresholds:
        above = overlap >= threshold
        r, b, v = rank[above], box[above], overlap[above]
        # the only candidate of its prediction and of its box is a hit
        alone = np.bincount(r, minlength=len(order))[r] == 1
        alone &= np.bincount(b, minlength=len(ground_truth))[b] == 1
        hit = np.zeros(len(order), dtype=bool)
        hit[r[alone]] = True
        rest = ~alone
        hit[_claims(r[rest].tolist(), b[rest].tolist(), v[rest].tolist())] = True
        flags.append(hit)
    return flags


def _interpolated_ap(hit: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of one ranked true-positive flag array."""
    tp = np.cumsum(hit)
    precision = tp / np.arange(1, len(hit) + 1)
    recall = tp / n_gt
    # the best precision at each rank or later
    best = np.maximum.accumulate(precision[::-1])[::-1]
    # recall never decreases, so the ranks reaching a point form a suffix
    k = np.searchsorted(recall, _RECALL_POINTS, "left")
    total = 0.0
    for value in best[k[k < len(hit)]].tolist():
        total += value
    return total / len(RECALL_POINTS)


def _average_precisions(flags: Sequence[np.ndarray], n_gt: int) -> list[float]:
    if not n_gt:
        raise NoGroundTruth("average precision needs ground-truth boxes")
    return [_interpolated_ap(f, n_gt) for f in flags]


@dataclass(frozen=True)
class MatchOutcome:
    """Counts from matching one prediction set at one IoU threshold."""

    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("match counts cannot be negative")


def _outcome(hit: np.ndarray, n_gt: int) -> MatchOutcome:
    tp = int(np.count_nonzero(hit))
    return MatchOutcome(tp=tp, fp=len(hit) - tp, fn=n_gt - tp)


def match_greedy(
    predictions: Predictions,
    ground_truth: GroundTruth,
    iou_threshold: float = 0.5,
) -> MatchOutcome:
    """Greedy confidence-ordered matching at one IoU threshold.

    Counts are conserved: tp + fn equals the number of ground-truth boxes
    and tp + fp the number of predictions.
    """
    flags = _match_flags(predictions, ground_truth, (iou_threshold,))[0]
    return _outcome(flags, len(ground_truth))


def precision_recall(outcome: MatchOutcome) -> tuple[float, float]:
    """Precision and recall from match counts.

    Raises:
        UndefinedMetric: the relevant denominator is zero; the message
            names it.
    """
    if outcome.tp + outcome.fp == 0:
        raise UndefinedMetric("precision undefined: tp + fp is zero")
    if outcome.tp + outcome.fn == 0:
        raise UndefinedMetric("recall undefined: tp + fn is zero")
    return (
        outcome.tp / (outcome.tp + outcome.fp),
        outcome.tp / (outcome.tp + outcome.fn),
    )


def average_precision(
    predictions: Predictions,
    ground_truth: GroundTruth,
    iou_threshold: float = 0.5,
) -> float:
    """101-point interpolated average precision at one IoU threshold.

    Raises:
        NoGroundTruth: there are no ground-truth boxes to recall.
    """
    flags = _match_flags(predictions, ground_truth, (iou_threshold,))
    return _average_precisions(flags, len(ground_truth))[0]


def fitness(precision: float, recall: float, map50: float, map5095: float) -> float:
    """Model-selection scalar; precision and recall carry zero weight."""
    return 0.0 * precision + 0.0 * recall + 0.1 * map50 + 0.9 * map5095


# --- file I/O ---------------------------------------------------------------


def _ground_truth_box(frame_id: str, *texts: str) -> GroundTruthBox:
    reals = [real(text, name) for text, name in zip(texts, GT_HEADER[1:])]
    return GroundTruthBox(frame_id, *reals)


def _ground_truth_mask(texts: list[list[str]], corners) -> np.ndarray:
    """Which rows of finite corners pass every GroundTruthBox check, as masks."""
    u_min, v_min, u_max, v_max = corners
    with np.errstate(all="ignore"):
        return (u_min < u_max) & (v_min < v_max) & finite_box(*corners)


GROUND_TRUTH_FORMAT = TableFormat(
    GT_HEADER,
    tuple(range(1, len(GT_HEADER))),
    _ground_truth_mask,
    lambda texts, corners: GroundTruthTable(*texts, *corners),
    _ground_truth_box,
    GroundTruthTable.of,
)


def read_ground_truth_table(path) -> GroundTruthTable:
    """A ground-truth CSV file as one table; a bad row raises its CsvError."""
    return GROUND_TRUTH_FORMAT.read(path)[0]


def read_ground_truth(path) -> list[GroundTruthBox]:
    """read_ground_truth_table, with its rows as GroundTruthBox objects."""
    return read_ground_truth_table(path).rows(GroundTruthBox)


def read_predictions(path, strict: bool = True) -> list[Detection]:
    """Predictions use the detection CSV layout; frame_index keys frames."""
    return read_detection_table(path, strict)[0].rows(Detection)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    map50: float
    map5095: float
    fitness: float
    per_threshold: tuple[tuple[float, float], ...]  # (threshold, AP)

    def as_doc(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "map50": self.map50,
            "map50_95": self.map5095,
            "fitness": self.fitness,
            "average_precision": [
                {"iou_threshold": t, "ap": ap} for t, ap in self.per_threshold
            ],
        }

    def human_table(self) -> str:
        lines = [f"{'IoU threshold':>14} {'AP':>10}"]
        for t, ap in self.per_threshold:
            lines.append(f"{t:>14.2f} {ap:>10.4f}")
        lines.append("")
        lines.append(f"precision (IoU 0.50): {self.precision:.4f}")
        lines.append(f"recall    (IoU 0.50): {self.recall:.4f}")
        lines.append(f"mAP@.5:       {self.map50:.4f}")
        lines.append(f"mAP@.5:.95:   {self.map5095:.4f}")
        lines.append(f"fitness:      {self.fitness:.4f}")
        return "\n".join(lines) + "\n"


def evaluate_detections(
    predictions: Predictions,
    ground_truth: GroundTruth,
) -> MetricsReport:
    """Precision and recall at IoU 0.50 and AP at every MAP_THRESHOLDS
    value, from one matching pass over the ranked predictions."""
    flags = _match_flags(predictions, ground_truth, MAP_THRESHOLDS)
    # MAP_THRESHOLDS[0] is 0.50, the precision/recall threshold
    precision, recall = precision_recall(_outcome(flags[0], len(ground_truth)))
    aps = _average_precisions(flags, len(ground_truth))
    map50, map5095 = aps[0], sum(aps) / len(aps)
    return MetricsReport(
        precision=precision,
        recall=recall,
        map50=map50,
        map5095=map5095,
        fitness=fitness(precision, recall, map50, map5095),
        per_threshold=tuple(zip(MAP_THRESHOLDS, aps)),
    )
