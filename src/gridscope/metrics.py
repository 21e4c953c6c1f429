"""Detector quality metrics: IoU matching, PR, interpolated AP, fitness.

Single-class evaluation.  Predictions are ranked by descending confidence
(ties keep input order) and each one greedily claims the unmatched
ground-truth box in its own frame with the highest IoU at or above the
threshold (IoU ties go to the earliest ground-truth row).  All thresholds
are matched in one pass: each prediction's IoUs with its frame's boxes are
computed once, and every threshold keeps its own claimed boxes.  Average
precision interpolates the precision/recall staircase at the 101 recall
points 0.00, 0.01, ..., 1.00, taking at each point the maximum precision
among ranks whose recall reaches it.  Recall never decreases with rank, so
those ranks form a suffix: a suffix maximum of precision plus a binary
search over recall gives each point in O(log N).  The mean over the ten
thresholds 0.50, 0.55, ..., 0.95 gives the stricter mAP, and the scalar
used for model selection weights the two as

    fitness = 0.1 * mAP@.5 + 0.9 * mAP@.5:95

with zero weight on raw precision and recall.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .detections import Detection, finite_box, parse_detections_file
from .errors import NoGroundTruth, UndefinedMetric
from .jsonio import read_table_file, real

GT_HEADER = ("frame_id", "u_min", "v_min", "u_max", "v_max")

# i/100 keeps thresholds exact so boxes engineered to a rational IoU
# compare predictably
MAP_THRESHOLDS = tuple(i / 100.0 for i in range(50, 100, 5))

RECALL_POINTS = tuple(i / 100.0 for i in range(101))


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
                f"ground-truth box centre or area is not finite: "
                f"({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
            )


def iou(box_a, box_b) -> float:
    """Intersection over union of two (u_min, v_min, u_max, v_max) boxes.

    The union is summed at half scale, so two areas near the float maximum
    cannot overflow it; halving is exact for normal numbers, so the ratio
    is the same as at full scale.
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


def _ranked(predictions: Sequence[Detection]) -> list[Detection]:
    # stable sort: equal confidences keep their input order
    return sorted(predictions, key=lambda d: -d.confidence)


def _match_flags(
    predictions: Sequence[Detection],
    ground_truth: Sequence[GroundTruthBox],
    thresholds: Sequence[float],
) -> list[bytearray]:
    """True-positive flag per ranked prediction, one list per threshold.

    Each prediction's IoUs with the boxes of its frame are computed once
    and shared by every threshold; each threshold keeps its own record of
    claimed boxes.
    """
    gt_by_frame: dict[str, list[tuple[int, tuple[float, ...]]]] = {}
    for idx, gt in enumerate(ground_truth):
        gt_by_frame.setdefault(gt.frame_id, []).append(
            (idx, (gt.u_min, gt.v_min, gt.u_max, gt.v_max))
        )
    claimed = [bytearray(len(ground_truth)) for _ in thresholds]
    flags = [bytearray() for _ in thresholds]
    for pred in _ranked(predictions):
        overlaps = [
            (idx, iou(pred.bbox, box))
            for idx, box in gt_by_frame.get(pred.frame_index, ())
        ]
        for threshold, taken, out in zip(thresholds, claimed, flags):
            best_idx = None
            best_iou = 0.0
            for idx, overlap in overlaps:
                if overlap >= threshold and overlap > best_iou and not taken[idx]:
                    best_idx, best_iou = idx, overlap
            if best_idx is None:
                out.append(0)
            else:
                taken[best_idx] = 1
                out.append(1)
    return flags


def _interpolated_ap(flags: Sequence[int], n_gt: int) -> float:
    """101-point interpolated AP of one ranked true-positive flag list."""
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += flag
        precisions.append(tp / rank)
        recalls.append(tp / n_gt)
    # precisions[k] becomes the best precision at index k or later
    for k in range(len(precisions) - 2, -1, -1):
        if precisions[k + 1] > precisions[k]:
            precisions[k] = precisions[k + 1]
    total = 0.0
    for r in RECALL_POINTS:
        # recalls never decrease, so ranks reaching r form a suffix
        k = bisect_left(recalls, r)
        if k == len(recalls):
            break
        total += precisions[k]
    return total / len(RECALL_POINTS)


def _average_precisions(
    flags: Sequence[Sequence[int]], ground_truth: Sequence[GroundTruthBox]
) -> list[float]:
    if not ground_truth:
        raise NoGroundTruth("average precision needs ground-truth boxes")
    return [_interpolated_ap(f, len(ground_truth)) for f in flags]


@dataclass(frozen=True)
class MatchOutcome:
    """Counts from matching one prediction set at one IoU threshold."""

    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("match counts cannot be negative")


def _outcome(flags: Sequence[int], n_gt: int) -> MatchOutcome:
    tp = sum(flags)
    return MatchOutcome(tp=tp, fp=len(flags) - tp, fn=n_gt - tp)


def match_greedy(
    predictions: Sequence[Detection],
    ground_truth: Sequence[GroundTruthBox],
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
    predictions: Sequence[Detection],
    ground_truth: Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
) -> float:
    """101-point interpolated average precision at one IoU threshold.

    Raises:
        NoGroundTruth: there are no ground-truth boxes to recall.
    """
    flags = _match_flags(predictions, ground_truth, (iou_threshold,))
    return _average_precisions(flags, ground_truth)[0]


def fitness(precision: float, recall: float, map50: float, map5095: float) -> float:
    """Model-selection scalar; precision and recall carry zero weight."""
    return 0.0 * precision + 0.0 * recall + 0.1 * map50 + 0.9 * map5095


# --- file I/O ---------------------------------------------------------------


def _ground_truth_box(row: list[str]) -> GroundTruthBox:
    reals = [real(text, name) for text, name in zip(row[1:], GT_HEADER[1:])]
    return GroundTruthBox(row[0], *reals)


def read_ground_truth(path) -> list[GroundTruthBox]:
    return read_table_file(path, GT_HEADER, _ground_truth_box)[0]


def read_predictions(path, strict: bool = True) -> list[Detection]:
    """Predictions use the detection CSV layout; frame_index keys frames."""
    return parse_detections_file(path, strict=strict).detections


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
    predictions: Sequence[Detection],
    ground_truth: Sequence[GroundTruthBox],
) -> MetricsReport:
    """Precision and recall at IoU 0.50 and AP at every MAP_THRESHOLDS
    value, from one matching pass over the ranked predictions."""
    flags = _match_flags(predictions, ground_truth, MAP_THRESHOLDS)
    # MAP_THRESHOLDS[0] is 0.50, the precision/recall threshold
    precision, recall = precision_recall(_outcome(flags[0], len(ground_truth)))
    aps = _average_precisions(flags, ground_truth)
    map50, map5095 = aps[0], sum(aps) / len(aps)
    return MetricsReport(
        precision=precision,
        recall=recall,
        map50=map50,
        map5095=map5095,
        fitness=fitness(precision, recall, map50, map5095),
        per_threshold=tuple(zip(MAP_THRESHOLDS, aps)),
    )
