import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridscope.metrics
from gridscope.detections import Detection, finite_box
from gridscope.errors import CsvError, NoGroundTruth, UndefinedMetric
from gridscope.jsonio import read_columns
from gridscope.metrics import (
    GT_HEADER,
    GroundTruthBox,
    GroundTruthTable,
    MAP_THRESHOLDS,
    MatchOutcome,
    average_precision,
    evaluate_detections,
    fitness,
    iou,
    match_greedy,
    pair_iou,
    precision_recall,
    read_ground_truth,
    read_ground_truth_table,
)

from oracles import ap_oracle, iou_oracle, match_oracle, rowwise_read_ground_truth
from strategies import gt_rows


def pred(frame="0", box=(0.0, 0.0, 10.0, 10.0), conf=0.9):
    return Detection("det", frame, 0.0, box[0], box[1], box[2], box[3], conf)


def gt(frame="0", box=(0.0, 0.0, 10.0, 10.0)):
    return GroundTruthBox(frame, box[0], box[1], box[2], box[3])


corner = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 1e-200, 2e-200, 1e-160, 5e-324, 1e-308, 1.7e308, -1.7e308, 2.0**1022]
    ),
)
side = st.tuples(corner, corner).map(sorted)
# a box that GroundTruthBox and Detection accept
accepted_box = (
    st.tuples(side, side)
    .map(lambda s: (s[0][0], s[1][0], s[0][1], s[1][1]))
    .filter(lambda b: b[0] < b[2] and b[1] < b[3] and finite_box(*b))
)


class TestIou:
    def test_offset_overlap_is_exactly_one_third(self):
        assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == 1.0 / 3.0

    def test_identical(self):
        assert iou((0, 0, 5, 5), (0, 0, 5, 5)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_contained(self):
        assert iou((0, 0, 10, 10), (2, 2, 4, 4)) == 4.0 / 100.0

    def test_symmetry(self):
        a, b = (0.0, 0.0, 3.0, 4.0), (1.0, 1.0, 5.0, 2.5)
        assert iou(a, b) == iou(b, a)

    def test_identical_huge_boxes(self):
        # the two areas (2**1023 each) sum past the float maximum
        box = (-(2.0**1022), 0.0, 2.0**1022, 1.0)
        assert iou(box, box) == 1.0
        assert iou(box, (0.0, 0.0, 2.0**1022, 1.0)) == 0.5

    def test_underflowing_box_is_refused(self):
        # its halved area is 0, so two of them would divide 0 by 0
        tiny = (0.0, 0.0, 1e-200, 1e-200)
        with pytest.raises(ZeroDivisionError):
            iou(tiny, tiny)
        assert not finite_box(*tiny)
        with pytest.raises(ValueError, match="not finite or positive"):
            gt(box=tiny)
        with pytest.raises(ValueError, match="not finite or positive"):
            pred(box=tiny)

    @given(a=accepted_box, b=accepted_box)
    @example(a=(0.0, 0.0, 1e-160, 1e-160), b=(0.0, 0.0, 1e-160, 1e-160))
    @example(a=(0.0, 0.0, 5e-324, 1.0), b=(0.0, 0.0, 1e-300, 1e-10))
    @example(a=(-(2.0**1022), 0.0, 2.0**1022, 1.0), b=(0.0, 0.0, 1.7e308, 1.0))
    def test_accepted_boxes_give_a_ratio_and_pair_iou_the_same_double(self, a, b):
        # no pair of boxes the readers accept gives NaN or raises
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        columns = pair_iou([np.array([c]) for c in a], [np.array([c]) for c in b])
        assert columns.tolist() == [value]
        assert math.copysign(1.0, columns[0]) == math.copysign(1.0, value)

    @given(
        shift=st.floats(-12, 12),
        size=st.floats(0.5, 8),
    )
    def test_matches_reference(self, shift, size):
        a = (0.0, 0.0, 10.0, 10.0)
        b = (shift, 0.0, shift + size, size)
        assert iou(a, b) == iou_oracle(a, b)


class TestGroundTruthBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            gt(box=(0, 0, 0, 5))
        with pytest.raises(ValueError):
            gt(box=(0, 5, 5, 5))

    def test_overflowing_area_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            gt(box=(-1e308, -1e308, 1e308, 1e308))

    def test_exact_huge_prediction_is_a_hit(self):
        box = (-(2.0**1022), 0.0, 2.0**1022, 1.0)
        report = evaluate_detections([pred(box=box)], [gt(box=box)])
        assert (report.precision, report.recall, report.map5095) == (1.0, 1.0, 1.0)


class TestMatchGreedy:
    def test_perfect_match(self):
        out = match_greedy([pred()], [gt()])
        assert (out.tp, out.fp, out.fn) == (1, 0, 0)

    def test_below_threshold_is_fp(self):
        out = match_greedy([pred(box=(0, 0, 2, 2))], [gt(box=(1, 0, 3, 2))], 0.5)
        assert (out.tp, out.fp, out.fn) == (0, 1, 1)

    def test_frames_are_isolated(self):
        out = match_greedy([pred(frame="7")], [gt(frame="8")])
        assert (out.tp, out.fp, out.fn) == (0, 1, 1)

    def test_duplicate_prediction_is_fp(self):
        out = match_greedy([pred(conf=0.9), pred(conf=0.8)], [gt()])
        assert (out.tp, out.fp, out.fn) == (1, 1, 0)

    def test_higher_confidence_claims_first(self):
        # The low-confidence pred overlaps better but ranks later.
        good_fit = pred(box=(0, 0, 10, 10), conf=0.3)
        bad_fit = pred(box=(0, 0, 10, 14), conf=0.9)
        out = match_greedy([good_fit, bad_fit], [gt()], 0.5)
        assert (out.tp, out.fp) == (1, 1)

    def test_iou_tie_takes_earliest_gt_row(self):
        # One pred overlaps two identical GT boxes equally; the first row
        # is claimed, leaving the second unmatched.
        boxes = [gt(box=(0, 0, 10, 10)), gt(box=(0, 0, 10, 10))]
        out = match_greedy([pred()], boxes)
        assert (out.tp, out.fn) == (1, 1)

    def test_equal_confidence_keeps_input_order(self):
        first = pred(box=(0, 0, 10, 10), conf=0.5)
        second = pred(box=(0, 0, 10, 12), conf=0.5)
        out = match_greedy([first, second], [gt()], 0.5)
        assert (out.tp, out.fp) == (1, 1)

    def test_counts_conserved(self):
        preds = [pred(conf=c / 10.0) for c in range(1, 6)]
        boxes = [gt(), gt(box=(20, 20, 30, 30))]
        out = match_greedy(preds, boxes)
        assert out.tp + out.fp == len(preds)
        assert out.tp + out.fn == len(boxes)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MatchOutcome(-1, 0, 0)


class TestPrecisionRecall:
    def test_values(self):
        assert precision_recall(MatchOutcome(3, 2, 1)) == (0.6, 0.75)

    def test_no_predictions_undefined(self):
        with pytest.raises(UndefinedMetric) as err:
            precision_recall(MatchOutcome(0, 0, 4))
        assert "precision" in str(err.value)

    def test_no_ground_truth_undefined(self):
        with pytest.raises(UndefinedMetric) as err:
            precision_recall(MatchOutcome(0, 3, 0))
        assert "recall" in str(err.value)


class TestAveragePrecision:
    def test_needs_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            average_precision([pred()], [])

    def test_no_predictions_scores_zero(self):
        assert average_precision([], [gt()]) == 0.0

    def test_single_perfect_prediction(self):
        assert average_precision([pred()], [gt()]) == 1.0

    def test_perfect_among_two_gt(self):
        # Recall tops out at 0.5, precision 1 up to there: 51 points of 1.
        ap = average_precision([pred()], [gt(), gt(frame="9")])
        assert ap == 51.0 / 101.0

    def test_threshold_boundary_inclusive(self):
        # Engineered IoU of exactly 0.60: counted at threshold 0.60.
        p = [pred(box=(0.0, 0.0, 10.0, 10.0))]
        g = [gt(box=(0.0, 0.0, 10.0, 6.0))]
        assert iou(p[0].bbox, (0.0, 0.0, 10.0, 6.0)) == 60.0 / 100.0
        assert average_precision(p, g, 60.0 / 100.0) == 1.0
        assert average_precision(p, g, 0.65) == 0.0

    def test_fp_before_tp_lowers_curve(self):
        preds = [pred(frame="nope", conf=0.9), pred(conf=0.8)]
        ap = average_precision(preds, [gt()])
        assert ap == 101 * 0.5 / 101.0


boxes_strategy = st.sampled_from(
    [
        (0.0, 0.0, 10.0, 10.0),
        (2.0, 0.0, 12.0, 10.0),
        (5.0, 5.0, 15.0, 15.0),
        (0.0, 0.0, 4.0, 4.0),
        (20.0, 20.0, 30.0, 30.0),
    ]
)


@settings(max_examples=120, deadline=None)
@given(
    preds=st.lists(
        st.builds(
            pred,
            frame=st.sampled_from(["0", "1"]),
            box=boxes_strategy,
            conf=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        ),
        max_size=8,
    ),
    boxes=st.lists(
        st.builds(gt, frame=st.sampled_from(["0", "1"]), box=boxes_strategy),
        min_size=1,
        max_size=6,
    ),
    threshold=st.sampled_from([0.5, 0.6, 2.0 / 3.0, 0.75]),
)
def test_matching_and_ap_equal_brute_force(preds, boxes, threshold):
    out = match_greedy(preds, boxes, threshold)
    _, (tp, fp, fn) = match_oracle(preds, boxes, threshold)
    assert (out.tp, out.fp, out.fn) == (tp, fp, fn)
    assert average_precision(preds, boxes, threshold) == ap_oracle(
        preds, boxes, threshold
    )


class TestFitness:
    def test_weights(self):
        assert fitness(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.1, abs=1e-15)
        assert fitness(0.0, 0.0, 0.0, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_precision_recall_ignored(self):
        assert fitness(1.0, 1.0, 0.5, 0.5) == fitness(0.0, 0.0, 0.5, 0.5)

    def test_reference_points(self):
        assert fitness(0.0, 0.0, 0.94, 0.39) == pytest.approx(0.445, abs=1e-12)
        assert fitness(0.0, 0.0, 0.91, 0.38) == pytest.approx(0.433, abs=1e-12)


class TestEvaluateDetections:
    def fixture(self):
        boxes = [
            gt("0", (0.0, 0.0, 10.0, 10.0)),
            gt("0", (20.0, 20.0, 30.0, 30.0)),
            gt("1", (0.0, 0.0, 10.0, 10.0)),
            gt("2", (5.0, 5.0, 15.0, 15.0)),
        ]
        preds = [
            pred("2", (100.0, 100.0, 110.0, 110.0), 0.95),
            pred("0", (0.0, 0.0, 10.0, 10.0), 0.9),
            pred("1", (2.0, 0.0, 12.0, 10.0), 0.85),
            pred("0", (19.0, 20.0, 29.0, 30.0), 0.8),
            pred("0", (0.0, 0.0, 10.0, 10.0), 0.5),
        ]
        return preds, boxes

    def test_report_matches_hand_derivation(self):
        preds, boxes = self.fixture()
        report = evaluate_detections(preds, boxes)
        assert report.precision == 3.0 / 5.0
        assert report.recall == 3.0 / 4.0
        assert report.map50 == 57.0 / 101.0
        assert report.fitness == pytest.approx(
            0.1 * report.map50 + 0.9 * report.map5095, abs=1e-15
        )

    def test_per_threshold_covers_the_range(self):
        preds, boxes = self.fixture()
        report = evaluate_detections(preds, boxes)
        assert tuple(t for t, _ in report.per_threshold) == MAP_THRESHOLDS
        aps = [ap for _, ap in report.per_threshold]
        assert aps == sorted(aps, reverse=True)  # monotone for this data

    def test_doc_and_table(self):
        preds, boxes = self.fixture()
        report = evaluate_detections(preds, boxes)
        doc = report.as_doc()
        assert doc["map50"] == report.map50
        assert len(doc["average_precision"]) == len(MAP_THRESHOLDS)
        text = report.human_table()
        assert "fitness" in text
        assert "0.50" in text

    def test_no_predictions_leaves_precision_undefined(self):
        _, boxes = self.fixture()
        for truth in (boxes, []):
            with pytest.raises(UndefinedMetric, match="precision"):
                evaluate_detections([], truth)

    def test_no_ground_truth_leaves_recall_undefined(self):
        # recall is checked before any average precision is interpolated
        preds, _ = self.fixture()
        with pytest.raises(UndefinedMetric, match="recall"):
            evaluate_detections(preds, [])

    @pytest.mark.parametrize("block", [1 << 16, 7])
    def test_iou_computed_once_per_prediction_and_frame_box(self, monkeypatch, block):
        # The ten thresholds share one IoU array: every (prediction,
        # same-frame box) pair is measured once, a claimed box included,
        # also when the pairs are measured a few ranks at a time.
        preds, boxes = _generated_detections(frames=80, per_frame=3, seed=11)
        pairs = sum(
            1 for p in preds for b in boxes if b.frame_id == p.frame_index
        )
        assert len(preds) >= 300 and pairs > len(preds)
        measured = []

        def counted(boxes_a, boxes_b):
            measured.append(len(boxes_a[0]))
            return pair_iou(boxes_a, boxes_b)

        expected = evaluate_detections(preds, boxes)
        monkeypatch.setattr(gridscope.metrics, "_PAIR_BLOCK", block)
        monkeypatch.setattr(gridscope.metrics, "pair_iou", counted)
        assert evaluate_detections(preds, boxes) == expected
        assert sum(measured) == pairs
        # a block of ranks holds under block + 3 pairs: 3 boxes a frame
        assert max(measured) <= min(block + 2, pairs)

    @pytest.mark.parametrize(
        "case, calls",
        [
            ("one box a frame", 0),
            ("contested then alone", 5),  # 0.50-0.70: the worse fit's IoU is 0.70
            ("generated", 8),  # contested up to 0.85
        ],
    )
    def test_the_claim_loop_runs_only_where_a_threshold_has_a_contest(
        self, monkeypatch, case, calls
    ):
        # a threshold whose candidates are each alone, and every threshold
        # above it, sets its hits without the claim loop
        preds, boxes = {
            "one box a frame": _one_box_a_frame(),
            "contested then alone": _CONTESTED_THEN_ALONE,
            "generated": _generated_detections(frames=80, per_frame=3, seed=11),
        }[case]
        claims, claimed = gridscope.metrics._claims, []

        def counted(ranks, boxes, overlaps):
            claimed.append(len(ranks))
            return claims(ranks, boxes, overlaps)

        expected = evaluate_detections(preds, boxes)
        monkeypatch.setattr(gridscope.metrics, "_claims", counted)
        assert evaluate_detections(preds, boxes) == expected
        assert len(claimed) == calls
        assert all(claimed)  # the loop never runs on no candidates


def _generated_detections(frames, per_frame, seed):
    """Noisy, duplicated and missed detections of per_frame boxes a frame."""
    rng = random.Random(seed)
    boxes, preds = [], []
    for f in range(frames):
        frame = str(f)
        for k in range(per_frame):
            u, v = 40.0 * k + rng.randint(0, 5), float(rng.randint(0, 5))
            boxes.append(gt(frame, (u, v, u + 30.0, v + 30.0)))
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                du, dv = rng.uniform(-8, 8), rng.uniform(-8, 8)
                preds.append(
                    pred(frame, (u + du, v + dv, u + du + 30.0, v + dv + 30.0),
                         rng.randint(1, 99) / 100.0)
                )
        preds.append(pred(frame, (500.0, 500.0, 520.0, 520.0), rng.randint(1, 99) / 100.0))
    return preds, boxes


def _one_box_a_frame():
    """One box a frame and at most one prediction near it, plus one
    prediction in a frame without boxes: nothing is ever contested."""
    boxes = [gt(str(f), (3.0 * f, 0.0, 3.0 * f + 20.0, 20.0)) for f in range(200)]
    preds = [pred(b.frame_id, (b.u_min + 1.0, 0.0, b.u_max + 1.0, 20.0), 0.5)
             for b in boxes[::2]]
    return preds + [pred("no box")], boxes


# Integer corners make IoUs exact ratios, so some land exactly on a threshold.
int_box = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(2, 10), st.integers(2, 10)
).map(lambda b: (float(b[0]), float(b[1]), float(b[0] + b[2]), float(b[1] + b[3])))
two_decimals = st.integers(50, 99).map(lambda c: c / 100.0)


@st.composite
def scored_sets(draw):
    """Predictions near several boxes a frame over three or four frames."""
    frames = draw(st.sampled_from([("0", "1", "2"), ("0", "1", "2", "3")]))
    boxes = draw(
        st.lists(st.builds(gt, frame=st.sampled_from(frames), box=int_box),
                 min_size=1, max_size=50)
    )
    near = st.tuples(
        st.sampled_from(boxes), st.lists(st.integers(-2, 2), min_size=4, max_size=4)
    ).map(
        lambda t: (t[0].frame_id, (t[0].u_min + t[1][0], t[0].v_min + t[1][1],
                                   t[0].u_max + 3 + t[1][2], t[0].v_max + 3 + t[1][3]))
    )
    anywhere = st.tuples(st.sampled_from(frames + ("9",)), int_box)
    placed = draw(st.lists(st.one_of(near, near, anywhere), min_size=1, max_size=60))
    preds = [pred(frame, box, draw(two_decimals)) for frame, box in placed]
    return preds, boxes


def _alternating(n_gt):
    """Ten hits, each followed by a miss in a frame without boxes, against
    n_gt boxes: every recall 1/n_gt ... 10/n_gt is exactly a recall point."""
    boxes = [
        gt(str(i % 4), (12.0 * (i // 4), 0.0, 12.0 * (i // 4) + 10.0, 10.0))
        for i in range(n_gt)
    ]
    preds = []
    for b in boxes[:10]:
        preds.append(pred(b.frame_id, (b.u_min, b.v_min, b.u_max, b.v_max), 0.5))
        preds.append(pred("9", conf=0.5))
    return preds, boxes


# The first prediction claims the box at 0.50 and 0.60 (IoU exactly 0.60);
# the second, ranked lower, is a duplicate there but claims it at 0.65-0.95.
_RECLAIMED = (
    [pred("0", (0.0, 0.0, 10.0, 6.0), 0.9), pred("0", (0.0, 0.0, 10.0, 10.0), 0.8)],
    [gt("0", (0.0, 0.0, 10.0, 10.0)), gt("1", (0.0, 0.0, 20.0, 15.0))],
)
# IoU exactly 0.75 in frame 1, and a prediction in frame 9, which has no boxes.
_ON_THRESHOLD = (
    [pred("1", (0.0, 0.0, 20.0, 20.0), 0.7), pred("9", conf=0.7), _RECLAIMED[0][0]],
    _RECLAIMED[1],
)


# At 0.50 both frame-0 predictions reach the box and the one ranked first
# claims it, through the claim loop, while frame 1's lone pair is a hit by
# array operations; from 0.75 only the better fit reaches it, alone.
_CONTESTED_THEN_ALONE = (
    [pred("0", (0.0, 0.0, 10.0, 10.0), 0.8), pred("0", (0.0, 0.0, 10.0, 7.0), 0.9),
     pred("1", (0.0, 0.0, 10.0, 10.0), 0.7)],
    [gt("0", (0.0, 0.0, 10.0, 10.0)), gt("1", (0.0, 0.0, 10.0, 10.0))],
)
# The first prediction's IoU with rows 1 and 3 ties at 100/120, so it must
# take row 1, the earliest; the second then takes row 3 at IoU 1, where it
# would reach row 1 only at 100/140.
_EQUAL_IOU = (
    [pred("0", (0.0, 0.0, 10.0, 10.0), 0.9), pred("0", (0.0, -2.0, 10.0, 10.0), 0.8)],
    [gt("1"), gt("0", (0.0, 0.0, 10.0, 12.0)), gt("2"), gt("0", (0.0, -2.0, 10.0, 10.0))],
)


@settings(max_examples=150, deadline=None)
@given(case=scored_sets())
@example(case=_CONTESTED_THEN_ALONE)
@example(case=_EQUAL_IOU)
@example(case=_alternating(20))
@example(case=_alternating(25))
@example(case=_alternating(50))
@example(case=_alternating(100))
@example(case=_RECLAIMED)
@example(case=_ON_THRESHOLD)
def test_evaluate_detections_equals_oracles(case):
    preds, boxes = case
    report = evaluate_detections(preds, boxes)
    _, (tp, fp, fn) = match_oracle(preds, boxes, 0.5)
    assert (report.precision, report.recall) == (tp / (tp + fp), tp / (tp + fn))
    aps = [ap_oracle(preds, boxes, t) for t in MAP_THRESHOLDS]
    assert report.per_threshold == tuple(zip(MAP_THRESHOLDS, aps))
    map50, map5095 = aps[0], sum(aps) / len(aps)
    assert (report.map50, report.map5095) == (map50, map5095)
    assert report.fitness == fitness(report.precision, report.recall, map50, map5095)


@st.composite
def one_box_frames(draw):
    """One box a frame over at least 200 frames, whose distinct ids come in
    no sorted order, and predictions near the boxes, up to two a frame,
    and in frames without a box."""
    n = draw(st.integers(200, 240))
    frames = [str(k) if k % 3 else f"a{k}" for k in draw(st.permutations(range(n)))]
    boxes = [gt(frame, draw(int_box)) for frame in frames]
    preds = []
    for b in boxes:
        for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
            du, dv, dw, dh = draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))
            box = (b.u_min + du, b.v_min + dv, b.u_max + 3 + dw, b.v_max + 3 + dh)
            preds.append(pred(b.frame_id, box, draw(two_decimals)))
    elsewhere = st.tuples(st.sampled_from(("00", "-1", "z", f"{n}")), int_box)
    for frame, box in draw(st.lists(elsewhere, min_size=1, max_size=20)):
        preds.insert(draw(st.integers(0, len(preds))), pred(frame, box, draw(two_decimals)))
    return preds, boxes


@settings(max_examples=25, deadline=None)
@given(case=one_box_frames())
def test_distinct_frames_at_size_equal_oracles(case):
    # every frame id names one box, so each box row is its own frame code
    preds, boxes = case
    assert len({b.frame_id for b in boxes}) == len(boxes) >= 200
    report = evaluate_detections(preds, boxes)
    _, (tp, fp, fn) = match_oracle(preds, boxes, 0.5)
    assert (report.precision, report.recall) == (tp / (tp + fp), tp / (tp + fn))
    aps = [ap_oracle(preds, boxes, t) for t in MAP_THRESHOLDS]
    assert report.per_threshold == tuple(zip(MAP_THRESHOLDS, aps))


@pytest.mark.parametrize(
    "case",
    [
        _generated_detections(frames=80, per_frame=3, seed=11),
        _CONTESTED_THEN_ALONE,
        _RECLAIMED,
    ],
    ids=["generated", "contested then alone", "reclaimed"],
)
def test_each_threshold_matches_alone_in_any_order(case):
    # a threshold's flags do not hang on the thresholds beside it or their order
    preds, boxes = case
    shuffled = list(MAP_THRESHOLDS)
    random.Random(3).shuffle(shuffled)
    for ts in (MAP_THRESHOLDS, MAP_THRESHOLDS[::-1], tuple(shuffled)):
        flags = gridscope.metrics._match_flags(preds, boxes, ts)
        alone = [gridscope.metrics._match_flags(preds, boxes, (t,))[0] for t in ts]
        assert [f.tolist() for f in flags] == [f.tolist() for f in alone]


class TestGroundTruthCsv:
    def test_read(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text(
            "frame_id,u_min,v_min,u_max,v_max\n"
            "0,0,0,10,10\n"
            "\n"
            "1,5.5,5,15.25,15\n"
        )
        boxes = read_ground_truth(p)
        assert len(boxes) == 2
        assert boxes[1].u_max == 15.25

    def test_bad_header(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("frame,u0\n")
        with pytest.raises(CsvError):
            read_ground_truth(p)

    def test_degenerate_row_located(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("frame_id,u_min,v_min,u_max,v_max\n0,5,0,5,10\n")
        with pytest.raises(CsvError) as err:
            read_ground_truth(p)
        assert err.value.row == 2


def _read_outcome(read, lines, strict):
    """What a reader made of ``lines``: each box's repr and each error's
    row, column and message; or the error raised."""
    try:
        boxes, errors = read(lines, strict)
    except CsvError as exc:
        return ("raised", exc.row, exc.column, str(exc))
    return [repr(b) for b in boxes], [(e.row, e.column, str(e)) for e in errors]


def _table_read(lines, strict):
    boxes, errors = read_columns(
        lines, GT_HEADER, gridscope.metrics.GROUND_TRUTH_FORMAT.make, strict
    )
    return GroundTruthTable.of(boxes).rows(GroundTruthBox), errors


@settings(max_examples=200, deadline=None)
@given(rows=gt_rows(), strict=st.booleans())
@example(
    rows=[["0", "0", "0", "1e-200", "1e-200"], ["1", "0", "0", "1", "1"]], strict=False
)
@example(rows=[["0", "nan", "0", "x", "1"], ["0", "1e400", "0", "1", "1"]], strict=True)
def test_ground_truth_table_reader_equals_rowwise_oracle(rows, strict):
    lines = [",".join(GT_HEADER)] + [",".join(row) for row in rows]
    expected = _read_outcome(rowwise_read_ground_truth, lines, strict)
    assert _read_outcome(_table_read, lines, strict) == expected
    if strict:  # the file reader, through read_ground_truth and its table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gt.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if expected[0] == "raised":  # a file's error leads with its path
                expected = (*expected[:3], f"{path}: {expected[3]}")
            for read in (
                read_ground_truth,
                lambda p: read_ground_truth_table(p).rows(GroundTruthBox),
            ):
                try:
                    got = [repr(b) for b in read(path)], []
                except CsvError as exc:
                    got = ("raised", exc.row, exc.column, str(exc))
                assert got == expected


def test_equal_iou_goes_to_the_earliest_row():
    preds, boxes = _EQUAL_IOU
    assert iou(preds[0].bbox, (0.0, 0.0, 10.0, 12.0)) == iou(
        preds[0].bbox, (0.0, -2.0, 10.0, 10.0)
    )
    assert [match_greedy(preds, boxes, t).tp for t in (0.5, 0.75, 0.95)] == [2, 2, 1]


def test_contested_box_at_one_threshold_alone_at_another():
    preds, boxes = _CONTESTED_THEN_ALONE
    # the higher-ranked worse fit takes the box at 0.50; the better fit at 0.75
    assert [match_greedy(preds, boxes, t).tp for t in (0.5, 0.75)] == [2, 2]
    assert average_precision(preds, boxes, 0.5) == ap_oracle(preds, boxes, 0.5)
    flags = gridscope.metrics._match_flags(preds, boxes, (0.5, 0.75))
    assert [f.tolist() for f in flags] == [[True, False, True], [False, True, True]]
