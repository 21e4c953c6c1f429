"""Spans and counts recorded from outside the program.

The tracer replaces public functions at the module attribute their caller
looks up (``gridscope.cli.synchronize`` is what ``reconstruct`` calls), so
nothing under ``src/`` changes.  Spans are kept in memory as
``(name, start, end, parent, run_id)`` and written out once, at the end.
Functions called hundreds of thousands of times per run are only counted.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import gridscope.calibration
import gridscope.cli
import gridscope.depth
import gridscope.fusion
import gridscope.metrics
from gridscope.errors import OutsideCalibratedArea


def _sync_counts(counts, args, kwargs, bundles):
    detections = args[0]
    reference = kwargs.get("reference_camera")
    counts["detections.synchronize.bundles"] += len(bundles)
    counts["detections.synchronize.offered"] += sum(
        d.camera_id != reference for d in detections
    )
    counts["detections.synchronize.claimed"] += sum(
        len(b.per_camera) - (reference in b.per_camera) for b in bundles
    )


def _parse_counts(counts, args, kwargs, result):
    counts["detections.parse.rows"] += len(result.detections)
    counts["detections.parse.skipped"] += result.skipped


def _build_counts(counts, args, kwargs, result):
    stats = result[1]
    counts["fusion.bundles"] += stats.total
    counts["fusion.plotted"] += stats.plotted


def _correction_counts(counts, args, kwargs, result):
    counts["depth.correct_side_point.applied"] += result[1].applied


def _file_bytes(name):
    def observe(counts, args, kwargs, result):
        counts[name] += os.path.getsize(args[0])

    return observe


def _segment_tests(counts, args, kwargs, result):
    counts["evaluation.point_segment_tests"] += len(args[0]) * len(args[1])


# (module, attribute, span name, observer); None as the span name means
# count calls only.  mg_bounds is looked up by fusion and by depth.
SPANNED = (
    (gridscope.cli, "parse_detections_file", "detections.parse", _parse_counts),
    (gridscope.cli, "synchronize", "detections.synchronize", _sync_counts),
    (gridscope.cli, "build_track", "fusion.build_track", _build_counts),
    (gridscope.cli, "write_track", "fusion.write_track", _file_bytes("fusion.track_bytes")),
    (gridscope.cli, "read_track", "evaluation.read_track", None),
    (gridscope.cli, "evaluate_track", "evaluation.evaluate_track", _segment_tests),
    (gridscope.cli, "export_track", "export.export_track", _file_bytes("export.bytes")),
    (gridscope.cli, "read_predictions", "metrics.read", None),
    (gridscope.cli, "read_ground_truth", "metrics.read", None),
    (gridscope.cli, "evaluate_detections", "metrics.evaluate_detections", None),
    (gridscope.fusion, "to_model_grid", "calibration.to_model_grid", None),
    (gridscope.fusion, "mg_bounds", "calibration.mg_bounds", None),
    (gridscope.depth, "mg_bounds", "calibration.mg_bounds", None),
    (gridscope.fusion, "correct_side_point", "depth.correct_side_point", _correction_counts),
    (gridscope.fusion, "reconstruct_point", "fusion.reconstruct_point", None),
    (gridscope.metrics, "match_greedy", "metrics.match_greedy", None),
    (gridscope.metrics, "average_precision", "metrics.average_precision", None),
)
COUNTED = (
    (gridscope.calibration, "point_in_quad", "geometry.point_in_quad"),
    (gridscope.calibration, "apply_homography", "geometry.apply_homography"),
    (gridscope.metrics, "iou", "metrics.iou"),
)


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id: str | None = None
        self._stack: list[int] = []

    def _span(self, name, fn, observe):
        def traced(*args, **kwargs):
            counts = self.counts[self.run_id]
            counts[name + ".calls"] += 1
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except OutsideCalibratedArea:
                counts[name + ".outside"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[self.run_id][name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def run(self, run_id: str):
        """Trace every wrapped call made inside the block under ``run_id``."""
        saved = []
        for module, attr, name, observe in SPANNED:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._span(name, getattr(module, attr), observe))
        for module, attr, name in COUNTED:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._counter(name, getattr(module, attr)))
        self.run_id = run_id
        try:
            yield
        finally:
            self.run_id = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self, run_id: str) -> tuple[Counter, Counter]:
        """Total and self seconds per span name within one run.

        Self time is a span's duration minus that of its direct children;
        spans are strictly nested on one thread, so the children never
        overlap.
        """
        total: Counter = Counter()
        child: Counter = Counter()
        for span in self.spans:
            name, start, end, parent, rid = span
            if rid != run_id:
                continue
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                own[name] += end - start - child.get(idx, 0.0)
        return total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps([name, start, end, parent, rid]) + "\n")
