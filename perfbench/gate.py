"""The benchmark's output-correctness gate.

Every stage invocation and every check below is one attempt; an
invocation fails when it exits non-zero or its output bytes differ from
the first repetition's.  The oracles come from ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from gridscope.detections import (
    DEFAULT_SYNC_TOLERANCE_MS,
    parse_detections_file,
    synchronize,
)
from gridscope.fusion import read_track
from gridscope.metrics import (
    MAP_THRESHOLDS,
    average_precision,
    match_greedy,
    read_ground_truth,
    read_predictions,
)
from gridscope.simulate import read_truth
from oracles import ap_oracle, match_oracle, mean_point_error, naive_synchronize

import workloads

# Oracle comparisons run on a prefix: the oracles are quadratic.
SYNC_PREFIX_FRAMES = 200
DETSCORE_PREFIX_FRAMES = 120

# Quality bounds: the seed commit's worst value over seeds 0-19 with 5%
# margin (track error 61.4-62.0 mm, face error 14.7-14.9 mm on both
# pipelines; mAP@.5:.95 0.548-0.556).  A change that loses accuracy fails.
TRACK_ERR_MAX_MM = 65.0
FACE_ERR_MAX_MM = 15.6
MAP50_95_MIN = 0.52


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def invocations(self, reps: list[dict]) -> None:
        """Each stage of each repetition: exit code 0 and stable bytes."""
        first: dict[str, dict] = {}
        for i, rep in enumerate(reps):
            group = "half" if rep["kind"] == "half" else "full"
            ref = first.setdefault(group, rep)
            for stage, code in rep["codes"].items():
                same = rep["hashes"][stage] == ref["hashes"][stage]
                self.check(code == 0 and same,
                           f"repetition {i} {stage}: exit {code}, bytes "
                           f"{'identical' if same else 'differ from repetition 0'}")


def pipeline_checks(gate: Gate, manifest: dict) -> dict:
    """Invariants, the sync oracle and quality bounds; returns the quality."""
    out = Path(manifest["dir"])
    stats = json.loads((out / "stats.json").read_text())
    track = read_track(out / "track.csv")
    gate.check(len(track) == stats["plotted"],
               f"track has {len(track)} rows, stats.plotted is {stats['plotted']}")
    gate.check(stats["plotted"] + stats["rejected_z"] <= stats["total"],
               f"plotted + rejected_z > total in {stats}")

    cutoff = SYNC_PREFIX_FRAMES * workloads.FRAME_MS
    prefix = [
        d for path in manifest["detections"]
        for d in parse_detections_file(path, strict=True).detections
        if d.timestamp_ms < cutoff
    ]
    config = json.loads(Path(manifest["config"]).read_text())
    fast = synchronize(prefix, reference_camera=config["reference_camera"])
    slow = naive_synchronize(
        prefix, DEFAULT_SYNC_TOLERANCE_MS, reference_camera=config["reference_camera"])
    gate.check(
        [(b.timestamp_ms, dict(b.per_camera)) for b in fast] == slow,
        f"synchronize differs from the quadratic oracle on the first "
        f"{SYNC_PREFIX_FRAMES} frames",
    )

    truth = {s.timestamp_ms: s.position for s in read_truth(manifest["truth"])}
    report = json.loads((out / "report.json").read_text())
    quality = {
        "track_err_mm": mean_point_error(track, truth),
        "face_err_mm": report["overall_mm"],
        "plot_rate": report["plot_rate"],
    }
    gate.check(quality["track_err_mm"] <= TRACK_ERR_MAX_MM,
               f"track error {quality['track_err_mm']:.3f} mm over the bound")
    gate.check(quality["face_err_mm"] <= FACE_ERR_MAX_MM,
               f"face error {quality['face_err_mm']:.3f} mm over the bound")
    return quality


def detscore_checks(gate: Gate, manifest: dict) -> dict:
    """AP and matching against the brute-force oracles, and the mAP bound."""
    keep = {str(k) for k in range(DETSCORE_PREFIX_FRAMES)}
    preds = [p for p in read_predictions(manifest["predictions"]) if p.frame_index in keep]
    truth = [g for g in read_ground_truth(manifest["ground_truth"]) if g.frame_id in keep]
    for t in MAP_THRESHOLDS:
        out = match_greedy(preds, truth, t)
        _, counts = match_oracle(preds, truth, t)
        gate.check((out.tp, out.fp, out.fn) == counts,
                   f"match_greedy at IoU {t} differs from the oracle")
        gate.check(average_precision(preds, truth, t) == ap_oracle(preds, truth, t),
                   f"average_precision at IoU {t} differs from the oracle")
    report = json.loads((Path(manifest["dir"]) / "detmetrics.json").read_text())
    quality = {"map50_95": report["map50_95"]}
    gate.check(quality["map50_95"] >= MAP50_95_MIN,
               f"mAP@.5:.95 {quality['map50_95']:.4f} under the bound")
    return quality
