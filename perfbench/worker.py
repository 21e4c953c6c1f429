"""Run one workload's command chain in a process of its own.

    python3 perfbench/worker.py --manifest M --calibration C --seconds S
        [--spans FILE [--half HALF_MANIFEST]]

The chain goes through the public CLI entry ``gridscope.cli.main``
in-process, once untimed to warm up and then repeatedly until S seconds
have passed.  With ``--spans`` the run is traced: each repetition runs an untraced
chain, a traced chain and, given ``--half``, a traced chain on half the
frames, and the spans are written to FILE at the end.  The last
line of standard output is one JSON object with every repetition's stage
times, exit codes and output hashes, the process's peak resident memory
and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import common

MIN_REPS = 3
SETUP_REPS = 3
# Traced repetitions per run: at least two for a median, at most four so the
# spans held in memory stay bounded (about 75k per freerun chain).
TRACED_REPS = (2, 4)


def chain(manifest: dict, calibration: str) -> list[tuple[str, list[str], list[str]]]:
    """(stage, argv, output files) for each command a user of the workload runs."""
    out = Path(manifest["dir"])
    if manifest["workload"] == "detscore":
        report = str(out / "detmetrics.json")
        return [(
            "detmetrics",
            ["detmetrics", "--predictions", manifest["predictions"],
             "--ground-truth", manifest["ground_truth"], "--report", report],
            [report],
        )]
    from workloads import GRID_B

    track, stats = str(out / "track.csv"), str(out / "stats.json")
    report, exported = str(out / "report.json"), str(out / f"track.{manifest['export_format']}")
    return [
        ("reconstruct",
         ["reconstruct", *manifest["detections"], "--calibration", calibration,
          "--out", track, "--stats", stats, "--config", manifest["config"]],
         [track, stats]),
        ("evaluate",
         ["evaluate", "--track", track, "--segments", manifest["segments"],
          "--calibration", calibration, "--grid-b", GRID_B, "--stats", stats,
          "--report", report],
         [report]),
        ("export",
         ["export", "--track", track, "--calibration", calibration,
          "--format", manifest["export_format"], "--out", exported],
         [exported]),
    ]


def _digest(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_chain(commands) -> dict:
    from gridscope.cli import main

    gc.collect()
    times, codes = {}, {}
    for stage, argv, _ in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes[stage] = main(argv)
            times[stage] = time.perf_counter() - start
    hashes = {
        stage: {Path(path).name: _digest(path) for path in outputs}
        for stage, _, outputs in commands
    }
    return {"times": times, "codes": codes, "hashes": hashes}


def _setup_layers(picks: str, scratch: Path) -> dict:
    """In-process calibration build and load, median over a few tries."""
    from gridscope.calibration import (
        build_calibration, load_calibration, load_marker_picks, save_calibration,
    )

    build, load = [], []
    path = scratch / "calibration.trace.json"
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cal = build_calibration(load_marker_picks(picks))
        build.append(time.perf_counter() - start)
        save_calibration(path, cal)
        start = time.perf_counter()
        load_calibration(path)
        load.append(time.perf_counter() - start)
    return {"calibration.build.s": common.median(build),
            "calibration.load.s": common.median(load)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _growth(full: float, half: float) -> float:
    return math.log2(full / half) if full > 0 and half > 0 else 0.0


def _layer_figures(tracer, run_id: str) -> dict:
    total, own = tracer.layer_times(run_id)
    c = tracer.counts[run_id]
    return {
        "detections.parse.s": total["detections.parse"],
        "detections.parse.rows": c["detections.parse.rows"],
        "detections.parse.skipped": c["detections.parse.skipped"],
        "detections.synchronize.s": total["detections.synchronize"],
        "detections.synchronize.bundles": c["detections.synchronize.bundles"],
        "detections.synchronize.claim_ratio": _ratio(
            c["detections.synchronize.claimed"], c["detections.synchronize.offered"]),
        "calibration.to_model_grid.calls": c["calibration.to_model_grid.calls"],
        "calibration.to_model_grid.s": total["calibration.to_model_grid"],
        "calibration.to_model_grid.outside": c["calibration.to_model_grid.outside"],
        "geometry.point_in_quad.calls": c["geometry.point_in_quad.calls"],
        "geometry.apply_homography.calls": c["geometry.apply_homography.calls"],
        "calibration.mg_bounds.calls": c["calibration.mg_bounds.calls"],
        "calibration.mg_bounds.s": total["calibration.mg_bounds"],
        "depth.correct_side_point.calls": c["depth.correct_side_point.calls"],
        "depth.correct_side_point.s": total["depth.correct_side_point"],
        "depth.correct_side_point.applied_ratio": _ratio(
            c["depth.correct_side_point.applied"], c["depth.correct_side_point.calls"]),
        "fusion.build_track.s": total["fusion.build_track"],
        "fusion.build_track.self_s": own["fusion.build_track"],
        "fusion.reconstruct_point.calls": c["fusion.reconstruct_point.calls"],
        "fusion.reconstruct_point.self_s": own["fusion.reconstruct_point"],
        "fusion.plot_ratio": _ratio(c["fusion.plotted"], c["fusion.bundles"]),
        "fusion.write_track.s": total["fusion.write_track"],
        "fusion.track_bytes": c["fusion.track_bytes"],
        "export.export_track.s": total["export.export_track"],
        "export.bytes": c["export.bytes"],
        "evaluation.read_track.s": total["evaluation.read_track"],
        "evaluation.evaluate_track.s": total["evaluation.evaluate_track"],
        "evaluation.point_segment_tests": c["evaluation.point_segment_tests"],
        "metrics.read.s": total["metrics.read"],
        "metrics.evaluate_detections.s": total["metrics.evaluate_detections"],
        "metrics.evaluate_detections.self_s": own["metrics.evaluate_detections"],
        "metrics.match_greedy.calls": c["metrics.match_greedy.calls"],
        "metrics.match_greedy.s": total["metrics.match_greedy"],
        "metrics.average_precision.calls": c["metrics.average_precision.calls"],
        "metrics.average_precision.s": total["metrics.average_precision"],
        "metrics.iou.calls": c["metrics.iou.calls"],
    }


def traced(manifest, calibration, seconds, half_manifest, spans_path) -> dict:
    from spans import Tracer

    commands = chain(manifest, calibration)
    half = chain(half_manifest, calibration) if half_manifest else None
    layers = _setup_layers(manifest["picks"], Path(manifest["dir"]))
    tracer = Tracer()
    reps = [dict(run_chain(commands), kind="warmup")]
    plain, full, halves = [], [], []
    deadline = time.perf_counter() + seconds
    least, most = TRACED_REPS
    while len(full) < least or (len(full) < most and time.perf_counter() < deadline):
        rep = run_chain(commands)
        plain.append(sum(rep["times"].values()))
        reps.append(dict(rep, kind="plain"))
        run_id = f"full-{len(full)}"
        with tracer.run(run_id):
            rep = run_chain(commands)
        full.append((run_id, sum(rep["times"].values())))
        reps.append(dict(rep, kind="traced"))
        if half:
            run_id = f"half-{len(halves)}"
            with tracer.run(run_id):
                reps.append(dict(run_chain(half), kind="half"))
            halves.append(run_id)

    per_rep = [_layer_figures(tracer, run_id) for run_id, _ in full]
    for name in per_rep[0]:
        layers[name] = common.median([r[name] for r in per_rep])
    self_s = {}
    for run_id, _ in full:
        for name, value in tracer.layer_times(run_id)[1].items():
            self_s.setdefault(name, []).append(value)
    for layer in ("detections.synchronize", "fusion.build_track"):
        at_half = common.median([tracer.layer_times(r)[0][layer] for r in halves])
        layers[layer + ".growth"] = _growth(layers[layer + ".s"], at_half)
    layers["trace.overhead_s"] = common.median([t for _, t in full]) - common.median(plain)
    tracer.write(spans_path)
    return {
        "reps": reps,
        "layers": layers,
        "self_s": {name: common.median(v) for name, v in self_s.items()},
    }


def timed(manifest, calibration, seconds) -> dict:
    import speed

    commands = chain(manifest, calibration)
    reps = [dict(run_chain(commands), kind="warmup")]
    before = speed.kernel_seconds()
    deadline = time.perf_counter() + seconds
    while len(reps) <= MIN_REPS or time.perf_counter() < deadline:
        rep = run_chain(commands)
        after = speed.kernel_seconds()
        reps.append(dict(rep, kind="timed", scale=speed.scale(before, after)))
        before = after
    return {"reps": reps}


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--calibration", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--half", default=None)
    args = parser.parse_args(argv)
    common.bootstrap()
    manifest = json.loads(Path(args.manifest).read_text())
    if args.spans:
        half = json.loads(Path(args.half).read_text()) if args.half else None
        result = traced(manifest, args.calibration, args.seconds, half, args.spans)
    else:
        result = timed(manifest, args.calibration, args.seconds)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
