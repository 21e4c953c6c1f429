"""Seeded inputs for the benchmark workloads.

Every file the program reads is made here from a workload name, a seed and
a frame count; the same three arguments always give the same bytes.  The
rig is the pinhole rig of ``tests/conftest.make_scenario`` with 1.5 px of
detection noise and 0.05 confidence jitter.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from gridscope import jsonio
from gridscope.calibration import RigGeometry, marker_picks_doc
from gridscope.detections import write_detections
from gridscope.evaluation import Segment, write_segments
from gridscope.geometry import GridBox, WorldPoint3D
from gridscope.metrics import GT_HEADER
from gridscope.simulate import (
    PathSpec,
    SimScenario,
    generate_scenario,
    marker_picks_for,
    standard_cameras,
    write_generated,
)

# Why each workload exists, in one line; BENCHMARK.json carries the same text.
WHY = {
    "lockstep": (
        "one shared clock and a never-dropping reference camera make every sync "
        "claim walk back over all claimed slots, so synchronize is quadratic and dominates"
    ),
    "freerun": (
        "side clocks lag 5-15 ms and every camera drops 10%, so sync is cheap and "
        "average_all fusion dominates; the bypass workload for sync changes"
    ),
    "detscore": (
        "one-subject frames scored by detmetrics: greedy matching and 101-point AP "
        "only, bypassing every reconstruction layer"
    ),
}

# Frame counts sized so one command chain takes about a second on a 2-core
# machine: several repetitions fit in one run and the median is steady.
FRAMES = {"lockstep": 2400, "freerun": 3000, "detscore": 8000}

PIPELINES = ("lockstep", "freerun")

FRAME_MS = 50.0  # the simulator's 20 fps
LEG_MS = 5000.0  # one 100 mm walk leg at 20 mm/s
GRID_B = "120,120,100,150,150,400"
REFERENCE_CAMERA = "top"

# detscore prediction model
MATCH_SHARE = 0.90
FALSE_POSITIVE_SHARE = 0.05
CENTRE_SIGMA_PX = 1.5
SIZE_SIGMA = 0.08


def _scenario(n_frames: int, seed: int, dropout: dict, noise: float, jitter: float):
    grid_a = GridBox(WorldPoint3D(0.0, 0.0, 0.0), 390.0, 390.0, 850.0)
    cameras = standard_cameras(
        grid_a, "pinhole", (1920, 1080), 245.0, grid_a.h_mm / 2.0,
        grid_a.h_mm + 2500.0, 200.0, 2000.0,
    )
    path = PathSpec(
        face="y_max",
        waypoints=(WorldPoint3D(150.0, 270.0, 200.0), WorldPoint3D(250.0, 270.0, 200.0)),
        speed_mm_s=20.0,
        loop=True,
    )
    return SimScenario(
        rig=RigGeometry(grid_a, px_per_mm=1.0),
        cameras=cameras,
        grid_b=GridBox(WorldPoint3D(120.0, 120.0, 100.0), 150.0, 150.0, 400.0),
        path=path,
        n_frames=n_frames,
        noise_sigma_px=noise,
        confidence_jitter=jitter,
        dropout=dropout,
        seed=seed,
    )


def _segments(n_frames: int, count: int | None) -> list[Segment]:
    """``count`` equal windows over the run, or one per walk leg if None."""
    end_ms = n_frames * FRAME_MS
    if count is None:
        count = int(end_ms // LEG_MS)
        width = LEG_MS
    else:
        width = end_ms / count
    return [
        Segment(f"s{i}", i * width, (i + 1) * width, "y_max") for i in range(count)
    ]


def _lag_side_clocks(data, seed: int):
    """Shift each side camera's timestamps 5-15 ms behind the reference."""
    rng = random.Random(f"freerun-clock-{seed}")
    shifted = {}
    for cam, dets in data.detections.items():
        if cam == REFERENCE_CAMERA:
            shifted[cam] = dets
            continue
        lag = rng.uniform(5.0, 15.0)
        shifted[cam] = [
            dataclasses.replace(d, timestamp_ms=max(d.timestamp_ms - lag, 0.0))
            for d in dets
        ]
    return dataclasses.replace(data, detections=shifted)


def _pipeline(workload: str, seed: int, n_frames: int, out: Path, timings) -> dict:
    if workload == "lockstep":
        dropout = {"default": 0.1, REFERENCE_CAMERA: 0.0}
        config = {"reference_camera": REFERENCE_CAMERA, "pair_strategy": "best"}
        segments = _segments(n_frames, 4)
        export_format = "svg"
    else:
        dropout = {"default": 0.1}
        config = {"reference_camera": REFERENCE_CAMERA, "pair_strategy": "average_all"}
        segments = _segments(n_frames, None)
        export_format = "ply"
    scenario = _scenario(n_frames, seed, dropout, noise=1.5, jitter=0.05)
    with timings.timed("simulate.generate.s"):
        data = generate_scenario(scenario)
        if workload == "freerun":
            data = _lag_side_clocks(data, seed)
    with timings.timed("simulate.write.s"):
        files = write_generated(data, out)
        jsonio.write_doc(out / "config.json", config)
        write_segments(out / "segments.csv", segments)
    return {
        "picks": files["picks"],
        "detections": sorted(v for k, v in files.items() if k.startswith("detections_")),
        "truth": files["truth"],
        "config": str(out / "config.json"),
        "segments": str(out / "segments.csv"),
        "export_format": export_format,
        "rows": sum(len(d) for d in data.detections.values()),
    }


def _detscore(seed: int, n_frames: int, out: Path, timings) -> dict:
    rng = random.Random(f"detscore-{seed}")
    with timings.timed("simulate.generate.s"):
        # noise-free boxes of one side camera are the ground truth
        scenario = _scenario(n_frames, seed, {"default": 0.0}, noise=0.0, jitter=0.0)
        scenario = dataclasses.replace(scenario, cameras=scenario.cameras[:1])
        data = generate_scenario(scenario)
        truth = next(iter(data.detections.values()))
        predictions = []
        for gt in truth:
            cu = (gt.u_min + gt.u_max) / 2.0
            cv = (gt.v_min + gt.v_max) / 2.0
            half = (gt.u_max - gt.u_min) / 2.0
            if rng.random() < MATCH_SHARE:
                predictions.append(_box(gt, rng, cu, cv, half, rng.uniform(0.3, 1.0)))
            if rng.random() < FALSE_POSITIVE_SHARE:
                # far enough from the subject that it can never match
                cu += rng.choice((-1, 1)) * rng.uniform(6 * half, 20 * half)
                predictions.append(_box(gt, rng, cu, cv, half, rng.uniform(0.05, 0.7)))
    with timings.timed("simulate.write.s"):
        jsonio.write_doc(out / "picks.json", marker_picks_doc(marker_picks_for(
            _scenario(1, seed, None, noise=0.0, jitter=0.0))))
        write_detections(out / "predictions.csv", predictions)
        with open(out / "ground_truth.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(GT_HEADER) + "\n")
            for gt in truth:
                fh.write(f"{gt.frame_index},{gt.u_min!r},{gt.v_min!r},"
                         f"{gt.u_max!r},{gt.v_max!r}\n")
    return {
        "picks": str(out / "picks.json"),
        "predictions": str(out / "predictions.csv"),
        "ground_truth": str(out / "ground_truth.csv"),
        "rows": len(predictions),
        "truth_rows": len(truth),
    }


def _box(gt, rng, cu, cv, half, confidence):
    """A noisy box around (cu, cv); confidences keep two decimals so they tie."""
    cu += rng.gauss(0.0, CENTRE_SIGMA_PX)
    cv += rng.gauss(0.0, CENTRE_SIGMA_PX)
    hu = half * (1.0 + rng.gauss(0.0, SIZE_SIGMA))
    hv = half * (1.0 + rng.gauss(0.0, SIZE_SIGMA))
    return dataclasses.replace(
        gt, u_min=cu - hu, v_min=cv - hv, u_max=cu + hu, v_max=cv + hv,
        confidence=round(confidence, 2),
    )


def generate(workload: str, seed: int, n_frames: int, out: Path, timings) -> dict:
    """Write one workload's inputs under ``out``; returns its manifest.

    The manifest (also saved as ``manifest.json``) names every input file
    and the number of detection rows the program will read.
    """
    out.mkdir(parents=True, exist_ok=True)
    if workload in PIPELINES:
        manifest = _pipeline(workload, seed, n_frames, out, timings)
    elif workload == "detscore":
        manifest = _detscore(seed, n_frames, out, timings)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed, frames=n_frames, dir=str(out))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest
