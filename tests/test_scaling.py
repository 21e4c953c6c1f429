"""Scaling as a deterministic count: each columnar command at N and 4N frames.

A stage whose cost grows faster than its input is a defect, but timing on a
shared machine moves by tens of percent.  Counting does not.  Each command
runs in-process through ``cli.main`` on a simulated scenario of N frames and
one of 4N; the test counts Python ``call`` events under ``sys.setprofile``
and takes the ``tracemalloc`` peak, and asserts on the difference between
the two sizes, never on a total, which depends on the Python version.

A loop over rows adds at least one call per row, thousands at 4N; an array
of rows x segments grows 16-fold.  Either goes past the allowances below,
which hold about 2x headroom over the measured figures.  ``sys.setprofile``
reports each resumption of a generator as a call, so a writer that moves to
a generator per row fails here too, and so would ``read_track`` building
a ``TrackPoint`` per row of a file the fast read takes.
"""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from gridscope.cli import main
from gridscope.detections import read_detection_table
from gridscope.evaluation import Segment, write_segments
from gridscope.fusion import _CHUNK_BUNDLES
from gridscope.metrics import GT_HEADER
from gridscope.simulate import generate_scenario, write_generated

from conftest import make_scenario

N_FRAMES = 2000
SEGMENT_MS = 10000.0  # one segment per 200 frames: segments grow with frames

# Extra Python calls allowed at 4N over N: a constant, plus, for reconstruct,
# some per fusion block added and, for evaluate, some per segment added.
# Measured at 2k and 8k frames (1 and 2 blocks, 10 and 40 segments):
# reconstruct +988, evaluate +2,146, detmetrics +124, each export +46.  A
# loop over track rows would add at least 5,400.  "reconstruct mixed" reads
# the same rows dealt over files that each hold every camera, so each file's
# camera column is coded through a dict: +1,048.
CALLS_FIXED = 300
CALLS_PER_UNIT = {
    "reconstruct": ("blocks", 2000),
    "reconstruct mixed": ("blocks", 2000),  # the same command on other files
    "evaluate": ("segments", 150),
}

# The tracemalloc peak at 4N is at most this factor of the peak at N, plus
# this many bytes; measured factors are 3.3 to 4.0.
PEAK_FACTOR = 4.5
PEAK_FIXED = 256 * 1024


def _scenario_files(directory, n_frames: int) -> dict:
    """Simulate a noisy pinhole rig with dropout; write every command's inputs."""
    scenario = make_scenario(
        "pinhole",
        n_frames=n_frames,
        noise_sigma_px=1.0,
        confidence_jitter=0.05,
        dropout={"default": 0.1},
        seed=7,
    )
    files = write_generated(generate_scenario(scenario), directory / "sim")
    files["calibration"] = str(directory / "calibration.json")
    assert main(["calibrate", files["picks"], "--out", files["calibration"]]) == 0
    end_ms = n_frames * 1000.0 / scenario.frame_rate_fps
    segments = [
        Segment(f"s{k}", k * SEGMENT_MS, (k + 1) * SEGMENT_MS, "y_max")
        for k in range(math.ceil(end_ms / SEGMENT_MS))
    ]
    files["segments"] = str(directory / "segments.csv")
    write_segments(files["segments"], segments)
    # ground truth: each side0 box moved by 2 px, so matches are partial
    table, _ = read_detection_table(files["detections_side0"])
    corners = (table.u_min, table.v_min, table.u_max, table.v_max)
    rows = zip(table.frame_index, *(c.tolist() for c in corners))
    files["ground_truth"] = str(directory / "ground_truth.csv")
    with open(files["ground_truth"], "w", encoding="utf-8") as fh:
        fh.write(",".join(GT_HEADER) + "\n")
        for frame, *box in rows:
            fh.write(",".join([frame, *(repr(x + 2.0) for x in box)]) + "\n")
    files["segment_count"] = len(segments)
    # the same rows dealt over as many files, so each file mixes the cameras
    detections = sorted(k for k in files if k.startswith("detections_"))
    texts = [Path(files[k]).read_text(encoding="utf-8").splitlines() for k in detections]
    rows = [line for text in texts for line in text[1:]]
    for j in range(len(detections)):
        mixed = directory / f"mixed_{j}.csv"
        mixed.write_text("\n".join([texts[0][0], *rows[j :: len(detections)]]) + "\n",
                         encoding="utf-8")
        files[f"mixed_{j}"] = str(mixed)
    return files


def _commands(files, out) -> dict[str, list[str]]:
    detections = [files[k] for k in sorted(files) if k.startswith("detections_")]
    mixed = [files[k] for k in sorted(files) if k.startswith("mixed_")]
    track, stats = str(out / "track.csv"), str(out / "stats.json")
    commands = {
        "reconstruct": [
            "reconstruct", *detections, "--calibration", files["calibration"],
            "--out", track, "--stats", stats,
        ],
        "reconstruct mixed": [
            "reconstruct", *mixed, "--calibration", files["calibration"],
            "--out", str(out / "track_mixed.csv"),
        ],
        "evaluate": [
            "evaluate", "--track", track, "--segments", files["segments"],
            "--calibration", files["calibration"], "--stats", stats,
            "--grid-b", "120,120,100,150,150,400", "--report", str(out / "report.json"),
        ],
        "detmetrics": [
            "detmetrics", "--predictions", files["detections_side0"],
            "--ground-truth", files["ground_truth"], "--report", str(out / "det.json"),
        ],
    }
    for fmt in ("csv", "ply", "svg"):
        commands[f"export {fmt}"] = [
            "export", "--track", track, "--calibration", files["calibration"],
            "--format", fmt, "--out", str(out / f"track.{fmt}"),
        ]
    return commands


def _calls(argv) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        assert main(argv) == 0
    finally:
        sys.setprofile(None)
    return count


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Each command's (calls, peak, {"blocks": n, "segments": n}) at N and 4N."""
    figures = {}
    for n_frames in (N_FRAMES, 4 * N_FRAMES):
        root = tmp_path_factory.mktemp(f"frames{n_frames}")
        files = _scenario_files(root, n_frames)
        commands = _commands(files, root)
        for argv in commands.values():  # warm-up: parser, imports, caches
            assert main(argv) == 0
        bundles = json.loads((root / "stats.json").read_text())["total"]
        units = {
            "blocks": math.ceil(bundles / _CHUNK_BUNDLES),
            "segments": files["segment_count"],
        }
        for name, argv in commands.items():
            figures.setdefault(name, []).append((_calls(argv), _peak(argv), units))
    return figures


@pytest.mark.parametrize(
    "command",
    [
        "reconstruct", "reconstruct mixed", "evaluate", "detmetrics",
        "export csv", "export ply", "export svg",
    ],
)
def test_each_command_scales_linearly(measured, command):
    (calls, peak, units), (calls_4, peak_4, units_4) = measured[command]
    allowed = CALLS_FIXED
    if command in CALLS_PER_UNIT:
        unit, per_unit = CALLS_PER_UNIT[command]
        allowed += per_unit * (units_4[unit] - units[unit])
    assert calls_4 - calls <= allowed, (command, calls, calls_4)
    assert peak_4 <= PEAK_FACTOR * peak + PEAK_FIXED, (command, peak, peak_4)
