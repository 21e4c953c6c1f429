"""Command-line front end.

Subcommands cover the whole pipeline: ``simulate`` produces a synthetic
data set, ``calibrate`` turns marker picks into a calibration file,
``reconstruct`` fuses detection CSVs into a 3D track, ``evaluate`` scores
a track against segment declarations, ``detmetrics`` scores 2D detections
against ground-truth boxes, and ``export`` renders a track as CSV, PLY or
SVG.

Exit codes: 0 on success, 1 for data errors (bad files, impossible
geometry), 2 for usage and configuration errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, fields, replace

from . import jsonio
from .calibration import (
    build_calibration,
    load_calibration,
    load_marker_picks,
    save_calibration,
)
from .detections import DEFAULT_SYNC_TOLERANCE_MS, parse_detections_file, synchronize
from .errors import ConfigError, GridscopeError, NonPositiveLength
from .evaluation import evaluate_track, read_segments
from .export import EXPORT_FORMATS, export_track
from .fusion import (
    DEFAULT_Z_REJECT_MM,
    PAIR_STRATEGIES,
    FusionStats,
    build_track,
    read_track,
    write_track,
)
from .geometry import GridBox, WorldPoint3D
from .metrics import evaluate_detections, read_ground_truth, read_predictions
from .simulate import generate_scenario, load_scenario, write_generated

log = logging.getLogger("gridscope")


@dataclass(frozen=True)
class RunConfig:
    """Reconstruction settings; a config file provides defaults, flags win."""

    sync_tolerance_ms: float = DEFAULT_SYNC_TOLERANCE_MS
    reference_camera: str | None = None
    z_reject_mm: float = DEFAULT_Z_REJECT_MM
    pair_strategy: str = "best"
    depth_correction: bool = True
    vertical_correction: bool = True

    def __post_init__(self):
        # "not >= 0" also turns away NaN, which argparse's float() accepts
        if not self.sync_tolerance_ms >= 0:
            raise ConfigError(
                f"sync_tolerance_ms must be >= 0, got {self.sync_tolerance_ms}"
            )
        if not self.z_reject_mm >= 0:
            raise ConfigError(f"z_reject_mm must be >= 0, got {self.z_reject_mm}")
        if self.pair_strategy not in PAIR_STRATEGIES:
            raise ConfigError(
                f"pair_strategy must be {'|'.join(PAIR_STRATEGIES)}, "
                f"got {self.pair_strategy!r}"
            )


# How a config file value is read for each RunConfig field, by annotation.
_READ_AS = {
    "float": jsonio.DocReader.real,
    "bool": jsonio.DocReader.boolean,
    "str": jsonio.DocReader.string,
    "str | None": jsonio.DocReader.string,
}
_CONFIG_READERS = {f.name: _READ_AS[f.type] for f in fields(RunConfig)}


def load_run_config(path) -> RunConfig:
    """Read a reconstruction config file; every key is optional."""
    try:
        root = jsonio.DocReader(jsonio.read_doc(path))
    except GridscopeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    given = [name for name in _CONFIG_READERS if name in root.value]
    kwargs = {name: _CONFIG_READERS[name](root.key(name)) for name in given}
    stray = set(root.value) - set(_CONFIG_READERS)
    if stray:
        raise ConfigError(f"{path}: unknown config keys {sorted(stray)}")
    return RunConfig(**kwargs)


def _merged_config(args) -> RunConfig:
    """The config file's settings, overridden by every flag given."""
    cfg = load_run_config(args.config) if args.config is not None else RunConfig()
    updates = {
        name: getattr(args, name)
        for name in _CONFIG_READERS
        if getattr(args, name) is not None
    }
    return replace(cfg, **updates) if updates else cfg


def _parse_box(text: str) -> GridBox:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError(
            f"expected origin_x,origin_y,origin_z,w,d,h (6 numbers), got {text!r}"
        )
    try:
        vals = [jsonio.real(p, "--grid-b") for p in parts]
        return GridBox(WorldPoint3D(*vals[:3]), *vals[3:])
    except (ValueError, NonPositiveLength) as exc:
        raise ConfigError(f"bad box {text!r}: {exc}") from exc


# --- subcommands ------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    data = generate_scenario(scenario)
    files = write_generated(data, args.out)
    total = sum(len(d) for d in data.detections.values())
    log.info("generated %d detections over %d frames", total, scenario.n_frames)
    for path in files.values():
        print(f"wrote {path}")
    return 0


def _cmd_calibrate(args) -> int:
    picks = load_marker_picks(args.picks)
    cal = build_calibration(picks, mde_aggregate=args.mde_aggregate)
    save_calibration(args.out, cal)
    for cam in cal.cameras:
        print(
            f"{cam.camera_id} ({cam.role.label()}): "
            f"{len(cam.sub_areas)} sub-areas, "
            f"mde_h={cam.mde_h:.3f} mde_v={cam.mde_v:.3f}"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _merged_config(args)
    cal = load_calibration(args.calibration)
    detections = []
    skipped = 0
    for path in args.detections:
        result = parse_detections_file(path, strict=args.strict)
        detections.extend(result.detections)
        skipped += result.skipped
        for err in result.errors:
            log.debug("%s: %s", path, err)
    if skipped:
        log.warning("skipped %d malformed detection rows", skipped)
    bundles = synchronize(
        detections,
        tolerance_ms=cfg.sync_tolerance_ms,
        reference_camera=cfg.reference_camera,
    )
    track, stats = build_track(
        cal,
        bundles,
        z_reject_mm=cfg.z_reject_mm,
        depth_correction=cfg.depth_correction,
        vertical_correction=cfg.vertical_correction,
        pair_strategy=cfg.pair_strategy,
    )
    write_track(args.out, track)
    if args.stats is not None:
        jsonio.write_doc(args.stats, stats.as_doc())
        print(f"wrote {args.stats}")
    print(
        f"{len(detections)} detections -> {stats.total} bundles -> "
        f"{stats.plotted} track points "
        f"(rejected_z={stats.rejected_z}, missing_top={stats.missing_top}, "
        f"outside_area={stats.outside_area})"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cal = load_calibration(args.calibration)
    track = read_track(args.track)
    segments = read_segments(args.segments)
    box = _parse_box(args.grid_b) if args.grid_b is not None else cal.rig.grid_a
    stats = None
    if args.stats is not None:
        stats = FusionStats.from_doc(jsonio.read_doc(args.stats))
    report = evaluate_track(
        track,
        segments,
        box,
        px_per_mm=cal.rig.px_per_mm,
        stats=stats,
        bounded=args.bounded,
    )
    sys.stdout.write(report.human_table())
    if args.report is not None:
        jsonio.write_doc(args.report, report.as_doc())
        print(f"wrote {args.report}")
    return 0


def _cmd_detmetrics(args) -> int:
    predictions = read_predictions(args.predictions)
    ground_truth = read_ground_truth(args.ground_truth)
    report = evaluate_detections(predictions, ground_truth)
    sys.stdout.write(report.human_table())
    if args.report is not None:
        jsonio.write_doc(args.report, report.as_doc())
        print(f"wrote {args.report}")
    return 0


def _cmd_export(args) -> int:
    cal = load_calibration(args.calibration)
    track = read_track(args.track)
    export_track(args.out, track, args.format, cal.rig.grid_a)
    print(f"wrote {args.out}")
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridscope",
        description="3D trajectory reconstruction for a calibrated grid rig.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log detail (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic data set")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a calibration from marker picks")
    p.add_argument("picks", help="marker picks file")
    p.add_argument("--out", required=True, help="calibration file to write")
    p.add_argument(
        "--mde-aggregate",
        choices=("max", "mean"),
        default="max",
        help="how corner displacements combine into the depth-error figure",
    )
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reconstruct", help="fuse detections into a 3D track")
    p.add_argument("detections", nargs="+", help="detection CSV files")
    p.add_argument("--calibration", required=True, help="calibration file")
    p.add_argument("--out", required=True, help="track CSV to write")
    p.add_argument("--stats", default=None, help="also write run statistics (JSON)")
    p.add_argument("--config", default=None, help="config file with defaults")
    p.add_argument("--strict", action="store_true", help="fail on malformed rows")
    p.add_argument("--sync-tolerance-ms", type=float, default=None)
    p.add_argument("--reference-camera", default=None)
    p.add_argument("--z-reject-mm", type=float, default=None)
    p.add_argument("--pair-strategy", choices=PAIR_STRATEGIES, default=None)
    p.add_argument(
        "--depth-correction",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="apply depth correction (default: on)",
    )
    p.add_argument(
        "--vertical-correction",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="apply the vertical component of depth correction (default: on)",
    )
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="score a track against segments")
    p.add_argument("--track", required=True, help="track CSV")
    p.add_argument("--segments", required=True, help="segments CSV")
    p.add_argument("--calibration", required=True, help="calibration file")
    p.add_argument(
        "--grid-b",
        default=None,
        help="reference box as ox,oy,oz,w,d,h (default: the main grid)",
    )
    p.add_argument("--stats", default=None, help="stats JSON from reconstruct")
    p.add_argument(
        "--bounded",
        action="store_true",
        help="penalize points outside the face rectangle, not just off-plane",
    )
    p.add_argument("--report", default=None, help="also write the report as JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("detmetrics", help="score 2D detections against boxes")
    p.add_argument("--predictions", required=True, help="detection CSV")
    p.add_argument("--ground-truth", required=True, help="ground-truth box CSV")
    p.add_argument("--report", default=None, help="also write the report as JSON")
    p.set_defaults(func=_cmd_detmetrics)

    p = sub.add_parser("export", help="render a track as csv, ply or svg")
    p.add_argument("--track", required=True, help="track CSV")
    p.add_argument("--calibration", required=True, help="calibration file")
    p.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
