"""Command-line front end.

Subcommands cover the whole pipeline: ``simulate`` produces a synthetic
data set, ``calibrate`` turns marker picks into a calibration file,
``reconstruct`` fuses detection CSVs into a 3D track, ``evaluate`` scores
a track against segment declarations, ``detmetrics`` scores 2D detections
against ground-truth boxes, and ``export`` renders a track as CSV, PLY or
SVG.

Each command imports only the modules it runs.  Loading this module
imports ``errors``, ``jsonio`` and ``options``.  ``_COMMANDS`` is the one
description of each command: its help line, what adds its arguments, the
modules whose names it calls, and its handler.  Before it runs a command,
``main`` imports that command's modules and binds here every public class
and function they define (``_bind``), so a replacement set on this module
is what the command calls.  Those modules import what they need in turn
(``calibration`` loads ``geometry``, ``fusion`` loads ``calibration``,
``depth`` and ``detections``).  Looking up a public name on this module
binds every command's modules first; a ``_``-prefixed name is never looked
up in them.

On each call ``main`` parses its arguments, sets the log level that its
``-v`` flags ask for, binds the command's modules and runs the command.
The parser, ``build_parser()``, is built on the first call and kept for
the process, since parsing writes nothing in it.

Exit codes: 0 on success, 1 for data errors (bad files, impossible
geometry), 2 for usage and configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys
from dataclasses import dataclass, fields, replace

from . import jsonio
from .errors import ConfigError, FormatError, GridscopeError, NonPositiveLength
from .options import (
    DEFAULT_SYNC_TOLERANCE_MS,
    DEFAULT_Z_REJECT_MM,
    EXPORT_FORMATS,
    PAIR_STRATEGIES,
)


def _bind(*modules: str) -> None:
    """Import each module and bind here every public class and function it
    defines (its ``__module__`` is that module); a name that is already
    bound, or was replaced, keeps its value."""
    space = globals()
    for module in modules:
        loaded = __import__(f"{__package__}.{module}", fromlist=["*"])
        for name, value in vars(loaded).items():
            defined_here = getattr(value, "__module__", None) == loaded.__name__
            if defined_here and not name.startswith("_"):
                space.setdefault(name, value)


def __getattr__(name):
    """A public class or function of a command module, bound here by the
    lookup; any other name is an AttributeError, and a ``_``-prefixed one
    imports nothing."""
    if not name.startswith("_"):
        _bind(*_COMMAND_MODULES)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        # "not >= 0" also turns away NaN; argparse's float() takes it and inf
        for name in ("sync_tolerance_ms", "z_reject_mm"):
            value = getattr(self, name)
            if not value >= 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
            if value == float("inf"):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.pair_strategy not in PAIR_STRATEGIES:
            raise ConfigError(
                f"pair_strategy must be {'|'.join(PAIR_STRATEGIES)}, "
                f"got {self.pair_strategy!r}"
            )


# The kind of a config file value for each RunConfig field, by annotation.
_READ_AS = {
    "float": jsonio.REAL,
    "bool": jsonio.BOOLEAN,
    "str": jsonio.STRING,
    # null states the default, None
    "str | None": jsonio.Doc(
        jsonio.STRING.write, lambda r: None if r.value is None else r.string()
    ),
}
_CONFIG_READERS = {f.name: _READ_AS[f.type].read for f in fields(RunConfig)}


def load_run_config(path) -> RunConfig:
    """Read a reconstruction config file; every key is optional."""
    try:
        root = jsonio.DocReader(jsonio.read_doc(path))
        given = [name for name in _CONFIG_READERS if name in root.value]
        kwargs = {name: _CONFIG_READERS[name](root.key(name)) for name in given}
        stray = set(root.value) - set(_CONFIG_READERS)
        if stray:
            raise ConfigError(f"unknown config keys {sorted(stray)}")
        return RunConfig(**kwargs)
    except GridscopeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


@contextlib.contextmanager
def _removed_on_failure(path):
    """A failure inside removes the file ``path`` if it did not exist
    before: a failed run leaves no output behind that it made itself, such
    as a track cut short, which would read as a shorter one."""
    is_new = not os.path.lexists(path)
    try:
        yield
    except BaseException:
        if is_new and os.path.lexists(path):
            os.remove(path)
        raise


# --- subcommands ------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    with jsonio.naming(args.scenario):  # a scenario the rig cannot run
        data = generate_scenario(scenario)
    files = write_generated(data, args.out)
    total = sum(len(d) for d in data.detections.values())
    log.info("generated %d detections over %d frames", total, scenario.n_frames)
    for path in files.values():
        print(f"wrote {path}")
    return 0


def _cmd_calibrate(args) -> int:
    picks = load_marker_picks(args.picks)
    with jsonio.naming(args.picks):  # a calibration the picks cannot build
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


def _read_detections(
    paths: list[str], strict: bool, cal: Calibration
) -> DetectionTable:
    """The rows of the files ``paths``, in turn, as one table.  Every row's
    camera must be one of ``cal``'s: each file's coded camera column is
    checked by its names.  The per-file tables, whose columns concat
    copies, are freed on return, before fusion runs."""
    camera_ids = [cam.camera_id for cam in cal.cameras]
    tables = []
    skipped = 0
    for path in paths:
        with jsonio.naming(path):
            table, errors = read_detection_table(path, strict=strict)
            unknown = set(table.camera_id.names).difference(camera_ids)
            if unknown:
                raise FormatError(
                    f"no camera {min(unknown)!r} in the calibration, whose "
                    f"cameras are {', '.join(camera_ids)}"
                )
        tables.append(table)
        skipped += len(errors)
        for err in errors:
            log.debug("%s: %s", path, err)
    if skipped:
        log.warning("skipped %d malformed detection rows", skipped)
    return DetectionTable.concat(tables)


def _cmd_reconstruct(args) -> int:
    cfg = _merged_config(args)
    cal = load_calibration(args.calibration)
    detections = _read_detections(args.detections, args.strict, cal)
    bundles = synchronize_table(
        detections,
        tolerance_ms=cfg.sync_tolerance_ms,
        reference_camera=cfg.reference_camera,
    )
    used = bundles.reference
    if cfg.reference_camera is not None and used not in (None, cfg.reference_camera):
        log.warning(
            "reference camera %r has no detections; grouping around %r",
            cfg.reference_camera,
            used,
        )
    track, stats = build_track(
        cal,
        bundles,
        z_reject_mm=cfg.z_reject_mm,
        depth_correction=cfg.depth_correction,
        vertical_correction=cfg.vertical_correction,
        pair_strategy=cfg.pair_strategy,
    )
    with _removed_on_failure(args.out):
        write_track(args.out, track)
        if args.stats is not None:
            jsonio.write_doc(args.stats, stats.as_doc())
    if args.stats is not None:
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
    rig = load_rig(args.calibration)
    track = read_track(args.track)
    segments = read_segments(args.segments)
    box = _parse_box(args.grid_b) if args.grid_b is not None else rig.grid_a
    stats = None
    if args.stats is not None:
        stats = jsonio.load_doc(args.stats, FusionStats.from_doc)
    report = evaluate_track(
        track,
        segments,
        box,
        px_per_mm=rig.px_per_mm,
        stats=stats,
        bounded=args.bounded,
    )
    if args.report is not None:
        jsonio.write_doc(args.report, report.as_doc())
    sys.stdout.write(report.human_table())
    if args.report is not None:
        print(f"wrote {args.report}")
    return 0


def _cmd_detmetrics(args) -> int:
    predictions, _ = read_detection_table(args.predictions, strict=True)
    ground_truth = read_ground_truth_table(args.ground_truth)
    report = evaluate_detections(predictions, ground_truth)
    if args.report is not None:
        jsonio.write_doc(args.report, report.as_doc())
    sys.stdout.write(report.human_table())
    if args.report is not None:
        print(f"wrote {args.report}")
    return 0


def _cmd_export(args) -> int:
    rig = load_rig(args.calibration)
    track = read_track(args.track)
    with _removed_on_failure(args.out):
        export_track(args.out, track, args.format, rig.grid_a)
    print(f"wrote {args.out}")
    return 0


# --- parser -----------------------------------------------------------------


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def _calibrate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("picks", help="marker picks file")
    p.add_argument("--out", required=True, help="calibration file to write")
    p.add_argument(
        "--mde-aggregate",
        choices=("max", "mean"),
        default="max",
        help="how corner displacements combine into the depth-error figure",
    )


def _reconstruct_arguments(p: argparse.ArgumentParser) -> None:
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


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--track", required=True, help="track CSV")
    p.add_argument("--segments", required=True, help="segments CSV")
    p.add_argument(
        "--calibration",
        required=True,
        help="calibration file; only its header is read, for grid_a and px_per_mm",
    )
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


def _detmetrics_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictions", required=True, help="detection CSV")
    p.add_argument("--ground-truth", required=True, help="ground-truth box CSV")
    p.add_argument("--report", default=None, help="also write the report as JSON")


def _export_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--track", required=True, help="track CSV")
    p.add_argument(
        "--calibration",
        required=True,
        help="calibration file; only its header is read, for grid_a",
    )
    p.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p.add_argument("--out", required=True, help="output file")


# name: (help line, what adds its arguments, the modules whose names it
# calls, what runs it)
_COMMANDS = {
    "simulate": ("generate a synthetic data set", _simulate_arguments,
                 ("simulate",), _cmd_simulate),
    "calibrate": ("fit a calibration from marker picks", _calibrate_arguments,
                  ("calibration",), _cmd_calibrate),
    "reconstruct": ("fuse detections into a 3D track", _reconstruct_arguments,
                    ("calibration", "detections", "fusion"), _cmd_reconstruct),
    "evaluate": ("score a track against segments", _evaluate_arguments,
                 ("calibration", "evaluation", "fusion", "geometry"), _cmd_evaluate),
    "detmetrics": ("score 2D detections against boxes", _detmetrics_arguments,
                   ("detections", "metrics"), _cmd_detmetrics),
    "export": ("render a track as csv, ply or svg", _export_arguments,
               ("calibration", "fusion", "export"), _cmd_export),
}
# Every module some command binds.
_COMMAND_MODULES = tuple(sorted({m for _, _, ms, _ in _COMMANDS.values() for m in ms}))


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand and its arguments."""
    parser = argparse.ArgumentParser(
        prog="gridscope",
        description="3D trajectory reconstruction for a calibrated grid rig.",
        allow_abbrev=False,  # a flag is given in full, never as a prefix
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log detail (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line, allow_abbrev=False))
    return parser


# Parsing writes nothing in the parser, so one serves every call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    # basicConfig does nothing once the root logger has a handler
    log.setLevel(level)
    _, _, modules, run = _COMMANDS[args.command]
    try:
        _bind(*modules)
        return run(args)
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
