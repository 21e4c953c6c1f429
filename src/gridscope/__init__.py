"""Corrected 3D trajectory reconstruction for a calibrated grid rig.

The package turns per-camera 2D detections from a five-camera rig (four
sides, one top) into a single 3D track: sub-area homographies rectify each
view into a per-camera model grid, the top view drives a depth-error
correction of the side views, and adjacent side pairs are fused into world
coordinates.  A simulator with known ground truth, track evaluation and
detection metrics round out the toolkit.
"""

# Where each public name is defined.  The map is written out rather than
# read from the modules, since reading it would import them; a name's
# module is imported the first time the name is looked up (PEP 562).
_EXPORTS = {
    "calibration": (
        "AxisMap",
        "Calibration",
        "CameraProfile",
        "CameraRole",
        "MarkerPicks",
        "RigGeometry",
        "SubArea",
        "build_calibration",
        "build_sub_area",
        "default_axis_map",
        "load_calibration",
        "load_marker_picks",
        "load_rig",
        "measure_mde",
        "save_calibration",
        "to_model_grid",
    ),
    "depth": ("DepthObservation", "correct_side_point"),
    "detections": (
        "Detection",
        "FrameBundle",
        "parse_detections",
        "parse_detections_file",
        "synchronize",
        "write_detections",
    ),
    "errors": (
        "BehindCamera",
        "ConfigError",
        "CsvError",
        "DegenerateQuad",
        "EmptySegment",
        "EmptyTrack",
        "FormatError",
        "GridscopeError",
        "InvalidObservation",
        "NoDetections",
        "NoGroundTruth",
        "NoSegments",
        "NonPositiveLength",
        "OutsideCalibratedArea",
        "PointAtInfinity",
        "UndefinedMetric",
        "VersionMismatch",
        "ZDisagreementExceeded",
    ),
    "evaluation": (
        "EvaluationReport",
        "Segment",
        "evaluate_track",
        "overall_accuracy",
        "plot_rate",
        "plot_rate_two_sides",
        "read_segments",
        "write_segments",
    ),
    "export": ("export_csv", "export_ply", "export_svg", "export_track"),
    "fusion": (
        "FusionStats",
        "TrackPoint",
        "TrackTable",
        "build_track",
        "read_track",
        "reconstruct_point",
        "write_track",
    ),
    "geometry": (
        "GridBox",
        "Homography",
        "ModelPoint2D",
        "PixelPoint",
        "Quad",
        "ScaleRatios",
        "WorldPoint3D",
        "apply_homography",
        "apply_scale",
        "compute_homography",
        "point_in_quad",
    ),
    "metrics": (
        "GroundTruthBox",
        "MetricsReport",
        "average_precision",
        "evaluate_detections",
        "fitness",
        "iou",
        "match_greedy",
        "precision_recall",
    ),
    "simulate": (
        "GeneratedData",
        "SimCamera",
        "SimScenario",
        "generate_scenario",
        "load_scenario",
        "project",
        "standard_cameras",
        "write_generated",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# Every public name; the submodules themselves are not API.
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
