"""Corrected 3D trajectory reconstruction for a calibrated grid rig.

The package turns per-camera 2D detections from a five-camera rig (four
sides, one top) into a single 3D track: sub-area homographies rectify each
view into a per-camera model grid, the top view drives a depth-error
correction of the side views, and adjacent side pairs are fused into world
coordinates.  A simulator with known ground truth, track evaluation and
detection metrics round out the toolkit.
"""

from types import ModuleType as _ModuleType

from .calibration import (
    AxisMap,
    Calibration,
    CameraProfile,
    CameraRole,
    MarkerPicks,
    RigGeometry,
    SubArea,
    build_calibration,
    build_sub_area,
    default_axis_map,
    load_calibration,
    load_marker_picks,
    load_rig,
    measure_mde,
    save_calibration,
    to_model_grid,
)
from .depth import DepthObservation, correct_side_point
from .detections import (
    Detection,
    FrameBundle,
    parse_detections,
    parse_detections_file,
    synchronize,
    write_detections,
)
from .errors import (
    BehindCamera,
    ConfigError,
    CsvError,
    DegenerateQuad,
    EmptySegment,
    EmptyTrack,
    FormatError,
    GridscopeError,
    InvalidObservation,
    NoDetections,
    NoGroundTruth,
    NoSegments,
    NonPositiveLength,
    OutsideCalibratedArea,
    PointAtInfinity,
    UndefinedMetric,
    VersionMismatch,
    ZDisagreementExceeded,
)
from .evaluation import (
    EvaluationReport,
    Segment,
    distance_to_face,
    evaluate_track,
    overall_accuracy,
    plot_rate,
    plot_rate_two_sides,
    read_segments,
    write_segments,
)
from .export import export_csv, export_ply, export_svg, export_track
from .fusion import (
    FusionStats,
    TrackPoint,
    TrackTable,
    build_track,
    read_track,
    reconstruct_point,
    write_track,
)
from .geometry import (
    GridBox,
    Homography,
    ModelPoint2D,
    PixelPoint,
    Quad,
    ScaleRatios,
    WorldPoint3D,
    apply_homography,
    apply_scale,
    compute_homography,
    point_in_quad,
)
from .metrics import (
    GroundTruthBox,
    MetricsReport,
    average_precision,
    evaluate_detections,
    fitness,
    iou,
    match_greedy,
    precision_recall,
)
from .simulate import (
    GeneratedData,
    SimCamera,
    SimScenario,
    generate_scenario,
    load_scenario,
    project,
    standard_cameras,
    write_generated,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not API.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
