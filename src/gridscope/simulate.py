"""Synthetic rig generator: seeded scenarios with known ground truth.

Produces everything the reconstruction pipeline consumes (marker picks,
per-camera detection CSVs) together with the ground-truth track, from a
declarative scenario: rig dimensions, camera geometry, a reference box
(grid B), a waypoint path along one of its faces, plus noise, dropout and
a seed.

Two camera models are available per camera:

* ``aligned``: an idealized orthographic camera; the two in-plane world
  axes map linearly onto the sensor and depth is invisible.  Perfect
  alignment means the far face lands exactly on the near face, so the
  measured depth error is zero.
* ``pinhole``: perspective projection through a focal length about the
  image centre.  Deeper points are pulled toward the centre of the frame,
  which is exactly the bias the depth correction targets.

Every face is placed through the links of ``default_axis_map``, the map
that ``marker_picks_for`` writes into the picks, with a z link down from
the grid top for the top face: on each link's axis, face point (a, b) at
``depth`` mm inward lies at that link's ``world_from_model`` of a, b or
depth.  So the simulated rig is the calibrated one by construction.  Each
camera looks along the same links: image u grows along a, v along b, and
the camera looks along depth, so ``project`` reads each camera coordinate
as ``sign * (point - position)`` on its link's axis.  A side camera is
horizontal, and the top camera looks straight down, because the links are.

Determinism: one ``random.Random(seed)`` stream drives generation.  Per
frame (ascending) and per camera (sides 0..3 then top) the draws are:
one uniform for dropout; if the detection survives and the noise sigma is
positive, two uniforms turned into a Gaussian pair via Box-Muller (u then
v jitter); if the confidence jitter is positive, one uniform.  Fixed seed
therefore means byte-identical output files.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .calibration import (
    GRID_A,
    AxisComponent,
    AxisMap,
    CameraPicks,
    CameraRole,
    MarkerPicks,
    RigGeometry,
    SubAreaPick,
    default_axis_map,
    format_version,
    marker_picks_doc,
)
from .detections import Detection, write_detections
from .errors import BehindCamera, ConfigError
from .geometry import FACES, GridBox, PixelPoint, Quad, WorldPoint3D
from . import jsonio

SCENARIO_FORMAT_VERSION = 1

DEFAULT_FRAME_RATE_FPS = 20.0
DEFAULT_SIDE_DISTANCE_MM = 245.0
DEFAULT_BBOX_HALF_PX = 15.0
DEFAULT_CONFIDENCE_JITTER = 0.05


@dataclass(frozen=True)
class SimCamera:
    """One synthetic camera, looking along the links of the face it watches.

    ``links`` are the face's (a, b, depth) links from ``_face_links``:
    image u grows along a, v along b, and the camera looks along depth.
    Only each link's axis and sign place a pixel; the origins are the
    face's, not the camera's.
    """

    camera_id: str
    role: CameraRole
    position: tuple[float, float, float]
    links: tuple[AxisComponent, AxisComponent, AxisComponent]
    focal_px: float
    resolution: tuple[int, int]
    mode: str  # "aligned" or "pinhole"
    ortho_px_per_mm: float = 1.0

    def __post_init__(self):
        if self.mode not in ("aligned", "pinhole"):
            raise ConfigError(f"camera mode must be aligned|pinhole, got {self.mode!r}")
        if self.mode == "pinhole" and not self.focal_px > 0:
            raise ConfigError(f"focal_px must be > 0, got {self.focal_px}")
        if self.ortho_px_per_mm <= 0:
            raise ConfigError(f"ortho_px_per_mm must be > 0, got {self.ortho_px_per_mm}")
        if min(self.resolution) <= 0:
            raise ConfigError(
                f"camera {self.camera_id}: resolution must be positive, "
                f"got {self.resolution}"
            )
        if max(self.resolution) > sys.float_info.max:  # project halves it as a float
            raise ConfigError(f"camera {self.camera_id}: resolution is past float range")


def project(camera: SimCamera, point: WorldPoint3D) -> PixelPoint:
    """Project a world point onto a camera's sensor.

    Each camera coordinate is ``sign * (point - position)`` on its link's
    axis: xc along a, yc along b, zc along depth.

    Raises:
        BehindCamera: perspective projection of a point at or behind the
            image plane.
    """
    pos = camera.position
    offset = {"x": point.x - pos[0], "y": point.y - pos[1], "z": point.z - pos[2]}
    a, b, depth = camera.links
    xc = a.sign * offset[a.axis]
    yc = b.sign * offset[b.axis]
    cx = camera.resolution[0] / 2.0
    cy = camera.resolution[1] / 2.0
    if camera.mode == "aligned":
        s = camera.ortho_px_per_mm
        return PixelPoint(cx + s * xc, cy + s * yc)
    zc = depth.sign * offset[depth.axis]
    if zc <= 1e-9:
        raise BehindCamera(
            f"camera {camera.camera_id}: point ({point.x}, {point.y}, {point.z}) "
            f"is not in front of the image plane"
        )
    f = camera.focal_px
    return PixelPoint(cx + f * xc / zc, cy + f * yc / zc)


# --- faces ------------------------------------------------------------------


def _face_links(
    axis_map: AxisMap, role: CameraRole, grid_a: GridBox
) -> tuple[AxisComponent, AxisComponent, AxisComponent]:
    """The (a, b, depth) links of the face a camera watches.

    A side's are its axis-map links; the top's are its a and b links and a
    z link from the grid top, since the top camera looks down.
    """
    if role.is_side:
        side = axis_map.sides[role.index]
        return side.horizontal, side.vertical, side.depth
    return axis_map.top.a, axis_map.top.b, AxisComponent("z", grid_a.h_mm, -1)


def _face_point(links, a: float, b: float, depth: float = 0.0) -> WorldPoint3D:
    """Face point (a, b) mm, ``depth`` mm inward; each link places its axis."""
    values = zip(links, (a, b, depth))  # a scale of 1.0 keeps every bit
    return WorldPoint3D(**{k.axis: k.world_from_model(v, 1.0) for k, v in values})


def _extents(grid_a: GridBox, links) -> list[float]:
    """The grid's span along each link's axis."""
    spans = grid_a.spans()
    return [spans[link.axis][1] - spans[link.axis][0] for link in links]


def standard_cameras(
    grid_a: GridBox,
    mode: str,
    resolution: tuple[int, int],
    side_distance_mm: float,
    side_height_mm: float,
    top_height_mm: float,
    focal_px: float,
    top_focal_px: float,
    ortho_px_per_mm: float = 1.0,
    top_mode: str | None = None,
) -> tuple[SimCamera, ...]:
    """The symmetric five-camera arrangement around the grid; each camera
    looks along its face's depth link, a side camera at its face's centre."""
    axis_map = default_axis_map(grid_a)
    cams = []
    for i in range(4):
        role = CameraRole.side(i)
        links = _face_links(axis_map, role, grid_a)
        centre_a = _extents(grid_a, links)[0] / 2.0
        pos = _face_point(links, centre_a, grid_a.h_mm - side_height_mm, -side_distance_mm)
        cams.append(
            SimCamera(
                f"side{i}", role, (pos.x, pos.y, pos.z), links, focal_px,
                resolution, mode, ortho_px_per_mm,
            )
        )
    top = CameraRole.top()
    cams.append(
        SimCamera(
            "top", top, (grid_a.w_mm / 2.0, grid_a.d_mm / 2.0, top_height_mm),
            _face_links(axis_map, top, grid_a), top_focal_px, resolution,
            top_mode or mode, ortho_px_per_mm,
        )
    )
    return tuple(cams)


# --- sub-area layouts -------------------------------------------------------


def sub_area_rects(
    layout: str, ext_a: float, ext_b: float, inner: tuple[float, float]
) -> list[tuple[float, float, float, float]]:
    """Face-plane rectangles (a0, b0, a1, b1) for a layout, in index order.

    ``five`` is a pinwheel: four rectangles wrap around a central one whose
    corners sit at the inner fractions of each extent.  The centre patch
    has index 0 so shared-edge points resolve to it.
    """
    if layout == "single":
        return [(0.0, 0.0, ext_a, ext_b)]
    if layout == "four":
        ha, hb = ext_a / 2.0, ext_b / 2.0
        return [
            (0.0, 0.0, ha, hb),
            (ha, 0.0, ext_a, hb),
            (ha, hb, ext_a, ext_b),
            (0.0, hb, ha, ext_b),
        ]
    if layout == "five":
        f1, f2 = inner
        if not 0.0 < f1 < f2 < 1.0:
            raise ConfigError(f"inner fractions must satisfy 0 < f1 < f2 < 1, got {inner}")
        a1, a2 = f1 * ext_a, f2 * ext_a
        b1, b2 = f1 * ext_b, f2 * ext_b
        return [
            (a1, b1, a2, b2),          # centre
            (0.0, 0.0, a2, b1),        # around it, pinwheel-fashion
            (a2, 0.0, ext_a, b2),
            (a1, b2, ext_a, ext_b),
            (0.0, b1, a1, ext_b),
        ]
    raise ConfigError(f"unknown sub_area_layout {layout!r}")


def _camera_picks(
    camera: SimCamera,
    rig: RigGeometry,
    axis_map: AxisMap,
    layout: str,
    inner: tuple[float, float],
) -> CameraPicks:
    links = _face_links(axis_map, camera.role, rig.grid_a)
    ext_a, ext_b, far = _extents(rig.grid_a, links)
    px = rig.px_per_mm
    res_w, res_h = camera.resolution
    sub_areas = []
    for index, (a0, b0, a1, b1) in enumerate(
        sub_area_rects(layout, ext_a, ext_b, inner)
    ):
        corners = []
        for a, b in ((a0, b0), (a1, b0), (a1, b1), (a0, b1)):
            pix = project(camera, _face_point(links, a, b))
            if not (0 <= pix.u <= res_w and 0 <= pix.v <= res_h):
                raise ConfigError(
                    f"camera {camera.camera_id}: marker at face ({a}, {b}) "
                    f"projects off-sensor to ({pix.u:.1f}, {pix.v:.1f})"
                )
            corners.append((pix.u, pix.v))
        sub_areas.append(
            SubAreaPick(
                index=index,
                src_quad=Quad.from_coords(corners),
                canonical=((a1 - a0) * px, (b1 - b0) * px),
                mg_origin=(a0 * px, b0 * px),
            )
        )
    face_n = face_f = None
    if camera.role.is_side:
        outer = ((0.0, 0.0), (ext_a, 0.0), (ext_a, ext_b), (0.0, ext_b))

        def face_quad(depth: float) -> Quad:
            pixels = (project(camera, _face_point(links, a, b, depth)) for a, b in outer)
            return Quad.from_coords([(p.u, p.v) for p in pixels])

        face_n, face_f = face_quad(0.0), face_quad(far)
    return CameraPicks(
        camera_id=camera.camera_id,
        role=camera.role,
        resolution=camera.resolution,
        sub_areas=tuple(sub_areas),
        face_n_quad=face_n,
        face_f_quad=face_f,
    )


def marker_picks_for(scenario: "SimScenario") -> MarkerPicks:
    """Project every marker of the scenario into its cameras' pixels."""
    rig, axis_map = scenario.rig, scenario.axis_map
    return MarkerPicks(
        rig=rig,
        axis_map=axis_map,
        cameras=tuple(
            _camera_picks(cam, rig, axis_map, scenario.sub_area_layout, scenario.inner)
            for cam in scenario.cameras
        ),
    )


# --- scenario ---------------------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """A constant-speed waypoint walk along one face of grid B."""

    face: str
    waypoints: tuple[WorldPoint3D, ...]
    speed_mm_s: float
    loop: bool = False

    def __post_init__(self):
        if self.face not in FACES:
            raise ConfigError(f"unknown path face {self.face!r}")
        if not self.waypoints:
            raise ConfigError("path needs at least one waypoint")
        if self.speed_mm_s < 0:
            raise ConfigError(f"speed_mm_s must be >= 0, got {self.speed_mm_s}")


@dataclass(frozen=True)
class SimScenario:
    rig: RigGeometry
    cameras: tuple[SimCamera, ...]
    grid_b: GridBox
    path: PathSpec
    n_frames: int
    frame_rate_fps: float = DEFAULT_FRAME_RATE_FPS
    noise_sigma_px: float = 0.0
    dropout: dict[str, float] | None = None
    bbox_half_px: float = DEFAULT_BBOX_HALF_PX
    confidence_jitter: float = DEFAULT_CONFIDENCE_JITTER
    sub_area_layout: str = "five"
    inner: tuple[float, float] = (0.25, 0.75)
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.frame_rate_fps <= 0:
            raise ConfigError(f"frame_rate_fps must be > 0, got {self.frame_rate_fps}")
        # a frame interval of inf makes the last time inf, or 0 * inf = nan
        try:
            last_ms = (self.n_frames - 1) * (1000.0 / self.frame_rate_fps)
        except OverflowError:  # n_frames - 1 is past float range
            last_ms = math.inf
        if not math.isfinite(last_ms):
            raise ConfigError(
                f"frame_rate_fps {self.frame_rate_fps} puts frame {self.n_frames - 1} "
                f"at a time that is not finite ({last_ms} ms)"
            )
        # _sample_path's distance at the last frame, which math.fmod must take
        last_mm = self.path.speed_mm_s * (last_ms / 1000.0)
        if self.path.loop and not math.isfinite(last_mm):
            raise ConfigError(
                f"speed_mm_s {self.path.speed_mm_s} puts frame {self.n_frames - 1} "
                f"of the looped path at a distance that is not finite ({last_mm} mm)"
            )
        if self.noise_sigma_px < 0:
            raise ConfigError(f"noise_sigma_px must be >= 0, got {self.noise_sigma_px}")
        if self.bbox_half_px <= 0:
            raise ConfigError(f"bbox_half_px must be > 0, got {self.bbox_half_px}")
        if not 0 <= self.confidence_jitter < 1:
            raise ConfigError(
                f"confidence_jitter must be in [0, 1), got {self.confidence_jitter}"
            )
        camera_ids = [cam.camera_id for cam in self.cameras]
        for cam_id, p in (self.dropout or {}).items():
            if cam_id != "default" and cam_id not in camera_ids:
                raise ConfigError(
                    f"dropout names camera {cam_id!r}, which is not one of "
                    f"{', '.join(camera_ids)} (or default)"
                )
            if not 0 <= p <= 1:
                raise ConfigError(f"dropout for {cam_id} must be in [0, 1], got {p}")
        if not self.rig.grid_a.contains(self.grid_b):
            raise ConfigError("grid B must lie inside grid A")
        self._validate_waypoints()

    def _validate_waypoints(self):
        axis, plane = self.grid_b.face_plane(self.path.face)
        spans = self.grid_b.spans()
        for wp in self.path.waypoints:
            if abs(getattr(wp, axis) - plane) > 1e-6:
                raise ConfigError(
                    f"waypoint ({wp.x}, {wp.y}, {wp.z}) is off the "
                    f"{self.path.face} plane ({axis} = {plane})"
                )
            for other, (lo, hi) in spans.items():
                if other == axis:
                    continue
                if not (lo - 1e-6 <= getattr(wp, other) <= hi + 1e-6):
                    raise ConfigError(
                        f"waypoint ({wp.x}, {wp.y}, {wp.z}) leaves the "
                        f"{self.path.face} face rectangle on axis {other}"
                    )

    @property
    def axis_map(self) -> AxisMap:
        return default_axis_map(self.rig.grid_a)

    def dropout_for(self, camera_id: str) -> float:
        table = self.dropout or {}
        return table.get(camera_id, table.get("default", 0.0))


@dataclass(frozen=True)
class TruthSample:
    timestamp_ms: float
    position: WorldPoint3D


@dataclass(frozen=True)
class GeneratedData:
    picks: MarkerPicks
    detections: dict[str, list[Detection]]
    truth: list[TruthSample]


def _sample_path(path: PathSpec, n_frames: int, fps: float) -> list[WorldPoint3D]:
    pts = [(w.x, w.y, w.z) for w in path.waypoints]
    seg_lengths = [
        math.sqrt(sum((q - p) * (q - p) for p, q in zip(a, b)))
        for a, b in zip(pts, pts[1:])
    ]
    total = sum(seg_lengths)
    positions = []
    frame_ms = 1000.0 / fps
    for k in range(n_frames):
        t_s = (k * frame_ms) / 1000.0
        dist = path.speed_mm_s * t_s
        if total == 0.0:
            positions.append(WorldPoint3D(*pts[0]))
            continue
        if path.loop:
            dist = math.fmod(dist, total)
        else:
            dist = min(dist, total)
        acc = 0.0
        chosen = pts[-1]
        for (a, b), length in zip(zip(pts, pts[1:]), seg_lengths):
            if length == 0.0:
                continue
            if dist <= acc + length:
                frac = (dist - acc) / length
                chosen = tuple(p + (q - p) * frac for p, q in zip(a, b))
                break
            acc += length
        positions.append(WorldPoint3D(*chosen))
    return positions


def generate_scenario(scenario: SimScenario) -> GeneratedData:
    """Run a scenario: marker picks, noisy detections, ground truth."""
    picks = marker_picks_for(scenario)
    positions = _sample_path(
        scenario.path, scenario.n_frames, scenario.frame_rate_fps
    )
    frame_ms = 1000.0 / scenario.frame_rate_fps
    rng = random.Random(scenario.seed)
    detections: dict[str, list[Detection]] = {
        cam.camera_id: [] for cam in scenario.cameras
    }
    truth: list[TruthSample] = []
    half = scenario.bbox_half_px
    sigma = scenario.noise_sigma_px
    jitter = scenario.confidence_jitter
    for k, pos in enumerate(positions):
        t = k * frame_ms
        truth.append(TruthSample(t, pos))
        for cam in scenario.cameras:
            miss = rng.random()
            if miss < scenario.dropout_for(cam.camera_id):
                continue
            pix = project(cam, pos)
            u, v = pix.u, pix.v
            if sigma > 0.0:
                u1 = 1.0 - rng.random()
                u2 = rng.random()
                r = math.sqrt(-2.0 * math.log(u1))
                u += sigma * r * math.cos(2.0 * math.pi * u2)
                v += sigma * r * math.sin(2.0 * math.pi * u2)
            confidence = 1.0 - jitter * rng.random() if jitter > 0.0 else 1.0
            try:
                detection = Detection(
                    camera_id=cam.camera_id,
                    frame_index=str(k),
                    timestamp_ms=t,
                    u_min=u - half,
                    v_min=v - half,
                    u_max=u + half,
                    v_max=v + half,
                    confidence=confidence,
                )
            except ValueError as exc:
                # a pixel so far out (a huge resolution) that +-half rounds away
                raise ConfigError(
                    f"camera {cam.camera_id}, frame {k}: no valid box: {exc}"
                ) from exc
            detections[cam.camera_id].append(detection)
    return GeneratedData(picks, detections, truth)


# --- truth file -------------------------------------------------------------

TRUTH_HEADER = ("timestamp_ms", "x_mm", "y_mm", "z_mm")


def write_truth(path, truth: list[TruthSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRUTH_HEADER) + "\n")
        for s in truth:
            fh.write(
                f"{s.timestamp_ms!r},{s.position.x!r},{s.position.y!r},"
                f"{s.position.z!r}\n"
            )


def _truth_sample(*fields: str) -> TruthSample:
    t, x, y, z = (jsonio.real(text, name) for text, name in zip(fields, TRUTH_HEADER))
    return TruthSample(t, WorldPoint3D(x, y, z))


def read_truth(path) -> list[TruthSample]:
    return jsonio.read_file(path, jsonio.read_columns, TRUTH_HEADER, _truth_sample)[0]


# --- scenario files ---------------------------------------------------------


# A scenario's leading keys, before its camera block.
_RIG = jsonio.record(
    lambda _, grid_a, px_per_mm: RigGeometry(grid_a, px_per_mm=px_per_mm),
    format_version("scenario", SCENARIO_FORMAT_VERSION, ConfigError),
    ("grid_a", "grid_a", GRID_A),
    ("px_per_mm", "px_per_mm", jsonio.REAL, 1.0),
)
_POINT = jsonio.Doc(lambda p: [p.x, p.y, p.z], lambda r: WorldPoint3D(*r.reals(3)))
_RESOLUTION = jsonio.INTEGER.items(2)
# The keys after a scenario's camera block, read as SimScenario's fields
# after its cameras, in turn.
_SCENARIO = jsonio.record(
    lambda *values: values,
    ("grid_b", "grid_b", jsonio.record(
        lambda origin, size: GridBox(origin, *size),
        ("origin", "origin", _POINT),
        ("size", lambda g: (g.w_mm, g.d_mm, g.h_mm), jsonio.REAL.items(3)),
    )),
    ("path", "path", jsonio.record(
        PathSpec,
        ("face", "face", jsonio.STRING),
        ("waypoints", "waypoints", _POINT.items()),
        ("speed_mm_s", "speed_mm_s", jsonio.REAL),
        ("loop", "loop", jsonio.BOOLEAN, False),
    )),
    ("n_frames", "n_frames", jsonio.INTEGER),
    ("frame_rate_fps", "frame_rate_fps", jsonio.REAL, DEFAULT_FRAME_RATE_FPS),
    ("noise_sigma_px", "noise_sigma_px", jsonio.REAL, 0.0),
    ("dropout", "dropout", jsonio.REAL.by_key("a mapping of camera id to probability"),
     None),
    ("bbox_half_px", "bbox_half_px", jsonio.REAL, DEFAULT_BBOX_HALF_PX),
    ("confidence_jitter", "confidence_jitter", jsonio.REAL, DEFAULT_CONFIDENCE_JITTER),
    ("sub_area_layout", "sub_area_layout", jsonio.STRING, "five"),
    ("pinwheel_inner", "inner", jsonio.PAIR, (0.25, 0.75)),
    ("seed", "seed", jsonio.INTEGER),
)


def scenario_from_doc(doc: dict) -> SimScenario:
    root = jsonio.DocReader(doc)
    real = jsonio.DocReader.real
    rig = _RIG.read(root)
    grid_a = rig.grid_a
    cams = root.key("cameras")
    mode = cams.key("mode").string()
    resolution = _RESOLUTION.read(cams.key("resolution"))
    if mode == "pinhole" and cams.optional_key("side_distance_mm") is None:
        raise ConfigError(
            "pinhole scenarios must state cameras.side_distance_mm explicitly"
        )
    cameras = standard_cameras(
        grid_a,
        mode,
        resolution,
        cams.get("side_distance_mm", real, DEFAULT_SIDE_DISTANCE_MM),
        cams.get("side_height_mm", real, grid_a.h_mm / 2.0),
        cams.get("top_height_mm", real, grid_a.h_mm + 2500.0),
        cams.get("focal_px", real, 200.0),
        cams.get("top_focal_px", real, 2000.0),
        cams.get("ortho_px_per_mm", real, 1.0),
        top_mode=cams.get("top_mode", jsonio.DocReader.string, None),
    )
    scenario = SimScenario(rig, cameras, *_SCENARIO.read(root))
    root.refuse_unread_keys()
    return scenario


def load_scenario(path) -> SimScenario:
    return jsonio.load_doc(path, scenario_from_doc)


def write_generated(data: GeneratedData, out_dir) -> dict[str, str]:
    """Write picks, per-camera detections and truth; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    picks_path = out / "picks.json"
    jsonio.write_doc(picks_path, marker_picks_doc(data.picks))
    files["picks"] = str(picks_path)
    for cam_id, dets in data.detections.items():
        p = out / f"detections_{cam_id}.csv"
        write_detections(p, dets)
        files[f"detections_{cam_id}"] = str(p)
    truth_path = out / "truth.csv"
    write_truth(truth_path, data.truth)
    files["truth"] = str(truth_path)
    return files
