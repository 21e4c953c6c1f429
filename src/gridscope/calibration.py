"""Camera calibration: sub-area rectification and the model-grid mapping.

Each camera watches one face of the main grid.  Manual marker picks divide
that view into one or more convex quads ("sub-areas").  Calibration fits a
four-point homography per sub-area that rectifies it to a canonical
rectangle, attaches per-axis scale ratios, and records where the rectangle
sits inside the camera's consolidated 2D frame (the model grid).  A pixel
is mapped into the model grid by locating its sub-area, applying that
sub-area's homography, scaling about the sub-area origin and offsetting by
that origin; ``model_grid_columns`` maps a whole column of pixels at once.

Calibration also measures the maximum depth error (MDE) per camera: the
largest apparent displacement, in model-grid units, between the near-face
and far-face marker corners.  Downstream depth correction scales this
value by the observed depth and lateral offset of the subject.

Each camera plays one of the rig's five roles, the members of the
``CameraRole`` enum (four sides and the top).  The axis map ties each
camera's model-grid axes to world axes with one link type,
``AxisComponent``: a side's horizontal, vertical and depth links and the
top's two links are all origin, axis and sign.

The whole calibration (rig dimensions, per-camera sub-areas, MDE values
and the axis map) persists as a single structured-text document, written
deterministically and round-tripping bit-exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    FormatError,
    GridscopeError,
    NonPositiveLength,
    OutsideCalibratedArea,
    VersionMismatch,
)
from .geometry import (
    GridBox,
    Homography,
    ModelPoint2D,
    PixelPoint,
    Quad,
    ScaleRatios,
    WorldPoint3D,
    apply_homography,  # noqa: F401  (perfbench/spans.py wraps this name)
    apply_scale,
    compute_homography,
    homography_columns,
    point_in_quad,  # noqa: F401  (perfbench/spans.py wraps this name)
    quad_contains,
)
from . import jsonio

FORMAT_VERSION = 1

# Marker corners must land on their canonical rectangle corners this tightly.
CANONICAL_CORNER_TOLERANCE = 1e-9

DEFAULT_MARKER_COUNT = 20


class CameraRole(enum.Enum):
    """Which face a camera watches: one of four sides, or the top.

    The rig has exactly these five roles; a role's value is its label, the
    form that documents hold.
    """

    SIDE0 = "side:0"
    SIDE1 = "side:1"
    SIDE2 = "side:2"
    SIDE3 = "side:3"
    TOP = "top"

    @classmethod
    def side(cls, index: int) -> "CameraRole":
        # a bool or a float is no index, though it may equal one
        if type(index) is not int or not 0 <= index <= 3:
            raise FormatError(f"side camera index must be 0..3, got {index}")
        return cls(f"side:{index}")

    @classmethod
    def top(cls) -> "CameraRole":
        return cls.TOP

    @property
    def is_side(self) -> bool:
        return self is not CameraRole.TOP

    @property
    def index(self) -> int | None:
        """The side index 0..3, or None for the top."""
        return int(self.value[5:]) if self.is_side else None

    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "CameraRole":
        """The role whose ``label()`` is ``label``, exactly."""
        try:
            return cls(label)
        except ValueError:
            raise FormatError(f"unknown camera role {label!r}") from None


@dataclass(frozen=True)
class SubArea:
    """One rectified patch of a camera's view.

    The homography sends the four marker corners of ``src`` onto the
    canonical rectangle (0,0), (w,0), (w,h), (0,h); the scale ratios then
    convert canonical units into shared model-grid units, and ``mg_origin``
    places the patch inside the camera's model grid.
    """

    index: int
    src: Quad
    canonical_width: float
    canonical_height: float
    mg_origin: ModelPoint2D
    homography: Homography
    scale: ScaleRatios

    def __post_init__(self):
        if self.index < 0:
            raise FormatError(f"sub-area index must be >= 0, got {self.index}")
        if not (self.canonical_width > 0 and self.canonical_height > 0):
            raise NonPositiveLength(
                f"canonical dims must be positive, got "
                f"({self.canonical_width}, {self.canonical_height})"
            )
        w, h = self.canonical_width, self.canonical_height
        targets = ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h))
        corners = self.src.corners
        got_a, got_b = homography_columns(
            self.homography,
            np.array([c.u for c in corners], dtype=float),
            np.array([c.v for c in corners], dtype=float),
        )
        for corner, (ta, tb), ga, gb in zip(
            corners, targets, got_a.tolist(), got_b.tolist()
        ):
            if abs(ga - ta) > CANONICAL_CORNER_TOLERANCE or (
                abs(gb - tb) > CANONICAL_CORNER_TOLERANCE
            ):
                raise FormatError(
                    f"sub-area {self.index}: corner ({corner.u}, {corner.v}) "
                    f"maps to ({ga}, {gb}), expected ({ta}, {tb})"
                )

    def mg_corners(self) -> tuple[ModelPoint2D, ...]:
        """The canonical rectangle corners placed into the model grid."""
        w, h = self.canonical_width, self.canonical_height
        out = []
        for ca, cb in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)):
            out.append(
                ModelPoint2D(
                    self.mg_origin.a + self.scale.rx * ca,
                    self.mg_origin.b + self.scale.ry * cb,
                )
            )
        return tuple(out)


def compute_scale_ratios(mapped_side_lengths, required_side_lengths) -> ScaleRatios:
    """Per-axis ratios that stretch mapped lengths onto required lengths."""
    mw, mh = mapped_side_lengths
    rw, rh = required_side_lengths
    if not (mw > 0 and mh > 0 and rw > 0 and rh > 0):
        raise NonPositiveLength(
            f"side lengths must be positive, got mapped ({mw}, {mh}) "
            f"required ({rw}, {rh})"
        )
    return ScaleRatios(rw / mw, rh / mh)


def build_sub_area(
    index: int,
    marker_quad: Quad,
    canonical_dims,
    mg_origin,
    required_dims=None,
) -> SubArea:
    """Fit one sub-area from its marker quad.

    Args:
        index: position of the patch in the camera's sub-area list.
        marker_quad: the four picked marker corners, TL,TR,BR,BL.
        canonical_dims: (width, height) of the rectangle the homography
            rectifies to.
        mg_origin: where the patch's top-left corner sits in the model grid.
        required_dims: target (width, height) in model-grid units; when the
            canonical rectangle already has the right size (the default),
            the scale ratios come out as (1, 1).
    """
    w, h = float(canonical_dims[0]), float(canonical_dims[1])
    if not (w > 0 and h > 0):
        raise NonPositiveLength(f"canonical dims must be positive, got ({w}, {h})")
    canonical = Quad.from_coords([(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)])
    homography = compute_homography(marker_quad, canonical)
    scale = compute_scale_ratios((w, h), required_dims if required_dims else (w, h))
    origin = (
        mg_origin
        if isinstance(mg_origin, ModelPoint2D)
        else ModelPoint2D(float(mg_origin[0]), float(mg_origin[1]))
    )
    return SubArea(index, marker_quad, w, h, origin, homography, scale)


@dataclass(frozen=True)
class CameraProfile:
    """Everything calibration knows about one camera."""

    camera_id: str
    role: CameraRole
    resolution: tuple[int, int]
    sub_areas: tuple[SubArea, ...]
    mde_h: float = 0.0
    mde_v: float = 0.0

    def __post_init__(self):
        if not self.camera_id:
            raise FormatError("camera id must be non-empty")
        rw, rh = self.resolution
        if rw <= 0 or rh <= 0:
            raise NonPositiveLength(f"resolution must be positive, got {self.resolution}")
        if not self.sub_areas:
            raise FormatError(f"camera {self.camera_id}: needs at least one sub-area")
        indices = [s.index for s in self.sub_areas]
        if sorted(indices) != indices or len(set(indices)) != len(indices):
            raise FormatError(
                f"camera {self.camera_id}: sub-area indices must be unique "
                f"and ascending, got {indices}"
            )
        if self.mde_h < 0 or self.mde_v < 0:
            raise FormatError(
                f"camera {self.camera_id}: MDE must be >= 0, got "
                f"({self.mde_h}, {self.mde_v})"
            )

    @cached_property
    def mg_footprint(self) -> tuple[float, float, float, float]:
        """(min_a, min_b, max_a, max_b) over every sub-area's model-grid corners.

        Computed on first use and kept on the instance; it is not a field, so
        equality, hashing and the written document do not see it.
        """
        corners = [c for sub in self.sub_areas for c in sub.mg_corners()]
        a_vals = [c.a for c in corners]
        b_vals = [c.b for c in corners]
        return min(a_vals), min(b_vals), max(a_vals), max(b_vals)


def model_grid_columns(
    profile: CameraProfile, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map columns of image pixels into the camera's model grid.

    Sub-areas are tried in ascending index order and each pixel goes to the
    first one that contains it, so points on shared edges resolve
    deterministically to the lowest-indexed patch.

    Returns:
        The model-grid columns a and b (NaN where no sub-area contains the
        pixel) and the mask of pixels that some sub-area claimed.

    Raises:
        PointAtInfinity: a claimed pixel maps to infinity.
    """
    a = np.full(np.shape(u), np.nan)
    b = np.full(np.shape(u), np.nan)
    claimed = np.zeros(np.shape(u), dtype=bool)
    for sub in profile.sub_areas:
        hit = ~claimed
        hit[hit] = quad_contains(sub.src, u[hit], v[hit])
        if not hit.any():
            continue
        ra, rb = homography_columns(sub.homography, u[hit], v[hit])
        o = sub.mg_origin
        mg = apply_scale(sub.scale, ModelPoint2D(o.a + ra, o.b + rb), o)
        a[hit] = mg.a
        b[hit] = mg.b
        claimed |= hit
    return a, b, claimed


def _model_grid_points(
    profile: CameraProfile, points: list[PixelPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Map pixels into the model grid as columns, refusing any outside it.

    Raises:
        OutsideCalibratedArea: no sub-area contains a pixel; the first one
            is named.
    """
    a, b, claimed = model_grid_columns(
        profile,
        np.array([p.u for p in points], dtype=float),
        np.array([p.v for p in points], dtype=float),
    )
    if not claimed.all():
        p = points[int(np.argmin(claimed))]
        raise OutsideCalibratedArea(
            f"camera {profile.camera_id}: pixel ({p.u}, {p.v}) is outside "
            f"every calibrated sub-area"
        )
    return a, b


def to_model_grid(profile: CameraProfile, p: PixelPoint) -> ModelPoint2D:
    """Map one image pixel into the camera's model grid.

    A size-1 call of ``model_grid_columns``.

    Raises:
        OutsideCalibratedArea: no sub-area contains the pixel.
    """
    a, b = _model_grid_points(profile, [p])
    return ModelPoint2D(float(a[0]), float(b[0]))


def mg_bounds(profile: CameraProfile) -> tuple[float, float, float, float]:
    """Model-grid footprint (min_a, min_b, max_a, max_b) over all sub-areas."""
    return profile.mg_footprint


def measure_mde(
    profile: CameraProfile,
    face_n_markers: Quad,
    face_f_markers: Quad,
    aggregate: str = "max",
) -> tuple[float, float]:
    """Measure the per-axis maximum depth error for one camera.

    Both marker quads (near-face and far-face corners, picked in the same
    TL,TR,BR,BL order) go through the camera's model-grid mapping; the MDE
    per axis is the aggregate over the four corner pairs of the absolute
    model-grid displacement on that axis.  ``aggregate`` is "max" (the
    default) or "mean".
    """
    if aggregate not in ("max", "mean"):
        raise FormatError(f"aggregate must be 'max' or 'mean', got {aggregate!r}")
    # near and far corners alternate: near 0, far 0, near 1, ...
    pairs = zip(face_n_markers.corners, face_f_markers.corners)
    a, b = _model_grid_points(profile, [c for pair in pairs for c in pair])
    da = np.abs(a[0::2] - a[1::2]).tolist()
    db = np.abs(b[0::2] - b[1::2]).tolist()
    if aggregate == "max":
        return max(da), max(db)
    return sum(da) / 4.0, sum(db) / 4.0


# --- axis mapping -----------------------------------------------------------


@dataclass(frozen=True)
class AxisComponent:
    """Affine link between one model-grid axis and one world axis.

    world = origin_mm + sign * (model_value / px_per_mm)

    It is the axis map's one link type.  A side camera's horizontal link is
    on world x or y and its vertical link on z.  Its depth link is on x or y
    with the near face as its origin, so depth_mm = sign * (world -
    origin_mm) is zero on that face.  A top camera's links are on x or y.
    ``SideAxes`` and ``TopAxes`` check each link's axis against its place.
    """

    axis: str  # "x", "y" or "z"
    origin_mm: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise FormatError(f"sign must be -1 or 1, got {self.sign}")

    def world_from_model(self, value: float, px_per_mm: float) -> float:
        return self.origin_mm + self.sign * (value / px_per_mm)


def _check_axis(link: AxisComponent, axes: tuple[str, ...]) -> None:
    if link.axis not in axes:
        raise FormatError(
            f"axis must be {' or '.join(map(repr, axes))}, got {link.axis!r}"
        )


_PLANAR = ("x", "y")


@dataclass(frozen=True)
class SideAxes:
    horizontal: AxisComponent
    vertical: AxisComponent
    depth: AxisComponent

    def __post_init__(self):
        _check_axis(self.horizontal, _PLANAR)
        _check_axis(self.vertical, ("z",))
        _check_axis(self.depth, _PLANAR)
        if self.horizontal.axis == self.depth.axis:
            raise FormatError(
                "a side camera's horizontal axis must differ from its depth axis"
            )


@dataclass(frozen=True)
class TopAxes:
    a: AxisComponent
    b: AxisComponent

    def __post_init__(self):
        _check_axis(self.a, _PLANAR)
        _check_axis(self.b, _PLANAR)
        if self.a.axis == self.b.axis:
            raise FormatError("top camera model axes must map distinct world axes")


@dataclass(frozen=True)
class AxisMap:
    """World-frame interpretation of every camera's model grid.

    ``sides[i]`` belongs to the side camera with role index ``i``.  The four
    side cameras form a cycle around the grid; adjacent indices watch
    perpendicular faces, so their horizontal components measure different
    world axes.
    """

    sides: tuple[SideAxes, SideAxes, SideAxes, SideAxes]
    top: TopAxes

    def __post_init__(self):
        if len(self.sides) != 4:
            raise FormatError(f"axis map needs 4 side entries, got {len(self.sides)}")
        for i in range(4):
            a = self.sides[i].horizontal.axis
            b = self.sides[(i + 1) % 4].horizontal.axis
            if a == b:
                raise FormatError(
                    f"adjacent side cameras {i} and {(i + 1) % 4} must measure "
                    f"different world axes, both have {a!r}"
                )


def default_axis_map(grid_a: GridBox) -> AxisMap:
    """Axis mapping for the standard symmetric rig.

    Side 0 watches the y=0 face, then 1, 2, 3 continue counter-clockwise
    (x=W, y=D, x=0).  The world origin is the bottom corner shared by the
    near faces of sides 3 and 0.  Every side camera sees the face top at
    model-grid b=0, and the top camera reads a as x, b as depth-from-far
    (y reversed).
    """
    w, d, h = grid_a.w_mm, grid_a.d_mm, grid_a.h_mm
    vertical = AxisComponent("z", h, -1)
    sides = (
        SideAxes(AxisComponent("x", 0.0, 1), vertical, AxisComponent("y", 0.0, 1)),
        SideAxes(AxisComponent("y", 0.0, 1), vertical, AxisComponent("x", w, -1)),
        SideAxes(AxisComponent("x", w, -1), vertical, AxisComponent("y", d, -1)),
        SideAxes(AxisComponent("y", d, -1), vertical, AxisComponent("x", 0.0, 1)),
    )
    top = TopAxes(AxisComponent("x", 0.0, 1), AxisComponent("y", d, -1))
    return AxisMap(sides, top)


# --- rig + full calibration -------------------------------------------------


@dataclass(frozen=True)
class RigGeometry:
    """Physical dimensions of the main grid plus unit conversion metadata."""

    grid_a: GridBox
    px_per_mm: float = 1.0
    marker_count: int = DEFAULT_MARKER_COUNT

    def __post_init__(self):
        if self.px_per_mm <= 0:
            raise NonPositiveLength(f"px_per_mm must be > 0, got {self.px_per_mm}")
        if self.marker_count < 0:
            raise FormatError(f"marker_count must be >= 0, got {self.marker_count}")


@dataclass(frozen=True)
class Calibration:
    """A complete rig calibration: geometry, cameras and axis mapping.

    Each role (``side:0`` to ``side:3``, ``top``) has at most one camera.
    """

    rig: RigGeometry
    cameras: tuple[CameraProfile, ...]
    axis_map: AxisMap

    def __post_init__(self):
        ids = [c.camera_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise FormatError(f"duplicate camera ids in calibration: {ids}")
        for cam in self.cameras:
            first = self.role_camera(cam.role)
            if first is not cam:
                raise FormatError(
                    f"role {cam.role.label()} is held by both {first.camera_id!r} "
                    f"and {cam.camera_id!r}; each role takes at most one camera"
                )

    def camera(self, camera_id: str) -> CameraProfile:
        for cam in self.cameras:
            if cam.camera_id == camera_id:
                return cam
        raise FormatError(f"no camera {camera_id!r} in calibration")

    def role_camera(self, role: CameraRole) -> CameraProfile | None:
        """The camera that plays ``role``, or None."""
        return next((cam for cam in self.cameras if cam.role == role), None)

    def side_camera(self, index: int) -> CameraProfile | None:
        return self.role_camera(CameraRole.side(index))


# --- serialization ----------------------------------------------------------


def _quad_doc(quad: Quad) -> list:
    return [[c.u, c.v] for c in quad.corners]


def _quad_from(reader: jsonio.DocReader) -> Quad:
    return Quad.from_coords(reader.reals(4, 2))


# A side's links: (field and document key, the axis its entry leaves out,
# the key of its origin).  A top link is written as a horizontal one.
_SIDE_LINKS = (
    ("horizontal", "", "origin_mm"), ("vertical", "z", "origin_mm"),
    ("depth", "", "face_n_mm"),
)


def _link_doc(link: AxisComponent, axis="", origin="origin_mm") -> dict:
    head = {} if axis else {"axis": link.axis}
    return {**head, origin: link.origin_mm, "sign": link.sign}


def _link_from(r: jsonio.DocReader, axis="", origin="origin_mm") -> AxisComponent:
    if axis:  # an entry whose place fixes its axis may state one, unread
        r.optional_key("axis")
    return AxisComponent(
        axis or r.key("axis").string(), r.key(origin).real(), r.key("sign").integer()
    )


def _axis_map_doc(axis_map: AxisMap) -> dict:
    return {
        "sides": [
            {key: _link_doc(getattr(side, key), *how) for key, *how in _SIDE_LINKS}
            for side in axis_map.sides
        ],
        "top": {"a": _link_doc(axis_map.top.a), "b": _link_doc(axis_map.top.b)},
    }


def _axis_map_from(reader: jsonio.DocReader) -> AxisMap:
    sides = tuple(
        SideAxes(*(_link_from(s.key(key), *how) for key, *how in _SIDE_LINKS))
        for s in reader.key("sides").fixed_list(4)
    )
    top = reader.key("top")
    return AxisMap(sides, TopAxes(_link_from(top.key("a")), _link_from(top.key("b"))))


def _sub_area_doc(sub: SubArea) -> dict:
    m = sub.homography.matrix
    return {
        "index": sub.index,
        "src_quad": _quad_doc(sub.src),
        "canonical": [sub.canonical_width, sub.canonical_height],
        "mg_origin": [sub.mg_origin.a, sub.mg_origin.b],
        "homography": [[float(m[r, c]) for c in range(3)] for r in range(3)],
        "scale": [sub.scale.rx, sub.scale.ry],
    }


def _sub_area_from(r: jsonio.DocReader) -> SubArea:
    matrix = r.key("homography").reals(3, 3)
    canon = r.key("canonical").real_pair()
    origin = r.key("mg_origin").real_pair()
    scale = r.key("scale").real_pair()
    return SubArea(
        index=r.key("index").integer(),
        src=_quad_from(r.key("src_quad")),
        canonical_width=canon[0],
        canonical_height=canon[1],
        mg_origin=ModelPoint2D(*origin),
        homography=Homography(matrix),
        scale=ScaleRatios(*scale),
    )


def _header_doc(rig: RigGeometry, axis_map: AxisMap) -> dict:
    """The leading keys shared by calibration and marker-picks documents."""
    return {
        "format_version": FORMAT_VERSION,
        "grid_a": {
            "w_mm": rig.grid_a.w_mm,
            "d_mm": rig.grid_a.d_mm,
            "h_mm": rig.grid_a.h_mm,
        },
        "px_per_mm": rig.px_per_mm,
        "marker_count": rig.marker_count,
        "axis_map": _axis_map_doc(axis_map),
    }


def check_format_version(
    root: jsonio.DocReader,
    kind: str,
    supported: int = FORMAT_VERSION,
    error: type[GridscopeError] = VersionMismatch,
) -> None:
    """Raise ``error`` unless the document's format_version is ``supported``."""
    version = root.key("format_version").integer()
    if version != supported:
        raise error(
            f"{kind} format_version {version} unsupported "
            f"(this build reads {supported})"
        )


def read_grid_a(root: jsonio.DocReader) -> GridBox:
    """The main grid from a document's ``grid_a`` key, at the world origin."""
    grid = root.key("grid_a")
    return GridBox(
        WorldPoint3D(0.0, 0.0, 0.0),
        grid.key("w_mm").real(),
        grid.key("d_mm").real(),
        grid.key("h_mm").real(),
    )


def _header_from(root: jsonio.DocReader, kind: str) -> tuple[RigGeometry, AxisMap]:
    check_format_version(root, kind)
    grid_a = read_grid_a(root)
    rig = RigGeometry(
        grid_a,
        px_per_mm=root.key("px_per_mm").real(),
        marker_count=root.get(
            "marker_count", jsonio.DocReader.integer, DEFAULT_MARKER_COUNT
        ),
    )
    axis_r = root.optional_key("axis_map")  # the default is built only if absent
    axis_map = default_axis_map(grid_a) if axis_r is None else _axis_map_from(axis_r)
    root.optional_key("cameras")  # the caller's to read, or to leave unread
    root.refuse_unread_keys()
    return rig, axis_map


def _camera_doc(cam: "CameraProfile | CameraPicks") -> dict:
    """The leading keys of one camera entry in either document."""
    return {
        "id": cam.camera_id,
        "role": cam.role.label(),
        "resolution": [cam.resolution[0], cam.resolution[1]],
    }


def _camera_from(r: jsonio.DocReader) -> tuple[str, CameraRole, tuple[int, int]]:
    res = r.key("resolution").fixed_list(2)
    return (
        r.key("id").string(),
        CameraRole.from_label(r.key("role").string()),
        (res[0].integer(), res[1].integer()),
    )


def calibration_doc(cal: Calibration) -> dict:
    """The document form of a calibration (what save_calibration writes)."""
    cameras = [
        {
            **_camera_doc(cam),
            "mde_h": cam.mde_h,
            "mde_v": cam.mde_v,
            "sub_areas": [_sub_area_doc(s) for s in cam.sub_areas],
        }
        for cam in cal.cameras
    ]
    return {**_header_doc(cal.rig, cal.axis_map), "cameras": cameras}


def calibration_from_doc(doc: dict) -> Calibration:
    root = jsonio.DocReader(doc)
    rig, axis_map = _header_from(root, "calibration")
    cameras = []
    for cam_r in root.key("cameras").items():
        cameras.append(
            CameraProfile(
                *_camera_from(cam_r),
                sub_areas=tuple(
                    _sub_area_from(s) for s in cam_r.key("sub_areas").items()
                ),
                mde_h=cam_r.key("mde_h").real(),
                mde_v=cam_r.key("mde_v").real(),
            )
        )
    root.refuse_unread_keys()
    return Calibration(rig, tuple(cameras), axis_map)


def save_calibration(path, cal: Calibration) -> None:
    jsonio.write_doc(path, calibration_doc(cal))


def load_calibration(path) -> Calibration:
    return jsonio.load_doc(path, calibration_from_doc)


def _rig_from_doc(doc: dict) -> RigGeometry:
    return _header_from(jsonio.DocReader(doc), "calibration")[0]


def load_rig(path) -> RigGeometry:
    """The rig of the calibration in file ``path``, its camera entries unread.

    The header is checked as ``load_calibration`` checks it, with the same
    errors; the camera entries are neither rebuilt nor checked, so a
    marker-picks file gives its rig too.
    """
    return jsonio.load_doc(path, _rig_from_doc)


# --- building a calibration from marker picks -------------------------------


@dataclass(frozen=True)
class SubAreaPick:
    """One sub-area's manual inputs: quad, canonical dims, grid placement."""

    index: int
    src_quad: Quad
    canonical: tuple[float, float]
    mg_origin: tuple[float, float]
    required: tuple[float, float] | None = None


@dataclass(frozen=True)
class CameraPicks:
    camera_id: str
    role: CameraRole
    resolution: tuple[int, int]
    sub_areas: tuple[SubAreaPick, ...]
    face_n_quad: Quad | None = None
    face_f_quad: Quad | None = None


@dataclass(frozen=True)
class MarkerPicks:
    """Parsed contents of a marker-picks document."""

    rig: RigGeometry
    axis_map: AxisMap
    cameras: tuple[CameraPicks, ...]


def load_marker_picks(path) -> MarkerPicks:
    return jsonio.load_doc(path, _marker_picks_from_doc)


def _marker_picks_from_doc(doc: dict) -> MarkerPicks:
    root = jsonio.DocReader(doc)
    rig, axis_map = _header_from(root, "marker picks")
    cameras = []
    for cam_r in root.key("cameras").items():
        subs = []
        for s in cam_r.key("sub_areas").items():
            subs.append(
                SubAreaPick(
                    index=s.key("index").integer(),
                    src_quad=_quad_from(s.key("src_quad")),
                    canonical=s.key("canonical").real_pair(),
                    mg_origin=s.key("mg_origin").real_pair(),
                    required=s.get("required", jsonio.DocReader.real_pair, None),
                )
            )
        depth_r = cam_r.optional_key("depth_markers")
        face_n = face_f = None
        if depth_r is not None:
            face_n = _quad_from(depth_r.key("face_n"))
            face_f = _quad_from(depth_r.key("face_f"))
        cameras.append(
            CameraPicks(
                *_camera_from(cam_r),
                sub_areas=tuple(subs),
                face_n_quad=face_n,
                face_f_quad=face_f,
            )
        )
    root.refuse_unread_keys()
    return MarkerPicks(rig, axis_map, tuple(cameras))


def marker_picks_doc(picks: MarkerPicks) -> dict:
    cameras = []
    for cam in picks.cameras:
        entry = {
            **_camera_doc(cam),
            "sub_areas": [
                {
                    "index": s.index,
                    "src_quad": _quad_doc(s.src_quad),
                    "canonical": [s.canonical[0], s.canonical[1]],
                    "mg_origin": [s.mg_origin[0], s.mg_origin[1]],
                    **(
                        {"required": [s.required[0], s.required[1]]}
                        if s.required
                        else {}
                    ),
                }
                for s in cam.sub_areas
            ],
        }
        if cam.face_n_quad is not None and cam.face_f_quad is not None:
            entry["depth_markers"] = {
                "face_n": _quad_doc(cam.face_n_quad),
                "face_f": _quad_doc(cam.face_f_quad),
            }
        cameras.append(entry)
    return {**_header_doc(picks.rig, picks.axis_map), "cameras": cameras}


def build_calibration(picks: MarkerPicks, mde_aggregate: str = "max") -> Calibration:
    """Fit every camera's sub-areas and measure MDE where markers allow."""
    cameras = []
    for cam in picks.cameras:
        sub_areas = tuple(
            build_sub_area(s.index, s.src_quad, s.canonical, s.mg_origin, s.required)
            for s in cam.sub_areas
        )
        profile = CameraProfile(
            camera_id=cam.camera_id,
            role=cam.role,
            resolution=cam.resolution,
            sub_areas=sub_areas,
        )
        if cam.face_n_quad is not None and cam.face_f_quad is not None:
            mde_h, mde_v = measure_mde(
                profile, cam.face_n_quad, cam.face_f_quad, aggregate=mde_aggregate
            )
            profile = replace(profile, mde_h=mde_h, mde_v=mde_v)
        cameras.append(profile)
    return Calibration(picks.rig, tuple(cameras), picks.axis_map)
