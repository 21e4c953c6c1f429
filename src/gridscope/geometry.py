"""Planar projective geometry for the grid rig.

Coordinate conventions
----------------------

Three frames appear throughout the package:

* **Image pixels** ``(u, v)``: ``u`` grows to the right, ``v`` grows
  downward, origin at the top-left of the sensor.  Detections and marker
  picks live here.
* **Model-grid units** ``(a, b)``: the consolidated per-camera 2D frame
  built during calibration.  ``a`` grows to the right as seen by that
  camera, ``b`` grows downward from the top edge of the calibrated face.
  One model-grid unit corresponds to ``1 / px_per_mm`` millimetres.
* **World millimetres** ``(x, y, z)``: right-handed, ``z`` up, origin at
  one bottom corner of the main grid.  Which corner is fixed by the axis
  mapping stored in the calibration file.

Quads are ordered top-left, top-right, bottom-right, bottom-left as seen in
the image, which with ``v`` pointing down means every consecutive edge pair
has a positive z cross product.  Construction enforces strict convexity.

Homographies are 3x3 real matrices acting on homogeneous 2D points.  They
are normalized so the bottom-right entry is 1 whenever its magnitude allows
(|h33| > 1e-9), otherwise to unit Frobenius norm.  The four-point solver
uses the direct linear transform reduced to an 8x8 system and eliminates
with partial pivoting; a pivot magnitude below 1e-12 reports a degenerate
input rather than returning garbage.

The quad test and the homography map work on numpy columns of points
(``quad_contains``, ``homography_columns``); ``point_in_quad`` and
``apply_homography`` are their size-1 calls.  ``homography_points`` maps a
few points with the column map's operations in Python floats, for a
sub-area's four-corner check at load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateQuad, FormatError, NonPositiveLength, PointAtInfinity

# Pivot magnitudes below this abort the four-point solve.
PIVOT_TOLERANCE = 1e-12
# Homogeneous scale magnitudes below this count as the line at infinity.
INFINITY_TOLERANCE = 1e-12
# Points this far (perpendicular px) outside an edge still count as inside.
BOUNDARY_TOLERANCE = 1e-9
# |h33| above this selects the h33 = 1 normalization.
H33_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PixelPoint:
    """A point in image pixels (u right, v down)."""

    u: float
    v: float


@dataclass(frozen=True)
class ModelPoint2D:
    """A point in a camera's consolidated model-grid frame."""

    a: float
    b: float


@dataclass(frozen=True)
class WorldPoint3D:
    """A point in world millimetres (z up)."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ScaleRatios:
    """Per-axis multiplicative scale factors; both strictly positive."""

    rx: float
    ry: float

    def __post_init__(self):
        if not (self.rx > 0 and self.ry > 0):
            raise NonPositiveLength(
                f"scale ratios must be positive, got ({self.rx}, {self.ry})"
            )


@dataclass(frozen=True)
class Quad:
    """Four image corners in top-left, top-right, bottom-right, bottom-left
    order.  Strictly convex with consistent winding; degenerate corner sets
    are rejected at construction.
    """

    corners: tuple[PixelPoint, PixelPoint, PixelPoint, PixelPoint]

    def __post_init__(self):
        if len(self.corners) != 4:
            raise DegenerateQuad(f"quad needs 4 corners, got {len(self.corners)}")
        pts = [(p.u, p.v) for p in self.corners]
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            cx, cy = pts[(i + 2) % 4]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross <= 0.0:
                raise DegenerateQuad(
                    "corners must be strictly convex in TL,TR,BR,BL winding "
                    f"(turn at corner {(i + 1) % 4} has cross {cross})"
                )

    @classmethod
    def from_coords(cls, coords) -> "Quad":
        """Build from an iterable of four (u, v) pairs."""
        pts = tuple(PixelPoint(float(u), float(v)) for u, v in coords)
        return cls(pts)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, ...]:
        """(u, v, eu, ev, length): each edge's start corner, its vector to the
        next corner and its length, as (4, 1) arrays in corner order, so that
        they broadcast against a column of pixels.

        Computed on first use and kept on the instance; it is not a field, so
        equality, hashing and the written document do not see it.
        """
        pts = self.corners
        rows = []
        for i in range(4):
            a, b = pts[i], pts[(i + 1) % 4]
            eu, ev = b.u - a.u, b.v - a.v
            rows.append((a.u, a.v, eu, ev, math.hypot(eu, ev)))
        columns = tuple(np.array(c, dtype=float).reshape(4, 1) for c in zip(*rows))
        for c in columns:
            c.flags.writeable = False
        return columns


def _normalized(m: np.ndarray) -> list[float]:
    """The entries of ``m`` over its scale, in row order: ``h33`` unless it
    is near zero, else the norm.  Each entry is divided in Python floats,
    which is numpy's division, without its overflow warning."""
    h33 = float(m[2, 2])
    scale = h33
    if not abs(h33) > H33_TOLERANCE:
        with np.errstate(over="ignore"):  # a result past float range is refused below
            scale = float(np.linalg.norm(m))
            if scale == 0.0 or math.isinf(scale):  # the norm left float range
                big = float(np.abs(m).max())
                if big == 0.0:
                    raise DegenerateQuad("homography matrix is zero")
                m = m / big
                scale = float(np.linalg.norm(m))
    flat = [v / scale for v in m.reshape(-1).tolist()]
    if not (math.isfinite(scale) and all(map(math.isfinite, flat))):
        raise DegenerateQuad("homography overflows when normalized")
    return flat


class Homography:
    """An invertible 3x3 projective map, stored in normalized form."""

    __slots__ = ("_flat",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise DegenerateQuad(f"homography must be 3x3, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DegenerateQuad("homography has non-finite entries")
        flat = _normalized(m)
        # a determinant past float range is not 0; a subnormal pivot makes
        # LAPACK divide by zero, and the determinant is checked either way
        with np.errstate(over="ignore", divide="ignore"):
            det = float(np.linalg.det(np.array(flat).reshape(3, 3)))
        if abs(det) < PIVOT_TOLERANCE:
            raise DegenerateQuad("homography matrix is singular")
        self._flat = tuple(flat)

    @property
    def matrix(self) -> np.ndarray:
        m = np.array(self._flat, dtype=float).reshape(3, 3)
        m.flags.writeable = False
        return m

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def __eq__(self, other) -> bool:
        return isinstance(other, Homography) and self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        rows = [self._flat[0:3], self._flat[3:6], self._flat[6:9]]
        return f"Homography({[list(r) for r in rows]})"


def _solve_8x8(a: list[list[float]], b: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on an 8x8 system."""
    n = 8
    m = [a[i][:] + [b[i]] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot_row][col]) < PIVOT_TOLERANCE:
            raise DegenerateQuad(
                f"four-point system is singular (pivot {m[pivot_row][col]:g} "
                f"in column {col})"
            )
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for row in range(col + 1, n):
            factor = m[row][col] / pivot
            if factor != 0.0:
                for k in range(col, n + 1):
                    m[row][k] -= factor * m[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = m[row][n]
        for k in range(row + 1, n):
            acc -= m[row][k] * x[k]
        x[row] = acc / m[row][row]
    return x


def compute_homography(src: Quad, dst: Quad) -> Homography:
    """Exact-fit homography sending each src corner to the same-index dst
    corner.

    Uses the four-point direct linear transform with the h33 = 1 gauge,
    which yields an 8x8 linear system solved by Gaussian elimination with
    partial pivoting.

    Raises:
        DegenerateQuad: the system is singular (pivot below 1e-12).
    """
    rows: list[list[float]] = []
    rhs: list[float] = []
    for s, d in zip(src.corners, dst.corners):
        x, y = s.u, s.v
        X, Y = d.u, d.v
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -X * x, -X * y])
        rhs.append(X)
        rows.append([0.0, 0.0, 0.0, x, y, 1.0, -Y * x, -Y * y])
        rhs.append(Y)
    h = _solve_8x8(rows, rhs)
    return Homography([h[0:3], h[3:6], h[6:8] + [1.0]])


def homography_columns(
    h: Homography, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map equal-length columns of 2D points through a homography.

    Raises:
        PointAtInfinity: the homogeneous scale of some image vanished; the
            first such point is named.
    """
    f = h._flat
    with np.errstate(all="ignore"):
        w = f[6] * x + f[7] * y + f[8]
        far = np.abs(w) < INFINITY_TOLERANCE
        if far.any():
            i = int(np.argmax(far))
            raise PointAtInfinity(
                f"point ({float(x[i])}, {float(y[i])}) maps to infinity"
            )
        return (f[0] * x + f[1] * y + f[2]) / w, (f[3] * x + f[4] * y + f[5]) / w


def homography_points(
    h: Homography, points: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """``homography_columns`` of a few points, in Python floats.

    Each point takes the operations of ``homography_columns`` in the same
    order, so the doubles are the same, and every scale is tested before
    any point is mapped, so the same point raises PointAtInfinity.
    """
    f = h._flat
    scales = [f[6] * x + f[7] * y + f[8] for x, y in points]
    for (x, y), w in zip(points, scales):
        if abs(w) < INFINITY_TOLERANCE:
            raise PointAtInfinity(f"point ({x}, {y}) maps to infinity")
    return [
        ((f[0] * x + f[1] * y + f[2]) / w, (f[3] * x + f[4] * y + f[5]) / w)
        for (x, y), w in zip(points, scales)
    ]


def apply_homography(h: Homography, p) -> "ModelPoint2D":
    """Map a 2D point through a homography (a size-1 homography_columns).

    Accepts PixelPoint or ModelPoint2D (any object with the first two
    coordinates exposed as attributes in order); returns a ModelPoint2D.

    Raises:
        PointAtInfinity: the homogeneous scale of the image vanished.
    """
    x, y = (p.u, p.v) if isinstance(p, PixelPoint) else (p.a, p.b)
    a, b = homography_columns(h, np.array([x], dtype=float), np.array([y], dtype=float))
    return ModelPoint2D(float(a[0]), float(b[0]))


def apply_scale(s: ScaleRatios, p: ModelPoint2D, origin: ModelPoint2D) -> ModelPoint2D:
    """Scale a point about a fixed origin, per axis.

    The point's coordinates may also be equal-length numpy columns.
    """
    return ModelPoint2D(
        origin.a + s.rx * (p.a - origin.a),
        origin.b + s.ry * (p.b - origin.b),
    )


def quad_contains(quad: Quad, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Half-plane membership of 1-D pixel columns in a convex quad.

    A point counts as inside when it is on the interior side of every edge,
    allowing a perpendicular slack of 1e-9 px so boundary points (shared
    sub-area edges) are inside; a NaN coordinate is inside no quad.
    Invariant under cyclic rotation of the corner list.  The four edges are
    tested in one (4, n) broadcast over the quad's cached ``_edges``.
    """
    au, av, eu, ev, length = quad._edges
    with np.errstate(all="ignore"):
        cross = eu * (v - av) - ev * (u - au)
        # Signed distance from each edge line; winding makes inside positive.
        return (cross / length >= -BOUNDARY_TOLERANCE).all(axis=0)


def point_in_quad(p: PixelPoint, quad: Quad) -> bool:
    """Whether one pixel lies in a convex quad (a size-1 quad_contains)."""
    u, v = np.array([p.u], dtype=float), np.array([p.v], dtype=float)
    return bool(quad_contains(quad, u, v)[0])


# The six faces of a box: the low and high end of each world axis.
FACES = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")


@dataclass(frozen=True)
class GridBox:
    """An axis-aligned box in world millimetres.

    ``origin`` is the corner with the smallest coordinates; ``w_mm`` spans
    x, ``d_mm`` spans y and ``h_mm`` spans z.
    """

    origin: WorldPoint3D
    w_mm: float
    d_mm: float
    h_mm: float

    def __post_init__(self):
        if not (self.w_mm > 0 and self.d_mm > 0 and self.h_mm > 0):
            raise NonPositiveLength(
                f"box dimensions must be positive, got "
                f"({self.w_mm}, {self.d_mm}, {self.h_mm})"
            )

    def contains(self, other: "GridBox") -> bool:
        """Whether ``other`` lies inside this box (faces may touch)."""
        o, s = other.origin, self.origin
        return (
            o.x >= s.x
            and o.y >= s.y
            and o.z >= s.z
            and o.x + other.w_mm <= s.x + self.w_mm
            and o.y + other.d_mm <= s.y + self.d_mm
            and o.z + other.h_mm <= s.z + self.h_mm
        )

    def spans(self) -> dict[str, tuple[float, float]]:
        """The box's (low, high) extent along each world axis."""
        o = self.origin
        return {
            "x": (o.x, o.x + self.w_mm),
            "y": (o.y, o.y + self.d_mm),
            "z": (o.z, o.z + self.h_mm),
        }

    def face_plane(self, face: str) -> tuple[str, float]:
        """Face ``face`` of the box as the plane ``axis = value``."""
        if face not in FACES:
            raise FormatError(f"unknown face {face!r}")
        axis, end = face.split("_")
        lo, hi = self.spans()[axis]
        return axis, lo if end == "min" else hi
