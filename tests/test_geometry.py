import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope.errors import (
    DegenerateQuad,
    FormatError,
    NonPositiveLength,
    PointAtInfinity,
)
from gridscope.geometry import (
    FACES,
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
    homography_columns,
    point_in_quad,
    quad_contains,
)

from oracles import apply_matrix, homography_oracle

UNIT_SQUARE = Quad.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
MODEL_390 = Quad.from_coords([(0, 0), (390, 0), (390, 850), (0, 850)])
# A perspective-looking trapezoid, wider at the bottom like a tilted face.
TRAPEZOID = Quad.from_coords([(210, 140), (1700, 160), (1840, 990), (80, 950)])


def convex_quad(seed: int) -> Quad:
    """Deterministic random convex quad from four ascending ellipse angles."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(100, 1800, 2)
    rx, ry = rng.uniform(40, 400, 2)
    angles = np.sort(rng.uniform(0, 2 * math.pi, 4))
    # Ascending angles on an ellipse always wind consistently and convex;
    # reject near-duplicate angles that would flatten a corner.
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 0.15:
        return convex_quad(seed + 10_000)
    return Quad.from_coords(
        [(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]
    )


class TestQuad:
    def test_from_coords_orders_corners(self):
        q = Quad.from_coords([(1, 2), (3, 2), (3, 4), (1, 4)])
        assert q.corners[0] == PixelPoint(1.0, 2.0)
        assert q.corners[3] == PixelPoint(1.0, 4.0)

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateQuad):
            Quad.from_coords([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_rejects_concave(self):
        with pytest.raises(DegenerateQuad):
            Quad.from_coords([(0, 0), (4, 0), (1, 1), (0, 4)])

    def test_rejects_wrong_winding(self):
        # Valid convex shape, listed counter-winding.
        with pytest.raises(DegenerateQuad):
            Quad.from_coords([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_duplicate_corner(self):
        with pytest.raises(DegenerateQuad):
            Quad.from_coords([(0, 0), (1, 0), (1, 0), (0, 1)])


class TestHomography:
    def test_identity_round_trip(self):
        h = compute_homography(UNIT_SQUARE, UNIT_SQUARE)
        assert np.allclose(h.matrix, np.eye(3))

    def test_corner_mapping_exact_fit(self):
        h = compute_homography(TRAPEZOID, MODEL_390)
        for src, dst in zip(TRAPEZOID.corners, MODEL_390.corners):
            out = apply_homography(h, src)
            assert out.a == pytest.approx(dst.u, abs=1e-9)
            assert out.b == pytest.approx(dst.v, abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_numpy_solver(self, seed):
        src = convex_quad(seed)
        dst = convex_quad(seed + 500)
        h = compute_homography(src, dst)
        ref = homography_oracle(
            [(p.u, p.v) for p in src.corners], [(p.u, p.v) for p in dst.corners]
        )
        assert np.allclose(h.matrix, ref, rtol=0, atol=1e-8)
        for u, v in [(300.0, 300.0), (1000.0, 700.0)]:
            mine = apply_homography(h, PixelPoint(u, v))
            theirs = apply_matrix(ref, u, v)
            assert mine.a == pytest.approx(theirs[0], abs=1e-6)
            assert mine.b == pytest.approx(theirs[1], abs=1e-6)

    def test_inverse_round_trip(self):
        h = compute_homography(TRAPEZOID, MODEL_390)
        inv = h.inverse()
        p = PixelPoint(700.0, 500.0)
        fwd = apply_homography(h, p)
        back = apply_homography(inv, fwd)
        assert back.a == pytest.approx(p.u, abs=1e-6)
        assert back.b == pytest.approx(p.v, abs=1e-6)

    def test_translation_only(self):
        shifted = Quad.from_coords([(5, 7), (6, 7), (6, 8), (5, 8)])
        h = compute_homography(UNIT_SQUARE, shifted)
        out = apply_homography(h, PixelPoint(0.25, 0.5))
        assert out.a == pytest.approx(5.25, abs=1e-12)
        assert out.b == pytest.approx(7.5, abs=1e-12)

    def test_same_quad_twice_is_singular(self):
        # Repeated source corners give a rank-deficient system.
        degenerate_src = [(0, 0), (1, 0), (1, 1), (0, 1)]
        with pytest.raises(DegenerateQuad):
            # Squash the destination onto a line segment.
            compute_homography(
                Quad.from_coords(degenerate_src),
                Quad.from_coords([(0, 0), (1, 0), (1, 1e-15), (0, 1e-13)]),
            )

    def test_rejects_singular_matrix(self):
        with pytest.raises(DegenerateQuad):
            Homography([[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_a_determinant_past_float_range_is_not_singular(self):
        # det = 1 + 1e309 overflows; numpy's warning fails the suite
        m = [[1.0, 0.0, -1e4], [0.0, 1.0, 0.0], [1e305, 0.0, 1.0]]
        assert Homography(m).matrix[2, 0] == 1e305

    def test_a_normalization_past_float_range_is_refused(self):
        # the divide by h33; numpy's overflow warning would fail the suite
        with pytest.raises(DegenerateQuad, match="overflows when normalized"):
            Homography([[1e305, 0, 0], [0, 1, 0], [0, 0, 1e-6]])

    def test_a_norm_that_underflows_is_not_zero(self):
        stored = Homography(1e-200 * np.eye(3)).matrix
        assert stored.tobytes() == (np.eye(3) / math.sqrt(3)).tobytes()

    def test_a_norm_that_overflows_meets_the_determinant_check(self):
        # divided by its largest entry, then by that one's norm, the matrix
        # is diag(1, 1, 1e-212) / sqrt(2), whose determinant is below tolerance
        with pytest.raises(DegenerateQuad, match="singular"):
            Homography([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e-12]])

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateQuad):
            Homography([[1, 0, math.nan], [0, 1, 0], [0, 0, 1]])

    def test_rejects_bad_shape(self):
        with pytest.raises(DegenerateQuad):
            Homography(np.eye(4))

    def test_normalization_makes_scale_irrelevant(self):
        m = np.array([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]])
        assert Homography(m) == Homography(np.eye(3))

    def test_equality_and_hash(self):
        a = compute_homography(TRAPEZOID, MODEL_390)
        b = compute_homography(TRAPEZOID, MODEL_390)
        assert a == b
        assert hash(a) == hash(b)
        assert a != compute_homography(MODEL_390, TRAPEZOID)
        assert a != object()

    def test_matrix_is_read_only(self):
        h = compute_homography(UNIT_SQUARE, UNIT_SQUARE)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_columns_name_the_first_point_at_infinity(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])
        x, y = np.array([0.5, 1.0, 1.0]), np.array([0.0, 2.0, 3.0])
        with pytest.raises(PointAtInfinity, match=r"\(1\.0, 2\.0\)"):
            homography_columns(h, x, y)

    def test_columns_equal_points(self):
        h = compute_homography(UNIT_SQUARE, MODEL_390)
        x, y = np.array([0.0, 0.25, 0.7, 1.0]), np.array([0.0, 0.5, 0.1, 1.0])
        a, b = homography_columns(h, x, y)
        points = [apply_homography(h, PixelPoint(u, v)) for u, v in zip(x, y)]
        assert (a.tolist(), b.tolist()) == ([p.a for p in points], [p.b for p in points])

    def test_point_at_infinity(self):
        # Projective map with a finite vanishing line: w = 1 - x.
        h = Homography([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])
        with pytest.raises(PointAtInfinity):
            apply_homography(h, ModelPoint2D(1.0, 0.5))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=9, max_size=9))
@example([1e-200, 0, 0, 0, 1e-200, 0, 0, 0, 1e-200])  # the norm underflows
@example([1.7e308, 0, 0, 0, -1.7e308, 0, 0, 0, 1e-10])  # the norm overflows
def test_a_homography_is_its_matrix_over_h33_or_the_norm(entries):
    """An accepted matrix is stored as the plain divide, bit for bit, where
    the norm is in float range, and divided by its largest entry first
    where it is not; a divide by h33 that leaves float range is refused,
    and only the zero matrix is refused as zero."""
    matrix = m = np.array(entries).reshape(3, 3)
    with np.errstate(all="ignore"):
        scale = m[2, 2] if abs(m[2, 2]) > 1e-9 else np.linalg.norm(m)
        if (scale == 0 or np.isinf(scale)) and m.any():
            m = m / np.abs(m).max()
            scale = np.linalg.norm(m)
        expected = m / scale
    try:
        stored = Homography(matrix).matrix
    except DegenerateQuad as exc:
        assert ("zero" in str(exc)) == (not m.any())
        assert ("overflows" in str(exc)) == bool(np.isinf(expected).any())
    else:
        assert stored.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    cx=st.floats(-100, 2000),
    cy=st.floats(-100, 2000),
)
def test_random_convex_quads_round_trip(data, cx, cy):
    angles = sorted(
        data.draw(
            st.lists(
                st.floats(0, 2 * math.pi, allow_nan=False),
                min_size=4,
                max_size=4,
                unique=True,
            )
        )
    )
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    if min(gaps) < 0.2:
        return  # flattened corner, not the shape under test
    rx = data.draw(st.floats(10, 500))
    ry = data.draw(st.floats(10, 500))
    src = Quad.from_coords(
        [(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]
    )
    h = compute_homography(src, MODEL_390)
    for corner, target in zip(src.corners, MODEL_390.corners):
        out = apply_homography(h, corner)
        assert math.isclose(out.a, target.u, abs_tol=1e-6)
        assert math.isclose(out.b, target.v, abs_tol=1e-6)


class TestScale:
    def test_apply_scale_about_origin(self):
        s = ScaleRatios(2.0, 0.5)
        out = apply_scale(s, ModelPoint2D(10.0, 10.0), ModelPoint2D(0.0, 0.0))
        assert (out.a, out.b) == (20.0, 5.0)

    def test_apply_scale_about_offset_origin(self):
        s = ScaleRatios(3.0, 1.0)
        out = apply_scale(s, ModelPoint2D(5.0, 9.0), ModelPoint2D(4.0, 9.0))
        assert (out.a, out.b) == (7.0, 9.0)

    def test_ratios_must_be_positive(self):
        with pytest.raises(NonPositiveLength):
            ScaleRatios(0.0, 1.0)
        with pytest.raises(NonPositiveLength):
            ScaleRatios(1.0, -2.0)


class TestPointInQuad:
    def test_inside_and_outside(self):
        q = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert point_in_quad(PixelPoint(5, 5), q)
        assert not point_in_quad(PixelPoint(11, 5), q)
        assert not point_in_quad(PixelPoint(5, -0.1), q)

    def test_boundary_counts_as_inside(self):
        q = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert point_in_quad(PixelPoint(10.0, 5.0), q)
        assert point_in_quad(PixelPoint(0.0, 0.0), q)
        # Just past the 1e-9 slack is out.
        assert not point_in_quad(PixelPoint(10.0 + 1e-6, 5.0), q)

    def test_a_nan_coordinate_is_outside(self):
        q = Quad.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        for p in (PixelPoint(math.nan, 5.0), PixelPoint(5.0, math.nan)):
            assert not point_in_quad(p, q)

    def test_rotation_of_corner_list_is_irrelevant(self):
        coords = [(210, 140), (1700, 160), (1840, 990), (80, 950)]
        p = PixelPoint(900.0, 500.0)
        outside = PixelPoint(100.0, 100.0)
        for shift in range(4):
            rotated = Quad.from_coords(coords[shift:] + coords[:shift])
            assert point_in_quad(p, rotated)
            assert not point_in_quad(outside, rotated)

    def test_non_axis_aligned(self):
        diamond = Quad.from_coords([(5, 0), (10, 5), (5, 10), (0, 5)])
        assert point_in_quad(PixelPoint(5, 5), diamond)
        assert not point_in_quad(PixelPoint(9.0, 1.0), diamond)

    def test_columns_equal_points(self):
        q = Quad.from_coords([(210, 140), (1700, 160), (1840, 990), (80, 950)])
        u = np.array([900.0, 100.0, 210.0, 1840.0, 1840.0 + 1e-6, 955.0])
        v = np.array([500.0, 100.0, 140.0, 990.0, 990.0, 150.0])
        want = [point_in_quad(PixelPoint(a, b), q) for a, b in zip(u, v)]
        assert quad_contains(q, u, v).tolist() == want
        assert want[0] and not want[1] and want[2]


class TestGridBox:
    def test_contains_self_and_inner(self):
        a = GridBox(WorldPoint3D(0, 0, 0), 390, 390, 850)
        b = GridBox(WorldPoint3D(120, 120, 100), 150, 150, 400)
        assert a.contains(a)
        assert a.contains(b)
        assert not b.contains(a)

    def test_touching_faces_allowed(self):
        a = GridBox(WorldPoint3D(0, 0, 0), 10, 10, 10)
        b = GridBox(WorldPoint3D(0, 0, 0), 10, 10, 10)
        assert a.contains(b)

    def test_protruding_box_rejected(self):
        a = GridBox(WorldPoint3D(0, 0, 0), 10, 10, 10)
        b = GridBox(WorldPoint3D(5, 0, 0), 6, 5, 5)
        assert not a.contains(b)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(NonPositiveLength):
            GridBox(WorldPoint3D(0, 0, 0), 0, 10, 10)

    def test_spans_and_face_planes(self):
        box = GridBox(WorldPoint3D(100, 50, 20), 200, 150, 300)
        assert box.spans() == {"x": (100, 300), "y": (50, 200), "z": (20, 320)}
        planes = [box.face_plane(face) for face in FACES]
        assert planes == [
            ("x", 100), ("x", 300), ("y", 50), ("y", 200), ("z", 20), ("z", 320)
        ]

    def test_unknown_face_rejected(self):
        with pytest.raises(FormatError, match="unknown face 'top'"):
            GridBox(WorldPoint3D(0, 0, 0), 1, 1, 1).face_plane("top")
