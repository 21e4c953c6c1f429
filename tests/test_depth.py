import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridscope.calibration import CameraProfile, CameraRole, build_sub_area
from gridscope.depth import (
    DepthObservation,
    compute_def,
    correct_columns,
    correct_side_point,
    final_adjustment,
)
from gridscope.errors import InvalidObservation
from gridscope.geometry import ModelPoint2D, Quad


def obs(ni=100.0, nf=400.0, ic=50.0, sc=200.0):
    return DepthObservation(ni_top=ni, nf_top=nf, ic_ax=ic, sc_ax=sc)


def face_profile(mde_h=120.0, mde_v=260.0):
    """One identity patch covering a 400 x 800 face, centre at (200, 400)."""
    quad = Quad.from_coords([(0, 0), (400, 0), (400, 800), (0, 800)])
    sub = build_sub_area(0, quad, (400, 800), (0.0, 0.0))
    return CameraProfile(
        "side0", CameraRole.side(0), (400, 800), (sub,), mde_h=mde_h, mde_v=mde_v
    )


class TestDepthObservation:
    def test_valid_bounds_inclusive(self):
        obs(ni=0.0)
        obs(ni=400.0)
        obs(ic=0.0)
        obs(ic=200.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nf": 0.0},
            {"nf": -5.0},
            {"ni": -1.0},
            {"ni": 401.0},
            {"sc": 0.0},
            {"ic": -0.5},
            {"ic": 201.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidObservation):
            obs(**kwargs)

    def test_columns_checked_element_wise(self):
        obs(ni=np.array([0.0, 400.0]), ic=np.array([0.0, 200.0]))
        with pytest.raises(InvalidObservation, match="ni_top=401.0"):
            obs(ni=np.array([10.0, 401.0, 402.0]), ic=np.zeros(3))


class TestFactors:
    def test_def_scales_linearly_with_depth(self):
        assert compute_def(120.0, obs(ni=0.0)) == 0.0
        assert compute_def(120.0, obs(ni=200.0)) == 60.0
        assert compute_def(120.0, obs(ni=400.0)) == 120.0

    def test_def_rejects_negative_mde(self):
        with pytest.raises(InvalidObservation):
            compute_def(-1.0, obs())

    def test_adjustment_scales_with_lateral_offset(self):
        assert final_adjustment(60.0, obs(ic=0.0)) == 0.0
        assert final_adjustment(60.0, obs(ic=100.0)) == 30.0
        assert final_adjustment(60.0, obs(ic=200.0)) == 60.0

    def test_adjustment_rejects_negative_def(self):
        with pytest.raises(InvalidObservation):
            final_adjustment(-0.1, obs())

    # Inputs where evaluating mde*ni/nf or def*ic/sc left to right rounds one
    # ulp above its bound; the second needs a rig whose depth and half width
    # differ (nf 300, sc 195).
    @example(mde=328.38670290438586, depths=(400.0, 400.0), lateral=(0.0, 200.0))
    @example(
        mde=247.71754354597047,
        depths=(134.84731943662143, 300.0),
        lateral=(195.0, 195.0),
    )
    @given(
        mde=st.floats(0, 500),
        depths=st.tuples(st.floats(0, 400), st.floats(1, 400)).map(sorted),
        lateral=st.tuples(st.floats(0, 200), st.floats(1, 200)).map(sorted),
    )
    def test_adjustment_never_exceeds_def_nor_mde(self, mde, depths, lateral):
        (ni, nf), (ic, sc) = depths, lateral
        o = obs(ni=ni, nf=nf, ic=ic, sc=sc)
        d = compute_def(mde, o)
        adj = final_adjustment(d, o)
        assert 0.0 <= adj <= d <= mde


class TestCorrectColumns:
    @given(
        mde=st.tuples(st.floats(0, 500), st.floats(0, 500)),
        extents=st.tuples(st.floats(1, 400), st.floats(1, 200)),
        points=st.lists(
            st.tuples(*(st.floats(0, s) for s in (400, 800, 1, 1, 1))),
            min_size=1,
            max_size=20,
        ),
    )
    def test_moves_each_point_by_at_most_def(self, mde, extents, points):
        """Each axis moves by no more than its DEF: the bounds are rounded
        as the moves are, so the comparison is exact."""
        (nf, sc), (mde_h, mde_v) = extents, mde
        a, b, depth, lateral, frac = map(np.array, zip(*points))
        o = obs(ni=nf * depth, nf=nf, ic=sc * lateral, sc=sc)
        ca, cb = correct_columns(face_profile(mde_h, mde_v), a, b, o, frac)
        def_h, def_v = compute_def(mde_h, o), compute_def(mde_v, o)
        assert np.all((a - def_h <= ca) & (ca <= a + def_h))
        assert np.all((b - def_v <= cb) & (cb <= b + def_v))


class TestCorrectSidePoint:
    def test_moves_outward_right_of_centre(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)  # def_h 60, adj_h 30
        corrected = correct_side_point(profile, ModelPoint2D(300.0, 400.0), o, 0.0)
        assert corrected.a == 330.0

    def test_moves_outward_left_of_centre(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)
        corrected = correct_side_point(profile, ModelPoint2D(100.0, 400.0), o, 0.0)
        assert corrected.a == 70.0

    def test_at_centre_moves_positive(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)
        corrected = correct_side_point(profile, ModelPoint2D(200.0, 400.0), o, 0.0)
        assert corrected.a == 230.0

    def test_zero_lateral_offset_means_no_horizontal_move(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=0.0)
        corrected = correct_side_point(profile, ModelPoint2D(300.0, 100.0), o, 1.0)
        assert corrected.a == 300.0
        # vertical still corrects: def_v 130, above centre is b < 400
        assert corrected.b == 100.0 - 130.0

    def test_vertical_fraction_scales(self):
        profile = face_profile()
        o = obs(ni=400.0, ic=0.0)  # def_v = 260
        corrected = correct_side_point(profile, ModelPoint2D(200.0, 600.0), o, 0.5)
        assert corrected.b == 730.0  # adj_v 130

    def test_vertical_correction_disabled(self):
        profile = face_profile()
        o = obs(ni=400.0, ic=200.0)
        corrected = correct_side_point(
            profile, ModelPoint2D(300.0, 600.0), o, 1.0, vertical_correction=False
        )
        assert corrected.b == 600.0
        assert corrected.a == 420.0  # horizontal still applies

    def test_fraction_out_of_range(self):
        with pytest.raises(InvalidObservation):
            correct_side_point(face_profile(), ModelPoint2D(0, 0), obs(), 1.5)

    def test_columns_equal_points(self):
        profile = face_profile()
        a = np.array([300.0, 100.0, 200.0, 137.0])
        b = np.array([400.0, 100.0, 600.0, 512.0])
        ni = np.array([200.0, 0.0, 400.0, 123.0])
        ic = np.array([100.0, 200.0, 0.0, 77.0])
        frac = np.array([0.0, 1.0, 0.5, 0.25])
        ca, cb = correct_columns(profile, a, b, obs(ni=ni, ic=ic), frac)
        for k in range(len(a)):
            point = correct_side_point(
                profile, ModelPoint2D(a[k], b[k]), obs(ni=ni[k], ic=ic[k]), frac[k]
            )
            assert (ca[k], cb[k]) == (point.a, point.b)

    def test_zero_mde_is_identity(self):
        profile = face_profile(mde_h=0.0, mde_v=0.0)
        p = ModelPoint2D(137.0, 512.0)
        corrected = correct_side_point(profile, p, obs(ni=400.0, ic=200.0), 1.0)
        assert corrected == p
