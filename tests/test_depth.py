import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridscope.calibration import CameraProfile, CameraRole, build_sub_area
from gridscope.depth import (
    DepthCorrection,
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


class TestDepthCorrection:
    def test_skipped(self):
        c = DepthCorrection.skipped()
        assert not c.applied
        assert c.adj_h == 0.0

    def test_adjustment_bounded_by_def(self):
        with pytest.raises(InvalidObservation):
            DepthCorrection(def_h=1.0, def_v=1.0, adj_h=2.0, adj_v=0.0, applied=True)

    def test_negative_def_rejected(self):
        with pytest.raises(InvalidObservation):
            DepthCorrection(def_h=-1.0, def_v=0.0, adj_h=0.0, adj_v=0.0, applied=True)

    def test_columns_checked_element_wise(self):
        ones = np.ones(3)
        with pytest.raises(InvalidObservation, match=r"adj=\(2.0, 0.0\)"):
            DepthCorrection(ones, ones, np.array([1.0, 2.0, 3.0]), 0.0 * ones, True)


class TestCorrectSidePoint:
    def test_moves_outward_right_of_centre(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)  # def_h 60, adj_h 30
        corrected, c = correct_side_point(profile, ModelPoint2D(300.0, 400.0), o, 0.0)
        assert corrected.a == 330.0
        assert c.adj_h == 30.0
        assert c.applied

    def test_moves_outward_left_of_centre(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)
        corrected, _ = correct_side_point(profile, ModelPoint2D(100.0, 400.0), o, 0.0)
        assert corrected.a == 70.0

    def test_at_centre_moves_positive(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=100.0)
        corrected, _ = correct_side_point(profile, ModelPoint2D(200.0, 400.0), o, 0.0)
        assert corrected.a == 230.0

    def test_zero_lateral_offset_means_no_horizontal_move(self):
        profile = face_profile()
        o = obs(ni=200.0, ic=0.0)
        corrected, c = correct_side_point(profile, ModelPoint2D(300.0, 100.0), o, 1.0)
        assert corrected.a == 300.0
        assert c.adj_h == 0.0
        # vertical still corrects: def_v 130, above centre is b < 400
        assert corrected.b == 100.0 - 130.0

    def test_vertical_fraction_scales(self):
        profile = face_profile()
        o = obs(ni=400.0, ic=0.0)  # def_v = 260
        corrected, c = correct_side_point(profile, ModelPoint2D(200.0, 600.0), o, 0.5)
        assert c.adj_v == 130.0
        assert corrected.b == 730.0

    def test_vertical_correction_disabled(self):
        profile = face_profile()
        o = obs(ni=400.0, ic=200.0)
        corrected, c = correct_side_point(
            profile, ModelPoint2D(300.0, 600.0), o, 1.0, vertical_correction=False
        )
        assert c.adj_v == 0.0
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
        ca, cb, c = correct_columns(profile, a, b, obs(ni=ni, ic=ic), frac)
        for k in range(len(a)):
            point, one = correct_side_point(
                profile, ModelPoint2D(a[k], b[k]), obs(ni=ni[k], ic=ic[k]), frac[k]
            )
            assert (ca[k], cb[k]) == (point.a, point.b)
            assert (c.adj_h[k], c.adj_v[k]) == (one.adj_h, one.adj_v)

    def test_zero_mde_is_identity(self):
        profile = face_profile(mde_h=0.0, mde_v=0.0)
        p = ModelPoint2D(137.0, 512.0)
        corrected, c = correct_side_point(profile, p, obs(ni=400.0, ic=200.0), 1.0)
        assert corrected == p
        assert (c.adj_h, c.adj_v) == (0.0, 0.0)
        assert c.applied
