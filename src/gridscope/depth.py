"""Depth-error correction for side-camera observations.

A side camera sees the grid face-on, so a subject deeper inside the grid
appears pulled toward the centre of the frame.  The apparent displacement
grows with two things: how far the subject is from the camera's near face,
and how far it sits from the grid's centre axis.  Calibration captures the
worst case as the maximum depth error (MDE): the apparent shift of the far
face's marker corners relative to the near face's.

The correction interpolates linearly in both factors:

    depth error factor   DEF  = MDE * NI / NF
    final adjustment     ADJ  = DEF * IC / SC

where NI is the subject's distance from the near face and NF the full
near-to-far depth (both measured in the top camera's view), IC the
subject's lateral distance from the centre axis and SC the centre-to-side
half width.  The adjustment pushes the model-grid coordinate outward, away
from the face centre, since the uncorrected position is biased inward.
Both properties hold per axis; the vertical axis reuses DEF with the
subject's vertical offset fraction measured in the same side image,
because the top camera cannot see height.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import CameraProfile, mg_bounds
from .errors import InvalidObservation
from .geometry import ModelPoint2D


@dataclass(frozen=True)
class DepthObservation:
    """Top-view distances driving the correction, in model-grid units.

    ni_top: subject distance from the near face, 0 <= ni_top <= nf_top.
    nf_top: near-to-far face depth, > 0.
    ic_ax: subject lateral distance from the centre axis, 0 <= ic_ax <= sc_ax.
    sc_ax: centre-axis-to-side half width, > 0.
    """

    ni_top: float
    nf_top: float
    ic_ax: float
    sc_ax: float

    def __post_init__(self):
        if not self.nf_top > 0:
            raise InvalidObservation(f"nf_top must be > 0, got {self.nf_top}")
        if not 0 <= self.ni_top <= self.nf_top:
            raise InvalidObservation(
                f"need 0 <= ni_top <= nf_top, got ni_top={self.ni_top}, "
                f"nf_top={self.nf_top}"
            )
        if not self.sc_ax > 0:
            raise InvalidObservation(f"sc_ax must be > 0, got {self.sc_ax}")
        if not 0 <= self.ic_ax <= self.sc_ax:
            raise InvalidObservation(
                f"need 0 <= ic_ax <= sc_ax, got ic_ax={self.ic_ax}, "
                f"sc_ax={self.sc_ax}"
            )


@dataclass(frozen=True)
class DepthCorrection:
    """What the correction did to one model-grid point.

    def_h/def_v are the depth error factors per axis, adj_h/adj_v the
    adjustment magnitudes actually applied (directions are outward from the
    face centre).  ``applied`` is False when no top-view observation was
    available and the point passed through untouched.
    """

    def_h: float
    def_v: float
    adj_h: float
    adj_v: float
    applied: bool

    def __post_init__(self):
        if self.def_h < 0 or self.def_v < 0:
            raise InvalidObservation(
                f"DEF must be >= 0, got ({self.def_h}, {self.def_v})"
            )
        if abs(self.adj_h) > self.def_h or abs(self.adj_v) > self.def_v:
            raise InvalidObservation(
                f"adjustment cannot exceed DEF: adj=({self.adj_h}, {self.adj_v}) "
                f"def=({self.def_h}, {self.def_v})"
            )

    @classmethod
    def skipped(cls) -> "DepthCorrection":
        return cls(0.0, 0.0, 0.0, 0.0, applied=False)


def compute_def(mde: float, obs: DepthObservation) -> float:
    """Depth error factor: the MDE prorated by observed depth."""
    if mde < 0:
        raise InvalidObservation(f"mde must be >= 0, got {mde}")
    # the ratio is <= 1, so the product cannot round above mde
    return mde * (obs.ni_top / obs.nf_top)


def final_adjustment(def_value: float, obs: DepthObservation) -> float:
    """The DEF prorated by lateral offset from the centre axis."""
    if def_value < 0:
        raise InvalidObservation(f"DEF must be >= 0, got {def_value}")
    # the ratio is <= 1, so the product cannot round above def_value
    return def_value * (obs.ic_ax / obs.sc_ax)


def correct_side_point(
    profile: CameraProfile,
    mg: ModelPoint2D,
    obs: DepthObservation,
    vertical_offset_fraction: float,
    vertical_correction: bool = True,
) -> tuple[ModelPoint2D, DepthCorrection]:
    """Push a side camera's model-grid point outward to its corrected spot.

    Horizontally the point moves away from the face's horizontal centre by
    ``final_adjustment(compute_def(mde_h, obs), obs)``.  Vertically it
    moves away from mid-height by ``compute_def(mde_v, obs)`` times the
    vertical offset fraction; pass ``vertical_correction=False`` to leave
    the vertical axis untouched.  A point exactly at a centre moves in the
    positive direction.

    Args:
        vertical_offset_fraction: |subject height - face mid-height| over
            the face half height, measured in the same side image, in [0, 1].
    """
    if not 0.0 <= vertical_offset_fraction <= 1.0:
        raise InvalidObservation(
            f"vertical_offset_fraction must be in [0, 1], "
            f"got {vertical_offset_fraction}"
        )
    min_a, min_b, max_a, max_b = mg_bounds(profile)
    center_a = (min_a + max_a) / 2.0
    center_b = (min_b + max_b) / 2.0

    def_h = compute_def(profile.mde_h, obs)
    adj_h = final_adjustment(def_h, obs)
    def_v = compute_def(profile.mde_v, obs)
    adj_v = def_v * vertical_offset_fraction if vertical_correction else 0.0

    a = mg.a + adj_h if mg.a >= center_a else mg.a - adj_h
    b = mg.b + adj_v if mg.b >= center_b else mg.b - adj_v
    correction = DepthCorrection(
        def_h=def_h, def_v=def_v, adj_h=adj_h, adj_v=adj_v, applied=True
    )
    return ModelPoint2D(a, b), correction
