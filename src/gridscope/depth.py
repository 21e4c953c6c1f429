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

``correct_columns`` corrects a whole column of one camera's points at
once; ``correct_side_point`` is its size-1 call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CameraProfile, mg_bounds
from .errors import InvalidObservation
from .geometry import ModelPoint2D


def _require(ok, template: str, **values) -> None:
    """Raise InvalidObservation unless ``ok`` holds for every element.

    ``ok`` and ``values`` are floats or equal-length columns; the message
    formats the values of the first element that fails.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    first = int(np.argmin(ok.reshape(-1)))
    got = {
        name: float(np.broadcast_to(value, ok.shape).reshape(-1)[first])
        for name, value in values.items()
    }
    raise InvalidObservation(template.format(**got))


@dataclass(frozen=True)
class DepthObservation:
    """Top-view distances driving the correction, in model-grid units.

    ni_top: subject distance from the near face, 0 <= ni_top <= nf_top.
    nf_top: near-to-far face depth, > 0.
    ic_ax: subject lateral distance from the centre axis, 0 <= ic_ax <= sc_ax.
    sc_ax: centre-axis-to-side half width, > 0.

    Each field is a float or a numpy column (one entry per subject); the
    invariants are checked element-wise.
    """

    ni_top: float
    nf_top: float
    ic_ax: float
    sc_ax: float

    def __post_init__(self):
        ni, nf, ic, sc = (
            np.asarray(v) for v in (self.ni_top, self.nf_top, self.ic_ax, self.sc_ax)
        )
        _require(nf > 0, "nf_top must be > 0, got {nf}", nf=nf)
        _require(
            (0 <= ni) & (ni <= nf),
            "need 0 <= ni_top <= nf_top, got ni_top={ni}, nf_top={nf}",
            ni=ni,
            nf=nf,
        )
        _require(sc > 0, "sc_ax must be > 0, got {sc}", sc=sc)
        _require(
            (0 <= ic) & (ic <= sc),
            "need 0 <= ic_ax <= sc_ax, got ic_ax={ic}, sc_ax={sc}",
            ic=ic,
            sc=sc,
        )


def compute_def(mde: float, obs: DepthObservation) -> float:
    """Depth error factor: the MDE prorated by observed depth."""
    if mde < 0:
        raise InvalidObservation(f"mde must be >= 0, got {mde}")
    # the ratio is <= 1, so the product cannot round above mde
    return mde * (obs.ni_top / obs.nf_top)


def final_adjustment(def_value: float, obs: DepthObservation) -> float:
    """The DEF prorated by lateral offset from the centre axis."""
    _require(~(np.asarray(def_value) < 0), "DEF must be >= 0, got {d}", d=def_value)
    # the ratio is <= 1, so the product cannot round above def_value
    return def_value * (obs.ic_ax / obs.sc_ax)


def correct_columns(
    profile: CameraProfile,
    a: np.ndarray,
    b: np.ndarray,
    obs: DepthObservation,
    vertical_offset_fraction,
    vertical_correction: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Push columns of one side camera's model-grid points outward.

    Horizontally each point moves away from the face's horizontal centre by
    ``final_adjustment(compute_def(mde_h, obs), obs)``.  Vertically it
    moves away from mid-height by ``compute_def(mde_v, obs)`` times the
    vertical offset fraction; pass ``vertical_correction=False`` to leave
    the vertical axis untouched.  A point exactly at a centre moves in the
    positive direction.  ``obs`` and the fraction hold one entry per point
    (or one float for all of them).

    Args:
        vertical_offset_fraction: |subject height - face mid-height| over
            the face half height, measured in the same side image, in [0, 1].
    """
    frac = vertical_offset_fraction
    _require(
        (0.0 <= frac) & (frac <= 1.0),
        "vertical_offset_fraction must be in [0, 1], got {f}",
        f=frac,
    )
    min_a, min_b, max_a, max_b = mg_bounds(profile)
    center_a = (min_a + max_a) / 2.0
    center_b = (min_b + max_b) / 2.0

    with np.errstate(all="ignore"):
        def_h = compute_def(profile.mde_h, obs)
        adj_h = final_adjustment(def_h, obs)
        def_v = compute_def(profile.mde_v, obs)
        adj_v = def_v * frac if vertical_correction else 0.0
        a = np.where(a >= center_a, a + adj_h, a - adj_h)
        b = np.where(b >= center_b, b + adj_v, b - adj_v)
    return a, b


def correct_side_point(
    profile: CameraProfile,
    mg: ModelPoint2D,
    obs: DepthObservation,
    vertical_offset_fraction: float,
    vertical_correction: bool = True,
) -> ModelPoint2D:
    """Push one side camera's model-grid point outward to its corrected spot.

    A size-1 call of ``correct_columns``.
    """
    a, b = correct_columns(
        profile,
        np.array([mg.a], dtype=float),
        np.array([mg.b], dtype=float),
        obs,
        vertical_offset_fraction,
        vertical_correction=vertical_correction,
    )
    return ModelPoint2D(float(a[0]), float(b[0]))
