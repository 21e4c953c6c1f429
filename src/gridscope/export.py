"""Track export: CSV, ASCII point clouds and an SVG overview figure.

All writers are byte-deterministic for a given input so exported files can
be diffed across runs.  The SVG shows three orthographic panels (top,
front, side) with the main grid outline behind the trajectory; it uses a
fixed canvas and fits the grid into each panel with an isotropic scale; a
point that the scale takes past the largest float is refused, and no file is
written.

Every writer takes only a ``TrackTable`` (``TrackTable.of`` makes one of
points).  Each writes its columns through ``fusion.format_rows``: the CSV
writer and the SVG polylines by its fixed-point kernel, which writes the
bytes of ``"{:.6f}".format`` for every value at once, and the PLY writer by
``fusion._g17``, which writes those of ``"{:.17g}".format``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, EmptyTrack, FormatError
from .fusion import _CHUNK_BUNDLES, TrackTable, _g17, format_rows, write_track
from .geometry import GridBox
from .jsonio import format_real
from .options import EXPORT_FORMATS

_SVG_PANEL_W = 360.0
_SVG_PANEL_H = 420.0
_SVG_MARGIN = 40.0
_SVG_GAP = 50.0


def _non_empty(track: TrackTable) -> TrackTable:
    if not len(track):
        raise EmptyTrack("refusing to export an empty track")
    return track


def export_csv(path, track: TrackTable) -> None:
    """The track CSV, identical to what the reconstruction step writes."""
    write_track(path, _non_empty(track))


def export_ply(path, track: TrackTable) -> None:
    """ASCII PLY point cloud of the track positions, in millimetres."""
    track = _non_empty(track)
    xyz = np.stack((track.x, track.y, track.z), axis=1)
    bad = ~np.isfinite(xyz)
    if bad.any():
        format_real(xyz[bad][0].item())  # raises, naming the first one
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(track)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for start in range(0, len(track), _CHUNK_BUNDLES):
            rows = slice(start, start + _CHUNK_BUNDLES)
            # format_real of a finite real; adding 0.0 turns -0.0 into 0.0,
            # as format_real writes it
            x, y, z = (_g17(c[rows] + 0.0) for c in (track.x, track.y, track.z))
            fh.write(format_rows([x, b" ", y, b" ", z, b"\n"]))


def _polyline(xs: np.ndarray, ys: np.ndarray) -> str:
    """An SVG polyline's points: "x,y" with six decimals each, space-separated."""
    return format_rows([xs, b",", ys, b" "])[:-1].decode()


def _panel(
    label: str,
    offset_x: float,
    span_h: float,
    span_v: float,
    h: np.ndarray,  # horizontal mm from the grid origin, per point
    v: np.ndarray,  # vertical mm from the grid origin, grows up
) -> list[str]:
    scale = min(_SVG_PANEL_W / span_h, _SVG_PANEL_H / span_v)

    def sx(h):
        return offset_x + h * scale

    def sy(v):
        # SVG y grows downward; world vertical grows upward.
        return _SVG_MARGIN + (span_v - v) * scale

    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = sx(h), sy(v)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise FormatError(
            f"{label} panel: a point is non-finite: track coordinates too large to draw"
        )
    out = [
        f'<rect x="{sx(0.0):.6f}" y="{sy(span_v):.6f}" '
        f'width="{span_h * scale:.6f}" height="{span_v * scale:.6f}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>'
    ]
    pts = _polyline(xs, ys)
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    out.append(
        f'<circle cx="{xs[0]:.6f}" cy="{ys[0]:.6f}" r="3" fill="#1f6fb2"/>'
    )
    out.append(
        f'<text x="{offset_x:.6f}" y="{_SVG_MARGIN + _SVG_PANEL_H + 24.0:.6f}" '
        f'font-family="sans-serif" font-size="14">{label}</text>'
    )
    return out


def export_svg(path, track: TrackTable, grid_a: GridBox) -> None:
    """Three orthographic views of the track inside the main grid outline."""
    track = _non_empty(track)
    w, d, h = grid_a.w_mm, grid_a.d_mm, grid_a.h_mm
    o = grid_a.origin
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, z = track.x - o.x, track.y - o.y, track.z - o.z
    panels = (
        # label, horizontal span, vertical span, panel coords
        ("top (x right, y up)", w, d, x, y),
        ("front (x right, z up)", w, h, x, z),
        ("side (y right, z up)", d, h, y, z),
    )
    total_w = 2 * _SVG_MARGIN + 3 * _SVG_PANEL_W + 2 * _SVG_GAP
    total_h = 2 * _SVG_MARGIN + _SVG_PANEL_H + 40.0
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{total_w:.0f}" height="{total_h:.0f}" '
        f'viewBox="0 0 {total_w:.0f} {total_h:.0f}">',
        f'<rect x="0" y="0" width="{total_w:.0f}" height="{total_h:.0f}" '
        f'fill="#ffffff"/>',
    ]
    for i, (label, span_h, span_v, ph, pv) in enumerate(panels):
        offset = _SVG_MARGIN + i * (_SVG_PANEL_W + _SVG_GAP)
        body.extend(_panel(label, offset, span_h, span_v, ph, pv))
    body.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")


def export_track(path, track: TrackTable, fmt: str, grid_a: GridBox) -> None:
    """Dispatch on format name; svg needs the grid for its outlines."""
    if fmt == "csv":
        export_csv(path, track)
    elif fmt == "ply":
        export_ply(path, track)
    elif fmt == "svg":
        export_svg(path, track, grid_a)
    else:
        raise ConfigError(
            f"unknown export format {fmt!r} (choose from {', '.join(EXPORT_FORMATS)})"
        )
