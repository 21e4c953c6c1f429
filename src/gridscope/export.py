"""Track export: CSV, ASCII point clouds and an SVG overview figure.

All writers are byte-deterministic for a given input so exported files can
be diffed across runs.  The SVG shows three orthographic panels (top,
front, side) with the main grid outline behind the trajectory; it uses a
fixed canvas and fits the grid into each panel with an isotropic scale; a
point that the scale takes past the largest float is refused, and no file is
written.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigError, EmptyTrack, FormatError
from .fusion import TrackPoint, write_track
from .geometry import GridBox
from .jsonio import format_real

_SVG_PANEL_W = 360.0
_SVG_PANEL_H = 420.0
_SVG_MARGIN = 40.0
_SVG_GAP = 50.0


def export_csv(path, track: Sequence[TrackPoint]) -> None:
    """The track CSV, identical to what the reconstruction step writes."""
    if not track:
        raise EmptyTrack("refusing to export an empty track")
    write_track(path, track)


def export_ply(path, track: Sequence[TrackPoint]) -> None:
    """ASCII PLY point cloud of the track positions, in millimetres."""
    if not track:
        raise EmptyTrack("refusing to export an empty track")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(track)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    for p in track:
        lines.append(
            f"{format_real(p.position.x)} {format_real(p.position.y)} "
            f"{format_real(p.position.z)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _panel(
    label: str,
    offset_x: float,
    span_h: float,
    span_v: float,
    coords,  # point -> (horizontal_mm, vertical_mm), vertical grows up
    track: Sequence[TrackPoint],
) -> list[str]:
    scale = min(_SVG_PANEL_W / span_h, _SVG_PANEL_H / span_v)

    def sx(h: float) -> float:
        return offset_x + h * scale

    def sy(v: float) -> float:
        # SVG y grows downward; world vertical grows upward.
        return _SVG_MARGIN + (span_v - v) * scale

    points = [(sx(h), sy(v)) for h, v in map(coords, track)]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in points):
        raise FormatError(
            f"{label} panel: a point is non-finite: track coordinates too large to draw"
        )
    out = [
        f'<rect x="{sx(0.0):.6f}" y="{sy(span_v):.6f}" '
        f'width="{span_h * scale:.6f}" height="{span_v * scale:.6f}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>'
    ]
    pts = " ".join(f"{x:.6f},{y:.6f}" for x, y in points)
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    first_x, first_y = points[0]
    out.append(
        f'<circle cx="{first_x:.6f}" cy="{first_y:.6f}" r="3" fill="#1f6fb2"/>'
    )
    out.append(
        f'<text x="{offset_x:.6f}" y="{_SVG_MARGIN + _SVG_PANEL_H + 24.0:.6f}" '
        f'font-family="sans-serif" font-size="14">{label}</text>'
    )
    return out


def export_svg(path, track: Sequence[TrackPoint], grid_a: GridBox) -> None:
    """Three orthographic views of the track inside the main grid outline."""
    if not track:
        raise EmptyTrack("refusing to export an empty track")
    w, d, h = grid_a.w_mm, grid_a.d_mm, grid_a.h_mm
    o = grid_a.origin
    panels = (
        # label, horizontal span, vertical span, world -> panel coords
        ("top (x right, y up)", w, d, lambda p: (p.position.x - o.x, p.position.y - o.y)),
        ("front (x right, z up)", w, h, lambda p: (p.position.x - o.x, p.position.z - o.z)),
        ("side (y right, z up)", d, h, lambda p: (p.position.y - o.y, p.position.z - o.z)),
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
    for i, (label, span_h, span_v, coords) in enumerate(panels):
        offset = _SVG_MARGIN + i * (_SVG_PANEL_W + _SVG_GAP)
        body.extend(_panel(label, offset, span_h, span_v, coords, track))
    body.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")


EXPORT_FORMATS = ("csv", "ply", "svg")


def export_track(path, track: Sequence[TrackPoint], fmt: str, grid_a: GridBox) -> None:
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
