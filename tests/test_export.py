import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscope.errors import ConfigError, EmptyTrack, FormatError
from gridscope.export import (
    EXPORT_FORMATS,
    export_csv,
    export_ply,
    export_svg,
    export_track,
)
from gridscope.fusion import TrackPoint, TrackTable, write_track
from gridscope.geometry import GridBox, WorldPoint3D
from gridscope.jsonio import format_real

GRID = GridBox(WorldPoint3D(0, 0, 0), 390.0, 390.0, 850.0)

POINTS = [
    TrackPoint(0.0, 100.0, 150.0, 300.0, "side0", "side1", 0.0, True),
    TrackPoint(50.0, 101.5, 150.0, 302.0, "side0", "side1", 1.0, True),
    TrackPoint(100.0, 103.0, 151.0, 304.5, "side1", "side2", 0.5, False),
]
TRACK = TrackTable.of(POINTS)


class TestEmptyTrack:
    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_refused(self, tmp_path, fmt):
        with pytest.raises(EmptyTrack):
            export_track(tmp_path / f"out.{fmt}", TrackTable.of([]), fmt, GRID)
        assert not (tmp_path / f"out.{fmt}").exists()


class TestCsv:
    def test_matches_track_writer(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_csv(a, TRACK)
        write_track(b, TRACK)
        assert a.read_bytes() == b.read_bytes()


class TestPly:
    def test_header_and_vertices(self, tmp_path):
        p = tmp_path / "out.ply"
        export_ply(p, TRACK)
        lines = p.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert lines[2] == "element vertex 3"
        assert lines[3:6] == [
            "property double x",
            "property double y",
            "property double z",
        ]
        assert lines[6] == "end_header"
        assert len(lines) == 7 + len(TRACK)
        assert lines[7] == "100 150 300"

    def test_values_lossless(self, tmp_path):
        track = TrackTable.of(
            [TrackPoint(0.0, 1.0 / 3.0, 0.1, 2e-7, "side0", "side1", 0.0, False)]
        )
        p = tmp_path / "tiny.ply"
        export_ply(p, track)
        x, y, z = p.read_text().splitlines()[-1].split(" ")
        assert float(x) == 1.0 / 3.0
        assert float(y) == 0.1
        assert float(z) == 2e-7

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)] * 3),
            min_size=1,
            max_size=10,
        )
    )
    def test_each_vertex_is_written_by_format_real(self, tmp_path_factory, xyz):
        track = TrackTable.of(
            TrackPoint(float(i), *p, "side0", "side1", 0.0, False)
            for i, p in enumerate(xyz)
        )
        p = tmp_path_factory.mktemp("ply") / "out.ply"
        export_ply(p, track)
        assert p.read_text().splitlines()[7:] == [
            " ".join(map(format_real, point)) for point in xyz
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_refused(self, tmp_path, bad):
        track = TrackTable.of(
            POINTS
            + [TrackPoint(150.0, 1.0, bad, -bad, "side0", "side1", 0.0, False)]
        )
        p = tmp_path / "bad.ply"
        with pytest.raises(FormatError, match=f"non-finite real {bad!r}"):
            export_ply(p, track)
        assert not p.exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        export_ply(a, TRACK)
        export_ply(b, TRACK)
        assert a.read_bytes() == b.read_bytes()


class TestSvg:
    def test_structure(self, tmp_path):
        p = tmp_path / "out.svg"
        export_svg(p, TRACK, GRID)
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 3
        assert text.count("<rect") == 4  # background plus one outline per panel
        assert 'fill="#ffffff"' in text
        for label in ("top (", "front (", "side ("):
            assert label in text

    def test_points_follow_the_per_point_formula(self, tmp_path):
        # y = 122.55694912500003 draws at 286.870509 on the top panel; the
        # same sum taken as 40 + 390 * scale - y * scale gives 286.870508
        points = POINTS + [
            TrackPoint(150.0, 7.25, 122.55694912500003, 1.0, "side0", "side1", 0.0, True)
        ]
        p = tmp_path / "out.svg"
        export_svg(p, TrackTable.of(points), GRID)
        drawn = re.findall(r'<polyline points="([^"]*)"', p.read_text())
        o = GRID.origin
        panels = [
            (GRID.w_mm, GRID.d_mm, lambda q: (q.x - o.x, q.y - o.y)),
            (GRID.w_mm, GRID.h_mm, lambda q: (q.x - o.x, q.z - o.z)),
            (GRID.d_mm, GRID.h_mm, lambda q: (q.y - o.y, q.z - o.z)),
        ]
        want = []
        for i, (span_h, span_v, coords) in enumerate(panels):
            scale = min(360.0 / span_h, 420.0 / span_v)
            offset = 40.0 + i * (360.0 + 50.0)
            want.append(" ".join(
                f"{offset + h * scale:.6f},{40.0 + (span_v - v) * scale:.6f}"
                for h, v in map(coords, points)
            ))
        assert drawn == want
        assert "286.870509" in drawn[0]

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        export_svg(a, TRACK, GRID)
        export_svg(b, TRACK, GRID)
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_track(self, tmp_path):
        p = tmp_path / "one.svg"
        export_svg(p, TrackTable.of(POINTS[:1]), GRID)
        assert "<circle" in p.read_text()

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308])
    def test_point_scaled_past_the_largest_float_refused(self, tmp_path, x):
        # a 20 mm grid scales each panel by 18, so 1.7e308 mm draws at inf
        small = GridBox(WorldPoint3D(0, 0, 0), 20.0, 20.0, 20.0)
        far = TrackPoint(150.0, x, 0.0, 0.0, "side0", "side1", 0.0, True)
        p = tmp_path / "far.svg"
        with pytest.raises(FormatError, match="top .* panel: a point is non-finite"):
            export_svg(p, TrackTable.of(POINTS + [far]), small)
        assert not p.exists()


class TestDispatch:
    def test_formats_tuple(self):
        assert EXPORT_FORMATS == ("csv", "ply", "svg")

    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_each_format_writes(self, tmp_path, fmt):
        p = tmp_path / f"out.{fmt}"
        export_track(p, TRACK, fmt, GRID)
        assert p.stat().st_size > 0

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            export_track(tmp_path / "out.xyz", TRACK, "xyz", GRID)
        assert "xyz" in str(err.value)
