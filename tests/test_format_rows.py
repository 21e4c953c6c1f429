"""The column writers against ``str.format``, byte for byte.

``fusion.format_rows`` writes each real of a column as ``"{:.6f}".format``
does, by an exact float64 kernel; ``write_track`` and the SVG polylines
use it.  ``fusion._g17`` writes a column as ``"{:.17g}".format`` does, by
another, for ``export_ply``.  The references are
``oracles.write_track_oracle``, ``oracles.polyline_points`` and
``oracles.ply_oracle``, which format one value at a time.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscope import export, fusion
from gridscope.calibration import save_calibration
from gridscope.export import export_ply, export_svg
from gridscope.fusion import TrackTable, format_rows, read_track, write_track

from oracles import ply_oracle, polyline_points, rewrite_with_oracles, write_track_oracle

# |x| * 10**6 from here on is past the kernel's exact range
BOUND = 2.0**52 / 1e6


def _lines(values) -> str:
    """What format_rows writes for a column, one value a line."""
    return format_rows([np.array(values, dtype=float), b"\n"]).decode()


def _expected(values) -> str:
    return "".join(f"{v:.6f}\n" for v in values)


def _ties(k):
    """(k + 0.5) / 10**6 and its two neighbours, for each k."""
    tie = (np.asarray(k, dtype=float) + 0.5) / 1e6
    return np.concatenate([tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)])


_TIES = st.integers(0, int(BOUND * 1e6)).flatmap(
    lambda k: st.sampled_from(_ties([k]).tolist())
)
_NEAR_BOUND = st.floats(BOUND / 2, BOUND * 2)
_REALS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_REALS | _TIES | _NEAR_BOUND | _TIES.map(lambda x: -x),
                       max_size=12))
@example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-7])
@example(values=[0.0078125, 0.0234375, 2.5e-6, 0.5e-6, 1.5e-6, -2.5e-6])
@example(values=[BOUND, np.nextafter(BOUND, 0.0), -np.nextafter(BOUND, 0.0)])
@example(values=[1.7976931348623157e308, -1e300, 1e16])
def test_format_rows_writes_what_str_format_writes(values):
    assert _lines(values) == _expected(values)
    # each value alone, so that one past the bound does not send the
    # others to str.format
    for value in values:
        assert _lines([value]) == _expected([value])


def test_a_sweep_of_near_ties():
    rng = np.random.default_rng(20)
    # k spread over every magnitude the kernel takes, exact ties among them
    k = np.floor(np.exp(rng.uniform(0.0, np.log(BOUND * 1e6), 40_000)))
    values = _ties(np.minimum(k, BOUND * 1e6 - 1))
    values = np.concatenate([values, -values, values / 1e3])
    assert len(values) >= 10**5
    assert np.abs(values * 1e6).max() < 2.0**52
    assert _lines(values) == _expected(values.tolist())


def test_the_sign_comes_from_the_sign_bit():
    assert _lines([-0.0, -1e-9, -4.9e-7, 0.0, 1e-9]) == (
        "-0.000000\n-0.000000\n-0.000000\n0.000000\n0.000000\n"
    )


def test_a_column_past_the_bound_takes_str_format():
    inside, past = [1.5, np.nextafter(BOUND, 0.0)], [1.5, BOUND]
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        assert _lines(inside) == _expected(inside)
        assert spy.call_count == 0
        assert _lines(past) == _expected(past)
        assert spy.call_count == 1


def test_fields_and_literals_in_each_row():
    table = np.array([[*b"ab", 0xFF], list(b"\xc3\xa9\x00")], dtype=np.uint8)
    rows = format_rows([np.array([1.0, -2.5]), b";", table, b"\n"])
    assert rows == "1.000000;ab\n-2.500000;é\x00\n".encode()


# --- write_track and the polyline against the references --------------------

_NAMES = ["side0", "side1", 'si"de', "a,b", "caméra", "東", "x\r\ny", "nul\x00"]


def _random_track(rows: int, seed: int) -> TrackTable:
    rng = np.random.default_rng(seed)
    names = rng.choice(len(_NAMES), size=(2, rows))
    reals = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-3, 7, (5, rows))
    reals[0] = np.abs(reals[0])
    reals[4] = np.abs(reals[4])
    return TrackTable(
        *reals[:4],
        [_NAMES[i] for i in names[0]],
        [_NAMES[i] for i in names[1]],
        reals[4],
        rng.random(rows) < 0.5,
    )


def _writes_the_reference(directory, track) -> bool:
    write_track(directory / "kernel.csv", track)
    write_track_oracle(directory / "reference.csv", track)
    kernel, reference = directory / "kernel.csv", directory / "reference.csv"
    return kernel.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "rows",
    [0, 1, 7, fusion._CHUNK_BUNDLES - 1, fusion._CHUNK_BUNDLES, fusion._CHUNK_BUNDLES + 1],
)
def test_write_track_writes_the_reference_bytes(tmp_path, rows):
    assert _writes_the_reference(tmp_path, _random_track(rows, seed=rows))


def test_an_out_of_range_coordinate_takes_str_format(tmp_path):
    track = _random_track(fusion._CHUNK_BUNDLES + 1, seed=3)
    track.y[-1] = 5e9  # 5e15 > 2**52 after the scale by 10**6
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        assert _writes_the_reference(tmp_path, track)
    assert spy.call_count == 1  # the y column of the second block only


@pytest.mark.parametrize("points", [1, 2, 500])
@pytest.mark.parametrize("far", [False, True])
def test_panel_writes_the_reference_polyline(points, far):
    rng = np.random.default_rng(points)
    h, v = rng.uniform(-50.0, 450.0, (2, points))
    if far:
        h[-1] = 1e10  # drawn far past the kernel's range
    args = ("top (x right, y up)", 40.0, 390.0, 390.0, h, v)
    out = export._panel(*args)
    with mock.patch.object(export, "_polyline", polyline_points):
        assert out == export._panel(*args)
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        export._panel(*args)
    assert spy.call_count == far


def test_the_oracle_rewrite_reproduces_the_written_files(tmp_path, aligned_calibration):
    grid = aligned_calibration.rig.grid_a
    save_calibration(tmp_path / "calibration.json", aligned_calibration)
    write_track(tmp_path / "track.csv", _random_track(300, seed=9))
    track = read_track(tmp_path / "track.csv")
    export_svg(tmp_path / "track.svg", track, grid)
    export_ply(tmp_path / "track.ply", track)
    rewrite_with_oracles(
        tmp_path / "track.csv", tmp_path / "calibration.json",
        tmp_path / "oracle.csv", tmp_path / "oracle.svg", tmp_path / "oracle.ply",
    )
    for name in ("csv", "svg", "ply"):
        written = (tmp_path / f"track.{name}").read_bytes()
        assert written == (tmp_path / f"oracle.{name}").read_bytes()


# --- the {:.17g} kernel ---------------------------------------------------------

# the magnitudes _g17 writes itself; a column with any other goes to str.format
LOW, HIGH = 1e-4, 1e16


def _g17_lines(values) -> list[str]:
    """What _g17 writes for a column, one line per value.  A list, so that
    a failure names the first line that differs without diffing them all."""
    text = format_rows([fusion._g17(np.array(values, dtype=float)), b"\n"]).decode()
    return text.split("\n")[:-1]


def _g17_expected(values) -> list[str]:
    return [f"{v:.17g}" for v in values]


def _in_kernel(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values[(np.abs(values) >= LOW) & (np.abs(values) < HIGH)]


def _powers_of_ten(ulps: int) -> np.ndarray:
    """Every power of ten from 1e-4 to 1e15 and its neighbours up to ``ulps``
    steps away on either side."""
    powers = np.array([float(f"1e{k}") for k in range(-4, 16)])
    values = [powers]
    below, above = powers, powers
    for _ in range(ulps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        values += [below, above]
    return np.concatenate(values)


def _g17_sample() -> np.ndarray:
    """Values of every kind the kernel must write as str.format does."""
    rng = np.random.default_rng(35)
    log_uniform = np.exp(rng.uniform(np.log(LOW), np.log(HIGH), 50_000))
    integers = np.concatenate([np.arange(1.0, 2000.0), rng.integers(1, 10**15, 5000)])
    thousandths = np.round(rng.uniform(-1000.0, 1000.0, 20_000), 3)
    dyadic = np.ldexp(rng.integers(1, 2**20, (61, 100)), -np.arange(61)[:, None]).ravel()
    # exact ties at the 17th digit: k + 0.25 with 16-digit k, the 17th digit
    # being the first after the point, and k + 0.125 or + 0.375 with 15-digit k
    k16 = rng.integers(10**15, 2**51, 2000).astype(float)
    k15 = rng.integers(10**14, 10**15, 2000).astype(float)
    ties = [k16 + 0.25, k16 + 0.75, k15 + 0.125, k15 + 0.375]
    for tie, k, half in zip(ties, [k16, k16, k15, k15], [0.25, 0.75, 0.125, 0.375]):
        assert (tie - k == half).all()  # each tie is exact
    values = np.concatenate(
        [log_uniform, integers, thousandths, dyadic, _powers_of_ten(3), *ties]
    )
    values = _in_kernel(np.concatenate([values, -values]))
    assert len(values) >= 10**5
    return values


def test_g17_writes_what_str_format_writes():
    values = _g17_sample()
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        assert _g17_lines(values) == _g17_expected(values.tolist())
    assert spy.call_count == 0  # all of it by the kernel


@pytest.mark.parametrize("shift", [-1, 1])
def test_the_exponent_guess_never_reaches_the_bytes(shift):
    """_g17_digits started one decade off either way writes the same bytes,
    so np.log10's last bit, which differs between machines, never decides a
    digit."""
    values = np.concatenate([_powers_of_ten(3), _g17_sample()[::10]])
    values = _in_kernel(values)
    digits = fusion._g17_digits

    def off_by_one(magnitude, exponent):
        return digits(magnitude, exponent + shift)

    with mock.patch.object(fusion, "_g17_digits", off_by_one):
        assert _g17_lines(values) == _g17_expected(values.tolist())
    right = np.floor(np.log10(np.abs(values))).astype(np.int64)
    n, exponent = digits(np.abs(values), right + shift)
    assert ((10**16 <= n) & (n < 10**17)).all()  # never rounded up to 10**17
    for found, expected in zip((n, exponent), digits(np.abs(values), right)):
        assert (found == expected).all()


_KERNEL_REALS = st.floats(LOW, HIGH, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_REALS | _KERNEL_REALS | _KERNEL_REALS.map(lambda x: -x),
                       min_size=1, max_size=12))
@example(values=[0.0, -0.0, 5e-324, 1e16, 1e-4, np.nextafter(1e-4, 0.0)])
@example(values=[9999999999999998.0, 0.00099999999999999991, 1.7976931348623157e308])
def test_g17_writes_what_str_format_writes_on_any_finite_real(values):
    assert _g17_lines(values) == _g17_expected(values)
    # each value alone, so that one out of range does not send the others
    # to str.format
    for value in values:
        assert _g17_lines([value]) == _g17_expected([value])


def test_a_column_out_of_the_g17_range_takes_str_format():
    inside = [1.5, LOW, np.nextafter(HIGH, 0.0)]
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        for outside in (0.0, np.nextafter(LOW, 0.0), HIGH):
            assert _g17_lines(inside) == _g17_expected(inside)
            assert spy.call_count == 0
            assert _g17_lines([*inside, outside]) == _g17_expected([*inside, outside])
            assert spy.call_count == 1
            spy.reset_mock()


@pytest.mark.parametrize(
    "rows", [1, fusion._CHUNK_BUNDLES, fusion._CHUNK_BUNDLES + 1]
)
@pytest.mark.parametrize("in_range", [False, True])
def test_export_ply_writes_the_reference_bytes(tmp_path, rows, in_range):
    track = _random_track(rows, seed=rows)
    if in_range:  # each coordinate at least 1 away from zero: all by the kernel
        for column in (track.x, track.y, track.z):
            column += np.copysign(1.0, column)
    with mock.patch.object(fusion, "_str_formatted", wraps=fusion._str_formatted) as spy:
        export_ply(tmp_path / "kernel.ply", track)
    assert spy.call_count == 0 or not in_range
    ply_oracle(tmp_path / "reference.ply", track)
    assert (tmp_path / "kernel.ply").read_bytes() == (tmp_path / "reference.ply").read_bytes()
