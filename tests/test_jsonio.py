import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridscope import evaluation, fusion, jsonio, simulate
from gridscope.calibration import load_calibration, load_marker_picks
from gridscope.cli import load_run_config
from gridscope.detections import (
    CSV_HEADER,
    Detection,
    parse_detections_file,
    write_detections,
)
from gridscope.errors import ConfigError, CsvError, FormatError
from gridscope.evaluation import (
    SEGMENTS_HEADER,
    Segment,
    read_segments,
    write_segments,
)
from gridscope.fusion import TRACK_HEADER, TrackPoint, TrackTable, read_track, write_track
from gridscope.geometry import WorldPoint3D
from gridscope.metrics import GT_HEADER, read_ground_truth
from gridscope.simulate import TRUTH_HEADER, load_scenario, read_truth
from strategies import SEGMENT_ROW, TRACK_ROW, TRUTH_ROW


class TestFormatReal:
    def test_plain_values(self):
        assert jsonio.format_real(0.5) == "0.5"
        assert jsonio.format_real(-3.0) == "-3"

    def test_17_digits_survive_parse(self):
        x = 0.1 + 0.2
        assert float(jsonio.format_real(x)) == x

    def test_negative_zero_is_canonical(self):
        # json parses "-0" as the integer 0, which would break byte-stable
        # rewrites; both zeros serialize the same way.
        assert jsonio.format_real(-0.0) == "0"
        assert jsonio.format_real(0.0) == "0"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_any_finite_double(self, x):
        assert float(jsonio.format_real(x)) == x

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(FormatError):
            jsonio.format_real(bad)


class TestDumps:
    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"a": {"b": [1.0, math.inf]}}, "a.b:"),
            ({"s": [{"x": 1.0}, {"x": math.nan}]}, "s[1].x:"),
        ],
    )
    def test_non_finite_value_names_its_path(self, doc, where):
        with pytest.raises(FormatError, match=r"^" + re.escape(where)):
            jsonio.dumps_doc(doc)

    def test_unwritable_document_leaves_no_file(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(FormatError):
            jsonio.write_doc(path, {"x": -math.inf})
        assert not path.exists()

    def test_is_valid_json(self):
        doc = {"a": 1, "b": [1.5, "x", True, None], "c": {"d": []}}
        assert json.loads(jsonio.dumps_doc(doc)) == doc

    def test_deterministic_and_insertion_ordered(self):
        doc = {"z": 1, "a": 2}
        text = jsonio.dumps_doc(doc)
        assert text == jsonio.dumps_doc({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_scalar_list_on_one_line(self):
        text = jsonio.dumps_doc({"p": [1.0, 2.0]})
        assert "[1, 2]" in text

    def test_floats_written_losslessly(self):
        x = 1.0 / 3.0
        text = jsonio.dumps_doc({"x": x})
        assert json.loads(text)["x"] == x

    def test_bool_not_rendered_as_number(self):
        assert "true" in jsonio.dumps_doc({"x": True})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            jsonio.dumps_doc({1: "x"})

    def test_rejects_unsupported_values(self):
        with pytest.raises(TypeError):
            jsonio.dumps_doc({"x": {"y": object()}})

    def test_ends_with_newline(self):
        assert jsonio.dumps_doc({}).endswith("\n")


class TestFileRoundTrip:
    def test_write_then_read(self, tmp_path):
        doc = {"format_version": 1, "values": [0.1, 0.2, 0.30000000000000004]}
        p = tmp_path / "doc.json"
        jsonio.write_doc(p, doc)
        assert jsonio.read_doc(p) == doc

    def test_two_writes_byte_identical(self, tmp_path):
        doc = {"a": [1.5, {"b": "x"}], "c": 7}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        jsonio.write_doc(p1, doc)
        jsonio.write_doc(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(FormatError) as err:
            jsonio.loads_doc("{broken")
        assert "line 1" in str(err.value)

    def test_loads_rejects_non_mapping_top_level(self):
        with pytest.raises(FormatError):
            jsonio.loads_doc("[1, 2]")


class TestDocReader:
    def doc(self):
        return jsonio.DocReader(
            {
                "n": 3,
                "x": 1.5,
                "name": "rig",
                "flag": False,
                "pair": [1.0, 2.5],
                "cameras": [{"id": "side0"}, {"id": "top"}],
            }
        )

    def test_scalar_accessors(self):
        r = self.doc()
        assert r.key("n").integer() == 3
        assert r.key("x").real() == 1.5
        assert r.key("name").string() == "rig"
        assert r.key("flag").boolean() is False
        assert r.key("pair").real_pair() == (1.0, 2.5)

    def test_real_accepts_int(self):
        assert jsonio.DocReader({"x": 2}).key("x").real() == 2.0

    def test_real_rejects_bool(self):
        with pytest.raises(FormatError):
            jsonio.DocReader({"x": True}).key("x").real()

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
    )
    def test_real_rejects_non_finite(self, text):
        reader = jsonio.DocReader(jsonio.loads_doc('{"x": ' + text + "}"))
        with pytest.raises(FormatError) as err:
            reader.key("x").real()
        assert "finite" in str(err.value)

    def test_integer_rejects_bool_and_float(self):
        with pytest.raises(FormatError):
            jsonio.DocReader({"x": True}).key("x").integer()
        with pytest.raises(FormatError):
            jsonio.DocReader({"x": 1.5}).key("x").integer()

    def test_missing_key_names_path(self):
        with pytest.raises(FormatError) as err:
            self.doc().key("cameras").fixed_list(2)[0].key("role")
        msg = str(err.value)
        assert "cameras[0]" in msg and "role" in msg

    def test_optional_key(self):
        r = self.doc()
        assert r.optional_key("missing") is None
        assert r.optional_key("n").integer() == 3

    def test_items_iterates_with_indices(self):
        cams = [c.key("id").string() for c in self.doc().key("cameras").items()]
        assert cams == ["side0", "top"]

    def test_fixed_list_length_enforced(self):
        with pytest.raises(FormatError) as err:
            self.doc().key("pair").fixed_list(3)
        assert "pair" in str(err.value)

    def test_wrong_type_message_names_expected(self):
        with pytest.raises(FormatError) as err:
            self.doc().key("name").real()
        msg = str(err.value)
        assert "name" in msg

    def test_items_on_scalar_fails(self):
        with pytest.raises(FormatError):
            list(self.doc().key("n").items())


# --- DocReader.reals against the element-wise walk ----------------------------

_GOOD_REAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 2**1023]),
)
_BAD_LEAF = st.sampled_from(
    [True, False, "1.0", "", None, {}, 10**400, -(10**400), math.nan, math.inf, -math.inf]
)


def _walk(reader, shape):
    """The nested reals of ``shape`` read one ``fixed_list``/``real`` at a time,
    each row finished before the next is looked at."""
    if len(shape) == 1:
        return [cell.real() for cell in reader.fixed_list(shape[0])]
    return [_walk(row, shape[1:]) for row in reader.fixed_list(shape[0])]


def _outcome(read):
    try:
        return "ok", repr(read())
    except FormatError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _nested(draw, shape):
    """Nested lists of reals of ``shape``, with up to three cells, rows or the
    whole value replaced: a bad leaf, a wrong length, or one level too deep."""

    def fill(dims):
        if not dims:
            return draw(_GOOD_REAL)
        return [fill(dims[1:]) for _ in range(dims[0])]

    value = fill(shape)
    for _ in range(draw(st.integers(0, 3))):
        depth = draw(st.integers(0, len(shape)))
        bad = draw(
            st.one_of(
                _BAD_LEAF,
                st.lists(_GOOD_REAL, max_size=4),
                st.lists(st.lists(_GOOD_REAL, max_size=2), max_size=4),
            )
        )
        if depth == 0:
            value = bad
            continue
        parent = value
        for _ in range(depth - 1):
            if not isinstance(parent, list) or not parent:
                break
            parent = parent[draw(st.integers(0, len(parent) - 1))]
        else:
            if isinstance(parent, list) and parent:
                parent[draw(st.integers(0, len(parent) - 1))] = bad
    return value


@settings(max_examples=400, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(2,), (3, 3), (4, 2)]))
def test_reals_equals_the_element_wise_walk(data, shape):
    value = data.draw(_nested(shape))
    path = data.draw(st.sampled_from(["", "cameras[0].sub_areas[1].homography"]))
    fast = _outcome(lambda: jsonio.DocReader(value, path).reals(*shape))
    assert fast == _outcome(lambda: _walk(jsonio.DocReader(value, path), shape))
    if shape == (2,):
        pair = _outcome(lambda: list(jsonio.DocReader(value, path).real_pair()))
        assert pair == fast


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1, 2], [3, 4], [5, 6]], "m: expected an array of 4 elements, found list"),
        ([[1, 2], [3, 4], [5, 6], [7]], "m[3]: expected an array of 2 elements, found list"),
        ([[1, 2], [3, True], [5, 6], [7, 8]], "m[1][1]: expected a real number, found bool"),
        ([[1, 2], ["3", 4], [5, 6], [7, 8]], "m[1][0]: expected a real number, found str"),
        ([[1, 2], [3, 4], [None, 6], [7, 8]], "m[2][0]: expected a real number, found null"),
        ([[1, 2], [3, 4], [5, 10**400], [7, 8]], "m[2][1]: expected a finite real number, found int"),
        ([[1, 2], [3, 4], [5, 6], [7, [8]]], "m[3][1]: expected a real number, found list"),
        ([[1, 2], [3, 4], [5, 6], [7, 8, 9]], "m[3]: expected an array of 2 elements, found list"),
        # the first fault in document order is the one named
        ([[1, "x"], [3, 4], [5, 6], [7]], "m[0][1]: expected a real number, found str"),
    ],
)
def test_reals_names_the_first_fault(value, message):
    with pytest.raises(FormatError) as err:
        jsonio.DocReader(value, "m").reals(4, 2)
    assert str(err.value) == message


def test_reals_returns_floats():
    got = jsonio.DocReader([[1, -0.0], [2**60, 0.5]]).reals(2, 2)
    assert repr(got) == repr([[1.0, -0.0], [float(2**60), 0.5]])
    assert all(type(v) is float for row in got for v in row)


# A record of three entries: a required real pair, an optional count that
# is left out when None, and an optional list of names with a default.
_SPOT = jsonio.record(
    lambda where, count, names: (where, count, names),
    ("where", lambda v: v[0], jsonio.PAIR),
    ("count", lambda v: v[1], jsonio.INTEGER, None),
    ("names", lambda v: v[2], jsonio.STRING.items(), ("a",)),
)


class TestRecord:
    def test_the_writer_keeps_the_declared_order_and_leaves_out_none(self):
        assert _SPOT.write(((1.0, 2.0), None, ("b", "c"))) == {
            "where": [1.0, 2.0], "names": ["b", "c"]
        }
        assert list(_SPOT.write(((1.0, 2.0), 3, ()))) == ["where", "count", "names"]

    def test_the_reader_gives_each_default_and_reads_back_what_was_written(self):
        assert _SPOT.read(jsonio.DocReader({"where": [1, 2]})) == ((1.0, 2.0), None, ("a",))
        value = ((0.5, 2.0), 7, ("x", "y"))
        assert _SPOT.read(jsonio.DocReader(_SPOT.write(value))) == value

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "top level: missing required key 'where'"),
            ({"names": 1, "count": "2"}, "top level: missing required key 'where'"),
            ({"where": [1, 2], "names": 1, "count": "2"},
             "count: expected an integer, found str"),
            ({"where": [1, 2], "names": ["a", 3]}, "names[1]: expected a string, found int"),
            ([], "top level: expected a mapping, found list"),
        ],
    )
    def test_the_reader_names_the_first_declared_fault(self, doc, message):
        with pytest.raises(FormatError) as err:
            _SPOT.read(jsonio.DocReader(doc))
        assert str(err.value) == message

    def test_every_declared_key_counts_as_read(self):
        root = jsonio.DocReader({"where": [1, 2], "count": 1, "colour": "red"})
        _SPOT.read(root)
        with pytest.raises(FormatError, match=r"^top level: unknown key 'colour'$"):
            root.refuse_unread_keys()

    def test_items_of_n_and_by_key(self):
        pair = jsonio.INTEGER.items(2)
        assert pair.read(jsonio.DocReader([3, 4])) == (3, 4)
        with pytest.raises(FormatError, match=r"^top level: expected an array of 2 elements"):
            pair.read(jsonio.DocReader([3]))
        odds = jsonio.REAL.by_key("a mapping of name to odds")
        assert odds.read(jsonio.DocReader({"a": 1, "b": 0.5})) == {"a": 1.0, "b": 0.5}
        with pytest.raises(FormatError) as err:
            odds.read(jsonio.DocReader({"p": [0.5]}).key("p"))
        assert str(err.value) == "p: expected a mapping of name to odds, found list"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"a": 1, "a": 1}', "a"),
        ('{"a": {"b": [], "c": 0, "b": 2}}', "b"),
        ('{"a": [{"x": 1}, {"x": 1, "y": 2, "x": 3}]}', "x"),
    ],
)
def test_loads_doc_refuses_a_repeated_key_at_any_depth(text, key):
    with pytest.raises(FormatError) as err:
        jsonio.loads_doc(text)
    assert str(err.value) == f"repeated key {key!r}"


HEADER = ("name", "value")


def pair(name, value):
    if not name:
        raise FormatError("empty name")
    return name, jsonio.real(value, "value")


def read_pairs(lines, strict=True):
    return jsonio.read_columns(lines, HEADER, pair, strict=strict)


class TestReadColumns:
    def test_rows_built_and_blank_rows_skipped(self):
        lines = ["name,value", "a, 1.5", "", "  ", " b ,2"]
        items, errors = read_pairs(lines)
        assert (items, errors) == ([("a", 1.5), ("b", 2.0)], [])

    @pytest.mark.parametrize("lines", [[], ["name"], ["value,name"], ["name,value,x"]])
    def test_header_must_match_exactly(self, lines):
        with pytest.raises(CsvError) as err:
            read_pairs(lines)
        assert (err.value.row, err.value.column) == (1, "")

    @pytest.mark.parametrize(
        "row, column",
        [("a", ""), ("a,1,2", ""), ("a,x", "value"), ("a,nan", "value"),
         ("a,-inf", "value"), (",1", "")],
    )
    def test_strict_raises_first_bad_row(self, row, column):
        with pytest.raises(CsvError) as err:
            read_pairs(["name,value", "ok,1", row, "z,q"])
        assert (err.value.row, err.value.column) == (3, column)

    def test_lenient_collects_bad_rows(self):
        lines = ["name,value", "a,inf", "b,1", "c", "d,NaN", "e,2"]
        items, errors = read_pairs(lines, strict=False)
        assert items == [("b", 1.0), ("e", 2.0)]
        assert [(e.row, e.column) for e in errors] == [
            (2, "value"),
            (4, ""),
            (5, "value"),
        ]


# --- track, segments and truth against the row-wise oracle -----------------

# Per table: its header, the per-row builder its rows are read by, the
# reader, the rows to draw, the i-th row of a valid run, and what the
# reader makes of the items read_columns returns.
ROWWISE_TABLES = {
    "track": (
        TRACK_HEADER, fusion.TRACK_FORMAT.make, read_track, TRACK_ROW,
        lambda i: [f"{i}.5", "1", "2", "3", "side0", "side1", "0.25", "true"],
        fusion.TrackTable.of,
    ),
    "segments": (
        SEGMENTS_HEADER, jsonio.row_reader(SEGMENTS_HEADER, evaluation.Segment),
        read_segments, SEGMENT_ROW,
        lambda i: [f"run{i}", f"{1000 + 2 * i}", f"{1001 + 2 * i}", "z_max"],
        list,
    ),
    "truth": (
        TRUTH_HEADER, simulate._truth_sample, read_truth, TRUTH_ROW,
        lambda i: [str(i), "0.5", "-1", "2e3"],
        list,
    ),
}

# What follows the drawn rows of a file, if anything: a field the csv module
# refuses as too large, or a byte that is not UTF-8, then one more row.
TAILS = {
    None: b"",
    "oversized_field": b"x" * 200_000 + b"\n1,2\n",
    "not_utf8": b"\xff\xfe,1\n1,2\n",
}


@st.composite
def table_rows(draw, row, valid):
    """Rows drawn from ``row``, sometimes around a run of 2047 to 2100 valid
    rows, so that a bad row can sit far into a long file."""
    rows = draw(st.lists(row, max_size=16))
    run = draw(st.one_of(st.just(0), st.integers(2047, 2100)))
    at = draw(st.integers(0, len(rows)))
    return rows[:at] + [valid(i) for i in range(run)] + rows[at:]


def _table_outcome(read):
    """What ``read()`` gave: each item's repr, so the sign of zero counts,
    and each error's row, column and message; or the error raised."""
    try:
        items, errors = read()
    except CsvError as exc:
        return ("raised", exc.row, exc.column, str(exc))
    except FormatError as exc:  # a segments file that validate_segments refuses
        return ("invalid", str(exc))
    return [repr(item) for item in items], [(e.row, e.column, str(e)) for e in errors]


@pytest.mark.parametrize("table", ROWWISE_TABLES)
@settings(max_examples=120, deadline=None)
@given(data=st.data(), strict=st.booleans(), tail=st.sampled_from(list(TAILS)))
def test_table_readers_equal_the_rowwise_oracle(table, data, strict, tail):
    header, make, reader, row, valid, of = ROWWISE_TABLES[table]
    rows = data.draw(table_rows(row, valid), label="rows")
    lines = [",".join(header)] + [",".join(fields) for fields in rows]

    def oracle(lines):
        return oracles.read_table(lines, header, lambda row: make(*row), strict)

    def columns(lines):
        items, errors = jsonio.read_columns(lines, header, make, strict=strict)
        return of(items), errors

    assert _table_outcome(lambda: columns(lines)) == _table_outcome(lambda: oracle(lines))

    # the public reader, always strict, on the file with its tail
    if not strict:
        return

    def expected():
        items, errors = jsonio.read_file(path, oracle)
        if reader is read_segments:
            with jsonio.naming(path):  # a file's errors lead with its path
                evaluation.validate_segments(items)
        return items, errors

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes("\n".join(lines + [""]).encode() + TAILS[tail])
        assert _table_outcome(lambda: (reader(path), [])) == _table_outcome(expected)


@pytest.mark.parametrize(
    "tail, bad_at, row",
    [
        ("oversized_field", 0, 2),
        ("oversized_field", 5, 7),
        ("oversized_field", 2050, 2052),  # a few rows before the csv.Error
        ("not_utf8", 0, 2),
        ("not_utf8", 5, 7),
        # the decoder meets the bad byte on line 2062 before the csv module
        # sees the bad row 10 lines up; the lines before it are read again
        ("not_utf8", 2050, 2052),
    ],
)
@pytest.mark.parametrize("table", ROWWISE_TABLES)
def test_a_bad_row_before_an_unreadable_one_is_raised(tmp_path, table, tail, bad_at, row):
    """Strict reading raises the error of a bad row read before a csv.Error
    or a bad byte, as the row-wise reader does."""
    header, make, reader, _, valid, _ = ROWWISE_TABLES[table]
    rows = [valid(i) for i in range(2060)]
    rows[bad_at] = rows[bad_at][:-1]
    path = tmp_path / "table.csv"
    text = "\n".join([",".join(header)] + [",".join(fields) for fields in rows] + [""])
    path.write_bytes(text.encode() + TAILS[tail])
    with pytest.raises(CsvError) as err:
        reader(path)
    assert err.value.row == row
    with pytest.raises(CsvError) as expected:
        jsonio.read_file(path, oracles.read_table, header, lambda row: make(*row))
    assert str(err.value) == str(expected.value)


# One valid row per table format; the field at the index is made non-finite.
TABLES = [
    (parse_detections_file, CSV_HEADER, "side0,0,1.0,1,2,3,4,0.5", 2),
    (parse_detections_file, CSV_HEADER, "side0,0,1.0,1,2,3,4,0.5", 5),
    (read_track, TRACK_HEADER, "1.0,2.0,3.0,4.0,side0,side1,0.5,true", 3),
    (read_segments, SEGMENTS_HEADER, "s,0,10,y_max", 2),
    (read_ground_truth, GT_HEADER, "0,1,2,3,4", 1),
    (read_truth, TRUTH_HEADER, "0,1,2,3", 0),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("reader, header, row, index", TABLES)
def test_every_table_reader_rejects_non_finite_reals(
    tmp_path, reader, header, row, index, bad
):
    fields = row.split(",")
    fields[index] = bad
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(header)}\n{row}\n{','.join(fields)}\n")
    kwargs = {"strict": True} if reader is parse_detections_file else {}
    with pytest.raises(CsvError) as err:
        reader(path, **kwargs)
    assert (err.value.row, err.value.column) == (3, header[index])
    assert str(err.value).startswith(f"{path}: row 3, column {header[index]}: ")


# (reader, header, a row failing a check of one column, that column, reason)
ONE_COLUMN_CHECKS = {
    "camera_id": (
        parse_detections_file, CSV_HEADER, ",0,0.0,1,2,3,4,0.9",
        "camera_id", "camera_id must be non-empty",
    ),
    "timestamp_ms": (
        parse_detections_file, CSV_HEADER, "a,0,-5,1,2,3,4,0.9",
        "timestamp_ms", "timestamp_ms must be >= 0, got -5.0",
    ),
    "confidence_high": (
        parse_detections_file, CSV_HEADER, "a,0,0.0,1,2,3,4,1.5",
        "confidence", "confidence must be in [0, 1], got 1.5",
    ),
    "confidence_low": (
        parse_detections_file, CSV_HEADER, "a,0,0.0,1,2,3,4,-0.1",
        "confidence", "confidence must be in [0, 1], got -0.1",
    ),
    "z_disagreement_mm": (
        read_track, TRACK_HEADER, "0,1,2,3,side0,side1,-0.5,true",
        "z_disagreement_mm", "z_disagreement_mm must be >= 0, got -0.5",
    ),
    "segment_id": (
        read_segments, SEGMENTS_HEADER, ",0,10,y_max",
        "segment_id", "segment_id must be non-empty",
    ),
}


@pytest.mark.parametrize("case", ONE_COLUMN_CHECKS)
def test_a_check_on_one_column_names_that_column(tmp_path, case):
    reader, header, row, column, reason = ONE_COLUMN_CHECKS[case]
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(header)}\n{row}\n")
    kwargs = {"strict": True} if reader is parse_detections_file else {}
    with pytest.raises(CsvError) as err:
        reader(path, **kwargs)
    assert (err.value.row, err.value.column, err.value.reason) == (2, column, reason)


# A row whose first field is not UTF-8, and one whose field the csv module
# refuses as too large; either stands on line 3, after one good row.
UNREADABLE_ROWS = {
    "not_utf8": lambda row: b"\xff\xfe" + row.encode(),
    "oversized_field": lambda row: ("x" * 200_000 + row).encode(),
}


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("kind", UNREADABLE_ROWS)
@pytest.mark.parametrize("reader, header, row, index", TABLES[1:])
def test_every_table_reader_names_an_unreadable_row(
    tmp_path, reader, header, row, index, kind, strict
):
    path = tmp_path / "table.csv"
    path.write_bytes(
        f"{','.join(header)}\n{row}\n".encode()
        + UNREADABLE_ROWS[kind](row)
        + f"\n{row}\n".encode()
    )
    kwargs = {"strict": strict} if reader is parse_detections_file else {}
    with pytest.raises(CsvError) as err:
        reader(path, **kwargs)
    assert (err.value.row, err.value.column) == (3, "")


def test_bad_byte_deep_in_a_large_file_names_its_line(tmp_path):
    # the decoder reads in chunks; the reported line is still the bad one
    row = "side0,0,1.0,1,2,3,4,0.5"
    lines = [",".join(CSV_HEADER)] + [row] * 5000
    lines[4321] = "side0,\udcff,1.0,1,2,3,4,0.5"
    path = tmp_path / "table.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    with pytest.raises(CsvError) as err:
        parse_detections_file(path)
    assert err.value.row == 4322


DOC_LOADERS = [
    (jsonio.read_doc, FormatError),
    (load_calibration, FormatError),
    (load_marker_picks, FormatError),
    (load_scenario, FormatError),
    (load_run_config, ConfigError),
]

UNREADABLE_DOCS = {
    "not_utf8": (b'{\n  "a": "\xff"\n}\n', "line 2: not UTF-8 text"),
    "deep_nesting": (b'{"a": ' + b"[" * 100_000, "nested too deeply"),
    "huge_integer": (b'{"a": ' + b"9" * 5000 + b"}", "top level: "),
}


@pytest.mark.parametrize("kind", UNREADABLE_DOCS)
@pytest.mark.parametrize("loader, error", DOC_LOADERS)
def test_every_document_reader_refuses_unreadable_text(tmp_path, loader, error, kind):
    data, message = UNREADABLE_DOCS[kind]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(error, match=message) as err:
        loader(path)
    if loader is not jsonio.read_doc:  # a loader names its file, once
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).count(str(path)) == 1


# --- text fields through the CSV writers ---------------------------------------

# Ids with the characters that need quoting; the reader strips the spaces
# around a field, so an id neither starts nor ends with whitespace.
_ID = st.text(
    st.sampled_from(["a", "Z", "7", "_", ",", '"', "\r", "\n", " ", "\u00e9"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=8,
).filter(lambda text: text == text.strip())


class TestCsvField:
    @pytest.mark.parametrize(
        "text, field",
        [
            ("side0", "side0"),
            ("si,de0", '"si,de0"'),
            ('a"b', '"a""b"'),
            ("a\rb", '"a\rb"'),
            ("a\nb", '"a\nb"'),
            ("a b", "a b"),
        ],
    )
    def test_quotes_only_what_needs_it(self, text, field):
        assert jsonio.csv_field(text) == field


def _fixed_point(tmp_path, write, read, items):
    """Write, read back and write again; return what was read."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(first, items)
    back = read(first)
    write(second, back)
    assert second.read_bytes() == first.read_bytes()
    return back


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ID, _ID), min_size=1, max_size=4))
def test_track_text_fields_are_a_fixed_point(pairs):
    track = TrackTable.of(
        TrackPoint(float(i), 1.5, -2.25, 3.0, *pair, 0.5, i % 2 == 0)
        for i, pair in enumerate(pairs)
    )
    with tempfile.TemporaryDirectory() as tmp:
        back = _fixed_point(Path(tmp), write_track, read_track, track)
    assert [(p.cam_a, p.cam_b) for p in back] == pairs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ID, _ID), min_size=1, max_size=4))
def test_detections_text_fields_are_a_fixed_point(ids):
    detections = [
        Detection(camera, frame, float(i), 1.0, 2.0, 3.5, 4.0, 0.75)
        for i, (camera, frame) in enumerate(ids)
    ]

    def read(path):
        return parse_detections_file(path, strict=True).detections

    with tempfile.TemporaryDirectory() as tmp:
        back = _fixed_point(Path(tmp), write_detections, read, detections)
    assert back == detections


@settings(max_examples=60, deadline=None)
@given(st.lists(_ID, min_size=1, max_size=4, unique=True))
def test_segments_text_fields_are_a_fixed_point(ids):
    segments = [
        Segment(segment_id, 10.0 * i, 10.0 * i + 5.0, "y_max")
        for i, segment_id in enumerate(ids)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        back = _fixed_point(Path(tmp), write_segments, read_segments, segments)
    assert back == segments
