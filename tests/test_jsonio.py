import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridscope import jsonio
from gridscope.calibration import load_calibration, load_marker_picks
from gridscope.cli import load_run_config
from gridscope.detections import CSV_HEADER, parse_detections_file
from gridscope.errors import ConfigError, CsvError, FormatError
from gridscope.evaluation import SEGMENTS_HEADER, read_segments
from gridscope.fusion import TRACK_HEADER, read_track
from gridscope.metrics import GT_HEADER, read_ground_truth
from gridscope.simulate import TRUTH_HEADER, load_scenario, read_truth


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


HEADER = ("name", "value")


def pair(row):
    name, value = row
    if not name:
        raise FormatError("empty name")
    return name, jsonio.real(value, "value")


class TestReadTable:
    def test_rows_built_and_blank_rows_skipped(self):
        lines = ["name,value", "a, 1.5", "", "  ", " b ,2"]
        items, errors = jsonio.read_table(lines, HEADER, pair)
        assert (items, errors) == ([("a", 1.5), ("b", 2.0)], [])

    @pytest.mark.parametrize("lines", [[], ["name"], ["value,name"], ["name,value,x"]])
    def test_header_must_match_exactly(self, lines):
        with pytest.raises(CsvError) as err:
            jsonio.read_table(lines, HEADER, pair)
        assert (err.value.row, err.value.column) == (1, "")

    @pytest.mark.parametrize(
        "row, column",
        [("a", ""), ("a,1,2", ""), ("a,x", "value"), ("a,nan", "value"),
         ("a,-inf", "value"), (",1", "")],
    )
    def test_strict_raises_first_bad_row(self, row, column):
        with pytest.raises(CsvError) as err:
            jsonio.read_table(["name,value", "ok,1", row, "z,q"], HEADER, pair)
        assert (err.value.row, err.value.column) == (3, column)

    def test_lenient_collects_bad_rows(self):
        lines = ["name,value", "a,inf", "b,1", "c", "d,NaN", "e,2"]
        items, errors = jsonio.read_table(lines, HEADER, pair, strict=False)
        assert items == [("b", 1.0), ("e", 2.0)]
        assert [(e.row, e.column) for e in errors] == [
            (2, "value"),
            (4, ""),
            (5, "value"),
        ]


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
    with pytest.raises(error, match=message):
        loader(path)
