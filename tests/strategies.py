"""Hypothesis strategies for CSV rows and fuzzed JSON documents, shared by
several tests."""

import json

from hypothesis import strategies as st

REAL_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-50, 2000).map(str),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e308", "-1.7e308", "1.6e308", "1.7e308", "1e-200",
         "", "x"]
    ),
)
CAMERA_FIELD = st.sampled_from(["side0", "side1", "side2", "side3", "top", "side9", ""])


@st.composite
def plausible_row(draw):
    """A row that parses: a small box somewhere in the 1920 x 1080 image."""
    u = draw(st.floats(0.0, 1920.0))
    v = draw(st.floats(0.0, 1080.0))
    half = draw(st.floats(0.5, 40.0))
    return [
        draw(CAMERA_FIELD),
        "0",
        repr(float(draw(st.sampled_from([0, 50, 100, 150])))),
        repr(u - half),
        repr(v - half),
        repr(u + half),
        repr(v + half),
        repr(draw(st.floats(0.0, 1.0))),
    ]


# A detections CSV row as its list of field texts: one that parses, one of
# eight fields with arbitrary reals, or one of the wrong width.
DETECTION_ROW = st.one_of(
    plausible_row(),
    st.tuples(
        CAMERA_FIELD,
        st.just("0"),
        REAL_FIELD,
        REAL_FIELD,
        REAL_FIELD,
        REAL_FIELD,
        REAL_FIELD,
        REAL_FIELD,
    ).map(list),
    st.lists(REAL_FIELD, min_size=7, max_size=9),
)


GT_REAL_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 40).map(str),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "-1e400", "1.7e308", "-1.7e308", "1e308",
         "-0.0", "0", "1e-200", "1e-160", "5e-324", '"2.5"', " 3 ", "", "x"]
    ),
)
FRAME_FIELD = st.sampled_from(["0", "1", "17", '"0"', '"a,b"', ""])


@st.composite
def plausible_box_row(draw):
    """A ground-truth row that parses: a box of 1 to 80 px a side."""
    u = draw(st.floats(0.0, 1920.0))
    v = draw(st.floats(0.0, 1080.0))
    w = draw(st.floats(1.0, 80.0))
    h = draw(st.floats(1.0, 80.0))
    return [draw(FRAME_FIELD), repr(u), repr(v), repr(u + w), repr(v + h)]


# A ground-truth CSV row as its list of field texts: one that parses, a
# degenerate or tiny box (a zero side, or an area that underflows), five
# fields with arbitrary reals, a blank row, or one of the wrong width.
GT_ROW = st.one_of(
    plausible_box_row(),
    st.sampled_from(
        [
            ["0", "5", "0", "5", "10"],
            ["0", "0", "5", "10", "5"],
            ["0", "-0.0", "0", "0.0", "1"],
            ["0", "0", "0", "1e-200", "1e-200"],
            ["0", "0", "0", "1e-160", "1e-160"],
            ["0", "0", "0", "5e-324", "1"],
            ["0", "-1.7e308", "0", "1.7e308", "1"],
            ["0", "1.6e308", "0", "1.7e308", "1e308"],
            [""],
            ["   "],
        ]
    ),
    st.tuples(FRAME_FIELD, *[GT_REAL_FIELD] * 4).map(list),
    st.lists(GT_REAL_FIELD, min_size=1, max_size=7).filter(lambda row: len(row) != 5),
)


@st.composite
def gt_rows(draw):
    """Rows from GT_ROW, sometimes around a run of over two thousand valid
    rows, so that a bad row can sit far into a long table."""
    rows = draw(st.lists(GT_ROW, max_size=24))
    run = draw(st.sampled_from([0, 0, 0, 2047, 2048, 2100]))
    at = draw(st.integers(0, len(rows)))
    filler = [["9", "1", "2", "30.5", "40"]] * run
    return rows[:at] + filler + rows[at:]


# Track, segment and truth rows.  Each mixes rows that parse with rows of
# arbitrary field texts and of the wrong width; TEXT_FIELD adds quoting,
# padding and non-numbers to the reals.
TEXT_FIELD = st.sampled_from(
    ["side0", "side1", "top", "", " ", "si,de0", 'a"b', '"side0"', " side1 ", "x"]
)
_ANY_FIELD = st.one_of(GT_REAL_FIELD, TEXT_FIELD)


@st.composite
def plausible_track_row(draw):
    """A track row that parses: a point near the rig, in the first 200 ms."""
    coord = st.floats(-100.0, 1000.0)
    return [
        repr(draw(st.floats(0.0, 200.0))),
        repr(draw(coord)),
        repr(draw(coord)),
        repr(draw(coord)),
        draw(st.sampled_from(["side0", "side1", "side2"])),
        draw(st.sampled_from(["side1", "side2", "side3"])),
        repr(draw(st.floats(0.0, 30.0))),
        draw(st.sampled_from(["true", "false"])),
    ]


TRACK_ROW = st.one_of(
    plausible_track_row(),
    st.sampled_from(
        [
            ["1e308", "1.7e308", "-1.7e308", "1e308", "side0", "side1", "0", "true"],
            ["0", "0", "0", "0", "side0", "side1", "-0.0", "false"],
            ["0", "0", "0", "0", "side0", "side1", "-1", "false"],
            ["0", "0", "0", "0", "side0", "side1", "0", "True"],
            [""],
            ["   "],
        ]
    ),
    st.tuples(*[GT_REAL_FIELD] * 4, TEXT_FIELD, TEXT_FIELD, GT_REAL_FIELD,
              st.sampled_from(["true", "false", "", "yes"])).map(list),
    st.lists(_ANY_FIELD, min_size=1, max_size=10).filter(lambda row: len(row) != 8),
)

FACE_FIELD = st.sampled_from(["x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "w", ""])


@st.composite
def plausible_segment_row(draw):
    """A segment row that parses: a window inside the first 400 ms."""
    start = draw(st.floats(0.0, 100.0))
    return [
        draw(st.sampled_from(["s0", "s1", "s2", "walk"])),
        repr(start),
        repr(start + draw(st.floats(1.0, 300.0))),
        draw(FACE_FIELD.filter(bool).filter(lambda face: face != "w")),
    ]


SEGMENT_ROW = st.one_of(
    plausible_segment_row(),
    st.sampled_from([["s", "10", "10", "y_max"], ["s", "5", "1", "x_min"], [""], ["  "]]),
    st.tuples(TEXT_FIELD, GT_REAL_FIELD, GT_REAL_FIELD, FACE_FIELD).map(list),
    st.lists(_ANY_FIELD, min_size=1, max_size=6).filter(lambda row: len(row) != 4),
)

TRUTH_ROW = st.one_of(
    st.tuples(*[st.floats(-1e3, 1e3).map(repr)] * 4).map(list),
    st.tuples(*[GT_REAL_FIELD] * 4).map(list),
    st.sampled_from([[""], ["  "], ["1", "2", "3"]]),
    st.lists(_ANY_FIELD, min_size=1, max_size=6).filter(lambda row: len(row) != 4),
)


# --- documents fuzzed at the byte level --------------------------------------

_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
)


def _leaf_paths(doc, path=()):
    """The key path of every scalar, empty list and empty mapping in ``doc``."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def _near(value):
    """Values of the type that ``value`` has, so that a run can go on."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return st.integers(-3, 60) | st.floats(-1e4, 1e4) | st.just(-value)
    if isinstance(value, str):
        return st.text(max_size=6)
    return _LEAF


@st.composite
def _one_leaf_replaced(draw, doc):
    path = draw(st.sampled_from(list(_leaf_paths(doc))))
    old = doc
    for key in path:
        old = old[key]
    value = draw(_near(old) | _LEAF)
    if path[-1] == "n_frames" and type(value) is int:
        value = min(value, 50)  # no example runs at scale
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode()


def fuzzed_doc(doc):
    """A document's bytes: ``doc`` with one leaf replaced, or raw bytes or text."""
    return st.one_of(
        _one_leaf_replaced(doc),
        _one_leaf_replaced(doc),
        st.binary(max_size=200),
        st.text(max_size=200).map(str.encode),
    )
