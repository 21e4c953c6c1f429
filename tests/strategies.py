"""Hypothesis strategies for detection and ground-truth CSV rows, shared by
several tests."""

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
    """Rows from GT_ROW, sometimes around a run of valid rows long enough
    that the table spans more than one 2048-row block."""
    rows = draw(st.lists(GT_ROW, max_size=24))
    run = draw(st.sampled_from([0, 0, 0, 2047, 2048, 2100]))
    at = draw(st.integers(0, len(rows)))
    filler = [["9", "1", "2", "30.5", "40"]] * run
    return rows[:at] + filler + rows[at:]
