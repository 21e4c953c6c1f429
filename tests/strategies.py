"""Hypothesis strategies for detection CSV rows, shared by several tests."""

from hypothesis import strategies as st

REAL_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-50, 2000).map(str),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e308", "-1.7e308", "1.6e308", "1.7e308", "", "x"]
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
