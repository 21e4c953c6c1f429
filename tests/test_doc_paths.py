"""The paths that document errors name, pinned to their exact texts.

``jsonio.DocReader`` builds a reader's path only when an error message or
``refuse_unread_keys`` asks for it.  Each case below puts one fault deep
in a calibration, marker-picks or run-config document, loads the file the
way the commands do, and checks the whole message against the text that
the reader gave when it built every path as it went down.
"""

from __future__ import annotations

import copy
import json
import math
from functools import cache

import pytest

from gridscope.calibration import (
    build_calibration,
    calibration_doc,
    load_calibration,
    load_marker_picks,
    marker_picks_doc,
)
from gridscope.cli import load_run_config
from gridscope.errors import GridscopeError
from gridscope.simulate import marker_picks_for

from conftest import make_scenario

RUN_CONFIG = {
    "sync_tolerance_ms": 20.0,
    "z_reject_mm": 50.0,
    "depth_correction": True,
    "reference_camera": "top",
}


@cache
def _documents() -> dict:
    picks = marker_picks_for(make_scenario("aligned"))
    return {
        "calibration": calibration_doc(build_calibration(picks)),
        "marker picks": marker_picks_doc(picks),
        "run config": RUN_CONFIG,
    }


LOADERS = {
    "calibration": load_calibration,
    "marker picks": load_marker_picks,
    "run config": load_run_config,
}

# (kind, path to a value, change, the message after the file's path):
# ("set", v) puts v there, ("add", key, v) adds a key to the mapping
# there, ("drop", key) removes one.
CASES = {
    "homography_entry_a_string": (
        "calibration", ("cameras", 3, "sub_areas", 4, "homography", 2, 1), ("set", "0.5"),
        "cameras[3].sub_areas[4].homography[2][1]: expected a real number, found str",
    ),
    "unknown_key_in_a_sub_area": (
        "calibration", ("cameras", 1, "sub_areas", 0), ("add", "colour", "red"),
        "cameras[1].sub_areas[0]: unknown key 'colour'",
    ),
    "depth_sign_a_string": (
        "calibration", ("axis_map", "sides", 2, "depth", "sign"), ("set", "1"),
        "axis_map.sides[2].depth.sign: expected an integer, found str",
    ),
    "quad_corner_a_huge_integer": (
        "calibration", ("cameras", 2, "sub_areas", 3, "src_quad", 1, 0), ("set", 10**400),
        "cameras[2].sub_areas[3].src_quad[1][0]: expected a finite real number, found int",
    ),
    "scale_not_a_number": (
        "calibration", ("cameras", 0, "sub_areas", 2, "scale", 1), ("set", math.nan),
        "cameras[0].sub_areas[2].scale[1]: expected a finite real number, found float",
    ),
    "homography_row_too_short": (
        "calibration", ("cameras", 4, "sub_areas", 1, "homography", 0), ("set", [1.0, 0.0]),
        "cameras[4].sub_areas[1].homography[0]: expected an array of 3 elements, found list",
    ),
    "homography_row_a_mapping": (
        "calibration", ("cameras", 1, "sub_areas", 3, "homography", 2), ("set", {"a": 1}),
        "cameras[1].sub_areas[3].homography[2]: expected an array of 3 elements, found dict",
    ),
    "sub_area_without_its_origin": (
        "calibration", ("cameras", 2, "sub_areas", 4), ("drop", "mg_origin"),
        "cameras[2].sub_areas[4]: missing required key 'mg_origin'",
    ),
    "canonical_width_a_boolean": (
        "calibration", ("cameras", 3, "sub_areas", 0, "canonical", 0), ("set", True),
        "cameras[3].sub_areas[0].canonical[0]: expected a real number, found bool",
    ),
    "unknown_key_at_the_top": (
        "calibration", (), ("add", "comment", "x"),
        "top level: unknown key 'comment'",
    ),
    "unknown_key_in_a_top_link": (
        "calibration", ("axis_map", "top", "b"), ("add", "scale", 1),
        "axis_map.top.b: unknown key 'scale'",
    ),
    "depth_link_without_its_face": (
        "calibration", ("axis_map", "sides", 1, "depth"), ("drop", "face_n_mm"),
        "axis_map.sides[1].depth: missing required key 'face_n_mm'",
    ),
    "resolution_a_fraction": (
        "calibration", ("cameras", 4, "resolution", 1), ("set", 1.5),
        "cameras[4].resolution[1]: expected an integer, found float",
    ),
    "mde_null": (
        "calibration", ("cameras", 2, "mde_v"), ("set", None),
        "cameras[2].mde_v: expected a real number, found null",
    ),
    "sub_areas_a_mapping": (
        "calibration", ("cameras", 0, "sub_areas"), ("set", {}),
        "cameras[0].sub_areas: expected an array, found dict",
    ),
    "unknown_key_in_a_camera": (
        "calibration", ("cameras", 3), ("add", "lens", "wide"),
        "cameras[3]: unknown key 'lens'",
    ),
    "unknown_key_in_the_grid": (
        "calibration", ("grid_a",), ("add", "depth", 1.0),
        "grid_a: unknown key 'depth'",
    ),
    "depth_marker_corner_null": (
        "marker picks", ("cameras", 2, "depth_markers", "face_f", 3, 0), ("set", None),
        "cameras[2].depth_markers.face_f[3][0]: expected a real number, found null",
    ),
    "unknown_key_in_a_picked_sub_area": (
        "marker picks", ("cameras", 0, "sub_areas", 1), ("add", "colour", "red"),
        "cameras[0].sub_areas[1]: unknown key 'colour'",
    ),
    "required_size_of_one": (
        "marker picks", ("cameras", 4, "sub_areas", 0), ("add", "required", [1.0]),
        "cameras[4].sub_areas[0].required: expected an array of 2 elements, found list",
    ),
    "picked_depth_sign_a_float": (
        "marker picks", ("axis_map", "sides", 2, "depth", "sign"), ("set", 1.0),
        "axis_map.sides[2].depth.sign: expected an integer, found float",
    ),
    "unknown_depth_marker": (
        "marker picks", ("cameras", 1, "depth_markers"), ("add", "face_x", []),
        "cameras[1].depth_markers: unknown key 'face_x'",
    ),
    "unknown_key_in_a_vertical_link": (
        "marker picks", ("axis_map", "sides", 0, "vertical"), ("add", "origin", 0.0),
        "axis_map.sides[0].vertical: unknown key 'origin'",
    ),
    "quad_of_three_corners": (
        "marker picks", ("cameras", 3, "sub_areas", 2, "src_quad"), ("set", [[0, 0]] * 3),
        "cameras[3].sub_areas[2].src_quad: expected an array of 4 elements, found list",
    ),
    "config_real_a_string": (
        "run config", ("z_reject_mm",), ("set", "far"),
        "z_reject_mm: expected a real number, found str",
    ),
    "config_real_a_boolean": (
        "run config", ("sync_tolerance_ms",), ("set", True),
        "sync_tolerance_ms: expected a real number, found bool",
    ),
    "config_camera_a_number": (
        "run config", ("reference_camera",), ("set", 3),
        "reference_camera: expected a string, found int",
    ),
    "config_flag_a_string": (
        "run config", ("depth_correction",), ("set", "yes"),
        "depth_correction: expected a boolean, found str",
    ),
    "config_unknown_key": (
        "run config", (), ("add", "colour", 1),
        "unknown config keys ['colour']",
    ),
}


def _changed(doc: dict, path: tuple, change: tuple) -> dict:
    doc = copy.deepcopy(doc)
    *above, last = path if path else (None,)
    parent = doc
    for key in above:
        parent = parent[key]
    target = parent[last] if path else doc
    op, *args = change
    if op == "set":
        parent[last] = args[0]
    elif op == "add":
        target[args[0]] = args[1]
    else:
        del target[args[0]]
    return doc


def _message(kind: str, path: tuple, change: tuple, directory) -> str:
    """The message of loading the changed document, after its file's path."""
    file = directory / "doc.json"
    file.write_text(json.dumps(_changed(_documents()[kind], path, change)), encoding="utf-8")
    with pytest.raises(GridscopeError) as err:
        LOADERS[kind](file)
    text = str(err.value)
    assert text.startswith(f"{file}: "), text
    return text[len(f"{file}: "):]


@pytest.mark.parametrize("case", list(CASES))
def test_a_deep_fault_names_its_path(case, tmp_path):
    kind, path, change, expected = CASES[case]
    assert _message(kind, path, change, tmp_path) == expected


@pytest.mark.parametrize("kind", list(LOADERS))
def test_the_unchanged_documents_load(kind, tmp_path):
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(_documents()[kind]), encoding="utf-8")
    LOADERS[kind](file)
