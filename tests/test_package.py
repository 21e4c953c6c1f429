import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import gridscope
from gridscope import jsonio
from gridscope.calibration import marker_picks_doc
from gridscope.simulate import marker_picks_for

from conftest import make_scenario


def test_all_lists_the_public_api_but_no_submodules():
    names = gridscope.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if isinstance(getattr(gridscope, n), ModuleType)]
    for name in ("build_track", "CsvError", "load_calibration", "read_segments"):
        assert name in names
    public = {n for n in dir(gridscope) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(gridscope, n), ModuleType)}
    assert set(names) == public - modules


def test_each_export_is_the_attribute_of_the_module_that_defines_it():
    assert len(gridscope.__all__) == 88
    for name in gridscope.__all__:
        module = importlib.import_module(f"gridscope.{gridscope._MODULE_OF[name]}")
        value = getattr(gridscope, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
    assert set(gridscope.__all__) <= set(dir(gridscope))
    with pytest.raises(AttributeError, match="no_such_name"):
        gridscope.no_such_name
    assert jsonio is sys.modules["gridscope.jsonio"]


_LOADED = """
import sys
{run}
print(" ".join(m for m in sorted(sys.modules) if m.startswith("gridscope")))
"""


def _modules_after(run: str) -> set[str]:
    """The gridscope modules a fresh interpreter holds after running ``run``."""
    src = str(Path(gridscope.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LOADED.format(run=run)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())  # after what ``run`` prints


def _after_command(argv: list[str]) -> set[str]:
    run = f"from gridscope.cli import main\nassert main({argv!r}) == 0"
    return _modules_after(run)


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    cli = {"gridscope", "gridscope.cli", "gridscope.errors", "gridscope.jsonio",
           "gridscope.options"}
    assert _modules_after("import gridscope") == {"gridscope"}
    assert _modules_after("import gridscope.cli") == cli

    picks = tmp_path / "picks.json"
    jsonio.write_doc(picks, marker_picks_doc(marker_picks_for(make_scenario("pinhole", n_frames=1))))
    calibrate = ["calibrate", str(picks), "--out", str(tmp_path / "calibration.json")]
    assert _after_command(calibrate) == cli | {"gridscope.calibration", "gridscope.geometry"}

    preds, gt = tmp_path / "preds.csv", tmp_path / "gt.csv"
    preds.write_text("camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
                     "det,0,0.0,0,0,10,10,0.9\n")
    gt.write_text("frame_id,u_min,v_min,u_max,v_max\n0,0,0,10,10\n")
    detmetrics = ["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt)]
    assert _after_command(detmetrics) == cli | {"gridscope.detections", "gridscope.metrics"}


def _annotation_names(node: ast.AST) -> set[str]:
    """The names in an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _unused_imports(path: Path) -> tuple[list[str], list[str]]:
    """The names a module imports but never uses, as ``module:line name``,
    split into those not marked ``# noqa: F401`` and those marked."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    unmarked, marked = [], []
    for lineno, name in imported:
        if name not in used:
            where = marked if "# noqa: F401" in lines[lineno - 1] else unmarked
            where.append(f"{path.name}:{lineno} {name}")
    return unmarked, marked


def test_no_module_imports_a_name_it_does_not_use():
    package = Path(gridscope.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    unmarked, marked = [], []
    for path in modules:
        found = _unused_imports(path)
        unmarked += found[0]
        marked += found[1]
    assert unmarked == []
    # the names perfbench/spans.py wraps on the module that would call them;
    # those it wraps on gridscope.cli are bound there on first use instead
    assert sorted(entry.split()[1] for entry in marked) == [
        "apply_homography",
        "correct_side_point",
        "point_in_quad",
        "to_model_grid",
    ]


def test_an_import_inside_a_function_is_checked_too(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def f():\n"
        "    import os\n"
        "    from math import pi, tau  # noqa: F401\n"
        "    return pi\n"
    )
    assert _unused_imports(path) == (["module.py:2 os"], ["module.py:3 tau"])
