import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import gridscope
from gridscope import jsonio
from gridscope.calibration import marker_picks_doc
from gridscope.cli import main
from gridscope.simulate import marker_picks_for

import test_digests
from conftest import make_scenario
from quickstart import write_quick_start


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


def _fresh(run: str, *flags: str) -> subprocess.CompletedProcess:
    """A fresh interpreter started with ``flags`` that runs ``run``, then
    prints the gridscope modules it holds."""
    src = str(Path(gridscope.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *flags, "-c", _LOADED.format(run=run)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )


def _modules_after(run: str) -> set[str]:
    """The gridscope modules a fresh interpreter holds after running ``run``."""
    return set(_fresh(run).stdout.splitlines()[-1].split())  # after what ``run`` prints


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


def _importtime(run: str) -> tuple[set[str], set[str]]:
    """The gridscope modules ``python -X importtime`` lists while ``run``
    runs, and those the interpreter then holds."""
    done = _fresh(run, "-X", "importtime")
    listed = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    loaded = set(done.stdout.splitlines()[-1].split())
    return {m for m in listed if m.startswith("gridscope")}, loaded


def test_importtime_lists_every_module_a_command_or_a_lookup_loads(tmp_path):
    picks, preds, gt = tmp_path / "picks.json", tmp_path / "preds.csv", tmp_path / "gt.csv"
    jsonio.write_doc(picks, marker_picks_doc(marker_picks_for(make_scenario("pinhole", n_frames=1))))
    preds.write_text("camera_id,frame_index,timestamp_ms,u_min,v_min,u_max,v_max,confidence\n"
                     "det,0,0.0,0,0,10,10,0.9\n")
    gt.write_text("frame_id,u_min,v_min,u_max,v_max\n0,0,0,10,10\n")
    command = "from gridscope.cli import main\nassert main({!r}) == 0"
    runs = {
        command.format(["calibrate", str(picks), "--out", str(tmp_path / "cal.json")]):
            {"gridscope.calibration", "gridscope.geometry"},
        command.format(["detmetrics", "--predictions", str(preds), "--ground-truth", str(gt)]):
            {"gridscope.detections", "gridscope.metrics"},
        "import gridscope\ngridscope.Detection": {"gridscope.detections"},
    }
    for run, named in runs.items():
        listed, loaded = _importtime(run)
        assert named <= listed and listed == loaded, run


def test_no_two_command_modules_define_the_same_public_name():
    """So the order in which ``cli._bind`` binds them cannot matter, and
    each name on the cli is the one its module defines."""
    from gridscope import cli

    cli._bind(*cli._COMMAND_MODULES)
    where = {}
    for module in cli._COMMAND_MODULES:
        loaded = importlib.import_module(f"gridscope.{module}")
        for name, value in vars(loaded).items():
            if not name.startswith("_") and getattr(value, "__module__", None) == loaded.__name__:
                assert name not in where, (name, module, where[name])
                where[name] = module
                assert getattr(cli, name) is value, name
    assert len(where) > 100


def test_a_private_name_on_the_cli_imports_nothing():
    run = ("import gridscope.cli\n"
           "assert not hasattr(gridscope.cli, '_anything')")
    assert _modules_after(run) == {"gridscope", "gridscope.cli", "gridscope.errors",
                                   "gridscope.jsonio", "gridscope.options"}


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


# Every function and method that src/gridscope defines with ``def`` at
# module or class level either runs in the reach runs below or is named
# here with the reason it stays.  A lambda or a def nested in a function is
# not checked on its own: it is code of the function that defines it.
NOT_REACHED = {
    # what tests/test_acceptance.py calls
    "acceptance API": (
        "calibration.Calibration.camera",
        "calibration.to_model_grid",
        "detections.parse_detections",
        "detections.parse_detections_file",
        "errors.ZDisagreementExceeded.__init__",
        "fusion.TrackPoint.__post_init__",
        "fusion.TrackTable.__iter__",
        "fusion._point",
        "fusion.reconstruct_point",
        "geometry.Homography.__eq__",
        "geometry.Homography.inverse",
        "geometry.apply_homography",
        "jsonio.Columns.__eq__",
        "jsonio.Columns.rows",
        "metrics.GroundTruthBox.__post_init__",
        "metrics.iou",
        "metrics.match_greedy",
    ),
    # what reads a track or ground-truth file that the fast read declines
    "row-wise fallback": (
        "fusion.TrackTable.from_points",
        "fusion._track_point",
        "jsonio.Columns.of",
        "metrics._ground_truth_box",
    ),
    # perfbench's gate, spans and workloads (Detection.area through the
    # synchronize oracle its gate runs)
    "perfbench only": (
        "detections.Detection.area",
        "detections.ParseResult.skipped",
        "evaluation.write_segments",
        "metrics.average_precision",
        "simulate._truth_sample",
        "simulate.read_truth",
    ),
    "path the scenarios do not take": (
        "__dir__",  # dir(gridscope)
        "detections._claimed_slots",  # a contested claim
        "geometry.Homography.__hash__",
        "geometry.Homography.__repr__",
    ),
    # ROADMAP.md item 3 deletes these once perfbench no longer calls them
    "item 3: to delete": (
        "depth.correct_side_point",
        "detections.synchronize",
        "geometry.point_in_quad",
        "metrics.read_ground_truth",
        "metrics.read_predictions",
    ),
}


def _defined(path: Path) -> dict[int, str]:
    """The module- and class-level defs in ``path``: each one's qualified
    name by its first line, which is its first decorator's if it has one,
    as in its code object's ``co_firstlineno``."""
    names = {}

    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[first] = prefix + child.name
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:  # an if, try or with block at the same level
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def _prefix(stem: str) -> str:
    """What NOT_REACHED puts before a name defined in the file ``stem``:
    its module's name in the package, and nothing for the package itself."""
    return "" if stem == "__init__" else f"{stem}."


def _fails(argv: list[str], code: int, message: str, capsys):
    """``main(argv)`` returns ``code`` and prints one line matching ``message``."""
    assert main(argv) == code, argv
    err = capsys.readouterr().err
    assert re.fullmatch(message + "\n", err), err


def _failing_runs(root: Path, capsys):
    """One failing invocation per error family, on the files in ``root``."""
    cal, sim = str(root / "calibration_max.json"), root / "sim"
    good = (sim / "detections_side0.csv").read_text(encoding="utf-8")
    header = good.splitlines()[0]
    bad = {
        "config.json": '{"z_reject_mm": "far"}',
        "stats.json": '{"total": "many"}',
        "box.csv": f"{header}\ns,0,0.0,-1e308,0,1e308,10,0.5\n",
        "field.csv": f"{header}\ns,0,-1.0,0,0,10,10,0.5\n",
    }
    for name, text in bad.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "bytes.csv").write_bytes(good.encode() + b"s,9,9.0,0,0,1,1,0.5\xff\n")
    reconstruct = ["reconstruct", "--calibration", cal, "--out", str(root / "t.csv")]
    evaluate = ["evaluate", "--track", str(root / "track_best.csv"),
                "--segments", str(root / "segments.csv"), "--calibration", cal]
    # a setting of the run
    _fails([*reconstruct, str(sim / "detections_top.csv"), "--config", str(root / "config.json")],
           2, r"config error: .*config\.json: z_reject_mm: expected a real number.*", capsys)
    # a file that cannot be opened
    _fails(["calibrate", str(root / "missing.json"), "--out", str(root / "c.json")],
           1, r"i/o error: .*missing\.json'", capsys)
    # a document's value
    _fails([*evaluate, "--stats", str(root / "stats.json")],
           1, r"error: .*stats\.json: total: expected an integer.*", capsys)
    # a CSV row its object refuses, and one a field refuses
    _fails([*reconstruct, "--strict", str(root / "box.csv")],
           1, r"error: .*box\.csv: row 2, column <row>: box centre or area is not finite.*",
           capsys)
    _fails(["detmetrics", "--predictions", str(root / "field.csv"),
            "--ground-truth", str(root / "ground_truth.csv")],
           1, r"error: .*field\.csv: row 2, column timestamp_ms: .*", capsys)
    # a byte that is not UTF-8
    _fails([*reconstruct, str(root / "bytes.csv")],
           1, r"error: .*bytes\.csv: row \d+, column <row>: not UTF-8 text", capsys)
    # a name neither namespace has
    for namespace in (gridscope, gridscope.cli):
        with pytest.raises(AttributeError):
            namespace.no_such_name


def test_every_function_in_src_runs_or_is_listed(tmp_path, monkeypatch, capsys):
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    def traced(run):
        def call(*args):
            sys.setprofile(profile)
            try:
                return run(*args)
            finally:
                sys.setprofile(None)

        return call

    # every command on the digest scenarios, as those tests run them
    gridscope.cli._parser.cache_clear()  # so the traced runs build the parser
    monkeypatch.setattr(test_digests, "main", traced(main))
    for mode in ("aligned", "pinhole"):
        (tmp_path / mode).mkdir()
        test_digests._run_all(tmp_path / mode, mode)
    traced(_failing_runs)(tmp_path / "aligned", capsys)

    package = Path(gridscope.__file__).parent
    starts = {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in ran
        if Path(code.co_filename).parent == package
    }
    defined, reached = set(), set()
    for path in package.glob("*.py"):
        for line, name in _defined(path).items():
            defined.add(_prefix(path.stem) + name)
            if (path.stem, line) in starts:
                reached.add(_prefix(path.stem) + name)
    listed = [name for names in NOT_REACHED.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(set(listed) - defined) == []  # a deleted name leaves the dict
    assert sorted(defined - reached - set(listed)) == []  # a new name runs or is listed
    assert sorted(set(listed) & reached) == []  # a listed name that runs leaves it


def test_the_readme_quick_start_runs_as_written(tmp_path):
    named = write_quick_start(tmp_path)
    assert {"sim/", "calibration.json", "track.csv", "report.json", "track.svg"} <= set(named)
    src = str(Path(gridscope.__file__).resolve().parents[1])
    define = f'gridscope() {{ {shlex.quote(sys.executable)} -m gridscope.cli "$@"; }}\n'
    script = define + (tmp_path / "quickstart.sh").read_text(encoding="utf-8")
    done = subprocess.run(
        ["bash", "-e", "-c", script], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert [name for name in named if not (tmp_path / name).exists()] == []
