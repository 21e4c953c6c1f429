import ast
from pathlib import Path
from types import ModuleType

import gridscope


def test_all_lists_the_public_api_but_no_submodules():
    names = gridscope.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if isinstance(getattr(gridscope, n), ModuleType)]
    for name in ("build_track", "CsvError", "load_calibration", "read_segments"):
        assert name in names
    public = {n for n in dir(gridscope) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(gridscope, n), ModuleType)}
    assert set(names) == public - modules


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
    # the re-exports perfbench/spans.py wraps by module attribute
    assert len(marked) == 8, marked
