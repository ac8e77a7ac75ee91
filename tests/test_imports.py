import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hcpack"

# perfbench/tracer.py patches these names on the modules that import them,
# so each stays imported there although the module itself never reads it
TRACER_ONLY = {
    "general": {"crossing_report", "is_one_plane", "segments_properly_cross",
                "separating_subset_line"},
    "structured": {"crossing_report", "is_one_plane"},
    "instances": {"coordinate_oracle"},
}


def unused_imports(source):
    """Names a module imports but never reads, each with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_package_modules_import_nothing_they_do_not_read():
    """Every module of the package but `__init__` (whose imports are the
    public names it re-exports) reads each name it imports, apart from the
    ones the tracer patches."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {p.stem for p in modules} >= set(TRACER_ONLY)
    stray = {}
    for path in modules:
        names = unused_imports(path.read_text())
        extra = {n: line for n, line in names.items() if n not in TRACER_ONLY.get(path.stem, ())}
        if extra:
            stray[path.name] = extra
    assert stray == {}


def test_unused_import_scan_sees_a_stray_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .geometry import convex_hull, edge as pair\n"
        "def f(a, b):\n"
        "    return pair(a, b), os.sep\n"
    )
    assert unused_imports(source) == {"convex_hull": 3}
