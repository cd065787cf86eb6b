"""Layout guard: the library holds no code that only the tests call.

Every public module-level function and class in ``src/qschemes`` must be
referenced from library code (any module but ``__init__.py``, whose exports
do not count) or from the benchmark in ``perfbench/``.  A helper that only
tests use belongs in ``tests/``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qschemes"


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_library_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used = _referenced_names(modules + sorted((REPO / "perfbench").glob("*.py")))
    unused = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert not unused, f"not referenced from src or perfbench: {unused}"
