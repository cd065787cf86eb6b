"""Layout guards on the library's source.

Every public module-level function and class in ``src/qschemes`` must be
referenced from library code (any module but ``__init__.py``, whose exports
do not count) or from the benchmark in ``perfbench/``.  A helper that only
tests use belongs in ``tests/``.

Module maps are held in one form, the R_d-linear ``RMap`` that callers
compose.  The converters to and from base-field parameter blocks may be
referenced only by ``rmatrix`` (which defines them), ``reflect`` (which
splits a representation at a vertex and puts it back together) and
``serialize`` (which prints the junction maps of a leg point).
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qschemes"
CONVERTERS = {"slice_restrict", "slice_restrict_rev", "extend_scalars", "extend_scalars_rev"}
CONVERTING_MODULES = {"rmatrix", "reflect", "serialize"}


def _library_modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    modules = _library_modules()
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


def test_base_field_converters_stay_at_the_boundary():
    offenders = []
    for path in _library_modules():
        if path.stem in CONVERTING_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        offenders += [f"{path.stem}.{name}"
                      for name in sorted(CONVERTERS & (imported | _referenced_names([path])))]
    assert not offenders, f"base-field converters referenced outside the boundary: {offenders}"
