"""Layout guards on the library's source.

Every public module-level function and class in ``src/qschemes``, and every
public method and property of such a class, must be referenced by name from
library code or from the benchmark in ``perfbench/``.  A helper that only
tests use belongs in ``tests/``.

Module maps are held in one form, the R_d-linear ``RMap`` that callers
compose.  Extension and restriction of scalars may be referenced only by
``rmatrix`` (which defines them) and ``reflect`` (which splits a
representation at a vertex and puts it back together).

A quiver's double and Cartan data are built once, by ``QuiverMult`` itself;
only ``quiver`` may reference their builders.

Every pass/fail verdict is kept by one record, ``errors.Checks``: no other
library class defines ``all_ok``, ``summary`` or ``record``.

No module imports ``dataclasses``: it pulls in ``inspect`` and ``ast`` at
every ``qs`` start, and its classes are built through ``exec``.  Records are
``collections.namedtuple`` subclasses or slotted classes instead.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qschemes"
CONVERTERS = {"extend_scalars", "extend_scalars_rev", "restrict_scalars", "restrict_scalars_rev"}
CONVERTING_MODULES = {"rmatrix", "reflect"}
QUIVER_BUILDERS = {"_double", "_cartan"}
VERDICT_MEMBERS = {"all_ok", "summary", "record"}


def _library_modules():
    return sorted(PACKAGE.glob("*.py"))


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_definitions(path):
    """(qualified name, name) of the public functions and classes of a module
    and of the public methods and properties of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_library_caller():
    modules = _library_modules()
    used = _referenced_names(modules + sorted((REPO / "perfbench").glob("*.py")))
    unused = [qualified for path in modules
              for qualified, name in _public_definitions(path) if name not in used]
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
    assert not offenders, f"scalar extension referenced outside the boundary: {offenders}"


def test_only_quiver_builds_its_derived_data():
    offenders = [f"{path.stem}.{name}" for path in _library_modules() if path.stem != "quiver"
                 for name in sorted(QUIVER_BUILDERS & _referenced_names([path]))]
    assert not offenders, f"quiver builders referenced outside quiver: {offenders}"


def test_no_module_imports_dataclasses():
    offenders = []
    for path in _library_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [path.stem for name in names if name.split(".")[0] == "dataclasses"]
    assert not offenders, f"modules importing dataclasses: {offenders}"


def test_one_verdict_record():
    owners = []
    for path in _library_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                owners += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name in VERDICT_MEMBERS]
    assert owners == ["errors.Checks.record", "errors.Checks.summary"], owners
