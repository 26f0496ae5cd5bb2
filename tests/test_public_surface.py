"""Every public name feeds a report, a suite, a demo or the benchmark,
and every definition of the package has a reader.

A name counts as read when a module of the package other than
`__init__` (which only re-exports), a demo, a tool or a bench script
names it: as a loaded name, an attribute or an imported alias.  A public
name, a private helper or a method that only its own tests read has no
caller.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import h2comp

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src/h2comp", "demos", "tools", "bench")

# The vertical-line average is the route to the level measure that
# shares no sampling with `measure_E_delta`; affine level sets have no
# closed-form measure, so `test_torus.py::test_ergodic_agrees_with_mc`
# is the only independent check of that measure at an interior delta.
UNREAD_REFERENCES = {"ergodic_measure"}


def _names_read(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _read_by_readers() -> set[str]:
    init = ROOT / "src" / "h2comp" / "__init__.py"
    read = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != init:
                read.update(_names_read(path))
    return read


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(qualified name, name a reader would use) for each top-level
    function, class and module constant of a module, and each method of
    its classes, dunders left out."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        yield from ((name, name) for name in names if not _is_dunder(name))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_public_name_has_a_reader():
    read = _read_by_readers()
    public = set(h2comp.__all__) - {"__version__"}
    assert UNREAD_REFERENCES <= public - read
    assert sorted(public - read - UNREAD_REFERENCES) == []


def test_every_definition_has_a_reader():
    # a helper, constant or method that only tests call is code the
    # package does not need, however it is named
    read = _read_by_readers()
    unread = [
        f"{path.name}: {qualified}"
        for path in sorted((ROOT / "src" / "h2comp").glob("*.py"))
        for qualified, name in _definitions(path)
        if name not in read and name not in UNREAD_REFERENCES
    ]
    assert unread == []


def test_package_exports_are_the_submodule_exports():
    # `h2comp.__all__` is the union of the `__all__` lists of the modules
    # `__init__` re-exports from, and each module defines what it lists
    init = ROOT / "src" / "h2comp" / "__init__.py"
    modules = sorted(
        node.module
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    )
    listed = set()
    for name in modules:
        mod = importlib.import_module(f"h2comp.{name}")
        names = getattr(mod, "__all__", ())
        assert [n for n in names if not hasattr(mod, n)] == [], name
        listed.update(names)
    public = set(h2comp.__all__) - {"__version__"}
    assert sorted(public ^ listed) == []
