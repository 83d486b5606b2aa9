"""Every name the package exports is used by the program, not only by tests.

A reference is a use of the name (or of an attribute, import or string
constant equal to it) in ``src/molbo`` outside ``__init__.py`` and
outside the top-level statement that defines it, or anywhere in
``demos/`` or ``perfbench/``.
"""

import ast
from pathlib import Path

import molbo

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "molbo"


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _used(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.asname or n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def _program_references() -> set[str]:
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs |= _used(stmt) - _defined(stmt)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            refs |= _used(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def _exported() -> list[str]:
    tree = ast.parse(Path(molbo.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]


def test_every_exported_name_has_a_program_reference():
    refs = _program_references()
    exported = _exported()
    assert exported
    assert [name for name in exported if name not in refs] == []
