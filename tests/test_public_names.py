"""Every name the package defines is used by the program, not only by tests.

A reference to a definition is a use of its name (or of an attribute,
import or string constant equal to it) outside the definition itself,
in ``src/molbo`` outside ``__init__.py``, or anywhere in ``demos/`` or
``perfbench/``.  A top-level definition is its whole statement (a
function, class or module-level assignment); a method is its ``def``.
A function nested in another must be used by its enclosing function.
Every name the benchmark's span tracer (``perfbench/spans.py``) patches
must still exist where it patches it.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

import molbo
from molbo.molgraph import Molecule

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "molbo"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each name a top-level statement defines, and each non-dunder
    method of a top-level class, with the node that defines it."""
    found = []
    for stmt in tree.body:
        found += [(name, stmt) for name in _defined(stmt)]
        if isinstance(stmt, ast.ClassDef):
            found += [
                (item.name, item)
                for item in stmt.body
                if isinstance(item, FUNCTIONS)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def _used(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _uses(node: ast.AST, enclosing: tuple, out: dict) -> None:
    """Map each used name to the tuples of nodes enclosing its uses."""
    name = _used(node)
    if name is not None:
        out[name].append(enclosing)
    for child in ast.iter_child_nodes(node):
        _uses(child, enclosing + (child,), out)


def _scan():
    """The package's definitions and the program's uses."""
    definitions, uses = [], defaultdict(list)
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        paths += sorted((ROOT / folder).glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            definitions += _definitions(tree)
        _uses(tree, (), uses)
    return definitions, uses


def _unreferenced(keep) -> list[str]:
    """Names of the definitions ``keep(name, node)`` selects that no use
    outside the definition itself refers to."""
    definitions, uses = _scan()
    return [
        name
        for name, node in definitions
        if keep(name, node) and all(node in enclosing for enclosing in uses[name])
    ]


def _nested(node: ast.AST, outer: ast.AST | None = None):
    """Each function defined inside another, with its nearest enclosing
    function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS) and outer is not None:
            yield child, outer
        yield from _nested(child, child if isinstance(child, FUNCTIONS) else outer)


def _unreferenced_nested(source: str) -> list[str]:
    """Names of the nested functions in ``source`` that their enclosing
    function does not use outside their own definition."""
    unused = []
    for inner, outer in _nested(ast.parse(source)):
        uses = defaultdict(list)
        _uses(outer, (), uses)
        if all(inner in enclosing for enclosing in uses[inner.name]):
            unused.append(inner.name)
    return unused


def _exported() -> list[str]:
    tree = ast.parse(Path(molbo.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]


def test_every_exported_name_has_a_program_reference():
    exported = set(_exported())
    assert exported
    assert _unreferenced(lambda name, node: name in exported) == []


def test_every_function_class_and_method_has_a_program_reference():
    kinds = (*FUNCTIONS, ast.ClassDef)
    assert _unreferenced(lambda name, node: isinstance(node, kinds)) == []


def test_every_module_constant_has_a_program_reference():
    assigns = (ast.Assign, ast.AnnAssign)
    assert _unreferenced(lambda name, node: isinstance(node, assigns)) == []


def test_every_nested_function_is_used_by_its_enclosing_function():
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unreferenced_nested(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
    source = "def f():\n    def g():\n        return g()\n    def h():\n        pass\n    h()\n"
    assert _unreferenced_nested(source) == ["g"]


def test_every_name_the_span_tracer_patches_resolves():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner}.{attr}" for owner, attr, *_ in spans._PATCHES
               if not hasattr(spans._owner(owner), attr)]
    assert missing == []
    assert isinstance(Molecule.__dict__["canonical_form"], property)
