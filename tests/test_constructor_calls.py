"""Only ``molbo.molgraph``'s parser, hydrogen expansion and skeleton
builder run the ``Molecule`` constructor; every synthesis product is
assembled by ``join_molecules`` from its reagents' state."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "molbo"

CONSTRUCTING = {
    ("molgraph.py", "parse_smiles"),
    ("molgraph.py", "add_explicit_hydrogens"),
    ("molgraph.py", "strip_hydrogens"),
}


def _constructor_calls(source: str) -> list[str]:
    """The top-level definition around each ``Molecule(...)`` call, or
    ``"<module>"`` for a call outside any."""
    callers = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Molecule":
                    callers.append(owner)
    return callers


def test_only_the_parser_expansion_and_skeleton_construct_molecules():
    callers = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _constructor_calls(path.read_text(encoding="utf-8"))
    }
    assert callers == CONSTRUCTING


def test_calls_are_found_wherever_they_stand():
    source = (
        "import molgraph\n"
        "x = Molecule([], {})\n"
        "def f():\n    return [molgraph.Molecule(a, b) for a, b in g()]\n"
        "class C:\n    def m(self):\n        return Molecule\n"
    )
    assert _constructor_calls(source) == ["<module>", "f"]
