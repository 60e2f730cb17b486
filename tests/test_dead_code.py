"""Code that nothing calls leaves src/: every private top-level name of a
module of sqft (a function, a class or a constant whose name starts with
one underscore) is read somewhere in sqft outside its own definition.

Public names are the package's API and may be used only by callers
outside it; a private name that nothing in the package reads is dead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqft"


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_read():
    private: list[str] = []                 # "module:name"
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined(stmt)
            private += [f"{path.name}:{name}" for name in defined
                        if name.startswith("_") and not name.startswith("__")]
            read |= _read(stmt) - set(defined)
    assert len(private) > 50
    assert [name for name in private
            if name.split(":")[1] not in read] == []

