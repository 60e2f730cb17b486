"""Code that nothing calls leaves src/.

- Every private top-level name of a module of sqft (a function, a class or
  a constant whose name starts with one underscore) is read somewhere in
  sqft outside its own definition.
- Every public top-level function and class of sqft is read somewhere in
  sqft outside its own definition, is exported by `sqft.__all__`, or is
  named by the benchmark in `bench/`: as an identifier, or as a string in
  `tracer.LAYERS`, the functions it times.

Code that only the tests read lives in `tests/helpers.py`.
"""

import ast
from pathlib import Path

import sqft

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqft"
BENCH = ROOT / "bench"


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


def _read(stmt: ast.AST) -> set[str]:
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


def _scan() -> tuple[list[str], list[str], set[str]]:
    """The private names, the public functions and classes (as
    "module:name") and the names read outside their own definitions."""
    private: list[str] = []
    public: list[str] = []
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined(stmt)
            private += [f"{path.name}:{name}" for name in defined
                        if name.startswith("_") and not name.startswith("__")]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                public.append(f"{path.name}:{stmt.name}")
            read |= _read(stmt) - set(defined)
    return private, public, read


def _bench_names() -> set[str]:
    """The identifiers of bench/, and the strings of tracer.LAYERS."""
    out: set[str] = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _read(tree)
        if path.name == "tracer.py":
            for stmt in tree.body:
                if "LAYERS" in _defined(stmt):
                    out.update(node.value for node in ast.walk(stmt)
                               if isinstance(node, ast.Constant)
                               and isinstance(node.value, str))
    return out


def test_every_private_name_is_read():
    private, _, read = _scan()
    assert len(private) > 50
    assert [name for name in private
            if name.split(":")[1] not in read] == []


def test_every_public_function_and_class_is_used():
    _, public, read = _scan()
    used = read | set(sqft.__all__) | _bench_names()
    assert len(public) > 100
    assert [name for name in public
            if name.split(":")[1] not in used] == []

