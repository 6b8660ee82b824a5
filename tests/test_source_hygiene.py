"""Every parameter of a package function is read, and every imported name is
used: a parameter nothing reads, or an import nothing uses, is a fact with no
home. `__init__.py` re-exports by importing, and an import marked
`# noqa: F401` is kept for another reader (the benchmark's tracer wraps
`workflow.solve` by name), so neither counts."""

import ast
from pathlib import Path

import pytest

import collsched

MODULES = sorted(Path(collsched.__file__).parent.glob("*.py"))


def _names_read(nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for every parameter of a `def` that its body
    never reads; `self` and `cls` are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = _names_read(node.body)
        out += [f"{node.name}.{p}" for p in params if p not in read and p not in ("self", "cls")]
    return out


def unused_imports(source: str) -> list[str]:
    """Every name an import binds that the module never reads, except
    `__future__` imports and imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _names_read([tree]) | {n.value.id for n in ast.walk(tree)
                                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        out += [name for name in bound if name not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_checks_catch_what_they_name():
    source = ("import os\nimport json  # noqa: F401\nfrom math import pi, tau\n"
              "def f(a, b, *args, c, **kw):\n    b = 0\n    return a + c + pi + len(kw)\n"
              "class C:\n    def m(self, x):\n        return 1\n")
    assert unread_parameters(source) == ["f.b", "f.args", "m.x"]
    assert unused_imports(source) == ["os", "tau"]
