"""The core package imports only the standard library, numpy and itself.

Runtime extras declared in ``pyproject.toml`` (``mlxtend`` for the MNIST
fallback) may be imported, but only inside a function, so that
``import qnnkit`` works without them.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
CORE = {"numpy"}


def runtime_extras() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    groups = project.get("optional-dependencies", {})
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).replace("-", "_")
        for group, reqs in groups.items()
        if group != "test"  # tools for this suite, not extras of the package
        for req in reqs
    }


def imports(tree: ast.Module):
    """(top-level module name, line, inside a function) of every absolute import."""
    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield alias.name.split(".")[0], child.lineno, in_function
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield child.module.split(".")[0], child.lineno, in_function
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, inner)

    yield from walk(tree, False)


def test_the_extras_are_read_from_pyproject():
    assert runtime_extras() == {"mlxtend"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qnnkit").glob("*.py")), ids=lambda p: p.name)
def test_core_imports_only_stdlib_numpy_and_itself(path):
    extras = runtime_extras()
    bad = []
    for name, line, in_function in imports(ast.parse(path.read_text(encoding="utf-8"))):
        if name in sys.stdlib_module_names or name in CORE or name == "qnnkit":
            continue
        if name in extras and in_function:
            continue
        where = "inside a function" if in_function else "at module level"
        bad.append(f"{path.name}:{line}: {name} {where}")
    assert bad == []
