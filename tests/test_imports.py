"""The core package imports only the standard library, numpy and itself,
uses every name it imports, as the tests and demos do, and defines no
name that nothing uses, or that only tests and demos use.

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


def unused_imports(source: str):
    """(line, name) of every imported name the module never refers to.

    A name counts as used where it appears as an expression, an
    annotation included; a line marked ``# noqa: F401`` imports for
    effect and is skipped, like ``from __future__`` imports.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield node.lineno, name


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau as t\nprint(pi)\n"
    assert list(unused_imports(source)) == [(1, "os"), (3, "t")]


# __init__.py imports to re-export, so only the other modules are checked;
# perfbench is the benchmark's own code and is left to its changes
@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "qnnkit").glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: p.name if p.parent.name == "qnnkit" else f"{p.parent.name}/{p.name}",
)
def test_core_has_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    assert [f"{path.name}:{line}: {name}" for line, name in unused_imports(source)] == []


def definitions(source: str):
    """(line, name) of every top-level function and class, and (line,
    ".name") of every non-dunder method, which only an attribute reaches."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.lineno, "." + item.name


def references(source: str, traced: bool = False):
    """Every name ``source`` refers to: each name it reads or imports, and
    ".attr" for each attribute.

    A name that is only assigned is no reference, and a bare name is none
    to a method: a local variable spelled like a dead method does not keep
    it. With ``traced``, also ".attr" for the attribute that each
    ``tracer.wrap(owner, "attr", ...)`` replaces, as the benchmark
    worker's tracing does. A definition is not a reference to itself.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield "." + node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (
            traced
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield "." + node.args[1].value


def is_used(name: str, used: set) -> bool:
    """A top-level ``name`` is used as a bare name or an attribute, a
    method ".name" only as an attribute."""
    return name in used or "." + name in used


def test_dead_names_are_found():
    source = (
        "def used(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def read(self): pass\n"
        "    def traced(self): pass\n"
        "    def gone(self): pass\n"
        "def stored(): pass\n"
    )
    user = (
        "from box import used\n"
        "Box().read()\n"
        "def local():\n"
        "    gone = stored = 1\n"  # locals named like a dead method and function
        "    return gone\n"
    )
    used = set(references(user))
    used |= set(references("tracer.wrap(Box, 'traced', 'box.traced')\n", traced=True))
    assert [(line, name) for line, name in definitions(source) if not is_used(name, used)] == [
        (2, "dead"),
        (7, ".gone"),
        (8, "stored"),
    ]
    assert ".traced" not in set(references("tracer.wrap(Box, 'traced', 'box.traced')\n"))


def test_every_name_defined_in_the_core_is_used():
    # __init__.py only re-exports, so its imports are not uses
    sources = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    used = set()
    for path in sources:
        if path != ROOT / "src" / "qnnkit" / "__init__.py":
            traced = path == ROOT / "perfbench" / "worker.py"
            used.update(references(path.read_text(encoding="utf-8"), traced))
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sorted((ROOT / "src" / "qnnkit").glob("*.py"))
        for line, name in definitions(path.read_text(encoding="utf-8"))
        if not is_used(name, used)
    ]
    assert dead == []


def test_no_name_in_the_core_is_used_only_by_tests_and_demos():
    # what the package and the benchmark use counts, __init__.py re-exports
    # included; tests and demos do not
    used = set()
    for path in [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")]:
        traced = path == ROOT / "perfbench" / "worker.py"
        used.update(references(path.read_text(encoding="utf-8"), traced))
    test_only = [
        f"{path.name}:{line}: {name}"
        for path in sorted((ROOT / "src" / "qnnkit").glob("*.py"))
        for line, name in definitions(path.read_text(encoding="utf-8"))
        if not is_used(name, used)
    ]
    assert test_only == []
