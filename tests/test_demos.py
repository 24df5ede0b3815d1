"""The quick demos run to completion, and every demo's imports resolve.

Each quick demo runs as its own process, the way a reader would start
it, and must exit 0. These five call the simulator, the neuron closed
forms, the compiled circuit and the trainer (``04_xor_training.py``,
about 3 s on a 2-core machine; the others well under a second each).
``05_mnist_benchmark.py`` needs MNIST, so it does not run here; only its
imports are checked. The accuracy-vs-depth sweep is the command
``qnnkit sweep --arch nets/vu.arch --classes 0,3,6,9 --resolution 8``,
which acceptance criterion 10 runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = [
    "01_statevector_basics.py",
    "02_neuron_gadgets.py",
    "03_connection_rules.py",
    "04_xor_training.py",
    "07_circuit_verification.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def qnnkit_imports(path):
    """(module, name, line) of every name a script imports from qnnkit."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "qnnkit":
            for alias in node.names:
                yield node.module, alias.name, node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [
        f"{path.name}:{line}: {module}.{name}"
        for module, name, line in qnnkit_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
