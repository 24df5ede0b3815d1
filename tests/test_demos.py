"""The quick demos run to completion.

Each demo runs as its own process, the way a reader would start it, and
must exit 0. These five call the simulator, the neuron closed forms, the
compiled circuit and the trainer (``04_xor_training.py``, about 1.3 s on
a 2-core machine; the others well under a second each). Left out:
``05_mnist_benchmark.py`` / ``06_depth_sweep.py`` (they need MNIST).
"""

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
