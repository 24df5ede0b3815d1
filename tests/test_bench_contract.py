"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/worker.py`` looks up the functions and methods it traces by
name (``model.build_network_circuit``, ``StateVector.marginal_prob_one``,
...). Renaming or deleting one of them breaks every ``--trace 1`` run
with an ``AttributeError``; this test installs both span sets on a
tracer, then uninstalls them, so that such a change fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))  # worker.py imports its siblings synth and tracing
    spec = importlib.util.spec_from_file_location("worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def attributes(worker) -> dict:
    """Every attribute of the modules and the class the tracer may patch, by (owner, name)."""
    owners = (worker.data, worker.arch, worker.rules, worker.model, worker.statevec.StateVector)
    return {
        (owner.__name__.rsplit(".", 1)[-1], name): value
        for owner in owners
        for name, value in vars(owner).items()
    }


def test_both_span_sets_install_and_uninstall_cleanly(worker):
    before = attributes(worker)
    tracer = worker.tracing.Tracer()
    try:
        worker.install_setup_spans(tracer)
        worker.install_step_spans(tracer)
        during = attributes(worker)
    finally:
        tracer.uninstall()
    after = attributes(worker)

    wrapped = {key for key, value in during.items() if value is not before.get(key)}
    assert {("model", "build_network_circuit"), ("StateVector", "marginal_prob_one")} <= wrapped
    assert all(during[key].__wrapped__ is before[key] for key in wrapped)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
