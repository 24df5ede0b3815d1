"""Tests of the benchmark's own arithmetic and data path.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import synth
import tracing
from qnnkit import data
from tracing import Span


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "a.inner", 1, 2.0, 3.0),
        Span(3, "b", 0, 5.0, 6.5),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 3.0 - 1.5, 1: 2.0, 2: 1.0, 3: 1.5})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "x", 0, 1.0, 5.0),
        Span(2, "y", 0, 3.0, 7.0),  # overlaps x on [3, 5]
        Span(3, "z", 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_handles_nested_and_disjoint_intervals():
    assert tracing.covered([(0, 4), (1, 2), (6, 7)], 0, 10) == pytest.approx(5.0)
    assert tracing.covered([], 0, 10) == 0.0


def test_totals_by_name_sums_durations_and_self_times():
    spans = [
        Span(0, "outer", None, 0.0, 3.0),
        Span(1, "inner", 0, 0.5, 1.5, sys_s=0.25),
        Span(2, "outer", None, 4.0, 5.0),
    ]
    total, own, sys_cpu = tracing.totals_by_name(spans)
    assert total["outer"] == pytest.approx(4.0)
    assert own["outer"] == pytest.approx(3.0)
    assert total["inner"] == own["inner"] == pytest.approx(1.0)
    assert sys_cpu == {"inner": 0.25}


def test_tracer_records_parents_counts_and_restores_originals():
    module = types.SimpleNamespace()
    module.outer = lambda x: module.inner(x) + 1
    module.inner = lambda x: 2 * x
    original_inner = module.inner

    tracer = tracing.Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", lambda t, args, result: t.counts.update(work=args[0]))
    assert module.outer(3) == 7
    with tracer.pause():
        module.outer(5)
    tracer.uninstall()
    module.outer(1)

    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counts == {"calls:outer": 1, "calls:inner": 1, "work": 3}
    assert module.inner is original_inner


def test_synthetic_idx_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    images, labels = synth.synthetic_digits(rng, synth.class_prototypes(rng), per_class=3)
    assert images.shape == (30, 28, 28) and images.dtype == np.uint8
    assert np.bincount(labels).tolist() == [3] * 10
    ipath, lpath = tmp_path / "i.gz", tmp_path / "l.gz"
    data.write_idx(ipath, lpath, images, labels)
    ds = data.load_idx(ipath, lpath)
    np.testing.assert_array_equal(np.rint(ds.images * 255).astype(np.uint8), images.reshape(30, -1))
    np.testing.assert_array_equal(ds.labels, labels)


def test_synthetic_mnist_reads_back_through_mnist_task_and_is_marked(tmp_path):
    directory = synth.write_synthetic_mnist(tmp_path, seed=3, train_per_class=4, test_per_class=2)
    assert "synthetic" in (directory / "SOURCE.txt").read_text()
    train, test = data.mnist_task([0, 3, 6, 9], 8, directory)
    assert train.images.shape == (16, 64) and test.images.shape == (8, 64)
    np.testing.assert_allclose(np.linalg.norm(train.images, axis=1), 1.0)
    again = synth.write_synthetic_mnist(tmp_path / "again", seed=3, train_per_class=4, test_per_class=2)
    np.testing.assert_array_equal(data.mnist_task([0, 3, 6, 9], 8, again)[0].images, train.images)
