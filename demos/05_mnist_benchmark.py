#!/usr/bin/env python3
"""Architecture comparison on MNIST subsets (the headline table).

Runs each architecture family on MNIST-2 {3,6} at 4x4 and MNIST-4
{0,3,6,9} at 8x8 under a small configuration menu, reporting the best
test accuracy per architecture. Uses full MNIST when the IDX files are
in the cache directory, otherwise the bundled 5000-image subset.
"""

from qnnkit.arch import from_kinds
from qnnkit.data import mnist_task
from qnnkit.model import TrainConfig, accuracy, init_parameters, train

DEFAULT = TrainConfig(seed=0)
P_TUNED = TrainConfig(epochs=80, lr=0.01, temperature=1e-3, lr_decay=0.97,
                      keep_best=True, seed=0)

TASKS = [
    ("mnist-2 {3,6} 4x4", [3, 6], 4, 16, 2),
    ("mnist-4 {0,3,6,9} 8x8", [0, 3, 6, 9], 8, 64, 4),
]


def best_accuracy(arch, tr, te):
    best = 0.0
    for cfg in (DEFAULT, P_TUNED):
        params, _ = train(arch, init_parameters(arch, cfg.seed),
                          tr.images, tr.labels, cfg, te.images, te.labels)
        best = max(best, accuracy(arch, params, te.images, te.labels))
    return best


for label, classes, resolution, dim, k in TASKS:
    tr, te = mnist_task(classes, resolution)
    print(f"\n{label}  ({len(tr)} train / {len(te)} test)")
    rows = [
        ("vqc (v*2)", from_kinds(dim, k, "v", repeat=2)),
        ("v+u (r=2)", from_kinds(dim, k, "vu", repeat=2)),
        ("v+u+n+p", from_kinds(dim, k, "vunp", repeat=2, hidden=8)),
        ("v+n+p", from_kinds(dim, k, "vnp", repeat=2)),
    ]
    for name, arch in rows:
        print(f"  {name:12s} best test accuracy {best_accuracy(arch, tr, te):.4f}")
