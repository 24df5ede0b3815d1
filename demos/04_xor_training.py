#!/usr/bin/env python3
"""Training on the XOR blobs: linearity, readout, and what actually fails.

The folklore says a variational-only network cannot learn XOR because its
gates are linear. The full story is subtler: the measurement readout
|amplitude|^2 is quadratic, and a trained v-only network does separate
XOR blobs through it. What the mixed architecture buys is per-layer
nonlinearity that compounds with depth, not the only route to XOR.
This script trains all three and prints what happens.
"""

from qnnkit.arch import from_kinds
from qnnkit.data import make_xor_dataset
from qnnkit.model import TrainConfig, accuracy, init_parameters, train

train_ds = make_xor_dataset(n=240, seed=1)
test_ds = make_xor_dataset(n=120, seed=2)
config = TrainConfig(epochs=120, batch_size=16, lr=0.05, temperature=0.1, seed=3)

candidates = [
    ("v-only (r=2)", from_kinds(4, 2, "v", repeat=2)),
    ("v+u", from_kinds(4, 2, "vu", repeat=2)),
    ("v+u+n+p", from_kinds(4, 2, "vunp", repeat=2)),
]

print(f"XOR blobs: {len(train_ds)} train / {len(test_ds)} test, shared config")
for name, arch in candidates:
    params, metrics = train(
        arch, init_parameters(arch, config.seed),
        train_ds.images, train_ds.labels, config,
    )
    acc = accuracy(arch, params, test_ds.images, test_ds.labels)
    print(f"  {name:14s} test accuracy {acc:.3f}")

print()
print("note: the v-only result exceeds naive expectations because class")
print("probabilities are quadratic in the encoded amplitudes; a rank-2")
print("difference of squares already separates any two-bit XOR layout.")
