"""Synthetic MNIST-shaped digits, written as the four MNIST IDX files.

MNIST itself is not needed to time the trainer: what the code paths see
is 28x28 byte images with digit labels 0-9, read back through
``qnnkit.data.mnist_task``. Each digit class gets a prototype made of a
few Gaussian strokes inside the centre crop that ``data.downsample``
keeps; every image is its class prototype shifted by up to two pixels,
scaled in intensity and multiplied by pixel noise, on an exactly zero
background. The directory gets a SOURCE.txt saying the files are
synthetic, so no number produced from them can be mistaken for an MNIST
result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from qnnkit import data

SIDE = 28
STROKES_PER_CLASS = 4
MAX_SHIFT = 2
BACKGROUND = 0.05


def class_prototypes(rng: np.random.Generator) -> np.ndarray:
    """One (28, 28) template in [0, 1] per digit, strokes inside the centre."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    prototypes = np.zeros((10, SIDE, SIDE))
    for digit in range(10):
        for cy, cx in rng.uniform(8.0, 20.0, size=(STROKES_PER_CLASS, 2)):
            prototypes[digit] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 12.5)
        prototypes[digit] /= prototypes[digit].max()
    return prototypes


def synthetic_digits(
    rng: np.random.Generator, prototypes: np.ndarray, per_class: int
) -> tuple[np.ndarray, np.ndarray]:
    """``per_class`` images of each digit 0-9 as (n, 28, 28) uint8, plus labels."""
    labels = rng.permutation(np.repeat(np.arange(10), per_class))
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(len(labels), 2))
    # np.roll of each prototype by its shift, as one gather
    rows = (np.arange(SIDE)[None, :] - shifts[:, :1]) % SIDE
    cols = (np.arange(SIDE)[None, :] - shifts[:, 1:]) % SIDE
    images = prototypes.astype(np.float32)[labels[:, None, None], rows[:, :, None], cols[:, None, :]]
    images *= rng.uniform(0.6, 1.0, size=(len(labels), 1, 1)).astype(np.float32)
    noise = rng.standard_normal(size=images.shape, dtype=np.float32)
    images *= 1.0 + 0.1 * noise
    images[images < BACKGROUND] = 0.0  # MNIST backgrounds are exactly zero
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_synthetic_mnist(
    directory, seed: int, train_per_class: int = 400, test_per_class: int = 100
) -> Path:
    """Write train and test IDX files plus a SOURCE.txt marker into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    prototypes = class_prototypes(rng)
    for images_name, labels_name, per_class in (
        (data.TRAIN_IMAGES, data.TRAIN_LABELS, train_per_class),
        (data.TEST_IMAGES, data.TEST_LABELS, test_per_class),
    ):
        images, labels = synthetic_digits(rng, prototypes, per_class)
        data.write_idx(
            directory / (images_name + ".gz"), directory / (labels_name + ".gz"), images, labels
        )
    (directory / "SOURCE.txt").write_text(
        f"synthetic MNIST-shaped digits (perfbench, seed {seed}); not MNIST: "
        f"{train_per_class} train / {test_per_class} test images per digit\n"
    )
    return directory
