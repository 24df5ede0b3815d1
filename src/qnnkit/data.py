"""Dataset ingestion: IDX parsing, class subsets, downsampling, encoding prep.

MNIST ships as four IDX files (big-endian magic + dimension header +
unsigned bytes). ``load_mnist`` looks for them in the cache directory
(``QNNKIT_DATA_DIR`` or ``~/.cache/qnnkit/mnist``), reading ``.gz``
variants transparently. Each file is read whole, once, and its header
and payload are taken from those bytes: a file shorter than its header,
a payload shorter or longer than the header declares, and a ``.gz``
whose CRC-32/length trailer does not match, raise ``IdxFormatError``.
``write_idx`` writes at gzip level 1. When the files are absent and the
optional ``mlxtend`` dependency is importable, a balanced 5000-image
subset of MNIST bundled with that package is materialized into real IDX
files and used instead -- smaller than the full 60k/10k distribution,
but byte-real MNIST through the same loader. With neither, ``load_mnist``
raises ``FileNotFoundError``. Drop the official files into the cache
directory to run at full scale.
"""

from __future__ import annotations

import gzip
import logging
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoding import normalize_rows

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "QNNKIT_DATA_DIR"

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

# Deterministic train/test split of the bundled 5000-image subset.
_SUBSET_SEED = 20260810
_SUBSET_TEST_PER_CLASS = 100


class IdxFormatError(ValueError):
    """Malformed IDX file."""


@dataclass
class Dataset:
    """Flat image vectors in [0, 1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.images)


# ---------------------------------------------------------------------------
# IDX parsing / writing
# ---------------------------------------------------------------------------


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int, kind: str, dims: int) -> np.ndarray:
    """The byte payload of one IDX file, shaped as its header says.

    The file is read whole, once, and the header and payload are taken
    from those bytes: a file shorter than its header, or a payload longer
    or shorter than the header declares, is an error. A ``.gz`` stream is
    decompressed through its CRC-32/length trailer, so gzip checks it.
    """
    try:
        with _open_maybe_gzip(path) as fh:
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip stream ({exc})") from None
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise IdxFormatError(
            f"{path}: truncated while reading the header "
            f"(wanted {header} bytes, got {len(raw)})"
        )
    found, *shape = struct.unpack_from(f">{1 + dims}I", raw)
    if found != magic:
        raise IdxFormatError(f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
    count = math.prod(shape)
    size = len(raw) - header
    if size < count:
        raise IdxFormatError(
            f"{path}: truncated while reading {kind}s "
            f"(wanted {count} bytes, got {size})"
        )
    if size > count:
        raise IdxFormatError(
            f"{path}: trailing data: {size - count} bytes after "
            f"the {count}-byte payload the header declares"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Pixels are scaled to [0, 1]; images come out flattened, rows * cols wide.
    """
    labels = _read_idx(labels_path, LABELS_MAGIC, "label", 1).astype(int)
    images = _read_idx(images_path, IMAGES_MAGIC, "image", 3)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"{images_path}: count mismatch: {len(images)} images vs "
            f"{len(labels)} labels in {labels_path}"
        )
    n, rows, cols = images.shape
    return Dataset(images.reshape(n, rows * cols) / 255.0, labels)


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write byte images (n, rows, cols) and labels as gzip'd IDX files.

    Level 1: the files are about 8% larger than at gzip's default
    level 9, and written about ten times faster.
    """
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with gzip.open(images_path, "wb", compresslevel=1) as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with gzip.open(labels_path, "wb", compresslevel=1) as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, n))
        fh.write(labels.tobytes())


# ---------------------------------------------------------------------------
# MNIST resolution
# ---------------------------------------------------------------------------


def default_data_dir() -> Path:
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qnnkit" / "mnist"


def _resolve(directory: Path, name: str) -> Path | None:
    for candidate in (directory / name, directory / (name + ".gz")):
        if candidate.exists():
            return candidate
    return None


def _materialize_subset(directory: Path) -> bool:
    """Write IDX files from mlxtend's bundled 5000-image MNIST subset."""
    try:
        from mlxtend.data import mnist_data
    except ImportError:
        return False
    X, y = mnist_data()  # (5000, 784) floats 0..255, 500 per digit
    X = X.reshape(-1, 28, 28).astype(np.uint8)
    y = y.astype(np.uint8)

    rng = np.random.default_rng(_SUBSET_SEED)
    test_idx = []
    for digit in range(10):
        members = np.flatnonzero(y == digit)
        test_idx.extend(rng.permutation(members)[:_SUBSET_TEST_PER_CLASS])
    test_mask = np.zeros(len(y), dtype=bool)
    test_mask[test_idx] = True

    directory.mkdir(parents=True, exist_ok=True)
    write_idx(
        directory / (TRAIN_IMAGES + ".gz"),
        directory / (TRAIN_LABELS + ".gz"),
        X[~test_mask],
        y[~test_mask],
    )
    write_idx(
        directory / (TEST_IMAGES + ".gz"),
        directory / (TEST_LABELS + ".gz"),
        X[test_mask],
        y[test_mask],
    )
    (directory / "SOURCE.txt").write_text(
        "Materialized from the mlxtend 5000-image MNIST subset "
        "(500 per digit), split 4000 train / 1000 test with seed "
        f"{_SUBSET_SEED}. Replace these files with the official MNIST "
        "IDX files to run at full scale.\n"
    )
    logger.warning(
        "full MNIST not found in %s; using the bundled 5000-image subset", directory
    )
    return True


def load_mnist(data_dir=None, split: str = "train") -> Dataset:
    """Load an MNIST split from the cache directory (materializing if needed)."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    directory = Path(data_dir) if data_dir else default_data_dir()
    names = (TRAIN_IMAGES, TRAIN_LABELS) if split == "train" else (TEST_IMAGES, TEST_LABELS)
    paths = [_resolve(directory, n) for n in names]
    if not all(paths):
        if not _materialize_subset(directory):
            raise FileNotFoundError(
                f"MNIST IDX files not found in {directory} and the optional "
                f"mlxtend fallback is not installed. Either place "
                f"{TRAIN_IMAGES}[.gz] etc. there (set ${DATA_DIR_ENV} to change "
                f"the location) or `pip install qnnkit[mnist]`."
            )
        paths = [_resolve(directory, n) for n in names]
    return load_idx(paths[0], paths[1])


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def select_subset(ds: Dataset, classes) -> Dataset:
    """Keep only ``classes``, relabelled to 0..k-1 by list position."""
    classes = list(classes)
    if not classes:
        raise ValueError("class list must be non-empty")
    if len(set(classes)) != len(classes):
        raise ValueError(f"classes must be distinct, got {classes}")
    if any(c < 0 or c > 9 for c in classes):
        raise ValueError(f"classes must be digits 0..9, got {classes}")
    mask = np.isin(ds.labels, classes)
    remap = {c: i for i, c in enumerate(classes)}
    labels = np.array([remap[c] for c in ds.labels[mask]], dtype=int)
    return Dataset(ds.images[mask], labels)


CROP_FOR = {4: 28, 8: 24, 16: 16}  # each supported resolution: its center crop


def downsample(ds: Dataset, target: int) -> Dataset:
    """Average-pool every image of a 28x28 dataset to target x target.

    28 is not divisible by 8 or 16, so those targets first center-crop to
    the largest divisible square (24 and 16). Output stays in [0, 1].
    """
    if target not in CROP_FOR:
        raise ValueError(f"unsupported target resolution {target}, pick one of {list(CROP_FOR)}")
    if ds.images.shape[1] != 784:
        raise ValueError(
            f"downsample expects 28x28 = 784-pixel source images, got {ds.images.shape[1]}"
        )
    images = ds.images.reshape(-1, 28, 28)
    crop = CROP_FOR[target]
    off = (28 - crop) // 2
    cropped = images[:, off : off + crop, off : off + crop]
    tile = crop // target
    pooled = cropped.reshape(-1, target, tile, target, tile).mean(axis=(2, 4))
    return Dataset(pooled.reshape(len(ds.images), target * target), ds.labels.copy())


def prepare(ds: Dataset) -> Dataset:
    """Make vectors model-ready for amplitude encoding.

    L2-normalizes each row; an all-zero image becomes the uniform unit
    vector and is logged. The walkers normalize every row again, so
    this fixes only the scale of the rows ``mnist_task`` returns.
    """
    images = np.asarray(ds.images, dtype=float)
    zero_rows = np.linalg.norm(images, axis=1) == 0
    if zero_rows.any():
        logger.warning("%d all-zero image(s) replaced by the uniform vector", zero_rows.sum())
        images = np.where(zero_rows[:, None], 1.0, images)
    return Dataset(normalize_rows(images), ds.labels.copy())


def mnist_task(
    classes, resolution: int, data_dir=None
) -> tuple[Dataset, Dataset]:
    """Convenience pipeline: load, subset, downsample, amplitude-prepare."""
    out = []
    for split in ("train", "test"):
        ds = load_mnist(data_dir, split)
        ds = select_subset(ds, classes)
        ds = downsample(ds, resolution)
        out.append(prepare(ds))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


_XOR_SPREAD = 0.08  # standard deviation of each blob around its corner


def make_xor_dataset(n: int = 300, seed: int = 0) -> Dataset:
    """Two-class XOR blobs embedded for amplitude encoding.

    Points cluster near the four corners of [0, 1]^2; the label is the
    XOR of the corner coordinates. Each point (u, v) is embedded as
    (u, v, 1-u, 1-v), which keeps the complement information that plain
    normalization would otherwise destroy.
    """
    rng = np.random.default_rng(seed)
    corners = rng.integers(0, 2, size=(n, 2))
    centers = np.where(corners == 1, 0.85, 0.15)
    uv = np.clip(centers + rng.normal(0.0, _XOR_SPREAD, size=(n, 2)), 0.0, 1.0)
    images = np.concatenate([uv, 1.0 - uv], axis=1)
    labels = (corners[:, 0] ^ corners[:, 1]).astype(int)
    return Dataset(images, labels)
