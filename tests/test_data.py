"""Data pipeline tests: IDX parsing, subsetting, pooling, preparation."""

import gzip
import struct

import numpy as np
import pytest

from qnnkit.data import (
    Dataset,
    IdxFormatError,
    downsample,
    load_idx,
    load_mnist,
    make_xor_dataset,
    prepare,
    select_subset,
    write_idx,
)


@pytest.fixture
def idx_pair(tmp_path):
    """A small synthetic IDX image/label pair on disk."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=np.uint8)
    ipath = tmp_path / "imgs-idx3-ubyte.gz"
    lpath = tmp_path / "labels-idx1-ubyte.gz"
    write_idx(ipath, lpath, images, labels)
    return ipath, lpath, images, labels


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------


def test_idx_round_trip(idx_pair):
    ipath, lpath, images, labels = idx_pair
    ds = load_idx(ipath, lpath)
    assert ds.images.shape == (10, 784)
    np.testing.assert_allclose(ds.images, images.reshape(10, 784) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_bad_magic_is_reported_with_observed_value(tmp_path):
    path = tmp_path / "bad-idx3-ubyte"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    lpath = tmp_path / "labels-idx1-ubyte"
    lpath.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="0xdeadbeef"):
        load_idx(path, lpath)
    good = tmp_path / "imgs-idx3-ubyte"
    good.write_bytes(struct.pack(">IIII", 0x00000803, 1, 2, 2) + b"\x00" * 4)
    lpath.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00")  # the image magic
    with pytest.raises(IdxFormatError, match="bad label magic 0x00000803"):
        load_idx(good, lpath)


def test_truncated_file_is_detected(tmp_path):
    ipath = tmp_path / "imgs-idx3-ubyte"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\x00" * 100)
    lpath = tmp_path / "labels-idx1-ubyte"
    lpath.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(ipath, lpath)
    # a header whose byte count no read size can hold is a truncation too
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, *[0xFFFFFFFF] * 3))
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(ipath, lpath)


def test_count_mismatch_is_detected(tmp_path):
    ipath = tmp_path / "imgs-idx3-ubyte"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 8)
    lpath = tmp_path / "labels-idx1-ubyte"
    lpath.write_bytes(struct.pack(">II", 0x00000801, 3) + b"\x00\x01\x02")
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(ipath, lpath)


def test_plain_and_gzip_files_both_load(idx_pair, tmp_path):
    ipath, lpath, images, labels = idx_pair
    raw_i = tmp_path / "plain-idx3-ubyte"
    raw_l = tmp_path / "plain-idx1-ubyte"
    raw_i.write_bytes(gzip.decompress(ipath.read_bytes()))
    raw_l.write_bytes(gzip.decompress(lpath.read_bytes()))
    a = load_idx(ipath, lpath)
    b = load_idx(raw_i, raw_l)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_written_gzip_header_says_fastest_level(idx_pair):
    # XFL, byte 8 of the gzip header: 4 is "fastest" (level 1), level 9 writes 2
    ipath, lpath, _, _ = idx_pair
    assert ipath.read_bytes()[8] == 4
    assert lpath.read_bytes()[8] == 4


@pytest.mark.parametrize("keep", ["half", "no-trailer"])
def test_truncated_gzip_is_an_idx_format_error(idx_pair, keep):
    # without its 8-byte CRC-32/length trailer the payload still decompresses
    # in full, so only a read to the end of the stream notices the cut
    ipath, lpath, _, _ = idx_pair
    blob = ipath.read_bytes()
    ipath.write_bytes(blob[: len(blob) // 2] if keep == "half" else blob[:-8])
    with pytest.raises(IdxFormatError, match=f"{ipath.name}: corrupt gzip stream"):
        load_idx(ipath, lpath)


def test_bit_flipped_gzip_payload_is_caught_by_the_crc(idx_pair):
    # a stored (level 0) block holds the labels verbatim, so the flipped bit
    # decompresses cleanly into a wrong label; only the CRC-32 trailer tells
    ipath, lpath, _, labels = idx_pair
    raw = struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()
    blob = bytearray(gzip.compress(raw, compresslevel=0, mtime=0))
    blob[blob.index(labels.tobytes()) + 3] ^= 0x01
    lpath.write_bytes(bytes(blob))
    with pytest.raises(IdxFormatError, match=f"{lpath.name}: corrupt gzip stream"):
        load_idx(ipath, lpath)


def test_every_single_bit_flip_of_a_gzip_file_fails_or_loads_unchanged(idx_pair):
    ipath, lpath, _, labels = idx_pair
    blob = lpath.read_bytes()
    for offset in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << bit
            lpath.write_bytes(bytes(flipped))
            try:
                ds = load_idx(ipath, lpath)
            except IdxFormatError:
                continue
            np.testing.assert_array_equal(ds.labels, labels, err_msg=f"byte {offset} bit {bit}")


@pytest.mark.parametrize("gz", [False, True])
def test_trailing_bytes_after_the_payload_are_rejected(tmp_path, gz):
    lpath = tmp_path / "labels-idx1-ubyte"
    raw = struct.pack(">II", 0x00000801, 2) + b"\x00\x01" + b"\x00"
    if gz:
        lpath = lpath.with_suffix(".gz")
        raw = gzip.compress(raw)
    lpath.write_bytes(raw)
    ipath = tmp_path / "imgs-idx3-ubyte"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 8)
    with pytest.raises(IdxFormatError, match="trailing data: 1 bytes after the 2-byte payload"):
        load_idx(ipath, lpath)


# ---------------------------------------------------------------------------
# subsetting
# ---------------------------------------------------------------------------


def make_toy_dataset():
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(10), 20)
    images = rng.uniform(0, 1, size=(200, 16))
    return Dataset(images, labels)


def test_select_two_classes_relabels_by_position():
    toy = make_toy_dataset()
    ds = select_subset(toy, [3, 6])
    assert set(ds.labels) == {0, 1}
    assert len(ds) == 40
    assert ds.images.shape == (40, 16)
    np.testing.assert_array_equal(ds.images[ds.labels == 0], toy.images[toy.labels == 3])
    np.testing.assert_array_equal(ds.images[ds.labels == 1], toy.images[toy.labels == 6])


def test_select_preserves_per_class_counts():
    ds = select_subset(make_toy_dataset(), [0, 3, 6, 9])
    counts = np.bincount(ds.labels)
    np.testing.assert_array_equal(counts, [20, 20, 20, 20])


def test_empty_class_list_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        select_subset(make_toy_dataset(), [])


def test_duplicate_classes_rejected():
    with pytest.raises(ValueError, match="distinct"):
        select_subset(make_toy_dataset(), [3, 3])


# ---------------------------------------------------------------------------
# downsampling
# ---------------------------------------------------------------------------


def pool_one(image: np.ndarray, target: int) -> np.ndarray:
    """``downsample`` of a one-image dataset, as a target x target array."""
    ds = Dataset(np.asarray(image, dtype=float).reshape(1, 784), np.zeros(1, dtype=int))
    out = downsample(ds, target)
    assert out.images.shape == (1, target * target)
    return out.images[0].reshape(target, target)


def test_constant_image_stays_constant():
    for k in (4, 8, 16):
        out = pool_one(np.full((28, 28), 0.7), k)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)


def test_all_zero_image_stays_zero():
    np.testing.assert_array_equal(pool_one(np.zeros((28, 28)), 4), 0.0)


def test_checkerboard_tile_means():
    # Hand oracle: count the dark cells of each 7x7 tile of an alternating
    # pattern. Tiles whose top-left corner has even parity hold 24 ones of
    # 49 cells, odd parity holds 25.
    board = np.fromfunction(lambda i, j: (i + j) % 2, (28, 28))
    expected = np.empty((4, 4))
    for ti in range(4):
        for tj in range(4):
            tile = board[7 * ti : 7 * ti + 7, 7 * tj : 7 * tj + 7]
            expected[ti, tj] = tile.sum() / 49.0
    assert expected[0, 0] == pytest.approx(24 / 49)
    assert expected[0, 1] == pytest.approx(25 / 49)
    np.testing.assert_allclose(pool_one(board, 4), expected, atol=1e-12)


def test_pooling_is_mean_preserving_over_the_crop():
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, size=(3, 28, 28))
    ds = Dataset(images.reshape(3, 784), np.zeros(3, dtype=int))
    for k, crop in ((4, 28), (8, 24), (16, 16)):
        off = (28 - crop) // 2
        # each row must pool its own image, not a mix of the batch
        for image, pooled in zip(images, downsample(ds, k).images):
            cropped = image[off : off + crop, off : off + crop]
            assert pooled.mean() == pytest.approx(cropped.mean(), abs=1e-12)
            assert pooled.max() <= image.max() + 1e-12


def test_unsupported_resolution():
    with pytest.raises(ValueError, match="unsupported target"):
        pool_one(np.zeros((28, 28)), 5)


def test_downsample_rejects_images_that_are_not_28x28():
    ds = Dataset(np.zeros((2, 256)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="784-pixel source images, got 256"):
        downsample(ds, 4)


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------


def test_amplitude_prepare_gives_unit_rows_along_each_image():
    rng = np.random.default_rng(11)
    ds = Dataset(rng.uniform(0, 1, size=(6, 16)), np.arange(6))
    out = prepare(ds)
    assert out.images.shape == (6, 16)
    np.testing.assert_allclose(np.linalg.norm(out.images, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        out.images * np.linalg.norm(ds.images, axis=1)[:, None], ds.images, atol=1e-12
    )
    np.testing.assert_array_equal(out.labels, ds.labels)


def test_zero_image_falls_back_to_uniform_vector(caplog):
    ds = Dataset(np.zeros((1, 4)), np.zeros(1, dtype=int))
    with caplog.at_level("WARNING", logger="qnnkit.data"):
        out = prepare(ds)
    np.testing.assert_allclose(out.images[0], 0.5)
    assert "all-zero" in caplog.text


# ---------------------------------------------------------------------------
# synthetic XOR
# ---------------------------------------------------------------------------


def test_xor_dataset_shape_and_labels():
    ds = make_xor_dataset(n=200, seed=1)
    assert ds.images.shape == (200, 4)
    assert set(np.unique(ds.labels)) <= {0, 1}
    # complement embedding: columns 2,3 mirror columns 0,1
    np.testing.assert_allclose(ds.images[:, 2:], 1.0 - ds.images[:, :2], atol=1e-12)
    # labels actually follow XOR of the quadrants
    quad = (ds.images[:, :2] > 0.5).astype(int)
    np.testing.assert_array_equal(ds.labels, quad[:, 0] ^ quad[:, 1])


# ---------------------------------------------------------------------------
# MNIST cache + fallback subset
# ---------------------------------------------------------------------------

mlxtend_missing = False
try:
    import mlxtend.data  # noqa: F401
except ImportError:
    mlxtend_missing = True


@pytest.mark.skipif(mlxtend_missing, reason="mlxtend subset source not installed")
def test_subset_materialization_round_trip(tmp_path):
    train = load_mnist(tmp_path, "train")
    test = load_mnist(tmp_path, "test")
    assert len(train) == 4000
    assert len(test) == 1000
    np.testing.assert_array_equal(np.bincount(train.labels), [400] * 10)
    np.testing.assert_array_equal(np.bincount(test.labels), [100] * 10)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    assert (tmp_path / "SOURCE.txt").exists()


@pytest.mark.skipif(mlxtend_missing, reason="mlxtend subset source not installed")
def test_subset_split_is_deterministic(tmp_path):
    a = load_mnist(tmp_path / "one", "train")
    b = load_mnist(tmp_path / "two", "train")
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_missing_files_error_mentions_env_var(tmp_path, monkeypatch):
    import qnnkit.data as data_mod

    monkeypatch.setattr(data_mod, "_materialize_subset", lambda d: False)
    with pytest.raises(FileNotFoundError, match="QNNKIT_DATA_DIR"):
        load_mnist(tmp_path / "nowhere", "train")
