"""Dataset parsing, serialization round trips, input encoding."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst.data import Dataset, encode_direct, load_cifar10_bin, load_mnist_idx
from spikefirst.errors import ConsistencyError, FormatError, ParameterError

from conftest import MNIST_DIR, needs_mnist, save_mnist_idx


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   label_count=None):
    n, rows, cols = images.shape
    ip = tmp_path / "imgs"
    lp = tmp_path / "lbls"
    with open(ip, "wb") as f:
        f.write(struct.pack(">4i", image_magic, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">2i", label_magic,
                            len(labels) if label_count is None else label_count))
        f.write(labels.astype(np.uint8).tobytes())
    return ip, lp


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    labels = np.array([0, 3, 9, 1, 7], dtype=np.uint8)
    return write_idx_pair(tmp_path, images, labels), images, labels


def test_idx_parse_and_normalize(idx_pair):
    (ip, lp), images, labels = idx_pair
    ds = load_mnist_idx(ip, lp, split="train")
    assert ds.images.shape == (5, 1, 28, 28)
    assert ds.images.dtype == np.float64
    assert np.array_equal(ds.images[:, 0] * 255.0, images.astype(np.float64))
    assert np.array_equal(ds.labels, labels)
    assert len(ds) == 5 and ds.labels[1] == 3


def test_idx_round_trip(idx_pair, tmp_path):
    (ip, lp), _, _ = idx_pair
    ds = load_mnist_idx(ip, lp)
    save_mnist_idx(ds, tmp_path / "i2", tmp_path / "l2")
    assert (tmp_path / "i2").read_bytes() == ip.read_bytes()
    assert (tmp_path / "l2").read_bytes() == lp.read_bytes()


def test_idx_bad_image_magic(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels, image_magic=0x123)
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


def test_idx_bad_label_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8), label_magic=0x999)
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


def test_idx_wrong_image_size(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 14, 14), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8))
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8), label_count=2)
    with pytest.raises(ConsistencyError):
        load_mnist_idx(ip, lp)


def test_idx_truncated_images(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8),
                            np.zeros(3, dtype=np.uint8))
    raw = ip.read_bytes()
    ip.write_bytes(raw[:-100])
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


def test_idx_label_out_of_range(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.array([1, 12], dtype=np.uint8))
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


@pytest.mark.parametrize("which,count", [("images", 2**31 - 1), ("images", -1),
                                          ("labels", 2**31 - 1), ("labels", -5)])
def test_idx_declared_count_beyond_file_raises_format_error(tmp_path, which, count):
    # a count past the file's size fails before any read is attempted (a
    # 2^31-1 image count would otherwise ask for a ~1.6 TB buffer)
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8))
    path = ip if which == "images" else lp
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack(">i", count)     # the count follows the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_mnist_idx(ip, lp)


@pytest.fixture(scope="module")
def idx_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx_fuzz")


@given(image_header=st.binary(min_size=16, max_size=16),
       label_header=st.binary(min_size=8, max_size=8),
       use_magic=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fuzzed_idx_headers_raise_only_documented_errors(idx_fuzz_dir, image_header,
                                                         label_header, use_magic):
    # random headers on 3 valid images: loading succeeds or raises FormatError
    # or ConsistencyError (both exit 3 in the CLI), never another exception
    if use_magic:   # reach the count checks, not just the magic check
        image_header = struct.pack(">i", 0x803) + image_header[4:8] + struct.pack(">2i", 28, 28)
        label_header = struct.pack(">i", 0x801) + label_header[4:]
    ip, lp = idx_fuzz_dir / "imgs", idx_fuzz_dir / "lbls"
    ip.write_bytes(image_header + bytes(3 * 784))
    lp.write_bytes(label_header + bytes([1, 2, 3]))
    try:
        load_mnist_idx(ip, lp)
    except (FormatError, ConsistencyError):
        pass


@needs_mnist
def test_real_mnist_train_split():
    ds = load_mnist_idx(MNIST_DIR / "train-images-idx3-ubyte",
                        MNIST_DIR / "train-labels-idx1-ubyte")
    assert len(ds) == 60000
    assert ds.images.shape == (60000, 1, 28, 28)
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0
    # the well-known global mean of normalized MNIST
    assert ds.images.mean() == pytest.approx(0.1307, abs=2e-3)
    assert set(np.unique(ds.labels)) == set(range(10))


@needs_mnist
def test_real_mnist_test_split():
    ds = load_mnist_idx(MNIST_DIR / "t10k-images-idx3-ubyte",
                        MNIST_DIR / "t10k-labels-idx1-ubyte", split="test")
    assert len(ds) == 10000


def make_cifar_batch(path, n, seed):
    rng = np.random.default_rng(seed)
    rec = np.empty((n, 3073), dtype=np.uint8)
    rec[:, 0] = rng.integers(0, 10, size=n)
    rec[:, 1:] = rng.integers(0, 256, size=(n, 3072))
    path.write_bytes(rec.tobytes())
    return rec


def test_cifar_parse_and_standardize(tmp_path):
    p1 = tmp_path / "b1.bin"
    p2 = tmp_path / "b2.bin"
    r1 = make_cifar_batch(p1, 40, 1)
    r2 = make_cifar_batch(p2, 30, 2)
    ds, stats = load_cifar10_bin([p1, p2])
    assert ds.images.shape == (70, 3, 32, 32)
    assert np.array_equal(ds.labels, np.concatenate([r1[:, 0], r2[:, 0]]))
    # per-channel standardization against the loaded split's own stats
    assert np.allclose(ds.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(ds.images.std(axis=(0, 2, 3)), 1.0, atol=1e-10)


def test_cifar_test_split_reuses_train_stats(tmp_path):
    p1 = tmp_path / "train.bin"
    p2 = tmp_path / "test.bin"
    make_cifar_batch(p1, 50, 3)
    make_cifar_batch(p2, 20, 4)
    _, stats = load_cifar10_bin(p1)
    test_ds, stats2 = load_cifar10_bin(p2, split="test", stats=stats)
    assert stats2 is stats
    # standardized with foreign stats, so not exactly zero mean
    assert not np.allclose(test_ds.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)


def test_cifar_bad_record_size(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 5000)
    with pytest.raises(FormatError):
        load_cifar10_bin(p)


def test_cifar_label_out_of_range(tmp_path):
    p = tmp_path / "bad.bin"
    rec = np.zeros((2, 3073), dtype=np.uint8)
    rec[1, 0] = 11
    p.write_bytes(rec.tobytes())
    with pytest.raises(FormatError):
        load_cifar10_bin(p)


@pytest.mark.parametrize("channel,records", [(0, 3), (1, 3), (2, 3), (0, 1)])
def test_cifar_constant_channel_raises_format_error(tmp_path, channel, records):
    # a zero-variance channel cannot be standardized (it would give NaNs)
    p = tmp_path / "flat.bin"
    rec = make_cifar_batch(p, records, 10)
    rec[:, 1 + 1024 * channel : 1 + 1024 * (channel + 1)] = 77
    p.write_bytes(rec.tobytes())
    with pytest.raises(FormatError, match=f"channel {channel}"):
        load_cifar10_bin(p)


def test_cifar_empty_path_list_raises_parameter_error():
    with pytest.raises(ParameterError):
        load_cifar10_bin([])


@pytest.mark.parametrize("stats", [
    (np.zeros(2), np.ones(2)),                      # wrong channel count
    (np.zeros((3, 1)), np.ones(3)),                 # wrong shape
    (np.zeros(3), np.array([1.0, 0.0, 1.0])),       # zero std
    (np.zeros(3), np.array([1.0, -1.0, 1.0])),      # negative std
    (np.zeros(3), np.array([1.0, np.nan, 1.0])),    # NaN std
    (np.array([0.0, np.inf, 0.0]), np.ones(3)),     # infinite mean
    (np.zeros(3),),                                 # not a pair
    1.5,                                            # not a sequence
])
def test_cifar_bad_caller_stats_raise_parameter_error(tmp_path, stats):
    p = tmp_path / "b.bin"
    make_cifar_batch(p, 4, 12)
    with pytest.raises(ParameterError):
        load_cifar10_bin(p, split="test", stats=stats)


@pytest.fixture(scope="module")
def cifar_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cifar_fuzz")


@given(records=st.integers(1, 3), cut=st.integers(-3073, 3073),
       edits=st.lists(st.tuples(st.integers(0, 3 * 3073 - 1), st.integers(0, 255)),
                      max_size=40),
       flat=st.lists(st.booleans(), min_size=3, max_size=3), seed=st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_fuzzed_cifar_records_raise_only_format_error(cifar_fuzz_dir, records, cut, edits,
                                                      flat, seed):
    # random record bytes (some channels flattened, bytes overwritten) and a
    # file cut or padded by up to one record: loading raises FormatError or
    # returns finite images, never another exception or a warning
    rec = np.random.default_rng(seed).integers(0, 256, size=(records, 3073), dtype=np.uint8)
    rec[:, 0] %= 10
    for c, is_flat in enumerate(flat):
        if is_flat:
            rec[:, 1 + 1024 * c : 1 + 1024 * (c + 1)] = c
    raw = bytearray(rec.tobytes())
    for pos, value in edits:
        if pos < len(raw):
            raw[pos] = value
    raw = raw[:len(raw) + cut] if cut < 0 else raw + bytes(cut)
    p = cifar_fuzz_dir / "fuzz.bin"
    p.write_bytes(bytes(raw))
    try:
        ds, (mean, std) = load_cifar10_bin(p)
    except FormatError:
        return
    assert np.isfinite(ds.images).all()
    assert ds.images.shape == (len(raw) // 3073, 3, 32, 32)
    assert (std > 0).all() and ds.labels.max() <= 9


def test_encode_direct_single_and_batch():
    x = np.random.default_rng(9).random((2, 1, 4, 4))
    enc = encode_direct(x, 5)
    assert enc.shape == (5, 2, 1, 4, 4)
    assert np.array_equal(enc[0], x) and np.array_equal(enc[4], x)
    single = encode_direct(x[0], 3)
    assert single.shape == (3, 1, 4, 4)


def test_encode_direct_validates_horizon():
    with pytest.raises(ValueError):
        encode_direct(np.zeros((1, 1, 2, 2)), 0)


def test_dataset_subset():
    ds = Dataset(images=np.arange(8, dtype=np.float64).reshape(4, 1, 2, 1),
                 labels=np.array([0, 1, 2, 3]))
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.labels, [2, 0])
    assert sub.images.shape == (2, 1, 2, 1)
