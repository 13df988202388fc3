import os
import struct
from pathlib import Path

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.checkpoint import load_checkpoint, save_checkpoint
from spikefirst.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from spikefirst.train import PRESETS, train

MNIST_DIR = Path(os.environ.get("SPIKEFIRST_DATA", "/root/data")) / "mnist"
CACHE_DIR = Path(__file__).resolve().parent.parent / ".cache"


def save_mnist_idx(dataset: sf.Dataset, images_path, labels_path) -> None:
    """Re-serialize a parsed MNIST dataset to IDX bytes (exact round trip)."""
    n, _, rows, cols = dataset.images.shape
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4i", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2i", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def mnist_available() -> bool:
    return (MNIST_DIR / "train-images-idx3-ubyte").exists()


needs_mnist = pytest.mark.skipif(not mnist_available(),
                                 reason="MNIST IDX files not found")


@pytest.fixture(scope="session")
def mnist_train():
    if not mnist_available():
        pytest.skip("MNIST IDX files not found")
    return sf.load_mnist_idx(MNIST_DIR / "train-images-idx3-ubyte",
                             MNIST_DIR / "train-labels-idx1-ubyte", "train")


@pytest.fixture(scope="session")
def mnist_test():
    if not mnist_available():
        pytest.skip("MNIST IDX files not found")
    return sf.load_mnist_idx(MNIST_DIR / "t10k-images-idx3-ubyte",
                             MNIST_DIR / "t10k-labels-idx1-ubyte", "test")


@pytest.fixture(scope="session")
def synthetic_mnist(tmp_path_factory):
    """Dataset root holding small MNIST-shaped IDX files: 600 train and 200
    test images of sparse random pixels with random labels.  It exercises
    the data and CLI plumbing only; accuracy gates need the real MNIST."""
    root = tmp_path_factory.mktemp("synthetic_mnist")
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 600), ("t10k", 200)):
        pixels = rng.integers(0, 256, size=(n, 1, 28, 28)) * (rng.random((n, 1, 28, 28)) < 0.2)
        ds = sf.Dataset(images=pixels / 255.0, labels=rng.integers(0, 10, size=n))
        save_mnist_idx(ds, root / f"{prefix}-images-idx3-ubyte",
                       root / f"{prefix}-labels-idx1-ubyte")
    return str(root)


def trained_smoke(preset: str, train_ds, test_ds):
    """Train (or load from the on-disk cache) one smoke-schedule model."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{preset}.ckpt"
    if path.exists():
        return load_checkpoint(path)
    ckpt, _ = train(PRESETS[preset], train_ds, test_ds)
    save_checkpoint(ckpt, path)
    return ckpt


@pytest.fixture(scope="session")
def smoke_df(mnist_train, mnist_test):
    return trained_smoke("mnist-df-bptt-smoke", mnist_train, mnist_test)


@pytest.fixture(scope="session")
def smoke_sf(mnist_train, mnist_test):
    return trained_smoke("mnist-sf-bptt-smoke", mnist_train, mnist_test)


@pytest.fixture(scope="session")
def smoke_dr(mnist_train, mnist_test):
    return trained_smoke("mnist-dr-bptt-smoke", mnist_train, mnist_test)


@pytest.fixture(scope="session")
def eval_subset(mnist_test):
    # fixed 2000-sample slice keeps evaluation-heavy tests fast
    return mnist_test.subset(np.arange(2000))
