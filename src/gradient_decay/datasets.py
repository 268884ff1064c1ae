"""Data ingestion: synthetic Gaussian blobs and the MNIST IDX binary format.

Blobs give a fast, fully deterministic stand-in for property tests and
calibration experiments; the IDX loader reads the canonical MNIST
distribution files (optionally gzip-compressed, detected by extension).
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradient_decay.loss import check_int, check_positive_real, integer_labels

__all__ = [
    "BlobsConfig",
    "Dataset",
    "IdxFormatError",
    "IdxBadMagic",
    "IdxTruncated",
    "IdxCountMismatch",
    "make_blobs",
    "load_mnist_idx",
    "write_idx_images",
    "write_idx_labels",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# every 5th point per class goes to the test split (exact 80/20, balanced)
_TEST_STRIDE = 5


@dataclass(frozen=True)
class BlobsConfig:
    """Gaussian blob mixture: class means equally spaced on a circle.

    Class k sits at radius*(cos 2 pi k/K, sin 2 pi k/K) in the first two
    coordinates (zeros elsewhere) with isotropic noise sigma.
    """

    classes: int = 10
    dim: int = 2
    n_per_class: int = 100
    sigma: float = 0.3
    radius: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("classes", self.classes, 2)
        check_int("dim", self.dim, 2)
        check_int("n_per_class", self.n_per_class, 1)
        check_positive_real("sigma", self.sigma)
        check_positive_real("radius", self.radius)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels and a split tag."""

    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray    # (n,) int64
    split: str            # "train" or "test"

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.float64)
        l = integer_labels(self.labels).astype(np.int64, copy=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        if f.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if l.shape != (f.shape[0],):
            raise ValueError("labels must be a vector with one entry per row")
        if l.size and l.min() < 0:
            raise ValueError("labels must be non-negative")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def make_blobs(cfg: BlobsConfig) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) blob datasets, 80/20 split per class."""
    rng = np.random.default_rng(cfg.seed)
    train_x, train_y, test_x, test_y = [], [], [], []
    for k in range(cfg.classes):
        angle = 2.0 * math.pi * k / cfg.classes
        mean = np.zeros(cfg.dim)
        mean[0] = cfg.radius * math.cos(angle)
        mean[1] = cfg.radius * math.sin(angle)
        pts = mean + cfg.sigma * rng.standard_normal((cfg.n_per_class, cfg.dim))
        is_test = (np.arange(cfg.n_per_class) % _TEST_STRIDE) == _TEST_STRIDE - 1
        train_x.append(pts[~is_test])
        test_x.append(pts[is_test])
        train_y.append(np.full((~is_test).sum(), k, dtype=np.int64))
        test_y.append(np.full(is_test.sum(), k, dtype=np.int64))
    train = Dataset(np.concatenate(train_x), np.concatenate(train_y), "train")
    test = Dataset(np.concatenate(test_x), np.concatenate(test_y), "test")
    return train, test


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the file path and byte offset."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path} (offset {offset}): {message}")


class IdxBadMagic(IdxFormatError):
    pass


class IdxTruncated(IdxFormatError):
    pass


class IdxCountMismatch(IdxFormatError):
    pass


def _read_bytes(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            return f.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:  # not gzip, cut short, or corrupt
        raise IdxFormatError(path, 0, f"unreadable gzip data: {exc}") from exc


def _read_be32(raw: bytes, offset: int, path) -> int:
    if len(raw) < offset + 4:
        raise IdxTruncated(path, offset, f"file ends inside a 32-bit header field ({len(raw)} bytes)")
    return struct.unpack_from(">I", raw, offset)[0]


def load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Big-endian headers: images carry magic 0x00000803 then count/rows/cols
    and row-major unsigned bytes; labels carry magic 0x00000801 then count
    and bytes.  Pixels are scaled to [0, 1] by division by 255.
    """
    raw = _read_bytes(images_path)
    magic = _read_be32(raw, 0, images_path)
    if magic != IMAGES_MAGIC:
        raise IdxBadMagic(images_path, 0, f"expected image magic 0x{IMAGES_MAGIC:08x}, got 0x{magic:08x}")
    count = _read_be32(raw, 4, images_path)
    rows = _read_be32(raw, 8, images_path)
    cols = _read_be32(raw, 12, images_path)
    expected = count * rows * cols
    body = raw[16:]
    if len(body) != expected:
        raise IdxTruncated(
            images_path, 16, f"expected {expected} pixel bytes for {count}x{rows}x{cols}, found {len(body)}"
        )
    images = np.frombuffer(body, dtype=np.uint8).reshape(count, rows * cols)

    raw = _read_bytes(labels_path)
    magic = _read_be32(raw, 0, labels_path)
    if magic != LABELS_MAGIC:
        raise IdxBadMagic(labels_path, 0, f"expected label magic 0x{LABELS_MAGIC:08x}, got 0x{magic:08x}")
    lcount = _read_be32(raw, 4, labels_path)
    lbody = raw[8:]
    if len(lbody) != lcount:
        raise IdxTruncated(labels_path, 8, f"expected {lcount} label bytes, found {len(lbody)}")
    if lcount != count:
        raise IdxCountMismatch(
            labels_path, 4, f"label count {lcount} does not match image count {count} in {images_path}"
        )
    labels = np.frombuffer(lbody, dtype=np.uint8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, split)


def _write_bytes(path, payload: bytes) -> None:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(payload)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (count, rows, cols)")
    header = struct.pack(">IIII", IMAGES_MAGIC, *images.shape)
    _write_bytes(path, header + images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a label vector in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError("labels must be a vector")
    header = struct.pack(">II", LABELS_MAGIC, labels.size)
    _write_bytes(path, header + labels.tobytes())


def mnist_paths(directory) -> tuple[Path, Path, Path, Path]:
    """Locate the four canonical MNIST files under a directory.

    Accepts either raw or .gz files; raises FileNotFoundError listing what
    was searched if any of the four is missing.
    """
    directory = Path(directory)
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    found = []
    for name in names:
        plain = directory / name
        gz = directory / (name + ".gz")
        if plain.exists():
            found.append(plain)
        elif gz.exists():
            found.append(gz)
        else:
            raise FileNotFoundError(f"missing {plain} (or {gz.name})")
    return tuple(found)
