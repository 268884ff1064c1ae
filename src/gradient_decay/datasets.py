"""Data ingestion: synthetic Gaussian blobs and the MNIST IDX binary format.

Blobs give a fast, fully deterministic stand-in for property tests and
calibration experiments; the IDX loader reads the canonical MNIST
distribution files (mapping plain ones read-only, decompressing
gzip-compressed ones, detected by extension) and keeps their pixels as
uint8 codes.
"""

from __future__ import annotations

import gzip
import math
import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradient_decay.loss import check_int, check_positive_real, integer_labels, real_array

__all__ = [
    "BlobsConfig",
    "Dataset",
    "decode",
    "IdxFormatError",
    "make_blobs",
    "load_mnist_idx",
    "write_idx_images",
    "write_idx_labels",
]

# every 5th point per class goes to the test split (exact 80/20, balanced)
_TEST_STRIDE = 5


@dataclass(frozen=True)
class BlobsConfig:
    """Planar Gaussian blob mixture: class means equally spaced on a circle.

    Class k sits at radius*(cos 2 pi k/K, sin 2 pi k/K) with isotropic noise sigma.
    """

    classes: int = 10
    n_per_class: int = 100
    sigma: float = 0.3
    radius: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("classes", self.classes, 2)
        check_int("n_per_class", self.n_per_class, _TEST_STRIDE)  # a test split of at least one point per class
        check_positive_real("sigma", self.sigma)
        check_positive_real("radius", self.radius)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Stored features with integer labels and a split tag.

    The dtype of raw decides what it holds (see decode): uint8 means IDX
    pixel codes, whose features are raw / 255 in float64, and any other
    bool, integer or float dtype becomes float64 features (a complex one is
    rejected).  IDX pixels stay uint8 codes, an eighth
    of the memory of their float64 values; trainers decode them a batch or
    a row block at a time.
    """

    raw: np.ndarray       # (n, dim) float64 features or uint8 pixel codes
    labels: np.ndarray    # (n,) int64
    split: str            # "train" or "test"

    def __post_init__(self) -> None:
        r = real_array("features", self.raw)
        r = r if r.dtype == np.uint8 else r.astype(np.float64, copy=False)
        l = integer_labels(self.labels).astype(np.int64, copy=False)
        object.__setattr__(self, "raw", r)
        object.__setattr__(self, "labels", l)
        if r.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if l.shape != (r.shape[0],):
            raise ValueError("labels must be a vector with one entry per row")
        if l.size and l.min() < 0:
            raise ValueError("labels must be non-negative")
        # a pixel code decodes to at most 1, so uint8 needs no pass over the data
        if r.dtype != np.uint8 and not np.all(np.isfinite(r)):
            raise ValueError("features must be finite")

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def dim(self) -> int:
        return self.raw.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def decode(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The float64 features that raw stores, into out when given.

    The one decode rule, chosen by dtype: uint8 values are IDX pixel codes,
    each converted exactly to float64 and then divided by 255, bitwise the
    values of raw.astype(np.float64) / 255.0; any other dtype holds the
    features themselves, converted to float64.
    """
    return np.divide(raw, 255.0 if raw.dtype == np.uint8 else 1.0, out=out, dtype=np.float64)


def make_blobs(cfg: BlobsConfig) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) blob datasets, 80/20 split per class."""
    # math.cos/sin rather than np.cos/sin, whose last bit may differ
    angles = [2.0 * math.pi * k / cfg.classes for k in range(cfg.classes)]
    means = np.array([[cfg.radius * math.cos(a), cfg.radius * math.sin(a)] for a in angles])
    # one draw in C order is the stream of one (n_per_class, 2) draw per class in turn
    with np.errstate(over="ignore"):  # an infinite point is reported below
        pts = means[:, None] + cfg.sigma * np.random.default_rng(cfg.seed).standard_normal(
            (cfg.classes, cfg.n_per_class, 2))
    if not np.isfinite(pts).all():
        raise ValueError(f"sigma {cfg.sigma!r} at radius {cfg.radius!r} puts blob points beyond the float64 range")
    is_test = (np.arange(cfg.n_per_class) % _TEST_STRIDE) == _TEST_STRIDE - 1
    return tuple(Dataset(pts[:, keep].reshape(-1, 2), np.repeat(np.arange(cfg.classes), keep.sum()), split)
                 for keep, split in ((~is_test, "train"), (is_test, "test")))


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the file path and byte offset."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path} (offset {offset}): {message}")


def _read_bytes(path) -> bytes | mmap.mmap:
    """The file's bytes: a read-only map of a plain file, a decompressed copy of a .gz file."""
    if str(path).endswith(".gz"):
        try:
            with gzip.open(path, "rb") as f:
                return f.read()
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:  # not gzip, cut short, or corrupt
            raise IdxFormatError(path, 0, f"unreadable gzip data: {exc}") from exc
    with open(path, "rb") as f:
        try:  # the map outlives f: arrays viewing it keep it open
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # an empty file, or one the OS will not map
            return f.read()


def _read_be32(raw: bytes | mmap.mmap, offset: int, path) -> int:
    if len(raw) < offset + 4:
        raise IdxFormatError(path, offset, f"file ends inside a 32-bit header field ({len(raw)} bytes)")
    return struct.unpack_from(">I", raw, offset)[0]


def _read_idx(path, ndim: int, kind: str, unit: str) -> np.ndarray:
    """The uint8 payload of an IDX file of ndim dimensions, a read-only view of its bytes.

    The one IDX layout: big-endian magic 0x00000800 + ndim, then ndim
    big-endian 32-bit sizes, then the row-major unsigned bytes.  kind and
    unit name the file and its bytes in errors ("image", "pixel").
    """
    raw = _read_bytes(path)
    magic = _read_be32(raw, 0, path)
    if magic != 0x800 + ndim:
        raise IdxFormatError(path, 0, f"expected {kind} magic 0x{0x800 + ndim:08x}, got 0x{magic:08x}")
    shape = tuple(_read_be32(raw, 4 + 4 * axis, path) for axis in range(ndim))
    start = 4 + 4 * ndim
    expected = math.prod(shape)
    if len(raw) - start != expected:
        sizes = f" for {'x'.join(map(str, shape))}" if ndim > 1 else ""
        raise IdxFormatError(path, start, f"expected {expected} {unit} bytes{sizes}, found {len(raw) - start}")
    # decoded in place: a slice of raw would copy the whole payload first
    return np.frombuffer(raw, np.uint8, count=expected, offset=start).reshape(shape)


def load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Images are a (count, rows, cols) IDX file, labels a (count,) one.  The
    pixels stay uint8 codes, a read-only view of the file's bytes: the
    features are the pixels divided by 255, in [0, 1], decoded only where
    a batch or an evaluation block needs them.  A plain file is mapped,
    not copied, so it must not be truncated or rewritten while the Dataset
    is in use; a .gz file is decompressed into memory.
    """
    images = _read_idx(images_path, 3, "image", "pixel")
    labels = _read_idx(labels_path, 1, "label", "label")
    count, rows, cols = images.shape
    if labels.size != count:
        raise IdxFormatError(
            labels_path, 4, f"label count {labels.size} does not match image count {count} in {images_path}"
        )
    return Dataset(images.reshape(count, rows * cols), labels.astype(np.int64), split)


def _idx_codes(values, what: str) -> np.ndarray:
    """values as a C-ordered uint8 array; they must have an integer dtype and lie in [0, 255]."""
    a = np.asarray(values)
    if a.dtype != np.uint8:  # a uint8 array holds nothing to check
        if a.dtype.kind not in "iu":
            raise ValueError(f"{what} must have an integer dtype, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() > 255):
            raise ValueError(f"{what} must lie in [0, 255], got range [{a.min()}, {a.max()}]")
    return np.ascontiguousarray(a, dtype=np.uint8)


def _write_idx(path, codes: np.ndarray) -> None:
    """Write the IDX header of codes, then the codes from their own buffer, with no bytes copy of them."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(struct.pack(f">{1 + codes.ndim}I", 0x800 + codes.ndim, *codes.shape))
        f.write(codes)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write (count, rows, cols) integer pixel codes in [0, 255] in IDX image format."""
    images = _idx_codes(images, "images")
    if images.ndim != 3:
        raise ValueError("images must be (count, rows, cols)")
    _write_idx(path, images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a vector of integer labels in [0, 255] in IDX label format."""
    labels = _idx_codes(labels, "labels")
    if labels.ndim != 1:
        raise ValueError("labels must be a vector")
    _write_idx(path, labels)


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
