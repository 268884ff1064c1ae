"""Blob generation and IDX parsing tests."""

import struct

import numpy as np
import pytest

from conftest import mnist_dir, requires_mnist
from gradient_decay.datasets import (
    BlobsConfig,
    Dataset,
    IdxBadMagic,
    IdxCountMismatch,
    IdxTruncated,
    load_mnist_idx,
    make_blobs,
    mnist_paths,
    write_idx_images,
    write_idx_labels,
)


class TestMakeBlobs:
    def test_counts_and_balance(self):
        train, test = make_blobs(BlobsConfig(classes=10, dim=2, n_per_class=100, sigma=0.1, radius=1.0, seed=0))
        assert train.n + test.n == 1000
        assert train.n == 800 and test.n == 200
        for split in (train, test):
            counts = np.bincount(split.labels, minlength=10)
            assert np.all(counts == counts[0])

    def test_deterministic(self):
        cfg = BlobsConfig(classes=3, dim=4, n_per_class=50, sigma=0.2, radius=2.0, seed=123)
        a_train, a_test = make_blobs(cfg)
        b_train, b_test = make_blobs(cfg)
        assert a_train.features.tobytes() == b_train.features.tobytes()
        assert a_test.features.tobytes() == b_test.features.tobytes()
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_class_means_on_circle(self):
        cfg = BlobsConfig(classes=4, dim=3, n_per_class=2000, sigma=0.01, radius=2.0, seed=7)
        train, _ = make_blobs(cfg)
        for k in range(4):
            angle = 2 * np.pi * k / 4
            target = np.array([2.0 * np.cos(angle), 2.0 * np.sin(angle), 0.0])
            got = train.features[train.labels == k].mean(axis=0)
            assert np.allclose(got, target, atol=0.01)

    def test_features_finite_and_dim(self):
        train, test = make_blobs(BlobsConfig(classes=2, dim=5, n_per_class=10, sigma=0.5, radius=1.0, seed=1))
        assert train.dim == 5 and test.dim == 5
        assert np.isfinite(train.features).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlobsConfig(classes=1)
        with pytest.raises(ValueError):
            BlobsConfig(dim=1)
        with pytest.raises(ValueError):
            BlobsConfig(sigma=0.0)
        with pytest.raises(ValueError):
            BlobsConfig(n_per_class=0)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            BlobsConfig(seed=-1)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), "train")
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, -1, 0]), "train")
        with pytest.raises(ValueError):
            Dataset(np.full((2, 2), np.nan), np.zeros(2, dtype=int), "train")

    @pytest.mark.parametrize("labels", [[0.0, 1.7, 1.0], [True, False, True]])
    def test_non_integer_labels_rejected(self, labels):
        # 1.7 used to be truncated to class 1
        with pytest.raises(ValueError, match="labels must have an integer dtype"):
            Dataset(np.zeros((3, 2)), np.array(labels), "train")

    def test_integer_labels_stored_as_int64(self):
        d = Dataset(np.zeros((3, 2)), np.array([0, 2, 1], dtype=np.uint8), "train")
        assert d.labels.dtype == np.int64 and list(d.labels) == [0, 2, 1]

    def test_properties(self):
        d = Dataset(np.zeros((4, 3)), np.array([0, 1, 2, 1]), "test")
        assert d.n == 4 and d.dim == 3 and d.num_classes == 3


class TestIdxFormat:
    def _roundtrip(self, tmp_path, suffix=""):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (12, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, 12, dtype=np.uint8)
        ip = tmp_path / ("imgs-idx3-ubyte" + suffix)
        lp = tmp_path / ("lbls-idx1-ubyte" + suffix)
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        return images, labels, ip, lp

    def test_roundtrip(self, tmp_path):
        images, labels, ip, lp = self._roundtrip(tmp_path)
        ds = load_mnist_idx(ip, lp)
        assert np.array_equal(ds.features, images.reshape(12, 20) / 255.0)
        assert np.array_equal(ds.labels, labels)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_roundtrip_gzip(self, tmp_path):
        images, labels, ip, lp = self._roundtrip(tmp_path, suffix=".gz")
        ds = load_mnist_idx(ip, lp)
        assert np.array_equal(ds.features * 255.0, images.reshape(12, 20).astype(float))

    def test_bad_magic_at_offset_zero(self, tmp_path):
        p = tmp_path / "bad-idx3-ubyte"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        with pytest.raises(IdxBadMagic) as exc:
            load_mnist_idx(p, p)
        assert exc.value.offset == 0
        assert str(p) in str(exc.value)

    def test_label_magic_rejected_for_images(self, tmp_path):
        p = tmp_path / "labels-as-images"
        p.write_bytes(struct.pack(">II", 0x00000801, 0))
        with pytest.raises(IdxBadMagic):
            load_mnist_idx(p, p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(IdxTruncated):
            load_mnist_idx(p, p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "short-body"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 10, 28, 28) + b"\x00" * 5)
        with pytest.raises(IdxTruncated) as exc:
            load_mnist_idx(p, p)
        assert "short-body" in str(exc.value)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.zeros(9, dtype=np.uint8)
        ip, lp = tmp_path / "i-idx3-ubyte", tmp_path / "l-idx1-ubyte"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        with pytest.raises(IdxCountMismatch):
            load_mnist_idx(ip, lp)

    def test_mnist_paths_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mnist_paths(tmp_path)


@requires_mnist
class TestRealMnist:
    def test_train_files_parse(self):
        ti, tl, _, _ = mnist_paths(mnist_dir())
        ds = load_mnist_idx(ti, tl, split="train")
        assert ds.n == 60_000
        assert ds.dim == 784
        assert set(np.unique(ds.labels)) <= set(range(10))
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
