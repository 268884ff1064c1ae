"""Blob generation and IDX parsing tests."""

import gc
import gzip
import math
import mmap
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import mnist_dir, requires_mnist
from gradient_decay.datasets import (
    BlobsConfig,
    Dataset,
    IdxFormatError,
    decode,
    load_mnist_idx,
    make_blobs,
    mnist_paths,
    write_idx_images,
    write_idx_labels,
)


class TestMakeBlobs:
    def test_counts_and_balance(self):
        train, test = make_blobs(BlobsConfig(classes=10, n_per_class=100, sigma=0.1, radius=1.0, seed=0))
        assert train.n + test.n == 1000
        assert train.n == 800 and test.n == 200
        for split in (train, test):
            counts = np.bincount(split.labels, minlength=10)
            assert np.all(counts == counts[0])

    def test_deterministic(self):
        cfg = BlobsConfig(classes=3, n_per_class=50, sigma=0.2, radius=2.0, seed=123)
        a_train, a_test = make_blobs(cfg)
        b_train, b_test = make_blobs(cfg)
        assert decode(a_train.raw).tobytes() == decode(b_train.raw).tobytes()
        assert decode(a_test.raw).tobytes() == decode(b_test.raw).tobytes()
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_class_means_on_circle(self):
        cfg = BlobsConfig(classes=4, n_per_class=2000, sigma=0.01, radius=2.0, seed=7)
        train, _ = make_blobs(cfg)
        for k in range(4):
            angle = 2 * np.pi * k / 4
            target = np.array([2.0 * np.cos(angle), 2.0 * np.sin(angle)])
            got = decode(train.raw)[train.labels == k].mean(axis=0)
            assert np.allclose(got, target, atol=0.01)

    def test_features_finite_and_dim(self):
        train, test = make_blobs(BlobsConfig(classes=2, n_per_class=10, sigma=0.5, radius=1.0, seed=1))
        assert train.dim == 2 and test.dim == 2
        assert np.isfinite(decode(train.raw)).all()

    @pytest.mark.parametrize("cfg", [
        BlobsConfig(),
        BlobsConfig(classes=2, n_per_class=5, seed=1),
        BlobsConfig(classes=3, n_per_class=7, sigma=2.5, radius=0.1, seed=9),
        BlobsConfig(classes=7, n_per_class=12, sigma=0.05, radius=3.0, seed=42),
        BlobsConfig(classes=4, n_per_class=20),
    ], ids=["default", "two_classes", "wide_noise", "seven_classes", "cli_fast"])
    def test_bits_match_the_dim_general_generator(self, cfg):
        # the generator from before blobs were planar, at dim 2: each class draws its
        # (n_per_class, dim) noise in turn around a mean on the circle in the first two coordinates
        dim = 2
        rng = np.random.default_rng(cfg.seed)
        xs, ys = [], []
        for k in range(cfg.classes):
            mean = np.zeros(dim)
            mean[:2] = cfg.radius * math.cos(2.0 * math.pi * k / cfg.classes), \
                cfg.radius * math.sin(2.0 * math.pi * k / cfg.classes)
            xs.append(mean + cfg.sigma * rng.standard_normal((cfg.n_per_class, dim)))
            ys.append(np.full(cfg.n_per_class, k))
        x, y = np.concatenate(xs), np.concatenate(ys)
        is_test = np.tile(np.arange(cfg.n_per_class) % 5 == 4, cfg.classes)
        train, test = make_blobs(cfg)
        for split, rows in ((train, ~is_test), (test, is_test)):
            assert decode(split.raw).tobytes() == x[rows].tobytes()
            assert split.labels.tolist() == y[rows].tolist()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlobsConfig(classes=1)
        with pytest.raises(ValueError):
            BlobsConfig(sigma=0.0)
        with pytest.raises(ValueError):
            BlobsConfig(n_per_class=0)
        with pytest.raises(ValueError, match="n_per_class must be an integer >= 5, got 4"):
            BlobsConfig(n_per_class=4)  # every 5th point of a class is a test point: 4 points give none
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

    def test_uint8_codes_are_kept_and_decode_as_codes_over_255(self):
        codes = np.arange(12, dtype=np.uint8).reshape(4, 3) * 20
        d = Dataset(codes, np.zeros(4, dtype=int), "train")
        assert d.raw.dtype == np.uint8 and d.raw is codes
        assert d.n == 4 and d.dim == 3
        want = codes.astype(np.float64) / 255.0
        features = decode(d.raw)
        assert features.dtype == np.float64 and features.tobytes() == want.tobytes()
        assert decode(codes).tobytes() == want.tobytes()
        out = np.empty((4, 3))
        assert decode(codes, out=out) is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint16, np.float32, np.float64])
    def test_other_dtypes_become_float64(self, dtype):
        values = np.arange(6).reshape(3, 2).astype(dtype)
        d = Dataset(values, np.zeros(3, dtype=int), "train")
        assert d.raw.dtype == np.float64
        assert d.raw.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert decode(values).tolist() == decode(d.raw).tolist()  # only uint8 holds pixel codes

    def test_complex_features_rejected(self):
        # they were cut to their real parts, with a ComplexWarning
        with pytest.raises(ValueError, match="features must have a bool, integer or float dtype, got complex128"):
            Dataset(np.zeros((3, 2)) + 1j, np.zeros(3, dtype=int), "train")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_features_rejected(self, dtype):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="features must be finite"):
                Dataset(np.array([[0.0, bad]], dtype=dtype), np.zeros(1, dtype=int), "train")

    def test_finiteness_pass_is_skipped_only_for_uint8(self, monkeypatch):
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.dtype) or isfinite(a))
        Dataset(np.zeros((3, 2), dtype=np.uint8), np.zeros(3, dtype=int), "train")
        assert calls == []
        Dataset(np.zeros((3, 2), dtype=np.int64), np.zeros(3, dtype=int), "train")
        assert calls == [np.float64]


def old_load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """load_mnist_idx's decode before it read the bodies in place: slice the bytes, then convert."""
    opener = gzip.open if str(images_path).endswith(".gz") else open
    with opener(images_path, "rb") as f:
        raw = f.read()
    count, rows, cols = struct.unpack_from(">III", raw, 4)
    images = np.frombuffer(raw[16:], dtype=np.uint8).reshape(count, rows * cols)
    with opener(labels_path, "rb") as f:
        raw = f.read()
    labels = np.frombuffer(raw[8:], dtype=np.uint8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, split)


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
        features = decode(ds.raw)
        assert np.array_equal(features, images.reshape(12, 20) / 255.0)
        assert np.array_equal(ds.labels, labels)
        assert features.min() >= 0.0 and features.max() <= 1.0

    def test_roundtrip_gzip(self, tmp_path):
        images, labels, ip, lp = self._roundtrip(tmp_path, suffix=".gz")
        ds = load_mnist_idx(ip, lp)
        assert np.array_equal(decode(ds.raw) * 255.0, images.reshape(12, 20).astype(float))

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_decode_is_bitwise_the_sliced_decode(self, tmp_path, suffix):
        _, _, ip, lp = self._roundtrip(tmp_path, suffix)
        new, old = load_mnist_idx(ip, lp, split="test"), old_load_mnist_idx(ip, lp, split="test")
        got, want = decode(new.raw), decode(old.raw)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert new.labels.dtype == old.labels.dtype and new.labels.tobytes() == old.labels.tobytes()
        assert new.split == old.split
        assert new.raw.dtype == np.uint8

    @pytest.mark.parametrize("suffix, mapped", [("", True), (".gz", False)])
    def test_pixels_are_a_read_only_view_that_outlives_the_load(self, tmp_path, suffix, mapped):
        images, labels, ip, lp = self._roundtrip(tmp_path, suffix)
        ds = load_mnist_idx(ip, lp)
        gc.collect()  # the file objects are gone; only ds.raw holds the bytes
        owner = ds.raw
        while isinstance(owner, (np.ndarray, memoryview)):
            owner = owner.obj if isinstance(owner, memoryview) else owner.base
        assert isinstance(owner, mmap.mmap) == mapped
        assert not ds.raw.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.raw[0, 0] = 0
        assert ds.raw.tobytes() == images.tobytes() and np.array_equal(ds.labels, labels)

    def test_plain_load_makes_no_copy_of_the_pixels(self, tmp_path):
        images = np.random.default_rng(0).integers(0, 256, (4000, 28, 28), dtype=np.uint8)  # 3.1 MB
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx_images(ip, images)
        write_idx_labels(lp, np.arange(4000) % 10)
        tracemalloc.start()
        try:
            ds = load_mnist_idx(ip, lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes / 4  # reading the file into bytes allocated all of it
        assert ds.raw.tobytes() == images.tobytes()

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("which, body, offset, message", [
        ("images", b"", 0, "file ends inside a 32-bit header field (0 bytes)"),
        ("images", struct.pack(">IIII", 0x803, 12, 5, 4), 16, "expected 240 pixel bytes for 12x5x4, found 0"),
        ("images", struct.pack(">IIII", 0x803, 12, 5, 4) + bytes(5), 16,
         "expected 240 pixel bytes for 12x5x4, found 5"),
        ("labels", b"", 0, "file ends inside a 32-bit header field (0 bytes)"),
        ("labels", struct.pack(">II", 0x801, 12), 8, "expected 12 label bytes, found 0"),
    ], ids=["empty_images", "header_only_images", "short_images", "empty_labels", "header_only_labels"])
    def test_cut_short_file_is_reported_at_its_offset(self, tmp_path, suffix, which, body, offset, message):
        # an empty plain file cannot be mapped; it is read instead and reported like any short file
        _, _, ip, lp = self._roundtrip(tmp_path, suffix)
        path = ip if which == "images" else lp
        path.write_bytes(gzip.compress(body) if suffix else body)
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(ip, lp)
        assert (exc.value.path, exc.value.offset) == (str(path), offset)
        assert str(exc.value) == f"{path} (offset {offset}): {message}"

    @pytest.mark.parametrize("which, offset", [("images", 16), ("labels", 8)])
    @pytest.mark.parametrize("extra", [b"", b"\x00\x00"], ids=["one_short", "one_over"])
    def test_body_of_the_wrong_length(self, tmp_path, which, offset, extra):
        _, _, ip, lp = self._roundtrip(tmp_path)
        path = ip if which == "images" else lp
        body = path.read_bytes()
        path.write_bytes(body[:-1] + extra)
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(ip, lp)
        assert exc.value.offset == offset and exc.value.path == str(path)

    def test_bad_magic_at_offset_zero(self, tmp_path):
        p = tmp_path / "bad-idx3-ubyte"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(p, p)
        assert exc.value.offset == 0
        assert str(exc.value) == f"{p} (offset 0): expected image magic 0x00000803, got 0xdeadbeef"

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("swapped, message", [
        ("images", "expected image magic 0x00000803, got 0x00000801"),
        ("labels", "expected label magic 0x00000801, got 0x00000803"),
    ], ids=["labels_as_images", "images_as_labels"])
    def test_a_file_of_the_other_kind_fails_at_offset_zero(self, tmp_path, suffix, swapped, message):
        _, _, ip, lp = self._roundtrip(tmp_path, suffix)
        args, path = ((lp, lp), lp) if swapped == "images" else ((ip, ip), ip)
        with pytest.raises(IdxFormatError) as exc:
            load_mnist_idx(*args)
        assert (exc.value.path, exc.value.offset) == (str(path), 0)
        assert str(exc.value) == f"{path} (offset 0): {message}"

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="file ends inside a 32-bit header field") as exc:
            load_mnist_idx(p, p)
        assert exc.value.offset == 0

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "short-body"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 10, 28, 28) + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match="expected 7840 pixel bytes for 10x28x28, found 5") as exc:
            load_mnist_idx(p, p)
        assert exc.value.offset == 16 and "short-body" in str(exc.value)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.zeros(9, dtype=np.uint8)
        ip, lp = tmp_path / "i-idx3-ubyte", tmp_path / "l-idx1-ubyte"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        with pytest.raises(IdxFormatError, match="label count 9 does not match image count 10") as exc:
            load_mnist_idx(ip, lp)
        assert (exc.value.path, exc.value.offset) == (str(lp), 4)

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
    @pytest.mark.parametrize("count", [0, 3, 40])  # 40 images exceed a file's 8 KiB write buffer
    def test_writers_write_the_header_then_the_codes(self, tmp_path, suffix, layout, count):
        rng = np.random.default_rng(count)
        images = layout(rng.integers(0, 256, (count, 28, 28), dtype=np.uint8))
        labels = rng.integers(0, 10, count)
        ip, lp = tmp_path / ("i" + suffix), tmp_path / ("l" + suffix)
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        read = gzip.decompress if suffix else bytes
        assert read(ip.read_bytes()) == struct.pack(">IIII", 0x803, count, 28, 28) + images.tobytes()
        assert read(lp.read_bytes()) == struct.pack(">II", 0x801, count) + labels.astype(np.uint8).tobytes()
        ds = load_mnist_idx(ip, lp)  # and the reader gives back the same codes
        assert ds.raw.dtype == np.uint8 and ds.raw.shape == (count, 784) and ds.raw.tobytes() == images.tobytes()
        assert ds.labels.dtype == np.int64 and ds.labels.tobytes() == labels.astype(np.int64).tobytes()

    def test_image_writer_makes_no_copy_of_the_payload(self, tmp_path):
        images = np.random.default_rng(0).integers(0, 256, (2000, 28, 28), dtype=np.uint8)  # 1.5 MB
        tracemalloc.start()
        try:
            write_idx_images(tmp_path / "i", images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes / 2

    @pytest.mark.parametrize("which, values, message", [
        ("images", np.array([[[1.7, 300.0]], [[-2.0, 255.0]]]), "images must have an integer dtype, got float64"),
        ("images", np.array([[[1, 300]], [[-2, 255]]]), r"images must lie in \[0, 255\], got range \[-2, 300\]"),
        ("labels", np.array([1.0, 7.0]), "labels must have an integer dtype, got float64"),
        ("labels", [300, -1, 7], r"labels must lie in \[0, 255\], got range \[-1, 300\]"),
    ], ids=["image_dtype", "image_range", "label_dtype", "label_range"])
    def test_writers_reject_values_they_cannot_store(self, tmp_path, which, values, message):
        # a uint8 cast used to wrap them: labels [300, -1, 7] read back as [44, 255, 7]
        write = write_idx_images if which == "images" else write_idx_labels
        with pytest.raises(ValueError, match=message):
            write(tmp_path / which, values)
        assert not (tmp_path / which).exists()

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
        features = decode(ds.raw)
        assert features.min() >= 0.0 and features.max() <= 1.0
