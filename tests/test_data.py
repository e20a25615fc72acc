"""Data tests: IDX/AMAT parsing with fixtures, rotation conventions and
round-trip bounds, preprocessing, seeded benchmark construction."""

import struct

import numpy as np
import pytest

import harmnet.data as hdata
from harmnet.errors import ConfigError, DataNotFoundError, ParseError


def idx_images_bytes(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    return struct.pack(">IIII", 0x00000803, *arr.shape) + arr.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


def write_mnist_fixture(root, n_train=12, n_test=3, seed=0):
    rng = np.random.default_rng(seed)
    tr = rng.integers(0, 256, (n_train, 28, 28), dtype=np.uint8)
    te = rng.integers(0, 256, (n_test, 28, 28), dtype=np.uint8)
    (root / "train-images-idx3-ubyte").write_bytes(idx_images_bytes(tr))
    (root / "train-labels-idx1-ubyte").write_bytes(idx_labels_bytes(np.arange(n_train) % 10))
    (root / "t10k-images-idx3-ubyte").write_bytes(idx_images_bytes(te))
    (root / "t10k-labels-idx1-ubyte").write_bytes(idx_labels_bytes(np.arange(n_test) % 10))
    return tr, te


def smooth_image(rng, n=28):
    ys, xs = np.mgrid[0:n, 0:n] / n
    img = np.zeros((n, n))
    for _ in range(6):
        fy, fx = rng.uniform(0.5, 3, 2)
        ph = rng.uniform(0, 2 * np.pi, 2)
        img += rng.uniform(0.3, 1.0) * np.cos(2 * np.pi * fy * ys + ph[0]) \
            * np.cos(2 * np.pi * fx * xs + ph[1])
    img -= img.min()
    return img / img.max()


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------

def test_idx_fixture_exact_pixels(tmp_path):
    pix = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    (tmp_path / "img").write_bytes(idx_images_bytes(pix))
    (tmp_path / "lab").write_bytes(idx_labels_bytes([4, 9]))
    ds = hdata.load_idx(tmp_path / "img", tmp_path / "lab")
    assert ds.images.shape == (2, 1, 3, 3)
    assert np.array_equal(ds.images[:, 0], pix.astype(np.float32) / 255.0)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert np.array_equal(ds.labels, [4, 9])
    assert ds.provenance["images"]["crc32"]
    assert len(ds) == 2


def test_idx_bad_magic_and_truncation(tmp_path):
    good = idx_images_bytes(np.zeros((1, 2, 2), np.uint8))
    (tmp_path / "bad").write_bytes(b"\x00\x00\x08\x07" + good[4:])
    with pytest.raises(ParseError, match="magic 0x00000807 at byte 0"):
        hdata.read_idx(tmp_path / "bad")
    (tmp_path / "short").write_bytes(good[:10])
    with pytest.raises(ParseError, match="byte"):
        hdata.read_idx(tmp_path / "short")
    (tmp_path / "cut").write_bytes(good[:-1])
    with pytest.raises(ParseError, match="expected 20 bytes"):
        hdata.read_idx(tmp_path / "cut")


def test_idx_role_mixup(tmp_path):
    (tmp_path / "img").write_bytes(idx_images_bytes(np.zeros((1, 2, 2), np.uint8)))
    (tmp_path / "lab").write_bytes(idx_labels_bytes([1]))
    with pytest.raises(ParseError, match="labels, not images"):
        hdata.load_idx(tmp_path / "lab", tmp_path / "img")


# ---------------------------------------------------------------------------
# AMAT
# ---------------------------------------------------------------------------

def test_amat_single_line_exact(tmp_path):
    vals = ["0.25"] * 784
    vals[0], vals[783] = "0", "1"
    (tmp_path / "one.amat").write_text(" ".join(vals + ["7.0"]) + "\n")
    ds = hdata.load_amat(tmp_path / "one.amat")
    assert ds.images.shape == (1, 1, 28, 28)
    flat = ds.images.reshape(-1)
    assert flat[0] == 0.0 and flat[783] == 1.0 and flat[1] == np.float32(0.25)
    assert ds.labels[0] == 7


def test_amat_errors(tmp_path):
    (tmp_path / "short.amat").write_text(" ".join(["0"] * 784) + "\n")
    with pytest.raises(ParseError, match="line 1: expected 785 fields, got 784"):
        hdata.load_amat(tmp_path / "short.amat")
    (tmp_path / "range.amat").write_text(" ".join(["1.5"] * 784 + ["0"]) + "\n")
    with pytest.raises(ParseError, match="outside"):
        hdata.load_amat(tmp_path / "range.amat")
    (tmp_path / "label.amat").write_text(" ".join(["0"] * 784 + ["2.5"]) + "\n")
    with pytest.raises(ParseError, match="non-integer labels"):
        hdata.load_amat(tmp_path / "label.amat")
    (tmp_path / "junk.amat").write_text(" ".join(["x"] * 785) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        hdata.load_amat(tmp_path / "junk.amat")


def test_amat_empty_warns(tmp_path):
    (tmp_path / "empty.amat").write_text("")
    with pytest.warns(UserWarning, match="zero samples"):
        ds = hdata.load_amat(tmp_path / "empty.amat")
    assert len(ds) == 0


def test_amat_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = hdata.LabeledImageSet(
        rng.random((3, 1, 28, 28)).astype(np.float32),
        np.array([1, 0, 9]), "train")
    hdata.save_amat(tmp_path / "rt.amat", ds)
    back = hdata.load_amat(tmp_path / "rt.amat")
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotate_90_multiples_nearest_exact():
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 256, (2, 28, 28), dtype=np.uint8)
    for q in (1, 2, 3):
        out = hdata.rotate_image(arr, hdata.RotationSpec(90 * q, "nearest"))
        assert out.dtype == np.uint8
        assert np.array_equal(out, np.rot90(arr, -q, axes=(-2, -1)))


def test_rotate_90_bilinear_matches_grid_rotation():
    # integer source coordinates: interpolation contributes nothing
    rng = np.random.default_rng(6)
    img = rng.random((28, 28))
    out = hdata.rotate_image(img, hdata.RotationSpec(90))
    assert np.max(np.abs(out - np.rot90(img, -1))) < 1e-12


def test_rotate_quarter_turns_exact_all_interpolations():
    # 180/270 need exact trig: sin(pi) ~ 1e-16 once pushed edge coordinates
    # just out of bounds and the constant fill blanked whole rows
    rng = np.random.default_rng(8)
    img = rng.random((9, 9))
    for quarter in range(4):
        for interp in hdata.INTERPOLATIONS:
            out = hdata.rotate_image(img, hdata.RotationSpec(90 * quarter, interp))
            assert np.max(np.abs(out - np.rot90(img, -quarter))) < 1e-12, \
                (quarter, interp)


def test_rotate_full_turn_identity():
    rng = np.random.default_rng(7)
    img = rng.random((28, 28))
    out = hdata.rotate_image(img, hdata.RotationSpec(360))
    assert np.max(np.abs(out - img)) < 1e-6


def test_rotate_45_round_trip_central_disk():
    # derived bound, smooth (band-limited) imagery: measured max 0.019
    rng = np.random.default_rng(0)
    for _ in range(5):
        img = smooth_image(rng)
        back = hdata.rotate_image(hdata.rotate_image(img, hdata.RotationSpec(45)),
                                  hdata.RotationSpec(-45))
        n = img.shape[0]
        ys, xs = np.mgrid[0:n, 0:n]
        c = (n - 1) / 2
        mask = (ys - c) ** 2 + (xs - c) ** 2 <= (n / 4) ** 2
        assert np.abs(back - img)[mask].mean() < 2e-2


def test_rotate_fill_and_interpolations():
    img = np.ones((9, 9))
    out = hdata.rotate_image(img, hdata.RotationSpec(45))
    assert out[0, 0] == 0.0                              # corners leave the disk
    for interp in hdata.INTERPOLATIONS:
        r = hdata.rotate_image(img, hdata.RotationSpec(30, interp))
        assert r.shape == img.shape and np.isfinite(r).all()


@pytest.mark.parametrize("dtype, want", [(np.float32, np.float32), (np.uint8, np.float64)])
def test_rotate_an_empty_batch_off_the_quarter_turns(dtype, want):
    out = hdata.rotate_image(np.zeros((0, 1, 28, 28), dtype), hdata.RotationSpec(30, "bilinear"))
    assert out.shape == (0, 1, 28, 28) and out.dtype == want


def test_rotation_spec_normalization():
    assert hdata.RotationSpec(-90).angle == 270.0
    assert hdata.RotationSpec(720).angle == 0.0
    with pytest.raises(ConfigError):
        hdata.RotationSpec(10, "lanczos")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_shapes_and_identity():
    img = np.random.default_rng(8).random((2, 1, 28, 28))
    out = hdata.preprocess(img, pad=2, upscale_factor=2)
    assert out.shape == (2, 1, 64, 64)
    same = hdata.preprocess(img, pad=0, upscale_factor=1)
    assert np.array_equal(same, img)


@pytest.mark.parametrize("dtype, want", [(np.float32, np.float32), (np.uint8, np.float64)])
def test_preprocess_an_empty_batch(dtype, want):
    out = hdata.preprocess(np.zeros((0, 1, 28, 28), dtype), pad=2, upscale_factor=2)
    assert out.shape == (0, 1, 64, 64) and out.dtype == want


def test_preprocess_constant_stays_constant():
    img = np.full((1, 1, 8, 8), 0.4)
    out = hdata.preprocess(img, pad=0, upscale_factor=2)
    assert np.allclose(out, 0.4, atol=1e-12)
    padded = hdata.preprocess(img, pad=1, upscale_factor=1)
    assert padded.shape == (1, 1, 10, 10)
    assert np.all(padded[..., 0, :] == 0) and np.all(padded[..., 1, 1:-1] == 0.4)


def test_preprocess_upscale_preserves_interior_ramp():
    ramp = np.arange(8.0).reshape(1, 8).repeat(8, 0)
    out = hdata.preprocess(ramp, pad=0, upscale_factor=2)
    # interior of a linear ramp upscales to the half-step linear ramp
    assert np.allclose(out[8, 2:14], np.arange(0.75, 6.26, 0.5))
    with pytest.raises(ConfigError):
        hdata.preprocess(ramp, pad=-1, upscale_factor=2)


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

def test_mnist_rot_test_benchmark(tmp_path):
    tr, te = write_mnist_fixture(tmp_path)
    splits = hdata.build_benchmark("mnist-rot-test", tmp_path, seed=11)
    # canonical 60k -> 50k/10k ratio scales to 12 -> 10/2
    assert len(splits["train"]) == 10 and len(splits["val"]) == 2
    assert len(splits["test"]) == 3
    assert np.array_equal(splits["train"].images[:, 0],
                          tr[:10].astype(np.float32) / 255.0)   # upright, bitwise
    assert splits["val"].split == "val"
    again = hdata.build_benchmark("mnist-rot-test", tmp_path, seed=11)
    assert np.array_equal(splits["test"].images, again["test"].images)
    other = hdata.build_benchmark("mnist-rot-test", tmp_path, seed=12)
    assert not np.array_equal(splits["test"].images, other["test"].images)
    assert splits["test"].provenance["rotation"]["seed"] == 11
    assert not np.array_equal(splits["test"].images[:, 0],
                              te.astype(np.float32) / 255.0)    # actually rotated


def test_rotated_mnist_benchmark(tmp_path):
    rng = np.random.default_rng(2)
    train = hdata.LabeledImageSet(rng.random((12, 1, 28, 28)).astype(np.float32),
                                  rng.integers(0, 10, 12), "train")
    test = hdata.LabeledImageSet(rng.random((5, 1, 28, 28)).astype(np.float32),
                                 rng.integers(0, 10, 5), "test")
    hdata.save_amat(tmp_path / "mnist_all_rotation_normalized_float_train_valid.amat", train)
    hdata.save_amat(tmp_path / "mnist_all_rotation_normalized_float_test.amat", test)
    splits = hdata.build_benchmark("rotated-mnist", tmp_path, seed=0)
    # canonical 12k -> 10k/2k ratio scales to 12 -> 10/2; test used as-is
    assert len(splits["train"]) == 10 and len(splits["val"]) == 2
    assert np.array_equal(splits["test"].images, test.images)
    assert np.array_equal(splits["val"].images, train.images[10:])


def test_cifar_rot_test_benchmark(tmp_path):
    rng = np.random.default_rng(4)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        recs = []
        for _ in range(2):
            recs.append(bytes([rng.integers(0, 10)]) +
                        rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
        (tmp_path / name).write_bytes(b"".join(recs))
    splits = hdata.build_benchmark("cifar-rot-test", tmp_path, seed=1)
    assert splits["train"].images.shape[1:] == (3, 32, 32)
    # canonical 50k -> 42k/8k ratio scales to 10 -> 9/1
    assert len(splits["train"]) == 9 and len(splits["val"]) == 1
    assert len(splits["test"]) == 2


def test_benchmark_missing_sources(tmp_path):
    with pytest.raises(DataNotFoundError, match="mnist-rot-test"):
        hdata.build_benchmark("mnist-rot-test", tmp_path, seed=0)
    with pytest.raises(ConfigError, match="unknown benchmark"):
        hdata.build_benchmark("fashion", tmp_path, seed=0)


def test_labeled_set_count_mismatch():
    with pytest.raises(Exception, match="2 images vs 1 labels"):
        hdata.LabeledImageSet(np.zeros((2, 1, 4, 4)), np.zeros(1))
