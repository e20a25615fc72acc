"""Dataset ingestion, rotation/upscaling utilities, benchmark construction.

Rotation convention matches the rest of the package: a positive angle turns
the +x axis toward +y (y points down in image coordinates), so rotating by
+90 degrees equals np.rot90(img, -1) on the last two axes.  rotate_image is
an inverse-mapping resampler: each output pixel pulls from the input at the
back-rotated position, zero fill outside.
"""

from __future__ import annotations

import binascii
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

from .ctensor import derive_rng
from .errors import ConfigError, DataNotFoundError, ParseError, ShapeError

INTERPOLATIONS = ("nearest", "bilinear", "bicubic")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledImageSet:
    """Images (N, C, H, W) float32 in [0, 1], integer labels, split tag, and
    a provenance record (source files and their CRC32 checksums)."""

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeError(f"images must be (N, C, H, W), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ShapeError(
                f"{len(self.images)} images vs {len(self.labels)} labels")

    def __len__(self):
        return len(self.images)

    def slice(self, start: int, stop: int, split: str | None = None) -> "LabeledImageSet":
        return LabeledImageSet(self.images[start:stop], self.labels[start:stop],
                               split or self.split, dict(self.provenance))


def check_labels(labels, classes: int, what: str = "labels") -> None:
    """Raise ShapeError unless every label is a class index in [0, classes)."""
    labels = np.asarray(labels)
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ShapeError(f"{what} must lie in [0, {classes}), got {bad[0]}")


@dataclass(frozen=True)
class RotationSpec:
    """Rotation about the image center; angle normalized to [0, 360)."""

    angle: float
    interpolation: str = "bilinear"

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % 360.0)
        if self.interpolation not in INTERPOLATIONS:
            raise ConfigError(
                f"interpolation must be one of {INTERPOLATIONS}, got {self.interpolation!r}")


def _crc(path: Path) -> str:
    return f"{binascii.crc32(Path(path).read_bytes()):08x}"


# ---------------------------------------------------------------------------
# IDX (big-endian binary) ingestion
# ---------------------------------------------------------------------------

def read_idx(path) -> np.ndarray:
    """Parse one IDX file: images (N, rows, cols) uint8 or labels (N,) uint8."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ParseError(f"{path}: truncated IDX header at byte {len(raw)}")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
        raise ParseError(f"{path}: bad IDX magic 0x{magic:08x} at byte 0")
    ndim = 3 if magic == IDX_IMAGES_MAGIC else 1
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ParseError(f"{path}: truncated IDX dimensions at byte {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) != header + count:
        raise ParseError(
            f"{path}: expected {header + count} bytes for shape {dims}, "
            f"got {len(raw)} (offset {min(len(raw), header + count)})")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path, split: str = "train") -> LabeledImageSet:
    """Pair an IDX image file with its IDX label file.

    Pixels are scaled to [0, 1] by dividing by 255 — the only normalization.
    """
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise ParseError(f"{images_path}: contains labels, not images")
    if labels.ndim != 1:
        raise ParseError(f"{labels_path}: contains images, not labels")
    pixels = (images.astype(np.float32) / 255.0)[:, None, :, :]
    return LabeledImageSet(
        pixels, labels.astype(np.int64), split,
        {"images": {"source": str(images_path), "crc32": _crc(images_path)},
         "labels": {"source": str(labels_path), "crc32": _crc(labels_path)}})


# ---------------------------------------------------------------------------
# AMAT (whitespace text, 784 pixels + label per line) ingestion
# ---------------------------------------------------------------------------

def load_amat(path, split: str = "train") -> LabeledImageSet:
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 785:
                raise ParseError(f"{path}: line {ln}: expected 785 fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as e:
                raise ParseError(f"{path}: line {ln}: {e}") from None
    prov = {"source": str(path), "crc32": _crc(path)}
    if not rows:
        warnings.warn(f"{path}: empty AMAT file, zero samples")
        return LabeledImageSet(np.zeros((0, 1, 28, 28), np.float32),
                               np.zeros(0, np.int64), split, prov)
    arr = np.asarray(rows, dtype=np.float64)
    pixels = arr[:, :784]
    if pixels.min() < 0.0 or pixels.max() > 1.0:
        raise ParseError(f"{path}: pixel values outside [0, 1]")
    labels = arr[:, 784]
    if np.any(labels != np.round(labels)):
        raise ParseError(f"{path}: non-integer labels")
    return LabeledImageSet(pixels.astype(np.float32).reshape(-1, 1, 28, 28),
                           labels.astype(np.int64), split, prov)


def save_amat(path, dataset: LabeledImageSet) -> None:
    """Inverse of load_amat (shortest-round-trip float formatting)."""
    with open(path, "w") as fh:
        for img, label in zip(dataset.images, dataset.labels):
            vals = [repr(float(v)) for v in img.reshape(-1)]
            vals.append(repr(float(label)))
            fh.write(" ".join(vals) + "\n")


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches
# ---------------------------------------------------------------------------

def read_cifar_batch(path) -> tuple:
    """One CIFAR-10 batch: records of 1 label byte + 3072 channel-major bytes."""
    raw = Path(path).read_bytes()
    rec = 1 + 3072
    if len(raw) % rec:
        raise ParseError(f"{path}: size {len(raw)} is not a multiple of {rec}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, rec)
    labels = arr[:, 0].astype(np.int64)
    images = (arr[:, 1:].astype(np.float32) / 255.0).reshape(-1, 3, 32, 32)
    return images, labels


# ---------------------------------------------------------------------------
# rotation and preprocessing
# ---------------------------------------------------------------------------

def _source_coords(h: int, w: int, angle_deg: float):
    quarter, rem = divmod(angle_deg % 360.0, 90.0)
    if rem == 0.0:
        # exact trig at quarter turns: sin(pi) ~ 1e-16 pushes boundary
        # coordinates an epsilon below zero, which mode="constant" blanks
        ca, sa = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][int(quarter)]
    else:
        a = np.deg2rad(angle_deg)
        ca, sa = np.cos(a), np.sin(a)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    u, v = xs - cx, ys - cy
    return ca * v - sa * u + cy, ca * u + sa * v + cx      # (src_y, src_x)


def rotate_image(img, spec: RotationSpec):
    """Rotate the last two axes by spec.angle about the center.

    Multiples of 90 degrees with nearest interpolation dispatch to exact grid
    permutations (bitwise, any dtype).
    """
    arr = np.asarray(img)
    quarter, rem = divmod(spec.angle, 90.0)
    if rem == 0.0 and spec.interpolation == "nearest":
        return np.ascontiguousarray(np.rot90(arr, -int(quarter), axes=(-2, -1)))
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    h, w = arr.shape[-2:]
    sy, sx = _source_coords(h, w, spec.angle)
    order = {"nearest": 0, "bilinear": 1, "bicubic": 3}[spec.interpolation]
    flat = arr.reshape(-1, h, w)
    out = np.empty(flat.shape, arr.dtype)
    for ch, dst in zip(flat, out):
        map_coordinates(ch, [sy, sx], output=dst, order=order, mode="constant",
                        cval=0.0, prefilter=order > 1)
    return out.reshape(arr.shape)


def preprocess(img, pad: int, upscale_factor: int):
    """Zero-pad the last two axes, then bilinear-upscale by an integer factor
    (pixel centers aligned, edges clamped, so constants stay constant)."""
    if pad < 0 or upscale_factor < 1 or int(upscale_factor) != upscale_factor:
        raise ConfigError(f"need pad >= 0 and integer upscale_factor >= 1, "
                          f"got pad={pad}, factor={upscale_factor}")
    arr = np.asarray(img)
    if pad:
        width = [(0, 0)] * (arr.ndim - 2) + [(pad, pad), (pad, pad)]
        arr = np.pad(arr, width)
    f = int(upscale_factor)
    if f == 1:
        return arr
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    h, w = arr.shape[-2:]
    yy = (np.arange(h * f) + 0.5) / f - 0.5
    xx = (np.arange(w * f) + 0.5) / f - 0.5
    sy, sx = np.meshgrid(yy, xx, indexing="ij")
    flat = arr.reshape(-1, h, w)
    out = np.empty((len(flat), h * f, w * f), arr.dtype)
    for ch, dst in zip(flat, out):
        map_coordinates(ch, [sy, sx], output=dst, order=1, mode="nearest")
    return out.reshape(arr.shape[:-2] + (h * f, w * f))


# ---------------------------------------------------------------------------
# benchmark construction
# ---------------------------------------------------------------------------

BENCHMARKS = ("mnist-rot-test", "rotated-mnist", "cifar-rot-test")

_MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
_AMAT_FILES = ("mnist_all_rotation_normalized_float_train_valid.amat",
               "mnist_all_rotation_normalized_float_test.amat")
_CIFAR_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",)

_DOWNLOAD_HINTS = {
    "mnist-rot-test": "decompressed MNIST IDX files (yann.lecun.com/exdb/mnist)",
    "rotated-mnist": "the Larochelle et al. rotated-MNIST AMAT files",
    "cifar-rot-test": "CIFAR-10 binary batches (cs.toronto.edu/~kriz/cifar.html)",
}


def _require(root: Path, names, benchmark: str) -> list:
    paths = [root / n for n in names]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        raise DataNotFoundError(
            f"{benchmark}: missing {missing} under {root}; "
            f"place {_DOWNLOAD_HINTS[benchmark]} there")
    return paths


def _rotate_set(ds: LabeledImageSet, seed: int, benchmark: str) -> LabeledImageSet:
    """Per-sample uniform random angle in [0, 360), bilinear, seeded."""
    rng = derive_rng(seed, benchmark)
    angles = rng.uniform(0.0, 360.0, size=len(ds))
    rotated = np.stack([
        rotate_image(img, RotationSpec(a, "bilinear"))
        for img, a in zip(ds.images, angles)]) if len(ds) else ds.images
    prov = dict(ds.provenance)
    prov["rotation"] = {"seed": seed, "distribution": "uniform[0,360)",
                        "interpolation": "bilinear"}
    return LabeledImageSet(rotated.astype(np.float32), ds.labels, ds.split, prov)


def build_benchmark(name: str, root, seed: int = 0) -> dict:
    """Return {"train", "val", "test"} LabeledImageSets.

    mnist-rot-test / cifar-rot-test: upright train/val (val is the canonical
    tail fraction of the train source), test rotated per sample.
    rotated-mnist: canonical AMAT splits used as-is.
    Pure function of (source files, seed).
    """
    root = Path(root)
    if name == "mnist-rot-test":
        ti, tl, ei, el = _require(root, _MNIST_FILES, name)
        full = load_idx(ti, tl, "train")
        n_val = len(full) * 10000 // 60000
        train = full.slice(0, len(full) - n_val)
        val = full.slice(len(full) - n_val, len(full), "val")
        test = _rotate_set(load_idx(ei, el, "test"), seed, name)
    elif name == "rotated-mnist":
        tv_path, test_path = _require(root, _AMAT_FILES, name)
        tv = load_amat(tv_path, "train")
        n_val = len(tv) * 2000 // 12000
        train = tv.slice(0, len(tv) - n_val)
        val = tv.slice(len(tv) - n_val, len(tv), "val")
        test = load_amat(test_path, "test")
    elif name == "cifar-rot-test":
        paths = _require(root, _CIFAR_FILES, name)
        parts = [read_cifar_batch(p) for p in paths[:-1]]
        images = np.concatenate([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
        prov = {"sources": [str(p) for p in paths[:-1]],
                "crc32": [_crc(p) for p in paths[:-1]]}
        full = LabeledImageSet(images, labels, "train", prov)
        n_val = len(full) * 8000 // 50000
        train = full.slice(0, len(full) - n_val)
        val = full.slice(len(full) - n_val, len(full), "val")
        te_images, te_labels = read_cifar_batch(paths[-1])
        test = _rotate_set(
            LabeledImageSet(te_images, te_labels, "test",
                            {"source": str(paths[-1]), "crc32": _crc(paths[-1])}),
            seed, name)
    else:
        raise ConfigError(f"unknown benchmark {name!r}; valid: {BENCHMARKS}")
    return {"train": train, "val": val, "test": test}
