"""Seeded synthetic rotated-digit sets, ingested through harmnet's IDX reader.

No dataset can be downloaded, so the benchmark draws seven-segment digit
glyphs with jittered vertices, slant, scale, offset and stroke width, turns
each by a seeded angle with ``harmnet.data.rotate_image``, quantizes to uint8
and writes the IDX image/label pair that ``harmnet.data.load_idx`` parses.
The same (seed, name, count) always yields the same bytes.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
from harmnet import data as hdata

SIZE = 28

# Seven-segment layout on a 2 x 4 unit box (x right, y down), vertex ids:
#   0 1
#   2 3
#   4 5
_VERTICES = np.array([(-1, -2), (1, -2), (-1, 0), (1, 0), (-1, 2), (1, 2)], dtype=np.float64)
_SEGMENTS = {"a": (0, 1), "b": (1, 3), "c": (3, 5), "d": (4, 5),
             "e": (2, 4), "f": (0, 2), "g": (2, 3)}
_DIGITS = ("abcdef", "bc", "abged", "abgcd", "fgbc", "afgcd", "afgedc", "abc",
           "abcdefg", "abfgcd")


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent generator per (seed, purpose); owned by the benchmark so
    its inputs do not change when the program's own seeding changes."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(name.encode())))))


def render_digit(rng: np.random.Generator, digit: int) -> np.ndarray:
    """One upright anti-aliased glyph, float64 (SIZE, SIZE) in [0, 1]."""
    scale = rng.uniform(2.6, 3.4)
    slant = rng.uniform(-0.25, 0.25)
    half_width = rng.uniform(0.8, 1.5)
    verts = _VERTICES + rng.normal(0.0, 0.12, size=_VERTICES.shape)
    x = verts[:, 0] + slant * verts[:, 1]
    centre = (SIZE - 1) / 2.0 + rng.uniform(-1.5, 1.5, size=2)
    pts = np.stack([centre[0] + scale * x, centre[1] + scale * verts[:, 1]], axis=1)
    ends = np.array([_SEGMENTS[s] for s in _DIGITS[digit]])
    a, b = pts[ends[:, 0]], pts[ends[:, 1]]                       # (S, 2)
    ys, xs = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
    p = np.stack([xs.ravel(), ys.ravel()], axis=1)                # (P, 2)
    ab = b - a
    t = np.clip(((p[None] - a[:, None]) * ab[:, None]).sum(-1) / (ab * ab).sum(-1)[:, None], 0.0, 1.0)
    d = np.linalg.norm(p[None] - (a[:, None] + t[..., None] * ab[:, None]), axis=-1)
    return np.clip(half_width + 0.5 - d, 0.0, 1.0).max(axis=0).reshape(SIZE, SIZE)


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """IDX pair: big-endian magic and dimensions, then raw uint8 payload."""
    n = len(images)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", hdata.IDX_IMAGES_MAGIC, n, SIZE, SIZE))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", hdata.IDX_LABELS_MAGIC, n))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def digit_set(seed: int, name: str, count: int, workdir: Path) -> hdata.LabeledImageSet:
    """`count` rotated digits with labels, round-tripped through IDX files."""
    rng = rng_for(seed, f"digits/{name}")
    labels = rng.integers(0, 10, size=count)
    angles = rng.uniform(0.0, 360.0, size=count)
    images = np.empty((count, SIZE, SIZE), dtype=np.uint8)
    for i, (digit, angle) in enumerate(zip(labels, angles)):
        glyph = hdata.rotate_image(render_digit(rng, int(digit)), hdata.RotationSpec(angle, "bilinear"))
        images[i] = np.round(np.clip(glyph, 0.0, 1.0) * 255.0)
    images_path = Path(workdir) / f"{name}-images-idx3-ubyte"
    labels_path = Path(workdir) / f"{name}-labels-idx1-ubyte"
    write_idx(images_path, labels_path, images, labels)
    return hdata.load_idx(images_path, labels_path, name)
