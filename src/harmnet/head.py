"""Invariant classifier head.

Features arrive as plain (B, O, n, d) order-axis tensors.  Rotating the
input multiplies each order's matrix by a unit phase and permutes the patch
rows; dropping phase (magnitude) and averaging over patches removes
both, so the produced feature vector — and therefore the logits — is exactly
rotation-invariant at grid angles.  Phase-based orientation readout is out of
scope here.
"""

import numpy as np

import harmnet.ctensor as ct
from harmnet.errors import ShapeError
from harmnet.stem import ORDERS


def invariant_readout(p: ct.CTensor) -> ct.CTensor:
    """(B, O, n, d) streams -> real (B, O*d): per-order magnitudes averaged
    over the n patches, orders laid side by side along the feature axis."""
    b, o, _, d = p.shape
    return ct.reshape(ct.mean(ct.magnitude(p), axis=2), (b, o * d))


def classify(feat: ct.CTensor, w: ct.CTensor, b: ct.CTensor) -> ct.CTensor:
    """Real affine map (B, F) @ (F, C) + (C,) -> logits (B, C)."""
    if feat.data.shape[-1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[-1]:
        raise ShapeError(
            f"classify shapes do not chain: feat {feat.data.shape}, "
            f"w {w.data.shape}, b {b.data.shape}")
    return ct.add(ct.complex_matmul(feat, w), b)


class Head:
    """Readout + linear classifier with named real parameters."""

    def __init__(self, name, d, classes, rng):
        self.name = name
        self.d = d
        self.classes = classes
        feat = len(ORDERS) * d   # one magnitude mean per order and channel
        scale = 1.0 / np.sqrt(feat)
        self.params = {
            f"{name}.w": rng.uniform(-scale, scale, size=(feat, classes)),
            f"{name}.b": np.zeros(classes),
        }

    def forward(self, p: ct.CTensor, leaves) -> ct.CTensor:
        if p.shape[-1] != self.d:
            raise ShapeError(f"head expects d={self.d}, got {p.shape[-1]}")
        feat = invariant_readout(p)
        return classify(feat, leaves[f"{self.name}.w"], leaves[f"{self.name}.b"])
