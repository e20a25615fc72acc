"""Head tests: magnitude readout values, exact rotation invariance, affine map."""

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.head as hd
from harmnet.errors import ShapeError


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def stack(streams):
    """Per-order arrays {m: (B, n, d)} as one (B, O, n, d) tensor, orders ascending."""
    return ct.CTensor(np.stack([streams[m] for m in sorted(streams)], axis=1))


def rand_stack(rng, b, h, w, d):
    return stack({m: crandn(rng, b, h * w, d) for m in (-1, 0, 1)})


def test_readout_single_patch_magnitudes():
    vals = {-1: 1.0 + 0j, 0: 0.0 + 1j, 1: -1.0 + 0j}
    p = stack({m: np.array(v).reshape(1, 1, 1) for m, v in vals.items()})
    feat = hd.invariant_readout(p).data
    assert feat.shape == (1, 3)
    assert np.allclose(feat, [[1.0, 1.0, 1.0]])
    assert feat.dtype.kind == "f"


def test_readout_zero_input():
    p = stack({m: np.zeros((2, 4, 3), dtype=np.complex128) for m in (-1, 0, 1)})
    assert np.all(hd.invariant_readout(p).data == 0)


def test_readout_invariant_under_rotation_action():
    rng = ct.make_rng(60)
    p = rand_stack(rng, 2, 3, 3, 4)
    feat = hd.invariant_readout(p).data
    idx = np.arange(9).reshape(3, 3)
    for q in (1, 2, 3):
        perm = np.rot90(idx, -q).ravel()
        # exact unit phases (1, i, -1, -i), so each magnitude is bit-identical
        rotated = stack({m: (1j ** (m * q % 4)) * p.data[:, i][:, perm, :]
                         for i, m in enumerate((-1, 0, 1))})
        for i in range(3):
            assert np.array_equal(np.abs(rotated.data[:, i]),
                                  np.abs(p.data[:, i])[:, perm, :])
        # pooling over permuted rows differs only by summation order
        assert np.max(np.abs(hd.invariant_readout(rotated).data - feat)) < 1e-14


def test_classify_affine_cases():
    w0 = ct.CTensor(np.zeros((3, 4)))
    b = ct.CTensor(np.array([0.1, -0.2, 0.3, 0.0]))
    feat = ct.CTensor(np.ones((2, 3)))
    assert np.allclose(hd.classify(feat, w0, b).data, np.broadcast_to(b.data, (2, 4)))
    w = ct.CTensor(np.arange(12.0).reshape(3, 4))
    onehot = ct.CTensor(np.array([[0.0, 1.0, 0.0]]))
    assert np.allclose(hd.classify(onehot, w, b).data, w.data[1] + b.data)
    with pytest.raises(ShapeError):
        hd.classify(feat, ct.CTensor(np.zeros((5, 4))), b)


def test_head_module_shapes_and_gradients():
    rng = ct.make_rng(61)
    head = hd.Head("head", d=16, classes=10, rng=rng)
    assert head.params["head.w"].shape == (48, 10)
    assert sum(v.size for v in head.params.values()) == 490
    p = rand_stack(rng, 2, 2, 2, 16)
    leaves = {k: ct.CTensor(v) for k, v in head.params.items()}
    logits = head.forward(p, leaves)
    assert logits.data.shape == (2, 10)
    assert np.all(np.isfinite(logits.data))

    def f(lv):
        out = head.forward(p, lv)
        return ct.sum_(ct.mul(out, out))

    assert ct.finite_difference_check(f, head.params) < 1e-4
    with pytest.raises(ShapeError):
        head.forward(rand_stack(rng, 1, 2, 2, 3), leaves)
