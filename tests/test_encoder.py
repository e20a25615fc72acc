"""Encoder tests: patch construction, shared linear maps, layer norm,
order-law attention, RPE invariance, mixing strategies, full blocks.

Rotating the source image by 90 degrees acts on an (n x d) patch matrix as a
fixed row permutation plus the stream phase e^{i m alpha}; those two pieces
are exact, so every check here runs at machine precision.  The mixing_all
strategy is validated against a from-scratch numpy enumeration of all
(query, key, value) order triples.
"""

import itertools

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.encoder as enc
import harmnet.stem as hs
from harmnet.constants import EPS
from harmnet.errors import ConfigError, ShapeError


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def const_leaves(params):
    return {k: ct.CTensor(v) for k, v in params.items()}


def rand_stack(rng, b, h, w, d, orders=(-1, 0, 1)):
    return enc.PatchStack.from_streams({m: crandn(rng, b, h * w, d) for m in orders}, (h, w))


def rot_perm(h, w, quarter_turns=1):
    """Row permutation induced by the grid rotation rot_{90q}."""
    idx = np.arange(h * w).reshape(h, w)
    return np.rot90(idx, -quarter_turns).ravel()


def rot_stack(p, quarter_turns=1):
    """Group action on patches: row permutation + phase e^{i m alpha}."""
    perm = rot_perm(*p.grid_shape, quarter_turns)
    out = {}
    for m in p.orders:
        ph = np.exp(1j * m * quarter_turns * np.pi / 2)
        out[m] = ph * p.stream(m).data[:, perm, :]
    return enc.PatchStack.from_streams(out, p.grid_shape)


def stack_error(a, b):
    num = max(np.linalg.norm(a.stream(m).data - b.stream(m).data) for m in a.orders)
    den = max(np.linalg.norm(b.stream(m).data) for m in b.orders)
    return num / max(den, 1e-12)


# ---------------------------------------------------------------------------
# patch construction
# ---------------------------------------------------------------------------

def test_patchify_roundtrip_and_rows():
    rng = ct.make_rng(40)
    x = hs.StreamedFeatureMap.from_streams({m: crandn(rng, 2, 3, 2, 2) for m in (-1, 0, 1)})
    p = enc.patchify(x)
    assert p.shape == (2, 3, 4, 3)
    # row i holds the channel vector at spatial position i (row-major)
    assert np.array_equal(p.stream(0).data[1, 3], x.stream(0).data[1, :, 1, 1])
    back = enc.unpatchify(p)
    for m in (-1, 0, 1):
        assert np.array_equal(back.stream(m).data, x.stream(m).data)


def test_patchify_rotation_is_row_permutation():
    rng = ct.make_rng(41)
    x = hs.StreamedFeatureMap.from_streams({m: crandn(rng, 1, 2, 4, 4) for m in (-1, 0, 1)})
    rotated = hs.StreamedFeatureMap.from_streams(
        {m: np.rot90(x.stream(m).data, -1, axes=(2, 3)).copy() for m in (-1, 0, 1)})
    perm = rot_perm(4, 4, 1)
    p = enc.patchify(x)
    pr = enc.patchify(rotated)
    for m in (-1, 0, 1):
        assert np.array_equal(pr.stream(m).data, p.stream(m).data[:, perm, :])


# ---------------------------------------------------------------------------
# equi_linear
# ---------------------------------------------------------------------------

def test_equi_linear_identity_zero_and_he():
    rng = ct.make_rng(42)
    p = rand_stack(rng, 2, 2, 2, 3)
    eye = ct.CTensor(np.eye(3, dtype=np.complex128))
    same = enc.equi_linear(p, eye)
    for m in (-1, 0, 1):
        assert np.allclose(same.stream(m).data, p.stream(m).data)
    w = ct.CTensor(crandn(rng, 3, 5))
    lhs = enc.equi_linear(rot_stack(p), w)
    rhs = rot_stack(enc.equi_linear(p, w))
    assert stack_error(lhs, rhs) < 1e-14
    zero = p.with_tensor(ct.CTensor(np.zeros_like(p.tensor.data)))
    assert np.all(enc.equi_linear(zero, w).stream(0).data == 0)
    with pytest.raises(ShapeError):
        enc.equi_linear(p, ct.CTensor(crandn(rng, 4, 5)))


# ---------------------------------------------------------------------------
# he_layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_column_and_eps_guard():
    col = np.array([1.0 + 0j, -1.0 + 0j]).reshape(1, 2, 1)
    p = enc.PatchStack.from_streams(
        {0: np.concatenate([np.full((1, 2, 1), 3.3 + 1j), col], axis=2)}, (2, 1))
    y = enc.he_layer_norm(p).stream(0).data
    assert np.max(np.abs(y[:, :, 0])) < 1e-12          # constant column -> zero
    # column [1, -1]: mean 0, centered magnitudes both 1, their std is 0,
    # so the output is [1, -1] / (0 + eps)
    assert np.allclose(y[:, :, 1], col[:, :, 0] / EPS, rtol=1e-12)


def test_layer_norm_rms_mode_differs():
    col = np.array([1.0 + 0j, -1.0 + 0j]).reshape(1, 2, 1)
    p = enc.PatchStack.from_streams({0: col}, (2, 1))
    y = enc.he_layer_norm(p, mode="rms").stream(0).data
    # rms of centered magnitudes is 1 -> output ~ [1, -1] / (1 + eps)
    assert np.allclose(y[:, :, 0], col[:, :, 0] / (1.0 + EPS), rtol=1e-12)
    with pytest.raises(ConfigError):
        enc.he_layer_norm(p, mode="nope")
    with pytest.raises(ShapeError):
        enc.he_layer_norm(enc.PatchStack.from_streams({0: col[:, :1]}, (1, 1)))


def test_layer_norm_he_90_and_pure_phase():
    rng = ct.make_rng(43)
    p = rand_stack(rng, 2, 3, 3, 4)
    lhs = enc.he_layer_norm(rot_stack(p))
    rhs = rot_stack(enc.he_layer_norm(p))
    assert stack_error(lhs, rhs) < 1e-12
    alpha = 0.7
    phased = enc.PatchStack.from_streams({m: np.exp(1j * m * alpha) * p.stream(m).data
                                          for m in p.orders}, p.grid_shape)
    lhs2 = enc.he_layer_norm(phased)
    base = enc.he_layer_norm(p)
    rhs2 = enc.PatchStack.from_streams({m: np.exp(1j * m * alpha) * base.stream(m).data
                                        for m in p.orders}, p.grid_shape)
    assert stack_error(lhs2, rhs2) < 1e-12


# ---------------------------------------------------------------------------
# folded attention scores and magnitude_softmax
# ---------------------------------------------------------------------------

def test_folded_self_score_is_real_nonnegative():
    z = ct.CTensor(np.array(2.0 * np.exp(1j * 0.9)).reshape(1, 1, 1, 1))
    zf = enc.fold_orders(z, 1)
    s = enc.group_score(zf, zf, 1, 0, 0, 1).data
    assert abs(s.imag.max()) < 1e-15
    assert s.reshape(()) == pytest.approx(4.0)          # |z|^2 / sqrt(1)
    # over a run of three orders the self score sums |z_m|^2 on its diagonal
    rng = ct.make_rng(58)
    f = crandn(rng, 1, 3, 4, 2)
    ff = enc.fold_orders(ct.CTensor(f), 1)
    s = enc.group_score(ff, ff, 2, 0, 0, 3).data[0, 0]
    assert np.max(np.abs(s - s.conj().T)) < 1e-14
    assert np.allclose(np.diag(s), (np.abs(f[0]) ** 2).sum(axis=(0, 2)), rtol=1e-14)


def test_order_subtraction_law_all_pairs():
    rng = ct.make_rng(44)
    h = w = 3
    n, d = h * w, 4
    perm = rot_perm(h, w, 1)
    alpha = np.pi / 2
    orders = (-1, 0, 1)
    f = crandn(rng, 1, 3, n, d)
    phase = np.exp(1j * np.array(orders) * alpha).reshape(1, 3, 1, 1)
    ff = enc.fold_orders(ct.CTensor(f), 1)
    fr = enc.fold_orders(ct.CTensor(phase * f[:, :, perm, :]), 1)
    for i1, m1 in enumerate(orders):
        for i2, m2 in enumerate(orders):
            s = enc.group_score(ff, ff, d, i1, i2, 1).data
            sr = enc.group_score(fr, fr, d, i1, i2, 1).data
            expected = np.exp(1j * (m1 - m2) * alpha) * s[..., perm, :][..., perm]
            assert np.max(np.abs(sr - expected)) < 1e-10, (m1, m2)
            # the folded pair score is the plain per-order product
            plain = f[0, i1] @ f[0, i2].conj().T
            assert np.max(np.abs(s[0, 0] - plain)) < 1e-12, (m1, m2)
    # every group of mixing_all: a run of pairs keeps the law of its m_d
    for md, (iq, ik, count, *_) in enc.score_groups("mixing_all", orders).items():
        s = enc.group_score(ff, ff, d, iq, ik, count).data
        sr = enc.group_score(fr, fr, d, iq, ik, count).data
        expected = np.exp(1j * md * alpha) * s[..., perm, :][..., perm]
        assert np.max(np.abs(sr - expected)) < 1e-10, md


def test_score_groups_are_the_strategies_pair_sets():
    orders = (-1, 0, 1)
    assert enc.score_groups("harmformer_default", orders) == {0: (0, 0, 3, 0, 0, 3)}
    assert enc.score_groups("cross_values", orders) == {0: (1, 1, 1, 0, 0, 3)}
    groups = enc.score_groups("mixing_all", orders)
    assert list(groups) == [0, -1, -2, 1, 2]            # order of first pairs
    assert sum(g[2] for g in groups.values()) == 9
    # m_d = +1 scores (0, -1) and (+1, 0); carries values -1, 0 to 0, +1
    assert groups[1] == (1, 0, 2, 0, 1, 2)
    # m_d = -2 scores (-1, +1); carries value +1 to -1
    assert groups[-2] == (0, 2, 1, 2, 0, 1)
    assert enc.score_groups("harmformer_default", (0,)) == {0: (0, 0, 1, 0, 0, 1)}
    with pytest.raises(ShapeError):
        enc.score_groups("cross_values", (-1, 1))
    with pytest.raises(ConfigError):
        enc.score_groups("sideways", orders)


@pytest.mark.parametrize("strategy", enc.STRATEGIES)
def test_score_groups_runs_cover_exactly_the_scored_pairs(strategy):
    # the runs stand for the strategy's pair set over every ascending order
    # subset a stack can carry, and carry each value order m_v to m_v + m_d
    subsets = [o for r in (1, 2, 3) for o in itertools.combinations(hs.ORDERS, r)]
    for orders in subsets:
        want = {(mq, mk) for mq in orders for mk in orders if enc.SCORED_PAIRS[strategy](mq, mk)}
        if not want:
            continue
        got, carried = set(), set()
        for md, (iq, ik, count, iv, io, n_v) in enc.score_groups(strategy, orders).items():
            got |= {(orders[iq + j], orders[ik + j]) for j in range(count)}
            assert all(orders[iq + j] - orders[ik + j] == md for j in range(count))
            carried |= {(md, orders[iv + j], orders[io + j]) for j in range(n_v)}
        assert got == want, orders
        assert carried == {(mq - mk, mv, mv + mq - mk) for mq, mk in want for mv in orders
                           if mv + mq - mk in orders}, orders


def test_matmul_order_addition_law():
    rng = ct.make_rng(45)
    n, d = 4, 3
    perm = rng.permutation(n)          # any permutation works for the law
    alpha = np.pi / 2
    for m1 in (-1, 0, 1):
        for m2 in (-1, 0, 1):
            a = crandn(rng, n, n)
            v = crandn(rng, n, d)
            ar = np.exp(1j * m1 * alpha) * a[perm][:, perm]
            vr = np.exp(1j * m2 * alpha) * v[perm]
            out = ct.complex_matmul(ct.CTensor(ar), ct.CTensor(vr)).data
            expected = np.exp(1j * (m1 + m2) * alpha) * (a @ v)[perm]
            assert np.max(np.abs(out - expected)) < 1e-10, (m1, m2)


def test_magnitude_softmax_uniform_saturation_rows():
    four = ct.CTensor(np.full((1, 4, 4), 1.0 * np.exp(1j * 0.3)))
    a = enc.magnitude_softmax(four).data
    assert np.allclose(np.abs(a), 0.25)
    big = np.ones((1, 2, 2), dtype=np.complex128)
    big[0, 0, 0] = 60.0
    asat = enc.magnitude_softmax(ct.CTensor(big)).data
    assert abs(asat[0, 0, 0]) > 1 - 1e-12
    rng = ct.make_rng(46)
    s = ct.CTensor(crandn(rng, 2, 5, 5))
    out = enc.magnitude_softmax(s).data
    assert np.max(np.abs(np.abs(out).sum(axis=-1) - 1.0)) < 1e-12
    phases_in = s.data / np.abs(s.data)
    phases_out = out / np.abs(out)
    assert np.max(np.abs(phases_in - phases_out)) < 1e-12
    flat = enc.magnitude_softmax(s, keep_phase=False).data
    assert np.max(np.abs(flat.imag)) == 0.0


def test_magnitude_softmax_bias_shifts_weights():
    s = ct.CTensor(np.ones((1, 2, 2), dtype=np.complex128))
    bias = ct.CTensor(np.array([[3.0, 0.0], [0.0, 3.0]]))
    a = enc.magnitude_softmax(s, bias).data
    assert abs(a[0, 0, 0]) > abs(a[0, 0, 1])
    with pytest.raises(ShapeError):
        enc.magnitude_softmax(s, ct.CTensor(np.ones((3, 3))))


# ---------------------------------------------------------------------------
# fused magnitude layers: one tape node each, finite-difference checked
# ---------------------------------------------------------------------------

def l2_loss(y, target):
    d = ct.magnitude(ct.sub(y, ct.CTensor(target)))
    return ct.sum_(ct.mul(d, d))


def check_fused_layer(layer, x, special, params, tol=1e-4):
    """FD-check layer(z, leaves) -> complex tensor over x and params, where z
    is x off the boolean `special` mask and fixed at x there (exact zeros and
    constant-magnitude groups, whose one-sided or eps-scale slopes no central
    difference resolves); then backward with z = x tracked.  Returns the
    gradients, all finite."""
    target = crandn(ct.make_rng(98), *x.shape)
    keep, fixed = ct.CTensor((~special).astype(np.float64)), ct.CTensor(np.where(special, x, 0))

    def f(p):
        return l2_loss(layer(ct.add(ct.mul(p["x"], keep), fixed), p), target)

    err = ct.finite_difference_check(f, {"x": x, **params})
    assert err < tol, err
    tape = ct.GradTape()
    leaves = {k: tape.parameter(k, v) for k, v in {"x": x, **params}.items()}
    grads = ct.backward(tape, l2_loss(layer(leaves["x"], leaves), target))
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    return grads


def special_scores(seed):
    """(2, 2, 4, 4) attention scores, or a (B, O, n, d) = (2, 2, 4, 4) patch
    stack, with an exact zero at [0, 1, 2, 3], a constant-magnitude
    [1, 0, 1] row and a constant-magnitude [0, 0, :, 2] column; their mask."""
    rng = ct.make_rng(seed)
    x = crandn(rng, 2, 2, 4, 4)
    special = np.zeros(x.shape, dtype=bool)
    x[0, 1, 2, 3] = 0
    x[1, 0, 1] = 0.8 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))
    x[0, 0, :, 2] = 1.2 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))
    for idx in ((0, 1, 2, 3), (1, 0, 1), (0, 0, slice(None), 2)):
        special[idx] = True
    return x, special


def softmax_layer(bias):
    def run(z, leaves):
        return enc.magnitude_softmax(z, leaves["bias"] if bias else None)
    return run, ({"bias": ct.make_rng(60).standard_normal((2, 4, 4))} if bias else {})


def stack_layer(fn, **params):
    def run(z, leaves):
        return fn(enc.PatchStack(z, (0, 1), (2, 2)), leaves).tensor
    return run, params


FUSED_ENCODER_LAYERS = {
    "magnitude_softmax": lambda: softmax_layer(False),
    "magnitude_softmax_rpe": lambda: softmax_layer(True),
    "crelu_ab": lambda: stack_layer(lambda p, lv: enc.crelu_ab(p, lv["a"], lv["b"]),
                                    a=np.array([1.2, -0.7, 0.9, 0.5]),
                                    b=np.array([-0.3, 0.4, 0.1, -0.6])),
    "he_layer_norm_std": lambda: stack_layer(lambda p, _: enc.he_layer_norm(p)),
    "he_layer_norm_rms": lambda: stack_layer(lambda p, _: enc.he_layer_norm(p, mode="rms")),
}


@pytest.mark.parametrize("name", sorted(FUSED_ENCODER_LAYERS))
def test_fd_fused_encoder_layers(name):
    layer, params = FUSED_ENCODER_LAYERS[name]()
    x, special = special_scores(61)
    grads = check_fused_layer(layer, x, special, params)
    if not name.startswith("he_layer_norm"):   # the norms center first
        assert grads["x"][0, 1, 2, 3] == 0     # zero gradient at z = 0


DTYPE_LAYERS = {
    **FUSED_ENCODER_LAYERS,
    "magnitude_dropout": lambda: stack_layer(
        lambda p, _: enc.magnitude_dropout(p, 0.5, ct.make_rng(3), True)),
}


@pytest.mark.parametrize("name", sorted(DTYPE_LAYERS))
def test_complex64_input_stays_complex64(name):
    layer, params = DTYPE_LAYERS[name]()
    x, _ = special_scores(62)
    leaves = {k: ct.CTensor(v.astype(np.float32)) for k, v in params.items()}
    assert layer(ct.CTensor(x.astype(np.complex64)), leaves).data.dtype == np.complex64


# ---------------------------------------------------------------------------
# RPE
# ---------------------------------------------------------------------------

def test_rpe_buckets_symmetric_distance_only():
    rpe = enc.RpeTable("rpe", (4, 4), heads=2, num_buckets=16)
    b = rpe.bucket_of
    assert np.array_equal(b, b.T)
    assert np.all(np.diag(b) == 0)
    assert b[0, 1] == 1                                 # distance 1
    assert b[0, 5] == 2                                 # distance sqrt(2) -> ceil = 2
    rng = ct.make_rng(47)
    leaves = {"rpe.bias": ct.CTensor(rng.standard_normal((2, 16)))}
    for head in (0, 1):
        mat = rpe.bias_matrix(leaves).data[head]
        for q in (1, 2, 3):
            perm = rot_perm(4, 4, q)
            assert np.array_equal(mat[perm][:, perm], mat)   # B = P B P^T exactly


def test_rpe_bucket_cap():
    rpe = enc.RpeTable("rpe", (16, 16), heads=1, num_buckets=16)
    assert rpe.bucket_of.max() == 15


# ---------------------------------------------------------------------------
# msa_forward
# ---------------------------------------------------------------------------

def make_block(rng, d=4, heads=1, grid=(2, 2), **kw):
    return enc.EncoderBlock("blk", d, heads, grid, rng, **kw)


def test_msa_single_patch_attention_is_identity_weight():
    rng = ct.make_rng(48)
    d = 3
    p = enc.PatchStack.from_streams({m: crandn(rng, 1, 1, d) for m in (-1, 0, 1)}, (1, 1))
    leaves = {
        "m.wq": ct.CTensor(np.eye(d, dtype=np.complex128)),
        "m.wk": ct.CTensor(np.eye(d, dtype=np.complex128)),
        "m.wv": ct.CTensor(np.eye(d, dtype=np.complex128)),
        "m.wo": ct.CTensor(np.eye(d, dtype=np.complex128)),
    }
    out = enc.msa_forward(p, leaves, "m", heads=1, keep_phase=False)
    for m in (-1, 0, 1):
        assert np.allclose(out.stream(m).data, p.stream(m).data, atol=1e-12)
    kept = enc.msa_forward(p, leaves, "m", heads=1, keep_phase=True)
    for m in (-1, 0, 1):
        assert np.allclose(np.abs(kept.stream(m).data), np.abs(p.stream(m).data), atol=1e-12)


@pytest.mark.parametrize("strategy", enc.STRATEGIES)
def test_msa_he_at_90_all_strategies(strategy):
    rng = ct.make_rng(49)
    d, heads = 4, 2
    blk = make_block(rng, d=d, heads=heads, grid=(3, 3), strategy=strategy)
    params = dict(blk.params)
    params["blk.rpe.bias"] = rng.standard_normal((heads, 16))   # nonzero bias
    leaves = const_leaves(params)
    p = rand_stack(rng, 2, 3, 3, d)
    lhs = enc.msa_forward(rot_stack(p), leaves, "blk", heads, strategy, blk.rpe)
    rhs = rot_stack(enc.msa_forward(p, leaves, "blk", heads, strategy, blk.rpe))
    assert stack_error(lhs, rhs) < 1e-8


def test_head_width_decoupled_from_model_dim():
    rng = ct.make_rng(57)
    blk = make_block(rng, d=4, heads=3, grid=(2, 2), head_dim=2)
    assert blk.params["blk.wq"].shape == (4, 6)
    assert blk.params["blk.wo"].shape == (6, 4)
    p = rand_stack(rng, 1, 2, 2, 4)
    leaves = const_leaves(blk.params)
    out = blk.forward(p, leaves)
    assert out.shape == (1, 3, 4, 4)
    lhs = blk.forward(rot_stack(p), leaves)
    rhs = rot_stack(blk.forward(p, leaves))
    assert stack_error(lhs, rhs) < 1e-8


def test_msa_rejects_bad_config():
    rng = ct.make_rng(50)
    p = rand_stack(rng, 1, 2, 2, 3)
    blk = make_block(rng, d=4)
    with pytest.raises(ConfigError):
        enc.msa_forward(p, const_leaves(blk.params), "blk", heads=2)
    with pytest.raises(ConfigError):
        make_block(rng, strategy="sideways")


def softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def phase_np(z):
    a = np.abs(z)
    return np.where(a == 0, 1.0 + 0j, z / np.where(a == 0, 1, a))


@pytest.mark.parametrize("strategy", enc.STRATEGIES)
def test_f32_attention_stays_complex64(strategy):
    rng = ct.make_rng(59)
    d, heads = 4, 2
    blk = make_block(rng, d=d, heads=heads, grid=(3, 3), strategy=strategy)
    leaves = {k: ct.CTensor(v.astype(np.complex64 if np.iscomplexobj(v) else np.float32))
              for k, v in blk.params.items()}
    p = enc.PatchStack(ct.CTensor(crandn(rng, 2, 3, 9, d).astype(np.complex64)),
                       (-1, 0, 1), (3, 3))
    out = enc.msa_forward(p, leaves, "blk", heads, strategy, blk.rpe)
    assert out.tensor.data.dtype == np.complex64


def test_mixing_all_matches_enumeration_oracle():
    rng = ct.make_rng(51)
    n, d = 2, 2
    p = enc.PatchStack.from_streams({m: crandn(rng, 1, n, d) for m in (-1, 0, 1)}, (2, 1))
    eye = np.eye(d, dtype=np.complex128)
    leaves = {f"m.w{x}": ct.CTensor(eye) for x in "qkvo"}
    out = enc.msa_forward(p, leaves, "m", heads=1, strategy="mixing_all")

    # independent enumeration: dot products grouped by m_q - m_k, softmax on
    # magnitudes per group (phases kept), every valid (group, value) pairing
    f = {m: p.stream(m).data[0] for m in (-1, 0, 1)}
    groups = {}
    triples = 0
    for mq in (-1, 0, 1):
        for mk in (-1, 0, 1):
            s = f[mq] @ f[mk].conj().T / np.sqrt(d)
            groups[mq - mk] = groups.get(mq - mk, 0) + s
    expected = {m: np.zeros((n, d), dtype=np.complex128) for m in (-1, 0, 1)}
    for md, s in groups.items():
        a = softmax_np(np.abs(s)) * phase_np(s)
        for mv in (-1, 0, 1):
            if md + mv in expected:
                npairs = {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}[md]
                triples += npairs
                expected[md + mv] += a @ f[mv]
    assert triples == 19                                # valid triples of the 27
    for m in (-1, 0, 1):
        assert np.max(np.abs(out.stream(m).data[0] - expected[m])) < 1e-12


def test_cross_values_uses_order0_attention_only():
    rng = ct.make_rng(52)
    n, d = 3, 2
    streams = {m: crandn(rng, 1, n, d) for m in (-1, 0, 1)}
    p = enc.PatchStack.from_streams(streams, (3, 1))
    eye = np.eye(d, dtype=np.complex128)
    leaves = {f"m.w{x}": ct.CTensor(eye) for x in "qkvo"}
    out = enc.msa_forward(p, leaves, "m", heads=1, strategy="cross_values")
    f0 = streams[0][0]
    s = f0 @ f0.conj().T / np.sqrt(d)
    a = softmax_np(np.abs(s)) * phase_np(s)
    for m in (-1, 0, 1):
        expected = a @ streams[m][0]
        assert np.max(np.abs(out.stream(m).data[0] - expected)) < 1e-12


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------

def test_block_zero_projections_is_identity():
    rng = ct.make_rng(53)
    blk = make_block(rng, d=4, grid=(2, 2))
    params = dict(blk.params)
    params["blk.wo"] = np.zeros_like(params["blk.wo"])
    params["blk.mlp.w2"] = np.zeros_like(params["blk.mlp.w2"])
    p = rand_stack(rng, 2, 2, 2, 4)
    out = blk.forward(p, const_leaves(params))
    for m in (-1, 0, 1):
        assert np.array_equal(out.stream(m).data, p.stream(m).data)


def test_three_stacked_blocks_he_at_90():
    rng = ct.make_rng(54)
    e = enc.Encoder("enc", blocks=3, d=4, heads=1, grid_shape=(3, 3), rng=rng)
    params = dict(e.params)
    for b in e.blocks:
        params[f"{b.name}.rpe.bias"] = rng.standard_normal((1, 16)) * 0.3
    leaves = const_leaves(params)
    p = rand_stack(rng, 1, 3, 3, 4)
    for q in (1, 2, 3):
        lhs = e.forward(rot_stack(p, q), leaves)
        rhs = rot_stack(e.forward(p, leaves), q)
        assert stack_error(lhs, rhs) < 1e-7, q


@pytest.mark.parametrize("strategy", enc.STRATEGIES)
def test_block_gradients_match_finite_differences(strategy):
    rng = ct.make_rng(55)
    blk = make_block(rng, d=2, grid=(2, 2), dropout=0.0, strategy=strategy)
    x = {m: crandn(rng, 1, 4, 2) for m in (-1, 0, 1)}
    t = {m: crandn(rng, 1, 4, 2) for m in (-1, 0, 1)}

    def f(leaves):
        p = enc.PatchStack.from_streams(x, (2, 2))
        y = blk.forward(p, leaves)
        total = None
        for m in (-1, 0, 1):
            dm = ct.magnitude(ct.sub(y.stream(m), ct.CTensor(t[m])))
            term = ct.sum_(ct.mul(dm, dm))
            total = term if total is None else ct.add(total, term)
        return total

    err = ct.finite_difference_check(f, blk.params, sample=6)
    assert err < 1e-4


def test_magnitude_dropout_shared_mask():
    rng = ct.make_rng(56)
    p = rand_stack(rng, 2, 2, 2, 4)
    out = enc.magnitude_dropout(p, 0.5, ct.make_rng(3), train=True)
    ratio0 = out.stream(0).data / p.stream(0).data
    for m in (-1, 0, 1):
        ratio = out.stream(m).data / p.stream(m).data
        assert np.allclose(ratio, ratio0)
    assert enc.magnitude_dropout(p, 0.5, ct.make_rng(3), train=False) is p
