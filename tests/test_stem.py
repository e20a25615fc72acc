"""Stem-stage tests: kernel synthesis, steerability, order-mixing convolution,
magnitude normalization, residuals, pooling, dropout.

The rotation-equivariance convention checked throughout: rotating the input
by alpha rotates every order-m stream spatially and multiplies it by
e^{i m alpha}.  At 90-degree multiples the grid rotation is exact, so the
checks here carry no interpolation error.
"""

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.stem as hs
from harmnet.constants import EPS
from harmnet.errors import ConfigError, ShapeError


def const_leaves(params):
    return {k: ct.CTensor(v) for k, v in params.items()}


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_sfm(rng, orders, b, c, h, w):
    return hs.StreamedFeatureMap.from_streams(
        {m: rng.standard_normal((b, c, h, w)) + 1j * rng.standard_normal((b, c, h, w))
         for m in orders})


def rot_grid(arr, quarter_turns):
    """rot_{90 q}: positive rotation goes from +x toward +y (image y points
    down), i.e. np.rot90 with a negative count."""
    return np.rot90(arr, -quarter_turns, axes=(2, 3)).copy()


def rot_sfm(x, quarter_turns=1):
    """The group action on streams: spatial rotation plus phase e^{i m alpha}."""
    out = {}
    for m in x.orders:
        ph = np.exp(1j * m * quarter_turns * np.pi / 2)
        out[m] = ph * rot_grid(x.stream(m).data, quarter_turns)
    return hs.StreamedFeatureMap.from_streams(out)


def sfm_error(a, b):
    num = max(np.linalg.norm(a.stream(m).data - b.stream(m).data) for m in a.orders)
    den = max(np.linalg.norm(b.stream(m).data) for m in b.orders)
    return num / max(den, 1e-12)


# ---------------------------------------------------------------------------
# kernel synthesis
# ---------------------------------------------------------------------------

def synthesize_one(profile, beta, m, k):
    """One k x k kernel from a radial profile and a phase offset."""
    radial = ct.CTensor(np.asarray(profile, dtype=np.float64).reshape(1, 1, -1))
    return hs.synthesize_block(radial, ct.CTensor(np.full((1, 1), beta)), m, k).data[0, 0]


def test_synthesize_order0_all_ones_profile():
    k = synthesize_one(np.ones(2), 0.0, m=0, k=3)
    assert np.allclose(k.imag, 0)
    assert k[1, 1] == pytest.approx(1.0)
    for y, x in ((0, 1), (2, 1), (1, 0), (1, 2)):
        assert k[y, x] == pytest.approx(1.0)       # r = 1 exactly
    for y, x in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert k[y, x] == 0.0                       # r = sqrt(2) > 1 -> zero


def test_synthesize_order1_reference_values():
    beta = 0.31
    prof = np.array([0.7, 1.3])
    k = synthesize_one(prof, beta, m=1, k=3)
    assert k[1, 1] == 0.0                           # center forced to zero for m != 0
    # (dy, dx) = (0, 1): theta = 0
    assert k[1, 2] == pytest.approx(1.3 * np.exp(1j * beta), abs=1e-14)
    # (dy, dx) = (1, 0): theta = pi/2
    assert k[2, 1] == pytest.approx(1.3 * np.exp(1j * (np.pi / 2 + beta)), abs=1e-14)


def test_synthesize_linear_interpolation_between_radii():
    prof = np.array([0.0, 2.0, 4.0])
    k = synthesize_one(prof, 0.0, m=0, k=5)
    r = np.sqrt(2.0)
    expected = 2.0 * (2.0 - r) + 4.0 * (r - 1.0)    # lerp between radii 1 and 2
    assert k[1, 1] == pytest.approx(expected, rel=1e-14)
    assert k[0, 0] == 0.0                           # r = 2*sqrt(2) beyond last radius
    assert k[0, 1] == 0.0                           # r = sqrt(5) > 2 as well


def test_synthesize_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        synthesize_one(np.ones(3), 0.0, m=0, k=4)
    with pytest.raises(ConfigError):
        synthesize_one(np.ones(4), 0.0, m=0, k=5)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_steerability_rot90_is_phase_multiplication(k):
    rng = ct.make_rng(100 + k)
    for m in (-2, -1, 0, 1, 2):
        for _ in range(5):
            prof = rng.uniform(-1, 1, size=hs.n_radii(k))
            beta = rng.uniform(-np.pi, np.pi)
            w = synthesize_one(prof, beta, m=m, k=k)
            rotated = np.rot90(w)
            expected = np.exp(1j * m * np.pi / 2) * w
            assert np.max(np.abs(rotated - expected)) < 1e-12, (k, m)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("in_orders, filter_orders, k", [
    pytest.param((0,), hs.ALL_FILTER_ORDERS, 5, id="lift"),
    pytest.param(hs.ORDERS, hs.ALL_FILTER_ORDERS, 3, id="full"),
    pytest.param(hs.ORDERS, (-1, 0), 3, id="partial"),
    pytest.param(hs.ORDERS, (0,), 1, id="proj")])
def test_kernel_block_slots_are_their_connections_blocks(in_orders, filter_orders, k, precision):
    # each (m_out, m_in) slot names its connection (or -1), whose coefficient
    # block is radial * e^{i beta} formed in complex128 and weights the basis
    # atoms into exactly the kernel synthesize_block gives
    rdt = ct.DTYPES[precision][0]
    bank = hs.HarmonicFilterBank("b", in_orders, hs.ORDERS, 2, 3, k, ct.make_rng(31),
                                 filter_orders=filter_orders)
    leaves = {name: ct.CTensor(v.astype(rdt)) for name, v in bank.params.items()}
    coeffs = bank.kernel_block(leaves).data
    nr = hs.n_radii(k)
    assert coeffs.shape == (len(bank.connections), 3, 2, nr) and coeffs.dtype == np.complex128
    assert bank.slots.shape == (3, len(in_orders))
    for i, m_out in enumerate(hs.ORDERS):
        for j, m_in in enumerate(in_orders):
            m_f = m_out - m_in
            if (m_in, m_f) not in bank.connections:
                assert bank.slots[i, j] == -1, (m_out, m_in)
                continue
            p = bank.slots[i, j]
            assert bank.connections[p] == (m_in, m_f)
            base = f"b.f{m_in:+d}{m_f:+d}"
            radial, phase = leaves[f"{base}.radial"], leaves[f"{base}.phase"]
            unit = ct.polar_unit(phase).data[..., None]
            assert np.array_equal(coeffs[p], radial.data.astype(np.float64) * unit), (m_out, m_in)
            atoms = np.stack([synthesize_one(np.eye(nr)[r], 0.0, m_f, k) for r in range(nr)])
            kern = hs.synthesize_block(radial, phase, m_f, k).data
            assert np.max(np.abs(np.tensordot(coeffs[p], atoms, axes=(2, 0)) - kern)) < 1e-15


@pytest.mark.parametrize("k", [1, 3, 5])
def test_basis_spectra_are_the_padded_ffts_of_flipped_atoms(k):
    hp, wp = 12 + k - 1, 10 + k - 1
    nr = hs.n_radii(k)
    for m in hs.ALL_FILTER_ORDERS:
        spectra = hs.basis_spectra(k, m, hp, wp)
        assert spectra.shape == (nr, hp, wp) and not spectra.flags.writeable
        for r in range(nr):
            padded = np.zeros((hp, wp), dtype=np.complex128)
            padded[:k, :k] = synthesize_one(np.eye(nr)[r], 0.0, m, k)[::-1, ::-1]
            ref = np.fft.fft2(padded)
            scale = max(np.max(np.abs(ref)), 1.0)   # an order-m 1x1 atom is zero
            assert np.max(np.abs(spectra[r] - ref)) <= 1e-12 * scale, (m, r)


# ---------------------------------------------------------------------------
# harmonic convolution
# ---------------------------------------------------------------------------

def test_impulse_response_is_point_reflected_kernel():
    rng = ct.make_rng(21)
    bank = hs.HarmonicFilterBank("lift", (0,), (-1, 0, 1), 1, 1, 5, rng)
    img = np.zeros((1, 1, 5, 5))
    img[0, 0, 2, 2] = 1.0
    x = hs.lift_image(ct.CTensor(img))
    leaves = const_leaves(bank.params)
    y = hs.harmonic_conv(x, bank, leaves)
    for m in (-1, 0, 1):
        base = f"lift.f+0{m:+d}"
        kern = hs.synthesize_block(leaves[f"{base}.radial"], leaves[f"{base}.phase"], m, 5).data[0, 0]
        assert np.max(np.abs(y.stream(m).data[0, 0] - kern[::-1, ::-1])) < 1e-14


@pytest.mark.parametrize("batch", [pytest.param(1, id="spectrum_first"),
                                   pytest.param(4, id="kernel_first")])
def test_harmonic_conv_transforms_only_the_input_and_output(monkeypatch, batch):
    from scipy import fft as sfft
    bank = hs.HarmonicFilterBank("hc", hs.ORDERS, hs.ORDERS, 2, 3, 5, ct.make_rng(0))
    assert ct._spectrum_first(batch, hs.n_radii(5), 2, 3) == (batch == 1)
    leaves = const_leaves(bank.params)
    x = rand_sfm(ct.make_rng(1), hs.ORDERS, batch, 2, 12, 12)
    hs.harmonic_conv(x, bank, leaves)      # fills the basis-spectra cache
    calls = []
    for name in ("fft2", "ifft2"):
        def record(a, *args, _name=name, _real=getattr(sfft, name), **kwargs):
            calls.append((_name, a.shape))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(sfft, name, record)
    hs.harmonic_conv(x, bank, leaves)
    assert calls == [("fft2", (batch, 3, 2, 16, 16)), ("ifft2", (batch, 3, 3, 16, 16))]


def test_lifting_conv_goes_spectrum_first_at_batch_16(monkeypatch):
    # one input channel: kernel-first would contract per frequency with
    # outer products, so the lifting conv (mnist_config's stem.b0.conv0:
    # 1 -> 8 channels, 5x5) goes spectrum-first at any batch, and agrees
    # with the kernel-first contraction
    bank = hs.HarmonicFilterBank("lift", (0,), hs.ORDERS, 1, 8, 5, ct.make_rng(26))
    assert ct._spectrum_first(16, hs.n_radii(5), 1, 8)
    leaves = const_leaves(bank.params)
    x = hs.lift_image(ct.CTensor(ct.make_rng(27).standard_normal((16, 1, 10, 10))))
    routes, real = [], ct._spectrum_first
    monkeypatch.setattr(ct, "_spectrum_first", lambda *a: routes.append(real(*a)) or routes[-1])
    y = hs.harmonic_conv(x, bank, leaves).tensor.data
    assert routes == [True]
    monkeypatch.setattr(ct, "_spectrum_first", lambda *a: False)
    ref = hs.harmonic_conv(x, bank, leaves).tensor.data
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("batch", [pytest.param(1, id="spectrum_first"),
                                   pytest.param(3, id="kernel_first")])
def test_fd_harmonic_conv_over_input_radial_and_phase(batch):
    rng = ct.make_rng(25)
    bank = hs.HarmonicFilterBank("hc", hs.ORDERS, hs.ORDERS, 2, 2, 3, rng)
    assert ct._spectrum_first(batch, hs.n_radii(3), 2, 2) == (batch == 1)
    x = rand_sfm(rng, hs.ORDERS, batch, 2, 6, 6).tensor.data
    target = rand_sfm(rng, hs.ORDERS, batch, 2, 6, 6).tensor

    def f(p):
        y = hs.harmonic_conv(hs.StreamedFeatureMap(p["x"], hs.ORDERS), bank, p)
        m = ct.magnitude(ct.sub(y.tensor, target))
        return ct.sum_(ct.mul(m, m))

    err = ct.finite_difference_check(f, {"x": x, **bank.params}, sample=12)
    assert err <= 1e-6, err


def test_lemma1_rot90_equivariance_full_streams():
    rng = ct.make_rng(22)
    bank = hs.HarmonicFilterBank("hc", (-1, 0, 1), (-1, 0, 1), 2, 3, 5, rng)
    leaves = const_leaves(bank.params)
    x = rand_sfm(rng, (-1, 0, 1), 2, 2, 8, 8)
    for q in (1, 2, 3):
        lhs = hs.harmonic_conv(rot_sfm(x, q), bank, leaves)
        rhs = rot_sfm(hs.harmonic_conv(x, bank, leaves), q)
        assert sfm_error(lhs, rhs) < 1e-10, q


def test_lifting_conv_equivariance_from_raw_image():
    rng = ct.make_rng(23)
    bank = hs.HarmonicFilterBank("lift", (0,), (-1, 0, 1), 1, 4, 5, rng)
    leaves = const_leaves(bank.params)
    img = rng.standard_normal((1, 1, 10, 10))
    x = hs.lift_image(ct.CTensor(img))
    xr = hs.lift_image(ct.CTensor(rot_grid(img, 1)))
    lhs = hs.harmonic_conv(xr, bank, leaves)
    rhs = rot_sfm(hs.harmonic_conv(x, bank, leaves), 1)
    assert sfm_error(lhs, rhs) < 1e-10


def test_harmonic_conv_zero_input_and_shape_errors():
    rng = ct.make_rng(24)
    bank = hs.HarmonicFilterBank("hc", (-1, 0, 1), (-1, 0, 1), 2, 2, 3, rng)
    leaves = const_leaves(bank.params)
    zero = hs.StreamedFeatureMap.from_streams(
        {m: np.zeros((1, 2, 6, 6), dtype=np.complex128) for m in (-1, 0, 1)})
    y = hs.harmonic_conv(zero, bank, leaves)
    for m in (-1, 0, 1):
        assert np.all(y.stream(m).data == 0)
    bad_ch = hs.StreamedFeatureMap.from_streams(
        {m: np.zeros((1, 3, 6, 6), dtype=np.complex128) for m in (-1, 0, 1)})
    with pytest.raises(ShapeError):
        hs.harmonic_conv(bad_ch, bank, leaves)
    lone = hs.StreamedFeatureMap.from_streams({0: np.zeros((1, 2, 6, 6), dtype=np.complex128)})
    with pytest.raises(ShapeError):
        hs.harmonic_conv(lone, bank, leaves)


def test_bank_rejects_out_of_range_orders():
    with pytest.raises(ConfigError):
        hs.HarmonicFilterBank("bad", (0, 2), (-1, 0, 1), 1, 1, 3, ct.make_rng(0))


def test_projection_bank_restricted_to_order_zero_filters():
    rng = ct.make_rng(7)
    proj = hs.HarmonicFilterBank("p", (0,), (-1, 0, 1), 2, 3, 1, rng, filter_orders=(0,))
    # one real connection (0 -> 0); the +-1 outputs are structural zero blocks
    assert proj.connections == [(0, 0)]
    assert sum(v.size for v in proj.params.values()) == 2 * 3 * 2
    leaves = const_leaves(proj.params)
    x = rand_sfm(rng, (0,), 1, 2, 4, 4)
    y = hs.harmonic_conv(x, proj, leaves)
    assert np.all(y.stream(-1).data == 0) and np.all(y.stream(1).data == 0)
    assert np.any(y.stream(0).data != 0)
    with pytest.raises(ConfigError):
        hs.HarmonicFilterBank("q", (0,), (1,), 1, 1, 1, rng, filter_orders=(0,))


# ---------------------------------------------------------------------------
# fused magnitude batch norm + C-ReLU
# ---------------------------------------------------------------------------

def test_hbn_crelu_hand_computed_batch():
    # batch magnitudes {1, 3}: mean 2, population variance 1
    x = hs.StreamedFeatureMap.from_streams(
        {0: np.array([1.0 * np.exp(1j * 0.2), 3.0 * np.exp(1j * np.pi / 3)]).reshape(2, 1, 1, 1)})
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    y = hs.hbn_crelu(x, state, const_leaves(state.params), train=True)
    out = y.stream(0).data.reshape(2)
    expected_hi = (1.0 / np.sqrt(1.0 + EPS)) * np.exp(1j * np.pi / 3)
    assert out[0] == 0.0                            # ReLU((1-2)/...) = 0
    assert abs(out[1] - expected_hi) < 1e-12
    # running stats picked up the batch statistics
    assert state.buffers["bn.mean+0"][0] == pytest.approx(0.9 * 0 + 0.1 * 2.0)
    assert state.buffers["bn.var+0"][0] == pytest.approx(0.9 * 1 + 0.1 * 1.0)


def test_hbn_crelu_nonnegative_and_phase_preserving():
    rng = ct.make_rng(25)
    x = rand_sfm(rng, (-1, 0, 1), 3, 4, 5, 5)
    state = hs.HBatchNormState("bn", 4)
    params = dict(state.params)
    params["bn.b"] = np.full(4, -0.3)               # force some clipping
    y = hs.hbn_crelu(x, state, const_leaves(params), train=True)
    for m in (-1, 0, 1):
        mag = np.abs(y.stream(m).data)
        assert np.min(mag) >= 0
        keep = mag > 1e-9
        pin = x.stream(m).data / np.abs(x.stream(m).data)
        pout = np.where(keep, y.stream(m).data / np.where(keep, mag, 1.0), pin)
        assert np.max(np.abs(pout - pin)) < 1e-12
        assert np.any(~keep)                        # clipping actually happened


def test_hbn_crelu_kill_all_with_large_negative_shift():
    rng = ct.make_rng(26)
    x = rand_sfm(rng, (0,), 4, 2, 3, 3)
    state = hs.HBatchNormState("bn", 2, orders=(0,))
    params = dict(state.params)
    params["bn.b"] = np.full(2, -10.0)
    y = hs.hbn_crelu(x, state, const_leaves(params), train=True)
    assert np.all(y.stream(0).data == 0)


def test_hbn_crelu_eval_uses_initial_stats():
    x = hs.StreamedFeatureMap.from_streams({0: np.full((1, 1, 1, 1), 2.0 + 0j)})
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    y = hs.hbn_crelu(x, state, const_leaves(state.params), train=False)
    # initialized stats mu=0, var=1: ReLU(2/sqrt(1+eps))
    assert y.stream(0).data.reshape(()) == pytest.approx(2.0 / np.sqrt(1 + EPS), rel=1e-12)


def test_hbn_crelu_rot90_he():
    rng = ct.make_rng(27)
    x = rand_sfm(rng, (-1, 0, 1), 2, 3, 4, 4)
    state = hs.HBatchNormState("bn", 3)
    params = dict(state.params)
    params["bn.b"] = np.full(3, -0.2)
    leaves = const_leaves(params)
    lhs = hs.hbn_crelu(rot_sfm(x, 1), state, leaves, train=False)
    rhs = rot_sfm(hs.hbn_crelu(x, state, leaves, train=False), 1)
    assert sfm_error(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# legacy variants (the ablation's equivariance-violation witness)
# ---------------------------------------------------------------------------

def test_legacy_crelu_kills_small_magnitudes():
    x = hs.StreamedFeatureMap.from_streams({0: np.full((1, 1, 1, 1), 2.0 * np.exp(1j * 0.4))})
    y = hs.legacy_crelu(x, ct.CTensor(np.array([-3.0])))
    assert y.stream(0).data.reshape(()) == 0.0


def test_legacy_cbn_negative_gamma_flips_phase():
    x = hs.StreamedFeatureMap.from_streams(
        {0: np.array([1.0, 3.0]).astype(np.complex128).reshape(2, 1, 1, 1) * np.exp(1j * 0.7)})
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    params = dict(state.params)
    params["bn.a"] = np.array([-1.0])               # gamma < 0
    y = hs.legacy_cbn(x, state, const_leaves(params), train=True)
    out = y.stream(0).data.reshape(2)
    # element with magnitude 3 normalizes to +1, gamma flips it to -1:
    # the "magnitude" path went negative -> phase rotated by pi
    assert out[1].real < 0 or out[1].imag < 0
    expected = -1.0 / np.sqrt(1 + EPS) * np.exp(1j * 0.7)
    assert abs(out[1] - expected) < 1e-12


def test_legacy_crelu_subgradient_zero_at_kink():
    # pre-activations |z| + b of 0 (the kink), -1 and 2
    x = hs.StreamedFeatureMap(ct.CTensor(np.ones((1, 1, 3, 1, 1), dtype=np.complex128)), (0,))
    t = np.full((1, 1, 3, 1, 1), 0.5 + 0.25j)
    tape = ct.GradTape()
    bias = tape.parameter("bias", np.array([-1.0, -2.0, 1.0]))
    d = ct.magnitude(ct.sub(hs.legacy_crelu(x, bias).tensor, ct.CTensor(t)))
    g = ct.backward(tape, ct.sum_(ct.mul(d, d)))["bias"]
    assert g[0] == 0.0 and g[1] == 0.0 and g[2] == 2 * (2.0 - 0.5)


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


def special_map(seed):
    """(2, 3, 2, 3, 3) streams with one exact zero at [0, 1, 0, 0, 0] and a
    constant-magnitude (order +1, channel 1) group; the mask of both."""
    rng = ct.make_rng(seed)
    x = crandn(rng, 2, 3, 2, 3, 3)
    special = np.zeros(x.shape, dtype=bool)
    x[0, 1, 0, 0, 0] = 0
    special[0, 1, 0, 0, 0] = True
    x[:, 2, 1] = 0.7 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, 3, 3)))
    special[:, 2, 1] = True
    return x, special


def norm_layer(layer, train):
    state = hs.HBatchNormState("bn", 2)
    for m in hs.ORDERS:
        state.buffers[f"bn.mean{m:+d}"][:] = [1.1, 0.6]
        state.buffers[f"bn.var{m:+d}"][:] = [0.5, 0.3]
    params = {"bn.a": np.array([1.3, -0.8]), "bn.b": np.array([0.2, -0.3])}

    def run(z, leaves):
        return layer(hs.StreamedFeatureMap(z, hs.ORDERS), state, leaves, train).tensor
    return run, params


def crelu_layer():
    def run(z, leaves):
        return hs.legacy_crelu(hs.StreamedFeatureMap(z, hs.ORDERS), leaves["bias"]).tensor
    return run, {"bias": np.array([-0.4, 0.3])}


FUSED_STEM_LAYERS = {
    "hbn_crelu_train": lambda: norm_layer(hs.hbn_crelu, True),
    "hbn_crelu_eval": lambda: norm_layer(hs.hbn_crelu, False),
    "legacy_cbn_train": lambda: norm_layer(hs.legacy_cbn, True),
    "legacy_cbn_eval": lambda: norm_layer(hs.legacy_cbn, False),
    "legacy_crelu": crelu_layer,
}


@pytest.mark.parametrize("name", sorted(FUSED_STEM_LAYERS))
def test_fd_fused_stem_layers(name):
    layer, params = FUSED_STEM_LAYERS[name]()
    x, special = special_map(37)
    grads = check_fused_layer(layer, x, special, params)
    assert grads["x"][0, 1, 0, 0, 0] == 0                  # zero gradient at z = 0


@pytest.mark.parametrize("mode", ["std", "rms"])
def test_fd_normalize_over_and_collapsed_sigma(mode):
    # over (H, W) of (B, O, C, H, W) streams: group (0, 0, 0) is constant, so
    # it centers to exact zeros (sigma = 0 in both modes); group (0, 0, 1)
    # alternates +-v, so its centered magnitudes are all |v| (sigma = 0 in
    # "std" mode; |v| ~ eps keeps its outputs c/eps near 1)
    x = crandn(ct.make_rng(38), 2, 3, 2, 8)
    x[0, 0, 0] = 0.6 - 0.2j
    x[0, 0, 1] = (0.5 + 0.9j) * EPS * (-1.0) ** np.arange(8)
    special = np.zeros(x.shape, dtype=bool)
    special[0, 0, :2] = True
    x, special = x.reshape(2, 3, 2, 2, 4), special.reshape(2, 3, 2, 2, 4)

    def layer(z, leaves):
        return hs.normalize_over(z, (3, 4), mode=mode)

    grads = check_fused_layer(layer, x, special, {})
    g = grads["x"]
    assert np.all(g[0, 0, 0] == 0)              # centered to 0: zero gradient
    if mode == "std":
        # sigma = 0: the sigma path passes a zero slope, so y = c/eps there
        # and the gradient is the centered upstream gradient over eps
        target = crandn(ct.make_rng(98), *x.shape)[0, 0, 1]
        gy = 2 * (x[0, 0, 1] / EPS - target)
        want = (gy - gy.mean()) / EPS
        assert np.allclose(g[0, 0, 1], want, rtol=1e-10, atol=0)


def on_streams(fn):
    return lambda: ((lambda z, _: fn(hs.StreamedFeatureMap(z, hs.ORDERS)).tensor), {})


DTYPE_LAYERS = {
    **FUSED_STEM_LAYERS,
    "layer_norm_streams": on_streams(hs.layer_norm_streams),
    "channel_dropout": on_streams(lambda x: hs.channel_dropout(x, 0.5, ct.make_rng(3), True)),
}


@pytest.mark.parametrize("name", sorted(DTYPE_LAYERS))
def test_complex64_input_stays_complex64(name):
    layer, params = DTYPE_LAYERS[name]()
    x, _ = special_map(39)
    leaves = {k: ct.CTensor(v.astype(np.float32)) for k, v in params.items()}
    assert layer(ct.CTensor(x.astype(np.complex64)), leaves).data.dtype == np.complex64


# ---------------------------------------------------------------------------
# residual, pooling, dropout
# ---------------------------------------------------------------------------

def test_residual_add_laws():
    rng = ct.make_rng(28)
    a = rand_sfm(rng, (-1, 0, 1), 1, 2, 3, 3)
    zero = a.with_tensor(ct.CTensor(np.zeros_like(a.tensor.data)))
    same = hs.residual_add(a, zero)
    twice = hs.residual_add(a, a)
    for m in (-1, 0, 1):
        assert np.array_equal(same.stream(m).data, a.stream(m).data)
        assert np.allclose(twice.stream(m).data, 2 * a.stream(m).data)
    lhs = hs.residual_add(rot_sfm(a), rot_sfm(a))
    rhs = rot_sfm(twice)
    assert sfm_error(lhs, rhs) < 1e-14
    with pytest.raises(ShapeError):
        hs.residual_add(a, hs.StreamedFeatureMap.from_streams({0: a.stream(0).data}))


def test_avg_pool_streams():
    rng = ct.make_rng(29)
    const = hs.StreamedFeatureMap.from_streams(
        {m: np.full((1, 1, 4, 4), 0.3 + 0.4j) for m in (-1, 0, 1)})
    pooled = hs.avg_pool_streams(const)
    for m in (-1, 0, 1):
        assert np.allclose(pooled.stream(m).data, 0.3 + 0.4j)
    checker = np.indices((4, 4)).sum(axis=0) % 2 * 2.0 - 1.0
    x = hs.StreamedFeatureMap.from_streams({0: checker[None, None].astype(np.complex128)})
    assert np.max(np.abs(hs.avg_pool_streams(x).stream(0).data)) == 0.0
    y = rand_sfm(rng, (-1, 0, 1), 1, 2, 6, 6)
    lhs = hs.avg_pool_streams(rot_sfm(y))
    rhs = rot_sfm(hs.avg_pool_streams(y))
    assert sfm_error(lhs, rhs) < 1e-14


def test_channel_dropout_consistent_across_streams():
    rng = ct.make_rng(30)
    x = rand_sfm(rng, (-1, 0, 1), 2, 8, 3, 3)
    out = hs.channel_dropout(x, 0.5, ct.make_rng(7), train=True)
    ref = out.stream(0).data / np.where(x.stream(0).data == 0, 1, x.stream(0).data)
    for m in (-1, 0, 1):
        ratio = out.stream(m).data / x.stream(m).data
        assert np.allclose(ratio, ref)             # same mask on every stream
        vals = np.unique(np.round(ratio.real, 9))
        assert set(vals).issubset({0.0, 2.0})      # dropped or scaled by 1/(1-p)
    eval_out = hs.channel_dropout(x, 0.5, ct.make_rng(7), train=False)
    assert eval_out is x


# ---------------------------------------------------------------------------
# full stem
# ---------------------------------------------------------------------------

def test_stem_shapes_and_zero_image():
    rng = ct.make_rng(31)
    stem = hs.Stem("stem", 1, [2, 3], convs_per_block=2, kernel_size=3, dropout=[0, 0], rng=rng)
    leaves = const_leaves(stem.params)
    img = ct.CTensor(rng.standard_normal((2, 1, 16, 16)))
    y = stem.forward(img, leaves, train=False)
    assert y.orders == (-1, 0, 1)
    assert y.shape == (2, 3, 3, 4, 4)
    z = stem.forward(ct.CTensor(np.zeros((1, 1, 16, 16))), leaves, train=False)
    for m in (-1, 0, 1):
        assert np.all(z.stream(m).data == 0)


def test_stem_rot90_he_end_to_end():
    rng = ct.make_rng(32)
    stem = hs.Stem("stem", 1, [2, 3], convs_per_block=2, kernel_size=5, dropout=[0, 0], rng=rng)
    params = dict(stem.params)
    for k in params:
        if k.endswith(".b"):
            params[k] = np.full_like(params[k], -0.1)   # exercise the ReLU clip
    leaves = const_leaves(params)
    img = rng.standard_normal((1, 1, 16, 16))
    out = stem.forward(ct.CTensor(img), leaves, train=False)
    for q in (1, 2, 3):
        lhs = stem.forward(ct.CTensor(rot_grid(img, q)), leaves, train=False)
        rhs = rot_sfm(out, q)
        assert sfm_error(lhs, rhs) < 1e-10, q


def test_stem_gradients_match_finite_differences():
    rng = ct.make_rng(33)
    stem = hs.Stem("stem", 1, [2, 2], convs_per_block=1, kernel_size=3, dropout=[0, 0], rng=rng)
    img = rng.standard_normal((2, 1, 8, 8))
    targets = {m: (rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2)))
               for m in (-1, 0, 1)}

    def f(leaves):
        y = stem.forward(ct.CTensor(img), leaves, train=False)
        total = None
        for m in (-1, 0, 1):
            d = ct.sub(y.stream(m), ct.CTensor(targets[m]))
            dm = ct.magnitude(d)
            term = ct.sum_(ct.mul(dm, dm))
            total = term if total is None else ct.add(total, term)
        return total

    err = ct.finite_difference_check(f, stem.params, sample=4)
    assert err < 1e-4


def test_stem_legacy_variant_runs():
    rng = ct.make_rng(34)
    stem = hs.Stem("stem", 1, [2], convs_per_block=1, kernel_size=3, dropout=[0],
                   rng=rng, norm="legacy")
    leaves = const_leaves(stem.params)
    img = ct.CTensor(rng.standard_normal((1, 1, 8, 8)))
    y = stem.forward(img, leaves, train=True)
    assert y.shape == (1, 3, 2, 4, 4)
    assert any(k.endswith("act0.bias") for k in stem.params)


def test_layer_norm_streams_matches_encoder_norm():
    import harmnet.encoder as enc
    rng = ct.make_rng(35)
    x = rand_sfm(rng, (-1, 0, 1), b=2, c=3, h=4, w=4)
    got = hs.layer_norm_streams(x)
    want = enc.unpatchify(enc.he_layer_norm(enc.patchify(x)))
    for m in (-1, 0, 1):
        assert np.max(np.abs(got.stream(m).data - want.stream(m).data)) < 1e-13


def test_stem_layernorm_variant_he_and_params():
    rng = ct.make_rng(36)
    stem = hs.Stem("stem", 1, [2, 3], convs_per_block=1, kernel_size=3,
                   dropout=[0, 0], rng=rng, norm="layernorm")
    assert stem.buffers() == {}
    assert any(k.endswith("act0.bias") for k in stem.params)
    assert not any(".norm" in k for k in stem.params)
    leaves = const_leaves(stem.params)
    img = rng.standard_normal((1, 1, 16, 16))
    out = stem.forward(ct.CTensor(img), leaves, train=False)
    assert out.shape == (1, 3, 3, 4, 4)
    for q in (1, 2, 3):
        lhs = stem.forward(ct.CTensor(rot_grid(img, q)), leaves, train=False)
        assert sfm_error(lhs, rot_sfm(out, q)) < 1e-10, q
