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
    """Random streams (b, O, c, h, w) over `orders`, drawn order by order."""
    return ct.CTensor(np.stack([rng.standard_normal((b, c, h, w))
                                + 1j * rng.standard_normal((b, c, h, w)) for _ in orders], axis=1))


def rot_grid(arr, quarter_turns):
    """rot_{90 q}: positive rotation goes from +x toward +y (image y points
    down), i.e. np.rot90 with a negative count."""
    return np.rot90(arr, -quarter_turns, axes=(2, 3)).copy()


def rot_sfm(x, quarter_turns=1):
    """The group action on streams over ORDERS: spatial rotation plus phase
    e^{i m alpha}."""
    assert x.shape[1] == len(hs.ORDERS)
    return ct.CTensor(np.stack([np.exp(1j * m * quarter_turns * np.pi / 2)
                                * rot_grid(x.data[:, i], quarter_turns)
                                for i, m in enumerate(hs.ORDERS)], axis=1))


def sfm_error(a, b):
    num = max(np.linalg.norm(a.data[:, i] - b.data[:, i]) for i in range(a.shape[1]))
    den = max(np.linalg.norm(b.data[:, i]) for i in range(b.shape[1]))
    return num / max(den, 1e-12)


# ---------------------------------------------------------------------------
# kernel synthesis
# ---------------------------------------------------------------------------

def synthesize_one(profile, beta, m, k):
    """One k x k kernel from a radial profile and a phase offset."""
    radial = np.asarray(profile, dtype=np.float64).reshape(1, 1, -1)
    return hs.synthesize_block(radial, np.full((1, 1), beta), m, k)[0, 0]


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
    assert sorted(bank.params) == ["b.phase", "b.radial"]
    assert bank.params["b.radial"].shape == coeffs.shape
    assert bank.params["b.phase"].shape == coeffs.shape[:3]
    assert bank.slots.shape == (3, len(in_orders))
    for i, m_out in enumerate(hs.ORDERS):
        for j, m_in in enumerate(in_orders):
            m_f = m_out - m_in
            if (m_in, m_f) not in bank.connections:
                assert bank.slots[i, j] == -1, (m_out, m_in)
                continue
            p = bank.slots[i, j]
            assert bank.connections[p] == (m_in, m_f)
            radial, phase = leaves["b.radial"].data[p], leaves["b.phase"].data[p]
            unit = ct.polar_unit(ct.CTensor(phase)).data[..., None]
            assert np.array_equal(coeffs[p], radial.astype(np.float64) * unit), (m_out, m_in)
            atoms = np.stack([synthesize_one(np.eye(nr)[r], 0.0, m_f, k) for r in range(nr)])
            kern = hs.synthesize_block(radial, phase, m_f, k)
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
    for i, m in enumerate(hs.ORDERS):
        p = bank.connections.index((0, m))
        kern = hs.synthesize_block(bank.params["lift.radial"][p], bank.params["lift.phase"][p],
                                   m, 5)[0, 0]
        assert np.max(np.abs(y.data[0, i, 0] - kern[::-1, ::-1])) < 1e-14


@pytest.mark.parametrize("batch", [pytest.param(1, id="spectrum_first"),
                                   pytest.param(4, id="kernel_first")])
def test_harmonic_conv_transforms_only_the_input_and_output(monkeypatch, batch):
    from scipy import fft as sfft
    bank = hs.HarmonicFilterBank("hc", hs.ORDERS, hs.ORDERS, 2, 3, 5, ct.make_rng(0))
    # F = 16^2 frequencies, P = 9 connections, nr = 3 radii, fan-in 6, fan-out 9
    assert hs.conv_plan(bank, batch, 12, 12) == (
        {"route": "spectrum_first", "macs": 256 * 9 * 2 * 3 * 4, "fft_points": 15 * 256}
        if batch == 1 else
        {"route": "kernel_first", "macs": 256 * (9 * 3 + 4) * 6 * 9, "fft_points": 4 * 15 * 256})
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


def conv2d_reference(x, bank, coeffs, order):
    """A bank's convolution through `ct.conv2d` against its basis spectra,
    contracted in `order`."""
    h, w = x.shape[3:]
    hp, wp = h + bank.k - 1, w + bank.k - 1
    spectra = np.stack([hs.basis_spectra(bank.k, m_f, hp, wp) for _, m_f in bank.connections])
    return ct.conv2d(x, coeffs, spectra, bank.slots, order)


def reference_order(batch):
    """The contraction order a test's `conv2d_reference` runs at `batch`, so
    that both orders serve as references."""
    return "spectrum_first" if batch == 1 else "kernel_first"


ONE_BY_ONE_BANKS = {
    "lifted_projection": ((0,), (0,)),        # stem.b0.proj
    "projection": (hs.ORDERS, (0,)),          # stem.b1.proj
    "all_filter_orders": (hs.ORDERS, hs.ALL_FILTER_ORDERS),
}


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("name", sorted(ONE_BY_ONE_BANKS))
def test_1x1_bank_is_a_channel_matmul_without_transforms(monkeypatch, name, batch):
    from scipy import fft as sfft
    in_orders, filter_orders = ONE_BY_ONE_BANKS[name]
    bank = hs.HarmonicFilterBank("p", in_orders, hs.ORDERS, 3, 4, 1, ct.make_rng(40),
                                 filter_orders=filter_orders)
    params = {"x": rand_sfm(ct.make_rng(41), in_orders, batch, 3, 5, 6).data,
              **bank.params}
    target = ct.CTensor(crandn(ct.make_rng(42), batch, 3, 4, 5, 6))

    def run(conv):
        tape = ct.GradTape()
        p = {k: tape.parameter(k, v) for k, v in params.items()}
        y = conv(p)
        m = ct.magnitude(ct.sub(y, target))
        return y.data, ct.backward(tape, ct.sum_(ct.mul(m, m)))

    ref, ref_grads = run(lambda p: conv2d_reference(p["x"], bank, bank.kernel_block(p),
                                                    reference_order(batch)))
    calls = []
    for fn in ("fft2", "ifft2"):
        monkeypatch.setattr(sfft, fn, lambda *a, _fn=fn, **k: calls.append(_fn))
    y, grads = run(lambda p: hs.harmonic_conv(p["x"], bank, p))
    assert calls == []
    for got, want in [(y, ref)] + [(grads[k], ref_grads[k]) for k in params]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_1x1_connections_of_nonzero_filter_order_contribute_exactly_zero():
    # a 1x1 atom of order m != 0 is its centre pixel, which is exactly 0
    bank = hs.HarmonicFilterBank("p", hs.ORDERS, hs.ORDERS, 3, 4, 1, ct.make_rng(43))
    nonzero = np.array([m_f != 0 for _, m_f in bank.connections])
    assert nonzero.sum() == 6
    radial = bank.params["p.radial"] * nonzero[:, None, None, None]   # keep only m_f != 0
    tape = ct.GradTape()
    leaves = {"p.radial": tape.parameter("p.radial", radial),
              "p.phase": tape.parameter("p.phase", bank.params["p.phase"])}
    x = rand_sfm(ct.make_rng(44), hs.ORDERS, 2, 3, 5, 6)
    y = hs.harmonic_conv(x, bank, leaves)
    assert np.all(y.data == 0)
    g = ct.backward(tape, ct.sum_(ct.magnitude(ct.add(y, ct.CTensor(np.ones(y.shape))))))
    assert np.all(g["p.radial"][nonzero] == 0) and np.all(g["p.phase"] == 0)
    assert np.any(g["p.radial"][~nonzero] != 0)


def record_transforms(monkeypatch):
    """Replace scipy's fft2 and ifft2 by recorders; returns the call list."""
    from scipy import fft as sfft
    calls = []
    for fn in ("fft2", "ifft2"):
        monkeypatch.setattr(sfft, fn, lambda *a, _fn=fn, **k: calls.append(_fn))
    return calls


def test_lifting_conv_is_a_tap_gemm_at_every_batch(monkeypatch):
    # one input channel through 13 taps against 24 output maps: the lifting
    # conv (mnist_config's stem.b0.conv0: 1 -> 8 channels, 5x5) is one GEMM
    # at any batch, with no transform, and agrees with conv2d in both
    # contraction orders
    bank = hs.HarmonicFilterBank("lift", (0,), hs.ORDERS, 1, 8, 5, ct.make_rng(26))
    leaves = const_leaves(bank.params)
    coeffs = bank.kernel_block(leaves)
    for batch in (1, 4, 16):
        assert hs.conv_plan(bank, batch, 10, 10) == {
            "route": "direct", "macs": batch * 100 * 1 * 24 * 13, "fft_points": 0}
        x = hs.lift_image(ct.CTensor(ct.make_rng(27).standard_normal((batch, 1, 10, 10))))
        refs = [conv2d_reference(x, bank, coeffs, order).data
                for order in ("spectrum_first", "kernel_first")]
        calls = record_transforms(monkeypatch)
        y = hs.harmonic_conv(x, bank, leaves).data
        monkeypatch.undo()
        assert calls == [], batch
        for ref in refs:
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), batch


# banks that run as a tap GEMM: (in orders, C_in, C_out, kernel size)
DIRECT_BANKS = {
    "lift_5": ((0,), 1, 8, 5),          # mnist_config's stem.b0.conv0
    "lift_3": ((0,), 1, 2, 3),          # the tests' tiny_config lifting conv
    "lift_1": ((0,), 2, 3, 1),
    "full_5": (hs.ORDERS, 1, 13, 5),
    "full_3": (hs.ORDERS, 2, 10, 3),
    "full_1": (hs.ORDERS, 3, 4, 1),
    "narrowing_1": (hs.ORDERS, 5, 2, 1),
}


def direct_bank(name):
    in_orders, c_in, c_out, k = DIRECT_BANKS[name]
    return hs.HarmonicFilterBank("d", in_orders, hs.ORDERS, c_in, c_out, k, ct.make_rng(50))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", sorted(DIRECT_BANKS))
def test_direct_bank_matches_conv2d_without_transforms(monkeypatch, name, batch):
    bank = direct_bank(name)
    assert hs.conv_plan(bank, batch, 7, 6)["route"] == "direct"
    x0 = rand_sfm(ct.make_rng(51), bank.in_orders, batch, bank.c_in, 7, 6).data
    params = {"x": x0, **bank.params}
    target = ct.CTensor(crandn(ct.make_rng(52), batch, 3, bank.c_out, 7, 6))

    def run(conv):
        tape = ct.GradTape()
        p = {k: tape.parameter(k, v) for k, v in params.items()}
        y = conv(p)
        m = ct.magnitude(ct.sub(y, target))
        return y.data, ct.backward(tape, ct.sum_(ct.mul(m, m)))

    ref, ref_grads = run(lambda p: conv2d_reference(p["x"], bank, bank.kernel_block(p),
                                                    reference_order(batch)))
    calls = record_transforms(monkeypatch)
    y, grads = run(lambda p: hs.harmonic_conv(p["x"], bank, p))
    assert calls == []
    for got, want in [(y, ref)] + [(grads[k], ref_grads[k]) for k in params]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["lift_5", "full_3", "narrowing_1"])
def test_fd_direct_bank_over_input_radial_and_phase(name):
    bank = direct_bank(name)
    rng = ct.make_rng(53)
    x = rand_sfm(rng, bank.in_orders, 2, bank.c_in, 5, 6).data
    target = rand_sfm(rng, hs.ORDERS, 2, bank.c_out, 5, 6)

    def f(p):
        y = hs.harmonic_conv(p["x"], bank, p)
        m = ct.magnitude(ct.sub(y, target))
        return ct.sum_(ct.mul(m, m))

    err = ct.finite_difference_check(f, {"x": x, **bank.params}, sample=40)
    assert err <= 1e-6, err


@pytest.mark.parametrize("name", sorted(DIRECT_BANKS))
def test_direct_bank_of_an_f32_model_outputs_complex128(name):
    # the GEMM's matrix is complex128 (kernel_block's coefficients), so the
    # output follows it even for a complex64 input, which the lift never makes
    bank = direct_bank(name)
    leaves = {k: ct.CTensor(v.astype(np.float32)) for k, v in bank.params.items()}
    x = rand_sfm(ct.make_rng(54), bank.in_orders, 2, bank.c_in, 5, 6).data
    y = hs.harmonic_conv(ct.CTensor(x.astype(np.complex64)), bank, leaves)
    assert y.data.dtype == np.complex128


@pytest.mark.parametrize("name", ["lift_5", "full_3", "narrowing_1"])
def test_direct_bank_of_complex64_coefficients_outputs_complex64(name):
    # the GEMM's atom table follows the coefficients' precision, so complex64
    # input and coefficients give a complex64 output within complex64
    # rounding of the complex128 one
    bank = direct_bank(name)
    x = rand_sfm(ct.make_rng(55), bank.in_orders, 2, bank.c_in, 5, 6).data
    coeffs = bank.kernel_block({k: ct.CTensor(v) for k, v in bank.params.items()}).data
    want = hs._tap_gemm(ct.CTensor(x), bank, ct.CTensor(coeffs)).data
    got = hs._tap_gemm(ct.CTensor(x.astype(np.complex64)), bank,
                       ct.CTensor(coeffs.astype(np.complex64))).data
    assert want.dtype == np.complex128 and got.dtype == np.complex64
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


# the batches the benchmark's workloads, their checks and CLI training run,
# and batch 8, where banks with 8 and 16 output channels part
ROUTE_BATCHES = (1, 2, 3, 4, 8, 16, 32)
S, K = "spectrum_first", "kernel_first"


@pytest.mark.parametrize("config, routes", [
    pytest.param("mnist_config", {
        "b0.conv0": ("direct",) * 7, "b0.conv1": (S, S, S, S, K, K, K), "b0.proj": ("direct",) * 7,
        "b1.conv0": (S, S, S, S, S, K, K), "b1.conv1": (S, S, S, S, S, K, K),
        "b1.proj": ("direct",) * 7}, id="mnist_config"),
    pytest.param("shallow_config", {
        "b0.conv0": ("direct",) * 7, "b0.conv1": (S, S, S, S, S, K, K),
        "b0.conv2": (S, S, S, S, S, K, K), "b0.proj": ("direct",) * 7}, id="shallow_config")])
def test_route_table_of_reference_configs(config, routes):
    # the lifting conv and the 1x1 projections are tap GEMMs at every batch;
    # a 5x5 bank with more than one input map contracts spectrum-first while
    # n_radii * batch <= 2 * C_out (batch 5 at 8 output channels, 10 at 16)
    import harmnet.model as hm
    model = hm.build(getattr(hm, config)(), seed=0)
    got, size = {}, model.input_size
    for blk in model.stem.blocks:
        for bank in [b for b, _ in blk["convs"]] + [blk["proj"]]:
            got[bank.name.removeprefix("stem.")] = tuple(
                hs.conv_plan(bank, batch, size, size)["route"] for batch in ROUTE_BATCHES)
        size //= 2
    assert got == routes


def test_routes_of_the_verify_suites_lemma_banks():
    # harness.verify_all_lemmas's Lemma 1 banks (3x3, 2 output channels, 8x8)
    lift = hs.HarmonicFilterBank("c_lift", (0,), hs.ORDERS, 1, 2, 3, ct.make_rng(0))
    full = hs.HarmonicFilterBank("c_full", hs.ORDERS, hs.ORDERS, 2, 2, 3, ct.make_rng(0))
    assert hs.conv_plan(lift, 1, 8, 8)["route"] == "direct"
    assert hs.conv_plan(full, 1, 8, 8)["route"] == "spectrum_first"


@pytest.mark.parametrize("batch", [pytest.param(1, id="spectrum_first"),
                                   pytest.param(3, id="kernel_first")])
def test_fd_harmonic_conv_over_input_radial_and_phase(batch):
    rng = ct.make_rng(25)
    bank = hs.HarmonicFilterBank("hc", hs.ORDERS, hs.ORDERS, 2, 2, 3, rng)
    assert hs.conv_plan(bank, batch, 6, 6)["route"] == reference_order(batch)
    x = rand_sfm(rng, hs.ORDERS, batch, 2, 6, 6).data
    target = rand_sfm(rng, hs.ORDERS, batch, 2, 6, 6)

    def f(p):
        y = hs.harmonic_conv(p["x"], bank, p)
        m = ct.magnitude(ct.sub(y, target))
        return ct.sum_(ct.mul(m, m))

    # a bank stores its connections stacked: 12 components per connection
    err = ct.finite_difference_check(f, {"x": x, **bank.params},
                                     sample=12 * len(bank.connections))
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lift_image_is_complex128_at_any_image_precision(dtype):
    # the one point where features become complex128: nothing after it widens
    img = ct.make_rng(24).random((2, 3, 4, 4)).astype(dtype)
    x = hs.lift_image(ct.CTensor(img))
    assert x.shape == (2, 1, 3, 4, 4) and x.data.dtype == np.complex128
    assert np.array_equal(x.data[:, 0], img)


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
    zero = ct.CTensor(np.zeros((1, 3, 2, 6, 6), dtype=np.complex128))
    y = hs.harmonic_conv(zero, bank, leaves)
    for i in range(len(hs.ORDERS)):
        assert np.all(y.data[:, i] == 0)
    bad_ch = ct.CTensor(np.zeros((1, 3, 3, 6, 6), dtype=np.complex128))
    with pytest.raises(ShapeError):
        hs.harmonic_conv(bad_ch, bank, leaves)
    lone = ct.CTensor(np.zeros((1, 1, 2, 6, 6), dtype=np.complex128))
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
    assert np.all(y.data[:, 0] == 0) and np.all(y.data[:, 2] == 0)
    assert np.any(y.data[:, 1] != 0)
    with pytest.raises(ConfigError):
        hs.HarmonicFilterBank("q", (0,), (1,), 1, 1, 1, rng, filter_orders=(0,))


# ---------------------------------------------------------------------------
# fused magnitude batch norm + C-ReLU
# ---------------------------------------------------------------------------

def test_hbn_crelu_hand_computed_batch():
    # batch magnitudes {1, 3}: mean 2, population variance 1
    x = ct.CTensor(
        np.array([1.0 * np.exp(1j * 0.2), 3.0 * np.exp(1j * np.pi / 3)]).reshape(2, 1, 1, 1, 1))
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    y = hs.hbn_crelu(x, state, const_leaves(state.params), train=True)
    out = y.data.reshape(2)
    expected_hi = (1.0 / np.sqrt(1.0 + EPS)) * np.exp(1j * np.pi / 3)
    assert out[0] == 0.0                            # ReLU((1-2)/...) = 0
    assert abs(out[1] - expected_hi) < 1e-12
    # running stats picked up the batch statistics
    assert state.buffers["bn.mean"][0, 0] == pytest.approx(0.9 * 0 + 0.1 * 2.0)
    assert state.buffers["bn.var"][0, 0] == pytest.approx(0.9 * 1 + 0.1 * 1.0)


def test_norms_reject_streams_of_other_orders():
    # the running statistics are one (O, C) array per statistic, row i for
    # the state's i-th order
    x = rand_sfm(ct.make_rng(24), (0,), 2, 1, 2, 2)
    state = hs.HBatchNormState("bn", 1)
    for layer in (hs.hbn_crelu, hs.legacy_cbn):
        for train in (True, False):
            with pytest.raises(ShapeError, match="order"):
                layer(x, state, const_leaves(state.params), train)


def test_hbn_crelu_nonnegative_and_phase_preserving():
    rng = ct.make_rng(25)
    x = rand_sfm(rng, (-1, 0, 1), 3, 4, 5, 5)
    state = hs.HBatchNormState("bn", 4)
    params = dict(state.params)
    params["bn.b"] = np.full(4, -0.3)               # force some clipping
    y = hs.hbn_crelu(x, state, const_leaves(params), train=True)
    for i in range(len(hs.ORDERS)):
        mag = np.abs(y.data[:, i])
        assert np.min(mag) >= 0
        keep = mag > 1e-9
        pin = x.data[:, i] / np.abs(x.data[:, i])
        pout = np.where(keep, y.data[:, i] / np.where(keep, mag, 1.0), pin)
        assert np.max(np.abs(pout - pin)) < 1e-12
        assert np.any(~keep)                        # clipping actually happened


def test_hbn_crelu_kill_all_with_large_negative_shift():
    rng = ct.make_rng(26)
    x = rand_sfm(rng, (0,), 4, 2, 3, 3)
    state = hs.HBatchNormState("bn", 2, orders=(0,))
    params = dict(state.params)
    params["bn.b"] = np.full(2, -10.0)
    y = hs.hbn_crelu(x, state, const_leaves(params), train=True)
    assert np.all(y.data == 0)


def test_hbn_crelu_eval_uses_initial_stats():
    x = ct.CTensor(np.full((1, 1, 1, 1, 1), 2.0 + 0j))
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    y = hs.hbn_crelu(x, state, const_leaves(state.params), train=False)
    # initialized stats mu=0, var=1: ReLU(2/sqrt(1+eps))
    assert y.data.reshape(()) == pytest.approx(2.0 / np.sqrt(1 + EPS), rel=1e-12)


@pytest.mark.parametrize("layer, relu", [(hs.hbn_crelu, True), (hs.legacy_cbn, False)])
def test_eval_norm_fold_matches_the_normalization_formula(layer, relu):
    # eval mode folds the running statistics and a, b into |X| * k + c
    rng = ct.make_rng(46)
    x = rand_sfm(rng, hs.ORDERS, 3, 4, 5, 5)
    state = hs.HBatchNormState("bn", 4)
    state.buffers["bn.mean"][:] = 2 * rng.random((3, 4))
    state.buffers["bn.var"][:] = rng.random((3, 4)) + 0.1
    params = {"bn.a": rng.standard_normal(4), "bn.b": 0.5 * rng.standard_normal(4)}
    y = layer(x, state, const_leaves(params), train=False).data
    mag = np.abs(x.data)
    mu, var = (state.buffers[f"bn.{s}"][None, :, :, None, None] for s in ("mean", "var"))
    a, b = (params[f"bn.{p}"][:, None, None] for p in "ab")
    new = a * (mag - mu) / np.sqrt(var + EPS) + b
    want = (np.maximum(new, 0) if relu else new) * x.data / mag
    assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want))


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
    x = ct.CTensor(np.full((1, 1, 1, 1, 1), 2.0 * np.exp(1j * 0.4)))
    y = hs.legacy_crelu(x, ct.CTensor(np.array([-3.0])))
    assert y.data.reshape(()) == 0.0


def test_legacy_cbn_negative_gamma_flips_phase():
    x = ct.CTensor(np.array([1.0, 3.0]).astype(np.complex128).reshape(2, 1, 1, 1, 1)
                   * np.exp(1j * 0.7))
    state = hs.HBatchNormState("bn", 1, orders=(0,))
    params = dict(state.params)
    params["bn.a"] = np.array([-1.0])               # gamma < 0
    y = hs.legacy_cbn(x, state, const_leaves(params), train=True)
    out = y.data.reshape(2)
    # element with magnitude 3 normalizes to +1, gamma flips it to -1:
    # the "magnitude" path went negative -> phase rotated by pi
    assert out[1].real < 0 or out[1].imag < 0
    expected = -1.0 / np.sqrt(1 + EPS) * np.exp(1j * 0.7)
    assert abs(out[1] - expected) < 1e-12


def test_legacy_cbn_train_moves_running_stats_as_hbn_crelu_does():
    # both norms move every (order, channel) buffer by the momentum rule
    # buf <- (1 - momentum) buf + momentum * batch statistic of |X|
    x = rand_sfm(ct.make_rng(28), hs.ORDERS, 3, 2, 4, 4)
    mag = np.abs(x.data)
    mu = mag.mean(axis=(0, 3, 4), keepdims=True)
    var = ((mag - mu) ** 2).mean(axis=(0, 3, 4))
    moved = []
    for layer in (hs.hbn_crelu, hs.legacy_cbn):
        state = hs.HBatchNormState("bn", 2)
        assert state.buffers["bn.mean"].shape == state.buffers["bn.var"].shape == (3, 2)
        state.buffers["bn.mean"][:] = [0.4, -0.2]
        state.buffers["bn.var"][:] = [0.5, 2.0]
        layer(x, state, const_leaves(state.params), train=True)
        mom = hs.MOMENTUM
        for i in range(len(hs.ORDERS)):
            assert np.allclose(state.buffers["bn.mean"][i],
                               (1 - mom) * np.array([0.4, -0.2]) + mom * mu[0, i, :, 0, 0],
                               rtol=1e-12, atol=0)
            assert np.allclose(state.buffers["bn.var"][i],
                               (1 - mom) * np.array([0.5, 2.0]) + mom * var[i],
                               rtol=1e-12, atol=0)
        moved.append(state.buffers)
    assert all(np.array_equal(moved[0][k], moved[1][k]) for k in moved[0])


def test_legacy_crelu_subgradient_zero_at_kink():
    # pre-activations |z| + b of 0 (the kink), -1 and 2
    x = ct.CTensor(np.ones((1, 1, 3, 1, 1), dtype=np.complex128))
    t = np.full((1, 1, 3, 1, 1), 0.5 + 0.25j)
    tape = ct.GradTape()
    bias = tape.parameter("bias", np.array([-1.0, -2.0, 1.0]))
    d = ct.magnitude(ct.sub(hs.legacy_crelu(x, bias), ct.CTensor(t)))
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
    state.buffers["bn.mean"][:] = [1.1, 0.6]
    state.buffers["bn.var"][:] = [0.5, 0.3]
    params = {"bn.a": np.array([1.3, -0.8]), "bn.b": np.array([0.2, -0.3])}

    def run(z, leaves):
        return layer(z, state, leaves, train)
    return run, params


def crelu_layer():
    def run(z, leaves):
        return hs.legacy_crelu(z, leaves["bias"])
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
    return lambda: ((lambda z, _: fn(z)), {})


DTYPE_LAYERS = {
    **FUSED_STEM_LAYERS,
    # the stem's "layernorm" variant: normalize each stream over space
    "layer_norm_streams": on_streams(lambda x: hs.normalize_over(x, (3, 4))),
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
    # the stem's residual is ct.add on the whole (B, O, C, H, W) tensor
    rng = ct.make_rng(28)
    a = rand_sfm(rng, (-1, 0, 1), 1, 2, 3, 3)
    zero = ct.CTensor(np.zeros_like(a.data))
    same = ct.add(a, zero)
    twice = ct.add(a, a)
    for i in range(len(hs.ORDERS)):
        assert np.array_equal(same.data[:, i], a.data[:, i])
        assert np.allclose(twice.data[:, i], 2 * a.data[:, i])
    lhs = ct.add(rot_sfm(a), rot_sfm(a))
    rhs = rot_sfm(twice)
    assert sfm_error(lhs, rhs) < 1e-14


def test_avg_pool_streams():
    # the stem pools with ct.avg_pool2 on the whole (B, O, C, H, W) tensor
    rng = ct.make_rng(29)
    const = ct.CTensor(np.full((1, 3, 1, 4, 4), 0.3 + 0.4j))
    pooled = ct.avg_pool2(const)
    for i in range(len(hs.ORDERS)):
        assert np.allclose(pooled.data[:, i], 0.3 + 0.4j)
    checker = np.indices((4, 4)).sum(axis=0) % 2 * 2.0 - 1.0
    x = ct.CTensor(checker[None, None, None].astype(np.complex128))
    assert np.max(np.abs(ct.avg_pool2(x).data)) == 0.0
    y = rand_sfm(rng, (-1, 0, 1), 1, 2, 6, 6)
    lhs = ct.avg_pool2(rot_sfm(y))
    rhs = rot_sfm(ct.avg_pool2(y))
    assert sfm_error(lhs, rhs) < 1e-14


def test_channel_dropout_consistent_across_streams():
    rng = ct.make_rng(30)
    x = rand_sfm(rng, (-1, 0, 1), 2, 8, 3, 3)
    out = hs.channel_dropout(x, 0.5, ct.make_rng(7), train=True)
    ref = out.data[:, 1] / np.where(x.data[:, 1] == 0, 1, x.data[:, 1])
    for i in range(len(hs.ORDERS)):
        ratio = out.data[:, i] / x.data[:, i]
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
    assert y.shape[1] == len(hs.ORDERS)
    assert y.shape == (2, 3, 3, 4, 4)
    z = stem.forward(ct.CTensor(np.zeros((1, 1, 16, 16))), leaves, train=False)
    for i in range(len(hs.ORDERS)):
        assert np.all(z.data[:, i] == 0)


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
        for i, m in enumerate(hs.ORDERS):
            d = ct.sub(ct.narrow(y, 1, i, 1), ct.CTensor(targets[m][:, None]))
            dm = ct.magnitude(d)
            term = ct.sum_(ct.mul(dm, dm))
            total = term if total is None else ct.add(total, term)
        return total

    # 4 components per connection of the widest (9-connection) bank
    err = ct.finite_difference_check(f, stem.params, sample=4 * 9)
    assert err < 1e-4


def test_stem_dropout_drops_channels_in_train_mode_only():
    # one block, so the dropout mask is visible in the output: whole
    # channels zeroed for every order, the rest scaled by 1 / (1 - p)
    rng = ct.make_rng(37)
    stem = hs.Stem("stem", 1, [4], convs_per_block=1, kernel_size=3, dropout=[0.5], rng=rng)
    leaves = const_leaves(stem.params)
    img = ct.CTensor(rng.standard_normal((3, 1, 8, 8)))
    dropped = stem.forward(img, leaves, train=True, rng=ct.make_rng(7))
    stem.blocks[0]["dropout"] = 0.0
    kept = stem.forward(img, leaves, train=True)
    want = hs.channel_dropout(kept, 0.5, ct.make_rng(7), train=True)
    assert np.array_equal(dropped.data, want.data)
    assert not np.array_equal(dropped.data, kept.data)
    stem.blocks[0]["dropout"] = 0.5
    with pytest.raises(ConfigError, match="requires an rng"):
        stem.forward(img, leaves, train=True)
    evaluated = stem.forward(img, leaves, train=False)   # eval mode needs no rng
    assert evaluated.shape == kept.shape


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
    # the stem's "layernorm" variant against the encoder's norm over patches
    got = enc.patchify(hs.normalize_over(x, (3, 4)))
    want = enc.he_layer_norm(enc.patchify(x))
    for i in range(len(hs.ORDERS)):
        assert np.max(np.abs(got.data[:, i] - want.data[:, i])) < 1e-13


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
