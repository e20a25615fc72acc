"""Gradient and algebra tests for the tensor engine.

Ground truth for every backward rule is the central finite difference over
the real components of each input; complex entries are perturbed as
independent (re, im) pairs.  Gradient checks run at f64 with step 1e-5 and
must stay under 1e-6 relative error.  Exact algebraic laws (recombination,
unitarity, row-stochasticity) are held to 1e-12.
"""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmnet.ctensor as ct
from harmnet.errors import ContractError, ShapeError

FD_TOL = 1e-6
EXACT_TOL = 1e-12


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)


def l2_to(target):
    """Loss builder: sum |y - target|^2, smooth and phase-sensitive."""
    t = ct.CTensor(target)

    def loss(y):
        d = ct.sub(y, t)
        m = ct.magnitude(d)
        return ct.sum_(ct.mul(m, m))

    return loss


def check(f, params, tol=FD_TOL, **kw):
    err = ct.finite_difference_check(f, params, **kw)
    assert err <= tol, f"finite-difference mismatch: {err:.3e}"


def with_magnitude(z, r):
    """r * z/|z| for a real r of z's shape: a magnitude map whose new
    magnitudes ignore |z| and are the parameter r itself."""
    return ct.magnitude_map(z, (r,), lambda mag, r: (r, ()),
                            lambda gr, mag, r, _: (np.zeros_like(gr), gr))


# ---------------------------------------------------------------------------
# finite-difference oracle per op
# ---------------------------------------------------------------------------

def test_fd_add_sub_neg_broadcast():
    rng = ct.make_rng(0)
    a = crandn(rng, 3, 4)
    b = crandn(rng, 1, 4)
    c = rng.standard_normal((3, 1))
    t = crandn(rng, 3, 4)

    def f(p):
        y = ct.add(p["a"], p["b"])
        y = ct.sub(y, ct.sub(ct.CTensor(np.zeros(())), p["c"]))   # y - (0 - c)
        return l2_to(t)(y)

    check(f, {"a": a, "b": b, "c": c})


def test_fd_mul_div():
    rng = ct.make_rng(1)
    a = crandn(rng, 2, 5)
    b = crandn(rng, 2, 5)
    d = rng.standard_normal((1, 5)) + 2.0   # keep denominators away from 0
    t = crandn(rng, 2, 5)

    def f(p):
        return l2_to(t)(ct.div(ct.mul(p["a"], p["b"]), p["d"]))

    check(f, {"a": a, "b": b, "d": d})


def test_fd_matmul_and_conj_transpose():
    rng = ct.make_rng(2)
    a = crandn(rng, 2, 3, 4)
    b = crandn(rng, 4, 5)
    t = crandn(rng, 2, 3, 3)

    def f(p):
        y = ct.complex_matmul(p["a"], p["b"])          # (2,3,5)
        s = ct.complex_matmul(y, ct.conj_transpose(y))  # (2,3,3)
        return l2_to(t)(s)

    check(f, {"a": a, "b": b})


def test_fd_conj_transpose_reshape_concat_narrow():
    rng = ct.make_rng(3)
    a = crandn(rng, 3, 2)
    b = crandn(rng, 2, 2)
    t = crandn(rng, 2, 4)

    def f(p):
        ca = ct.conj_transpose(p["a"])
        y = ct.concat([ca, p["b"]], axis=1)            # (2,5)
        y = ct.narrow(y, 1, 1, 4)                      # (2,4)
        y = ct.transpose(y, (1, 0))
        y = ct.reshape(y, (2, 4))
        return l2_to(t)(y)

    check(f, {"a": a, "b": b})


def test_fd_sum_mean_axes():
    rng = ct.make_rng(4)
    a = crandn(rng, 3, 4, 2)
    t0 = crandn(rng, 4, 2)
    t1 = crandn(rng, 3, 1, 2)

    def f(p):
        s = ct.sum_(p["a"], axis=0)
        m = ct.mean(p["a"], axis=1, keepdims=True)
        return ct.add(l2_to(t0)(s), l2_to(t1)(m))

    check(f, {"a": a})


def test_fd_take_with_repeats():
    rng = ct.make_rng(5)
    table = crandn(rng, 6, 3)
    idx = np.array([0, 2, 2, 5, 0])
    t = crandn(rng, 5, 3)

    def f(p):
        return l2_to(t)(ct.take(p["table"], idx))

    check(f, {"table": table})


def test_fd_real_nonlinearities():
    rng = ct.make_rng(6)
    x = rng.standard_normal((3, 4)) + 0.1
    pos = np.abs(rng.standard_normal((3, 4))) + 0.5

    def f(p):
        z = ct.log(p["pos"])
        w = ct.exp(ct.mul(ct.CTensor(np.full((3, 4), 0.1)), p["x"]))
        s = ct.add(ct.add(p["x"], z), w)
        return ct.sum_(ct.mul(s, s))

    check(f, {"x": x, "pos": pos})


def test_fd_magnitude_and_with_magnitude():
    rng = ct.make_rng(8)
    z = crandn(rng, 3, 3)
    z += np.sign(z.real) * 0.5 + 1j * np.sign(z.imag) * 0.5   # away from origin
    tm = rng.standard_normal((3, 3))
    tu = crandn(rng, 3, 3)
    r = rng.standard_normal((3, 3))    # either sign: legacy_cbn's can be negative

    def scaled(z, r):
        # new magnitudes r|z|: both the radial and the phase adjoint, and a
        # parameter gradient
        return ct.magnitude_map(z, (r,), lambda mag, r: (r * mag, (r,)),
                                lambda gr, mag, _, saved: (gr * saved[0], gr * mag))

    def f(p):
        m = ct.magnitude(p["z"])
        dm = ct.sub(m, ct.CTensor(tm))
        lm = ct.sum_(ct.mul(dm, dm))
        lr = l2_to(tu)(with_magnitude(p["z"], p["r"]))
        return ct.add(ct.add(lm, lr), l2_to(tu)(scaled(p["z"], p["r"])))

    check(f, {"z": z, "r": r})


def test_fd_polar_unit_as_complex():
    rng = ct.make_rng(9)
    theta = rng.standard_normal((4,)) * 2
    r = np.abs(rng.standard_normal((4,))) + 0.5
    t = crandn(rng, 4)

    def f(p):
        u = ct.polar_unit(p["theta"])
        z = ct.mul(ct.astype(p["r"], np.complex128), u)
        return l2_to(t)(z)

    check(f, {"theta": theta, "r": r})


# (contraction order, batch, c_out) for a 3x3 kernel, 9 unit-impulse atoms
CONV_ORDERS = [pytest.param("spectrum_first", 1, 5, id="spectrum_first"),
               pytest.param("kernel_first", 2, 3, id="kernel_first")]


def impulse_spectra(kh, kw, hp, wp):
    """(1, kh*kw, hp, wp): a plain kernel is the coefficient form over unit
    impulses, atom u*kw + v being the impulse at (u, v), flipped and padded."""
    atoms = np.eye(kh * kw).reshape(kh * kw, kh, kw)[:, ::-1, ::-1]
    return np.fft.fft2(atoms, s=(hp, wp))[None]


def plain_conv2d(x, k, order):
    """conv2d of a (B, Ci, H, W) input with a plain (Co, Ci, kh, kw) kernel
    (zero padding kh // 2), as one connection over unit-impulse atoms,
    contracted in `order`."""
    b, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    y = ct.conv2d(ct.reshape(x, (b, 1, ci, h, w)), ct.reshape(k, (1, co, ci, kh * kw)),
                  impulse_spectra(kh, kw, h + kh - 1, w + kw - 1), np.zeros((1, 1), dtype=int),
                  order)
    return ct.reshape(y, (b, co, h, w))


@pytest.mark.parametrize("order, batch, c_out", CONV_ORDERS)
def test_fd_conv2d(order, batch, c_out):
    rng = ct.make_rng(10)
    x = crandn(rng, batch, 2, 8, 8)
    k = crandn(rng, c_out, 2, 3, 3)
    t = crandn(rng, batch, c_out, 8, 8)

    def f(p):
        return l2_to(t)(plain_conv2d(p["x"], p["k"], order))

    check(f, {"x": x, "k": k}, sample=40)


def test_fd_avg_pool2():
    rng = ct.make_rng(11)
    x = crandn(rng, 2, 3, 4, 4)
    t = crandn(rng, 2, 3, 2, 2)

    def f(p):
        return l2_to(t)(ct.avg_pool2(p["x"]))

    check(f, {"x": x})


@pytest.mark.parametrize("offsets", [((0, 0),), ((0, 0), (-1, 2), (1, 0), (2, -2))])
def test_fd_shifted_taps(offsets):
    rng = ct.make_rng(12)
    x = crandn(rng, 2, 3, 4, 5)
    t = crandn(rng, 2, 3, len(offsets), 4, 5)

    def f(p):
        return l2_to(t)(ct.shifted_taps(p["x"], offsets))

    check(f, {"x": x})


def test_shifted_taps_are_zero_padded_shifts():
    x = crandn(ct.make_rng(13), 2, 4, 5)
    offsets = ((0, 0), (1, -1), (-2, 0))
    y = ct.shifted_taps(ct.CTensor(x), offsets).data
    padded = np.pad(x, ((0, 0), (2, 2), (2, 2)))
    for t, (dy, dx) in enumerate(offsets):
        assert np.array_equal(y[:, t], padded[:, 2 + dy:6 + dy, 2 + dx:7 + dx]), (dy, dx)


def test_fd_rejects_bad_step():
    with pytest.raises(ContractError):
        ct.finite_difference_check(lambda p: ct.sum_(p["x"]), {"x": np.ones(2)}, step=0.0)


# ---------------------------------------------------------------------------
# exact algebraic laws
# ---------------------------------------------------------------------------

def test_matmul_matches_numpy():
    rng = ct.make_rng(12)
    a = crandn(rng, 2, 3, 4)
    b = crandn(rng, 2, 4, 5)
    y = ct.complex_matmul(ct.CTensor(a), ct.CTensor(b)).data
    assert np.max(np.abs(y - a @ b)) <= EXACT_TOL


def test_phase_scalar_associativity():
    rng = ct.make_rng(19)
    a = crandn(rng, 3, 3)
    b = crandn(rng, 3, 3)
    alpha = np.exp(1j * 0.7)
    left = ct.complex_matmul(ct.CTensor(alpha * a), ct.CTensor(b)).data
    right = alpha * ct.complex_matmul(ct.CTensor(a), ct.CTensor(b)).data
    assert np.max(np.abs(left - right)) <= EXACT_TOL * np.max(np.abs(right))


def test_conj_transpose_product_reversal():
    rng = ct.make_rng(20)
    a = crandn(rng, 3, 4)
    b = crandn(rng, 4, 5)
    ab = ct.complex_matmul(ct.CTensor(a), ct.CTensor(b))
    left = ct.conj_transpose(ab).data
    right = ct.complex_matmul(ct.conj_transpose(ct.CTensor(b)), ct.conj_transpose(ct.CTensor(a))).data
    assert np.max(np.abs(left - right)) <= EXACT_TOL * max(1.0, np.max(np.abs(right)))
    back = ct.conj_transpose(ct.conj_transpose(ct.CTensor(a))).data
    assert np.array_equal(back, a)


def test_with_magnitude_recombination():
    rng = ct.make_rng(13)
    z = crandn(rng, 5, 5)
    z[0, 0] = 0.0
    m = ct.magnitude(ct.CTensor(z))
    y = with_magnitude(ct.CTensor(z), m)
    assert np.all(m.data >= 0)
    assert np.max(np.abs(y.data - z)) <= EXACT_TOL
    u = with_magnitude(ct.CTensor(z), ct.CTensor(np.ones(z.shape))).data
    assert u[0, 0] == 1.0 + 0.0j                 # phase convention at zero
    assert np.max(np.abs(np.abs(u) - 1.0)) <= EXACT_TOL


def test_with_magnitude_zero_gradient_at_origin():
    z = np.array([0.0 + 0.0j, 1.0 - 2.0j])
    t = np.array([0.3 + 0.4j, -1.0 + 0.5j])
    tape = ct.GradTape()
    pz, pr = tape.parameter("z", z), tape.parameter("r", np.array([2.0, 0.5]))
    g = ct.backward(tape, l2_to(t)(with_magnitude(pz, pr)))
    assert g["z"][0] == 0.0 + 0.0j
    # the r-gradient at z = 0 reads the conventional phase 1+0i
    assert g["r"][0] == pytest.approx(2 * (2.0 - 0.3))


@pytest.mark.parametrize("zt, rt", [(np.complex128, np.float64), (np.complex64, np.float32),
                                    (np.complex64, np.float64)])
def test_with_magnitude_matches_numpy_reference_bitwise(zt, rt):
    rng = ct.make_rng(15)
    z = crandn(rng, 4, 3, 5, 6).astype(zt)
    z[0, 0, :2] = 0.0
    r = rng.standard_normal(z.shape).astype(rt)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.where(np.abs(z) == 0, r, z * (r / np.abs(z)))
    got = with_magnitude(ct.CTensor(z), ct.CTensor(r)).data
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_with_magnitude_rejects_complex_or_misshaped_magnitudes():
    z = ct.CTensor(np.ones((2, 3), dtype=np.complex128))
    with pytest.raises(ShapeError):
        with_magnitude(z, z)
    with pytest.raises(ShapeError):
        with_magnitude(z, ct.CTensor(np.ones((1, 3))))
    with pytest.raises(ShapeError):
        with_magnitude(ct.CTensor(np.ones((2, 3))), ct.CTensor(np.ones((2, 3))))


def test_subgradients_at_kinks_are_zero():
    z = np.array([0.0 + 0.0j, 1.0 + 1.0j])
    tape = ct.GradTape()
    pz = tape.parameter("z", z)
    g = ct.backward(tape, ct.sum_(ct.magnitude(pz)))
    assert g["z"][0] == 0.0 + 0.0j


def conv_reference(x, k, pad, g):
    """Direct loops: the padded cross-correlation y, and the adjoints of an
    upstream gradient g w.r.t. the input (scattered back over each window)
    and the kernel (gk[o,c,u,v] = sum_{b,i,j} conj(xp[b,c,i+u,j+v]) g[b,o,i,j])."""
    b, c, h, w = x.shape
    co, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((b, co, h, w), dtype=np.complex128)
    gxp = np.zeros_like(xp)
    for n in range(b):
        for i in range(h):
            for j in range(w):
                win = xp[n, :, i:i + kh, j:j + kw]
                for o in range(co):
                    y[n, o, i, j] = np.sum(win * k[o])
                gxp[n, :, i:i + kh, j:j + kw] += np.einsum("o,ocuv->cuv", g[n, :, i, j], np.conj(k))
    gk = np.zeros_like(k)
    for u in range(kh):
        for v in range(kw):
            gk[:, :, u, v] = np.einsum("bcij,boij->oc", np.conj(xp[:, :, u:u + h, v:v + w]), g)
    return y, gxp[:, :, pad:pad + h, pad:pad + w], gk


def test_conv2d_matches_direct_reference():
    rng = ct.make_rng(15)
    for order, batch, c_out in (p.values for p in CONV_ORDERS):
        k = crandn(rng, c_out, 2, 3, 3)
        x = crandn(rng, batch, 2, 5, 6)
        ref, _, _ = conv_reference(x, k, 1, np.zeros((batch, c_out, 5, 6)))
        y = plain_conv2d(ct.CTensor(x), ct.CTensor(k), order).data
        assert np.max(np.abs(y - ref)) <= 1e-12, order


def test_conv2d_backends_agree_on_gradients():
    # the tape's forward pass and both adjoints, in each contraction order,
    # against the same direct-loop reference; 5x5 kernels have 25 atoms
    rng = ct.make_rng(16)
    for order, batch, c_out in (("spectrum_first", 1, 13), ("kernel_first", 2, 4),
                                ("spectrum_first", 3, 4)):
        k = crandn(rng, c_out, 3, 5, 5)
        x = crandn(rng, batch, 3, 12, 14)
        g_out = crandn(rng, batch, c_out, 12, 14)

        def loss(y):
            # project with a fixed complex field to get a real scalar
            m = ct.magnitude(ct.sub(y, ct.CTensor(g_out)))
            return ct.sum_(ct.mul(m, m))

        tape = ct.GradTape()
        px = tape.parameter("x", x)
        pk = tape.parameter("k", k)
        y = plain_conv2d(px, pk, order)
        grads = ct.backward(tape, loss(y))
        # the upstream gradient the conv's backward received, from a tape on y
        tape = ct.GradTape()
        g = ct.backward(tape, loss(tape.parameter("y", y.data)))["y"]
        ref_y, ref_x, ref_k = conv_reference(x, k, 2, g)
        scale = np.max(np.abs(ref_y))
        assert np.max(np.abs(y.data - ref_y)) / scale <= 1e-12, order
        assert np.max(np.abs(grads["x"] - ref_x)) / np.max(np.abs(ref_x)) <= 1e-12, order
        assert np.max(np.abs(grads["k"] - ref_k)) / np.max(np.abs(ref_k)) <= 1e-12, order


@pytest.mark.parametrize("order, batch, c_out", CONV_ORDERS)
def test_conv2d_untracked_input_gets_no_adjoint(monkeypatch, order, batch, c_out):
    # an untracked input (the image) gets no adjoint transform in backward,
    # and the kernel gradient is the one a tracked input gets
    rng = ct.make_rng(18)
    x, k = crandn(rng, batch, 3, 5, 6), crandn(rng, c_out, 3, 3, 3)
    t = crandn(rng, batch, c_out, 5, 6)
    calls, real = [], ct._ifft2
    monkeypatch.setattr(ct, "_ifft2", lambda a: calls.append(a.shape) or real(a))

    def kernel_grad(track_x):
        tape = ct.GradTape()
        px = tape.parameter("x", x) if track_x else ct.CTensor(x)
        loss = l2_to(t)(plain_conv2d(px, tape.parameter("k", k), order))
        calls.clear()
        return ct.backward(tape, loss), len(calls)

    tracked, n_tracked = kernel_grad(True)
    untracked, n_untracked = kernel_grad(False)
    assert (n_tracked, n_untracked) == (1, 0)
    assert "x" not in untracked
    assert untracked["k"].tobytes() == tracked["k"].tobytes()


# two input streams and three output streams, the middle one fed by no
# connection
BLOCK_SLOTS = np.array([[0, 1], [-1, -1], [2, -1]])


def _blocked_conv(monkeypatch, block, order, batch, h, w):
    """conv2d's output and both gradients, its contraction in `order`
    walking `block` frequencies at a time (3x3 atoms, 3 per connection,
    Ci = 2, Co = 4)."""
    monkeypatch.setattr(ct, "FREQ_BLOCK", block)
    rng = ct.make_rng(40)
    x, c = crandn(rng, batch, 2, 2, h, w), crandn(rng, 3, 4, 2, 3)
    spectra = crandn(rng, 3, 3, h + 2, w + 2)
    tape = ct.GradTape()
    y = ct.conv2d(tape.parameter("x", x), tape.parameter("c", c), spectra, BLOCK_SLOTS, order)
    grads = ct.backward(tape, l2_to(crandn(rng, batch, 3, 4, h, w))(y))
    return y.data, grads["x"], grads["c"]


@pytest.mark.parametrize("order, batch", [pytest.param("spectrum_first", 1, id="spectrum_first"),
                                          pytest.param("kernel_first", 3, id="kernel_first")])
@pytest.mark.parametrize("h, w", [(9, 11), (3, 27)])   # F = 11 * 12 + 11 and 12 * 12 + 1
def test_conv2d_frequency_blocks_match_one_block(monkeypatch, order, batch, h, w):
    # blocks of 12 frequencies, which do not divide F (at F = 145 the last
    # frequency joins the block before it), give the single-block output and
    # gradients byte for byte.  Only a block that is a multiple of 4, as
    # FREQ_BLOCK is, keeps every spectrum-first GEMM column's sum as the
    # one-block GEMM has it; a block of 7 moves a few ulps.
    assert ct.FREQ_BLOCK % 4 == 0
    whole = _blocked_conv(monkeypatch, (h + 2) * (w + 2), order, batch, h, w)
    assert not whole[0][:, 1].any()     # the stream with no connection is exactly 0
    for got, want in zip(_blocked_conv(monkeypatch, 12, order, batch, h, w), whole):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(_blocked_conv(monkeypatch, 7, order, batch, h, w), whole):
        assert np.max(np.abs(got - want)) <= EXACT_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("order", ["spectrum_first", "kernel_first"])
def test_conv2d_backward_transforms_only_the_output_gradient(monkeypatch, order):
    # on an f32 tape whose forward runs in complex128, as an f32 model's
    # does, the node keeps the input spectrum the forward took, cast to
    # complex64, and no copy of x; backward then takes one FFT, of the
    # output gradient, though both operands are tracked
    b, n_in, ci, h, w = 3, 2, 2, 6, 7
    rng = ct.make_rng(44)
    tape = ct.GradTape()
    px = tape.parameter("x", crandn(rng, b, n_in, ci, h, w).astype(np.complex64))
    pc = tape.parameter("c", crandn(rng, 3, 4, ci, 3).astype(np.complex64))
    x = ct.astype(px, np.complex128)
    y = ct.conv2d(x, ct.astype(pc, np.complex128), crandn(rng, 3, 3, h + 2, w + 2),
                  BLOCK_SLOTS, order)
    held = _held_arrays(y)
    spectra = [a for a in held if a.shape == (b, n_in, ci, (h + 2) * (w + 2))]
    assert len(spectra) == 1 and spectra[0].dtype == np.complex64
    assert not any(a.shape == x.shape or np.shares_memory(a, x.data) for a in held)
    loss = l2_to(crandn(rng, b, 3, 4, h, w))(y)
    calls, real = [], ct._fft2
    monkeypatch.setattr(ct, "_fft2", lambda a: calls.append(a.shape) or real(a))
    grads = ct.backward(tape, loss)
    assert calls == [(b, 3, 4, h + 2, w + 2)]
    assert grads["x"].dtype == grads["c"].dtype == np.complex64


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "f32_tape"])
def test_conv2d_frees_the_input_spectrum_before_the_inverse_transform(monkeypatch, taped):
    # an inference forward keeps no input spectrum, and an f32 tape keeps
    # it cast down to complex64: either way the complex128 spectrum is
    # gone before the inverse FFT, whose peak would otherwise hold it too
    rng = ct.make_rng(47)
    x, c = crandn(rng, 2, 2, 2, 6, 7), crandn(rng, 3, 4, 2, 3)
    spectra, spectrum, alive = crandn(rng, 3, 3, 8, 9), [], []
    fft, ifft = ct._fft2, ct._ifft2

    def forward_fft(a):
        out = fft(a)
        spectrum.append(weakref.ref(out))
        return out

    def inverse_fft(a):
        alive.append(spectrum[0]() is not None)
        return ifft(a)

    monkeypatch.setattr(ct, "_fft2", forward_fft)
    monkeypatch.setattr(ct, "_ifft2", inverse_fft)
    tape = ct.GradTape()
    pc = tape.parameter("c", c.astype(np.complex64)) if taped else ct.CTensor(c)
    ct.conv2d(ct.CTensor(x), ct.astype(pc, np.complex128), spectra, BLOCK_SLOTS,
              "spectrum_first")
    assert alive == [False]


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_transforms_run_in_place_on_a_contiguous_complex_input(dtype):
    # conv2d hands each transform a buffer it owns and does not read again;
    # the in-place transform gives the out-of-place bytes
    from scipy import fft as sfft
    a = crandn(ct.make_rng(48), 2, 3, 8, 9).astype(dtype)
    for transform, reference in ((ct._fft2, sfft.fft2), (ct._ifft2, sfft.ifft2)):
        want = reference(a, axes=(-2, -1))
        buf = a.copy()
        got = transform(buf)
        assert np.shares_memory(got, buf)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _conv_outputs(order, tape):
    """conv2d's output and, on a tape of parameters at `tape` precision
    (None: untaped), both gradients; its input, coefficients and read-only
    spectra must come out unchanged."""
    rng = ct.make_rng(49)
    b, ci, h, w = 3, 2, 6, 7
    x, c = crandn(rng, b, 2, ci, h, w), crandn(rng, 3, 4, ci, 3)
    spectra = crandn(rng, 3, 3, h + 2, w + 2)
    spectra.flags.writeable = False
    target = crandn(rng, b, 3, 4, h, w)
    operands = [a.copy() for a in (x, c)]
    if tape is None:
        y = ct.conv2d(ct.CTensor(x), ct.CTensor(c), spectra, BLOCK_SLOTS, order)
        out = (y.data,)
    else:
        t = ct.GradTape()
        px, pc = (t.parameter(n, a.astype(tape)) for n, a in (("x", x), ("c", c)))
        y = ct.conv2d(ct.astype(px, np.complex128), ct.astype(pc, np.complex128), spectra,
                      BLOCK_SLOTS, order)
        grads = ct.backward(t, l2_to(target)(y))
        out = (y.data, grads["x"], grads["c"])
    assert all(a.tobytes() == want.tobytes() for a, want in zip((x, c), operands))
    return out


@pytest.mark.parametrize("order", ["spectrum_first", "kernel_first"])
@pytest.mark.parametrize("tape", [None, np.complex64, np.complex128],
                         ids=["untaped", "f32_tape", "f64_tape"])
def test_conv2d_in_place_transforms_match_out_of_place_ones(monkeypatch, order, tape):
    from scipy import fft as sfft
    got = _conv_outputs(order, tape)
    monkeypatch.setattr(ct, "_fft2", lambda a: sfft.fft2(a.copy(), axes=(-2, -1)))
    monkeypatch.setattr(ct, "_ifft2", lambda a: sfft.ifft2(a.copy(), axes=(-2, -1)))
    want = _conv_outputs(order, tape)
    assert len(got) == (1 if tape is None else 3)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_conv2d_with_unpadded_spectra_leaves_its_input_unchanged():
    # 1x1 atoms pad nothing, and the in-place forward transform still
    # runs on a copy of x
    rng = ct.make_rng(50)
    x = crandn(rng, 2, 2, 2, 5, 6)
    kept = x.copy()
    ct.conv2d(ct.CTensor(x), ct.CTensor(crandn(rng, 3, 4, 2, 1)), crandn(rng, 3, 1, 5, 6),
              BLOCK_SLOTS, "spectrum_first")
    assert x.tobytes() == kept.tobytes()


def _spectrum_first_case(dtype, batch):
    """Operands of spectrum-first's adjoints over BLOCK_SLOTS (two input
    streams, three output streams, the middle one fed by no connection) at
    F = 23 * 29 = 667 frequencies, more than one FREQ_BLOCK."""
    rng = ct.make_rng(45)
    f, ci, co, nr = 23 * 29, 2, 4, 3
    gh, xh = crandn(rng, batch, 3, co, f), crandn(rng, batch, 2, ci, f)
    coeffs, spectra = crandn(rng, 3, co, ci, nr), crandn(rng, 3, nr, f)
    return tuple(a.astype(dtype) for a in (gh, xh, coeffs, spectra))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("batch", [1, 3])
def test_spectrum_first_input_adjoint_is_the_conjugate_bank_mix(dtype, batch):
    # conj(coeffs) @ Z has the bits of the blocked _mix that ran the input
    # adjoint before: the adjoint conv on the conjugate bank with slots.T
    gh, xh, coeffs, spectra = _spectrum_first_case(dtype, batch)
    assert spectra.shape[-1] > ct.FREQ_BLOCK
    want = ct._mix(gh, np.conj(coeffs).transpose(0, 2, 1, 3), np.conj(spectra),
                   BLOCK_SLOTS.T, True)
    for kept in (xh, None):   # with and without the coefficient adjoint
        got, gc = ct._spectrum_first_adjoints(gh, coeffs, spectra, BLOCK_SLOTS, kept)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (gc is None) == (kept is None)
    assert ct._spectrum_first_adjoints(gh, None, spectra, BLOCK_SLOTS, xh)[0] is None


@pytest.mark.parametrize("batch", [1, 3])
def test_spectrum_first_coefficient_adjoint_matches_the_product_formula(batch):
    # Z @ conj(xh_i)^T against the per-output-stream formula it replaces:
    # conj(conj(g_o) @ (xh_i * s_p)^T), reduced over batch and frequency
    gh, xh, coeffs, spectra = _spectrum_first_case(np.complex128, batch)
    _, gc = ct._spectrum_first_adjoints(gh, None, spectra, BLOCK_SLOTS, xh)
    b, _, ci, f = xh.shape
    co, nr = gh.shape[2], spectra.shape[1]
    want = np.zeros_like(gc)
    for o in range(BLOCK_SLOTS.shape[0]):
        for i in range(BLOCK_SLOTS.shape[1]):
            p = BLOCK_SLOTS[o, i]
            if p < 0:
                continue
            g = gh[:, o].transpose(1, 0, 2).reshape(co, b * f)                     # (Co, B*F)
            z = xh[:, i].transpose(1, 0, 2)[:, None] * spectra[p][None, :, None]   # (Ci, nr, B, F)
            want[p] = np.conj(np.conj(g) @ z.reshape(ci * nr, b * f).T).reshape(co, ci, nr)
    assert np.max(np.abs(gc - want)) <= 1e-13 * np.max(np.abs(want))
    c64 = [a.astype(np.complex64) for a in (gh, spectra, xh)]
    assert ct._spectrum_first_adjoints(c64[0], None, c64[1], BLOCK_SLOTS, c64[2])[1].dtype \
        == np.complex64


@pytest.mark.parametrize("order", ["spectrum_first", "kernel_first"])
def test_frozen_bank_computes_no_coefficient_adjoint(monkeypatch, order):
    # tracked x and untracked coefficients: the node keeps no input
    # spectrum, backward forms no coefficient adjoint, and the input
    # gradient has the bytes it has when the coefficients are tracked
    rng = ct.make_rng(46)
    x, c = crandn(rng, 3, 2, 2, 6, 7), crandn(rng, 3, 4, 2, 3)
    spectra, t = crandn(rng, 3, 3, 8, 9), crandn(rng, 3, 3, 4, 6, 7)
    coefficient_adjoints = []

    def recorded(fn, pick):
        def wrapper(*args):
            out = fn(*args)
            coefficient_adjoints.append(pick(out))
            return out
        return wrapper

    monkeypatch.setattr(ct, "_spectrum_first_adjoints",
                        recorded(ct._spectrum_first_adjoints, lambda out: out[1]))
    monkeypatch.setattr(ct, "_coeff_adjoint", recorded(ct._coeff_adjoint, lambda out: out))

    def input_grad(track_c):
        tape = ct.GradTape()
        pc = tape.parameter("c", c) if track_c else ct.CTensor(c)
        y = ct.conv2d(tape.parameter("x", x), pc, spectra, BLOCK_SLOTS, order)
        held = _held_arrays(y)
        coefficient_adjoints.clear()
        grads = ct.backward(tape, l2_to(t)(y))
        return grads, held, [a for a in coefficient_adjoints if a is not None]

    tracked, _, computed = input_grad(True)
    assert len(computed) == 1
    frozen, held, computed = input_grad(False)
    assert computed == [] and "c" not in frozen
    assert all(a.shape != (3, 2, 2, 8 * 9) for a in held)   # no input spectrum
    assert frozen["x"].tobytes() == tracked["x"].tobytes()


def spy_split_threads(monkeypatch) -> list:
    """Per `_map_split` call, (calling thread, threads that ran its items)."""
    calls, real = [], ct._map_split

    def map_split(fn, items):
        seen = set()
        calls.append((threading.get_ident(), seen))
        return real(lambda x: seen.add(threading.get_ident()) or fn(x), items)

    monkeypatch.setattr(ct, "_map_split", map_split)
    return calls


@pytest.mark.parametrize("order", ["spectrum_first", "kernel_first"])
@pytest.mark.parametrize("batch", [2, 3, 8])
def test_conv2d_split_frequency_blocks_match_the_serial_walk(monkeypatch, order, batch):
    # F = 11 * 13 = 143: blocks of 12 frequencies (the last one 11 wide) on
    # one thread and on two; the forward and both gradients keep their bytes
    monkeypatch.setattr(ct, "_workers", lambda: 1)
    serial = _blocked_conv(monkeypatch, 12, order, batch, 9, 11)
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    calls = spy_split_threads(monkeypatch)
    split = _blocked_conv(monkeypatch, 12, order, batch, 9, 11)
    assert calls and len(calls[0][1]) == 2     # the forward's blocks ran on two threads
    for got, want in zip(split, serial):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class SliceLog(np.ndarray):
    """An array that logs each frequency block read from it or from a view
    of it: a slice with a start, alone or last in the index."""
    log = []

    def __getitem__(self, key):
        last = key[-1] if isinstance(key, tuple) else key
        if isinstance(last, slice) and last.start is not None:
            self.log.append((last.start, last.stop))
        return super().__getitem__(key)


@pytest.mark.parametrize("order", ["spectrum_first", "kernel_first"])
def test_mix_walks_one_block_width_at_any_batch_and_thread_count(monkeypatch, order):
    # F = 23 * 29 = 667: blocks of FREQ_BLOCK frequencies, the last one
    # shorter, whether the batch is split over two threads or not
    f = 23 * 29
    width = ct.FREQ_BLOCK
    want = [(s, min(s + width, f)) for s in range(0, f, width)]
    assert len(want) > 2 and want[-1][1] - want[-1][0] not in (1, width)
    for batch in (1, 3):
        _, xh, coeffs, spectra = _spectrum_first_case(np.complex128, batch)
        for workers in (1, 2):
            monkeypatch.setattr(ct, "_workers", lambda: workers)
            monkeypatch.setattr(SliceLog, "log", [])
            ct._mix(xh.view(SliceLog), coeffs, spectra, BLOCK_SLOTS, order == "spectrum_first")
            assert sorted(SliceLog.log) == want, (batch, workers)


def test_a_batch_of_one_walks_its_blocks_serially(monkeypatch):
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    calls = spy_split_threads(monkeypatch)
    _blocked_conv(monkeypatch, 16, "spectrum_first", 1, 9, 11)
    assert calls == []


@pytest.mark.parametrize("failing", [0, 1], ids=["caller_half", "worker_half"])
def test_a_failing_half_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(ct, "_workers", lambda: 2)

    def fn(x):
        if x == failing:
            raise ShapeError(f"item {x} failed")
        return x

    with pytest.raises(ShapeError, match=f"item {failing} failed"):
        ct._map_split(fn, range(4))
    # the lock was released: the next split runs on two threads again
    threads = set()
    assert ct._map_split(lambda x: threads.add(threading.get_ident()) or -x, range(4)) == [0, -1, -2, -3]
    assert len(threads) == 2


def test_a_split_inside_a_split_runs_inline(monkeypatch):
    # on the worker and on the caller alike, a nested split finds the lock
    # taken and runs its items on its own thread
    monkeypatch.setattr(ct, "_workers", lambda: 2)

    def outer(x):
        me = threading.get_ident()
        inner = ct._map_split(lambda y: (y, threading.get_ident()), range(3))
        return me, inner

    results = ct._map_split(outer, range(2))
    assert len({me for me, _ in results}) == 2
    for me, inner in results:
        assert inner == [(y, me) for y in range(3)]


def test_concurrent_splits_share_the_worker_one_half_at_a_time(monkeypatch):
    # threads that split at once each get their own results in order; the
    # worker never runs two halves at once, and a split that finds it busy
    # runs inline
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    worker_busy, overlap, lock = [0], [], threading.Lock()
    errors = []

    def fn(x):
        on_worker = threading.current_thread().name.startswith("harmnet-split")
        if on_worker:
            with lock:
                worker_busy[0] += 1
                overlap.append(worker_busy[0])
        total = sum(range(x * 50))
        if on_worker:
            with lock:
                worker_busy[0] -= 1
        return total

    def client(k):
        try:
            for n in range(40):
                items = list(range(k + n % 5))
                assert ct._map_split(fn, items) == [sum(range(x * 50)) for x in items]
        except AssertionError as e:       # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and overlap and max(overlap) == 1


@pytest.mark.parametrize("spectrum_first", [True, False])
def test_mix_forms_no_full_size_intermediate(spectrum_first):
    # at F = 4096 frequencies, what _mix allocates besides its output stays
    # under half of the (I*Ci*nr, B*F) basis products of one output stream
    # (spectrum-first) or of the (F, I*Ci*O*Co) kernel spectra
    # (kernel-first) that an unblocked contraction would form
    b, n_in, ci, n_out, co, nr, f = 2, 3, 4, 3, 4, 3, 64 * 64
    rng = ct.make_rng(41)
    xh, coeffs = crandn(rng, b, n_in, ci, f), crandn(rng, 9, co, ci, nr)
    spectra, slots = crandn(rng, 9, nr, f), np.arange(9).reshape(n_out, n_in)
    full = 16 * f * (n_in * ci * nr * b if spectrum_first else n_in * ci * n_out * co)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ct._mix(xh, coeffs, spectra, slots, spectrum_first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - out.nbytes < full / 2
    assert out.flags.c_contiguous and out.shape == (b, n_out, co, f)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_basis_products_are_c_ordered_and_match_the_broadcast_product(dtype):
    # _mix reads a transposed block of the input spectra; the product is
    # built C-ordered, so its reshape is a view and no second product-sized
    # array is made, and it has the bytes of the plain broadcast product
    rng = ct.make_rng(42)
    xh = crandn(rng, 3, 2, 4, 1400).astype(dtype)        # (B, I, Ci, F)
    spectra = crandn(rng, 5, 6, 1400).astype(dtype)      # (P, nr, F)
    xt, ps, ins = xh[..., 80:1330].transpose(1, 2, 0, 3), np.array([4, 0]), np.array([1, 0])
    want = xt[ins][:, :, None] * spectra[ps][:, None, :, None, 80:1330]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ct._basis_products(xt, spectra[..., 80:1330], ps, ins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * got.nbytes
    assert got.dtype == want.dtype and got.tobytes() == want.reshape(got.shape).tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("co, k, n", [(8, 27, 4 * 68 * 68), (3, 5, 17), (1, 9, 64)])
def test_coefficient_adjoint_conjugates_the_small_operand_bitwise(dtype, co, k, n):
    # spectrum-first's coefficient adjoint takes Z @ conj(xh_i).T,
    # conjugating the (Ci, B*F) input spectrum instead of the (Pj*Co*nr,
    # B*F) products: the same bytes as conj(conj(Z) @ xh_i.T)
    rng = ct.make_rng(43)
    xh, z = crandn(rng, co, n).astype(dtype), crandn(rng, k, n).astype(dtype)
    assert (z @ np.conj(xh).T).tobytes() == np.conj(np.conj(z) @ xh.T).tobytes()


def test_mul_untracked_operand_gets_no_adjoint():
    tape = ct.GradTape()
    a = tape.parameter("a", np.array([1.0 + 2.0j, -0.5j]))
    y = ct.mul(a, ct.CTensor(np.array([2.0, 3.0])))
    _, back = tape.nodes[y.node]
    ga, gb = back(np.ones(2, dtype=np.complex128))
    assert gb is None
    assert np.array_equal(ga, [2.0, 3.0])


def test_avg_pool2_matches_block_mean():
    rng = ct.make_rng(17)
    x = crandn(rng, 1, 2, 6, 8)
    y = ct.avg_pool2(ct.CTensor(x)).data
    for i in range(3):
        for j in range(4):
            blk = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean(axis=(2, 3))
            assert np.max(np.abs(y[:, :, i, j] - blk)) <= EXACT_TOL


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.float32])
def test_avg_pool2_matches_reshape_mean_bitwise(dtype):
    rng = ct.make_rng(16)
    x = crandn(rng, 2, 3, 4, 6, 8)
    x = (x if np.issubdtype(dtype, np.complexfloating) else x.real).astype(dtype)
    want = x.reshape(2, 3, 4, 3, 2, 4, 2).mean(axis=(-3, -1))
    got = ct.avg_pool2(ct.CTensor(x)).data
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# tape mechanics and error contracts
# ---------------------------------------------------------------------------

def test_backward_rejects_non_scalar_and_complex_loss():
    tape = ct.GradTape()
    p = tape.parameter("x", np.ones(3))
    with pytest.raises(ContractError):
        ct.backward(tape, ct.mul(p, p))          # non-scalar
    tape2 = ct.GradTape()
    pz = tape2.parameter("z", np.ones(2, dtype=np.complex128))
    with pytest.raises(ContractError):
        ct.backward(tape2, ct.sum_(pz))          # complex scalar


def test_backward_frees_the_tape_and_runs_once():
    # the sweep drops every node it visits, so with the cyclic collector off
    # an intermediate dies as soon as the tape and the loss are dropped
    gc.disable()
    try:
        tape = ct.GradTape()
        p = tape.parameter("x", np.arange(3.0))
        y = ct.mul(p, p)
        alive = weakref.ref(y.data)
        loss = ct.sum_(y)
        del y
        n = len(tape.nodes)
        grads = ct.backward(tape, loss)
        assert len(tape.nodes) == n
        with pytest.raises(ContractError):
            ct.backward(tape, loss)
        del tape, loss
        assert alive() is None
    finally:
        gc.enable()
    assert np.array_equal(grads["x"], 2 * np.arange(3.0))


def test_a_tape_dropped_before_backward_needs_no_collector():
    # closures hold arrays, never tensors (whose .tape points back), so a
    # tape is no reference cycle: dropping it frees what its nodes hold
    gc.disable()
    try:
        x = np.arange(3.0)
        alive = weakref.ref(x)
        tape = ct.GradTape()
        p = tape.parameter("x", x)
        loss = ct.sum_(ct.mul(p, p))
        del x, p, tape, loss
        assert alive() is None
    finally:
        gc.enable()


def _held_arrays(t):
    """The arrays that t's backward closure holds (a tensor counts as its
    data): what the tape keeps alive for t until the reverse sweep.  For a
    whole tape, the arrays every node's closure holds."""
    nodes = t.nodes if isinstance(t, ct.GradTape) else [t.tape.nodes[t.node]]
    held = []

    def visit(obj):
        if isinstance(obj, ct.CTensor):
            visit(obj.data)
        elif isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, (list, tuple)):
            for o in obj:
                visit(o)

    for _, back in nodes:
        for cell in getattr(back, "__closure__", None) or ():
            visit(cell.cell_contents)
    return held


def twice(t):
    """2t as an intermediate tensor: the product keeps only its scalar."""
    return ct.mul(t, ct.CTensor(np.asarray(2.0)))


def _input_freed_while_tape_lives(op, x, untracked=None):
    """Record op on an intermediate y that only op consumes; once the caller
    drops y and op's output, y's data is gone though the tape is alive."""
    gc.disable()
    try:
        tape = ct.GradTape()
        y = twice(tape.parameter("p", x))     # mul keeps only its scalar
        alive = weakref.ref(y.data)
        out = op(y) if untracked is None else op(y, ct.CTensor(untracked))
        assert out.node is not None
        del y, out
        return alive() is None
    finally:
        gc.enable()


SHAPE_ONLY_OPS = {
    "add": (lambda y: ct.add(y, y), (2, 4)),
    "sub": (lambda y: ct.sub(y, y), (2, 4)),
    "conj_transpose": (ct.conj_transpose, (2, 4)),
    "reshape": (lambda y: ct.reshape(y, (8,)), (2, 4)),
    "narrow": (lambda y: ct.narrow(y, 1, 1, 2), (2, 4)),
    "concat": (lambda y: ct.concat([y, y], axis=0), (2, 4)),
    "take": (lambda y: ct.take(y, np.array([0, 0, 1])), (2, 4)),
    "sum_": (lambda y: ct.sum_(y, axis=1), (2, 4)),
    "mean": (lambda y: ct.mean(y, axis=0), (2, 4)),
    "astype": (lambda y: ct.astype(y, np.complex64), (2, 4)),
    "avg_pool2": (ct.avg_pool2, (2, 4)),
    "polar_unit": (ct.polar_unit, (3,)),
}


@pytest.mark.parametrize("name", sorted(SHAPE_ONLY_OPS))
def test_shape_only_adjoints_keep_no_operand(name):
    op, shape = SHAPE_ONLY_OPS[name]
    rng = ct.make_rng(31)
    x = rng.standard_normal(shape) if name == "polar_unit" else crandn(rng, *shape)
    assert _input_freed_while_tape_lives(op, x)


@pytest.mark.parametrize("op, untracked, tracked_first", [
    (ct.mul, np.array([2.0, 3.0, -1.0]), True),
    (ct.mul, np.array([2.0, 3.0, -1.0]), False),
    (ct.div, np.array([2.0, 3.0, -1.0]), True),
    (ct.complex_matmul, np.eye(3) * 2.0, True),
    (ct.complex_matmul, np.eye(3) * 2.0, False),
], ids=["mul_tracked_left", "mul_tracked_right", "div", "matmul_tracked_left", "matmul_tracked_right"])
def test_products_with_an_untracked_operand_keep_only_that_operand(op, untracked, tracked_first):
    # the tracked operand's adjoint reads only the untracked one
    x = crandn(ct.make_rng(32), 3, 3)
    pair = (lambda y, c: op(y, c)) if tracked_first else (lambda y, c: op(c, y))
    assert _input_freed_while_tape_lives(pair, x, untracked)


def test_magnitude_map_leaves_the_layers_arrays_unmodified():
    # the forward takes r/|z| in |z|'s buffer only when no array of the
    # layer shares it: r may be a parameter's own array (with_magnitude),
    # a layer may keep |z| among its saved arrays, or return |z| itself
    rng = ct.make_rng(44)
    z = crandn(rng, 3, 4)
    z[0, 0] = 0
    r = rng.random((3, 4))
    before = r.copy()
    tape = ct.GradTape()
    y = with_magnitude(tape.parameter("z", z), tape.parameter("r", r))
    assert r.tobytes() == before.tobytes()
    assert y.data[0, 0] == r[0, 0] and any(a is r for a in _held_arrays(y))   # kept as is
    kept = []

    def keeps_magnitudes(mag):
        kept.append(mag)
        return 2 * mag, (mag,)

    ct.magnitude_map(ct.CTensor(z), (), keeps_magnitudes, None)
    assert kept[0].tobytes() == np.abs(z).tobytes()
    same = ct.magnitude_map(ct.CTensor(z), (), lambda mag: (mag, ()), None)
    assert np.max(np.abs(same.data - z)) <= EXACT_TOL


def test_magnitude_map_keeps_complex64_on_an_f32_tape():
    rng = ct.make_rng(45)
    tape = ct.GradTape()
    z = tape.parameter("z", crandn(rng, 3, 4).astype(np.complex64))
    r = tape.parameter("r", rng.random((3, 4)).astype(np.float32))
    y = with_magnitude(z, r)
    assert y.data.dtype == np.complex64
    g = ct.backward(tape, l2_to(crandn(rng, 3, 4))(y))
    assert g["z"].dtype == np.complex64 and g["r"].dtype == np.float32


def test_magnitude_layers_keep_only_their_inputs():
    # |z| and z/|z| (with its safe and zero masks) are recomputed in backward
    rng = ct.make_rng(34)
    tape = ct.GradTape()
    z = twice(tape.parameter("z", crandn(rng, 4, 5)))
    r = twice(tape.parameter("r", rng.random((4, 5))))
    held = _held_arrays(ct.magnitude(z))
    assert len(held) == 1 and held[0] is z.data
    held = _held_arrays(with_magnitude(z, r))
    assert len(held) == 2 and {id(a) for a in held} == {id(z.data), id(r.data)}


# ---------------------------------------------------------------------------
# tape precision: an f32 tape keeps and differentiates in float32/complex64
# ---------------------------------------------------------------------------

def test_tape_precision_comes_from_its_parameters():
    c128, f64 = np.dtype(np.complex128), np.dtype(np.float64)
    tape = ct.GradTape()
    assert tape.precision is None and tape.stored(c128) == c128
    tape.parameter("a", np.ones(2, dtype=np.float32))
    tape.parameter("b", np.ones(2, dtype=np.complex64))
    assert tape.precision == "f32"
    assert tape.stored(c128) == np.complex64 and tape.stored(f64) == np.float32
    assert tape.stored(np.dtype(np.int64)) == np.int64 and tape.stored(np.dtype(bool)) == bool
    tape.parameter("c", np.ones(2))      # one float64 parameter makes the tape f64
    assert tape.precision == "f64" and tape.stored(c128) == c128


def test_keep_copies_only_above_the_tapes_precision():
    rng = ct.make_rng(35)
    tape = ct.GradTape()
    z32 = ct.reshape(tape.parameter("z", crandn(rng, 4).astype(np.complex64)), (4,))
    z128 = ct.astype(z32, np.complex128)
    held = _held_arrays(ct.magnitude(z32))
    assert len(held) == 1 and held[0] is z32.data             # already single: no copy
    held = _held_arrays(ct.magnitude(z128))
    assert len(held) == 1 and held[0].dtype == np.complex64
    assert np.array_equal(held[0], z32.data)
    untracked = ct.CTensor(z128.data)
    assert ct._keep(untracked.data, untracked) is untracked.data   # off tape: as is


def test_f32_tape_nodes_keeping_one_source_each_cast_it():
    # three products keep the same complex128 operand for w's adjoint: each
    # keeps its own complex64 cast of it, none keeps the source alive, and
    # the gradient equals that of three separate sources
    rng = ct.make_rng(38)
    w0, src = crandn(rng, 2, 3).astype(np.complex64), crandn(rng, 3, 4)

    def run(sources):
        tape = ct.GradTape()
        w = tape.parameter("w", w0)
        ys = [ct.complex_matmul(w, ct.CTensor(s)) for s in sources]
        kept = [a for y in ys for a in _held_arrays(y)]
        loss = l2_to(np.zeros((2, 4)))(ct.add(ct.add(ys[0], ys[1]), ys[2]))
        return tape, kept, loss

    values = src.copy()
    tape, kept, loss = run([src] * 3)
    assert len(kept) == 3
    for a in kept:
        assert a.dtype == np.complex64 and np.array_equal(a, src.astype(np.complex64))
    probe = weakref.ref(src)
    del src
    assert probe() is None
    grads = ct.backward(tape, loss)
    tape, kept, loss = run([values.copy() for _ in range(3)])
    assert grads["w"].tobytes() == ct.backward(tape, loss)["w"].tobytes()


def _widening_loss(p):
    """A real loss whose forward, like an f32 model's, widens single-precision
    parameters to float64/complex128 before the ops that keep operands: a
    conv over coefficients radial * e^{i beta}, a magnitude map, a matmul
    with a constant, exp, log and div."""
    rng = ct.make_rng(36)
    x = ct.astype(p["x"], np.complex128)                                  # (1, 2, 6, 6)
    k = ct.mul(ct.astype(p["k"], np.float64), ct.polar_unit(p["beta"]))    # (3, 2, 3, 3)
    y = plain_conv2d(x, k, "kernel_first")
    m = ct.magnitude(y)
    zero, one = ct.CTensor(np.zeros(())), ct.CTensor(np.ones(()))
    y = with_magnitude(y, ct.div(ct.log(ct.add(m, one)), ct.add(ct.exp(ct.sub(zero, m)), one)))
    y = ct.complex_matmul(y, ct.CTensor(crandn(rng, 6, 4)))
    return l2_to(crandn(rng, 1, 3, 6, 4))(y)


def test_f32_tape_keeps_and_differentiates_in_single_precision():
    rng = ct.make_rng(37)
    params = {"x": crandn(rng, 1, 2, 6, 6).astype(np.complex64),
              "k": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
              "beta": rng.standard_normal((3, 2, 1, 1)).astype(np.float32)}
    tape = ct.GradTape()
    loss = _widening_loss({k: tape.parameter(k, v) for k, v in params.items()})
    assert loss.data.dtype == np.float64                 # the forward ran wide
    floats = {a.dtype for a in _held_arrays(tape) if a.dtype.kind in "fc"}
    assert floats == {np.dtype(np.float32), np.dtype(np.complex64)}
    grads = ct.backward(tape, loss)
    tape = ct.GradTape()
    wide = {k: tape.parameter(k, v.astype(np.result_type(v, np.float64)))
            for k, v in params.items()}
    ref = ct.backward(tape, _widening_loss(wide))
    for k, v in params.items():
        assert grads[k].dtype == v.dtype, k
        assert np.max(np.abs(grads[k] - ref[k])) <= 1e-5 * np.max(np.abs(ref[k])), k


def test_mixing_tapes_rejected():
    t1, t2 = ct.GradTape(), ct.GradTape()
    a = t1.parameter("a", np.ones(2))
    b = t2.parameter("b", np.ones(2))
    with pytest.raises(ContractError):
        ct.add(a, b)


def test_gradient_accumulates_over_reuse():
    tape = ct.GradTape()
    x = tape.parameter("x", np.array([1.5, -2.0]))
    y = ct.add(x, x)
    loss = ct.sum_(y)
    g = ct.backward(tape, loss)
    assert np.allclose(g["x"], [2.0, 2.0])


def test_unused_parameter_gets_none():
    tape = ct.GradTape()
    x = tape.parameter("x", np.ones(2))
    tape.parameter("unused", np.ones(3))
    g = ct.backward(tape, ct.sum_(x))
    assert g["unused"] is None


def test_shape_errors():
    a = ct.CTensor(np.ones((2, 3), dtype=np.complex128))
    b = ct.CTensor(np.ones((4, 5), dtype=np.complex128))
    with pytest.raises(ShapeError):
        ct.complex_matmul(a, b)
    with pytest.raises(ShapeError):
        ct.div(a, ct.CTensor(np.ones((2, 3), dtype=np.complex128)))
    with pytest.raises(ShapeError):
        ct.avg_pool2(ct.CTensor(np.ones((1, 1, 3, 4), dtype=np.complex128)))
    with pytest.raises(ShapeError):
        ct.exp(a)
    with pytest.raises(ShapeError):
        ct.conv2d(ct.CTensor(np.ones((1, 1, 2, 4, 4))), ct.CTensor(np.ones((1, 3, 3, 9))),
                  impulse_spectra(3, 3, 6, 6), np.zeros((1, 1), dtype=int), "spectrum_first")
    with pytest.raises(ContractError):     # the contraction order has no default or fallback
        ct.conv2d(ct.CTensor(np.ones((1, 1, 3, 4, 4))), ct.CTensor(np.ones((1, 3, 3, 9))),
                  impulse_spectra(3, 3, 6, 6), np.zeros((1, 1), dtype=int), "direct")


def test_real_parameter_receives_real_gradient():
    rng = ct.make_rng(18)
    scale = rng.standard_normal((3,))
    z = crandn(rng, 3)
    tape = ct.GradTape()
    ps = tape.parameter("s", scale)
    y = ct.mul(ct.CTensor(z), ps)
    m = ct.magnitude(y)
    g = ct.backward(tape, ct.sum_(ct.mul(m, m)))
    assert g["s"].dtype == np.float64
    assert np.allclose(g["s"], 2 * scale * np.abs(z) ** 2)


# ---------------------------------------------------------------------------
# precision and RNG
# ---------------------------------------------------------------------------

def test_precision_pairs():
    x32 = ct.CTensor((np.ones((2, 2)) * (1 + 2j)).astype(ct.DTYPES["f32"][1]))
    assert ct.magnitude(x32).data.dtype == np.float32
    assert ct.mul(x32, x32).data.dtype == np.complex64
    x64 = ct.CTensor(np.ones(2) * 1j)
    assert ct.magnitude(x64).data.dtype == np.float64


def test_rng_streams_reproducible_and_independent():
    a = ct.make_rng(42).standard_normal(5)
    b = ct.make_rng(42).standard_normal(5)
    assert np.array_equal(a, b)
    s1 = ct.derive_rng(42, "stem.conv1").standard_normal(5)
    s2 = ct.derive_rng(42, "stem.conv2").standard_normal(5)
    s1_again = ct.derive_rng(42, "stem.conv1").standard_normal(5)
    assert np.array_equal(s1, s1_again)
    assert not np.array_equal(s1, s2)


# ---------------------------------------------------------------------------
# property tests (kept small: single-core CI)
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_matmul_forward_property(n, k, m, seed):
    rng = ct.make_rng(seed)
    a = crandn(rng, n, k)
    b = crandn(rng, k, m)
    y = ct.complex_matmul(ct.CTensor(a), ct.CTensor(b)).data
    assert np.max(np.abs(y - a @ b)) <= 1e-12 * max(1.0, np.max(np.abs(a @ b)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_with_magnitude_recombination_property(n, m, seed):
    rng = ct.make_rng(seed)
    z = crandn(rng, n, m)
    mag = ct.magnitude(ct.CTensor(z))
    y = with_magnitude(ct.CTensor(z), mag)
    assert np.all(mag.data >= 0)
    assert np.max(np.abs(y.data - z)) <= 1e-12 * max(1.0, np.max(np.abs(z)))
