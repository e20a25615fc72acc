"""Gradient and algebra tests for the tensor engine.

Ground truth for every backward rule is the central finite difference over
the real components of each input; complex entries are perturbed as
independent (re, im) pairs.  Gradient checks run at f64 with step 1e-5 and
must stay under 1e-6 relative error.  Exact algebraic laws (recombination,
unitarity, row-stochasticity) are held to 1e-12.
"""

import gc
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
    return ct.magnitude_map(z, (r,), lambda mag, r: (r, None),
                            lambda gr, _: (np.zeros_like(gr), gr))


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
        y = ct.sub(y, ct.neg(p["c"]))
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
    a = crandn(rng, 2, 3)
    b = crandn(rng, 2, 2)
    t = crandn(rng, 2, 4)

    def f(p):
        ca = ct.conj(p["a"])
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


def test_fd_softmax():
    rng = ct.make_rng(7)
    x = rng.standard_normal((4, 6)) * 3
    t = rng.standard_normal((4, 6))

    def f(p):
        s = ct.softmax(p["x"], axis=-1)
        d = ct.sub(s, ct.CTensor(t))
        return ct.sum_(ct.mul(d, d))

    check(f, {"x": x})


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
        return ct.magnitude_map(z, (r,), lambda mag, r: (r * mag, (r, mag)),
                                lambda gr, saved: (gr * saved[0], gr * saved[1]))

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
        z = ct.mul(ct.as_complex(p["r"]), u)
        return l2_to(t)(z)

    check(f, {"theta": theta, "r": r})


# (spectrum_first, batch, c_out) for a 3x3 kernel, 9 unit-impulse atoms, on
# each side of the contraction-order rule
CONV_ORDERS = [pytest.param(True, 1, 5, id="spectrum_first"),
               pytest.param(False, 2, 3, id="kernel_first")]


def impulse_spectra(kh, kw, hp, wp):
    """(1, kh*kw, hp, wp): a plain kernel is the coefficient form over unit
    impulses, atom u*kw + v being the impulse at (u, v), flipped and padded."""
    atoms = np.eye(kh * kw).reshape(kh * kw, kh, kw)[:, ::-1, ::-1]
    return np.fft.fft2(atoms, s=(hp, wp))[None]


def plain_conv2d(x, k):
    """conv2d of a (B, Ci, H, W) input with a plain (Co, Ci, kh, kw) kernel
    (zero padding kh // 2), as one connection over unit-impulse atoms."""
    b, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    y = ct.conv2d(ct.reshape(x, (b, 1, ci, h, w)), ct.reshape(k, (1, co, ci, kh * kw)),
                  impulse_spectra(kh, kw, h + kh - 1, w + kw - 1), np.zeros((1, 1), dtype=int))
    return ct.reshape(y, (b, co, h, w))


@pytest.mark.parametrize("spectrum_first, batch, c_out", CONV_ORDERS)
def test_fd_conv2d(spectrum_first, batch, c_out):
    assert ct._spectrum_first(batch, 9, 2, c_out) == spectrum_first
    rng = ct.make_rng(10)
    x = crandn(rng, batch, 2, 8, 8)
    k = crandn(rng, c_out, 2, 3, 3)
    t = crandn(rng, batch, c_out, 8, 8)

    def f(p):
        return l2_to(t)(plain_conv2d(p["x"], p["k"]))

    check(f, {"x": x, "k": k}, sample=40)


def test_fd_avg_pool2():
    rng = ct.make_rng(11)
    x = crandn(rng, 2, 3, 4, 4)
    t = crandn(rng, 2, 3, 2, 2)

    def f(p):
        return l2_to(t)(ct.avg_pool2(p["x"]))

    check(f, {"x": x})


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
        want = r * np.where(np.abs(z) == 0, 1, z / np.abs(z))
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


def test_softmax_rows_sum_to_one():
    rng = ct.make_rng(14)
    x = rng.standard_normal((6, 9)) * 10
    s = ct.softmax(ct.CTensor(x), axis=-1).data
    assert np.max(np.abs(s.sum(axis=-1) - 1.0)) <= EXACT_TOL
    assert np.all(s > 0)


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
    for spectrum_first, batch, c_out in (p.values for p in CONV_ORDERS):
        assert ct._spectrum_first(batch, 9, 2, c_out) == spectrum_first
        k = crandn(rng, c_out, 2, 3, 3)
        x = crandn(rng, batch, 2, 5, 6)
        ref, _, _ = conv_reference(x, k, 1, np.zeros((batch, c_out, 5, 6)))
        y = plain_conv2d(ct.CTensor(x), ct.CTensor(k)).data
        assert np.max(np.abs(y - ref)) <= 1e-12, spectrum_first


def test_conv2d_backends_agree_on_gradients():
    # the tape's forward pass and both adjoints, in each contraction order,
    # against the same direct-loop reference; 5x5 kernels have 25 atoms
    rng = ct.make_rng(16)
    for spectrum_first, batch, c_out in ((True, 1, 13), (False, 2, 4)):
        assert ct._spectrum_first(batch, 25, 3, c_out) == spectrum_first
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
        y = plain_conv2d(px, pk)
        grads = ct.backward(tape, loss(y))
        # the upstream gradient the conv's backward received, from a tape on y
        tape = ct.GradTape()
        g = ct.backward(tape, loss(tape.parameter("y", y.data)))["y"]
        ref_y, ref_x, ref_k = conv_reference(x, k, 2, g)
        scale = np.max(np.abs(ref_y))
        assert np.max(np.abs(y.data - ref_y)) / scale <= 1e-12, spectrum_first
        assert np.max(np.abs(grads["x"] - ref_x)) / np.max(np.abs(ref_x)) <= 1e-12, spectrum_first
        assert np.max(np.abs(grads["k"] - ref_k)) / np.max(np.abs(ref_k)) <= 1e-12, spectrum_first


@pytest.mark.parametrize("spectrum_first, batch, c_out", CONV_ORDERS)
def test_conv2d_untracked_input_gets_no_adjoint(monkeypatch, spectrum_first, batch, c_out):
    # an untracked input (the image) gets no adjoint transform in backward,
    # and the kernel gradient is the one a tracked input gets
    assert ct._spectrum_first(batch, 9, 3, c_out) == spectrum_first
    rng = ct.make_rng(18)
    x, k = crandn(rng, batch, 3, 5, 6), crandn(rng, c_out, 3, 3, 3)
    t = crandn(rng, batch, c_out, 5, 6)
    calls, real = [], ct._ifft2
    monkeypatch.setattr(ct, "_ifft2", lambda a: calls.append(a.shape) or real(a))

    def kernel_grad(track_x):
        tape = ct.GradTape()
        px = tape.parameter("x", x) if track_x else ct.CTensor(x)
        loss = l2_to(t)(plain_conv2d(px, tape.parameter("k", k)))
        calls.clear()
        return ct.backward(tape, loss), len(calls)

    tracked, n_tracked = kernel_grad(True)
    untracked, n_untracked = kernel_grad(False)
    assert (n_tracked, n_untracked) == (1, 0)
    assert "x" not in untracked
    assert untracked["k"].tobytes() == tracked["k"].tobytes()


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
    data): what the tape keeps alive for t until the reverse sweep."""
    held = []

    def visit(obj):
        if isinstance(obj, ct.CTensor):
            visit(obj.data)
        elif isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, (list, tuple)):
            for o in obj:
                visit(o)

    for cell in t.tape.nodes[t.node][1].__closure__ or ():
        visit(cell.cell_contents)
    return held


def _input_freed_while_tape_lives(op, x, untracked=None):
    """Record op on an intermediate y that only op consumes; once the caller
    drops y and op's output, y's data is gone though the tape is alive."""
    gc.disable()
    try:
        tape = ct.GradTape()
        y = tape.parameter("p", x) * 2.0     # mul keeps only its scalar
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
    "neg": (ct.neg, (2, 4)),
    "conj": (ct.conj, (2, 4)),
    "conj_transpose": (ct.conj_transpose, (2, 4)),
    "reshape": (lambda y: ct.reshape(y, (8,)), (2, 4)),
    "narrow": (lambda y: ct.narrow(y, 1, 1, 2), (2, 4)),
    "concat": (lambda y: ct.concat([y, y], axis=0), (2, 4)),
    "take": (lambda y: ct.take(y, np.array([0, 0, 1])), (2, 4)),
    "sum_": (lambda y: ct.sum_(y, axis=1), (2, 4)),
    "mean": (lambda y: ct.mean(y, axis=0), (2, 4)),
    "astype": (lambda y: ct.astype(y, np.complex64), (2, 4)),
    "avg_pool2": (ct.avg_pool2, (2, 4)),
    "as_complex": (ct.as_complex, (3,)),
    "polar_unit": (ct.polar_unit, (3,)),
}


@pytest.mark.parametrize("name", sorted(SHAPE_ONLY_OPS))
def test_shape_only_adjoints_keep_no_operand(name):
    op, shape = SHAPE_ONLY_OPS[name]
    rng = ct.make_rng(31)
    x = rng.standard_normal(shape) if name in ("as_complex", "polar_unit") else crandn(rng, *shape)
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


def test_magnitude_layers_keep_only_their_inputs():
    # |z| and z/|z| (with its safe and zero masks) are recomputed in backward
    rng = ct.make_rng(34)
    tape = ct.GradTape()
    z = tape.parameter("z", crandn(rng, 4, 5)) * 2.0
    r = tape.parameter("r", rng.random((4, 5))) * 2.0
    held = _held_arrays(ct.magnitude(z))
    assert len(held) == 1 and held[0] is z.data
    held = _held_arrays(with_magnitude(z, r))
    assert len(held) == 2 and {id(a) for a in held} == {id(z.data), id(r.data)}


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
                  impulse_spectra(3, 3, 6, 6), np.zeros((1, 1), dtype=int))


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
    x32 = ct.constant(np.ones((2, 2)) * (1 + 2j), precision="f32")
    assert x32.data.dtype == np.complex64
    r32 = ct.constant(np.ones(3), precision="f32")
    assert r32.data.dtype == np.float32
    assert ct.magnitude(x32).data.dtype == np.float32
    assert ct.mul(x32, x32).data.dtype == np.complex64
    x64 = ct.constant(np.ones(2) * 1j)
    assert x64.data.dtype == np.complex128


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
