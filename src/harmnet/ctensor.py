"""Dense tensor engine over complex and real scalars with reverse-mode gradients.

Complex values are held in numpy complex arrays; conceptually every complex
scalar is the interleaved pair (re, im) and all gradients are taken with
respect to the real and imaginary parts independently.  For a real-valued
loss L, the gradient carried for a complex tensor z is the complex array

    g(z) = dL/dRe(z) + i * dL/dIm(z),

which turns the chain rule for holomorphic forward ops into the familiar
conjugate rules (e.g. for C = A @ B:  g(A) = g(C) @ conj(B)^T).  No Wirtinger
calculus is involved, so a central finite difference over the real components
is a valid oracle for every gradient in this module.

Two precisions are supported: "f64" (float64/complex128) for verification and
gradient suites, "f32" (float32/complex64) for training.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# precision tag -> (real dtype, complex dtype)
DTYPES = {
    "f32": (np.float32, np.complex64),
    "f64": (np.float64, np.complex128),
}


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator.

    PCG64 has a published specification and numpy guarantees a stable stream
    for a given seed across platforms, which makes every initialization and
    shuffle in this library reproducible from a single integer.
    """
    return np.random.Generator(np.random.PCG64(seed))


def derive_rng(seed: int, name: str) -> np.random.Generator:
    """Independent named stream: stable under reordering of call sites."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(name.encode())))))


class GradTape:
    """Append-only record of ops for one reverse pass.

    Nodes are appended in execution order, so parents always precede their
    consumers and the backward pass is a single reverse sweep that visits
    each node exactly once.  A tape is confined to one logical execution;
    parameters are registered by name so `backward` can hand gradients back
    per slot.
    """

    def __init__(self):
        self.nodes = []        # node id -> (parent ids, backward fn)
        self.parameters = {}   # name -> node id

    def _append(self, parents, backward) -> int:
        self.nodes.append((parents, backward))
        return len(self.nodes) - 1

    def leaf(self, array: np.ndarray) -> "CTensor":
        t = CTensor(np.asarray(array), tape=self)
        t.node = self._append((), None)
        return t

    def parameter(self, name: str, array: np.ndarray) -> "CTensor":
        t = self.leaf(array)
        self.parameters[name] = t.node
        return t


class CTensor:
    """Immutable dense tensor (real or complex) optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data: np.ndarray, tape: GradTape | None = None):
        self.data = data
        self.tape = tape
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    def __repr__(self):
        return f"CTensor(shape={self.data.shape}, dtype={self.data.dtype}, tracked={self.node is not None})"

    # operator sugar; `other` may be a CTensor, ndarray or scalar
    def __add__(self, other):
        return add(self, _as_ct(other))

    def __radd__(self, other):
        return add(_as_ct(other), self)

    def __sub__(self, other):
        return sub(self, _as_ct(other))

    def __rsub__(self, other):
        return sub(_as_ct(other), self)

    def __mul__(self, other):
        return mul(self, _as_ct(other))

    def __rmul__(self, other):
        return mul(_as_ct(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return complex_matmul(self, _as_ct(other))


def _as_ct(x) -> CTensor:
    if isinstance(x, CTensor):
        return x
    return CTensor(np.asarray(x))


def constant(array, precision: str = "f64", complex_: bool | None = None) -> CTensor:
    """Untracked tensor at the given precision."""
    a = np.asarray(array)
    real_t, cplx_t = DTYPES[precision]
    if complex_ is None:
        complex_ = np.iscomplexobj(a)
    return CTensor(a.astype(cplx_t if complex_ else real_t))


def _tape_of(*tensors) -> GradTape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ContractError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _make(data, parents, backward) -> CTensor:
    """Create the output tensor, recording a node if any parent is tracked.

    `backward` receives the output gradient and returns one gradient per
    tracked parent (aligned with `parents` order, None for untracked).
    """
    tape = _tape_of(*parents)
    out = CTensor(data, tape=tape)
    if tape is not None:
        ids = tuple(p.node if p.tape is not None else None for p in parents)
        out.node = tape._append(ids, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _to_kind(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Match the gradient's real/complex kind and precision to the input."""
    if not np.iscomplexobj(like) and np.iscomplexobj(g):
        g = g.real
    return g.astype(like.dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: CTensor, b: CTensor) -> CTensor:
    data = a.data + b.data

    def backward(g):
        return (_to_kind(_unbroadcast(g, a.shape), a.data),
                _to_kind(_unbroadcast(g, b.shape), b.data))

    return _make(data, (a, b), backward)


def sub(a: CTensor, b: CTensor) -> CTensor:
    data = a.data - b.data

    def backward(g):
        return (_to_kind(_unbroadcast(g, a.shape), a.data),
                _to_kind(_unbroadcast(-g, b.shape), b.data))

    return _make(data, (a, b), backward)


def neg(a: CTensor) -> CTensor:
    return _make(-a.data, (a,), lambda g: (_to_kind(-g, a.data),))


def mul(a: CTensor, b: CTensor) -> CTensor:
    """Elementwise product; complex×real scales magnitudes, preserving phase."""
    data = a.data * b.data

    def backward(g):
        return (None if a.node is None else _to_kind(_unbroadcast(g * np.conj(b.data), a.shape), a.data),
                None if b.node is None else _to_kind(_unbroadcast(g * np.conj(a.data), b.shape), b.data))

    return _make(data, (a, b), backward)


def div(a: CTensor, b: CTensor) -> CTensor:
    """Division by a real tensor (complex denominators are not needed here)."""
    if b.is_complex:
        raise ShapeError("div expects a real denominator")
    data = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-(g * np.conj(a.data)).real / (b.data ** 2), b.shape)
        return _to_kind(ga, a.data), _to_kind(gb, b.data)

    return _make(data, (a, b), backward)


def conj(a: CTensor) -> CTensor:
    return _make(np.conj(a.data), (a,), lambda g: (_to_kind(np.conj(g), a.data),))


def complex_matmul(a: CTensor, b: CTensor) -> CTensor:
    """Matrix product; batch dims broadcast.  Works for real operands too."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.conj(b.data).swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.conj(a.data).swapaxes(-1, -2), g), b.shape)
        return _to_kind(ga, a.data), _to_kind(gb, b.data)

    return _make(data, (a, b), backward)


def conj_transpose(a: CTensor) -> CTensor:
    """Conjugate transpose of the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("conj_transpose expects rank >= 2")
    data = np.conj(a.data).swapaxes(-1, -2)

    def backward(g):
        return (_to_kind(np.conj(g).swapaxes(-1, -2), a.data),)

    return _make(data, (a,), backward)


def expand(a: CTensor, axis: int, n: int) -> CTensor:
    """Repeat `a` n times along a new axis (a read-only broadcast view).

    The n gradients arrive in a's dtype and are summed last copy first: the
    rounding and order the tape gives n separate uses of `a`, so one tensor
    shared across n slices has bit-identical gradients to n separate uses.
    """
    data = np.expand_dims(a.data, axis)
    data = np.broadcast_to(data, data.shape[:axis] + (n,) + data.shape[axis + 1:])

    def backward(g):
        return (np.flip(g, axis).sum(axis=axis),)

    return _make(data, (a,), backward)


def transpose(a: CTensor, axes: tuple) -> CTensor:
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inv),)

    return _make(data, (a,), backward)


def reshape(a: CTensor, shape) -> CTensor:
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int) -> CTensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(_to_kind(p, t.data) for p, t in zip(np.split(g, splits, axis=axis), tensors))

    return _make(data, tuple(tensors), backward)


def narrow(a: CTensor, axis: int, start: int, length: int) -> CTensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        return (_to_kind(full, a.data),)

    return _make(data, (a,), backward)


def sum_(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype),)

    return _make(data, (a,), backward)


def mean(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    n = a.data.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((np.broadcast_to(g, a.shape) / n).astype(a.data.dtype),)

    return _make(data, (a,), backward)


def take(table: CTensor, indices) -> CTensor:
    """Gather table[indices] (an index array, or a tuple of them for several
    axes); backward scatter-adds (indices are untracked)."""
    data = table.data[indices]

    def backward(g):
        acc = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(acc, indices, g)
        return (_to_kind(acc, table.data),)

    return _make(data, (table,), backward)


# ---------------------------------------------------------------------------
# real-only nonlinearities
# ---------------------------------------------------------------------------

def _require_real(a: CTensor, op: str):
    if a.is_complex:
        raise ShapeError(f"{op} expects a real tensor")


def relu(a: CTensor) -> CTensor:
    """max(x, 0); subgradient 0 at the kink."""
    _require_real(a, "relu")
    data = np.maximum(a.data, 0)

    def backward(g):
        return (g * (a.data > 0),)

    return _make(data, (a,), backward)


def exp(a: CTensor) -> CTensor:
    _require_real(a, "exp")
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _make(data, (a,), backward)


def log(a: CTensor) -> CTensor:
    _require_real(a, "log")
    data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _make(data, (a,), backward)


def sqrt(a: CTensor) -> CTensor:
    """Elementwise square root; subgradient 0 at 0 (same convention as
    magnitude), so normalizers whose variance collapses to exactly zero
    propagate a zero slope instead of an infinity."""
    _require_real(a, "sqrt")
    data = np.sqrt(a.data)

    def backward(g):
        denom = 2.0 * data
        safe = np.where(denom == 0, 1.0, denom)
        return (np.where(denom == 0, 0.0, g / safe),)

    return _make(data, (a,), backward)


def polar_unit(theta: CTensor) -> CTensor:
    """e^{i*theta} for a real angle tensor."""
    _require_real(theta, "polar_unit")
    cplx = DTYPES["f64" if theta.data.dtype == np.float64 else "f32"][1]
    data = (np.cos(theta.data) + 1j * np.sin(theta.data)).astype(cplx)

    def backward(g):
        return ((np.conj(data) * g).imag.astype(theta.data.dtype),)

    return _make(data, (theta,), backward)


def as_complex(a: CTensor) -> CTensor:
    """Promote a real tensor to complex with zero imaginary part."""
    _require_real(a, "as_complex")
    cplx = DTYPES["f64" if a.data.dtype == np.float64 else "f32"][1]
    data = a.data.astype(cplx)

    def backward(g):
        return (g.real.astype(a.data.dtype),)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# magnitude / phase
# ---------------------------------------------------------------------------

def magnitude(a: CTensor) -> CTensor:
    """|z| as a real tensor; subgradient 0 at z = 0."""
    data = np.abs(a.data)

    def backward(g):
        safe = np.where(data == 0, 1, data)
        u = np.where(data == 0, 0, a.data / safe)
        return (_to_kind(g * u, a.data),)

    return _make(data, (a,), backward)


def with_magnitude(z: CTensor, r: CTensor) -> CTensor:
    """r * z/|z| for a real r of z's shape, with phase 1+0i (and a zero
    z-gradient) where z = 0; the unit z * (1/|z|) rounds as z / |z| does."""
    if r.is_complex or r.shape != z.shape:
        raise ShapeError(f"with_magnitude expects real magnitudes of shape {z.shape}, got {r}")
    mag = np.abs(z.data)
    zero = mag == 0
    safe = np.where(zero, 1, mag)
    unit = z.data * (1 / safe)
    unit[zero] = 1
    data = r.data * unit

    def backward(g):
        # z: the adjoint of z/|z|, which has no radial part, applied to g*r
        gu = (g * r.data).astype(z.data.dtype, copy=False)
        gz = gu / safe - z.data * (np.conj(gu) * z.data).real / (safe ** 3)
        gz[zero] = 0
        return gz, (g * np.conj(unit)).real.astype(r.data.dtype, copy=False)

    return _make(data, (z, r), backward)


def softmax(a: CTensor, axis: int = -1) -> CTensor:
    """Real softmax; the max shift is detached, which is exact for softmax."""
    _require_real(a, "softmax")
    shift = CTensor(np.max(a.data, axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, sum_(e, axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# spatial ops (NCHW layout)
# ---------------------------------------------------------------------------

def _pick_backend(h: int, w: int) -> str:
    # FFT wins once the spatial map is large enough to amortize transforms
    return "fft" if h * w >= 256 else "gemm"


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, C, Hp, Wp) -> (B, H', W', C, kh, kw) sliding windows (view)."""
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return v.transpose(0, 2, 3, 1, 4, 5)


def _fft2(x, shape):
    from scipy import fft as sfft
    return sfft.fft2(x, s=shape, axes=(-2, -1))


def _ifft2(x):
    from scipy import fft as sfft
    return sfft.ifft2(x, axes=(-2, -1))


def _freq_contract(xh: np.ndarray, kh_: np.ndarray) -> np.ndarray:
    """Per-frequency channel mixing: (B,Ci,F..) x (Co,Ci,F..) -> (B,Co,F..)."""
    b, ci, fh, fw = xh.shape
    co = kh_.shape[0]
    xm = xh.reshape(b, ci, fh * fw).transpose(2, 0, 1)          # (F, B, Ci)
    km = kh_.reshape(co, ci, fh * fw).transpose(2, 1, 0)        # (F, Ci, Co)
    y = np.matmul(xm, km)                                        # (F, B, Co)
    return y.transpose(1, 2, 0).reshape(b, co, fh, fw)


def _correlate(xp: np.ndarray, k: np.ndarray, fft: bool) -> np.ndarray:
    """Valid cross-correlation (no kernel flip, stride 1) of an already
    padded (B, Ci, Hp, Wp) input with a (Co, Ci, kh, kw) kernel: one GEMM
    over the sliding windows, or a per-frequency product of FFTs."""
    b, _, hp, wp = xp.shape
    co, ci, kh, kw = k.shape
    if not fft:
        cols = _im2col(xp, kh, kw).reshape(b, hp - kh + 1, wp - kw + 1, ci * kh * kw)
        return (cols @ k.reshape(co, ci * kh * kw).T).transpose(0, 3, 1, 2)
    xh = _fft2(xp, (hp, wp))
    khat = _fft2(k[:, :, ::-1, ::-1], (hp, wp))
    out = _ifft2(_freq_contract(xh, khat))[:, :, kh - 1: hp, kw - 1: wp]
    want = np.result_type(xp.dtype, k.dtype)
    if not np.issubdtype(want, np.complexfloating):
        out = out.real
    return np.ascontiguousarray(out).astype(want, copy=False)


def _pad_hw(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    return np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def conv2d(x: CTensor, kernel: CTensor, pad: int) -> CTensor:
    """2D cross-correlation (no kernel flip) with zero padding, stride 1.

    x: (B, C_in, H, W), kernel: (C_out, C_in, kh, kw).  The convention is
    pinned by the impulse-response test: a centered delta input reproduces
    the point-reflected kernel.  The forward pass and both adjoints are
    valid correlations on the GEMM or FFT side chosen by the input size.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects (B,C,H,W) input and (Co,Ci,kh,kw) kernel")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch {x.shape[1]} vs {kernel.shape[1]}")
    h, w = x.shape[2:]
    kh, kw = kernel.shape[2:]
    fft = _pick_backend(h, w) == "fft"
    data = _correlate(_pad_hw(x.data, pad, pad), kernel.data, fft)

    def backward(g):
        gx = gk = None   # an untracked operand (the image) gets no adjoint
        if x.node is not None:
            # input: full correlation of g with conj(k), channels swapped and
            # flipped, cropped to the unpadded input
            k_adj = np.conj(kernel.data).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            gx = _correlate(_pad_hw(g, kh - 1, kw - 1), k_adj, fft)[:, :, pad: pad + h, pad: pad + w]
            gx = _to_kind(gx, x.data)
        if kernel.node is not None:
            # kernel: gk[o,c,u,v] = sum_{b,i,j} conj(xp[b,c,i+u,j+v]) g[b,o,i,j],
            # the correlation of conj(xp) with g, batch and channel axes swapped;
            # taken as conj(xp (x) conj(g)) so a complex64 x is transformed as
            # is (the FFT of conj(x) rounds x differently, ~1e-7 apart)
            xp = _pad_hw(x.data, pad, pad).transpose(1, 0, 2, 3)
            gk = np.conj(_correlate(xp, np.conj(g).transpose(1, 0, 2, 3), fft))
            gk = _to_kind(gk.transpose(1, 0, 2, 3), kernel.data)
        return gx, gk

    return _make(data, (x, kernel), backward)


def avg_pool2(x: CTensor) -> CTensor:
    """2x2 mean pooling over the last two axes (H, W), which must be even;
    any leading axes are carried through."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 requires even spatial dims, got {h}x{w}")
    data = ((x.data[..., 0::2, 0::2] + x.data[..., 0::2, 1::2])
            + (x.data[..., 1::2, 0::2] + x.data[..., 1::2, 1::2])) * 0.25

    def backward(g):
        gx = np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) / 4.0
        return (gx.astype(x.data.dtype),)

    return _make(data, (x,), backward)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle
# ---------------------------------------------------------------------------

def backward(tape: GradTape, loss: CTensor) -> dict:
    """Gradients of a real scalar loss w.r.t. every registered parameter."""
    if loss.tape is not tape or loss.node is None:
        raise ContractError("loss is not recorded on this tape")
    if loss.data.shape != () or loss.is_complex:
        raise ContractError("loss must be a real scalar")
    grads = [None] * len(tape.nodes)
    grads[loss.node] = np.ones((), dtype=loss.data.dtype)
    for nid in range(loss.node, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        parents, back = tape.nodes[nid]
        if back is None:
            continue
        for pid, pg in zip(parents, back(g)):
            if pid is None:
                continue
            if grads[pid] is None:
                grads[pid] = pg
            else:
                grads[pid] = grads[pid] + pg
        grads[nid] = None   # free as we go
    out = {}
    for name, nid in tape.parameters.items():
        out[name] = grads[nid]
    return out


def _real_view(a: np.ndarray) -> np.ndarray:
    """Flat float view of real or complex storage (complex -> re/im pairs)."""
    if np.iscomplexobj(a):
        return a.view(np.float64 if a.dtype == np.complex128 else np.float32).ravel()
    return a.ravel()


def finite_difference_check(f, params: dict, step: float = 1e-5, sample: int | None = None,
                            seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    f(params) -> scalar loss CTensor evaluated on a fresh tape; params maps
    name -> numpy array (real or complex; complex components are perturbed
    independently as re/im pairs).  `sample` caps the number of components
    checked per parameter (None = all).  Relative error per component is
    |g_a - g_fd| / max(1e-8, |g_a| + |g_fd|).
    """
    if step <= 0:
        raise ContractError("finite_difference_check requires step > 0")
    # private contiguous copies: perturbation goes through flat views
    params = {k: np.ascontiguousarray(v).copy() for k, v in params.items()}

    def run(grad: bool):
        tape = GradTape()
        leaves = {k: tape.parameter(k, v) for k, v in params.items()}
        loss = f(leaves)
        if not np.isfinite(loss.data):
            raise NumericError("non-finite loss during finite-difference check")
        return backward(tape, loss) if grad else float(loss.data)

    grads = run(grad=True)
    rng = make_rng(seed)
    worst = 0.0
    for name, base in params.items():
        g = grads[name]
        ga = np.zeros_like(base) if g is None else np.asarray(g, dtype=base.dtype)
        ga = _real_view(np.ascontiguousarray(ga))
        view = _real_view(base)
        idxs = np.arange(view.size)
        if sample is not None and view.size > sample:
            idxs = rng.choice(view.size, size=sample, replace=False)
        for i in idxs:
            orig = view[i]
            view[i] = orig + step
            up = run(grad=False)
            view[i] = orig - step
            dn = run(grad=False)
            view[i] = orig
            fd = (up - dn) / (2 * step)
            err = abs(ga[i] - fd) / max(1e-8, abs(ga[i]) + abs(fd))
            worst = max(worst, err)
    return worst
