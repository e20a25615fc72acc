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
    each node exactly once (and frees it: a tape serves one `backward`).  A tape is confined to one logical execution;
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


def astype(a: CTensor, dtype) -> CTensor:
    """a cast to another precision of its kind (real or complex); the
    gradient returns in a's dtype."""
    return _make(a.data.astype(dtype, copy=False), (a,), lambda g: (_to_kind(g, a.data),))


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
# spatial ops
# ---------------------------------------------------------------------------

def _fft2(x):
    from scipy import fft as sfft
    return sfft.fft2(x, axes=(-2, -1))


def _ifft2(x):
    from scipy import fft as sfft
    return sfft.ifft2(x, axes=(-2, -1))


def _spectrum_first(batch: int, n_radii: int, c_out: int) -> bool:
    """Contraction order of one harmonic conv: spectrum-first multiplies the
    input spectrum by the basis spectra and mixes channels with one GEMM per
    output stream, which pays n_radii products per input element and batch
    item; kernel-first builds the kernel spectra once and contracts per
    frequency, which pays per frequency for small matrices."""
    return n_radii * batch <= 2 * c_out


def _connections(slots: np.ndarray, o: int):
    """Connection and input-stream indices feeding output stream o."""
    ins = np.flatnonzero(slots[o] >= 0)
    return slots[o, ins], ins


def _basis_products(xt: np.ndarray, spectra: np.ndarray, ps, ins) -> np.ndarray:
    """(len(ps) * Ci * nr, B * F): input stream ins[j]'s spectrum (Ci, B, F)
    times each basis spectrum of connection ps[j]."""
    z = xt[ins][:, :, None] * spectra[ps][:, None, :, None]
    return z.reshape(-1, z.shape[-2] * z.shape[-1])


def _mix(xh: np.ndarray, coeffs: np.ndarray, spectra: np.ndarray, slots: np.ndarray,
         spectrum_first: bool) -> np.ndarray:
    """Per-frequency order mixing: out[:, o] = sum over input streams i of
    xh[:, i] times the kernel spectrum khat_p = sum_r coeffs[p, ..., r] *
    spectra[p, r] of connection p = slots[o, i] (-1: none).

    xh (B, I, Ci, F), coeffs (P, Co, Ci, nr), spectra (P, nr, F), slots
    (O, I) -> (B, O, Co, F) complex128.
    """
    b, n_in, ci, f = xh.shape
    n, co, _, nr = coeffs.shape
    n_out = slots.shape[0]
    if spectrum_first:
        xt = xh.transpose(1, 2, 0, 3)                                  # (I, Ci, B, F)
        out = np.zeros((n_out, co, b * f), dtype=np.complex128)
        for o in range(n_out):
            ps, ins = _connections(slots, o)
            if ps.size:
                c = coeffs[ps].transpose(1, 0, 2, 3).reshape(co, -1)   # (Co, Pj*Ci*nr)
                out[o] = c @ _basis_products(xt, spectra, ps, ins)
        return out.reshape(n_out, co, b, f).transpose(2, 0, 1, 3)
    kf = np.zeros((f, n_in, ci, n_out, co), dtype=np.complex128)      # kernel spectra
    for o, i in zip(*np.nonzero(slots >= 0)):
        p = slots[o, i]
        kf[:, i, :, o, :] = (spectra[p].T @ coeffs[p].transpose(2, 1, 0).reshape(nr, ci * co)
                             ).reshape(f, ci, co)
    xf = xh.reshape(b, n_in * ci, f).transpose(2, 0, 1)                # (F, B, I*Ci)
    y = np.matmul(xf, kf.reshape(f, n_in * ci, n_out * co))             # (F, B, O*Co)
    return y.transpose(1, 2, 0).reshape(b, n_out, co, f)


def _coeff_adjoint(xh: np.ndarray, gh: np.ndarray, spectra: np.ndarray, slots: np.ndarray,
                   spectrum_first: bool) -> np.ndarray:
    """Adjoint of `_mix` in its coefficients: out[p, o', c, r] = sum over
    batch and frequency of gh[:, o, o'] * conj(xh[:, i, c] * spectra[p, r])
    for each connection p = slots[o, i] -> (P, Co, Ci, nr)."""
    b, n_in, ci, f = xh.shape
    n_out, co = gh.shape[1:3]
    n, nr = spectra.shape[:2]
    out = np.zeros((n, co, ci, nr), dtype=np.complex128)
    if spectrum_first:
        xt = xh.transpose(1, 2, 0, 3)
        gt = gh.transpose(1, 2, 0, 3).reshape(n_out, co, b * f)
        for o in range(n_out):
            ps, ins = _connections(slots, o)
            if ps.size:
                z = _basis_products(xt, spectra, ps, ins)
                gc = gt[o] @ np.conj(z).T                                  # (Co, Pj*Ci*nr)
                out[ps] = gc.reshape(co, ps.size, ci, nr).transpose(1, 0, 2, 3)
        return out
    xf = np.conj(xh.reshape(b, n_in * ci, f).transpose(2, 1, 0))           # (F, I*Ci, B)
    gf = gh.reshape(b, n_out * co, f).transpose(2, 0, 1)                   # (F, B, O*Co)
    gk = np.matmul(xf, gf).reshape(f, n_in, ci, n_out, co)
    for o, i in zip(*np.nonzero(slots >= 0)):
        p = slots[o, i]
        out[p] = np.tensordot(np.conj(spectra[p]), gk[:, i, :, o, :], axes=(1, 0)).transpose(2, 1, 0)
    return out


def conv2d(x: CTensor, coeffs: CTensor, spectra: np.ndarray, slots: np.ndarray) -> CTensor:
    """Order-mixing convolution as a linear map of filter coefficients.

    x: (B, I, Ci, H, W) input streams; coeffs: (P, Co, Ci, nr), the weights
    of each connection's kernel over its nr basis atoms; spectra: (P, nr,
    Hp, Wp), each atom flipped in both axes and zero-padded to its FFT at
    Hp = H + kh - 1 (so the atoms are kh x kw, kh and kw odd); slots: (O, I)
    connection index per (output, input) stream pair, -1 for none.  Output
    stream o is sum_i x[:, i] correlated (no kernel flip, zero padding
    kh // 2, stride 1) with the kernel of connection slots[o, i], as one
    (B, O, Co, H, W) tensor.

    The input is transformed once and the output once; in between, the
    contraction order is chosen from the shapes (`_spectrum_first`).  Both
    adjoints recompute the spectra they need from x and coeffs, so the tape
    keeps nothing else.
    """
    if x.data.ndim != 5 or coeffs.data.ndim != 4 or spectra.ndim != 4 or slots.ndim != 2:
        raise ShapeError("conv2d expects (B,I,Ci,H,W) input, (P,Co,Ci,nr) coefficients, "
                         "(P,nr,Hp,Wp) spectra and (O,I) slots")
    b, n_in, ci, h, w = x.shape
    n, co, _, nr = coeffs.shape
    hp, wp = spectra.shape[2:]
    if coeffs.shape[2] != ci or spectra.shape[:2] != (n, nr) or slots.shape[1] != n_in:
        raise ShapeError(f"conv2d: input {x.shape}, coefficients {coeffs.shape}, "
                         f"spectra {spectra.shape} and slots {slots.shape} disagree")
    ph, pw = hp - h, wp - w
    if ph < 0 or pw < 0 or ph % 2 or pw % 2:
        raise ShapeError(f"conv2d: spectra {hp}x{wp} do not pad a {h}x{w} input to an odd kernel")
    spectrum_first = _spectrum_first(b, nr, co)
    basis = spectra.reshape(n, nr, hp * wp)
    pad = ((0, 0),) * 3 + ((ph // 2, ph // 2), (pw // 2, pw // 2))

    def input_spectrum():
        return _fft2(np.pad(x.data, pad)).reshape(b, n_in, ci, hp * wp)

    yh = _mix(input_spectrum(), coeffs.data, basis, slots, spectrum_first)
    y = _ifft2(yh.reshape(b, -1, co, hp, wp))[..., ph:, pw:]
    data = np.ascontiguousarray(y).astype(np.result_type(x.data, coeffs.data), copy=False)

    def backward(g):
        gx = gc = None   # an untracked operand (the image) gets no adjoint
        full = np.zeros(g.shape[:3] + (hp, wp), dtype=g.dtype)
        full[..., ph:, pw:] = g
        gh = _fft2(full).reshape(b, -1, co, hp * wp)
        if x.node is not None:
            # the adjoint conv: conjugate coefficients and spectra, channels
            # and streams swapped, cropped back to the unpadded input
            adj = _mix(gh, np.conj(coeffs.data).transpose(0, 2, 1, 3), np.conj(basis),
                       slots.T, spectrum_first)
            gx = _ifft2(adj.reshape(b, n_in, ci, hp, wp))[..., ph // 2: ph // 2 + h,
                                                          pw // 2: pw // 2 + w]
            gx = _to_kind(gx, x.data)
        if coeffs.node is not None:
            # the adjoint of ifft2 is fft2 / (hp * wp)
            gc = _coeff_adjoint(input_spectrum(), gh, basis, slots, spectrum_first)
            gc = _to_kind(gc / (hp * wp), coeffs.data)
        return gx, gc

    return _make(data, (x, coeffs), backward)


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
    """Gradients of a real scalar loss w.r.t. every registered parameter.

    The reverse sweep consumes the tape: it drops each node once visited,
    down to node 0, so the closures (and the tensors they hold) are freed by
    reference counting as the sweep goes, not left in a cycle through the
    tape for the garbage collector.  The node list keeps its length.
    """
    if loss.tape is not tape or loss.node is None:
        raise ContractError("loss is not recorded on this tape")
    if loss.data.shape != () or loss.is_complex:
        raise ContractError("loss must be a real scalar")
    if tape.nodes[0] is None:
        raise ContractError("tape was already consumed by backward")
    grads = [None] * len(tape.nodes)
    grads[loss.node] = np.ones((), dtype=loss.data.dtype)
    for nid in range(loss.node, -1, -1):
        g = grads[nid]
        parents, back = tape.nodes[nid]
        tape.nodes[nid] = None
        if g is None or back is None:
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
