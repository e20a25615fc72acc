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
    each node exactly once (and frees it: a tape serves one `backward`).  A
    tape is confined to one logical execution; parameters are registered by
    name so `backward` can hand gradients back per slot.

    Each node's backward closure holds only the arrays its adjoint reads, so
    the tape keeps no operand alive that backward never touches: structural
    and cast ops keep shapes and dtypes; a product (`mul`, `div`,
    `complex_matmul`, `conv2d`) keeps an operand only when the other one is
    tracked; `magnitude` keeps z and recomputes |z|; `magnitude_map` (a
    whole phase-keeping layer) keeps z, its new magnitudes and the real
    arrays the layer's adjoint reads, and recomputes |z| and z/|z|.
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


def _to_kind(g: np.ndarray, dtype) -> np.ndarray:
    """Match the gradient's real/complex kind and precision to an input's
    dtype."""
    if not np.issubdtype(dtype, np.complexfloating) and np.iscomplexobj(g):
        g = g.real
    return g.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def _kept_for(other: CTensor, a: CTensor):
    """a's data when `other` is tracked (other's adjoint reads a), else
    None, so the tape does not hold it."""
    return a.data if other.node is not None else None


def add(a: CTensor, b: CTensor) -> CTensor:
    data = a.data + b.data
    sa, da, sb, db = a.shape, a.data.dtype, b.shape, b.data.dtype

    def backward(g):
        return _to_kind(_unbroadcast(g, sa), da), _to_kind(_unbroadcast(g, sb), db)

    return _make(data, (a, b), backward)


def sub(a: CTensor, b: CTensor) -> CTensor:
    data = a.data - b.data
    sa, da, sb, db = a.shape, a.data.dtype, b.shape, b.data.dtype

    def backward(g):
        return _to_kind(_unbroadcast(g, sa), da), _to_kind(_unbroadcast(-g, sb), db)

    return _make(data, (a, b), backward)


def neg(a: CTensor) -> CTensor:
    da = a.data.dtype
    return _make(-a.data, (a,), lambda g: (_to_kind(-g, da),))


def mul(a: CTensor, b: CTensor) -> CTensor:
    """Elementwise product; complex×real scales magnitudes, preserving phase."""
    data = a.data * b.data
    ad, bd = _kept_for(b, a), _kept_for(a, b)
    sa, da, sb, db = a.shape, a.data.dtype, b.shape, b.data.dtype

    def backward(g):
        return (None if bd is None else _to_kind(_unbroadcast(g * np.conj(bd), sa), da),
                None if ad is None else _to_kind(_unbroadcast(g * np.conj(ad), sb), db))

    return _make(data, (a, b), backward)


def div(a: CTensor, b: CTensor) -> CTensor:
    """Division by a real tensor (complex denominators are not needed here)."""
    if b.is_complex:
        raise ShapeError("div expects a real denominator")
    data = a.data / b.data
    ad, bd = _kept_for(b, a), b.data
    a_tracked = a.node is not None
    sa, da, sb, db = a.shape, a.data.dtype, b.shape, b.data.dtype

    def backward(g):
        ga = _to_kind(_unbroadcast(g / bd, sa), da) if a_tracked else None
        gb = None if ad is None else _to_kind(
            _unbroadcast(-(g * np.conj(ad)).real / (bd ** 2), sb), db)
        return ga, gb

    return _make(data, (a, b), backward)


def conj(a: CTensor) -> CTensor:
    da = a.data.dtype
    return _make(np.conj(a.data), (a,), lambda g: (_to_kind(np.conj(g), da),))


def complex_matmul(a: CTensor, b: CTensor) -> CTensor:
    """Matrix product; batch dims broadcast.  Works for real operands too."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)
    ad, bd = _kept_for(b, a), _kept_for(a, b)
    sa, da, sb, db = a.shape, a.data.dtype, b.shape, b.data.dtype

    def backward(g):
        ga = None if bd is None else _to_kind(
            _unbroadcast(np.matmul(g, np.conj(bd).swapaxes(-1, -2)), sa), da)
        gb = None if ad is None else _to_kind(
            _unbroadcast(np.matmul(np.conj(ad).swapaxes(-1, -2), g), sb), db)
        return ga, gb

    return _make(data, (a, b), backward)


def conj_transpose(a: CTensor) -> CTensor:
    """Conjugate transpose of the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("conj_transpose expects rank >= 2")
    data = np.conj(a.data).swapaxes(-1, -2)
    da = a.data.dtype

    def backward(g):
        return (_to_kind(np.conj(g).swapaxes(-1, -2), da),)

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
    sa = a.shape

    def backward(g):
        return (g.reshape(sa),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int) -> CTensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    dtypes = [t.data.dtype for t in tensors]

    def backward(g):
        return tuple(_to_kind(p, d) for p, d in zip(np.split(g, splits, axis=axis), dtypes))

    return _make(data, tuple(tensors), backward)


def narrow(a: CTensor, axis: int, start: int, length: int) -> CTensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]
    sa, da = a.shape, a.data.dtype

    def backward(g):
        full = np.zeros(sa, dtype=g.dtype)
        full[idx] = g
        return (_to_kind(full, da),)

    return _make(data, (a,), backward)


def sum_(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    sa, da = a.shape, a.data.dtype

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa).astype(da),)

    return _make(data, (a,), backward)


def mean(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    n = a.data.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    data = a.data.mean(axis=axis, keepdims=keepdims)
    sa, da = a.shape, a.data.dtype

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((np.broadcast_to(g, sa) / n).astype(da),)

    return _make(data, (a,), backward)


def take(table: CTensor, indices) -> CTensor:
    """Gather table[indices] (an index array, or a tuple of them for several
    axes); backward scatter-adds (indices are untracked)."""
    data = table.data[indices]
    st, dt = table.shape, table.data.dtype

    def backward(g):
        acc = np.zeros(st, dtype=g.dtype)
        np.add.at(acc, indices, g)
        return (_to_kind(acc, dt),)

    return _make(data, (table,), backward)


# ---------------------------------------------------------------------------
# real-only nonlinearities
# ---------------------------------------------------------------------------

def _require_real(a: CTensor, op: str):
    if a.is_complex:
        raise ShapeError(f"{op} expects a real tensor")


def exp(a: CTensor) -> CTensor:
    _require_real(a, "exp")
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _make(data, (a,), backward)


def log(a: CTensor) -> CTensor:
    _require_real(a, "log")
    data = np.log(a.data)
    ad = a.data

    def backward(g):
        return (g / ad,)

    return _make(data, (a,), backward)


def polar_unit(theta: CTensor) -> CTensor:
    """e^{i*theta} for a real angle tensor."""
    _require_real(theta, "polar_unit")
    cplx = DTYPES["f64" if theta.data.dtype == np.float64 else "f32"][1]
    data = (np.cos(theta.data) + 1j * np.sin(theta.data)).astype(cplx)
    dt = theta.data.dtype

    def backward(g):
        return ((np.conj(data) * g).imag.astype(dt),)

    return _make(data, (theta,), backward)


def astype(a: CTensor, dtype) -> CTensor:
    """a cast to another precision of its kind (real or complex); the
    gradient returns in a's dtype."""
    da = a.data.dtype
    return _make(a.data.astype(dtype, copy=False), (a,), lambda g: (_to_kind(g, da),))


def as_complex(a: CTensor) -> CTensor:
    """Promote a real tensor to complex with zero imaginary part."""
    _require_real(a, "as_complex")
    cplx = DTYPES["f64" if a.data.dtype == np.float64 else "f32"][1]
    data = a.data.astype(cplx)
    da = a.data.dtype

    def backward(g):
        return (g.real.astype(da),)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# magnitude / phase
# ---------------------------------------------------------------------------

def magnitude(a: CTensor) -> CTensor:
    """|z| as a real tensor; subgradient 0 at z = 0.  The tape keeps z only;
    backward recomputes |z|."""
    data = np.abs(a.data)
    z = a.data

    def backward(g):
        mag = np.abs(z)
        safe = np.where(mag == 0, 1, mag)
        u = np.where(mag == 0, 0, z / safe)
        return (_to_kind(g * u, z.dtype),)

    return _make(data, (a,), backward)


def _polar(z: np.ndarray):
    """|z|, 1/|z| (1 where z = 0), the unit z/|z| (1+0i where z = 0) and the
    zero mask; the unit z * (1/|z|) rounds as z / |z| does."""
    mag = np.abs(z)
    zero = mag == 0
    inv = np.where(zero, 1, mag)
    np.reciprocal(inv, out=inv)
    unit = z * inv
    unit[zero] = 1
    return mag, inv, unit, zero


def magnitude_map(z: CTensor, params, forward, backward) -> CTensor:
    """f(|z|) * z/|z|: a phase-keeping layer as one tape node.

    `forward(mag, *param arrays) -> (r, saved)` maps the magnitudes |z| to
    a real r of z's shape; the output is r times the unit z/|z| (phase 1+0i
    where z = 0).  `backward(gr, saved) -> (g_mag, *g_params)` is f's
    adjoint for the real gradient gr = Re(conj(unit) g) at r; a parameter
    gradient may be any shape that broadcasts to the parameter's (it is
    summed back, as the tape sums a broadcast operand).  With cu =
    conj(unit) g, the z-gradient is unit * (g_mag + i r Im(cu)/|z|), and 0
    where z = 0.  The tape keeps z, r and `saved`; backward recomputes |z|
    and the unit.
    """
    if not z.is_complex:
        raise ShapeError("magnitude_map expects a complex tensor")
    params = tuple(params)
    mag, _, unit, _ = _polar(z.data)
    r, saved = forward(mag, *(p.data for p in params))
    if np.iscomplexobj(r) or r.shape != z.shape:
        raise ShapeError(f"magnitude_map expects real magnitudes of shape {z.shape}, "
                         f"got {r.dtype} {r.shape}")
    data = r * unit
    zd, z_tracked = z.data, z.node is not None
    specs = [(p.node is not None, p.shape, p.data.dtype) for p in params]

    def back(g):
        _, inv, unit, zero = _polar(zd)
        cu = np.conj(unit) * g
        g_mag, *g_params = backward(cu.real, saved)
        gz = None
        if z_tracked:
            gz = np.empty(zd.shape, np.result_type(g_mag, r, unit))
            gz.real = g_mag
            gz.imag = r * cu.imag * inv
            gz *= unit
            gz[zero] = 0
            gz = _to_kind(gz, zd.dtype)
        return (gz, *(_to_kind(_unbroadcast(gp, shape), dt) if tracked else None
                      for gp, (tracked, shape, dt) in zip(g_params, specs)))

    return _make(data, (z,) + params, back)


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


def _spectrum_first(batch: int, n_radii: int, c_in: int, c_out: int) -> bool:
    """Contraction order of one harmonic conv: spectrum-first multiplies the
    input spectrum by the basis spectra and mixes channels with one GEMM per
    output stream, which pays n_radii products per input element and batch
    item; kernel-first builds the kernel spectra once and contracts per
    frequency, which pays for small matrices (outer products at C_in = 1)."""
    return c_in == 1 or n_radii * batch <= 2 * c_out


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
        xt = np.ascontiguousarray(xh.transpose(1, 2, 0, 3))            # (I, Ci, B, F)
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
        xt = np.ascontiguousarray(xh.transpose(1, 2, 0, 3))
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
    spectrum_first = _spectrum_first(b, nr, ci, co)
    basis = spectra.reshape(n, nr, hp * wp)
    pad = ((0, 0),) * 3 + ((ph // 2, ph // 2), (pw // 2, pw // 2))

    def input_spectrum(xd):
        return _fft2(np.pad(xd, pad)).reshape(b, n_in, ci, hp * wp)

    yh = _mix(input_spectrum(x.data), coeffs.data, basis, slots, spectrum_first)
    y = _ifft2(yh.reshape(b, -1, co, hp, wp))[..., ph:, pw:]
    data = np.ascontiguousarray(y).astype(np.result_type(x.data, coeffs.data), copy=False)
    xd, cd = _kept_for(coeffs, x), _kept_for(x, coeffs)
    dx, dc = x.data.dtype, coeffs.data.dtype

    def backward(g):
        gx = gc = None   # an untracked operand (the image) gets no adjoint
        full = np.zeros(g.shape[:3] + (hp, wp), dtype=g.dtype)
        full[..., ph:, pw:] = g
        gh = _fft2(full).reshape(b, -1, co, hp * wp)
        if cd is not None:
            # the adjoint conv: conjugate coefficients and spectra, channels
            # and streams swapped, cropped back to the unpadded input
            adj = _mix(gh, np.conj(cd).transpose(0, 2, 1, 3), np.conj(basis),
                       slots.T, spectrum_first)
            gx = _ifft2(adj.reshape(b, n_in, ci, hp, wp))[..., ph // 2: ph // 2 + h,
                                                          pw // 2: pw // 2 + w]
            gx = _to_kind(gx, dx)
        if xd is not None:
            # the adjoint of ifft2 is fft2 / (hp * wp)
            gc = _coeff_adjoint(input_spectrum(xd), gh, basis, slots, spectrum_first)
            gc = _to_kind(gc / (hp * wp), dc)
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
    dx = x.data.dtype

    def backward(g):
        gx = np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) / 4.0
        return (gx.astype(dx),)

    return _make(data, (x,), backward)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle
# ---------------------------------------------------------------------------

def backward(tape: GradTape, loss: CTensor) -> dict:
    """Gradients of a real scalar loss w.r.t. every registered parameter.

    The reverse sweep consumes the tape: it drops each node once visited,
    down to node 0, so the arrays each closure holds are freed as the sweep
    goes, not when the tape is dropped.  The node list keeps its length.
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
