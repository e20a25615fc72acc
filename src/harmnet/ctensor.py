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
gradient suites, "f32" (float32/complex64) for training.  An f32 model's
forward computes in complex128, decided at two points only:
`stem.lift_image` lifts any real image to complex128 features, and
`HarmonicFilterBank.kernel_block` forms complex128 filter coefficients.
Every op here, `conv2d` included, follows its operands' dtypes.  A
complex64 forward would miss the 1e-6 quarter-turn logit bound: the encoder
amplifies one complex64 rounding of the stem features 4-6x at the first
layer norm's centering and 2-3x per attention block, and the logits 4-8x
more, so a complex64 stem, encoder or both gives errors of 0.50-1.5e-6
(mnist_config, verify-suite images, seeds 0-5).  The backward runs in
complex64: a tape whose parameters are float32/complex64 keeps what its
adjoints read, and differentiates, at that precision (`GradTape`), as
mixed-precision training does.
"""

from __future__ import annotations

import os
import threading
import zlib
from concurrent import futures
from functools import lru_cache
from pathlib import Path

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

    A node is (parent specs, backward closure).  A parent's spec is its node
    id, shape and gradient dtype, or None for an untracked parent; the
    closure returns each operand's raw adjoint, and the reverse sweep alone
    sums it back to the operand's shape, casts it to the operand's gradient
    dtype and drops the adjoints of untracked operands (`_make`).

    Each node's backward closure holds only the arrays its adjoint reads, so
    the tape keeps no operand alive that backward never touches: structural
    and cast ops keep only shapes and indices; a product (`mul`, `div`,
    `complex_matmul`, `conv2d`) keeps an operand only when the other one is
    tracked, and `conv2d` keeps its input as the spectrum its forward took,
    so backward does not transform it again; `magnitude` keeps z and
    recomputes |z|; `magnitude_map` (a whole phase-keeping layer) keeps z,
    its new magnitudes and the real arrays the layer's adjoint reads, and
    recomputes |z| and z/|z|.

    The tape stores and differentiates at the precision of its registered
    parameters.  When every one is float32/complex64 ("f32"), each node
    keeps its own float32/complex64 cast of its arrays (`_keep`), so a
    source kept by several nodes is cast once per node, and the sweep
    carries every gradient at that precision, so backward runs in complex64
    even where the forward computed in complex128, and the gradients come
    out float32/complex64.  With any float64/complex128 parameter ("f64"),
    or none, nodes keep the arrays the forward made.
    """

    def __init__(self):
        self.nodes = []          # node id -> (parent specs, backward fn)
        self.parameters = {}     # name -> node id
        self.precision = None    # "f32" or "f64" once a parameter is registered

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
        tag = "f32" if t.data.dtype in DTYPES["f32"] else "f64"
        self.precision = tag if self.precision in (None, tag) else "f64"
        return t

    def stored(self, dtype: np.dtype) -> np.dtype:
        """The dtype in which a node keeps an array of `dtype`, and in which
        the gradient of a tensor of `dtype` is carried."""
        return _SINGLE.get(dtype, dtype) if self.precision == "f32" else dtype

    def keep(self, a: np.ndarray) -> np.ndarray:
        """a at the stored precision, with no copy when it is already there.
        Each node keeps its own cast: a source kept by several nodes (a
        block's normed patches, kept by its q, k and v matmuls) is cast once
        per node."""
        return a.astype(self.stored(a.dtype), copy=False)


# double -> single precision, for an f32 tape
_SINGLE = {np.dtype(d): np.dtype(s) for d, s in zip(DTYPES["f64"], DTYPES["f32"])}


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

    The node records, per parent, its node id, shape and gradient dtype (its
    own dtype at the tape's precision, `GradTape.stored`), or None for an
    untracked parent.  `backward` receives the output gradient and returns
    one raw adjoint per parent, in `parents` order: real or complex, of any
    shape the parent broadcasts to, or None where it computes nothing (an
    untracked operand needs nothing).  The reverse sweep, not the adjoint,
    sums it back to the parent's shape and casts it to the parent's
    gradient dtype (`ct.backward`).
    """
    tape = _tape_of(*parents)
    out = CTensor(data, tape=tape)
    if tape is not None:
        specs = tuple(None if p.node is None else (p.node, p.shape, tape.stored(p.data.dtype))
                      for p in parents)
        out.node = tape._append(specs, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting: the
    leading axes `shape` lacks are summed one at a time, first to last (a
    weight shared by a (B, O, ...) tensor sums over the batch, then over
    the orders in ascending order), then the axes it holds at length 1."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _to_kind(g: np.ndarray, dtype) -> np.ndarray:
    """Match the gradient's real/complex kind and precision to an operand's
    gradient dtype."""
    if not np.issubdtype(dtype, np.complexfloating) and np.iscomplexobj(g):
        g = g.real
    return g.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def _keep(a: np.ndarray, *operands: CTensor) -> np.ndarray:
    """a as the node over `operands` keeps it for backward: cast down to the
    precision of their tape (`GradTape.stored`), with no copy when it is
    already there.  Off tape (no node is recorded) a is returned as is."""
    tape = _tape_of(*operands)
    return a if tape is None else tape.keep(a)


def _kept_for(other: CTensor, a: CTensor):
    """a's data as kept when `other` is tracked (other's adjoint reads a),
    else None, so the tape does not hold it."""
    return _keep(a.data, other) if other.node is not None else None


def add(a: CTensor, b: CTensor) -> CTensor:
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: CTensor, b: CTensor) -> CTensor:
    b_tracked = b.node is not None
    return _make(a.data - b.data, (a, b), lambda g: (g, -g if b_tracked else None))


def mul(a: CTensor, b: CTensor) -> CTensor:
    """Elementwise product; complex×real scales magnitudes, preserving phase."""
    data = a.data * b.data
    ad, bd = _kept_for(b, a), _kept_for(a, b)

    def backward(g):
        return (None if bd is None else g * np.conj(bd),
                None if ad is None else g * np.conj(ad))

    return _make(data, (a, b), backward)


def div(a: CTensor, b: CTensor) -> CTensor:
    """Division by a real tensor (complex denominators are not needed here)."""
    if b.is_complex:
        raise ShapeError("div expects a real denominator")
    data = a.data / b.data
    ad, bd = _kept_for(b, a), _keep(b.data, a, b)
    a_tracked = a.node is not None

    def backward(g):
        return (g / bd if a_tracked else None,
                None if ad is None else -(g * np.conj(ad)).real / (bd ** 2))

    return _make(data, (a, b), backward)


def complex_matmul(a: CTensor, b: CTensor) -> CTensor:
    """Matrix product; batch dims broadcast.  Works for real operands too."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)
    ad, bd = _kept_for(b, a), _kept_for(a, b)

    def backward(g):
        return (None if bd is None else np.matmul(g, np.conj(bd).swapaxes(-1, -2)),
                None if ad is None else np.matmul(np.conj(ad).swapaxes(-1, -2), g))

    return _make(data, (a, b), backward)


def conj_transpose(a: CTensor) -> CTensor:
    """Conjugate transpose of the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError("conj_transpose expects rank >= 2")
    data = np.conj(a.data).swapaxes(-1, -2)
    return _make(data, (a,), lambda g: (np.conj(g).swapaxes(-1, -2),))


def transpose(a: CTensor, axes: tuple) -> CTensor:
    inv = np.argsort(axes)
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def reshape(a: CTensor, shape) -> CTensor:
    sa = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


def concat(tensors, axis: int) -> CTensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _make(data, tuple(tensors), lambda g: np.split(g, splits, axis=axis))


def narrow(a: CTensor, axis: int, start: int, length: int) -> CTensor:
    """Contiguous slice along one axis."""
    idx = (slice(None),) * (axis % a.data.ndim) + (slice(start, start + length),)
    data = a.data[idx]
    sa = a.shape

    def backward(g):
        full = np.zeros(sa, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _make(data, (a,), backward)


def _spread(g: np.ndarray, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    """A reduction's output gradient as a read-only view over its input's shape."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    sa = a.shape
    # a fresh array: later adjoints receive it, and a read-only zero-stride
    # view would bar in-place updates and BLAS matmuls
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_spread(g, axis, keepdims, sa).copy(),))


def mean(a: CTensor, axis=None, keepdims: bool = False) -> CTensor:
    n = a.data.size if axis is None else int(np.prod([a.shape[i] for i in np.atleast_1d(axis)]))
    sa = a.shape
    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_spread(g, axis, keepdims, sa) / n,))


def take(table: CTensor, indices) -> CTensor:
    """Gather table[indices] (an index array, or a tuple of them for several
    axes); backward scatter-adds (indices are untracked)."""
    data = table.data[indices]
    st = table.shape

    def backward(g):
        acc = np.zeros(st, dtype=g.dtype)
        np.add.at(acc, indices, g)
        return (acc,)

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
    e = _keep(data, a)
    return _make(data, (a,), lambda g: (g * e,))


def log(a: CTensor) -> CTensor:
    _require_real(a, "log")
    ad = _keep(a.data, a)
    return _make(np.log(a.data), (a,), lambda g: (g / ad,))


def polar_unit(theta: CTensor) -> CTensor:
    """e^{i*theta} for a real angle tensor."""
    _require_real(theta, "polar_unit")
    cplx = DTYPES["f64" if theta.data.dtype == np.float64 else "f32"][1]
    data = (np.cos(theta.data) + 1j * np.sin(theta.data)).astype(cplx)
    unit = _keep(data, theta)
    return _make(data, (theta,), lambda g: ((np.conj(unit) * g).imag,))


def astype(a: CTensor, dtype) -> CTensor:
    """a cast to `dtype`: another precision of its kind, or real to complex
    (zero imaginary part).  The gradient returns in a's gradient dtype, so a
    real operand keeps the real part of a complex gradient."""
    return _make(a.data.astype(dtype, copy=False), (a,), lambda g: (g,))


# ---------------------------------------------------------------------------
# magnitude / phase
# ---------------------------------------------------------------------------

def magnitude(a: CTensor) -> CTensor:
    """|z| as a real tensor; subgradient 0 at z = 0.  The tape keeps z only;
    backward recomputes |z|."""
    data = np.abs(a.data)
    z = _keep(a.data, a)

    def backward(g):
        _, _, u, zero = _polar(z)
        if zero is not None:
            u[zero] = 0
        return (g * u,)

    return _make(data, (a,), backward)


def _polar(z: np.ndarray):
    """|z|, 1/|z| (1 where z = 0), the unit z/|z| (1+0i where z = 0) and the
    zero mask (None when no z is 0); the unit z * (1/|z|) rounds as z / |z|
    does."""
    mag = np.abs(z)
    zero = None if mag.all() else mag == 0
    inv = np.reciprocal(mag if zero is None else np.where(zero, 1, mag))
    unit = z * inv
    if zero is not None:
        unit[zero] = 1
    return mag, inv, unit, zero


def magnitude_map(z: CTensor, params, forward, backward) -> CTensor:
    """f(|z|) * z/|z|: a phase-keeping layer as one tape node.

    `forward(mag, *param arrays) -> (r, saved)` maps the magnitudes |z| to
    a real r of z's shape and names in `saved` (a tuple) the other arrays
    its adjoint reads; it must not write into mag.  The output is r times
    the unit z/|z| (phase 1+0i where z = 0).  `backward(gr, mag, r, saved)
    -> (g_mag, *g_params)` is f's adjoint at the magnitudes mag for the real
    gradient gr = Re(conj(unit) g) at r; a parameter gradient may have any
    shape the parameter broadcasts to (the reverse sweep sums it back, as
    for any broadcast operand).  With cu = conj(unit) g, the z-gradient is
    unit * (g_mag + i r Im(cu)/|z|), and 0 where z = 0.

    The forward forms no unit: it takes the real scale r/|z| once, in |z|'s
    own buffer unless r or `saved` share it (r may be a parameter's array),
    multiplies z by it, and writes r where z = 0.  So the output rounds as
    z * (r/|z|).  The tape keeps z, r and `saved` (each through `_keep`);
    backward recomputes |z| and the unit (`_polar`) and hands |z| to the
    layer's adjoint, so no layer keeps its input magnitudes.
    """
    if not z.is_complex:
        raise ShapeError("magnitude_map expects a complex tensor")
    params = tuple(params)
    mag = np.abs(z.data)
    r, saved = forward(mag, *(p.data for p in params))
    if np.iscomplexobj(r) or r.shape != z.shape:
        raise ShapeError(f"magnitude_map expects real magnitudes of shape {z.shape}, "
                         f"got {r.dtype} {r.shape}")
    zero = None if mag.all() else mag == 0
    # the scale r/|z| goes into |z|'s buffer, which this node owns, unless
    # the layer's r or saved arrays share it; where z = 0 it is not finite,
    # and r is written instead (phase 1+0i)
    owned = np.result_type(r, mag) == mag.dtype and not any(
        np.may_share_memory(mag, a) for a in (r, *saved))
    with np.errstate(divide="ignore", invalid="ignore"):
        data = z.data * np.divide(r, mag, out=mag if owned else None)
    if zero is not None:
        data[zero] = r[zero]
    zd, r, *saved = (_keep(a, z, *params) for a in (z.data, r, *saved))
    z_tracked = z.node is not None

    def back(g):
        mag, inv, unit, zero = _polar(zd)
        cu = np.conj(unit)
        cu *= g
        g_mag, *g_params = backward(cu.real, mag, r, saved)
        gz = None
        if z_tracked:
            gz = np.empty(zd.shape, np.result_type(g_mag, r, unit))
            gz.real = g_mag
            tangent = r * inv
            tangent *= cu.imag
            gz.imag = tangent
            gz *= unit
            if zero is not None:
                gz[zero] = 0
        return (gz, *g_params)

    return _make(data, (z,) + params, back)


# ---------------------------------------------------------------------------
# work split over two threads
# ---------------------------------------------------------------------------

# the one worker thread that every split shares, started by the first split
# that runs on it; a split holds _split_lock while the worker computes its half
_worker = None
_split_lock = threading.Lock()


def _reset_worker() -> None:
    """A forked child has no worker thread, and a lock that its parent held
    at the fork would stay held, so both start afresh."""
    global _worker, _split_lock
    _worker, _split_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


def _map_split(fn, items) -> list:
    """[fn(x) for x in items]: items[0::2] on the calling thread and
    items[1::2] on the shared worker thread, when `_workers()` is 2.

    The caller hands the worker a half only if it takes `_split_lock`
    without blocking, and holds it until both halves have returned.  Any
    other split (one requested on the worker, inside a half, or on another
    thread meanwhile) runs inline, so at most two halves are in flight and
    nothing waits on a queued task.  The calling thread computes its half
    rather than waiting, so a signal handler that runs on it (a
    profiler's, say) pauses that half only.  An exception from either half
    reaches the caller once both halves have returned.
    """
    global _worker
    items = list(items)
    if len(items) < 2 or _workers() < 2:
        return [fn(x) for x in items]
    lock = _split_lock
    if not lock.acquire(blocking=False):
        return [fn(x) for x in items]
    try:
        if _worker is None:
            _worker = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="harmnet-split")
        theirs = _worker.submit(lambda: [fn(x) for x in items[1::2]])
        try:
            mine = [fn(x) for x in items[0::2]]
        finally:
            futures.wait([theirs])
        out = [None] * len(items)
        out[0::2], out[1::2] = mine, theirs.result()
        return out
    finally:
        lock.release()


def _workers() -> int:
    """Threads for a split: 2 when this process may run on at least 2 CPUs
    and numpy's BLAS runs one thread, else 1.  A BLAS with threads of its
    own already fills the cores, and a second thread on top of it
    oversubscribes them."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    query = _blas_thread_query()
    return 2 if cpus >= 2 and query is not None and query() == 1 else 1


@lru_cache(maxsize=None)
def _blas_thread_query():
    """The thread-count function of the OpenBLAS bundled with numpy (its
    wheel's `numpy.libs`), or None when there is none: an unknown BLAS
    counts as threaded."""
    import ctypes

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

# frequencies per block of `_mix`'s contraction (README, "Frequency
# blocks"); a multiple of 4, the width of OpenBLAS's complex GEMM kernels,
# so each frequency's sums run as they would in one unblocked GEMM
FREQ_BLOCK = 256


# The transforms overwrite their argument: every caller passes a buffer it
# owns and does not read again, and a complex one is transformed in place
def _fft2(x):
    from scipy import fft as sfft
    return sfft.fft2(x, axes=(-2, -1), overwrite_x=True)


def _ifft2(x):
    from scipy import fft as sfft
    return sfft.ifft2(x, axes=(-2, -1), overwrite_x=True)


def _connections(slots: np.ndarray, o: int):
    """Connection and input-stream indices feeding output stream o."""
    ins = np.flatnonzero(slots[o] >= 0)
    return slots[o, ins], ins


def _all_connections(slots: np.ndarray):
    """Connection, output-stream and input-stream indices of every connection."""
    os_, is_ = np.nonzero(slots >= 0)
    return slots[os_, is_], os_, is_


def _basis_products(xt: np.ndarray, spectra: np.ndarray, ps, ins) -> np.ndarray:
    """(len(ps) * Ci * nr, B * F): input stream ins[j]'s spectrum (Ci, B, F)
    times each basis spectrum of connection ps[j]."""
    z = np.multiply(xt[ins][:, :, None], spectra[ps][:, None, :, None], order="C")
    return z.reshape(-1, z.shape[-2] * z.shape[-1])


def _frequency_blocks(f: int) -> list:
    """Slices of FREQ_BLOCK frequencies that cover range(f).  A last block
    of one frequency joins the block before it: numpy runs a product with
    one row or column as a matrix-vector call, which sums in another order."""
    edges = list(range(0, max(f - 1, 1), FREQ_BLOCK)) + [f]
    return [slice(s, e) for s, e in zip(edges, edges[1:])]


def _mix(xh: np.ndarray, coeffs: np.ndarray, spectra: np.ndarray, slots: np.ndarray,
         spectrum_first: bool) -> np.ndarray:
    """Per-frequency order mixing: out[:, o] = sum over input streams i of
    xh[:, i] times the kernel spectrum khat_p = sum_r coeffs[p, ..., r] *
    spectra[p, r] of connection p = slots[o, i] (-1: none).

    xh (B, I, Ci, F), coeffs (P, Co, Ci, nr), spectra (P, nr, F), slots
    (O, I) -> (B, O, Co, F), contiguous, at the operands' result type, so
    the inverse FFT reads unit-stride frequencies.  The frequency axis is
    walked in blocks of FREQ_BLOCK, each written straight into its slice of
    the output: no intermediate spans all F frequencies.  Spectrum-first
    forms a block's input-times-basis products and mixes channels with one
    GEMM per output stream; kernel-first forms a block's kernel spectra as
    the block's (f, P*nr) basis spectra times one block-sparse (P*nr,
    I*Ci*O*Co) matrix that holds each connection's coefficients at its
    (i, o) block and zeros elsewhere, then contracts channels per
    frequency.  An output stream with no connection stays exactly zero.

    Every batch walks the same blocks.  A batch of more than one image
    hands them to `_map_split`, which may share them between two threads;
    a batch of one walks them serially.  Each block writes its own slice
    of the output with the same numpy calls, so the bytes do not depend on
    the thread count.
    """
    b, n_in, ci, f = xh.shape
    n, co, _, nr = coeffs.shape
    n_out = slots.shape[0]
    out = np.zeros((b, n_out, co, f), dtype=np.result_type(xh, coeffs, spectra))
    blocks = _frequency_blocks(f)
    if spectrum_first:
        streams = []
        for o in range(n_out):
            ps, ins = _connections(slots, o)
            if ps.size:
                c = coeffs[ps].transpose(1, 0, 2, 3).reshape(co, -1)   # (Co, Pj*Ci*nr)
                streams.append((o, ps, ins, c))

        def walk(blk):
            xt = xh[..., blk].transpose(1, 2, 0, 3)                    # (I, Ci, B, f)
            for o, ps, ins, c in streams:
                y = c @ _basis_products(xt, spectra[..., blk], ps, ins)
                out[:, o, :, blk] = y.reshape(co, b, -1).transpose(1, 0, 2)
    else:
        ps, os_, is_ = _all_connections(slots)
        sparse = np.zeros((n, nr, n_in, ci, n_out, co), coeffs.dtype)  # block-sparse
        sparse[ps, :, is_, :, os_, :] = coeffs[ps].transpose(0, 3, 2, 1)
        sparse = sparse.reshape(n * nr, -1)
        basis = spectra.reshape(n * nr, f).T                            # (F, P*nr)
        xf = xh.reshape(b, n_in * ci, f).transpose(2, 0, 1)            # (F, B, I*Ci)

        def walk(blk):
            kf = (basis[blk] @ sparse).reshape(-1, n_in * ci, n_out * co)  # kernel spectra
            y = np.matmul(xf[blk], kf)                                  # (f, B, O*Co)
            out[..., blk] = y.transpose(1, 2, 0).reshape(b, n_out, co, -1)
    if b > 1:
        _map_split(walk, blocks)
    else:
        for blk in blocks:
            walk(blk)
    return out


def _coeff_adjoint(xh: np.ndarray, gh: np.ndarray, spectra: np.ndarray,
                   slots: np.ndarray) -> np.ndarray:
    """Kernel-first adjoint of `_mix` in its coefficients: out[p, o', c, r]
    = sum over batch and frequency of gh[:, o, o'] * conj(xh[:, i, c] *
    spectra[p, r]) for each connection p = slots[o, i] -> (P, Co, Ci, nr).
    xh is the input spectrum the conv node kept from its forward.  It
    mirrors `_mix`: one GEMM of the conjugate basis spectra with the kernel
    spectra's gradient, from which each connection reads its (i, o) block.
    Unlike `_mix` it reduces over frequency, so it spans every frequency
    and is not blocked: blocks would split each sum into partial sums whose
    rounding would depend on FREQ_BLOCK.  Spectrum-first's coefficient
    adjoint is `_spectrum_first_adjoints`, whose products span every
    frequency for the same reason."""
    b, n_in, ci, f = xh.shape
    n_out, co = gh.shape[1:3]
    n, nr = spectra.shape[:2]
    out = np.zeros((n, co, ci, nr), dtype=np.result_type(xh, gh, spectra))
    xf = np.conj(xh.reshape(b, n_in * ci, f).transpose(2, 1, 0))           # (F, I*Ci, B)
    gf = gh.reshape(b, n_out * co, f).transpose(2, 0, 1)                   # (F, B, O*Co)
    gk = np.matmul(xf, gf).reshape(f, -1)                                  # (F, I*Ci*O*Co)
    blocks = (np.conj(spectra.reshape(n * nr, f)) @ gk).reshape(n, nr, n_in, ci, n_out, co)
    ps, os_, is_ = _all_connections(slots)
    out[ps] = blocks[ps, :, is_, :, os_, :].transpose(0, 3, 2, 1)
    return out


def _spectrum_first_adjoints(gh: np.ndarray, coeffs, spectra: np.ndarray, slots: np.ndarray,
                             xh) -> tuple:
    """Both adjoints of spectrum-first `_mix` from one set of products per
    input stream i: Z = gh[:, o] * conj(spectra[p]) over the connections p
    = slots[o, i] that read stream i, (Pj*Co*nr, B*F).

    The input adjoint's spectrum (B, I, Ci, F) is conj(coeffs) @ Z per
    stream, the bits of `_mix` on the conjugate bank with slots.T; it is
    None when coeffs is (the input is untracked).  The coefficient adjoint
    (P, Co, Ci, nr), before the 1/F of the inverse FFT, is Z @ conj(xh_i)^T,
    each connection's sum over batch and frequency; it is None when xh is
    (the coefficients are untracked).  Z spans every frequency, so each of
    those sums is one GEMM and its rounding does not depend on FREQ_BLOCK.
    """
    b, _, co, f = gh.shape
    n_in = slots.shape[1]
    n, nr = spectra.shape[:2]
    gt = gh.transpose(1, 2, 0, 3)                                          # (O, Co, B, F)
    cspec = np.conj(spectra)
    gxh = gc = None
    if coeffs is not None:
        ci = coeffs.shape[2]
        gxh = np.zeros((b, n_in, ci, f), dtype=np.result_type(gh, coeffs, spectra))
    if xh is not None:
        ci = xh.shape[2]
        xc = np.conj(xh).transpose(1, 2, 0, 3).reshape(n_in, ci, b * f)    # (I, Ci, B*F)
        gc = np.zeros((n, co, ci, nr), dtype=np.result_type(xh, gh, spectra))
    for i in range(n_in):
        ps, os_ = _connections(slots.T, i)
        if not ps.size:
            continue
        z = _basis_products(gt, cspec, ps, os_)                            # (Pj*Co*nr, B*F)
        if gxh is not None:
            c = np.conj(coeffs[ps]).transpose(2, 0, 1, 3).reshape(ci, -1)  # (Ci, Pj*Co*nr)
            gxh[:, i] = (c @ z).reshape(ci, b, f).transpose(1, 0, 2)
        if gc is not None:
            gc[ps] = (z @ xc[i].T).reshape(ps.size, co, nr, ci).transpose(0, 1, 3, 2)
    return gxh, gc


def conv2d(x: CTensor, coeffs: CTensor, spectra: np.ndarray, slots: np.ndarray,
           order: str) -> CTensor:
    """Order-mixing convolution as a linear map of filter coefficients.

    x: (B, I, Ci, H, W) input streams; coeffs: (P, Co, Ci, nr), the weights
    of each connection's kernel over its nr basis atoms; spectra: (P, nr,
    Hp, Wp), each atom flipped in both axes and zero-padded to its FFT at
    Hp = H + kh - 1 (so the atoms are kh x kw, kh and kw odd); slots: (O, I)
    connection index per (output, input) stream pair, -1 for none.  Output
    stream o is sum_i x[:, i] correlated (no kernel flip, zero padding
    kh // 2, stride 1) with the kernel of connection slots[o, i], as one
    (B, O, Co, H, W) tensor.

    The input is transformed once and the output once; in between, `_mix`
    contracts in the given `order`, "spectrum_first" or "kernel_first"
    (`stem.conv_plan` chooses it), one block of frequencies at a time into
    a contiguous (B, O, Co, F) spectrum, so the inverse FFT reads
    unit-stride frequencies.  Every transform, forward and backward, runs
    in place on a buffer conv2d owns and does not read again: the padded
    input, that output spectrum, the padded output gradient and the input
    adjoint's spectrum.  x, coeffs and spectra are never written.

    Backward transforms only the output gradient.  When the coefficients
    are tracked, the node keeps the input spectrum the forward took, not x,
    so neither order transforms the input again; when x is tracked it keeps
    the coefficients; it always keeps the basis spectra; each at the tape's
    precision.  Spectrum-first reads both adjoints from one set of products
    of the gradient with the conjugate basis spectra
    (`_spectrum_first_adjoints`).  Kernel-first's input adjoint is `_mix` on
    the conjugate bank, and its coefficient adjoint `_coeff_adjoint`.  The
    coefficient adjoints sum over every frequency and are not blocked.
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
    if order not in ("spectrum_first", "kernel_first"):
        raise ContractError(f"conv2d: unknown contraction order {order!r}")
    spectrum_first = order == "spectrum_first"
    basis = spectra.reshape(n, nr, hp * wp)
    pad = ((0, 0),) * 3 + ((ph // 2, ph // 2), (pw // 2, pw // 2))
    xh = _fft2(np.pad(x.data, pad)).reshape(b, n_in, ci, hp * wp)
    yh = _mix(xh, coeffs.data, basis, slots, spectrum_first)
    # dropped (or cast down) before the inverse FFT, which would otherwise
    # hold it alongside the output spectrum and its transform
    xh = _keep(xh, x, coeffs) if coeffs.node is not None else None
    data = np.ascontiguousarray(_ifft2(yh.reshape(b, -1, co, hp, wp))[..., ph:, pw:])
    cd, spec = _kept_for(x, coeffs), _keep(basis, x, coeffs)

    def backward(g):
        gx = gc = None   # an untracked operand (the image) gets no adjoint
        full = np.zeros(g.shape[:3] + (hp, wp), dtype=g.dtype)
        full[..., ph:, pw:] = g
        gh = _fft2(full).reshape(b, -1, co, hp * wp)
        if spectrum_first:
            gxh, gc = _spectrum_first_adjoints(gh, cd, spec, slots, xh)
        else:
            # the adjoint conv: conjugate coefficients and spectra, channels
            # and streams swapped
            gxh = None if cd is None else _mix(gh, np.conj(cd).transpose(0, 2, 1, 3),
                                               np.conj(spec), slots.T, False)
            gc = None if xh is None else _coeff_adjoint(xh, gh, spec, slots)
        if gxh is not None:
            # cropped back to the unpadded input
            gx = _ifft2(gxh.reshape(b, n_in, ci, hp, wp))[..., ph // 2: ph // 2 + h,
                                                          pw // 2: pw // 2 + w]
        if gc is not None:
            gc /= hp * wp   # the adjoint of ifft2 is fft2 / (hp * wp)
        return gx, gc

    return _make(data, (x, coeffs), backward)


def shifted_taps(x: CTensor, offsets) -> CTensor:
    """The taps of x under a stencil: (..., H, W) -> (..., T, H, W) with
    out[..., t, y, x] = x[..., y + dy_t, x + dx_t], zero outside the image,
    for offsets ((dy_0, dx_0), ...).  Backward scatter-adds each tap's
    gradient back at its shift and crops to the image.  A lone (0, 0) tap is
    a view of x, and its adjoint passes the gradient through."""
    offsets = tuple(offsets)
    h, w = x.shape[-2:]
    c = max(max(abs(dy), abs(dx)) for dy, dx in offsets)
    if offsets == ((0, 0),):
        return _make(x.data[..., None, :, :], (x,), lambda g: (g[..., 0, :, :],))
    xp = np.pad(x.data, ((0, 0),) * (x.data.ndim - 2) + ((c, c), (c, c)))
    windows = [(slice(c + dy, c + dy + h), slice(c + dx, c + dx + w)) for dy, dx in offsets]
    data = np.stack([xp[..., ys, xs] for ys, xs in windows], axis=-3)
    padded = xp.shape[-2:]

    def backward(g):
        gp = np.zeros(g.shape[:-3] + padded, dtype=g.dtype)
        for t, (ys, xs) in enumerate(windows):
            gp[..., ys, xs] += g[..., t, :, :]
        return (gp[..., c:c + h, c:c + w],)

    return _make(data, (x,), backward)


def avg_pool2(x: CTensor) -> CTensor:
    """2x2 mean pooling over the last two axes (H, W), which must be even;
    any leading axes are carried through."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 requires even spatial dims, got {h}x{w}")
    data = ((x.data[..., 0::2, 0::2] + x.data[..., 0::2, 1::2])
            + (x.data[..., 1::2, 0::2] + x.data[..., 1::2, 1::2])) * 0.25

    def backward(g):
        return (np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) / 4.0,)

    return _make(data, (x,), backward)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle
# ---------------------------------------------------------------------------

def backward(tape: GradTape, loss: CTensor) -> dict:
    """Gradients of a real scalar loss w.r.t. every registered parameter.

    The reverse sweep consumes the tape: it drops each node once visited,
    down to node 0, so the arrays each closure holds are freed as the sweep
    goes, not when the tape is dropped.  The node list keeps its length.
    Each raw adjoint a node returns for a tracked parent is summed back to
    the parent's shape and cast to its gradient dtype here, once, before it
    is accumulated; adjoints of untracked parents are never asked for or
    are dropped.  The sweep runs at the tape's precision (`GradTape.stored`),
    seeded with a loss gradient of 1 in it: on an f32 tape every gradient,
    those returned included, is float32/complex64 although an f32 model's
    forward computes in complex128.
    """
    if loss.tape is not tape or loss.node is None:
        raise ContractError("loss is not recorded on this tape")
    if loss.data.shape != () or loss.is_complex:
        raise ContractError("loss must be a real scalar")
    if tape.nodes[0] is None:
        raise ContractError("tape was already consumed by backward")
    grads = [None] * len(tape.nodes)
    grads[loss.node] = np.ones((), dtype=tape.stored(loss.data.dtype))
    for nid in range(loss.node, -1, -1):
        g = grads[nid]
        specs, back = tape.nodes[nid]
        tape.nodes[nid] = None
        if g is None or back is None:
            continue
        for spec, pg in zip(specs, back(g)):
            if spec is None or pg is None:
                continue
            pid, shape, dtype = spec
            pg = _to_kind(_unbroadcast(pg, shape), dtype)
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
        grads[nid] = None   # free as we go
    return {name: grads[nid] for name, nid in tape.parameters.items()}


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
