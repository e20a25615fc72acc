"""Steerable convolution stem over rotation-order streams.

Features are plain complex (B, O, C, H, W) tensors whose axis 1 indexes the
rotation orders m in ORDERS = (-1, 0, +1); the lifted image alone is
(B, 1, C, H, W), order 0.  The order set belongs to whoever consumes the
streams (a filter bank's `in_orders`, a norm's `orders`), which checks the
order axis against it.  Rotating the input image by alpha rotates each
order's stream spatially and shifts its phase by m*alpha.  Every layer here
preserves that law: convolution kernels are synthesized circular harmonics
R(r)e^{i(m theta + beta)}, and all pointwise nonlinearities and norms act on
magnitudes only, leaving phases untouched: each is one `ct.magnitude_map`
tape node, a real map of |z| with its analytic adjoint.

Kernel grid convention: kernel[y][x] with offsets (dy, dx) from the center
pixel, theta = atan2(dy, dx), r = hypot(dy, dx).  Under numpy's rot90 a
synthesized order-m kernel picks up exactly the factor e^{i m pi/2}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import ctensor as ct
from .constants import EPS
from .errors import ConfigError, ShapeError

ORDERS = (-1, 0, 1)
MOMENTUM = 0.1   # running-statistics momentum of every HBatchNormState
NORMS = ("fused", "legacy", "layernorm")   # Stem's per-conv normalization variants


def lift_image(img: ct.CTensor) -> ct.CTensor:
    """A real image batch (B, C, H, W) of any precision as one complex128
    order-0 stream (B, 1, C, H, W): where features become complex128."""
    b, c, h, w = img.shape
    return ct.reshape(ct.astype(img, np.complex128), (b, 1, c, h, w))


def embed_orders(x: ct.CTensor) -> ct.CTensor:
    """Streams (B, O, ...) over every order in ORDERS: a lone order-0 stream
    (O = 1, the lifted image) gets zero streams on both sides; O = 3 passes."""
    if x.shape[1] == len(ORDERS):
        return x
    if x.shape[1] != 1:
        raise ShapeError(f"expected 1 (order 0) or {len(ORDERS)} order streams, got {x.shape}")
    zero = ct.CTensor(np.zeros_like(x.data))
    return ct.concat([zero, x, zero], axis=1)


# ---------------------------------------------------------------------------
# harmonic kernel synthesis
# ---------------------------------------------------------------------------

def n_radii(k: int) -> int:
    return k // 2 + 1


@lru_cache(maxsize=None)
def _grid_geometry(k: int):
    c = k // 2
    dy, dx = np.mgrid[-c:c + 1, -c:c + 1].astype(np.float64)
    r = np.hypot(dy, dx)
    theta = np.arctan2(dy, dx)
    return r.ravel(), theta.ravel()


@lru_cache(maxsize=None)
def _radial_basis(k: int) -> np.ndarray:
    """(k*k, n_radii) linear-interpolation weights; zero beyond radius k//2."""
    r, _ = _grid_geometry(k)
    nr = n_radii(k)
    a = np.zeros((k * k, nr))
    for i, ri in enumerate(r):
        if ri > nr - 1:
            continue
        f = int(np.floor(ri))
        t = ri - f
        a[i, f] += 1.0 - t
        if t > 0:
            a[i, f + 1] += t
    return a


@lru_cache(maxsize=None)
def _angular_map(k: int, m: int) -> np.ndarray:
    """(k*k,) complex e^{i m theta}; center forced to exactly 0 for m != 0."""
    r, theta = _grid_geometry(k)
    e = np.exp(1j * m * theta)
    if m != 0:
        e[r == 0] = 0.0
    return e


def synthesize_block(radial: np.ndarray, phase: np.ndarray, m: int, k: int) -> np.ndarray:
    """Harmonic kernels R(r)e^{i(m theta + beta)}: radial (..., Co, Ci, nr),
    phase (..., Co, Ci) -> (..., Co, Ci, k, k).

    `radial` holds values of R at integer radii 0..k//2 (linear interpolation
    in between, zero beyond); `phase` holds the real phase offsets beta.
    With a one-hot profile and zero phase this is a basis atom, whose
    spectra `basis_spectra` caches for the convolution.
    """
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if radial.shape[-1] != n_radii(k):
        raise ConfigError(f"radial profile must have length {n_radii(k)} for k={k}")
    ring = radial @ np.ascontiguousarray(_radial_basis(k).T)         # (..., Co,Ci,k2) real
    unit = (np.cos(phase) + 1j * np.sin(phase))[..., None]
    return (ring * _angular_map(k, m) * unit).reshape(phase.shape + (k, k))


# ---------------------------------------------------------------------------
# filter bank and harmonic convolution
# ---------------------------------------------------------------------------

ALL_FILTER_ORDERS = (-2, -1, 0, 1, 2)


class HarmonicFilterBank:
    """Learnable radial profiles + phase offsets per (m_in, m_filter) pair.

    Connections are derived from the (in_orders, out_orders) sets: each pair
    gets the filter order m_filter = m_out - m_in, so every output stays in
    the configured order range by construction.  The first conv applied to a
    raw image (in_orders == (0,)) is the lifting convolution.  Restricting
    filter_orders drops connections; order pairs without one contribute
    structural zeros (no parameters), as used by the 1x1 residual projection
    which keeps only m_filter = 0.
    """

    def __init__(self, name: str, in_orders, out_orders, c_in: int, c_out: int,
                 kernel_size: int, rng: np.random.Generator,
                 filter_orders=ALL_FILTER_ORDERS):
        if kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd, got {kernel_size}")
        for m in tuple(in_orders) + tuple(out_orders):
            if m not in ORDERS:
                raise ConfigError(f"rotation order {m} outside {ORDERS}")
        self.name = name
        self.in_orders = tuple(in_orders)
        self.out_orders = tuple(out_orders)
        self.c_in = c_in
        self.c_out = c_out
        self.k = kernel_size
        self.connections = [(m_in, m_out - m_in) for m_out in self.out_orders
                            for m_in in self.in_orders
                            if m_out - m_in in filter_orders]
        if not self.connections:
            raise ConfigError(f"filter bank {name} has no connections")
        # connection index per (output, input) order pair, -1 for none
        index = {conn: i for i, conn in enumerate(self.connections)}
        self.slots = np.array([[index.get((m_in, m_out - m_in), -1) for m_in in self.in_orders]
                               for m_out in self.out_orders])
        nr = n_radii(kernel_size)
        scale = np.sqrt(2.0 / (c_in * len(self.in_orders) * len(_taps(kernel_size)) * nr))
        radial, phase = zip(*[(rng.uniform(-scale, scale, size=(c_out, c_in, nr)),
                               rng.uniform(-np.pi, np.pi, size=(c_out, c_in)))
                              for _ in self.connections])
        self.params = {f"{name}.radial": np.stack(radial), f"{name}.phase": np.stack(phase)}

    def kernel_block(self, leaves: dict) -> ct.CTensor:
        """The filter coefficients radial * e^{i beta} of every connection,
        one (P, Co, Ci, n_radii) complex128 tensor in `connections` order:
        the weights of each kernel over its basis atoms.  The bank stores
        them as `{name}.radial` (P, Co, Ci, n_radii) and `{name}.phase`
        (P, Co, Ci)."""
        radial = ct.astype(leaves[f"{self.name}.radial"], np.float64)
        phase = leaves[f"{self.name}.phase"]
        return ct.mul(radial, ct.reshape(ct.polar_unit(phase), phase.shape + (1,)))


def _atoms(k: int, m: int) -> np.ndarray:
    """(n_radii, k, k) order-m basis atoms: the kernels `synthesize_block`
    gives one-hot radial profiles at zero phase."""
    return (_radial_basis(k).T * _angular_map(k, m)).reshape(n_radii(k), k, k)


@lru_cache(maxsize=128)   # bounded: callers may feed any number of image sizes
def basis_spectra(k: int, m: int, hp: int, wp: int) -> np.ndarray:
    """(n_radii, hp, wp) read-only spectra of the order-m atoms: atom r is
    the kernel `synthesize_block` gives a one-hot radial profile at radius r
    and zero phase, flipped in both axes and zero-padded to its FFT."""
    from scipy import fft as sfft   # deferred: slower to import than the package
    spectra = sfft.fft2(_atoms(k, m)[:, ::-1, ::-1], s=(hp, wp), axes=(-2, -1))
    spectra.flags.writeable = False
    return spectra


def harmonic_conv(x: ct.CTensor, bank: HarmonicFilterBank, leaves: dict) -> ct.CTensor:
    """Order-mixing convolution of streams (B, I, Ci, H, W) over the bank's
    in_orders to (B, O, Co, H, W) over its out_orders:
    out_m = sum over m1+m2=m of in_{m1} * W_{m2}.

    Each kernel W is the bank's coefficients over the basis atoms of its
    filter order, and is never synthesized.  `conv_plan` picks the route:
    one GEMM over the atoms' nonzero taps (`_tap_gemm`), or `ct.conv2d`
    against the atoms' cached spectra in the plan's contraction order.
    Convolution convention is cross-correlation (no kernel flip).
    """
    if x.data.ndim != 5 or x.shape[1] != len(bank.in_orders):
        raise ShapeError(f"expected (B, {len(bank.in_orders)}, C, H, W) streams for bank "
                         f"orders {bank.in_orders}, got {x.shape}")
    b, h, w = x.shape[0], *x.shape[3:]
    if x.shape[2] != bank.c_in:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, bank {bank.c_in}")
    coeffs = bank.kernel_block(leaves)
    route = conv_plan(bank, b, h, w)["route"]
    if route == "direct":
        return _tap_gemm(x, bank, coeffs)
    hp, wp = h + bank.k - 1, w + bank.k - 1
    spectra = np.stack([basis_spectra(bank.k, m_f, hp, wp) for _, m_f in bank.connections])
    return ct.conv2d(x, coeffs, spectra, bank.slots, route)


@lru_cache(maxsize=None)
def _taps(k: int) -> tuple:
    """(dy, dx) offsets of the pixels a k x k atom can be nonzero on: the
    rows of `_radial_basis(k)` with a weight (13 for k = 5, 5 for k = 3, 1
    for k = 1).  The set is closed under rot90."""
    c = k // 2
    return tuple((int(i) // k - c, int(i) % k - c)
                 for i in np.flatnonzero(_radial_basis(k).any(axis=1)))


def conv_plan(bank: HarmonicFilterBank, batch: int, h: int, w: int) -> dict:
    """How `harmonic_conv` runs `bank` on a (batch, I, Ci, h, w) input: the
    "route" and the complex multiply-adds ("macs") and FFT points
    ("fft_points") it costs.  With fan-in I*Ci, fan-out O*Co, T taps, P
    connections, nr radii and F = (h+k-1)(w+k-1): "direct" (`_tap_gemm`,
    B*h*w*fan-in*fan-out*T) iff T * min(fan-in, fan-out) <= max(fan-in,
    fan-out); else `ct.conv2d`, B*(fan-in + fan-out)*F FFT points, contracting
    "spectrum_first" (B*F*P*Ci*nr*(1 + Co)) iff Ci = 1 or nr * batch <= 2*Co,
    else "kernel_first" (F*(P*nr + B)*fan-in*fan-out).  The routes are these
    rules, not the smallest count, which misjudges batch 8 (README)."""
    fan_in, fan_out = len(bank.in_orders) * bank.c_in, len(bank.out_orders) * bank.c_out
    taps = len(_taps(bank.k))
    if taps * min(fan_in, fan_out) <= max(fan_in, fan_out):
        return {"route": "direct", "macs": batch * h * w * fan_in * fan_out * taps, "fft_points": 0}
    f, p, nr = (h + bank.k - 1) * (w + bank.k - 1), len(bank.connections), n_radii(bank.k)
    if bank.c_in == 1 or nr * batch <= 2 * bank.c_out:
        route, macs = "spectrum_first", batch * f * p * bank.c_in * nr * (1 + bank.c_out)
    else:
        route, macs = "kernel_first", f * (p * nr + batch) * fan_in * fan_out
    return {"route": route, "macs": macs, "fft_points": batch * (fan_in + fan_out) * f}


def _tap_gemm(x: ct.CTensor, bank: HarmonicFilterBank, coeffs: ct.CTensor) -> ct.CTensor:
    """A bank's convolution of x (B, I, Ci, H, W) -> (B, O, Co, H, W) as one
    (O*Co, I*Ci*T) matrix times x's T taps (`ct.shifted_taps`) at every
    pixel.  Block (o, i) of the matrix is connection slots[o, i]'s
    coefficients (Co, Ci, nr) times its atoms' values at the taps (nr, T),
    at the coefficients' precision, and zero where there is no connection.
    A 1x1 atom is 1 at filter order 0 and exactly 0 at any other, so a 1x1
    bank's matrix is its coefficients."""
    b, n_in, ci, h, w = x.shape
    n_out, co, k = bank.slots.shape[0], bank.c_out, bank.k
    offsets = _taps(k)
    ys, xs = (np.array(offsets) + k // 2).T
    atoms = np.stack([_atoms(k, m_f)[:, ys, xs].T for _, m_f in bank.connections])  # (P, T, nr)
    atoms = atoms.astype(np.result_type(coeffs.data, np.complex64), copy=False)
    slot = bank.slots[:, None, :, None]                                # (O, 1, I, 1)
    conn = np.maximum(slot, 0)
    table = np.where((slot >= 0)[..., None, None], atoms[conn], 0)     # (O, 1, I, 1, T, nr)
    picked = ct.take(coeffs, (conn[..., None], np.arange(co)[:, None, None, None],
                              np.arange(ci)[:, None]))                  # (O, Co, I, Ci, 1, nr)
    kern = ct.sum_(ct.mul(picked, ct.CTensor(table)), axis=-1)          # (O, Co, I, Ci, T)
    mat = ct.reshape(kern, (n_out * co, n_in * ci * len(offsets)))
    taps = ct.reshape(ct.shifted_taps(x, offsets), (b, n_in * ci * len(offsets), h * w))
    return ct.reshape(ct.complex_matmul(mat, taps), (b, n_out, co, h, w))


# ---------------------------------------------------------------------------
# magnitude batch norm + C-ReLU (fused), and the legacy variants
# ---------------------------------------------------------------------------

class HBatchNormState:
    """Running magnitude statistics per (stream, channel) + learnable a, b.

    The scale/shift pair is shared across streams; running mean/variance are
    tracked per stream so streams stay statistically independent: buffers
    `{name}.mean` and `{name}.var`, each (O, C) over `orders`.
    """

    def __init__(self, name: str, channels: int, orders=ORDERS):
        self.name = name
        self.channels = channels
        self.orders = tuple(orders)
        self.params = {f"{name}.a": np.ones(channels), f"{name}.b": np.zeros(channels)}
        shape = (len(self.orders), channels)
        self.buffers = {f"{name}.mean": np.zeros(shape), f"{name}.var": np.ones(shape)}


def _affine_norm(x: ct.CTensor, state: HBatchNormState, leaves: dict,
                 train: bool, relu: bool) -> ct.CTensor:
    """New magnitudes a * (|X| - mu)/sqrt(var + eps) + b per (order, channel),
    through ReLU when `relu`, as one phase-keeping tape node.  Train mode
    pools magnitudes over batch and space and updates the running buffers;
    eval mode reads the buffers.  Either way the statistics and a, b fold
    into a scale k = a/sqrt(var + eps) and a shift c = b - k*mu per (order,
    channel), formed in float64 and cast to |X|'s dtype, so the magnitudes
    are |X|*k + c in one product and one sum.  a and b (C,) are shared by
    every order: they broadcast as (C, 1, 1); the adjoint sums their
    gradients over the batch and space, and the reverse sweep over the
    orders."""
    if x.shape[2] != state.channels:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, norm {state.channels}")
    if x.shape[1] != len(state.orders):
        raise ShapeError(f"order mismatch: input has {x.shape[1]} order streams, "
                         f"norm orders {state.orders}")
    name, axes = state.name, (0, 3, 4)

    def forward(mag, a, b):
        if train:
            mu = mag.mean(axis=axes, keepdims=True)
            d = mag - mu
            var = np.square(d, out=d).mean(axis=axes, keepdims=True)
            for stat, batch in (("mean", mu), ("var", var)):
                buf = state.buffers[f"{name}.{stat}"]
                buf[:] = (1 - MOMENTUM) * buf + MOMENTUM * batch.reshape(buf.shape)
        else:
            mu, var = (state.buffers[f"{name}.{stat}"][None, :, :, None, None]
                       for stat in ("mean", "var"))
        s = np.sqrt(var.astype(np.float64) + EPS)
        k = a / s
        c = b - k * mu
        mu, s, k, c = (v.astype(mag.dtype, copy=False) for v in (mu, s, k, c))
        r = mag * k
        r += c
        if relu:
            np.maximum(r, 0, out=r)
        return r, (mu, s, k)

    def backward(gr, mag, r, saved):
        # per (order, channel) sums over batch and space: sy of gy and sn
        # of gy * norm give b's and a's gradients; in train mode the batch
        # statistics subtract mean(gy) + norm * mean(gy * norm) from gy
        mu, s, k = saved
        gy = gr * (r > 0) if relu else gr
        norm = mag - mu
        norm /= s
        sy = gy.sum(axis=axes, keepdims=True)
        sn = (gy * norm).sum(axis=axes, keepdims=True)
        if not train:
            return gy * k, sn, sy
        n = gy.size // sy.size
        norm *= sn / n
        norm += sy / n
        np.subtract(gy, norm, out=norm)
        norm *= k
        return norm, sn, sy

    params = tuple(ct.reshape(leaves[f"{name}.{p}"], (-1, 1, 1)) for p in "ab")
    return ct.magnitude_map(x, params, forward, backward)


def hbn_crelu(x: ct.CTensor, state: HBatchNormState, leaves: dict,
              train: bool) -> ct.CTensor:
    """ReLU(a * (|X| - mu)/sqrt(var + eps) + b) e^{i theta}, phase untouched.

    Train mode normalizes by batch statistics of magnitudes (per channel per
    stream, pooled over batch and space) and updates running buffers; eval
    mode uses the stored running statistics.  Codomain of the magnitude path
    is non-negative, which is what keeps the layer equivariant.
    """
    return _affine_norm(x, state, leaves, train, relu=True)


def legacy_cbn(x: ct.CTensor, state: HBatchNormState, leaves: dict,
               train: bool) -> ct.CTensor:
    """Original complex batch norm: gamma*(|X|-mu)/sqrt(var+eps) + beta, no ReLU.

    With gamma < 0 the magnitude path goes negative, flipping phases; kept
    exactly so the normalization ablation can exhibit the equivariance break.
    """
    return _affine_norm(x, state, leaves, train, relu=False)


def normalize_over(t: ct.CTensor, axis, mode: str = "std") -> ct.CTensor:
    """Subtract the complex mean over `axis`, then divide by sigma + EPS,
    where sigma is the standard deviation ("std") or the root mean square
    ("rms") over `axis` of the centered magnitudes.  No learnable affine.
    The division scales magnitudes only, as one phase-keeping tape node."""
    c = ct.sub(t, ct.mean(t, axis=axis, keepdims=True))

    def forward(mag):
        mu = mag.mean(axis=axis, keepdims=True) if mode == "std" else mag.dtype.type(0)
        dev = mag - mu
        sigma = np.sqrt(np.square(dev, out=dev).mean(axis=axis, keepdims=True))
        denom = sigma + mag.dtype.type(EPS)
        return mag / denom, (mu, sigma, denom)

    def backward(gr, mag, r, saved):
        # d sigma / d mag = dev / (N sigma), dev = mag - mu (the mean of dev
        # is 0 in "std" mode); a collapsed sigma = 0 passes a zero slope
        mu, sigma, denom = saved
        pull = np.divide((gr * r).mean(axis=axis, keepdims=True), sigma,
                         out=np.zeros_like(sigma), where=sigma != 0)
        g = mag - mu
        g *= pull
        np.subtract(gr, g, out=g)
        return (np.divide(g, denom, out=g),)

    return ct.magnitude_map(c, (), forward, backward)


def legacy_crelu(x: ct.CTensor, bias: ct.CTensor) -> ct.CTensor:
    """Original C-ReLU: ReLU(|X| + b) e^{i theta} with a per-channel bias
    (C,), shared by every order: it broadcasts as (C, 1, 1)."""
    def forward(mag, b):
        r = mag + b
        return np.maximum(r, 0, out=r), ()

    def backward(gr, mag, r, _):
        gy = gr * (r > 0)
        return gy, gy

    return ct.magnitude_map(x, (ct.reshape(bias, (-1, 1, 1)),), forward, backward)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def channel_dropout(x: ct.CTensor, p: float, rng: np.random.Generator,
                    train: bool) -> ct.CTensor:
    """Zero whole channels (same mask for every stream), scaled by 1/(1-p)."""
    if not train or p == 0.0:
        return x
    b, _, c = x.shape[:3]
    real = np.finfo(x.data.dtype).dtype
    mask = (rng.random((b, c, 1, 1)) >= p).astype(real) / (1.0 - p)
    return ct.mul(x, ct.CTensor(mask.reshape(b, 1, c, 1, 1)))


# ---------------------------------------------------------------------------
# the full stem
# ---------------------------------------------------------------------------

class Stem:
    """r blocks of (harmonic_conv -> fused norm) x convs_per_block, with a
    block-level residual (1x1 order-0 projection when widths differ),
    average pooling, and per-block channel dropout."""

    def __init__(self, name: str, in_channels: int, channels: list, convs_per_block: int,
                 kernel_size: int, dropout: list, rng: np.random.Generator,
                 norm: str = "fused"):
        if len(dropout) != len(channels):
            raise ConfigError("dropout list length must match channels list")
        if norm not in NORMS:
            raise ConfigError(f"unknown stem norm {norm!r}")
        self.name = name
        self.norm = norm
        self.blocks = []
        self.params = {}
        self.kernel_size = kernel_size
        c_prev, orders_prev = in_channels, (0,)
        for i, c in enumerate(channels):
            convs = []
            c_in, in_ord = c_prev, orders_prev
            for j in range(convs_per_block):
                bank = HarmonicFilterBank(f"{name}.b{i}.conv{j}", in_ord, ORDERS,
                                          c_in, c, kernel_size, rng)
                bn = None
                if norm != "layernorm":
                    bn = HBatchNormState(f"{name}.b{i}.norm{j}", c)
                    self.params.update(bn.params)
                convs.append((bank, bn))
                self.params.update(bank.params)
                if norm in ("legacy", "layernorm"):
                    self.params[f"{name}.b{i}.act{j}.bias"] = np.zeros(c)
                c_in, in_ord = c, ORDERS
            proj = None
            if c_prev != c or orders_prev != ORDERS:
                # skip-path projection: order-0 (m_filter = 0) 1x1 kernels only,
                # absent streams enter as structural zeros
                proj = HarmonicFilterBank(f"{name}.b{i}.proj", orders_prev, ORDERS,
                                          c_prev, c, 1, rng, filter_orders=(0,))
                self.params.update(proj.params)
            self.blocks.append({"convs": convs, "proj": proj, "dropout": dropout[i]})
            c_prev, orders_prev = c, ORDERS
        self.out_channels = c_prev

    def buffers(self) -> dict:
        out = {}
        for blk in self.blocks:
            for _, bn in blk["convs"]:
                if bn is not None:
                    out.update(bn.buffers)
        return out

    def forward(self, img: ct.CTensor, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> ct.CTensor:
        """Real images (B, C, H, W) -> streams (B, O, C', H', W'): order 0
        alone (O = 1) with no blocks, every order in ORDERS after one."""
        x = lift_image(img)
        for i, blk in enumerate(self.blocks):
            inp = x
            for j, (bank, bn) in enumerate(blk["convs"]):
                x = harmonic_conv(x, bank, leaves)
                if self.norm == "fused":
                    x = hbn_crelu(x, bn, leaves, train)
                elif self.norm == "legacy":
                    x = legacy_cbn(x, bn, leaves, train)
                    x = legacy_crelu(x, leaves[f"{self.name}.b{i}.act{j}.bias"])
                else:
                    x = normalize_over(x, (3, 4))
                    x = legacy_crelu(x, leaves[f"{self.name}.b{i}.act{j}.bias"])
            skip = inp if blk["proj"] is None else harmonic_conv(inp, blk["proj"], leaves)
            x = ct.avg_pool2(ct.add(x, skip))
            if blk["dropout"] > 0.0 and train:
                if rng is None:
                    raise ConfigError("dropout requires an rng in train mode")
                x = channel_dropout(x, blk["dropout"], rng, train)
        return x
