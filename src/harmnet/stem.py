"""Steerable convolution stem over rotation-order streams.

Features are carried as one complex tensor with an axis over rotation orders
m in {-1, 0, +1}.  Rotating the input image by alpha rotates each order's
stream spatially and shifts its phase by m*alpha.  Every layer here
preserves that law: convolution kernels are synthesized circular harmonics
R(r)e^{i(m theta + beta)}, and all pointwise nonlinearities and norms act on
magnitudes only, leaving phases untouched: each is one `ct.magnitude_map`
tape node, a real map of |z| with its analytic adjoint.

Kernel grid convention: kernel[y][x] with offsets (dy, dx) from the center
pixel, theta = atan2(dy, dx), r = hypot(dy, dx).  Under numpy's rot90 a
synthesized order-m kernel picks up exactly the factor e^{i m pi/2}.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from . import ctensor as ct
from .constants import EPS
from .errors import ConfigError, ShapeError

ORDERS = (-1, 0, 1)
NORMS = ("fused", "legacy", "layernorm")   # Stem's per-conv normalization variants


class OrderStack:
    """A tensor whose axis 1 indexes rotation orders `orders` (ascending),
    next to the batch axis 0; `layout` names every axis."""

    layout = ()

    def __init__(self, tensor: ct.CTensor, orders):
        orders = tuple(orders)
        if orders != tuple(m for m in ORDERS if m in orders):
            raise ShapeError(f"orders must be an ascending subset of {ORDERS}, got {orders}")
        if tensor.data.ndim != len(self.layout) or tensor.shape[1] != len(orders):
            raise ShapeError(f"expected a ({', '.join(self.layout)}) tensor with "
                             f"O={len(orders)} for orders {orders}, got {tensor.shape}")
        self.tensor = tensor
        self.orders = orders

    @classmethod
    def from_streams(cls, streams: dict, *args):
        """Stack per-order arrays {m: array} along the order axis; `args`
        follow the tensor and orders in the class's constructor."""
        orders = tuple(sorted(streams))
        shapes = {np.shape(streams[m]) for m in orders}
        if len(shapes) != 1:
            raise ShapeError(f"stream shapes differ: {sorted(shapes)}")
        return cls(ct.CTensor(np.stack([streams[m] for m in orders], axis=1)), orders, *args)

    @property
    def shape(self):
        return self.tensor.shape

    def stream(self, m: int) -> ct.CTensor:
        """The order-m stream, without the order axis (tracked)."""
        t = ct.narrow(self.tensor, 1, self.orders.index(m), 1)
        return ct.reshape(t, t.shape[:1] + t.shape[2:])

    def with_tensor(self, tensor: ct.CTensor):
        """The same orders (and layout metadata) around a new tensor."""
        out = copy.copy(self)
        out.tensor = tensor
        return out


class StreamedFeatureMap(OrderStack):
    """Rotation-order streams carried as one complex (B, O, C, H, W) tensor.

    Layers act on the whole tensor at once; order arithmetic happens only
    where orders mix (harmonic convolution, attention).
    """

    layout = ("B", "O", "C", "H", "W")


def lift_image(img: ct.CTensor) -> StreamedFeatureMap:
    """Wrap a real image batch (B, C, H, W) as a pure order-0 stream."""
    b, c, h, w = img.shape
    return StreamedFeatureMap(ct.reshape(ct.as_complex(img), (b, 1, c, h, w)), (0,))


def embed_orders(x: StreamedFeatureMap) -> StreamedFeatureMap:
    """Place x's streams at their slots in ORDERS; absent orders are zero."""
    if x.orders == ORDERS:
        return x
    zero = ct.CTensor(np.zeros_like(x.tensor.data[:, :1]))
    padded = ct.concat([x.tensor, zero], axis=1)
    slots = [x.orders.index(m) if m in x.orders else len(x.orders) for m in ORDERS]
    return StreamedFeatureMap(ct.take(padded, (slice(None), slots)), ORDERS)


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


def synthesize_block(radial: ct.CTensor, phase: ct.CTensor, m: int, k: int) -> ct.CTensor:
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
    basis = ct.CTensor(np.ascontiguousarray(_radial_basis(k).T))      # (nr, k2)
    ring = ct.complex_matmul(radial, basis)                           # (..., Co,Ci,k2) real
    ang = ct.mul(ring, ct.CTensor(_angular_map(k, m)))
    unit = ct.reshape(ct.polar_unit(phase), phase.shape + (1,))
    return ct.reshape(ct.mul(ang, unit), phase.shape + (k, k))


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
        taps = int(np.count_nonzero(_radial_basis(kernel_size).sum(axis=1)))
        scale = np.sqrt(2.0 / (c_in * len(self.in_orders) * taps * nr))
        self.params = {}
        for m_in, m_f in self.connections:
            base = f"{name}.f{m_in:+d}{m_f:+d}"
            self.params[f"{base}.radial"] = rng.uniform(-scale, scale, size=(c_out, c_in, nr))
            self.params[f"{base}.phase"] = rng.uniform(-np.pi, np.pi, size=(c_out, c_in))

    def kernel_block(self, leaves: dict) -> ct.CTensor:
        """The filter coefficients radial * e^{i beta} of every connection,
        one (P, Co, Ci, n_radii) complex128 tensor in `connections` order:
        the weights of each kernel over its basis atoms."""
        n, co, ci = len(self.connections), self.c_out, self.c_in
        bases = [f"{self.name}.f{m_in:+d}{m_f:+d}" for m_in, m_f in self.connections]
        radial = ct.concat([leaves[f"{base}.radial"] for base in bases], axis=0)
        phase = ct.concat([leaves[f"{base}.phase"] for base in bases], axis=0)
        radial = ct.astype(ct.reshape(radial, (n, co, ci, n_radii(self.k))), np.float64)
        return ct.mul(radial, ct.reshape(ct.polar_unit(phase), (n, co, ci, 1)))


@lru_cache(maxsize=128)   # bounded: callers may feed any number of image sizes
def basis_spectra(k: int, m: int, hp: int, wp: int) -> np.ndarray:
    """(n_radii, hp, wp) read-only spectra of the order-m atoms: atom r is
    the kernel `synthesize_block` gives a one-hot radial profile at radius r
    and zero phase, flipped in both axes and zero-padded to its FFT."""
    from scipy import fft as sfft   # deferred: slower to import than the package
    nr = n_radii(k)
    atoms = synthesize_block(ct.CTensor(np.eye(nr).reshape(nr, 1, nr)),
                             ct.CTensor(np.zeros((nr, 1))), m, k).data[:, 0]
    spectra = sfft.fft2(atoms[:, ::-1, ::-1], s=(hp, wp), axes=(-2, -1))
    spectra.flags.writeable = False
    return spectra


def harmonic_conv(x: StreamedFeatureMap, bank: HarmonicFilterBank,
                  leaves: dict) -> StreamedFeatureMap:
    """Order-mixing convolution: out_m = sum over m1+m2=m of in_{m1} * W_{m2}.

    Each kernel W is the bank's coefficients over the basis atoms of its
    filter order, so the convolution runs against the atoms' cached spectra
    and never synthesizes or transforms a kernel.  Convolution convention is
    cross-correlation (no kernel flip).
    """
    if x.orders != bank.in_orders:
        raise ShapeError(f"input orders {x.orders} != bank orders {bank.in_orders}")
    h, w = x.shape[3:]
    if x.shape[2] != bank.c_in:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, bank {bank.c_in}")
    hp, wp = h + bank.k - 1, w + bank.k - 1
    spectra = np.stack([basis_spectra(bank.k, m_f, hp, wp) for _, m_f in bank.connections])
    y = ct.conv2d(x.tensor, bank.kernel_block(leaves), spectra, bank.slots)
    return StreamedFeatureMap(y, bank.out_orders)


# ---------------------------------------------------------------------------
# magnitude batch norm + C-ReLU (fused), and the legacy variants
# ---------------------------------------------------------------------------

class HBatchNormState:
    """Running magnitude statistics per (stream, channel) + learnable a, b.

    The scale/shift pair is shared across streams; running mean/variance are
    tracked per stream so streams stay statistically independent.
    """

    def __init__(self, name: str, channels: int, orders=ORDERS, momentum: float = 0.1):
        if not 0.0 < momentum < 1.0:
            raise ConfigError(f"momentum must lie in (0,1), got {momentum}")
        self.name = name
        self.channels = channels
        self.orders = tuple(orders)
        self.momentum = momentum
        self.params = {f"{name}.a": np.ones(channels), f"{name}.b": np.zeros(channels)}
        self.buffers = {}
        for m in self.orders:
            self.buffers[f"{name}.mean{m:+d}"] = np.zeros(channels)
            self.buffers[f"{name}.var{m:+d}"] = np.ones(channels)


def _channel_vector(v: ct.CTensor, x: StreamedFeatureMap) -> ct.CTensor:
    """Per-channel parameter (C,) shared by every order of x, shaped
    (1, O, C, 1, 1) to broadcast over its (B, O, C, H, W) tensor."""
    return ct.expand(ct.reshape(v, (1, v.shape[0], 1, 1)), 1, len(x.orders))


def _affine_norm(x: StreamedFeatureMap, state: HBatchNormState, leaves: dict,
                 train: bool, track: bool, relu: bool) -> StreamedFeatureMap:
    """New magnitudes a * (|X| - mu)/sqrt(var + eps) + b per (order, channel),
    through ReLU when `relu`, as one phase-keeping tape node.  Train mode
    pools magnitudes over batch and space (and updates the running buffers
    when `track`); eval mode reads the buffers."""
    if x.shape[2] != state.channels:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, norm {state.channels}")
    name, axes = state.name, (0, 3, 4)

    def forward(mag, a, b):
        if train:
            mu = mag.mean(axis=axes, keepdims=True)
            d = mag - mu
            var = (d * d).mean(axis=axes, keepdims=True)
            if track:
                mom = state.momentum
                for i, m in enumerate(x.orders):
                    for stat, batch in (("mean", mu), ("var", var)):
                        buf = state.buffers[f"{name}.{stat}{m:+d}"]
                        buf[:] = (1 - mom) * buf + mom * batch[0, i].reshape(-1)
        else:
            shape = (1, len(x.orders), state.channels, 1, 1)
            mu, var = (np.stack([state.buffers[f"{name}.{stat}{m:+d}"] for m in x.orders])
                       .reshape(shape).astype(mag.dtype, copy=False) for stat in ("mean", "var"))
            d = mag - mu
        s = np.sqrt(var + mag.dtype.type(EPS))
        norm = np.divide(d, s, out=d)
        r = a * norm + b
        if relu:
            np.maximum(r, 0, out=r)
        return r, (r, norm, s, a)

    def backward(gr, saved):
        r, norm, s, a = saved
        gy = gr * (r > 0) if relu else gr
        gn = gy * a
        if train:   # the batch statistics depend on every magnitude
            pull = (gn * norm).mean(axis=axes, keepdims=True)
            gn -= gn.mean(axis=axes, keepdims=True)
            gn -= norm * pull
        return np.divide(gn, s, out=gn), gy * norm, gy

    params = (_channel_vector(leaves[f"{name}.a"], x), _channel_vector(leaves[f"{name}.b"], x))
    return x.with_tensor(ct.magnitude_map(x.tensor, params, forward, backward))


def hbn_crelu(x: StreamedFeatureMap, state: HBatchNormState, leaves: dict,
              train: bool) -> StreamedFeatureMap:
    """ReLU(a * (|X| - mu)/sqrt(var + eps) + b) e^{i theta}, phase untouched.

    Train mode normalizes by batch statistics of magnitudes (per channel per
    stream, pooled over batch and space) and updates running buffers; eval
    mode uses the stored running statistics.  Codomain of the magnitude path
    is non-negative, which is what keeps the layer equivariant.
    """
    return _affine_norm(x, state, leaves, train, track=True, relu=True)


def legacy_cbn(x: StreamedFeatureMap, state: HBatchNormState, leaves: dict,
               train: bool) -> StreamedFeatureMap:
    """Original complex batch norm: gamma*(|X|-mu)/sqrt(var+eps) + beta, no ReLU.

    With gamma < 0 the magnitude path goes negative, flipping phases; kept
    exactly so the normalization ablation can exhibit the equivariance break.
    """
    return _affine_norm(x, state, leaves, train, track=False, relu=False)


def normalize_over(t: ct.CTensor, axis, eps: float = EPS, mode: str = "std") -> ct.CTensor:
    """Subtract the complex mean over `axis`, then divide by sigma + eps,
    where sigma is the standard deviation ("std") or the root mean square
    ("rms") over `axis` of the centered magnitudes.  No learnable affine.
    The division scales magnitudes only, as one phase-keeping tape node."""
    c = ct.sub(t, ct.mean(t, axis=axis, keepdims=True))

    def forward(mag):
        dev = mag - mag.mean(axis=axis, keepdims=True) if mode == "std" else mag
        sigma = np.sqrt((dev * dev).mean(axis=axis, keepdims=True))
        denom = sigma + mag.dtype.type(eps)
        r = mag / denom
        return r, (r, dev, sigma, denom)

    def backward(gr, saved):
        # d sigma / d mag = dev / (N sigma) (the mean of dev is 0 in "std"
        # mode); a collapsed sigma = 0 passes a zero slope
        r, dev, sigma, denom = saved
        pull = np.divide((gr * r).mean(axis=axis, keepdims=True), sigma,
                         out=np.zeros_like(sigma), where=sigma != 0)
        g = gr - pull * dev
        return (np.divide(g, denom, out=g),)

    return ct.magnitude_map(c, (), forward, backward)


def layer_norm_streams(x: StreamedFeatureMap, eps: float = EPS) -> StreamedFeatureMap:
    """Encoder-style layer norm on spatial feature maps: per (sample, channel,
    stream), normalize over space with the standard deviation of the
    centered magnitudes."""
    return x.with_tensor(normalize_over(x.tensor, (3, 4), eps))


def legacy_crelu(x: StreamedFeatureMap, bias: ct.CTensor) -> StreamedFeatureMap:
    """Original C-ReLU: ReLU(|X| + b) e^{i theta} with a per-channel bias."""
    def forward(mag, b):
        r = mag + b
        return np.maximum(r, 0, out=r), r

    def backward(gr, r):
        gy = gr * (r > 0)
        return gy, gy

    return x.with_tensor(ct.magnitude_map(x.tensor, (_channel_vector(bias, x),),
                                          forward, backward))


# ---------------------------------------------------------------------------
# residuals, pooling, dropout
# ---------------------------------------------------------------------------

def residual_add(a: StreamedFeatureMap, b: StreamedFeatureMap) -> StreamedFeatureMap:
    if a.orders != b.orders:
        raise ShapeError(f"order sets differ: {a.orders} vs {b.orders}")
    if a.shape != b.shape:
        raise ShapeError(f"stream shapes differ: {a.shape} vs {b.shape}")
    return a.with_tensor(ct.add(a.tensor, b.tensor))


def avg_pool_streams(x: StreamedFeatureMap) -> StreamedFeatureMap:
    return x.with_tensor(ct.avg_pool2(x.tensor))


def channel_dropout(x: StreamedFeatureMap, p: float, rng: np.random.Generator,
                    train: bool) -> StreamedFeatureMap:
    """Zero whole channels (same mask for every stream), scaled by 1/(1-p)."""
    if not train or p == 0.0:
        return x
    b, _, c = x.shape[:3]
    real = np.finfo(x.tensor.data.dtype).dtype
    mask = (rng.random((b, c, 1, 1)) >= p).astype(real) / (1.0 - p)
    keep = ct.CTensor(mask.reshape(b, 1, c, 1, 1))
    return x.with_tensor(ct.mul(x.tensor, keep))


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
                rng: np.random.Generator | None = None) -> StreamedFeatureMap:
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
                    x = layer_norm_streams(x)
                    x = legacy_crelu(x, leaves[f"{self.name}.b{i}.act{j}.bias"])
            skip = inp if blk["proj"] is None else harmonic_conv(inp, blk["proj"], leaves)
            x = residual_add(x, skip)
            x = avg_pool_streams(x)
            if blk["dropout"] > 0.0 and train:
                if rng is None:
                    raise ConfigError("dropout requires an rng in train mode")
                x = channel_dropout(x, blk["dropout"], rng, train)
        return x
