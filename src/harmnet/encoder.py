"""Equivariant transformer encoder over rotation-order patch stacks.

The stem output is reshaped into one (B, O, n, d) tensor: an (n x d) complex
matrix per rotation order.  Rotating the source image by 90 degrees acts on
each matrix as a fixed row permutation times the phase e^{i m alpha}; every
layer here commutes with that action.  The attention order laws: a dot product of
orders (m1, m2) produces order m1 - m2, a matmul sums orders, so strategies
only ever combine triples whose output order lands back in {-1, 0, +1}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import ctensor as ct
from . import stem as hs
from .constants import EPS
from .errors import ConfigError, ShapeError

STRATEGIES = ("harmformer_default", "mixing_all", "cross_values")
NORM_MODES = ("std", "rms")


class PatchStack(hs.OrderStack):
    """Rotation-order patch matrices as one complex (B, O, n, d) tensor,
    n = h*w patches in row-major grid order.

    The grid shape is recorded so position-dependent layers (RPE) and grid
    rotations know the spatial layout the rows came from.
    """

    layout = ("B", "O", "n", "d")

    def __init__(self, tensor: ct.CTensor, orders, grid_shape: tuple):
        super().__init__(tensor, orders)
        h, w = grid_shape
        if tensor.shape[2] != h * w:
            raise ShapeError(f"expected {h * w} patch rows for grid {grid_shape}, "
                             f"got {tensor.shape}")
        self.grid_shape = (h, w)

    @property
    def n(self):
        return self.shape[2]

    @property
    def d(self):
        return self.shape[3]


def patchify(x: hs.StreamedFeatureMap) -> PatchStack:
    """(B, O, C, H, W) streams -> (B, O, H*W, C) matrices, rows in row-major order."""
    b, o, c, h, w = x.shape
    t = ct.reshape(ct.transpose(x.tensor, (0, 1, 3, 4, 2)), (b, o, h * w, c))
    return PatchStack(t, x.orders, (h, w))


def unpatchify(p: PatchStack) -> hs.StreamedFeatureMap:
    h, w = p.grid_shape
    b, o, n, d = p.shape
    t = ct.transpose(ct.reshape(p.tensor, (b, o, h, w, d)), (0, 1, 4, 2, 3))
    return hs.StreamedFeatureMap(t, p.orders)


def stack_add(a: PatchStack, b: PatchStack) -> PatchStack:
    if a.orders != b.orders or a.shape != b.shape:
        raise ShapeError("patch stacks are not aligned")
    return a.with_tensor(ct.add(a.tensor, b.tensor))


def equi_linear(p: PatchStack, w: ct.CTensor) -> PatchStack:
    """One shared weight matrix applied independently to every order stream.

    No additive bias: a constant bias on a nonzero-order stream would break
    the phase law (biases live in the magnitude activations instead).
    """
    if w.shape[0] != p.d:
        raise ShapeError(f"weight rows {w.shape[0]} != patch dim {p.d}")
    return p.with_tensor(ct.complex_matmul(p.tensor, ct.expand(w, 0, len(p.orders))))


def he_layer_norm(p: PatchStack, eps: float = EPS, mode: str = "std") -> PatchStack:
    """Per order, per channel: subtract the complex mean over patches, then
    divide by sigma + eps.

    mode "std" (default): sigma is the standard deviation over patches of the
    magnitudes of the centered values.  mode "rms": sigma is the root mean
    square of those magnitudes.  No learnable affine.
    """
    if p.n < 2:
        raise ShapeError("layer norm needs at least 2 patches")
    if mode not in NORM_MODES:
        raise ConfigError(f"unknown layer-norm mode {mode!r}")
    return p.with_tensor(hs.normalize_over(p.tensor, 2, eps, mode))


def order_dot(q: ct.CTensor, k: ct.CTensor) -> ct.CTensor:
    """Q conj(K)^T / sqrt(d_h); orders subtract: (m1, m2) -> m1 - m2."""
    if q.shape != k.shape:
        raise ShapeError(f"query/key shapes differ: {q.shape} vs {k.shape}")
    d_h = q.shape[-1]
    return ct.mul(ct.complex_matmul(q, ct.conj_transpose(k)), ct.CTensor(np.asarray(1.0 / np.sqrt(d_h))))


def magnitude_softmax(s: ct.CTensor, rpe_bias: ct.CTensor | None = None,
                      keep_phase: bool = True) -> ct.CTensor:
    """Row softmax over |s| + bias; phases pass through untouched (or are
    dropped when keep_phase is false).  Row magnitude sums are exactly 1.
    The bias broadcasts against the trailing axes of s."""
    mag = ct.magnitude(s)
    if rpe_bias is not None:
        if rpe_bias.shape != s.shape[s.data.ndim - rpe_bias.data.ndim:]:
            raise ShapeError(f"rpe bias shape {rpe_bias.shape} does not end attention {s.shape}")
        mag = ct.add(mag, rpe_bias)
    w = ct.softmax(mag, axis=-1)
    return ct.with_magnitude(s, w) if keep_phase else ct.as_complex(w)


# ---------------------------------------------------------------------------
# relative position encoding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bucket_map(h: int, w: int, num_buckets: int) -> np.ndarray:
    """Quantized Euclidean distance between patch grid positions.

    bucket(i, j) = min(ceil(dist), num_buckets - 1) depends on distance only,
    so it is invariant under any rotation applied to both positions.
    """
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :]
    dx = xs[:, None] - xs[None, :]
    dist = np.hypot(dy, dx)
    return np.minimum(np.ceil(dist), num_buckets - 1).astype(np.int64)


class RpeTable:
    """Learnable real attention bias per (head, distance bucket)."""

    def __init__(self, name: str, grid_shape: tuple, heads: int, num_buckets: int = 16):
        self.name = name
        self.heads = heads
        self.num_buckets = num_buckets
        self.bucket_of = _bucket_map(grid_shape[0], grid_shape[1], num_buckets)
        self.params = {f"{name}.bias": np.zeros((heads, num_buckets))}

    def bias_matrix(self, leaves: dict) -> ct.CTensor:
        """(heads, n, n) attention bias, one distance-bucket lookup per head."""
        heads = np.arange(self.heads)[:, None, None]
        return ct.take(leaves[f"{self.name}.bias"], (heads, self.bucket_of))


# ---------------------------------------------------------------------------
# multi-head self-attention with order mixing
# ---------------------------------------------------------------------------

def _mix_heads(q: ct.CTensor, k: ct.CTensor, v: ct.CTensor, orders: tuple, strategy: str,
               bias, keep_phase: bool) -> ct.CTensor:
    """Attention over (B, O, heads, n, d_h) queries, keys and values."""
    if strategy == "harmformer_default":
        # matched-order dot products summed into a single order-0 matrix
        s = ct.sum_(order_dot(q, k), axis=1, keepdims=True)
        return ct.complex_matmul(magnitude_softmax(s, bias, keep_phase), v)
    if strategy == "cross_values":
        # queries/keys from the order-0 stream only; all value orders attended
        i0 = orders.index(0)
        s = order_dot(ct.narrow(q, 1, i0, 1), ct.narrow(k, 1, i0, 1))
        return ct.complex_matmul(magnitude_softmax(s, bias, keep_phase), v)
    if strategy == "mixing_all":
        # every (m_q, m_k, m_v) triple whose output order stays in range;
        # dot products grouped by their order m_q - m_k before the softmax
        # (the default strategy is exactly the m_dot = 0 group).  Nonzero
        # groups always keep phase — their order lives in it.
        groups: dict = {}
        for iq, mq in enumerate(orders):
            for ik, mk in enumerate(orders):
                t = order_dot(ct.narrow(q, 1, iq, 1), ct.narrow(k, 1, ik, 1))
                md = mq - mk
                groups[md] = t if md not in groups else ct.add(groups[md], t)
        out = [None] * len(orders)
        for md, s in groups.items():
            a = magnitude_softmax(s, bias, keep_phase if md == 0 else True)
            for iv, mv in enumerate(orders):
                if md + mv not in orders:
                    continue
                io = orders.index(md + mv)
                t = ct.complex_matmul(a, ct.narrow(v, 1, iv, 1))
                out[io] = t if out[io] is None else ct.add(out[io], t)
        return ct.concat(out, axis=1)
    raise ConfigError(f"unknown mixing strategy {strategy!r}; valid: {STRATEGIES}")


def msa_forward(p: PatchStack, leaves: dict, name: str, heads: int,
                strategy: str = "harmformer_default", rpe: RpeTable | None = None,
                keep_phase: bool = True, head_dim: int | None = None) -> PatchStack:
    """Self-attention with order-aware stream mixing, all heads batched, then
    heads concatenated and linearly projected.

    Each head projects to head_dim channels (Q, K, V weights are
    (d, heads*head_dim)); the output projection maps heads*head_dim back to
    d, so the per-head width is independent of the model width."""
    if head_dim is None:
        if p.d % heads:
            raise ConfigError(f"patch dim {p.d} not divisible by {heads} heads")
        head_dim = p.d // heads
    b, o, n, _ = p.shape

    def split_heads(w):   # (B, O, n, heads*d_h) -> (B, O, heads, n, d_h)
        t = ct.reshape(equi_linear(p, w).tensor, (b, o, n, heads, head_dim))
        return ct.transpose(t, (0, 1, 3, 2, 4))

    q, k, v = (split_heads(leaves[f"{name}.w{x}"]) for x in "qkv")
    bias = rpe.bias_matrix(leaves) if rpe is not None else None
    out = _mix_heads(q, k, v, p.orders, strategy, bias, keep_phase)
    merged = ct.reshape(ct.transpose(out, (0, 1, 3, 2, 4)), (b, o, n, heads * head_dim))
    return equi_linear(p.with_tensor(merged), leaves[f"{name}.wo"])


# ---------------------------------------------------------------------------
# pointwise magnitude activation and dropout (patch domain)
# ---------------------------------------------------------------------------

def crelu_ab(p: PatchStack, a: ct.CTensor, b: ct.CTensor) -> PatchStack:
    """ReLU(a|z| + b) e^{i theta} with learnable per-channel a, b."""
    a, b = (ct.expand(ct.reshape(v, (1, v.shape[0])), 0, len(p.orders)) for v in (a, b))
    mag = ct.relu(ct.add(ct.mul(ct.magnitude(p.tensor), a), b))
    return p.with_tensor(ct.with_magnitude(p.tensor, mag))


def magnitude_dropout(p: PatchStack, rate: float, rng: np.random.Generator,
                      train: bool) -> PatchStack:
    """Elementwise dropout on magnitudes; one mask shared by all streams."""
    if not train or rate == 0.0:
        return p
    b, _, n, d = p.shape
    mask = (rng.random((b, n, d)) >= rate).astype(np.float64) / (1.0 - rate)
    return p.with_tensor(ct.mul(p.tensor, ct.CTensor(mask.reshape(b, 1, n, d))))


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------

def _complex_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    # per-component sigma 1/sqrt(2 d_in) so E|w|^2 = 1/d_in
    s = 1.0 / np.sqrt(2.0 * d_in)
    return (rng.standard_normal((d_in, d_out)) + 1j * rng.standard_normal((d_in, d_out))) * s


class EncoderBlock:
    """Pre-norm transformer block: p + MSA(LN(p)), then + MLP(LN(.)).

    The MLP is equi_linear -> C-ReLU(a, b) on magnitudes -> equi_linear.
    Dropout acts on sublayer outputs (magnitude masks) in train mode.
    """

    def __init__(self, name: str, d: int, heads: int, grid_shape: tuple,
                 rng: np.random.Generator, strategy: str = "harmformer_default",
                 rpe_on: bool = True, keep_phase: bool = True, mlp_ratio: int = 2,
                 num_buckets: int = 16, dropout: float = 0.0, norm_mode: str = "std",
                 head_dim: int | None = None):
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown mixing strategy {strategy!r}; valid: {STRATEGIES}")
        if head_dim is None:
            if d % heads:
                raise ConfigError(f"patch dim {d} not divisible by {heads} heads")
            head_dim = d // heads
        self.name = name
        self.d = d
        self.heads = heads
        self.head_dim = head_dim
        self.strategy = strategy
        self.keep_phase = keep_phase
        self.dropout = dropout
        self.norm_mode = norm_mode
        hidden = mlp_ratio * d
        proj = heads * head_dim
        self.params = {
            f"{name}.wq": _complex_init(rng, d, proj),
            f"{name}.wk": _complex_init(rng, d, proj),
            f"{name}.wv": _complex_init(rng, d, proj),
            f"{name}.wo": _complex_init(rng, proj, d),
            f"{name}.mlp.w1": _complex_init(rng, d, hidden),
            f"{name}.mlp.w2": _complex_init(rng, hidden, d),
            f"{name}.mlp.a": np.ones(hidden),
            f"{name}.mlp.b": np.zeros(hidden),
        }
        self.rpe = RpeTable(f"{name}.rpe", grid_shape, heads, num_buckets) if rpe_on else None
        if self.rpe is not None:
            self.params.update(self.rpe.params)

    def forward(self, p: PatchStack, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> PatchStack:
        attn = msa_forward(he_layer_norm(p, mode=self.norm_mode), leaves, self.name,
                           self.heads, self.strategy, self.rpe, self.keep_phase,
                           self.head_dim)
        if self.dropout > 0.0:
            if rng is None and train:
                raise ConfigError("dropout requires an rng in train mode")
            attn = magnitude_dropout(attn, self.dropout, rng, train)
        x = stack_add(p, attn)
        h = he_layer_norm(x, mode=self.norm_mode)
        h = equi_linear(h, leaves[f"{self.name}.mlp.w1"])
        h = crelu_ab(h, leaves[f"{self.name}.mlp.a"], leaves[f"{self.name}.mlp.b"])
        h = equi_linear(h, leaves[f"{self.name}.mlp.w2"])
        if self.dropout > 0.0:
            h = magnitude_dropout(h, self.dropout, rng, train)
        return stack_add(x, h)


class Encoder:
    """Stack of encoder blocks sharing one grid shape."""

    def __init__(self, name: str, blocks: int, d: int, heads: int, grid_shape: tuple,
                 rng: np.random.Generator, **block_kw):
        self.blocks = [EncoderBlock(f"{name}.blk{i}", d, heads, grid_shape, rng, **block_kw)
                       for i in range(blocks)]
        self.params = {}
        for b in self.blocks:
            self.params.update(b.params)

    def forward(self, p: PatchStack, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> PatchStack:
        for b in self.blocks:
            p = b.forward(p, leaves, train, rng)
        return p
