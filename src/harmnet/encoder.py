"""Equivariant transformer encoder over rotation-order patch stacks.

The stem output is reshaped into one (B, O, n, d) tensor: an (n x d) complex
matrix per rotation order.  Rotating the source image by 90 degrees acts on
each matrix as a fixed row permutation times the phase e^{i m alpha}; every
layer here commutes with that action.  Attention has one path: a strategy is the
set of order pairs (m_q, m_k) it scores; the pairs of one difference m_d = m_q - m_k
are one GEMM over folded orders, whose weights carry value order m_v to m_v + m_d.
The layer norm's scaling, the magnitude softmax and the MLP's C-ReLU change
magnitudes only, each as one `ct.magnitude_map` tape node.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import ctensor as ct
from . import stem as hs
from .constants import EPS
from .errors import ConfigError, ShapeError

# the (m_q, m_k) order pairs each strategy's attention score sums over
SCORED_PAIRS = {"harmformer_default": lambda mq, mk: mq == mk,
                "mixing_all": lambda mq, mk: True,
                "cross_values": lambda mq, mk: mq == mk == 0}
STRATEGIES = tuple(SCORED_PAIRS)
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


def magnitude_softmax(s: ct.CTensor, rpe_bias: ct.CTensor | None = None,
                      keep_phase: bool = True) -> ct.CTensor:
    """Row softmax over |s| + bias; phases pass through untouched (one
    phase-keeping tape node) or are dropped when keep_phase is false.  Row
    magnitude sums are exactly 1.  The bias broadcasts against the trailing
    axes of s."""
    if rpe_bias is not None and rpe_bias.shape != s.shape[s.data.ndim - rpe_bias.data.ndim:]:
        raise ShapeError(f"rpe bias shape {rpe_bias.shape} does not end attention {s.shape}")
    bias = () if rpe_bias is None else (rpe_bias,)
    if not keep_phase:
        mag = ct.magnitude(s)
        if bias:
            mag = ct.add(mag, rpe_bias)
        return ct.as_complex(ct.softmax(mag, axis=-1))

    def forward(mag, *rpe):
        x = mag + rpe[0] if rpe else mag
        w = np.exp(x - np.max(x, axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        return w, w

    def backward(gr, w):
        gx = gr - (gr * w).sum(axis=-1, keepdims=True)
        gx *= w
        return (gx,) * (1 + len(bias))

    return ct.magnitude_map(s, bias, forward, backward)


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

@lru_cache(maxsize=None)
def score_groups(strategy: str, orders: tuple) -> dict:
    """The strategy's scored pairs grouped by m_d = m_q - m_k, in the order of
    each group's first pair: {m_d: (iq, ik, count, iv, io, n_v)}.  A group
    scores (orders[iq + j], orders[ik + j]) for j < count; its weights have
    order m_d, so they carry value slot iv + j to output slot io + j for
    j < n_v.  Orders ascend within hs.ORDERS, so every such set is a run."""
    if strategy not in SCORED_PAIRS:
        raise ConfigError(f"unknown mixing strategy {strategy!r}; valid: {STRATEGIES}")
    pairs: dict = {}
    for iq, mq in enumerate(orders):
        for ik, mk in enumerate(orders):
            if SCORED_PAIRS[strategy](mq, mk):
                pairs.setdefault(mq - mk, []).append((iq, ik))
    if not pairs:
        raise ShapeError(f"{strategy!r} scores no pair of orders {orders}")
    carried = {md: [(iv, orders.index(m + md)) for iv, m in enumerate(orders) if m + md in orders]
               for md in pairs}
    return {md: run[0] + (len(run),) + carried[md][0] + (len(carried[md]),)
            for md, run in pairs.items()}


def fold_orders(t: ct.CTensor, k: int) -> ct.CTensor:
    """(B, A, n, k*d) -> (B, k, n, A*d): with A orders and k heads, a run of
    orders is one slice of the last axis; with A heads and k orders, the inverse."""
    b, a, n, kd = t.shape
    t = ct.transpose(ct.reshape(t, (b, a, n, k, kd // k)), (0, 3, 2, 1, 4))
    return ct.reshape(t, (b, k, n, a * (kd // k)))


def group_score(qf: ct.CTensor, kf: ct.CTensor, d_h: int, iq: int, ik: int,
                count: int) -> ct.CTensor:
    """sum_j Q_{iq+j} K_{ik+j}^H over folded queries and keys, as one GEMM;
    orders subtract, so the score has the order m_q - m_k of its pairs."""
    return ct.complex_matmul(ct.narrow(qf, -1, iq * d_h, count * d_h),
                             ct.conj_transpose(ct.narrow(kf, -1, ik * d_h, count * d_h)))


def msa_forward(p: PatchStack, leaves: dict, name: str, heads: int,
                strategy: str = "harmformer_default", rpe: RpeTable | None = None,
                keep_phase: bool = True, head_dim: int | None = None) -> PatchStack:
    """Self-attention with order-aware stream mixing, all heads batched, then
    heads concatenated and linearly projected.

    Each head projects to head_dim channels (Q, K, V weights are
    (d, heads*head_dim)); the output projection maps heads*head_dim back to
    d, so the per-head width is independent of the model width.  Each group
    of scored pairs is one softmax, which keeps phase when m_d != 0 (the
    group's order lives in it), and carries a run of value orders."""
    if head_dim is None and p.d % heads:
        raise ConfigError(f"patch dim {p.d} not divisible by {heads} heads")
    n_o = len(p.orders)
    qf, kf, vf = (fold_orders(equi_linear(p, leaves[f"{name}.w{x}"]).tensor, heads) for x in "qkv")
    d_h = qf.shape[-1] // n_o
    qf = ct.mul(qf, ct.CTensor(np.asarray(1.0 / np.sqrt(d_h), np.finfo(qf.data.dtype).dtype)))
    bias = rpe.bias_matrix(leaves) if rpe is not None else None
    out = None
    for md, (iq, ik, count, iv, io, n_v) in score_groups(strategy, p.orders).items():
        a = magnitude_softmax(group_score(qf, kf, d_h, iq, ik, count), bias, keep_phase or md != 0)
        t = ct.complex_matmul(a, ct.narrow(vf, -1, iv * d_h, n_v * d_h))
        left, right = (ct.CTensor(np.zeros(t.shape[:-1] + (w * d_h,), t.data.dtype))
                       for w in (io, n_o - io - n_v))   # the other output slots
        t = ct.concat([left, t, right], axis=-1)
        out = t if out is None else ct.add(out, t)
    return equi_linear(p.with_tensor(fold_orders(out, n_o)), leaves[f"{name}.wo"])


# ---------------------------------------------------------------------------
# pointwise magnitude activation and dropout (patch domain)
# ---------------------------------------------------------------------------

def crelu_ab(p: PatchStack, a: ct.CTensor, b: ct.CTensor) -> PatchStack:
    """ReLU(a|z| + b) e^{i theta} with learnable per-channel a, b."""
    def forward(mag, a, b):
        r = mag * a + b
        return np.maximum(r, 0, out=r), (r, mag, a)

    def backward(gr, saved):
        r, mag, a = saved
        gy = gr * (r > 0)
        return gy * a, gy * mag, gy

    a, b = (ct.expand(ct.reshape(v, (1, v.shape[0])), 0, len(p.orders)) for v in (a, b))
    return p.with_tensor(ct.magnitude_map(p.tensor, (a, b), forward, backward))


def magnitude_dropout(p: PatchStack, rate: float, rng: np.random.Generator,
                      train: bool) -> PatchStack:
    """Elementwise dropout on magnitudes; one mask shared by all streams."""
    if not train or rate == 0.0:
        return p
    b, _, n, d = p.shape
    real = np.finfo(p.tensor.data.dtype).dtype
    mask = (rng.random((b, n, d)) >= rate).astype(real) / (1.0 - rate)
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
        if head_dim is None and d % heads:
            raise ConfigError(f"patch dim {d} not divisible by {heads} heads")
        self.name = name
        self.heads = heads
        self.head_dim = head_dim = head_dim or d // heads
        self.strategy = strategy
        self.keep_phase = keep_phase
        self.dropout = dropout
        self.norm_mode = norm_mode
        hidden = mlp_ratio * d
        proj = heads * head_dim
        self.params = {
            **{f"{name}.w{x}": _complex_init(rng, d, proj) for x in "qkv"},
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
        self.params = {k: v for b in self.blocks for k, v in b.params.items()}

    def forward(self, p: PatchStack, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> PatchStack:
        for b in self.blocks:
            p = b.forward(p, leaves, train, rng)
        return p
