"""Equivariant transformer encoder over rotation-order patch matrices.

The stem output is reshaped into one plain (B, O, n, d) tensor: an (n x d)
complex matrix per rotation order in hs.ORDERS, its n = h*w rows the patches
in row-major grid order.  Rotating the source image by 90 degrees acts on
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
from .errors import ConfigError, ShapeError

# the (m_q, m_k) order pairs each strategy's attention score sums over
SCORED_PAIRS = {"harmformer_default": lambda mq, mk: mq == mk,
                "mixing_all": lambda mq, mk: True,
                "cross_values": lambda mq, mk: mq == mk == 0}
STRATEGIES = tuple(SCORED_PAIRS)
NORM_MODES = ("std", "rms")


def patchify(x: ct.CTensor) -> ct.CTensor:
    """(B, O, C, H, W) streams -> (B, O, H*W, C) matrices, rows in row-major order."""
    b, o, c, h, w = x.shape
    return ct.reshape(ct.transpose(x, (0, 1, 3, 4, 2)), (b, o, h * w, c))


def equi_linear(p: ct.CTensor, w: ct.CTensor) -> ct.CTensor:
    """One shared weight matrix applied independently to every order stream:
    the 2-D weight broadcasts over the batch and order axes, and the reverse
    sweep sums its gradient over them.

    No additive bias: a constant bias on a nonzero-order stream would break
    the phase law (biases live in the magnitude activations instead).
    """
    if w.shape[0] != p.shape[-1]:
        raise ShapeError(f"weight rows {w.shape[0]} != patch dim {p.shape[-1]}")
    return ct.complex_matmul(p, w)


def he_layer_norm(p: ct.CTensor, mode: str = "std") -> ct.CTensor:
    """Per order, per channel: subtract the complex mean over patches, then
    divide by sigma + EPS (`constants.EPS`).

    mode "std" (default): sigma is the standard deviation over patches of the
    magnitudes of the centered values.  mode "rms": sigma is the root mean
    square of those magnitudes.  No learnable affine.
    """
    if p.shape[2] < 2:
        raise ShapeError("layer norm needs at least 2 patches")
    if mode not in NORM_MODES:
        raise ConfigError(f"unknown layer-norm mode {mode!r}")
    return hs.normalize_over(p, 2, mode)


def magnitude_softmax(s: ct.CTensor, rpe_bias: ct.CTensor | None = None,
                      keep_phase: bool = True) -> ct.CTensor:
    """Row softmax over |s| + bias as new magnitudes, one phase-keeping tape
    node.  With keep_phase false the phases are dropped first: s becomes
    the complex tensor |s|, whose phase is 0, so the result is the real
    softmax of |s| + bias held as complex.  Row magnitude sums are 1.  The
    bias broadcasts against the trailing axes of s."""
    if rpe_bias is not None and rpe_bias.shape != s.shape[s.data.ndim - rpe_bias.data.ndim:]:
        raise ShapeError(f"rpe bias shape {rpe_bias.shape} does not end attention {s.shape}")
    bias = () if rpe_bias is None else (rpe_bias,)
    if not keep_phase:
        s = ct.astype(ct.magnitude(s), s.data.dtype)

    def forward(mag, *rpe):
        # the shift, the exp and the normalization all run in one buffer
        w = mag + rpe[0] if rpe else mag.copy()
        w -= np.max(w, axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        return w, ()

    def backward(gr, mag, w, _):
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


def msa_forward(p: ct.CTensor, leaves: dict, name: str, heads: int,
                strategy: str = "harmformer_default", rpe: RpeTable | None = None,
                keep_phase: bool = True) -> ct.CTensor:
    """Self-attention with order-aware stream mixing over (B, O, n, d)
    matrices, O = len(hs.ORDERS), all heads batched, then heads
    concatenated and linearly projected.

    The Q, K, V weights (d, heads*d_h) set the per-head width d_h and are
    applied as one concatenated (d, 3*heads*d_h) weight, one GEMM; the
    output projection maps heads*d_h back to d, so the per-head width is
    independent of the model width.  Each group of scored pairs is one
    softmax, which keeps phase when m_d != 0 (the group's order lives in
    it), and carries a run of value orders."""
    n_o = len(hs.ORDERS)
    if p.data.ndim != 4 or p.shape[1] != n_o:
        raise ShapeError(f"expected (B, {n_o}, n, d) matrices over orders {hs.ORDERS}, "
                         f"got {p.shape}")
    width = leaves[f"{name}.wq"].shape[-1]
    if width % heads:
        raise ShapeError(f"{name}: Q/K/V width {width} is not divisible by {heads} heads")
    # one GEMM by [wq | wk | wv], narrowed into q, k and v
    qkv = equi_linear(p, ct.concat([leaves[f"{name}.w{x}"] for x in "qkv"], axis=-1))
    qf, kf, vf = (fold_orders(ct.narrow(qkv, -1, j * width, width), heads) for j in range(3))
    del qkv     # the folds are copies, so attention need not hold the product
    d_h = qf.shape[-1] // n_o
    qf = ct.mul(qf, ct.CTensor(np.asarray(1.0 / np.sqrt(d_h), np.finfo(qf.data.dtype).dtype)))
    bias = rpe.bias_matrix(leaves) if rpe is not None else None
    out = None
    for md, (iq, ik, count, iv, io, n_v) in score_groups(strategy, hs.ORDERS).items():
        a = magnitude_softmax(group_score(qf, kf, d_h, iq, ik, count), bias, keep_phase or md != 0)
        t = ct.complex_matmul(a, ct.narrow(vf, -1, iv * d_h, n_v * d_h))
        left, right = (ct.CTensor(np.zeros(t.shape[:-1] + (w * d_h,), t.data.dtype))
                       for w in (io, n_o - io - n_v))   # the other output slots
        t = ct.concat([left, t, right], axis=-1)
        out = t if out is None else ct.add(out, t)
    return equi_linear(fold_orders(out, n_o), leaves[f"{name}.wo"])


# ---------------------------------------------------------------------------
# pointwise magnitude activation and dropout (patch domain)
# ---------------------------------------------------------------------------

def crelu_ab(p: ct.CTensor, a: ct.CTensor, b: ct.CTensor) -> ct.CTensor:
    """ReLU(a|z| + b) e^{i theta} with learnable per-channel a, b (d,),
    shared by every order: they broadcast over the (B, O, n, d) tensor."""
    def forward(mag, a, b):
        r = mag * a
        r += b
        return np.maximum(r, 0, out=r), (a,)

    def backward(gr, mag, r, saved):
        gy = gr * (r > 0)
        return gy * saved[0], gy * mag, gy

    return ct.magnitude_map(p, (a, b), forward, backward)


def magnitude_dropout(p: ct.CTensor, rate: float, rng: np.random.Generator,
                      train: bool) -> ct.CTensor:
    """Elementwise dropout on magnitudes; one mask shared by all streams."""
    if not train or rate == 0.0:
        return p
    b, _, n, d = p.shape
    real = np.finfo(p.data.dtype).dtype
    mask = (rng.random((b, n, d)) >= rate).astype(real) / (1.0 - rate)
    return ct.mul(p, ct.CTensor(mask.reshape(b, 1, n, d)))


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------

def _complex_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    # per-component sigma 1/sqrt(2 d_in) so E|w|^2 = 1/d_in
    s = 1.0 / np.sqrt(2.0 * d_in)
    return (rng.standard_normal((d_in, d_out)) + 1j * rng.standard_normal((d_in, d_out))) * s


class EncoderBlock:
    """Pre-norm transformer block: p + MSA(LN(p)), then + MLP(LN(.)).

    Attention runs `heads` heads of width head_dim.  The MLP is equi_linear
    -> C-ReLU(a, b) on magnitudes -> equi_linear.  Dropout acts on sublayer
    outputs (magnitude masks) in train mode.
    """

    def __init__(self, name: str, d: int, heads: int, grid_shape: tuple,
                 rng: np.random.Generator, strategy: str = "harmformer_default",
                 rpe_on: bool = True, keep_phase: bool = True, mlp_ratio: int = 2,
                 num_buckets: int = 16, dropout: float = 0.0, norm_mode: str = "std",
                 *, head_dim: int):
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown mixing strategy {strategy!r}; valid: {STRATEGIES}")
        self.name = name
        self.heads = heads
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

    def forward(self, p: ct.CTensor, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> ct.CTensor:
        attn = msa_forward(he_layer_norm(p, mode=self.norm_mode), leaves, self.name,
                           self.heads, self.strategy, self.rpe, self.keep_phase)
        if self.dropout > 0.0:
            if rng is None and train:
                raise ConfigError("dropout requires an rng in train mode")
            attn = magnitude_dropout(attn, self.dropout, rng, train)
        x = ct.add(p, attn)
        h = he_layer_norm(x, mode=self.norm_mode)
        h = equi_linear(h, leaves[f"{self.name}.mlp.w1"])
        h = crelu_ab(h, leaves[f"{self.name}.mlp.a"], leaves[f"{self.name}.mlp.b"])
        h = equi_linear(h, leaves[f"{self.name}.mlp.w2"])
        if self.dropout > 0.0:
            h = magnitude_dropout(h, self.dropout, rng, train)
        return ct.add(x, h)


class Encoder:
    """Stack of encoder blocks sharing one grid shape."""

    def __init__(self, name: str, blocks: int, d: int, heads: int, grid_shape: tuple,
                 rng: np.random.Generator, **block_kw):
        self.blocks = [EncoderBlock(f"{name}.blk{i}", d, heads, grid_shape, rng, **block_kw)
                       for i in range(blocks)]
        self.params = {k: v for b in self.blocks for k, v in b.params.items()}

    def forward(self, p: ct.CTensor, leaves: dict, train: bool = False,
                rng: np.random.Generator | None = None) -> ct.CTensor:
        for b in self.blocks:
            p = b.forward(p, leaves, train, rng)
        return p
