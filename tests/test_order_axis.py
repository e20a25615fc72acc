"""One order axis: rotation-order streams travel as a single tensor.

Every order-wise layer acts on the whole (B, O, ...) tensor with the same
ops whatever O is, so recording it on a tape adds as many nodes over three
orders as over one; the harmonic convolution synthesizes its kernel for
every order pair in one batch.  Exempt by design: mixing_all, whose tape grows
with its groups of scored pairs (5 over three orders, 1 over one), each one
GEMM over folded orders, and not with its 9 pairs.
"""

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.encoder as enc
import harmnet.head as hd
import harmnet.stem as hs
from harmnet.errors import ShapeError

ONE, THREE = (0,), hs.ORDERS


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def feature_map(tape, orders, c=2, hw=4):
    rng = ct.make_rng(len(orders))
    return hs.StreamedFeatureMap(tape.leaf(crandn(rng, 2, len(orders), c, hw, hw)), orders)


def patch_stack(tape, orders, d=4):
    rng = ct.make_rng(len(orders))
    return enc.PatchStack(tape.leaf(crandn(rng, 2, len(orders), 4, d)), orders, (2, 2))


def tracked(tape, params):
    return {k: tape.parameter(k, v) for k, v in params.items()}


def conv(tape, orders):
    bank = hs.HarmonicFilterBank("hc", orders, orders, 2, 2, 3, ct.make_rng(0))
    x, leaves = feature_map(tape, orders), tracked(tape, bank.params)
    return lambda: hs.harmonic_conv(x, bank, leaves)


def norm(layer, train):
    def build(tape, orders):
        state = hs.HBatchNormState("bn", 2, orders=orders)
        x, leaves = feature_map(tape, orders), tracked(tape, state.params)
        return lambda: layer(x, state, leaves, train)
    return build


def legacy_crelu(tape, orders):
    x, bias = feature_map(tape, orders), tape.parameter("bias", np.full(2, 0.1))
    return lambda: hs.legacy_crelu(x, bias)


def on_map(fn):
    def build(tape, orders):
        x = feature_map(tape, orders)
        return lambda: fn(x)
    return build


def on_stack(fn):
    def build(tape, orders):
        p = patch_stack(tape, orders)
        return lambda: fn(p)
    return build


def equi_linear(tape, orders):
    p, w = patch_stack(tape, orders), tape.parameter("w", crandn(ct.make_rng(1), 4, 3))
    return lambda: enc.equi_linear(p, w)


def crelu_ab(tape, orders):
    p = patch_stack(tape, orders)
    a, b = tape.parameter("a", np.ones(4)), tape.parameter("b", np.full(4, -0.1))
    return lambda: enc.crelu_ab(p, a, b)


def msa(strategy):
    def build(tape, orders):
        blk = enc.EncoderBlock("blk", 4, 2, (2, 2), ct.make_rng(2), strategy=strategy)
        p, leaves = patch_stack(tape, orders), tracked(tape, blk.params)
        return lambda: enc.msa_forward(p, leaves, "blk", 2, strategy, blk.rpe)
    return build


LAYERS = {
    "harmonic_conv": conv,
    "hbn_crelu_train": norm(hs.hbn_crelu, True),
    "hbn_crelu_eval": norm(hs.hbn_crelu, False),
    "legacy_cbn_train": norm(hs.legacy_cbn, True),
    "legacy_cbn_eval": norm(hs.legacy_cbn, False),
    "legacy_crelu": legacy_crelu,
    "layer_norm_streams": on_map(hs.layer_norm_streams),
    "residual_add": on_map(lambda x: hs.residual_add(x, x)),
    "avg_pool_streams": on_map(hs.avg_pool_streams),
    "channel_dropout": on_map(lambda x: hs.channel_dropout(x, 0.5, ct.make_rng(3), True)),
    "patchify": on_map(enc.patchify),
    "unpatchify": on_stack(enc.unpatchify),
    "equi_linear": equi_linear,
    "he_layer_norm_std": on_stack(enc.he_layer_norm),
    "he_layer_norm_rms": on_stack(lambda p: enc.he_layer_norm(p, mode="rms")),
    "crelu_ab": crelu_ab,
    "magnitude_dropout": on_stack(lambda p: enc.magnitude_dropout(p, 0.5, ct.make_rng(3), True)),
    "stack_add": on_stack(lambda p: enc.stack_add(p, p)),
    "msa_harmformer_default": msa("harmformer_default"),
    "msa_cross_values": msa("cross_values"),
    "invariant_readout": on_stack(hd.invariant_readout),
}


def nodes_added(build, orders) -> int:
    tape = ct.GradTape()
    thunk = build(tape, orders)
    before = len(tape.nodes)
    thunk()
    return len(tape.nodes) - before


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_tape_nodes_do_not_grow_with_orders(name):
    one, three = nodes_added(LAYERS[name], ONE), nodes_added(LAYERS[name], THREE)
    assert one > 0
    assert one == three, (name, one, three)


def test_embed_orders_nodes_do_not_grow_with_orders():
    # completing a partial order set to all three; identity when already full
    counts = {orders: nodes_added(on_map(hs.embed_orders), orders)
              for orders in ((0,), (-1, 1), (0, 1))}
    assert len(set(counts.values())) == 1 and 0 not in counts.values(), counts
    assert nodes_added(on_map(hs.embed_orders), THREE) == 0


def test_embed_orders_places_streams_and_zero_fills():
    rng = ct.make_rng(4)
    part = {m: crandn(rng, 1, 2, 2, 2) for m in (-1, 1)}
    full = hs.embed_orders(hs.StreamedFeatureMap.from_streams(part))
    assert full.orders == hs.ORDERS
    for m in (-1, 1):
        assert np.array_equal(full.stream(m).data, part[m])
    assert np.all(full.stream(0).data == 0)


def test_stream_accessor_and_constructor_agree():
    rng = ct.make_rng(5)
    arrays = {m: crandn(rng, 2, 3, 4) for m in hs.ORDERS}
    p = enc.PatchStack.from_streams(arrays, (3, 1))
    assert p.shape == (2, 3, 3, 4) and p.orders == hs.ORDERS
    for i, m in enumerate(hs.ORDERS):
        assert np.array_equal(p.stream(m).data, arrays[m])
        assert np.array_equal(p.tensor.data[:, i], arrays[m])


def test_order_axis_rejects_bad_layouts():
    with pytest.raises(ShapeError):
        hs.StreamedFeatureMap(ct.CTensor(np.zeros((1, 2, 1, 2, 2))), (0,))
    with pytest.raises(ShapeError):
        hs.StreamedFeatureMap(ct.CTensor(np.zeros((1, 2, 1, 2, 2))), (1, 0))
    with pytest.raises(ShapeError):
        hs.StreamedFeatureMap(ct.CTensor(np.zeros((1, 1, 1, 2, 2))), (2,))
    with pytest.raises(ShapeError):
        enc.PatchStack(ct.CTensor(np.zeros((1, 1, 3, 2))), (0,), (2, 2))
    with pytest.raises(ShapeError):
        hs.StreamedFeatureMap.from_streams({0: np.zeros((1, 1, 2, 2)), 1: np.zeros((1, 2, 2, 2))})


def test_shared_parameter_gradients_match_separate_uses():
    # one weight applied to a stacked order axis has bit-identical gradients
    # to the same weight applied to each order separately
    rng = ct.make_rng(6)
    x = crandn(rng, 2, 3, 5, 4).astype(np.complex64)
    w = crandn(rng, 4, 3).astype(np.complex64)
    t = crandn(rng, 2, 3, 5, 3)

    def loss(y, target):
        dm = ct.magnitude(ct.sub(y, ct.CTensor(target)))
        return ct.sum_(ct.mul(dm, dm))

    tape = ct.GradTape()
    leaf = tape.parameter("w", w)
    total = None
    for i in range(3):
        term = loss(ct.complex_matmul(ct.CTensor(x[:, i]), leaf), t[:, i])
        total = term if total is None else ct.add(total, term)
    separate = ct.backward(tape, total)["w"]

    tape = ct.GradTape()
    p = enc.PatchStack(ct.CTensor(x), hs.ORDERS, (5, 1))
    y = enc.equi_linear(p, tape.parameter("w", w))
    stacked = ct.backward(tape, loss(y.tensor, t))["w"]
    assert np.array_equal(stacked, separate)


def magnitude_softmax(tape, orders):
    s = tape.leaf(crandn(ct.make_rng(7), 2, len(orders), 4, 4))
    return lambda: enc.magnitude_softmax(s)


# nodes each magnitude layer records: one magnitude_map, after a reshape and
# an expand per shared parameter, or after the complex centering of the layer
# norms (a tape-composed real path recorded 6 to 17)
MAGNITUDE_LAYER_NODES = {
    "hbn_crelu_train": 5, "hbn_crelu_eval": 5, "legacy_cbn_train": 5,
    "legacy_cbn_eval": 5, "legacy_crelu": 3, "crelu_ab": 5, "magnitude_softmax": 1,
    "layer_norm_streams": 3, "he_layer_norm_std": 3, "he_layer_norm_rms": 3,
}


@pytest.mark.parametrize("name", sorted(MAGNITUDE_LAYER_NODES))
def test_magnitude_layers_record_one_phase_node(name):
    build = {**LAYERS, "magnitude_softmax": magnitude_softmax}[name]
    assert nodes_added(build, THREE) == MAGNITUDE_LAYER_NODES[name]
