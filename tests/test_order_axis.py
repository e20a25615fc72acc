"""One order axis: rotation-order streams travel as a single plain tensor.

Every order-wise layer acts on the whole (B, O, ...) tensor with the same
ops whatever O is, so recording it on a tape adds as many nodes over three
orders as over one; the harmonic convolution synthesizes its kernel for
every order pair in one batch.  Attention takes all three orders only, so
its node counts are pinned over three: each strategy records one GEMM per
group of scored pairs (mixing_all has 5 groups for its 9 pairs), not one
per pair.  Each layer that owns an order set checks the order axis against it.
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
    """A tracked (2, O, c, hw, hw) tensor of streams over `orders`."""
    rng = ct.make_rng(len(orders))
    return tape.leaf(crandn(rng, 2, len(orders), c, hw, hw))


def patch_stack(tape, orders, d=4):
    """A tracked (2, O, 4, d) tensor of patch matrices over `orders`."""
    rng = ct.make_rng(len(orders))
    return tape.leaf(crandn(rng, 2, len(orders), 4, d))


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
        blk = enc.EncoderBlock("blk", 4, 2, (2, 2), ct.make_rng(2), strategy=strategy,
                               head_dim=2)
        p, leaves = patch_stack(tape, orders), tracked(tape, blk.params)
        return lambda: enc.msa_forward(p, leaves, "blk", 2, strategy, blk.rpe)
    return build


# the stem's and encoder's order-wise steps; "layer_norm_streams",
# "residual_add", "avg_pool_streams" and "stack_add" name the stem's layer
# norm, residual and pooling and the encoder's residual, which run as
# hs.normalize_over, ct.add and ct.avg_pool2 on the whole tensor
LAYERS = {
    "harmonic_conv": conv,
    "hbn_crelu_train": norm(hs.hbn_crelu, True),
    "hbn_crelu_eval": norm(hs.hbn_crelu, False),
    "legacy_cbn_train": norm(hs.legacy_cbn, True),
    "legacy_cbn_eval": norm(hs.legacy_cbn, False),
    "legacy_crelu": legacy_crelu,
    "layer_norm_streams": on_map(lambda x: hs.normalize_over(x, (3, 4))),
    "residual_add": on_map(lambda x: ct.add(x, x)),
    "avg_pool_streams": on_map(ct.avg_pool2),
    "channel_dropout": on_map(lambda x: hs.channel_dropout(x, 0.5, ct.make_rng(3), True)),
    "patchify": on_map(enc.patchify),
    "equi_linear": equi_linear,
    "he_layer_norm_std": on_stack(enc.he_layer_norm),
    "he_layer_norm_rms": on_stack(lambda p: enc.he_layer_norm(p, mode="rms")),
    "crelu_ab": crelu_ab,
    "magnitude_dropout": on_stack(lambda p: enc.magnitude_dropout(p, 0.5, ct.make_rng(3), True)),
    "stack_add": on_stack(lambda p: ct.add(p, p)),
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


# nodes one attention call records over three orders: 28 with one group of
# scored pairs (the count over one order was the same), 64 for mixing_all's 5;
# q, k and v take 5 (concatenated weights, one GEMM, three narrows)
ATTENTION_NODES = {"msa_harmformer_default": 28, "msa_cross_values": 28, "msa_mixing_all": 64}


@pytest.mark.parametrize("name", sorted(ATTENTION_NODES))
def test_attention_tape_nodes_are_pinned(name):
    assert nodes_added(msa(name.removeprefix("msa_")), THREE) == ATTENTION_NODES[name]


def test_bank_nodes_do_not_grow_with_connections():
    # a bank's coefficients are two stacked leaves whatever its connection
    # count, so its leaves plus its kernel block add a fixed number of nodes
    counts = {}
    for in_orders, filter_orders in (((0,), (0,)), ((0,), hs.ALL_FILTER_ORDERS),
                                     (THREE, hs.ALL_FILTER_ORDERS)):
        bank = hs.HarmonicFilterBank("hc", in_orders, THREE, 2, 2, 3, ct.make_rng(0),
                                     filter_orders=filter_orders)
        tape = ct.GradTape()
        bank.kernel_block(tracked(tape, bank.params))
        counts[len(bank.connections)] = len(tape.nodes)
    assert sorted(counts) == [1, 3, 9]
    assert len(set(counts.values())) == 1, counts


def test_embed_orders_nodes_do_not_grow_with_orders():
    # completing the lifted image's lone order 0 to all three; identity when
    # already full
    assert nodes_added(on_map(hs.embed_orders), ONE) > 0
    assert nodes_added(on_map(hs.embed_orders), THREE) == 0


def test_embed_orders_places_streams_and_zero_fills():
    rng = ct.make_rng(4)
    lone = crandn(rng, 1, 1, 2, 2, 2)
    full = hs.embed_orders(ct.CTensor(lone))
    assert full.shape == (1, len(hs.ORDERS), 2, 2, 2)
    assert np.array_equal(full.data[:, hs.ORDERS.index(0)], lone[:, 0])
    assert np.all(full.data[:, hs.ORDERS.index(-1)] == 0)
    assert np.all(full.data[:, hs.ORDERS.index(1)] == 0)


def conv_input(orders, shape):
    """A bank over `orders` run on a zero input of `shape`."""
    bank = hs.HarmonicFilterBank("hc", orders, THREE, 2, 2, 3, ct.make_rng(0))
    return lambda: hs.harmonic_conv(ct.CTensor(np.zeros(shape, np.complex128)), bank,
                                    tracked(ct.GradTape(), bank.params))


def norm_input(layer, train, o):
    """A norm over all three orders run on O = o streams."""
    state = hs.HBatchNormState("bn", 2)
    x = ct.CTensor(crandn(ct.make_rng(8), 2, o, 2, 3, 3))
    return lambda: layer(x, state, tracked(ct.GradTape(), state.params), train)


def msa_input(o):
    """Attention run on (2, O, 4, 4) matrices with O = o."""
    blk = enc.EncoderBlock("blk", 4, 2, (2, 2), ct.make_rng(2), head_dim=2)
    p = ct.CTensor(crandn(ct.make_rng(9), 2, o, 4, 4))
    return lambda: enc.msa_forward(p, tracked(ct.GradTape(), blk.params), "blk", 2,
                                   rpe=blk.rpe)


# a layer run on an order axis its owner (bank, norm state, ORDERS) rejects
ORDER_MISMATCHES = {
    "harmonic_conv_one_into_three": conv_input(THREE, (1, 1, 2, 6, 6)),
    "harmonic_conv_three_into_one": conv_input(ONE, (1, 3, 2, 6, 6)),
    "harmonic_conv_no_order_axis": conv_input(THREE, (1, 2, 6, 6)),
    "hbn_crelu_train": norm_input(hs.hbn_crelu, True, 1),
    "hbn_crelu_eval": norm_input(hs.hbn_crelu, False, 2),
    "legacy_cbn_train": norm_input(hs.legacy_cbn, True, 2),
    "legacy_cbn_eval": norm_input(hs.legacy_cbn, False, 1),
    "msa_forward_one": msa_input(1),
    "msa_forward_two": msa_input(2),
    "embed_orders_two": lambda: hs.embed_orders(ct.CTensor(np.zeros((1, 2, 1, 2, 2), complex))),
}


@pytest.mark.parametrize("name", sorted(ORDER_MISMATCHES))
def test_order_axis_must_match_its_owner(name):
    with pytest.raises(ShapeError, match="order"):
        ORDER_MISMATCHES[name]()


def test_shared_parameter_gradients_match_separate_uses():
    # one weight broadcast over a stacked order axis has bit-identical
    # gradients to the same weight applied to each order separately, with
    # the uses recorded last order first: the reverse sweep then sums their
    # gradients in ascending order, as it sums a broadcast operand's
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
    for i in reversed(range(3)):
        term = loss(ct.complex_matmul(ct.CTensor(x[:, i]), leaf), t[:, i])
        total = term if total is None else ct.add(total, term)
    separate = ct.backward(tape, total)["w"]

    tape = ct.GradTape()
    y = enc.equi_linear(ct.CTensor(x), tape.parameter("w", w))
    stacked = ct.backward(tape, loss(y, t))["w"]
    assert np.array_equal(stacked, separate)


def magnitude_softmax(tape, orders):
    s = tape.leaf(crandn(ct.make_rng(7), 2, len(orders), 4, 4))
    return lambda: enc.magnitude_softmax(s)


# nodes each magnitude layer records: one magnitude_map, after a (C, 1, 1)
# reshape per shared stem parameter (crelu_ab's (d,) parameters broadcast as
# they are), or after the complex centering of the layer norms (a
# tape-composed real path recorded 6 to 17)
MAGNITUDE_LAYER_NODES = {
    "hbn_crelu_train": 3, "hbn_crelu_eval": 3, "legacy_cbn_train": 3,
    "legacy_cbn_eval": 3, "legacy_crelu": 2, "crelu_ab": 1, "magnitude_softmax": 1,
    "layer_norm_streams": 3, "he_layer_norm_std": 3, "he_layer_norm_rms": 3,
}


@pytest.mark.parametrize("name", sorted(MAGNITUDE_LAYER_NODES))
def test_magnitude_layers_record_one_phase_node(name):
    build = {**LAYERS, "magnitude_softmax": magnitude_softmax}[name]
    assert nodes_added(build, THREE) == MAGNITUDE_LAYER_NODES[name]
