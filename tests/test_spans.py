"""The benchmark's span list names attributes that exist in the package.

perfbench/spans.py times layers by swapping module and class attributes; a
renamed function would otherwise surface only as a KeyError at trace time.
The module is imported, and installed only around one train step.
"""

import importlib.util
from pathlib import Path

import numpy as np

import harmnet.ctensor as ct
import harmnet.model as hm
import harmnet.training as tr
from configs import tiny_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_is_an_attribute_of_its_owner():
    spans = _load_spans()
    assert spans.LAYERS
    missing = [name for name, owner, attr, _ in spans.LAYERS if attr not in owner.__dict__]
    assert missing == []


def test_tracer_observes_a_train_step_and_restores_every_attribute():
    # the benchmark's observers read the tape and the conv operands; a change
    # to the node format or to conv2d's arguments must not blind them
    spans = _load_spans()
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in spans.LAYERS]
    # tiny_config's one conv is a lifting conv, which is a tap GEMM; a
    # second conv per block runs through conv2d
    config = tiny_config()
    config["stem"]["convs_per_block"] = 2
    model = hm.build(config, seed=0)
    x = ct.make_rng(1).random((2, 1, model.input_size, model.input_size)).astype(np.float32)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tape = ct.GradTape()
        logits = model.forward(x, model.leaves(tape), train=True, rng=ct.make_rng(2))
        ct.backward(tape, tr.cross_entropy(logits, np.array([0, 2])))
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters["backward.tape_nodes"] == len(tape.nodes) > 0
    assert counters["conv2d.bytes_in"] > 0 and counters["conv2d.bytes_out"] > 0
    assert counters["conv2d.elements_out"] > 0
    assert sum(v for k, v in counters.items() if k.startswith("conv2d.dtype.")) > 0
    assert [(o, a) for o, a, f in originals if o.__dict__[a] is not f] == []
