"""The benchmark's span list names attributes that exist in the package.

perfbench/spans.py times layers by swapping module and class attributes; a
renamed function would otherwise surface only as a KeyError at trace time.
The module is imported, never installed.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [name for name, owner, attr, _ in spans.LAYERS if attr not in owner.__dict__]
    assert missing == []
