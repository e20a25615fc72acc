"""Per-layer spans recorded by wrappers installed from outside the program.

Every harmnet module reaches its collaborators through module or class
attributes (``ct.conv2d``, ``hz.predict``, ``Model.forward``), so replacing
those attributes with timing wrappers records each call without touching
the package's source.  Spans (name, start, end, parent, request id) stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from harmnet import ctensor as ct
from harmnet import data as hdata
from harmnet import encoder as enc
from harmnet import harness as hz
from harmnet import head as hd
from harmnet import model as hm
from harmnet import stem as hs
from harmnet import training as tr

ROOT = "bench.op"


def _conv2d_bytes(counters, args, kwargs, out):
    # computed from operand shapes and dtypes, not measured memory traffic
    x = args[0]
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    counters["conv2d.bytes_in"] += x.data.nbytes + kernel.data.nbytes
    counters["conv2d.bytes_out"] += out.data.nbytes
    counters["conv2d.elements_out"] += out.data.size
    counters[f"conv2d.dtype.{out.data.dtype.name}"] += 1


def _tape_nodes(counters, args, kwargs, out):
    counters["backward.tape_nodes"] += len(args[0].nodes)


# (layer name, owner, attribute, observer called with the call's result)
LAYERS = (
    ("ctensor.conv2d", ct, "conv2d", _conv2d_bytes),
    ("ctensor.backward", ct, "backward", _tape_nodes),
    ("stem.kernel_block", hs.HarmonicFilterBank, "kernel_block", None),
    ("stem.forward", hs.Stem, "forward", None),
    ("encoder.forward", enc.Encoder, "forward", None),
    ("encoder.msa_forward", enc, "msa_forward", None),
    ("head.forward", hd.Head, "forward", None),
    ("model.forward", hm.Model, "forward", None),
    ("model.load", hm, "load", None),
    ("data.rotate_image", hdata, "rotate_image", None),
    ("data.preprocess", hdata, "preprocess", None),
    ("harness.predict", hz, "predict", None),
    ("harness.verify_all_lemmas", hz, "verify_all_lemmas", None),
    ("training.adamw_step", tr, "adamw_step", None),
    ("training.cross_entropy", tr, "cross_entropy", None),
    ("training.error_rate", tr, "error_rate", None),
)

SPAN_NAMES = (ROOT,) + tuple(layer[0] for layer in LAYERS)


class Tracer:
    """Span recorder; `install` swaps in the wrappers, `uninstall` restores."""

    def __init__(self):
        self.spans = []            # [name, start_ns, end_ns, parent index, request id]
        self.counters = defaultdict(float)
        self.request = "setup"
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for name, owner, attr, observe in LAYERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), None,
                  self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self.counters, args, kwargs, out)
            return out
        return traced

    def root(self, request: str, op):
        """Run one benchmark operation as the root span of its request."""
        self.request = request
        record = self._open(ROOT)
        try:
            return op()
        finally:
            self._close(record)

    def layer_totals(self, setup: bool) -> dict:
        """name -> (calls, total ns, self ns) over the set-up spans or over
        the operations' spans; self time excludes the time covered by direct
        children, which never overlap (one thread)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for (name, start, end, _, request), covered in zip(self.spans, child_ns):
            if (request == "setup") != setup:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")
