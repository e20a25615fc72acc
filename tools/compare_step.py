"""One train step's forward and gradients, inference logits and the verify
report in two checkouts, compared.

    python3 tools/compare_step.py PARENT CHANGE [--seed 0] [--batch 4]

PARENT and CHANGE are two checkouts, each with its own `src/`.  In each,
a subprocess builds the seeded f32 mnist_config model, draws a seeded batch
of images and labels (4 unless --batch says otherwise; at 8, stem block
0's second conv contracts kernel-first), and runs one train step: the taped forward
(train=True, seeded dropout), the cross-entropy loss and `ct.backward`.
No optimizer step runs.  The subprocess then runs inference forwards
(`Model.forward`) of a fresh seeded model at batches 1 and 16 and the
seed's f64 verify suite (`report_json(verify_all_lemmas(seed, "f64"))`).
The tool prints whether the train step's logits are byte-identical, then
each side's tracemalloc peak over the step (measured after an untraced
warm-up step in the same subprocess, so imports and caches do not count)
and over the batch-16 inference forward (after an untraced warm-up
forward of the same batch), then whether each inference forward's logits
and the verify report are byte-identical, then each parameter gradient's
relative L2 distance ||g_change - g_parent|| / ||g_parent||, and last the
worst of those.  A change to what the tape keeps is sized by the same
command that checks its gradients, and a change to what an inference
forward allocates by the same command that checks its logits.  The
subprocesses inherit the environment: with OPENBLAS_NUM_THREADS=1, as
perfbench sets it, a batch of more than one image contracts each
convolution's frequency blocks on two threads.

This is how a change to backward rounding is judged.  The weights after a
train call are not a usable gate: AdamW turns gradient components at
rounding level into steps of +-lr, so a rounding-level change in the f32
gradients moves one epoch's weights by ~1e-4 relative.  Standard library
and numpy only.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

# images per inference forward compared, and the label of each compared
# array that is not a gradient, in report order
INFERENCE_BATCHES = (1, 16)
IDENTITIES = {f"inference/{n}": f"inference logits, batch {n}" for n in INFERENCE_BATCHES}
IDENTITIES["report"] = "verify report (f64)"
# each side's tracemalloc peaks, by key and label, in report order
PEAKS = {"peak_bytes": "step peak",
         "inference_peak_bytes": f"inference peak, batch {max(INFERENCE_BATCHES)}"}


def setup(seed: int, batch: int):
    """The seeded f32 mnist_config model, a batch of images and labels."""
    from harmnet import ctensor as ct
    from harmnet import data as hdata
    from harmnet import model as hm

    config = hm.mnist_config()
    model = hm.build(config, seed, "f32")
    inp, rng = config["input"], ct.make_rng(seed)
    raw = rng.random((batch, inp["channels"], inp["base_size"], inp["base_size"]))
    labels = rng.integers(0, config["head"]["classes"], batch)
    images = hdata.preprocess(raw.astype(np.float32), inp["pad"], inp["upscale_factor"])
    return model, images, labels


def train_step(model, images, labels, seed: int):
    """Taped forward, loss and backward: the logits and parameter gradients."""
    from harmnet import ctensor as ct
    from harmnet import training as tr

    tape = ct.GradTape()
    logits = model.forward(ct.CTensor(images), model.leaves(tape), train=True,
                           rng=ct.derive_rng(seed, "dropout"))
    grads = ct.backward(tape, tr.cross_entropy(logits, labels, tr.train_defaults()["label_smoothing"]))
    return logits.data, grads


def traced(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    out = fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, np.int64(peak)


def step(out: Path, seed: int, batch: int) -> None:
    """One seeded f32 train step with the harmnet on sys.path, after an
    untraced warm-up step on a separate model; writes its logits, its
    tracemalloc peak and every parameter gradient to `out` (.npz), with
    the inference logits of a fresh seeded model at INFERENCE_BATCHES, the
    tracemalloc peak of the largest of those forwards after an untraced
    warm-up forward of it, and the seed's f64 verify report."""
    from harmnet import harness as hz

    train_step(*setup(seed, batch), seed)
    (logits, grads), peak = traced(train_step, *setup(seed, batch), seed)
    model, images, _ = setup(seed, max(INFERENCE_BATCHES))
    model.forward(images)
    inference_peak = traced(model.forward, images)[1]
    inference = {f"inference/{n}": model.forward(images[:n]).data for n in INFERENCE_BATCHES}
    report = np.array(hz.report_json(hz.verify_all_lemmas(seed, "f64")))
    np.savez(out, logits=logits, peak_bytes=peak, inference_peak_bytes=inference_peak,
             report=report, **inference,
             **{"grad/" + k: g for k, g in grads.items() if g is not None})


def run_step(checkout: Path, out: Path, seed: int, batch: int) -> dict:
    """`step` in a fresh interpreter that imports harmnet from checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--step", str(out),
           "--seed", str(seed), "--batch", str(batch)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: train step exited {proc.returncode}:\n{proc.stderr}")
    with np.load(out) as f:
        return {k: f[k] for k in f.files}


def identity(label: str, p: np.ndarray, c: np.ndarray) -> str:
    """Whether p and c are byte-identical, with the relative L2 distance of
    numeric arrays of one shape that are not."""
    if p.dtype == c.dtype and p.tobytes() == c.tobytes():
        return f"{label}: byte-identical"
    if p.dtype.kind in "fc" and c.dtype.kind in "fc" and p.shape == c.shape:
        return f"{label}: differ (relative L2 {np.linalg.norm(c - p) / np.linalg.norm(p):.3e})"
    return f"{label}: differ"


def compare(parent: dict, change: dict) -> list:
    """Report lines: the train step logits' byte identity, then each side's
    peak in PEAKS that both sides measured, then the byte identity of each
    array in IDENTITIES that both sides hold, then per gradient (sorted by
    name) its relative L2 distance, then the worst.  A gradient only one
    side has is reported as missing."""
    lines = [identity("logits", parent["logits"], change["logits"])]
    for key, label in PEAKS.items():
        if key in parent and key in change:
            p, c = (int(side[key]) / 2 ** 20 for side in (parent, change))
            lines.append(f"{label} (tracemalloc): parent {p:.2f} MiB, change {c:.2f} MiB "
                         f"({c - p:+.2f} MiB)")
    lines += [identity(label, parent[key], change[key]) for key, label in IDENTITIES.items()
              if key in parent and key in change]
    names = sorted(k for k in set(parent) | set(change) if k.startswith("grad/"))
    worst = (None, -1.0)
    for key in names:
        name = key[len("grad/"):]
        if key not in parent or key not in change:
            lines.append(f"{name}: missing in {'parent' if key not in parent else 'change'}")
            continue
        p, c = parent[key], change[key]
        rel = float(np.linalg.norm(c - p) / max(np.linalg.norm(p), np.finfo(np.float64).tiny))
        lines.append(f"{name}: {rel:.3e}")
        if rel > worst[1]:
            worst = (name, rel)
    if worst[0] is not None:
        lines.append(f"worst gradient: {worst[0]} {worst[1]:.3e}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    p.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4, help="images in the step (default 4)")
    p.add_argument("--step", type=Path, help=argparse.SUPPRESS)   # child: run one step
    args = p.parse_args(argv)
    if args.step is not None:
        step(args.step, args.seed, args.batch)
        return 0
    if args.parent is None or args.change is None:
        p.error("PARENT and CHANGE are required")
    if args.batch < 1:
        p.error(f"--batch must be at least 1, got {args.batch}")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "harmnet").is_dir():
            p.error(f"{checkout} has no src/harmnet")
    with tempfile.TemporaryDirectory() as tmp:
        sides = [run_step(checkout, Path(tmp) / f"{side}.npz", args.seed, args.batch)
                 for side, checkout in (("parent", args.parent), ("change", args.change))]
    print("\n".join(compare(*sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
