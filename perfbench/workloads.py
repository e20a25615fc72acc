"""The benchmark's four workloads, each driving harmnet's public API.

A workload builds every input from the seed in `setup`, exposes one
operation (`op`, timed by the runner in a closed loop, returning how many
items it processed) and judges the outputs those operations produced in
`checks`.  Sizes keep a run inside a shared 2-core, 7 GB box: a training
call at batch 4 peaks near 1.1 GB, inference at batch 16 near 0.3 GB.

Why these four: `train` is the only one that records a tape, runs the
backward pass and changes weights every step, so weight-derived caches are
bypassed there; `sweep` is large-batch inference where per-input transforms
dominate and the data rotation/preprocess path runs on every image; `serve`
is batch-1 inference where fixed per-call work (kernel synthesis, kernel
transforms, op dispatch) dominates; `verify` is the f64 equivariance suite
on tiny tensors, the only f64 workload.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
from harmnet import data as hdata
from harmnet import harness as hz
from harmnet import model as hm
from harmnet import training as tr
from harmnet.constants import EPS
from harmnet.errors import NumericError

import synth

QUARTER_TURNS = (1, 2, 3)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm((got - want).ravel()) / max(EPS, np.linalg.norm(got.ravel())))


def quarter_turn_errors(model: hm.Model, raw: np.ndarray, reference: np.ndarray) -> list:
    """Relative error of the logits of each quarter turn of the raw (C, H, W)
    image against `reference`, the logits of the unturned image."""
    inp = model.config["input"]
    turned = np.stack([hdata.rotate_image(raw, hdata.RotationSpec(90 * q, "nearest"))
                       for q in QUARTER_TURNS])
    logits = model.forward(hdata.preprocess(turned, inp["pad"], inp["upscale_factor"])).data
    return [rel_error(row, reference) for row in logits]


class ForwardRecorder:
    """Keeps a copy of the logits of every `Model.forward` call made inside
    the `with` block, so a check can judge what an operation computed even
    when the API it calls returns only a summary."""

    def __enter__(self):
        self.logits = []
        self._original = original = hm.Model.__dict__["forward"]

        def forward(model, *args, **kwargs):
            out = original(model, *args, **kwargs)
            self.logits.append(np.array(out.data))
            return out

        hm.Model.forward = forward
        return self

    def __exit__(self, *exc) -> None:
        hm.Model.forward = self._original


def checkpointed_model(seed: int, workdir) -> hm.Model:
    """Reference model written to a checkpoint and loaded back, as users do."""
    path = workdir / "model.ckpt"
    hm.save(hm.build(hm.mnist_config(), seed, "f32"), path)
    return hm.load(path, precision="f32")


class Train:
    """Closed loop of one-epoch `training.train` calls from the same initial
    weights and seed, so every call must reproduce the first bit for bit."""

    name = "train"
    item = "training sample"
    precision = "f32"
    BATCH = 4
    N_TRAIN = 8
    N_HOLDOUT = 2

    def setup(self, seed: int, workdir) -> None:
        n, h = self.N_TRAIN, self.N_HOLDOUT
        ds = synth.digit_set(seed, "train", n + 2 * h, workdir)
        self.splits = {"train": ds.slice(0, n), "val": ds.slice(n, n + h, "val"),
                       "test": ds.slice(n + h, n + 2 * h, "test")}
        self.model = hm.build(hm.mnist_config(), seed, self.precision)
        self.initial = ({k: v.copy() for k, v in self.model.params.items()},
                        {k: v.copy() for k, v in self.model.buffers.items()})
        self.tconfig = dict(tr.train_defaults(), epochs=1, batch_size=self.BATCH, seed=seed)
        self.runs = []

    def op(self) -> int:
        params, buffers = self.initial
        for k, v in params.items():
            self.model.params[k][...] = v
        for k, v in buffers.items():
            self.model.buffers[k][...] = v
        try:
            result = tr.train(self.model, self.splits, self.tconfig)
        except NumericError:
            self.runs.append(None)
        else:
            digest = hashlib.sha256()
            for k in sorted(self.model.params):
                digest.update(self.model.params[k].tobytes())
            self.runs.append((tuple(result["train_loss"]), tuple(result["val_error"]),
                              result["test_error"], digest.hexdigest()))
        # a tape and its tensors form reference cycles, so only the cyclic
        # collector frees them; collecting here, inside the timed call, keeps
        # earlier calls' tapes from piling up (peak memory then depends on one
        # call, not on when the collector last ran)
        gc.collect()
        return self.N_TRAIN

    # the warm-up call is the reference every timed call must reproduce
    warmup = op

    def checks(self) -> list:
        reference = self.runs[0]
        out = [("loss_finite", run is not None and all(np.isfinite(run[0]))) for run in self.runs]
        out += [("same_seed_identical", run is not None and run == reference) for run in self.runs[1:]]
        return out

    def probe_model(self) -> hm.Model:
        return self.model


class Sweep:
    """Repeated `harness.stability_sweep` over a raw digit set at three
    angles (two off the grid), batch 16, with a checkpoint-loaded model.
    The logits each sweep computed are kept, because the sweep itself
    returns only accuracies, which an untrained model makes uninformative."""

    name = "sweep"
    item = "image"
    precision = "f32"
    IMAGES = 16
    ANGLE_STEP = 120
    BATCH = 16
    CHECKED = 2

    def setup(self, seed: int, workdir) -> None:
        self.dataset = synth.digit_set(seed, "sweep", self.IMAGES, workdir)
        self.model = checkpointed_model(seed, workdir)
        self.subset = synth.rng_for(seed, "sweep/checked").choice(self.IMAGES, self.CHECKED, replace=False)
        self.angles = tuple(range(0, 360, self.ANGLE_STEP))
        self.runs = []

    def warmup(self) -> None:
        inp = self.model.config["input"]
        hz.predict(self.model, hdata.preprocess(self.dataset.images, inp["pad"], inp["upscale_factor"]),
                   self.BATCH)

    def op(self) -> int:
        with ForwardRecorder() as rec:
            result = hz.stability_sweep(self.model, self.dataset, angle_step=self.ANGLE_STEP,
                                        batch=self.BATCH)
        self.runs.append((result, rec.logits))
        return self.IMAGES * len(self.angles)

    def checks(self) -> list:
        """Per sweep: its logits are one row per (angle, image), its
        accuracies are those of the argmax of those rows, and its logits
        repeat the first sweep's bit for bit.  On the first sweep's logits
        of a seeded subset: the 0-degree rows are invariant under quarter
        turns of the input, and the off-grid rows match the image rotated,
        preprocessed and classified on its own."""
        inp = self.model.config["input"]
        shape = (len(self.angles), self.IMAGES)
        out, first = [], None
        for result, logits in self.runs:
            rows = np.concatenate(logits) if logits else np.zeros((0,))
            ok = rows.shape[:1] == (shape[0] * shape[1],) and result["angles_deg"] == list(self.angles)
            out.append(("sweep_logits_recorded", ok))
            if not ok:
                continue
            rows = rows.reshape(shape + rows.shape[1:])
            accuracy = np.mean(np.argmax(rows, axis=2) == self.dataset.labels, axis=1)
            out.append(("sweep_accuracy", list(accuracy) == result["accuracy"]))
            first = rows if first is None else first
            out.append(("sweep_repeatable", np.array_equal(rows, first)))
        if first is None:
            return out
        for i in self.subset:
            raw = self.dataset.images[i]
            out += [("quarter_turn_logits", err < hz.TOLERANCES["grid_logits"])
                    for err in quarter_turn_errors(self.model, raw, first[0, i])]
        off_grid = [(a, i) for a in range(1, len(self.angles)) for i in self.subset]
        x = np.stack([hdata.preprocess(hdata.rotate_image(self.dataset.images[i],
                                                          hdata.RotationSpec(self.angles[a], "bilinear")),
                                       inp["pad"], inp["upscale_factor"]) for a, i in off_grid])
        reference = self.model.forward(x).data
        out += [("off_grid_logits", rel_error(first[a, i], want) < hz.TOLERANCES["grid_logits"])
                for (a, i), want in zip(off_grid, reference)]
        return out

    def probe_model(self) -> hm.Model:
        return self.model


class Serve:
    """One client in a closed loop; each request is one raw digit at a seeded
    arbitrary angle through rotate_image -> preprocess -> Model.forward."""

    name = "serve"
    item = "request"
    precision = "f32"
    POOL = 64
    SCHEDULE = 4096
    CHECKED = 2

    def setup(self, seed: int, workdir) -> None:
        self.pool = synth.digit_set(seed, "serve", self.POOL, workdir).images
        self.model = checkpointed_model(seed, workdir)
        rng = synth.rng_for(seed, "serve/requests")
        self.requests = list(zip(rng.integers(0, self.POOL, self.SCHEDULE),
                                 rng.uniform(0.0, 360.0, self.SCHEDULE)))
        self.checked = synth.rng_for(seed, "serve/checked").choice(16, self.CHECKED, replace=False)
        self.served = []

    def _handle(self, image: np.ndarray, angle: float) -> np.ndarray:
        inp = self.model.config["input"]
        turned = hdata.rotate_image(image, hdata.RotationSpec(angle, "bilinear"))
        x = hdata.preprocess(turned, inp["pad"], inp["upscale_factor"])
        return self.model.forward(x[None]).data[0]

    def warmup(self) -> None:
        for image in self.pool[:2]:
            self._handle(image, 0.0)

    def op(self) -> int:
        index, angle = self.requests[len(self.served) % self.SCHEDULE]
        self.served.append((index, angle, self._handle(self.pool[index], angle)))
        return 1

    def checks(self) -> list:
        # seeded positions among the first requests, so a run checks the same
        # requests however many it served
        picks = sorted({int(k) % len(self.served) for k in self.checked})
        out = []
        for k in picks:
            index, angle, logits = self.served[k]
            raw = hdata.rotate_image(self.pool[index], hdata.RotationSpec(angle, "bilinear"))
            out += [("quarter_turn_logits", err < hz.TOLERANCES["grid_logits"])
                    for err in quarter_turn_errors(self.model, raw, logits)]
        return out

    def probe_model(self) -> hm.Model:
        return self.model


class Verify:
    """`harness.verify_all_lemmas` at f64, one seeded suite seed per call."""

    name = "verify"
    item = "lemma suite"
    precision = "f64"

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        self.suite_seeds = synth.rng_for(seed, "verify/seeds").integers(0, 2**31, 64).tolist()
        self.passed = []

    def warmup(self) -> None:
        pass

    def op(self) -> int:
        seed = self.suite_seeds[len(self.passed) % len(self.suite_seeds)]
        self.passed.append(hz.verify_all_lemmas(seed=seed, precision=self.precision)["all_pass"])
        return 1

    def checks(self) -> list:
        return [("all_pass", ok) for ok in self.passed]

    def probe_model(self) -> hm.Model:
        return hm.build(hm.mnist_config(), self.seed, self.precision)


WORKLOADS = {w.name: w for w in (Train, Sweep, Serve, Verify)}
