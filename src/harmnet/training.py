"""Supervised training: label-smoothed cross-entropy, AdamW with decoupled
weight decay, cosine / reduce-on-plateau schedules, and a deterministic
epoch loop emitting JSON-lines metrics and a best-validation checkpoint.

Determinism contract: identical (seed, config, data) reproduce the metrics
stream and the final checkpoint byte-identically (README, "Determinism").
"""

from __future__ import annotations

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

from . import ctensor as ct
from . import data as hdata
from . import harness as hz
from . import model as hm
from .errors import ConfigError, NumericError, ShapeError


def train_defaults() -> dict:
    """Rotated-MNIST settings: 100 epochs, batch 32, AdamW lr 0.007 with
    decoupled weight decay 0.01, label smoothing 0.1, reduce-on-plateau."""
    return {
        "epochs": 100,
        "batch_size": 32,
        "learning_rate": 0.007,
        "label_smoothing": 0.1,
        "scheduler": "plateau",
        "weight_decay": 0.01,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "seed": 0,
        "runs": 1,
    }


def validate_train_config(config: dict) -> dict:
    """Return a normalized copy; raise ConfigError naming the violation.
    `train_defaults()` is the schema (`model.conform`)."""
    cfg = hm.conform(config, train_defaults(), "training")
    for key in ("epochs", "batch_size", "runs"):
        if cfg[key] < 1:
            raise ConfigError(f"training.{key} must be >= 1, got {cfg[key]}")
    for key in ("learning_rate", "weight_decay", "eps"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"training.{key} must be finite, got {cfg[key]}")
    if cfg["learning_rate"] < 0:
        raise ConfigError(f"training.learning_rate must be >= 0")
    if not 0.0 <= cfg["label_smoothing"] < 1.0:
        raise ConfigError(f"training.label_smoothing must lie in [0, 1)")
    if cfg["scheduler"] not in ("cosine", "plateau"):
        raise ConfigError(f"training.scheduler must be 'cosine' or 'plateau', "
                          f"got {cfg['scheduler']!r}")
    if cfg["weight_decay"] < 0:
        raise ConfigError("training.weight_decay must be >= 0")
    for key in ("beta1", "beta2"):
        if not 0.0 <= cfg[key] < 1.0:
            raise ConfigError(f"training.{key} must lie in [0, 1)")
    if cfg["eps"] <= 0:
        raise ConfigError("training.eps must be > 0")
    return cfg


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: ct.CTensor, labels: np.ndarray,
                  smoothing: float = 0.0) -> ct.CTensor:
    """Mean cross-entropy against the smoothed target (1-s)*onehot + s/C.

    The target sums to one, so uniform logits give exactly ln C at any s.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"smoothing must lie in [0, 1), got {smoothing}")
    b, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} != ({b},)")
    hdata.check_labels(labels, c)
    # log-softmax with a detached shift: lse(z) = log sum e^(z-M) + M
    shift = ct.CTensor(np.max(logits.data, axis=1, keepdims=True))
    z = ct.sub(logits, shift)
    lse = ct.log(ct.sum_(ct.exp(z), axis=1, keepdims=True))
    logp = ct.sub(z, lse)
    target = np.full((b, c), smoothing / c, dtype=logits.data.dtype)
    target[np.arange(b), labels] += 1.0 - smoothing
    # the mean negative log-likelihood: dividing by -B negates exactly
    total = ct.sum_(ct.mul(ct.CTensor(target), logp))
    return ct.div(total, ct.CTensor(np.asarray(-b, logits.data.dtype)))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def init_adam(params: dict) -> dict:
    """Zero moments over the real view (complex re/im pairs) per parameter."""
    return {"step": 0,
            "m": {k: np.zeros_like(ct._real_view(v)) for k, v in params.items()},
            "v": {k: np.zeros_like(ct._real_view(v)) for k, v in params.items()}}


def adamw_step(params: dict, grads: dict, state: dict, lr: float,
               weight_decay: float = 0.0, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place AdamW update on the real view of every parameter.

    Weight decay is decoupled (multiplicative on the parameter, never added
    to the gradient); a missing/None gradient still decays the parameter.
    """
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for k in sorted(params):
        p = ct._real_view(params[k])
        g = grads.get(k)
        if g is None:
            g = np.zeros_like(p)
        else:
            g = ct._real_view(np.ascontiguousarray(g)).astype(p.dtype, copy=False)
        m, v = state["m"][k], state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------

def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """eta_0 * (1 + cos(pi * e / E)) / 2: base at e=0, zero at e=E."""
    if total_epochs < 1:
        raise ConfigError(f"total_epochs must be >= 1, got {total_epochs}")
    return float(base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0)


class PlateauSchedule:
    """Halve the rate when val error fails to improve by min_delta for
    `patience` consecutive epochs; the stale counter resets after each cut."""

    def __init__(self, base_lr: float, patience: int = 5, factor: float = 0.5,
                 min_delta: float = 1e-4):
        self.lr = float(base_lr)
        self.patience = patience
        self.factor = factor
        self.min_delta = min_delta
        self.best = np.inf
        self.stale = 0

    def update(self, val_error: float) -> float:
        if val_error < self.best - self.min_delta:
            self.best = val_error
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr *= self.factor
                self.stale = 0
        return self.lr


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def error_rate(model: hm.Model, images: np.ndarray, labels: np.ndarray,
               batch: int = hz.PREDICT_BATCH) -> float:
    """Share of preprocessed images predicted wrong; a label outside
    [0, classes) raises ShapeError."""
    hdata.check_labels(labels, model.head.classes)
    preds = hz.predict(model, images, batch)
    return float(np.mean(preds != labels)) if len(labels) else 0.0


def _grad_norms(grads: dict) -> dict:
    out = {}
    for k, g in grads.items():
        out[k] = None if g is None else float(np.linalg.norm(np.asarray(g).ravel()))
    return out


def train(model: hm.Model, splits: dict, tconfig: dict | None = None,
          out_dir=None) -> dict:
    """Epoch loop over preprocessed splits; returns run metrics and leaves
    the model holding the best-validation parameters.

    splits: {"train", "val", "test"} LabeledImageSets with raw images; each
    is padded/upscaled once up front per the model's input config.  Emits
    one JSON line per epoch to out_dir/metrics.jsonl and keeps the best
    checkpoint at out_dir/best.ckpt when out_dir is given.  A label outside
    [0, classes) in any split raises ShapeError before the first step; a
    non-finite loss aborts with NumericError and a diagnostic dump.
    """
    tconfig = validate_train_config(tconfig if tconfig is not None
                                    else train_defaults())
    inp = model.config["input"]
    for name in ("train", "val", "test"):
        hdata.check_labels(splits[name].labels, model.head.classes, f"{name} labels")

    xs = {name: hdata.preprocess(splits[name].images, inp["pad"], inp["upscale_factor"])
          for name in ("train", "val", "test")}
    ys = {name: splits[name].labels for name in ("train", "val", "test")}

    seed = tconfig["seed"]
    batch_rng = ct.derive_rng(seed, "batches")
    drop_rng = ct.derive_rng(seed, "dropout")
    state = init_adam(model.params)
    plateau = PlateauSchedule(tconfig["learning_rate"])
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    best = {"val_error": np.inf, "epoch": -1, "params": None, "buffers": None}
    history = {"train_loss": [], "val_error": [], "lr": []}
    n_train = len(ys["train"])
    t_start = time.perf_counter()

    for epoch in range(tconfig["epochs"]):
        if tconfig["scheduler"] == "cosine":
            lr = cosine_lr(tconfig["learning_rate"], epoch, tconfig["epochs"])
        else:
            lr = plateau.lr
        order = batch_rng.permutation(n_train)
        losses = []
        for start in range(0, n_train, tconfig["batch_size"]):
            idx = order[start:start + tconfig["batch_size"]]
            tape = ct.GradTape()
            leaves = model.leaves(tape)
            logits = model.forward(ct.CTensor(xs["train"][idx]), leaves,
                                   train=True, rng=drop_rng)
            loss = cross_entropy(logits, ys["train"][idx],
                                 tconfig["label_smoothing"])
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # diagnostics on known-bad values
                    norms = _grad_norms(ct.backward(tape, loss))
                diag = {"epoch": epoch, "step": state["step"], "lr": lr,
                        "loss": repr(loss_val), "batch_indices": idx.tolist(),
                        "grad_norms": {k: (v if v is not None and np.isfinite(v)
                                           else None) for k, v in norms.items()}}
                if out_dir is not None:
                    (out_dir / "abort.json").write_text(json.dumps(diag, indent=2))
                raise NumericError(f"non-finite loss {loss_val} at epoch "
                                   f"{epoch}, step {state['step']}, lr {lr}")
            grads = ct.backward(tape, loss)
            if lr > 0.0:
                adamw_step(model.params, grads, state, lr,
                           tconfig["weight_decay"], tconfig["beta1"],
                           tconfig["beta2"], tconfig["eps"])
            losses.append(loss_val)

        # held-out sets go through in chunks of the training batch, so
        # evaluation never holds more activations than a training step
        val_error = error_rate(model, xs["val"], ys["val"], tconfig["batch_size"])
        train_loss = float(np.mean(losses)) if losses else 0.0
        history["train_loss"].append(train_loss)
        history["val_error"].append(val_error)
        history["lr"].append(lr)
        if val_error < best["val_error"]:
            best.update(val_error=val_error, epoch=epoch,
                        params={k: v.copy() for k, v in model.params.items()},
                        buffers={k: v.copy() for k, v in model.buffers.items()})
            if out_dir is not None:
                model.last_epoch = epoch
                model.metrics = {"val_error": val_error}
                hm.save(model, out_dir / "best.ckpt")
        if tconfig["scheduler"] == "plateau":
            plateau.update(val_error)
        if out_dir is not None:
            # no timing in the stream: identical runs must be byte-identical
            record = {"epoch": epoch, "train_loss": train_loss,
                      "val_error": val_error, "lr": lr}
            with open(out_dir / "metrics.jsonl", "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    if best["params"] is not None:
        for k, v in best["params"].items():
            model.params[k][...] = v
        for k, v in best["buffers"].items():
            model.buffers[k][...] = v
        model.last_epoch = best["epoch"]
        model.metrics = {"val_error": best["val_error"]}

    return {
        "seed": seed,
        "epochs_run": tconfig["epochs"],
        "train_loss": history["train_loss"],
        "val_error": history["val_error"],
        "lr": history["lr"],
        "best_epoch": best["epoch"],
        "best_val_error": float(best["val_error"]),
        "test_error": error_rate(model, xs["test"], ys["test"], tconfig["batch_size"]),
        "wall_seconds": time.perf_counter() - t_start,
        "param_count": hm.count_params(model),
        "config_hash": hm.config_hash(model.config),
        "train_config_hash": hm.config_hash(tconfig),
    }


def aggregate_runs(runs: list) -> dict:
    """Mean and spread of test error over seeds (sample std for n > 1)."""
    errs = np.array([r["test_error"] for r in runs], dtype=np.float64)
    std = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
    return {"runs": len(errs), "test_errors": errs.tolist(),
            "test_error_mean": float(np.mean(errs)), "test_error_std": std}
