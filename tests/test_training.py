"""Training tests: loss values against closed forms, AdamW against a
textbook reference, schedule behavior, and the loop's determinism,
checkpointing, abort, and equivariance-preservation contracts."""

import json
import tracemalloc

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.data as hdata
import harmnet.harness as hz
import harmnet.model as hm
import harmnet.training as tr
from harmnet.errors import ConfigError, NumericError, ShapeError


def tiny_config():
    return {
        "stem": {"blocks": 1, "convs_per_block": 1, "channels": [2],
                 "dropout": [0.0], "kernel_size": 3, "norm": "fused"},
        "encoder": {"blocks": 1, "heads": 1, "patch_dim": 2, "dropout": 0.0,
                    "strategy": "harmformer_default", "rpe": True,
                    "keep_phase": True, "num_buckets": 4, "mlp_ratio": 2,
                    "norm_mode": "std"},
        "head": {"classes": 3},
        "input": {"channels": 1, "base_size": 8, "pad": 0, "upscale_factor": 1},
    }


def toy_splits(n_train=24, n_eval=9, size=8, seed=0):
    """Rotation-invariant class signal: per-class base intensity + noise."""
    rng = ct.make_rng(seed)

    def make(n, split):
        labels = rng.integers(0, 3, n).astype(np.int64)
        images = (0.25 * labels[:, None, None, None]
                  + 0.1 * rng.random((n, 1, size, size))).astype(np.float32)
        return hdata.LabeledImageSet(images, labels, split, {})

    return {"train": make(n_train, "train"), "val": make(n_eval, "val"),
            "test": make(n_eval, "test")}


def quick_tconfig(**over):
    cfg = tr.train_defaults()
    cfg.update({"epochs": 2, "batch_size": 8, "learning_rate": 1e-3,
                "label_smoothing": 0.0, "scheduler": "plateau"})
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_c():
    logits = ct.CTensor(np.zeros((4, 10)))
    labels = np.array([0, 3, 7, 9])
    for s in (0.0, 0.1, 0.5):
        loss = tr.cross_entropy(logits, labels, smoothing=s)
        assert abs(float(loss.data) - np.log(10)) < 1e-12, s


def test_cross_entropy_confident_correct_goes_to_zero():
    logits = np.zeros((2, 5))
    logits[0, 2] = logits[1, 4] = 50.0
    loss = tr.cross_entropy(ct.CTensor(logits), np.array([2, 4]), smoothing=0.0)
    assert float(loss.data) < 1e-12


def test_cross_entropy_smoothed_closed_form():
    # two classes, logits (a, 0): loss = -(1-s/2) log p1 - (s/2) log p0
    a, s = 1.5, 0.2
    p1 = 1.0 / (1.0 + np.exp(-a))
    want = -(1 - s / 2) * np.log(p1) - (s / 2) * np.log(1 - p1)
    loss = tr.cross_entropy(ct.CTensor(np.array([[a, 0.0]])), np.array([0]), s)
    assert abs(float(loss.data) - want) < 1e-12


def test_cross_entropy_gradient_matches_softmax_minus_target():
    rng = ct.make_rng(2)
    logits = rng.standard_normal((3, 5))
    labels = np.array([1, 4, 0])
    s = 0.1
    tape = ct.GradTape()
    leaf = tape.parameter("logits", logits)
    loss = tr.cross_entropy(leaf, labels, smoothing=s)
    g = ct.backward(tape, loss)["logits"]
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    target = np.full((3, 5), s / 5)
    target[np.arange(3), labels] += 1 - s
    assert np.max(np.abs(g - (p - target) / 3)) < 1e-12


def test_cross_entropy_validates_inputs():
    logits = ct.CTensor(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="smoothing"):
        tr.cross_entropy(logits, np.array([0, 1]), smoothing=1.0)
    with pytest.raises(ShapeError, match="labels"):
        tr.cross_entropy(logits, np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def reference_adamw(p0, grad_seq, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook AdamW on a flat real array (decoupled decay)."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_adamw_matches_reference_real_and_complex():
    rng = ct.make_rng(3)
    params = {"w": (rng.standard_normal((3, 2))
                    + 1j * rng.standard_normal((3, 2))).astype(np.complex128),
              "b": rng.standard_normal(4)}
    views0 = {k: ct._real_view(v).copy() for k, v in params.items()}
    grad_seqs = {k: [rng.standard_normal(views0[k].shape) for _ in range(5)]
                 for k in params}
    state = tr.init_adam(params)
    for t in range(5):
        grads = {}
        for k in params:
            flat = grad_seqs[k][t]
            if np.iscomplexobj(params[k]):
                grads[k] = flat.view(np.complex128).reshape(params[k].shape)
            else:
                grads[k] = flat.reshape(params[k].shape)
        tr.adamw_step(params, grads, state, lr=0.01, weight_decay=0.04)
    for k in params:
        want = reference_adamw(views0[k], grad_seqs[k], lr=0.01, wd=0.04)
        assert np.max(np.abs(ct._real_view(params[k]) - want)) < 1e-12, k


def test_adamw_zero_grad_no_decay_is_identity():
    p = {"w": np.arange(6.0)}
    state = tr.init_adam(p)
    tr.adamw_step(p, {"w": np.zeros(6)}, state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(p["w"], np.arange(6.0))


def test_adamw_decoupled_decay_multiplies_parameters():
    p = {"w": np.full(3, 2.0)}
    state = tr.init_adam(p)
    tr.adamw_step(p, {}, state, lr=0.5, weight_decay=0.01)
    assert np.allclose(p["w"], 2.0 * (1 - 0.5 * 0.01), atol=1e-15)


def test_adamw_single_step_is_signed_lr():
    # first step: m_hat = g, v_hat = g^2 -> update = -lr * g/(|g| + eps)
    p = {"w": np.zeros(3)}
    g = np.array([4.0, -2.0, 0.5])
    state = tr.init_adam(p)
    tr.adamw_step(p, {"w": g}, state, lr=0.01)
    assert np.max(np.abs(p["w"] + 0.01 * np.sign(g))) < 1e-7


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_cosine_schedule_endpoints_and_midpoint():
    assert tr.cosine_lr(0.007, 0, 100) == pytest.approx(0.007)
    assert tr.cosine_lr(0.007, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert tr.cosine_lr(0.007, 50, 100) == pytest.approx(0.0035)
    with pytest.raises(ConfigError):
        tr.cosine_lr(0.007, 0, 0)


def test_plateau_constant_under_improvement():
    sched = tr.PlateauSchedule(0.1)
    for err in np.linspace(0.5, 0.1, 20):
        assert sched.update(float(err)) == 0.1


def test_plateau_halves_after_patience_and_resets():
    sched = tr.PlateauSchedule(0.1, patience=5)
    sched.update(0.5)
    for i in range(4):
        assert sched.update(0.5) == 0.1, i      # stale 1..4: unchanged
    assert sched.update(0.5) == 0.05            # 5th stale epoch: halved
    for i in range(4):
        assert sched.update(0.5) == 0.05, i
    assert sched.update(0.5) == 0.025           # another 5: halved again
    assert sched.update(0.3) == 0.025           # improvement just resets
    assert sched.stale == 0


def test_plateau_min_delta_counts_tiny_gains_as_stale():
    sched = tr.PlateauSchedule(0.1, patience=2, min_delta=1e-4)
    sched.update(0.5)
    sched.update(0.5 - 5e-5)
    assert sched.update(0.5 - 9e-5) == 0.05


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_train_config_defaults_are_valid_and_normalized():
    cfg = tr.validate_train_config(tr.train_defaults())
    assert cfg == tr.train_defaults()
    cfg2 = dict(tr.train_defaults(), epochs=2.0)
    assert tr.validate_train_config(cfg2)["epochs"] == 2


@pytest.mark.parametrize("mutate, frag", [
    (lambda c: c.pop("epochs"), "missing"),
    (lambda c: c.update(extra=1), "unknown"),
    (lambda c: c.update(epochs=0), "epochs"),
    (lambda c: c.update(epochs=1.5), "integer"),
    (lambda c: c.update(label_smoothing=1.0), "label_smoothing"),
    (lambda c: c.update(scheduler="linear"), "scheduler"),
    (lambda c: c.update(weight_decay=-0.1), "weight_decay"),
    (lambda c: c.update(beta2=1.0), "beta2"),
    (lambda c: c.update(eps=0.0), "eps"),
])
def test_train_config_rejects_violations(mutate, frag):
    cfg = tr.train_defaults()
    mutate(cfg)
    with pytest.raises(ConfigError, match=frag):
        tr.validate_train_config(cfg)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_train_writes_metrics_and_best_checkpoint(tmp_path):
    model = hm.build(tiny_config(), seed=0)
    metrics = tr.train(model, toy_splits(), quick_tconfig(), out_dir=tmp_path)
    assert len(metrics["train_loss"]) == 2
    assert metrics["best_epoch"] in (0, 1)
    assert 0.0 <= metrics["test_error"] <= 1.0
    assert metrics["param_count"] == hm.count_params(model)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "train_loss", "val_error", "lr"}
    loaded = hm.load(tmp_path / "best.ckpt")
    assert loaded.config == model.config
    assert loaded.last_epoch == metrics["best_epoch"]
    assert loaded.metrics == {"val_error": metrics["best_val_error"]}


def test_train_is_deterministic(tmp_path):
    out = []
    for run in range(2):
        d = tmp_path / str(run)
        model = hm.build(tiny_config(), seed=5)
        m = tr.train(model, toy_splits(), quick_tconfig(seed=5), out_dir=d)
        m.pop("wall_seconds")
        out.append((m, (d / "metrics.jsonl").read_bytes(),
                    (d / "best.ckpt").read_bytes()))
    assert out[0] == out[1]


@pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
def test_train_feeds_images_at_model_precision(monkeypatch, precision, dtype):
    model = hm.build(tiny_config(), seed=0, precision=precision)
    seen = set()
    real = hm.Model.forward

    def forward(self, images, *args, **kwargs):
        seen.add(np.asarray(getattr(images, "data", images)).dtype)
        return real(self, images, *args, **kwargs)

    monkeypatch.setattr(hm.Model, "forward", forward)
    tr.train(model, toy_splits(n_train=8, n_eval=3), quick_tconfig(epochs=1))
    assert seen == {np.dtype(dtype)}


def test_held_out_sets_chunk_at_the_batch_size(monkeypatch):
    # 5 images per held-out set at batch 2: 3 eval forwards each (val once per epoch)
    model = hm.build(tiny_config(), seed=0)
    evals = []
    real = hm.Model.forward

    def forward(self, images, leaves=None, train=False, rng=None):
        if not train:
            evals.append(len(getattr(images, "data", images)))
        return real(self, images, leaves, train, rng)

    monkeypatch.setattr(hm.Model, "forward", forward)
    tr.train(model, toy_splits(n_train=4, n_eval=5), quick_tconfig(epochs=2, batch_size=2))
    assert evals == [2, 2, 1] * 3


def test_train_zero_lr_leaves_parameters_unchanged():
    model = hm.build(tiny_config(), seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    splits = toy_splits()
    tcfg = quick_tconfig(epochs=1, learning_rate=0.0, weight_decay=0.0)
    metrics = tr.train(model, splits, tcfg)
    for k in before:
        assert np.array_equal(model.params[k], before[k]), k
    prepped = hdata.preprocess(splits["val"].images, 0, 1).astype(np.float32)
    assert metrics["val_error"][0] == tr.error_rate(model, prepped,
                                                    splits["val"].labels)


# bytes a batch-2 mnist_config train forward leaves on its tape: 75 MiB when
# each backward keeps only the arrays it reads, 188 MiB when closures also
# keep operands no adjoint reads
TAPE_BUDGET_BATCH2 = 100 * 2**20


def test_train_forward_tape_stays_within_budget():
    model = hm.build(hm.mnist_config(), seed=0)
    x = ct.make_rng(1).standard_normal((2, 1, model.input_size, model.input_size))
    x = ct.CTensor(x.astype(np.float32))
    tracemalloc.start()
    try:
        tape = ct.GradTape()
        logits = model.forward(x, model.leaves(tape), train=True,
                               rng=ct.derive_rng(0, "dropout"))
        loss = tr.cross_entropy(logits, np.array([3, 7]), 0.1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.tape is tape and np.isfinite(loss.data)
    assert held < TAPE_BUDGET_BATCH2, f"tape holds {held / 2**20:.1f} MiB"


@pytest.mark.parametrize("seed", range(5))
def test_single_step_decreases_batch_loss(seed):
    model = hm.build(tiny_config(), seed=seed)
    splits = toy_splits(seed=seed)
    x = hdata.preprocess(splits["train"].images[:8], 0, 1).astype(np.float32)
    y = splits["train"].labels[:8]

    def batch_loss():
        tape = ct.GradTape()
        leaves = model.leaves(tape)
        logits = model.forward(ct.CTensor(x), leaves, train=True)
        return tape, tr.cross_entropy(logits, y, 0.1)

    tape, loss0 = batch_loss()
    grads = ct.backward(tape, loss0)
    tr.adamw_step(model.params, grads, tr.init_adam(model.params), lr=1e-3)
    _, loss1 = batch_loss()
    assert float(loss1.data) < float(loss0.data)


def test_train_aborts_on_nan_with_diagnostics(tmp_path):
    model = hm.build(tiny_config(), seed=2)
    key = next(iter(model.params))
    model.params[key][...] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite loss"):
        tr.train(model, toy_splits(), quick_tconfig(epochs=1),
                 out_dir=tmp_path)
    diag = json.loads((tmp_path / "abort.json").read_text())
    assert diag["epoch"] == 0 and "grad_norms" in diag
    assert diag["batch_indices"]


def test_equivariance_survives_training(tmp_path):
    model = hm.build(tiny_config(), seed=3)
    tr.train(model, toy_splits(), quick_tconfig(epochs=3), out_dir=tmp_path)
    trained = hm.load(tmp_path / "best.ckpt", precision="f64")
    rep = hz.verify_all_lemmas(seed=0, precision="f64", model=trained)
    assert rep["all_pass"]


def test_aggregate_runs_mean_std():
    runs = [{"test_error": 0.02}, {"test_error": 0.04}]
    agg = tr.aggregate_runs(runs)
    assert agg["runs"] == 2
    assert agg["test_error_mean"] == pytest.approx(0.03)
    assert agg["test_error_std"] == pytest.approx(np.std([0.02, 0.04], ddof=1))
    solo = tr.aggregate_runs([{"test_error": 0.5}])
    assert solo["test_error_std"] == 0.0
