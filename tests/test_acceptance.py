"""Acceptance gates for the library as a whole.

Always-on gates: the exact equivariance suite over five seeds, kernel
steerability over 100 random banks, the frozen 45-degree stem bound,
finite-difference gradient checks on every layer type and a full model,
the parameter budget, equivariance of every ablation variant, and
byte-identical determinism.

Benchmark-accuracy gates need the canonical dataset files under
HARM_DATA_ROOT and skip with an explicit reason when they are absent;
the multi-hour training gates additionally require HARM_FULL_ACCEPTANCE=1.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.data as hdata
import harmnet.encoder as enc
import harmnet.harness as hz
import harmnet.head as hd
import harmnet.model as hm
import harmnet.stem as hs
import harmnet.training as tr

_AMAT_FILES = ("mnist_all_rotation_normalized_float_train_valid.amat",
               "mnist_all_rotation_normalized_float_test.amat")
_IDX_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def data_root():
    root = os.environ.get("HARM_DATA_ROOT")
    return Path(root) if root else None


def have_files(names):
    root = data_root()
    return root is not None and all((root / n).exists() for n in names)


needs_rotated_mnist = pytest.mark.skipif(
    not have_files(_AMAT_FILES),
    reason="rotated-MNIST AMAT files not found under HARM_DATA_ROOT "
           f"(need {', '.join(_AMAT_FILES)})")
needs_mnist = pytest.mark.skipif(
    not have_files(_IDX_FILES),
    reason="MNIST IDX files not found under HARM_DATA_ROOT "
           f"(need {', '.join(_IDX_FILES)})")
full_runs = pytest.mark.skipif(
    os.environ.get("HARM_FULL_ACCEPTANCE") != "1",
    reason="multi-hour training gate; set HARM_FULL_ACCEPTANCE=1 to run")


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def tiny_config():
    return {
        "stem": {"blocks": 1, "convs_per_block": 1, "channels": [2],
                 "dropout": [0.0], "kernel_size": 3, "norm": "fused"},
        "encoder": {"blocks": 1, "heads": 1, "patch_dim": 2, "dropout": 0.0,
                    "strategy": "harmformer_default", "rpe": True,
                    "keep_phase": True, "num_buckets": 4, "mlp_ratio": 2,
                    "norm_mode": "std"},
        "head": {"classes": 3},
        "input": {"channels": 1, "base_size": 8, "pad": 0,
                  "upscale_factor": 1},
    }


# ---------------------------------------------------------------------------
# 1. exact equivariance suite: 5 seeds, fp64, quarter turns
# ---------------------------------------------------------------------------

def test_equivariance_suite_five_seeds_under_two_minutes():
    t0 = time.perf_counter()
    for seed in range(5):
        report = hz.verify_all_lemmas(seed=seed, precision="f64")
        assert report["all_pass"], [e for e in report["entries"]
                                    if not e["passed"]]
        for e in report["entries"]:
            if e["witness"]:
                continue
            bound = 1e-6 if "logits" in e["check"] else 1e-7
            assert e["error"] < bound, e
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. kernel steerability: rot90(W_m) = e^{im pi/2} W_m on 100 random banks
# ---------------------------------------------------------------------------

def test_kernel_steerability_100_random_banks():
    rng = ct.make_rng(2025)
    kernels = 0
    for b in range(100):
        k = int(rng.choice([3, 5, 7, 9]))
        in_orders = (0,) if rng.random() < 0.3 else hs.ORDERS
        c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        bank = hs.HarmonicFilterBank(f"b{b}", in_orders, hs.ORDERS,
                                     c_in, c_out, k, rng)
        radial, phase = bank.params[f"{bank.name}.radial"], bank.params[f"{bank.name}.phase"]
        for p, (_, m_f) in enumerate(bank.connections):
            w = hs.synthesize_block(radial[p], phase[p], m_f, k)
            rotated = np.rot90(w, 1, axes=(2, 3))
            expected = np.exp(1j * m_f * np.pi / 2) * w
            assert np.max(np.abs(rotated - expected)) < 1e-12, (b, m_f, k)
            kernels += 1
    assert kernels > 100


# ---------------------------------------------------------------------------
# 3. continuous-angle bound at 45 degrees, plus the frozen regression values
# ---------------------------------------------------------------------------

# measured on the first validated build (seed 0, f64, band-limited fields):
# m=-1: 0.02785, m=0: 0.01477, m=+1: 0.02891; frozen with ~15% headroom
FROZEN_45DEG = {"-1": 0.032, "0": 0.017, "1": 0.034}


def test_stem_45_degree_bound_and_regression():
    result = hz.stem_continuous_check(seed=0, precision="f64")
    assert result["passed"]
    for m, err in result["errors"].items():
        assert err < 0.05, (m, err)
        assert err <= FROZEN_45DEG[m], (m, err, "regressed past frozen value")


# ---------------------------------------------------------------------------
# 4. gradients: finite differences on every layer type and a full model
# ---------------------------------------------------------------------------

def _sq_norm(x) -> ct.CTensor:
    total = None
    for i in range(x.shape[1]):              # one order stream at a time
        mag = ct.magnitude(ct.narrow(x, 1, i, 1))
        term = ct.sum_(ct.mul(mag, mag))
        total = term if total is None else ct.add(total, term)
    return total


def test_gradients_every_layer_type_and_full_model():
    rng = ct.make_rng(4)
    x_img = rng.standard_normal((2, 1, 6, 6))
    sfm_in = {m: crandn(rng, 2, 2, 6, 6) for m in hs.ORDERS}
    errs = {}

    # lifting + full harmonic convolution chain
    b1 = hs.HarmonicFilterBank("g.c1", (0,), hs.ORDERS, 1, 2, 3, rng)
    b2 = hs.HarmonicFilterBank("g.c2", hs.ORDERS, hs.ORDERS, 2, 2, 3, rng)

    def f_conv(lv):
        y = hs.harmonic_conv(hs.lift_image(ct.CTensor(x_img)), b1, lv)
        return _sq_norm(hs.harmonic_conv(y, b2, lv))

    # banks store their connections stacked: sample 4 components per
    # connection of the widest bank checked
    errs["conv"] = ct.finite_difference_check(
        f_conv, {**b1.params, **b2.params}, sample=4 * len(b2.connections))

    # fused norm + activation (train-mode batch statistics)
    state = hs.HBatchNormState("g.n", 2)
    nrm = {"g.n.a": np.full(2, 0.9), "g.n.b": np.full(2, 0.1)}
    sfm = ct.CTensor(np.stack([sfm_in[m] for m in hs.ORDERS], axis=1))
    errs["hbn_crelu"] = ct.finite_difference_check(
        lambda lv: _sq_norm(hs.hbn_crelu(sfm, state, lv, True)), nrm)

    # legacy norm + activation
    leg = {"g.l.a": np.full(2, 0.9), "g.l.b": np.full(2, 0.1),
           "g.l.bias": np.full(2, 0.05)}
    lstate = hs.HBatchNormState("g.l", 2)
    errs["legacy"] = ct.finite_difference_check(
        lambda lv: _sq_norm(hs.legacy_crelu(
            hs.legacy_cbn(sfm, lstate, lv, True), lv["g.l.bias"])),
        leg)

    # spatial layer norm (parameterless) reached through a conv; the loss
    # compares against fixed targets because the squared norm of a
    # normalized field is parameter-invariant (zero gradient by design)
    t_ln = ct.CTensor(np.stack([crandn(rng, 2, 2, 6, 6) for _ in hs.ORDERS], axis=1))

    def f_ln(lv):
        y = hs.normalize_over(
            hs.harmonic_conv(hs.lift_image(ct.CTensor(x_img)), b1, lv), (3, 4))
        return _sq_norm(ct.sub(y, t_ln))

    errs["spatial_layer_norm"] = ct.finite_difference_check(
        f_ln, b1.params, sample=4 * len(b1.connections))

    # residual + pooling (parameterless) reached through a conv
    def f_pool(lv):
        y = hs.harmonic_conv(sfm, b2, lv)
        return _sq_norm(ct.avg_pool2(ct.add(y, sfm)))

    errs["residual_pool"] = ct.finite_difference_check(
        f_pool, b2.params, sample=4 * len(b2.connections))

    # encoder block: attention, rpe, equi-linear, layer norm, mlp
    blk = enc.EncoderBlock("g.vb", 4, 2, (2, 2), rng, head_dim=2)
    px = {m: crandn(rng, 2, 4, 4) for m in hs.ORDERS}

    def f_blk(lv):
        p = ct.CTensor(np.stack([px[m] for m in hs.ORDERS], axis=1))
        return _sq_norm(blk.forward(p, lv))

    errs["encoder_block"] = ct.finite_difference_check(
        f_blk, blk.params, sample=4)

    # invariant head
    head = hd.Head("g.h", 4, 3, rng)
    ph = ct.CTensor(np.stack([crandn(rng, 2, 4, 4) for _ in hs.ORDERS], axis=1))

    def f_head(lv):
        out = head.forward(ph, lv)
        return ct.sum_(ct.mul(out, out))

    errs["head"] = ct.finite_difference_check(f_head, head.params)

    # full 2-sample model end to end through the training loss
    model = hm.build(tiny_config(), seed=0, precision="f64")
    x2 = rng.standard_normal((2, 1, 8, 8))
    labels = np.array([0, 2])

    def f_model(lv):
        return tr.cross_entropy(model.forward(ct.CTensor(x2), lv), labels, 0.1)

    lift = model.stem.blocks[0]["convs"][0][0]
    errs["full_model"] = ct.finite_difference_check(
        f_model, model.params, sample=2 * len(lift.connections))

    for name, err in errs.items():
        assert err < 1e-4, (name, err)


# ---------------------------------------------------------------------------
# 5. rotated-MNIST reproduction (smoke gate + opt-in full run)
# ---------------------------------------------------------------------------

@needs_rotated_mnist
def test_rotated_mnist_10_epoch_smoke():
    splits = hdata.build_benchmark("rotated-mnist", data_root(), seed=0)
    tcfg = dict(tr.train_defaults(), epochs=10)
    t0 = time.perf_counter()
    metrics = tr.train(hm.build(hm.mnist_config(), 0), splits, tcfg)
    assert metrics["test_error"] <= 0.10, metrics["test_error"]
    assert time.perf_counter() - t0 <= 1200.0


@needs_rotated_mnist
@full_runs
def test_rotated_mnist_100_epochs_3_seeds():
    splits = hdata.build_benchmark("rotated-mnist", data_root(), seed=0)
    errors = []
    for seed in range(3):
        tcfg = dict(tr.train_defaults(), seed=seed)
        metrics = tr.train(hm.build(hm.mnist_config(), seed), splits, tcfg)
        errors.append(metrics["test_error"])
    assert float(np.mean(errors)) <= 0.025, errors


# ---------------------------------------------------------------------------
# 6/7. upright-train rotated-test and angle stability of that model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def upright_trained():
    if not have_files(_IDX_FILES):
        pytest.skip("MNIST IDX files not found under HARM_DATA_ROOT "
                    f"(need {', '.join(_IDX_FILES)})")
    if os.environ.get("HARM_FULL_ACCEPTANCE") != "1":
        pytest.skip("multi-hour training gate; set HARM_FULL_ACCEPTANCE=1")
    splits = hdata.build_benchmark("mnist-rot-test", data_root(), seed=0)
    splits = dict(splits, train=splits["train"].slice(0, 10000))
    model = hm.build(hm.mnist_config(), 0)
    metrics = tr.train(model, splits, tr.train_defaults())
    return model, metrics


def test_upright_train_rotated_test_error(upright_trained):
    _, metrics = upright_trained
    assert metrics["test_error"] <= 0.03, metrics["test_error"]


def test_angle_stability_of_upright_model(upright_trained):
    model, _ = upright_trained
    root = data_root()
    upright = hdata.load_idx(root / _IDX_FILES[2], root / _IDX_FILES[3],
                             "test")
    curve = hz.stability_sweep(model, upright, angle_step=45)
    acc = dict(zip(curve["angles_deg"], curve["accuracy"]))
    assert acc[0] - acc[45] <= 0.01, (acc[0], acc[45])
    quarters = min(acc[a] for a in (0, 90, 180, 270))
    diagonals = max(acc[a] for a in (45, 135, 225, 315))
    assert quarters >= diagonals, acc


# ---------------------------------------------------------------------------
# 8. parameter budget
# ---------------------------------------------------------------------------

def test_parameter_budget():
    n = hm.count_params(hm.build(hm.mnist_config(), seed=0))
    assert n == 30122
    assert 27000 <= n <= 33000


# ---------------------------------------------------------------------------
# 9. ablations: accuracy directions (opt-in) and equivariance of variants
# ---------------------------------------------------------------------------

@needs_rotated_mnist
@full_runs
@pytest.mark.parametrize("key,better,worse", [
    ("rpe", True, False), ("norm", "fused", "legacy")])
def test_ablation_direction(key, better, worse):
    splits = hdata.build_benchmark("rotated-mnist", data_root(), seed=0)
    section = "encoder" if key == "rpe" else "stem"
    means = {}
    for value in (better, worse):
        cfg = hm.mnist_config()
        cfg[section][key] = value
        runs = []
        for seed in range(3):
            tcfg = dict(tr.train_defaults(), seed=seed)
            runs.append(tr.train(hm.build(cfg, seed), splits, tcfg))
        means[value] = tr.aggregate_runs(runs)["test_error_mean"]
    assert means[better] < means[worse], means


def test_every_ablation_variant_stays_equivariant():
    variants = [("stem", "norm", "legacy"), ("stem", "norm", "layernorm"),
                ("encoder", "strategy", "mixing_all"),
                ("encoder", "strategy", "cross_values"),
                ("encoder", "rpe", False)]
    for section, key, value in variants:
        cfg = hm.mnist_config()
        cfg[section][key] = value
        report = hz.verify_all_lemmas(seed=0, precision="f64", config=cfg)
        assert report["all_pass"], (
            value, [e for e in report["entries"] if not e["passed"]])


# ---------------------------------------------------------------------------
# 10. byte-identical determinism of repeated runs
# ---------------------------------------------------------------------------

def test_verify_report_byte_identical():
    a = hz.report_json(hz.verify_all_lemmas(seed=3, config=tiny_config()))
    b = hz.report_json(hz.verify_all_lemmas(seed=3, config=tiny_config()))
    assert a == b


def test_training_byte_identical(tmp_path):
    rng = np.random.default_rng(0)

    def make(n, split):
        labels = rng.integers(0, 3, n).astype(np.int64)
        images = (0.25 * labels[:, None, None, None]
                  + 0.1 * rng.random((n, 1, 8, 8))).astype(np.float32)
        return hdata.LabeledImageSet(images, labels, split, {})

    splits = {"train": make(20, "train"), "val": make(6, "val"),
              "test": make(6, "test")}
    tcfg = dict(tr.train_defaults(), epochs=2, batch_size=5)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        tr.train(hm.build(tiny_config(), 0), splits, tcfg, out)
        outs.append(out)
    for artifact in ("metrics.jsonl", "best.ckpt"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes()


# ---------------------------------------------------------------------------
# other input geometries: build + forward shape only (not accuracy-gated)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("channels,base,upscale,classes", [
    (3, 32, 2, 10),    # 32px RGB
    (3, 96, 1, 2),     # 96px RGB binary
])
def test_other_domain_configs_build_and_forward(channels, base, upscale,
                                                classes):
    cfg = tiny_config()
    cfg["stem"].update({"blocks": 2, "channels": [2, 4], "dropout": [0.0, 0.0]})
    cfg["encoder"]["patch_dim"] = 4
    cfg["head"]["classes"] = classes
    cfg["input"] = {"channels": channels, "base_size": base, "pad": 0,
                    "upscale_factor": upscale}
    model = hm.build(cfg, seed=0)
    x = ct.make_rng(1).random((1, channels, base * upscale, base * upscale))
    logits = model.forward(ct.CTensor(x.astype(np.float32)))
    assert logits.data.shape == (1, classes)
    assert np.all(np.isfinite(logits.data))
