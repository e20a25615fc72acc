"""Verification-harness tests: the error measure against exact oracles, the
full lemma suite at fp64, the frozen continuous-angle bound, stability
sweeps, and the analytic cost model."""

import json

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.data as hdata
import harmnet.encoder as enc
import harmnet.harness as hz
import harmnet.model as hm
import harmnet.stem as hs
import harmnet.training as tr
from harmnet.errors import ConfigError, ShapeError


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


# ---------------------------------------------------------------------------
# rotation helpers
# ---------------------------------------------------------------------------

def test_rot90_grid_matches_data_rotation_convention():
    a = np.arange(25, dtype=np.uint8).reshape(5, 5)
    for q in range(4):
        spec = hdata.RotationSpec(90 * q, "nearest")
        assert np.array_equal(hz.rot90_grid(a, q), hdata.rotate_image(a, spec))


def test_rot90_rows_permutes_like_grid_rotation():
    h = w = 3
    field = np.arange(h * w, dtype=float)
    for q in range(4):
        perm = hz.rot90_rows(h, w, q)
        rotated = hz.rot90_grid(field.reshape(h, w), q).ravel()
        assert np.array_equal(field[perm], rotated)


def test_central_disk_mask_geometry():
    mask = hz.central_disk_mask(16, 16)
    assert mask[8, 8] and not mask[0, 0] and not mask[0, 15]
    shrunk = hz.central_disk_mask(16, 16, shrink=3.0)
    assert shrunk.sum() < mask.sum()
    assert not (shrunk & ~mask).any()          # shrinking only removes pixels
    assert hz.central_disk_mask(4, 4, shrink=2.0).sum() <= 4


def test_stem_receptive_radius():
    # mnist: 2 convs of half-width 2 per block, blocks at strides 1 and 2:
    # 2*2*1 + 2*2*2 = 12 input pixels -> ceil(12 / 4) = 3 grid pixels
    assert hz.stem_receptive_radius(hm.mnist_config()) == 3
    cfg = tiny_config()
    assert hz.stem_receptive_radius(cfg) == 1    # one 3x3 conv, one pooling
    cfg["stem"].update({"blocks": 0, "channels": [], "dropout": []})
    assert hz.stem_receptive_radius(cfg) == 0


# ---------------------------------------------------------------------------
# the error measure itself
# ---------------------------------------------------------------------------

def test_he_error_zero_for_exactly_commuting_map():
    rng = ct.make_rng(0)
    x = rng.standard_normal((2, 8, 8))
    err = hz.he_error(lambda a: a, x, 0, 90.0, lambda f: hz.rot90_grid(f, 1))
    assert err == 0.0


def test_he_error_exact_for_conjugation_defect():
    # conj maps order +1 to order -1; claiming +1 must read |e^{-ia}-e^{ia}|
    rng = ct.make_rng(1)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def rotate(f, q=1):
        return np.exp(1j * np.pi / 2) * hz.rot90_grid(f, q)

    err_wrong = hz.he_error(np.conj, x, 1, 90.0, lambda f: hz.rot90_grid(f, 1),
                            rotate_input=rotate)
    err_right = hz.he_error(np.conj, x, -1, 90.0, lambda f: hz.rot90_grid(f, 1),
                            rotate_input=rotate)
    assert abs(err_wrong - 2.0) < 1e-12         # 2|sin(90)| exactly
    assert err_right < 1e-12


def test_he_error_mask_restricts_comparison():
    x = np.zeros((8, 8))
    mask = hz.central_disk_mask(8, 8, shrink=1.0)

    def fwd(a):
        out = a.copy()
        out[0, 0] += 1.0                        # defect outside any disk
        return out

    full = hz.he_error(fwd, x, 0, 180.0, lambda f: hz.rot90_grid(f, 2))
    masked = hz.he_error(fwd, x, 0, 180.0, lambda f: hz.rot90_grid(f, 2),
                         mask=mask)
    assert masked == 0.0 and full > 1.0


def test_phase_preservation_error_cases():
    z = np.array([1 + 1j, 2.0, 0.0, -3j])
    assert hz.phase_preservation_error(z, 2.0 * z) < 1e-15
    assert abs(hz.phase_preservation_error(z, -z) - 2.0) < 1e-12
    dead = np.array([0.0, 0.0])
    assert hz.phase_preservation_error(dead, dead) == 0.0
    # zeroed-out elements are not counted as violations
    gated = z.copy()
    gated[0] = 0.0
    assert hz.phase_preservation_error(z, gated) < 1e-15


# ---------------------------------------------------------------------------
# the lemma suite
# ---------------------------------------------------------------------------

def test_verify_all_lemmas_passes_at_fp64():
    rep = hz.verify_all_lemmas(seed=0, precision="f64")
    assert rep["all_pass"]
    assert rep["precision"] == "f64" and rep["seed"] == 0
    # 18 conv + 9 residual + 9 linear + 9 norm + 27 dot + 27 matmul
    # + 3 phase + 27 msa + 9 stem + 9 encoder + 3 logits
    assert len(rep["entries"]) == 150
    checks = {e["check"] for e in rep["entries"]}
    for name in ("lemma1_conv_lift", "lemma1_conv_full", "lemma2_residual",
                 "lemma3_equi_linear", "lemma4_layer_norm",
                 "lemma5_dot_+1-1", "lemma6_matmul_+2-1",
                 "phase_hbn_crelu", "phase_magnitude_softmax",
                 "phase_witness_legacy_cbn", "msa_harmformer_default",
                 "msa_mixing_all", "msa_cross_values", "stem_features",
                 "encoder_features", "logits_invariance"):
        assert name in checks, name
    for e in rep["entries"]:
        assert e["threshold"] > 0.0 and np.isfinite(e["error"])
        assert e["angle_deg"] in (0.0, 90.0, 180.0, 270.0)


def test_witness_reports_the_phase_flip():
    rep = hz.verify_all_lemmas(seed=0, precision="f64", config=tiny_config())
    wit = [e for e in rep["entries"] if e["witness"]]
    assert len(wit) == 1
    assert wit[0]["check"] == "phase_witness_legacy_cbn"
    # a negative scale flips phases by e^{i pi}: unit-vector distance 2
    assert abs(wit[0]["error"] - 2.0) < 1e-9
    assert wit[0]["passed"]


def test_verify_report_deterministic_and_json_clean():
    a = hz.verify_all_lemmas(seed=3, config=tiny_config())
    b = hz.verify_all_lemmas(seed=3, config=tiny_config())
    assert hz.report_json(a) == hz.report_json(b)
    assert json.loads(hz.report_json(a)) == a
    c = hz.verify_all_lemmas(seed=4, config=tiny_config())
    assert hz.report_json(a) != hz.report_json(c)


def test_order_law_matches_he_error_per_order():
    # a conv check and a patch-matrix check: one forward per quarter turn must
    # give, for every order, the bits of a separate he_error run on that order
    rng = ct.make_rng(7)
    bank = hs.HarmonicFilterBank("c", hs.ORDERS, hs.ORDERS, 2, 2, 3, rng)
    leaves = {k: ct.CTensor(v) for k, v in bank.params.items()}
    w = ct.CTensor(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))

    def conv(a):
        return hs.harmonic_conv(ct.CTensor(a), bank, leaves).data

    def linear(a):
        return enc.equi_linear(ct.CTensor(a), w).data

    cases = ((conv, hz._draw(rng, (1, 2, 8, 8)), None, lambda f, q: hz.rot90_grid(f, q)),
             (linear, hz._draw(rng, (1, 9, 4)), (3, 3),
              lambda f, q: f[:, hz.rot90_rows(3, 3, q)]))
    for fwd, x, grid, rotate_stream in cases:
        for q in (1, 2, 3):
            law = hz._order_law(fwd, x, (90 * q,),
                                lambda a, alpha: hz.rotate_orders(a, hs.ORDERS, q, grid),
                                lambda f, alpha: hz.rot90_orders(f, q, grid))
            for i, m in enumerate(hs.ORDERS):
                err = hz.he_error(lambda a: fwd(a)[:, i], x, m, 90 * q,
                                  lambda f: rotate_stream(f, q),
                                  rotate_input=lambda a: hz.rotate_orders(a, hs.ORDERS, q, grid))
                assert law[i] == (90 * q, m, err)


def test_suite_runs_each_stage_once_per_quarter_turn(monkeypatch):
    calls = {"stem": 0, "encoder": 0}

    def counted(name, forward):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return forward(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hs.Stem, "forward", counted("stem", hs.Stem.forward))
    monkeypatch.setattr(enc.Encoder, "forward", counted("encoder", enc.Encoder.forward))
    hz.verify_all_lemmas(seed=0, config=tiny_config())
    # stem: identity plus 3 quarter turns, whose features the logits check
    # reuses; encoder: the same 4 for logits after 4 for the stack check
    assert calls == {"stem": 4, "encoder": 8}
    calls["stem"] = 0
    hz.stem_continuous_check(seed=0, config=tiny_config())
    assert calls["stem"] == 2


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_suite_feeds_the_model_images_at_its_precision(monkeypatch, precision):
    dtypes = []
    stem_features = hm.Model.stem_features

    def recorded(self, images, *args, **kwargs):
        dtypes.append(images.data.dtype)
        return stem_features(self, images, *args, **kwargs)

    monkeypatch.setattr(hm.Model, "stem_features", recorded)
    assert hz.verify_all_lemmas(seed=0, precision=precision, config=tiny_config())["all_pass"]
    assert dtypes == [ct.DTYPES[precision][0]] * 4


def stemless_config():
    """A model whose image meets no convolution: the lifted image goes
    straight to the encoder."""
    cfg = hm.mnist_config()
    cfg["stem"].update(blocks=0, channels=[], dropout=[])
    cfg["input"].update(base_size=16, pad=0, upscale_factor=1)
    return cfg


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stemless_f32_model_passes_the_suite(seed):
    # the lift makes its encoder compute in complex128; a complex64 lift puts
    # seed 1's logits over grid_logits (1.0e-6 at 90, 1.3e-6 at 270 degrees)
    rep = hz.verify_all_lemmas(seed=seed, precision="f32", config=stemless_config())
    assert rep["all_pass"]
    assert max(e["error"] for e in rep["entries"] if e["check"] == "logits_invariance") < 1e-12


def test_verify_rejects_unknown_precision():
    with pytest.raises(ConfigError, match="precision"):
        hz.verify_all_lemmas(precision="f16")


# ---------------------------------------------------------------------------
# frozen continuous-angle bound
# ---------------------------------------------------------------------------

def test_smooth_field_band_limited_and_deterministic():
    a = hz.smooth_field(0, 32)
    b = hz.smooth_field(0, 32)
    assert a.shape == (1, 1, 32, 32)
    assert np.array_equal(a, b)
    assert a.min() == 0.0 and a.max() == 1.0
    assert not np.array_equal(a, hz.smooth_field(1, 32))


def test_stem_continuous_check_under_frozen_bound():
    res = hz.stem_continuous_check(seed=0)
    assert res["passed"]
    for m in ("-1", "0", "1"):
        assert 0.0 < res["errors"][m] < res["threshold"]


# ---------------------------------------------------------------------------
# stability sweep
# ---------------------------------------------------------------------------

def toy_dataset(n=6, size=8, seed=0):
    rng = ct.make_rng(seed)
    return hdata.LabeledImageSet(
        rng.random((n, 1, size, size)).astype(np.float32),
        rng.integers(0, 3, n).astype(np.int64), "toy", {})


def test_stability_sweep_grid_angles_match_exactly():
    model = hm.build(tiny_config(), seed=0)
    curve = hz.stability_sweep(model, toy_dataset(), angle_step=90)
    assert curve["angles_deg"] == [0, 90, 180, 270]
    assert len(curve["accuracy"]) == 4
    # logits are invariant at grid angles, so accuracy cannot move
    assert len(set(curve["accuracy"])) == 1
    assert curve["samples"] == 6 and curve["dataset"] == "toy"


def test_stability_sweep_deterministic_and_limited():
    model = hm.build(tiny_config(), seed=0)
    ds = toy_dataset()
    a = hz.stability_sweep(model, ds, angle_step=120)
    b = hz.stability_sweep(model, ds, angle_step=120)
    assert a == b
    c = hz.stability_sweep(model, ds, angle_step=180, limit=2)
    assert c["samples"] == 2


@pytest.mark.parametrize("limit", [0, -1])
def test_stability_sweep_rejects_a_limit_below_one(limit):
    # a limit is a sample count, not a slice end: -1 would drop the last
    # image and 0 would report accuracy over no samples
    model = hm.build(tiny_config(), seed=0)
    with pytest.raises(ConfigError, match="limit"):
        hz.stability_sweep(model, toy_dataset(), angle_step=90, limit=limit)


def test_stability_sweep_rejects_bad_step():
    # a step must be a positive divisor of 360: 0 would divide by zero, and
    # a negative divisor would pass the divisibility test and sweep nothing
    model = hm.build(tiny_config(), seed=0)
    for step in (100, 0, -15, -90):
        with pytest.raises(ConfigError, match="angle_step"):
            hz.stability_sweep(model, toy_dataset(), angle_step=step)


def test_stability_sweep_rejects_labels_outside_the_classes():
    # counted as misses, they would read as accuracy with no error
    model = hm.build(tiny_config(), seed=0)
    ds = toy_dataset(4)
    ds.labels[:] = [0, 1, 12, -1]
    with pytest.raises(ShapeError, match=r"toy labels must lie in \[0, 3\), got 12"):
        hz.stability_sweep(model, ds, angle_step=180)
    ds.labels[:] = [0, 1, 2, -1]
    with pytest.raises(ShapeError, match="got -1"):
        hz.stability_sweep(model, ds, angle_step=180)
    # only the labels the limit keeps are read
    assert hz.stability_sweep(model, ds, angle_step=180, limit=3)["samples"] == 3


@pytest.mark.parametrize("batch", [0, -1])
def test_inference_rejects_a_chunk_below_one(batch):
    model = hm.build(tiny_config(), seed=0)
    ds = toy_dataset()
    with pytest.raises(ConfigError, match="batch"):
        hz.predict(model, ds.images, batch)
    with pytest.raises(ConfigError, match="batch"):
        hz.stability_sweep(model, ds, angle_step=90, batch=batch)


def test_predict_batching_consistent():
    model = hm.build(tiny_config(), seed=0)
    imgs = toy_dataset(5).images
    assert np.array_equal(hz.predict(model, imgs, batch=2),
                          hz.predict(model, imgs, batch=64))


def test_predict_forwards_each_batch_slice_once_in_order(monkeypatch):
    # one Model.forward per slice, returning before the next starts: a
    # wrapper of Model.forward sees the rows in input order, once each,
    # however the forward splits its batch inside
    model = hm.build(tiny_config(), seed=0)
    seen, real = [], hm.Model.forward

    def forward(self, images, *args, **kwargs):
        seen.append(np.array(images.data))
        return real(self, images, *args, **kwargs)

    monkeypatch.setattr(hm.Model, "forward", forward)
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    imgs = toy_dataset(37).images
    hz.predict(model, imgs, batch=16)
    assert [len(s) for s in seen] == [16, 16, 5]
    assert np.concatenate(seen).tobytes() == imgs.tobytes()


def test_inference_defaults_to_bounded_chunks(monkeypatch):
    # predict, stability_sweep and error_rate (harmnet eval / sweep) forward
    # at most 16 images at once unless told otherwise, however many they get
    model = hm.build(tiny_config(), seed=0)
    rows = []
    real = hm.Model.forward

    def forward(self, images, leaves=None, train=False, rng=None):
        rows.append(len(getattr(images, "data", images)))
        return real(self, images, leaves, train, rng)

    monkeypatch.setattr(hm.Model, "forward", forward)
    ds = toy_dataset(40)
    hz.predict(model, ds.images)
    assert rows == [16, 16, 8]
    hz.stability_sweep(model, ds, angle_step=180)
    tr.error_rate(model, ds.images, ds.labels)
    assert max(rows) == 16 and sum(rows) == 40 * 4


def test_curve_csv_format():
    csv = hz.curve_csv({"angles_deg": [0, 180], "accuracy": [0.5, 0.25]})
    assert csv == "angle_deg,accuracy\n0,0.500000\n180,0.250000\n"


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_cost_report_matches_hand_count():
    rep = hz.cost_report(tiny_config(), measure=False)
    # stem: both banks are tap GEMMs, H*W * fan-in * fan-out * taps: the
    # lifting conv 8^2 * 1 * 6 * 5, the projection 8^2 * 1 * 6 * 1
    assert rep["stem_banks"] == [
        {"name": "stem.b0.conv0", "size": 8, "route": "direct", "macs": 1920, "fft_points": 0},
        {"name": "stem.b0.proj", "size": 8, "route": "direct", "macs": 384, "fft_points": 0}]
    assert rep["stem_macs"] == 1920 + 384
    # encoder: attention heads * n^2 * d_h * (count + n_v), one group of
    # count = n_v = 3 orders, 1 * 16^2 * 2 * 6 (the scores and the weighted
    # values); proj 3 * 16 * 2 * (4*1*2 + 2*2*2)
    assert rep["encoder_attention_macs"] == 3072
    assert rep["encoder_projection_macs"] == 1536
    assert rep["head_macs"] == 3 * 2 * 3
    assert rep["total_macs"] == sum(
        rep[k] for k in ("stem_macs", "encoder_macs", "head_macs"))
    assert rep["patches"] == 16


def test_cost_report_attention_scales_quartically_in_side():
    small = hz.cost_report(tiny_config(), measure=False)
    cfg = tiny_config()
    cfg["input"]["base_size"] = 16
    big = hz.cost_report(cfg, measure=False)
    assert big["patches"] == 4 * small["patches"]
    assert big["encoder_attention_macs"] == 16 * small["encoder_attention_macs"]


def test_cost_report_deterministic_without_measurement():
    a = hz.cost_report(tiny_config(), measure=False)
    b = hz.cost_report(tiny_config(), measure=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "forward_seconds" not in a


def test_cost_report_measures_forward_time():
    rep = hz.cost_report(tiny_config(), measure=True)
    assert rep["forward_seconds"] > 0.0


def test_cost_report_times_a_warm_forward(monkeypatch):
    # the model's first forward imports scipy.fft and fills the basis-spectra
    # cache, so the timed one must come after it
    events, forward, clock = [], hm.Model.forward, hz.time.perf_counter
    monkeypatch.setattr(hm.Model, "forward",
                        lambda self, *a, **k: events.append("forward") or forward(self, *a, **k))
    monkeypatch.setattr(hz.time, "perf_counter", lambda: events.append("clock") or clock())
    hz.cost_report(tiny_config(), measure=True)
    assert events == ["forward", "clock", "forward", "clock"]


def test_mnist_cost_counts_the_routes_that_run_at_batch_1():
    # F = 68^2 and 36^2; spectrum-first pays F * P * Ci * nr * (1 + Co),
    # with P = 9 connections and nr = 3 radii
    rep = hz.cost_report(hm.mnist_config(), measure=False)
    rows = [(b["name"], b["size"], b["route"], b["macs"], b["fft_points"])
            for b in rep["stem_banks"]]
    assert rows == [
        ("stem.b0.conv0", 64, "direct", 64 * 64 * 1 * 24 * 13, 0),
        ("stem.b0.conv1", 64, "spectrum_first", 68 * 68 * 9 * 8 * 3 * 9, 48 * 68 * 68),
        ("stem.b0.proj", 64, "direct", 64 * 64 * 1 * 24 * 1, 0),
        ("stem.b1.conv0", 32, "spectrum_first", 36 * 36 * 9 * 8 * 3 * 17, 72 * 36 * 36),
        ("stem.b1.conv1", 32, "spectrum_first", 36 * 36 * 9 * 16 * 3 * 17, 96 * 36 * 36),
        ("stem.b1.proj", 32, "direct", 32 * 32 * 24 * 48 * 1, 0)]
    assert rep["stem_macs"] == 25_821_696


@pytest.mark.parametrize("strategy, attention", [("harmformer_default", 18_874_368),
                                                  ("mixing_all", 56_623_104),
                                                  ("cross_values", 12_582_912)])
def test_encoder_cost_counts_the_gemms_the_encoder_runs(monkeypatch, strategy, attention):
    # every encoder multiply-add is a complex_matmul: the projections and,
    # per scored group, its scores and its weighted values
    cfg = hm.mnist_config()
    cfg["encoder"]["strategy"] = strategy
    rep = hz.cost_report(cfg, measure=False)
    assert rep["encoder_attention_macs"] == attention
    model = hm.build(cfg, seed=0, precision="f64")
    macs, matmul = [], ct.complex_matmul

    def counted(a, b):
        out = matmul(a, b)
        macs.append(out.data.size * a.shape[-1])
        return out

    monkeypatch.setattr(ct, "complex_matmul", counted)
    p = hz._draw(ct.make_rng(0), (1, model.grid_shape[0] ** 2, model.d))
    model.encoder.forward(ct.CTensor(p), model.leaves())
    assert sum(macs) == rep["encoder_macs"]


def test_mnist_cost_head_term():
    rep = hz.cost_report(hm.mnist_config(), measure=False)
    assert rep["head_macs"] == 3 * 16 * 10
    assert rep["input_size"] == 64 and rep["patches"] == 256
