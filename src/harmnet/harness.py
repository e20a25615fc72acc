"""Executable equivariance checks, stability sweeps, and cost accounting.

Every check compares F_m(rot(x)) against e^{i m alpha} rot(F_m(x)) as a
relative L2 error.  Grid rotations (90-degree multiples) are exact
permutations, so those checks carry no interpolation error and run at tight
thresholds; continuous angles are only meaningful for image-domain inputs
and are measured on a central disk shrunk by the receptive field.  Features
are plain (B, O, ...) arrays with the order axis next to the batch axis:
(B, O, C, H, W) maps and (B, O, n, d) patch matrices.  Patch matrices never
rotate by non-grid angles (a 16x16 grid has no exact 45-degree rotation);
continuous-angle claims at that level are phase-law checks.

Each check is stated at the level where it is literally true.  In
particular, a magnitude normalization whose output can go negative (the
legacy batch norm with a negative scale) still satisfies the complex-feature
law exactly — the flaw it demonstrates is a phase-preservation violation
(the phase field flips by pi wherever the magnitude path goes negative), so
that witness is reported by the phase check, not the feature-law check.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import ctensor as ct
from . import data as hdata
from . import encoder as enc
from . import model as hm
from . import stem as hs
from .constants import EPS
from .errors import ConfigError

TOLERANCES = {
    "version": 1,
    "grid_conv": 1e-10,       # single harmonic conv at 90-degree multiples, fp64
    "grid_lemma": 1e-7,       # every other layer/stage law at 90-degree multiples
    "grid_logits": 1e-6,      # end-to-end logit invariance at 90-degree multiples
    "phase_preservation": 1e-12,
    "witness_min": 0.5,       # a violation witness must be at least this large
    "continuous_stem": 0.05,  # stem at 45 degrees, bilinear, x2-upscaled input
    "gradient": 1e-4,         # finite-difference relative error
}


# ---------------------------------------------------------------------------
# rotation actions (numpy level)
# ---------------------------------------------------------------------------

def rot90_grid(arr: np.ndarray, quarter_turns: int) -> np.ndarray:
    """rot_{90 q} on the last two axes; positive turns +x toward +y."""
    return np.ascontiguousarray(np.rot90(arr, -quarter_turns, axes=(-2, -1)))


def rot90_rows(h: int, w: int, quarter_turns: int) -> np.ndarray:
    """Row permutation a grid rotation induces on row-major (h*w) patches."""
    return np.rot90(np.arange(h * w).reshape(h, w), -quarter_turns).ravel()


def central_disk_mask(h: int, w: int, shrink: float = 0.0) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = min(h, w) / 2.0 - shrink
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2


def stem_receptive_radius(config: dict) -> int:
    """Receptive-field radius of the stem in output-grid pixels."""
    st = config["stem"]
    half = st["kernel_size"] // 2
    r = st["blocks"]
    radius_in = sum(st["convs_per_block"] * half * 2 ** i for i in range(r))
    return int(np.ceil(radius_in / 2 ** r)) if r else 0


# ---------------------------------------------------------------------------
# the error measure
# ---------------------------------------------------------------------------

def he_error(fwd, x, m: int, alpha_deg: float, rotate_features,
             mask: np.ndarray | None = None, rotate_input=None) -> float:
    """Relative L2 distance between F_m(rot(x)) and e^{i m alpha} rot(F_m(x)).

    `fwd` maps the input to one order-m feature array; `rotate_features`
    spatially rotates a feature array by alpha; `rotate_input` (defaults to
    the same procedure) rotates the input.  `mask` restricts the comparison
    to a spatial region (boolean over the trailing feature axes).
    """
    rotate_input = rotate_features if rotate_input is None else rotate_input
    got = np.asarray(fwd(rotate_input(x)))
    return _law_error(got, np.asarray(rotate_features(fwd(x))), m, alpha_deg, mask)


def _law_error(got: np.ndarray, moved: np.ndarray, m: int, alpha_deg: float,
               mask: np.ndarray | None) -> float:
    """he_error's comparison of F_m(rot(x)) with e^{i m alpha} times the
    rotated features `moved`."""
    want = np.exp(1j * m * np.deg2rad(alpha_deg)) * moved
    if mask is not None:
        got, want = got[..., mask], want[..., mask]
    return _rel(got, want)


def _order_law(fwd, x, angles, rotate_input, rotate_features,
               mask: np.ndarray | None = None) -> list:
    """he_error for every order at every angle, as [(angle, m, error)], from
    one forward of x and one forward per angle.

    `fwd` maps an input to its (B, O, ...) output over ORDERS; the rotations
    take (array, angle) and act on whole order-axis arrays.
    """
    base = fwd(x)
    errors = []
    for alpha in angles:
        got, moved = fwd(rotate_input(x, alpha)), rotate_features(base, alpha)
        errors += [(alpha, m, _law_error(got[:, i], moved[:, i], m, alpha, mask))
                   for i, m in enumerate(hs.ORDERS)]
    return errors


def phase_preservation_error(before: np.ndarray, after: np.ndarray,
                             tiny: float = 1e-9) -> float:
    """Max |unit(after) - unit(before)| over elements alive on both sides."""
    alive = (np.abs(before) > tiny) & (np.abs(after) > tiny)
    if not alive.any():
        return 0.0
    ub = before[alive] / np.abs(before[alive])
    ua = after[alive] / np.abs(after[alive])
    return float(np.max(np.abs(ua - ub)))


# ---------------------------------------------------------------------------
# the group action on order-axis arrays
# ---------------------------------------------------------------------------

def rot90_orders(arr: np.ndarray, quarter_turns: int, grid_shape=None) -> np.ndarray:
    """Spatial part of the action on (B, O, ...) arrays: feature maps
    (B, O, C, H, W) rotate their last two axes; patch matrices (B, O, n, d)
    from an (h, w) `grid_shape` permute their rows."""
    if grid_shape is None:
        return rot90_grid(arr, quarter_turns)
    return np.take(arr, rot90_rows(*grid_shape, quarter_turns), axis=2)


def rotate_orders(arr: np.ndarray, orders, quarter_turns: int,
                  grid_shape=None) -> np.ndarray:
    """Group action on an order-axis array: rotation plus the phase
    e^{i m q pi/2} on the slice of each order m in `orders`."""
    moved = rot90_orders(arr, quarter_turns, grid_shape)
    return np.stack([np.exp(1j * m * quarter_turns * np.pi / 2) * moved[:, i]
                     for i, m in enumerate(orders)], axis=1)


def _draw(rng: np.random.Generator, shape: tuple, n: int = len(hs.ORDERS)) -> np.ndarray:
    """n complex normal arrays of `shape`, drawn in turn, stacked on axis 1."""
    return np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                     for _ in range(n)], axis=1)


# ---------------------------------------------------------------------------
# the lemma suite
# ---------------------------------------------------------------------------

def _entry(check, order, angle, error, threshold, witness=False):
    passed = error >= threshold if witness else error < threshold
    return {"check": check, "order": order, "angle_deg": float(angle),
            "error": float(error), "threshold": float(threshold),
            "witness": bool(witness), "passed": bool(passed)}


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    num = np.linalg.norm((got - want).ravel())
    return float(num / max(EPS, np.linalg.norm(got.ravel())))


def verify_all_lemmas(seed: int = 0, precision: str = "f64",
                      config: dict | None = None,
                      model: hm.Model | None = None) -> dict:
    """Run every layer-law, phase-preservation, and end-to-end check at
    90-degree multiples; deterministic in (seed, precision, config).

    Pass `model` to check an existing (e.g. trained) instance instead of a
    fresh build — load checkpoints at f64 so the grid thresholds apply.
    """
    if precision not in ct.DTYPES:
        raise ConfigError(f"precision must be one of {sorted(ct.DTYPES)}")
    if model is not None:
        config = model.config
    else:
        config = hm.validate_config(config) if config is not None else hm.mnist_config()
    entries = []
    quarters = (1, 2, 3)

    def grid_law(check, fwd, x, grid_shape=None, rotate_input=None,
                 threshold=TOLERANCES["grid_lemma"]):
        """Entries of `check` for every order at every quarter turn of `fwd`,
        a map of tensors to (B, O, ...) tensors over ORDERS, at the array x;
        patch matrices (B, O, n, d) have rows from an (h, w) `grid_shape`.
        `rotate_input` takes (array, quarter turns); by default it is the
        group action on x as a (B, O, ...) array over ORDERS."""
        if rotate_input is None:
            rotate_input = lambda a, q: rotate_orders(a, hs.ORDERS, q, grid_shape)
        for alpha, m, err in _order_law(
                lambda a: fwd(ct.CTensor(a)).data, x, [90 * q for q in quarters],
                lambda a, alpha: rotate_input(a, alpha // 90),
                lambda f, alpha: rot90_orders(f, alpha // 90, grid_shape)):
            entries.append(_entry(check, m, alpha, err, threshold))

    # Lemma 1: harmonic convolution sums rotation orders (lifting + full)
    rng = ct.derive_rng(seed, "lemma1")
    for tag, in_orders, c_in in (("lift", (0,), 1), ("full", hs.ORDERS, 2)):
        bank = hs.HarmonicFilterBank(f"c_{tag}", in_orders, hs.ORDERS, c_in, 2, 3, rng)
        leaves = {k: ct.CTensor(v) for k, v in bank.params.items()}
        x = _draw(rng, (1, c_in, 8, 8), len(in_orders))
        grid_law(f"lemma1_conv_{tag}", lambda t: hs.harmonic_conv(t, bank, leaves), x,
                 rotate_input=lambda a, q: rotate_orders(a, in_orders, q),
                 threshold=TOLERANCES["grid_conv"])

    # Lemma 2: residual addition (the stem's ct.add) preserves the per-order
    # law; the two summands travel as one batch of two
    rng = ct.derive_rng(seed, "lemma2")
    pair = np.concatenate([_draw(rng, (1, 2, 6, 6)), _draw(rng, (1, 2, 6, 6))])
    grid_law("lemma2_residual", lambda t: ct.add(ct.narrow(t, 0, 0, 1), ct.narrow(t, 0, 1, 1)),
             pair)

    # Lemmas 3/4: shared linear map and layer norm on patch matrices
    rng = ct.derive_rng(seed, "lemma34")
    p = _draw(rng, (1, 9, 4))
    w = ct.CTensor(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    grid_law("lemma3_equi_linear", lambda s: enc.equi_linear(s, w), p, (3, 3))
    grid_law("lemma4_layer_norm", enc.he_layer_norm, p, (3, 3))

    # Lemma 5: dot products subtract orders; Lemma 6: matmul adds them
    rng = ct.derive_rng(seed, "lemma56")
    f = {m: rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
         for m in hs.ORDERS}
    for q in quarters:
        perm = rot90_rows(3, 3, q)
        ph = {m: np.exp(1j * m * q * np.pi / 2) for m in (-2, -1, 0, 1, 2)}
        for m1 in hs.ORDERS:
            for m2 in hs.ORDERS:
                s = f[m1] @ f[m2].conj().T
                sr = (ph[m1] * f[m1][perm]) @ (ph[m2] * f[m2][perm]).conj().T
                err = _rel(sr, ph[m1] * np.conj(ph[m2]) * s[perm][:, perm])
                entries.append(_entry(f"lemma5_dot_{m1:+d}{m2:+d}", m1 - m2,
                                      90 * q, err, TOLERANCES["grid_lemma"]))
                av = s @ f[m2]
                avr = (ph[m1 - m2] * s[perm][:, perm]) @ (ph[m2] * f[m2][perm])
                err = _rel(avr, ph[m1] * av[perm])
                entries.append(_entry(f"lemma6_matmul_{m1 - m2:+d}{m2:+d}", m1,
                                      90 * q, err, TOLERANCES["grid_lemma"]))

    # phase preservation: fused norm keeps phases, softmax keeps phases,
    # and the legacy norm with a negative scale flips them (the witness)
    rng = ct.derive_rng(seed, "phase")
    z = rng.standard_normal((4, 2, 4, 4)) + 1j * rng.standard_normal((4, 2, 4, 4))
    lone = ct.CTensor(z[:, None])         # one order-0 stream
    state = hs.HBatchNormState("pp", 2, orders=(0,))
    leaves = {"pp.a": ct.CTensor(np.ones(2)), "pp.b": ct.CTensor(np.full(2, 0.1))}
    out = hs.hbn_crelu(lone, state, leaves, train=True).data[:, 0]
    entries.append(_entry("phase_hbn_crelu", 0, 0.0,
                          phase_preservation_error(z, out),
                          TOLERANCES["phase_preservation"]))
    s = ct.CTensor(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    a_mat = enc.magnitude_softmax(s).data
    entries.append(_entry("phase_magnitude_softmax", 0, 0.0,
                          phase_preservation_error(s.data, a_mat),
                          TOLERANCES["phase_preservation"]))
    neg = {"pp.a": ct.CTensor(np.full(2, -1.0)), "pp.b": ct.CTensor(np.zeros(2))}
    flipped = hs.legacy_cbn(lone, state, neg, train=True).data[:, 0]
    entries.append(_entry("phase_witness_legacy_cbn", 0, 0.0,
                          phase_preservation_error(z, flipped),
                          TOLERANCES["witness_min"], witness=True))

    # attention (every strategy) on synthesized matrices, with a live RPE bias
    rng = ct.derive_rng(seed, "msa")
    blk = enc.EncoderBlock("vb", 4, 2, (3, 3), rng, head_dim=2)
    params = dict(blk.params)
    params["vb.rpe.bias"] = rng.standard_normal((2, 16)) * 0.3
    leaves = {k: ct.CTensor(v) for k, v in params.items()}
    px = _draw(rng, (1, 9, 4))
    for strategy in enc.STRATEGIES:
        grid_law(f"msa_{strategy}",
                  lambda s: enc.msa_forward(s, leaves, "vb", 2, strategy, blk.rpe),
                  px, (3, 3))

    # full model: stem features, encoder stack on synthesized input, logits
    if model is None:
        model = hm.build(config, seed, precision)
    leaves = model.leaves()
    rng = ct.derive_rng(seed, "model")
    img = rng.random((1, config["input"]["channels"], model.input_size,
                      model.input_size)).astype(ct.DTYPES[precision][0])
    stem_maps = []          # the stem's features of img, then of each quarter turn

    def stem_streams(image):
        stem_maps.append(model.stem_features(image, leaves))
        return stem_maps[-1]

    grid_law("stem_features", stem_streams, img, rotate_input=rot90_grid)
    gh, gw = model.grid_shape
    grid_law("encoder_features", lambda s: model.encoder.forward(s, leaves),
              _draw(rng, (1, gh * gw, model.d)), (gh, gw))

    base_logits, *turned = (model.classify(x, leaves).data for x in stem_maps)
    for q, rot in zip(quarters, turned):
        entries.append(_entry("logits_invariance", None, 90 * q,
                              _rel(rot, base_logits), TOLERANCES["grid_logits"]))

    entries.sort(key=lambda e: (e["check"], e["order"] is None,
                                e["order"] or 0, e["angle_deg"]))
    return {
        "version": TOLERANCES["version"],
        "seed": seed,
        "precision": precision,
        "config_hash": hm.config_hash(config),
        "mask_policy": "none (grid rotations are exact)",
        "entries": entries,
        "all_pass": all(e["passed"] for e in entries),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def smooth_field(seed: int, size: int, components: int = 6,
                 max_cycles: float = 1.5) -> np.ndarray:
    """Band-limited random image (1, 1, size, size) in [0, 1].

    Continuous-angle checks assume interpolation error is small, which holds
    for smooth imagery only — hard-edged inputs alias under bilinear rotation
    and void the tolerance, so the frozen regression bound is stated on
    fields with at most max_cycles cycles per image side.
    """
    rng = ct.derive_rng(seed, "smooth")
    ys, xs = np.mgrid[0:size, 0:size] / size
    img = np.zeros((1, 1, size, size))
    for _ in range(components):
        fy, fx = rng.uniform(-max_cycles, max_cycles, 2)
        img[0, 0] += rng.uniform(0.5, 1.0) * np.cos(
            2 * np.pi * (fy * ys + fx * xs) + rng.uniform(0, 2 * np.pi))
    return (img - img.min()) / (img.max() - img.min())


def stem_continuous_check(seed: int = 0, precision: str = "f64",
                          config: dict | None = None,
                          angle_deg: float = 45.0) -> dict:
    """Frozen continuous-angle stem check: per-order relative L2 error on a
    band-limited field rotated at the upscaled resolution, compared on the
    central disk shrunk by the stem's receptive-field radius.
    """
    config = hm.validate_config(config) if config is not None else hm.mnist_config()
    model = hm.build(config, seed, precision)
    leaves = model.leaves()
    size, (gh, gw) = model.input_size, model.grid_shape
    mask = central_disk_mask(gh, gw, shrink=float(stem_receptive_radius(config)))
    spec = hdata.RotationSpec(angle_deg, "bilinear")
    img = smooth_field(seed, size)

    def rotate_features(f, alpha):
        return hdata.rotate_image(f.real, spec) + 1j * hdata.rotate_image(f.imag, spec)

    errors = {m: err for _, m, err in _order_law(
        lambda x: model.stem_features(ct.CTensor(x), leaves).data, img, (angle_deg,),
        lambda x, alpha: hdata.rotate_image(x, spec), rotate_features, mask=mask)}
    return {
        "angle_deg": float(angle_deg),
        "seed": seed,
        "precision": precision,
        "errors": {str(m): errors[m] for m in hs.ORDERS},
        "threshold": TOLERANCES["continuous_stem"],
        "passed": all(e < TOLERANCES["continuous_stem"] for e in errors.values()),
    }


# ---------------------------------------------------------------------------
# stability sweep
# ---------------------------------------------------------------------------

# images per inference forward unless a caller says otherwise: two of the
# forward's 8-image chunks, one per thread; the chunks bound its memory (f32
# mnist_config, tracemalloc peak 107 MiB at 16 images and at 64)
PREDICT_BATCH = 16


def _check_batch(batch: int) -> None:
    if batch < 1:
        raise ConfigError(f"batch must be at least 1, got {batch}")


def predict(model: hm.Model, images: np.ndarray, batch: int = PREDICT_BATCH) -> np.ndarray:
    """Argmax predictions for preprocessed images: one `Model.forward` per
    consecutive slice of `batch` images, in order, each returning before the
    next starts (the forward itself may split a slice into chunks of
    `model.INFERENCE_CHUNK` images and run them on two threads)."""
    _check_batch(batch)
    leaves = model.leaves()
    out = []
    for i in range(0, len(images), batch):
        logits = model.forward(ct.CTensor(images[i:i + batch]), leaves)
        out.append(np.argmax(logits.data, axis=1))
    return np.concatenate(out) if out else np.zeros(0, np.int64)


def stability_sweep(model: hm.Model, dataset, angle_step: int = 15,
                    interpolation: str = "bilinear", limit: int | None = None,
                    batch: int = PREDICT_BATCH) -> dict:
    """Accuracy at every rotation angle in [0, 360) with the given step.

    The dataset holds raw (unpadded, unscaled) images; each angle's copy is
    rotated first, then preprocessed exactly like training inputs.  A label
    outside [0, classes) raises ShapeError before any forward.
    """
    if angle_step <= 0 or 360 % angle_step:
        raise ConfigError(f"angle_step must be a positive divisor of 360, got {angle_step}")
    _check_batch(batch)
    if limit is not None and limit < 1:
        raise ConfigError(f"limit must be at least 1, got {limit}")
    images, labels = dataset.images[:limit], dataset.labels[:limit]
    hdata.check_labels(labels, model.head.classes, f"{dataset.split} labels")
    inp = model.config["input"]
    angles, accuracy = [], []
    for angle in range(0, 360, angle_step):
        spec = hdata.RotationSpec(angle, interpolation)
        prepped = hdata.preprocess(hdata.rotate_image(images, spec), inp["pad"],
                                   inp["upscale_factor"])
        preds = predict(model, prepped, batch)
        angles.append(angle)
        accuracy.append(float(np.mean(preds == labels)) if len(labels) else 0.0)
    return {
        "angles_deg": angles,
        "accuracy": accuracy,
        "dataset": dataset.split,
        "samples": int(len(labels)),
        "interpolation": interpolation,
        "config_hash": hm.config_hash(model.config),
    }


def curve_csv(curve: dict) -> str:
    lines = ["angle_deg,accuracy"]
    for a, acc in zip(curve["angles_deg"], curve["accuracy"]):
        lines.append(f"{a},{acc:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def cost_report(config: dict, measure: bool = True, seed: int = 0) -> dict:
    """Complex multiply-add counts per stage plus (optionally) the measured
    wall time of one batch-1 forward pass, after an untimed one.

    The stem counts what runs at batch 1: `stem_banks` holds each bank's
    `hs.conv_plan`, and `stem_macs` sums their multiply-adds.  Per encoder
    block over n patches, with d_h = patch_dim, each of the strategy's
    `enc.score_groups` costs heads * n^2 * d_h * (count + n_v): its scores
    and its weighted values; the projections cost o * n * d * (4 * heads *
    d_h + 2 * mlp_ratio * d).
    """
    cfg = hm.validate_config(config)
    en, inp = cfg["encoder"], cfg["input"]
    size = hm.input_size(inp)
    n_orders = len(hs.ORDERS)
    model = hm.build(cfg, seed)
    banks = []
    for i, blk in enumerate(model.stem.blocks):
        s = size >> i
        banks += [{"name": bank.name, "size": s, **hs.conv_plan(bank, 1, s, s)}
                  for bank in [c for c, _ in blk["convs"]] + [blk["proj"]] if bank is not None]
    stem_macs = sum(b["macs"] for b in banks)
    n_patches = model.grid_shape[0] * model.grid_shape[1]
    d = model.d
    widths = sum(count + n_v for _, _, count, _, _, n_v
                 in enc.score_groups(en["strategy"], hs.ORDERS).values())
    attn = en["heads"] * n_patches ** 2 * en["patch_dim"] * widths
    proj = n_orders * n_patches * d * (4 * en["heads"] * en["patch_dim"]
                                       + 2 * en["mlp_ratio"] * d)
    encoder_macs = en["blocks"] * (attn + proj)
    head_macs = n_orders * d * cfg["head"]["classes"]
    report = {
        "config_hash": hm.config_hash(cfg),
        "input_size": size,
        "patches": n_patches,
        "stem_banks": banks,
        "stem_macs": stem_macs,
        "encoder_attention_macs": int(en["blocks"] * attn),
        "encoder_projection_macs": int(en["blocks"] * proj),
        "encoder_macs": int(encoder_macs),
        "head_macs": int(head_macs),
        "total_macs": int(stem_macs + encoder_macs + head_macs),
    }
    if measure:
        x = ct.derive_rng(seed, "cost").random(
            (1, inp["channels"], size, size))
        # untimed: the first forward also imports scipy.fft and fills the
        # basis-spectra cache
        model.forward(x)
        t0 = time.perf_counter()
        model.forward(x)
        report["forward_seconds"] = time.perf_counter() - t0
    return report
