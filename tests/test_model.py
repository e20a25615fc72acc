"""Model assembly tests: config validation, deterministic builds, parameter
counting, and the checkpoint round trip."""

import binascii
import json
import multiprocessing
import os
import struct
import threading

import numpy as np
import pytest

import harmnet.ctensor as ct
import harmnet.model as hm
from harmnet.errors import ConfigError, IntegrityError, ShapeError
from test_ctensor import spy_split_threads


def tiny_config():
    """Small enough to forward in milliseconds, same shape constraints."""
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


def test_reference_config_builds_and_classifies():
    m = hm.build(hm.mnist_config(), seed=0)
    assert m.input_size == 64 and m.grid_shape == (16, 16) and m.d == 16
    x = ct.make_rng(1).random((1, 1, 64, 64))
    logits = m.forward(x)
    assert logits.data.shape == (1, 10)
    assert np.all(np.isfinite(logits.data))


def test_reference_param_count_in_band():
    m = hm.build(hm.mnist_config(), seed=0)
    n = hm.count_params(m)
    assert 27_000 <= n <= 33_000
    # derived breakdown: lifting 96 + convs 2304+4608+9216 + norms 96 +
    # projections 16+768 + encoder 3*4176 + head 490
    assert n == 30_122


def test_shallow_config_grid():
    m = hm.build(hm.shallow_config(), seed=0)
    assert m.grid_shape == (32, 32) and m.d == 16


def test_build_is_deterministic_in_seed():
    a = hm.build(tiny_config(), seed=7)
    b = hm.build(tiny_config(), seed=7)
    c = hm.build(tiny_config(), seed=8)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k]), k
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_classifier_only_config():
    cfg = tiny_config()
    cfg["stem"].update({"blocks": 0, "channels": [], "dropout": []})
    cfg["encoder"].update({"blocks": 0, "patch_dim": 1})
    cfg["input"]["base_size"] = 4
    m = hm.build(cfg, seed=0)
    assert hm.count_params(m) == 3 * 1 * 3 + 3
    logits = m.forward(np.ones((2, 1, 4, 4)))
    assert logits.data.shape == (2, 3)


def test_complex_weight_counts_twice():
    m = hm.build(tiny_config(), seed=0)
    by_hand = sum(v.size * (2 if np.iscomplexobj(v) else 1) for v in m.params.values())
    assert hm.count_params(m) == by_hand
    assert any(np.iscomplexobj(v) for v in m.params.values())


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c["stem"].update(channels=[2, 4]), "channel widths"),
    (lambda c: c["stem"].update(kernel_size=4), "odd"),
    (lambda c: c["encoder"].update(strategy="magic"), "strategy"),
    (lambda c: c["head"].update(classes=1), "classes"),
    (lambda c: c["input"].update(base_size=7), "even"),
    (lambda c: c["encoder"].update(dropout=1.5), "dropout must lie"),
    (lambda c: c["stem"].update(bogus=1), "unknown"),
    (lambda c: c["encoder"].pop("heads"), "missing"),
])
def test_validation_names_the_constraint(mutate, fragment):
    cfg = tiny_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=fragment):
        hm.validate_config(cfg)


def test_config_normalization_stabilizes_hash():
    a = tiny_config()
    b = tiny_config()
    b["stem"]["dropout"] = [0]          # int spelling of 0.0
    b["encoder"]["rpe"] = 1             # truthy spelling of True
    assert hm.config_hash(hm.validate_config(a)) == hm.config_hash(hm.validate_config(b))
    c = tiny_config()
    c["head"]["classes"] = 4
    assert hm.config_hash(hm.validate_config(a)) != hm.config_hash(hm.validate_config(c))


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_tape_does_not_change_the_forward(precision, train):
    # an f32 tape casts only what its nodes keep: the logits computed with
    # leaves on a tape are the untaped logits, bit for bit
    m = hm.build(hm.mnist_config(), seed=0, precision=precision)
    x = ct.make_rng(2).random((2, 1, 64, 64)).astype(ct.DTYPES[precision][0])
    plain, taped = (m.forward(x, leaves, train=train, rng=ct.make_rng(3)).data
                    for leaves in (None, m.leaves(ct.GradTape())))
    assert plain.dtype == taped.dtype and plain.tobytes() == taped.tobytes()


def test_forward_rejects_wrong_input_shape():
    m = hm.build(tiny_config(), seed=0)
    with pytest.raises(ShapeError):
        m.forward(np.zeros((1, 1, 9, 9)))
    with pytest.raises(ShapeError):
        m.forward(np.zeros((1, 2, 8, 8)))
    # a batch that would be split is checked whole, before any chunk runs
    with pytest.raises(ShapeError, match=r"got \(20, 2, 8, 8\)"):
        m.forward(np.zeros((20, 2, 8, 8)))


# ---------------------------------------------------------------------------
# chunked inference
# ---------------------------------------------------------------------------

def spy_stem_features(monkeypatch):
    """Record (batch size, thread id) of every stem_features call."""
    calls, real = [], hm.Model.stem_features

    def stem_features(self, images, *args, **kwargs):
        calls.append((len(images.data), threading.get_ident()))
        return real(self, images, *args, **kwargs)

    monkeypatch.setattr(hm.Model, "stem_features", stem_features)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [9, 16, 17])
def test_inference_forward_is_its_8_image_chunks(monkeypatch, batch, workers):
    # every image's bits depend only on its chunk, so the serial and the
    # threaded path give the chunks' logits byte for byte
    m = hm.build(tiny_config(), seed=0)
    x = ct.make_rng(4).random((batch, 1, 8, 8)).astype(np.float32)
    chunks = np.concatenate([m.forward(x[i:i + 8]).data for i in range(0, batch, 8)])
    monkeypatch.setattr(ct, "_workers", lambda: workers)
    calls = spy_stem_features(monkeypatch)
    logits = m.forward(x).data
    assert logits.dtype == chunks.dtype and logits.tobytes() == chunks.tobytes()
    assert sorted(n for n, _ in calls) == sorted([8] * (batch // 8) + [batch % 8] * (batch % 8 > 0))
    assert len({thread for _, thread in calls}) == workers


def test_inference_chunks_stay_close_to_one_pass():
    m = hm.build(tiny_config(), seed=1)
    x = ct.make_rng(5).random((16, 1, 8, 8))
    leaves = m.leaves()
    whole = m.classify(m.stem_features(x, leaves), leaves).data
    err = np.linalg.norm(m.forward(x).data - whole, axis=1) / np.linalg.norm(whole, axis=1)
    assert np.max(err) < 1e-14, np.max(err)


@pytest.mark.parametrize("case", ["train", "taped", "batch_8"])
def test_training_taped_and_small_forwards_are_one_pass(monkeypatch, case):
    # batch norm takes whole-batch statistics in train mode and a tape
    # serves one execution, so neither splits; nor does a batch of 8
    m = hm.build(tiny_config(), seed=2)
    batch = 8 if case == "batch_8" else 16
    x = ct.make_rng(6).random((batch, 1, 8, 8)).astype(np.float32)
    train = case == "train"
    leaves = (lambda: m.leaves(ct.GradTape())) if case == "taped" else m.leaves
    ref, rng = leaves(), ct.make_rng(7)
    one_pass = m.classify(m.stem_features(x, ref, train, rng), ref, train, rng).data
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    calls = spy_stem_features(monkeypatch)
    logits = m.forward(x, leaves(), train=train, rng=ct.make_rng(7)).data
    assert [n for n, _ in calls] == [batch]
    assert logits.tobytes() == one_pass.tobytes()


def test_an_empty_batch_gives_no_logits():
    m = hm.build(tiny_config(), seed=2)
    assert m.forward(np.zeros((0, 1, 8, 8))).shape == (0, 3)


def test_a_failing_chunk_reaches_the_caller(monkeypatch):
    m = hm.build(tiny_config(), seed=0)
    real = hm.Model.classify

    def classify(self, x, *args):
        if len(x.data) == 1:     # the worker thread's chunk of 17 images
            raise ShapeError("chunk failed")
        return real(self, x, *args)

    monkeypatch.setattr(hm.Model, "classify", classify)
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    with pytest.raises(ShapeError, match="chunk failed"):
        m.forward(np.zeros((17, 1, 8, 8)))


def conv_config():
    """tiny_config with 5x5 kernels and two convs of 4 channels: both run
    through ct.conv2d, the second kernel-first from batch 3 on."""
    cfg = tiny_config()
    cfg["stem"].update({"kernel_size": 5, "channels": [4], "convs_per_block": 2})
    return cfg


def test_convs_split_their_blocks_unless_chunks_hold_the_worker(monkeypatch):
    # F = 12 * 12 = 144 frequencies in 9 blocks of 16.  A one-chunk forward
    # of 3 images splits every conv's blocks; in a 9-image forward the two
    # chunks hold the worker, so the 8-image chunk's convs run inline (and
    # the 1-image chunk's never split); the bits do not move
    monkeypatch.setattr(ct, "FREQ_BLOCK", 16)
    m = hm.build(conv_config(), seed=0)
    x = ct.make_rng(8).random((9, 1, 8, 8)).astype(np.float32)
    monkeypatch.setattr(ct, "_workers", lambda: 1)
    want = [m.forward(x[:3]).data, m.forward(x).data]
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    calls = spy_split_threads(monkeypatch)
    assert m.forward(x[:3]).data.tobytes() == want[0].tobytes()
    (chunk, chunk_threads), *convs = calls    # one chunk: nothing to split
    assert chunk_threads == {chunk} and len(convs) == 2
    assert all(len(seen) == 2 for _, seen in convs)
    calls.clear()
    assert m.forward(x).data.tobytes() == want[1].tobytes()
    (_, chunk_threads), *convs = calls
    assert len(chunk_threads) == 2 and len(convs) == 2
    assert all(seen == {caller} for caller, seen in convs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_splits_on_its_own_worker(monkeypatch):
    # the parent has started the worker and holds the lock when it forks;
    # the child's batch-2 forward still splits, on a worker of its own
    monkeypatch.setattr(ct, "FREQ_BLOCK", 16)
    monkeypatch.setattr(ct, "_workers", lambda: 2)
    m = hm.build(conv_config(), seed=1)
    x = ct.make_rng(9).random((2, 1, 8, 8)).astype(np.float32)
    want = m.forward(x).data
    assert ct._worker is not None
    calls = spy_split_threads(monkeypatch)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send((m.forward(x).data, [len(seen) for _, seen in calls[1:]]))

    lock = ct._split_lock
    lock.acquire()
    try:
        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
    finally:
        lock.release()
    assert proc.exitcode == 0
    got, threads = receive.recv()
    assert got.tobytes() == want.tobytes()
    assert threads == [2, 2]        # both convs; calls[0] is the one chunk


def test_inference_workers_need_two_cpus_and_one_blas_thread(monkeypatch):
    for cpus, blas, want in [({0, 1}, 1, 2), ({0}, 1, 1), ({0, 1}, 2, 1), ({0, 1}, None, 1)]:
        monkeypatch.setattr(ct.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(ct, "_blas_thread_query",
                            lambda: None if blas is None else (lambda: blas))
        assert ct._workers() == want, (cpus, blas)


def test_blas_thread_query_reads_a_positive_count():
    query = ct._blas_thread_query()
    assert query is None or query() >= 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def train_step_stats(m, rng):
    """Run one training-mode forward so running stats leave their init."""
    x = rng.random((2, 1, m.input_size, m.input_size))
    m.forward(x, train=True, rng=rng)


def test_checkpoint_round_trip_bytes_and_logits(tmp_path):
    m = hm.build(tiny_config(), seed=3)
    train_step_stats(m, ct.make_rng(0))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    hm.save(m, p1, epoch=5, metrics={"val_acc": 0.5})
    loaded = hm.load(p1)
    assert loaded.last_epoch == 5 and loaded.metrics == {"val_acc": 0.5}
    hm.save(loaded, p2, epoch=loaded.last_epoch, metrics=loaded.metrics)
    assert p1.read_bytes() == p2.read_bytes()
    for k in m.buffers:
        assert np.array_equal(loaded.buffers[k], m.buffers[k]), k
    x = ct.make_rng(4).random((1, 1, m.input_size, m.input_size))
    assert np.array_equal(loaded.forward(x).data, m.forward(x).data)


def test_layernorm_stem_variant_builds_and_checkpoints(tmp_path):
    cfg = tiny_config()
    cfg["stem"]["norm"] = "layernorm"
    m = hm.build(cfg, seed=2)
    assert m.buffers == {}
    assert any(".act0.bias" in k for k in m.params)
    x = ct.make_rng(5).random((1, 1, m.input_size, m.input_size))
    logits = m.forward(x)
    assert np.all(np.isfinite(logits.data))
    p = tmp_path / "ln.ckpt"
    hm.save(m, p)
    loaded = hm.load(p)
    assert np.array_equal(loaded.forward(x).data, logits.data)


def test_checkpoint_rejects_truncation_and_corruption(tmp_path):
    m = hm.build(tiny_config(), seed=3)
    p = tmp_path / "m.ckpt"
    hm.save(m, p)
    blob = p.read_bytes()
    (tmp_path / "t.ckpt").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(IntegrityError):
        hm.load(tmp_path / "t.ckpt")
    flipped = bytearray(blob)
    flipped[len(blob) // 3] ^= 0xFF
    (tmp_path / "c.ckpt").write_bytes(bytes(flipped))
    with pytest.raises(IntegrityError, match="checksum"):
        hm.load(tmp_path / "c.ckpt")
    (tmp_path / "n.ckpt").write_bytes(b"PK\x03\x04" + blob[4:])
    with pytest.raises(IntegrityError):
        hm.load(tmp_path / "n.ckpt")


def resealed(path, body: bytes):
    """A checkpoint file of `body` under a valid CRC32 trailer."""
    path.write_bytes(body + struct.pack("<I", binascii.crc32(body)))
    return path


def malformed_checkpoints(tmp_path) -> dict:
    """Checkpoints whose CRC holds but whose contents are malformed, by the
    fault they carry."""
    m = hm.build(tiny_config(), seed=3)
    p = tmp_path / "m.ckpt"
    hm.save(m, p, metrics={"val_acc": 0.5})
    body = p.read_bytes()[:-4]
    name = sorted(m.params)[0]
    record = hm._record_bytes(name, m.params[name], 0)
    start = body.index(record)                 # the first record, after its count
    (count,) = struct.unpack("<I", body[start - 4:start])
    cfg = json.dumps(m.config, sort_keys=True, separators=(",", ":")).encode()
    # the record's name, kind, role, rank and shape, then its byte count and
    # payload, here half the bytes the shape holds
    head = 4 + len(name) + 3 + 4 * m.params[name].ndim
    (nbytes,) = struct.unpack("<Q", record[head:head + 8])
    short = record[:head] + struct.pack("<Q", nbytes // 2) + record[head + 8:head + 8 + nbytes // 2]
    faults = {
        "byte count": body.replace(record, short),
        "record name": body.replace(record, record.replace(name.encode(), b"\xff" * len(name), 1)),
        "config utf-8": body.replace(cfg, b"\xff" + cfg[1:]),
        "config json": body.replace(cfg, b"[" + cfg[1:]),
        "metrics json": body.replace(b'{"val_acc":0.5}', b'{"val_acc":0.5]'),
        "duplicate": body[:start - 4] + struct.pack("<I", count + 1) + record + body[start:],
    }
    assert all(v != body for v in faults.values())
    return {k: resealed(tmp_path / f"{i}.ckpt", v) for i, (k, v) in enumerate(faults.items())}


@pytest.mark.parametrize("fault, message", [
    ("byte count", "bytes for shape"), ("record name", "malformed text"),
    ("config utf-8", "malformed text"), ("config json", "malformed text"),
    ("metrics json", "malformed text"), ("duplicate", "appears twice")])
def test_checkpoint_with_malformed_contents_is_an_integrity_error(tmp_path, fault, message):
    with pytest.raises(IntegrityError, match=message):
        hm.load(malformed_checkpoints(tmp_path)[fault])


def test_checkpoint_refuses_mismatched_config(tmp_path):
    m = hm.build(tiny_config(), seed=3)
    p = tmp_path / "m.ckpt"
    hm.save(m, p)
    other = tiny_config()
    other["head"]["classes"] = 5
    with pytest.raises(IntegrityError, match="hash"):
        hm.load(p, expect_config=other)
    assert hm.load(p, expect_config=tiny_config()) is not None


def test_checkpoint_stores_fp32_components(tmp_path):
    m = hm.build(tiny_config(), seed=3, precision="f64")
    p = tmp_path / "m.ckpt"
    hm.save(m, p)
    loaded = hm.load(p, precision="f64")
    for k, v in m.params.items():
        assert np.array_equal(loaded.params[k],
                              v.astype("complex64" if np.iscomplexobj(v) else "float32")), k


@pytest.mark.parametrize("seed", [0, 1])
def test_f32_logits_are_quarter_turn_invariant_to_double_rounding(seed):
    # an f32 model's float32 image is lifted to complex128, so quarter
    # turns permute complex128 features exactly as at f64
    m = hm.build(hm.mnist_config(), seed=seed, precision="f32")
    x = ct.make_rng(seed).random((6, 1, 64, 64)).astype(np.float32)
    base = m.forward(x).data
    for q in (1, 2, 3):
        turned = m.forward(np.ascontiguousarray(np.rot90(x, q, axes=(-2, -1)))).data
        err = np.linalg.norm(turned - base, axis=1) / np.linalg.norm(base, axis=1)
        assert np.max(err) < 1e-12, (q, np.max(err))


def test_both_contraction_orders_give_the_same_logits(monkeypatch):
    # the lifting conv and the projections are tap GEMMs and never reach
    # conv2d; at batch 12 the other three convs contract kernel-first
    # (n_radii * 12 > 2 * C_out for 8 and 16 output channels); one image at
    # a time, spectrum-first.  The spy records the order each call runs.
    # The batch of 12 goes through stem_features -> classify directly, since
    # an inference forward would split it into chunks of 8 and 4.
    m = hm.build(hm.mnist_config(), seed=0, precision="f64")
    x = ct.make_rng(5).random((12, 1, 64, 64))
    routes, conv2d = [], ct.conv2d
    monkeypatch.setattr(ct, "conv2d", lambda *a: routes.append(a[4]) or conv2d(*a))
    leaves = m.leaves()
    batched = m.classify(m.stem_features(x, leaves), leaves).data
    assert routes == ["kernel_first"] * 3    # b0.conv1, b1.conv0, b1.conv1
    del routes[:]
    single = np.concatenate([m.forward(x[j:j + 1]).data for j in range(len(x))])
    assert routes == ["spectrum_first"] * 3 * len(x)
    err = np.linalg.norm(batched - single, axis=1) / np.linalg.norm(single, axis=1)
    assert np.max(err) <= 1e-12, np.max(err)
