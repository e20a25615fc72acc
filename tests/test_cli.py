"""CLI tests: exit-code contract, config precedence (file < env < override),
nearest-key suggestions, and artifact plumbing of every subcommand on a
small synthetic benchmark."""

import binascii
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import harmnet.cli as cli
import harmnet.data as hdata
import harmnet.harness as hz
import harmnet.model as hm
from harmnet.errors import ConfigError, IntegrityError
from test_model import malformed_checkpoints


def tiny_config():
    """28px single-block model so AMAT fixtures load unchanged."""
    return {
        "stem": {"blocks": 1, "convs_per_block": 1, "channels": [2],
                 "dropout": [0.0], "kernel_size": 3, "norm": "fused"},
        "encoder": {"blocks": 1, "heads": 1, "patch_dim": 2, "dropout": 0.0,
                    "strategy": "harmformer_default", "rpe": True,
                    "keep_phase": True, "num_buckets": 4, "mlp_ratio": 2,
                    "norm_mode": "std"},
        "head": {"classes": 3},
        "input": {"channels": 1, "base_size": 28, "pad": 0,
                  "upscale_factor": 1},
        "training": {"epochs": 1, "batch_size": 5, "learning_rate": 0.01,
                     "label_smoothing": 0.1, "scheduler": "plateau",
                     "weight_decay": 0.01, "beta1": 0.9, "beta2": 0.999,
                     "eps": 1e-8, "seed": 0, "runs": 1},
    }


def write_fixture(root, n_train=12, n_test=6, seed=0):
    """Rotation-invariant class signal (intensity encodes the label)."""
    rng = np.random.default_rng(seed)

    def make(n, split):
        labels = rng.integers(0, 3, n).astype(np.int64)
        images = (0.25 * labels[:, None, None, None]
                  + 0.1 * rng.random((n, 1, 28, 28))).astype(np.float32)
        return hdata.LabeledImageSet(images, labels, split, {})

    root.mkdir(parents=True, exist_ok=True)
    hdata.save_amat(
        root / "mnist_all_rotation_normalized_float_train_valid.amat",
        make(n_train, "train"))
    hdata.save_amat(
        root / "mnist_all_rotation_normalized_float_test.amat",
        make(n_test, "test"))
    return root


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared fixture data, config file, and one trained run."""
    base = tmp_path_factory.mktemp("cli")
    data = write_fixture(base / "data")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    out = base / "trained"
    rc = cli.main(["train", "--config", str(cfg_path), "--data-root",
                   str(data), "--out", str(out)])
    assert rc == 0
    return SimpleNamespace(data=data, config=cfg_path, trained=out,
                           checkpoint=out / "run0" / "best.ckpt")


def ns(**kw):
    base = {"config": None, "override": [], "seed": None, "runs": None}
    base.update(kw)
    return SimpleNamespace(**base)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_parse_value_json_then_string():
    assert cli.parse_value("3") == 3 and isinstance(cli.parse_value("3"), int)
    assert cli.parse_value("0.5") == 0.5
    assert cli.parse_value("true") is True
    assert cli.parse_value("[8,16]") == [8, 16]
    assert cli.parse_value("fused") == "fused"


def test_precedence_file_env_cli(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"training": {"epochs": 7}}))
    env = {"HARM_TRAINING_EPOCHS": "5"}
    _, t = cli.resolve_config(ns(config=str(path)), {})
    assert t["epochs"] == 7                       # file over defaults
    _, t = cli.resolve_config(ns(config=str(path)), env)
    assert t["epochs"] == 5                       # env over file
    _, t = cli.resolve_config(
        ns(config=str(path), override=["training.epochs=3"]), env)
    assert t["epochs"] == 3                       # override over env


def test_env_vars_map_to_dotted_keys():
    pairs = cli.env_overrides({"HARM_ENCODER_PATCH_DIM": "8",
                               "HARM_STEM_NORM": "legacy",
                               "HARM_DATA_ROOT": "/somewhere",
                               "UNRELATED": "1"})
    assert pairs == [("encoder.patch_dim", 8), ("stem.norm", "legacy")]


def test_unknown_env_key_rejected():
    with pytest.raises(ConfigError, match="stem.kernel_size"):
        cli.resolve_config(ns(), {"HARM_STEM_KERNAL_SIZE": "3"})


def test_full_acceptance_gate_is_not_a_config_key(monkeypatch, capsys):
    # the slow test gate's variable must not break any command, and a
    # misspelt config variable next to it must still exit 2
    monkeypatch.setenv("HARM_FULL_ACCEPTANCE", "1")
    assert cli.main(["cost", "--no-measure"]) == 0
    monkeypatch.setenv("HARM_STEM_KERNAL_SIZE", "3")
    assert cli.main(["cost", "--no-measure"]) == 2
    assert "stem.kernel_size" in capsys.readouterr().err


def test_unknown_override_suggests_nearest():
    with pytest.raises(ConfigError, match="did you mean 'training.epochs'"):
        cli.resolve_config(ns(override=["training.epoch=3"]), {})


def test_override_requires_equals():
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        cli.resolve_config(ns(override=["training.epochs"]), {})


def test_seed_and_runs_flags_beat_config():
    _, t = cli.resolve_config(
        ns(override=["training.seed=1", "training.runs=2"], seed=9, runs=3),
        {})
    assert t["seed"] == 9 and t["runs"] == 3


def test_config_file_unknown_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"optimizer": {"lr": 0.1}}))
    with pytest.raises(ConfigError, match="optimizer"):
        cli.resolve_config(ns(config=str(path)), {})


def test_config_file_invalid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert cli.main(["cost", "--no-measure", "--config", str(path)]) == 2


@pytest.mark.parametrize("raw, message", [
    ([1, 2], "top level must be an object"),
    ({"stem": 3}, "section 'stem' must be an object"),
], ids=["top_level", "section"])
def test_config_file_non_object_exits_2(tmp_path, capsys, raw, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cost", "--no-measure", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2                      # no subcommand
    assert cli.main(["frobnicate"]) == 2          # unknown subcommand
    assert cli.main(["sweep"]) == 2               # missing required flag
    assert cli.main(["train", "--config", "x.json"]) == 2  # missing --out
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["train", "--help"]) == 0
    capsys.readouterr()


def test_bad_override_exits_2_with_suggestion(capsys):
    rc = cli.main(["cost", "--no-measure", "--override",
                   "stem.kernal_size=3"])
    assert rc == 2
    assert "stem.kernel_size" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["training.epochs=abc", "training.epochs=null",
                                      "training.epochs=1e999", "training.learning_rate=abc",
                                      "training.seed=[1]", "training.learning_rate=nan",
                                      "training.learning_rate=inf", "training.weight_decay=nan",
                                      "training.weight_decay=inf", "training.eps=nan",
                                      "training.eps=inf"])
def test_bad_training_override_exits_2(capsys, override):
    rc = cli.main(["cost", "--no-measure", "--override", override])
    assert rc == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_missing_data_exits_2_with_hint(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HARM_DATA_ROOT", raising=False)
    rc = cli.main(["train", "--data-root", str(tmp_path), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    assert "rotated-MNIST" in capsys.readouterr().err
    rc = cli.main(["train", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "HARM_DATA_ROOT" in capsys.readouterr().err


@pytest.mark.parametrize("amat, label", [
    ("mnist_all_rotation_normalized_float_train_valid.amat", -1),
    ("mnist_all_rotation_normalized_float_test.amat", 12)])
def test_out_of_range_label_exits_2(workdir, tmp_path, capsys, amat, label):
    # -1 used to train silently as the last class; 12 stopped with an
    # IndexError traceback from cross_entropy
    data = write_fixture(tmp_path / "data")
    ds = hdata.load_amat(data / amat)
    ds.labels[0] = label
    hdata.save_amat(data / amat, ds)
    rc = cli.main(["train", "--config", str(workdir.config), "--data-root", str(data),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"labels must lie in [0, 3), got {label}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval"], ["sweep", "--angle-step", "180"]])
def test_out_of_range_test_label_stops_eval_and_sweep(workdir, tmp_path, capsys, command):
    # counted as misses, labels [0, 1, 12, -1] would give an error rate or
    # an accuracy and exit 0
    data = write_fixture(tmp_path / "data", n_test=4)
    amat = data / "mnist_all_rotation_normalized_float_test.amat"
    ds = hdata.load_amat(amat)
    ds.labels[:] = [0, 1, 12, -1]
    hdata.save_amat(amat, ds)
    rc = cli.main(command + ["--checkpoint", str(workdir.checkpoint), "--data-root", str(data)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "labels must lie in [0, 3), got 12" in captured.err


def test_numeric_abort_exits_3(workdir, tmp_path, capsys):
    out = tmp_path / "nan"
    with np.errstate(invalid="ignore", over="ignore"):
        rc = cli.main(["train", "--config", str(workdir.config),
                       "--data-root", str(workdir.data), "--out", str(out),
                       "--override", "training.learning_rate=1e38",
                       "--override", "training.epochs=3"])
    assert rc == 3
    assert "non-finite loss" in capsys.readouterr().err
    assert (out / "run0" / "abort.json").exists()


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def test_train_writes_artifacts(workdir):
    out = workdir.trained
    summary = json.loads((out / "summary.json").read_text())
    assert summary["version"] == 1
    assert summary["benchmark"] == "rotated-mnist"
    assert len(summary["runs"]) == 1
    assert 0.0 <= summary["aggregate"]["test_error_mean"] <= 1.0
    lines = (out / "run0" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1 and "val_error" in json.loads(lines[0])
    assert workdir.checkpoint.exists()
    record = json.loads((out / "invocation.json").read_text())
    assert record["command"] == "train" and record["seeds"] == [0]
    assert record["config_hash"] == summary["config_hash"]
    assert "--out" in record["argv"]


def test_train_multi_run_seeds(workdir, tmp_path):
    out = tmp_path / "multi"
    rc = cli.main(["train", "--config", str(workdir.config), "--data-root",
                   str(workdir.data), "--out", str(out), "--runs", "2",
                   "--seed", "4"])
    assert rc == 0
    seeds = [json.loads((out / f"run{i}" / "metrics.json").read_text())["seed"]
             for i in range(2)]
    assert seeds == [4, 5]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aggregate"]["runs"] == 2


def test_train_determinism_across_invocations(workdir, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli.main(["train", "--config", str(workdir.config),
                       "--data-root", str(workdir.data), "--out", str(out)])
        assert rc == 0
    for name in ("run0/metrics.jsonl", "run0/best.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_eval_checkpoint(workdir, tmp_path, capsys):
    out = tmp_path / "ev"
    rc = cli.main(["eval", "--checkpoint", str(workdir.checkpoint),
                   "--data-root", str(workdir.data), "--out", str(out)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["split"] == "test" and result["samples"] == 6
    assert 0.0 <= result["error_rate"] <= 1.0
    assert result == json.loads((out / "eval.json").read_text())


def test_eval_version_1_checkpoint_exits_2(workdir, tmp_path, capsys):
    # version 1 stored each filter-bank connection and each order's
    # batch-norm statistics as separate records
    body = bytearray(workdir.checkpoint.read_bytes()[:-4])
    assert body[4:8] == struct.pack("<I", hm.CHECKPOINT_VERSION) and hm.CHECKPOINT_VERSION == 2
    body[4:8] = struct.pack("<I", 1)
    old = tmp_path / "v1.ckpt"
    old.write_bytes(bytes(body) + struct.pack("<I", binascii.crc32(body)))
    with pytest.raises(IntegrityError, match="version 1"):
        hm.load(old)
    rc = cli.main(["eval", "--checkpoint", str(old), "--data-root", str(workdir.data)])
    assert rc == 2
    assert "version 1" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(workdir, capsys):
    rc = cli.main(["eval", "--checkpoint", "/nonexistent.ckpt",
                   "--data-root", str(workdir.data)])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_model_passes(workdir, tmp_path, capsys):
    out = tmp_path / "vr"
    rc = cli.main(["verify", "--config", str(workdir.config), "--seed", "0",
                   "--angles", "90", "--out", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    assert report["angles_filter"] == [90.0]
    angles = {e["angle_deg"] for e in report["entries"]}
    assert angles == {0.0, 90.0}  # filtered quarter plus phase checks
    assert json.loads((out / "report.json").read_text()) == report
    assert json.loads((out / "invocation.json").read_text())["seed"] == 0


def test_verify_break_norm_exits_1(workdir, capsys):
    rc = cli.main(["verify", "--config", str(workdir.config),
                   "--angles", "90", "--break-norm", "legacy-gamma-negative"])
    assert rc == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    broken = [e for e in report["entries"]
              if e["check"] == "break_norm_legacy_gamma_negative"]
    assert len(broken) == 1 and not broken[0]["passed"]
    assert not report["all_pass"]
    assert "break_norm_legacy_gamma_negative" in captured.err


def test_verify_trained_checkpoint(workdir, capsys):
    rc = cli.main(["verify", "--checkpoint", str(workdir.checkpoint),
                   "--angles", "90"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    expect = hm.load(workdir.checkpoint, precision="f64").config
    assert report["config_hash"] == hm.config_hash(expect)


@pytest.mark.parametrize("fault", ["byte count", "duplicate"])
def test_verify_malformed_checkpoint_exits_2(tmp_path, capsys, fault):
    # a checkpoint whose CRC holds but whose records do not is a data error
    rc = cli.main(["verify", "--checkpoint", str(malformed_checkpoints(tmp_path)[fault])])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_stemless_f32_model_passes(capsys):
    # its image meets no convolution; a complex64 lift puts seed 1's logits
    # over grid_logits at 90 and 270 degrees, and verify exits 1
    rc = cli.main(["verify", "--seed", "1", "--precision", "f32",
                   "--override", "stem.blocks=0", "--override", "stem.channels=[]",
                   "--override", "stem.dropout=[]", "--override", "input.base_size=16",
                   "--override", "input.pad=0", "--override", "input.upscale_factor=1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_verify_bad_angles_exits_2(workdir, capsys):
    rc = cli.main(["verify", "--config", str(workdir.config),
                   "--angles", "ninety"])
    assert rc == 2
    capsys.readouterr()


def test_verify_angle_zero_alone_exits_2(workdir, capsys):
    # 0 degrees runs only the phase checks, which every filter keeps: a
    # filter of 0 alone would pass having run no rotation check
    rc = cli.main(["verify", "--config", str(workdir.config), "--angles", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no check at [0.0]" in captured.err and "90.0, 180.0, 270.0 degrees" in captured.err
    rc = cli.main(["verify", "--config", str(workdir.config), "--angles", "0,90"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] and report["angles_filter"] == [0.0, 90.0]
    assert {e["angle_deg"] for e in report["entries"]} == {0.0, 90.0}


def test_verify_angle_off_the_suite_exits_2(workdir, capsys):
    # the suite runs quarter turns only; 45 would keep just the 0-degree
    # phase checks and pass having checked nothing at 45 degrees
    rc = cli.main(["verify", "--config", str(workdir.config), "--angles", "90,45"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no check at [45.0]" in captured.err and "90.0, 180.0, 270.0 degrees" in captured.err


# ---------------------------------------------------------------------------
# sweep / ablate / cost
# ---------------------------------------------------------------------------

def test_sweep_writes_curve(workdir, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--checkpoint", str(workdir.checkpoint),
                   "--data-root", str(workdir.data), "--angle-step", "90",
                   "--limit", "4", "--out", str(out)])
    assert rc == 0
    csv = (out / "curve.csv").read_text()
    assert csv == capsys.readouterr().out
    lines = csv.splitlines()
    assert lines[0] == "angle_deg,accuracy"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "90", "180", "270"]
    record = json.loads((out / "invocation.json").read_text())
    assert record["samples"] == 4 and record["angle_step"] == 90


def test_sweep_bad_step_exits_2(workdir, capsys):
    rc = cli.main(["sweep", "--checkpoint", str(workdir.checkpoint),
                   "--data-root", str(workdir.data), "--angle-step", "7"])
    assert rc == 2
    assert "angle_step" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-15"])
def test_sweep_step_below_one_exits_2(workdir, capsys, step):
    rc = cli.main(["sweep", "--checkpoint", str(workdir.checkpoint),
                   "--data-root", str(workdir.data), "--angle-step", step])
    assert rc == 2
    assert "angle_step" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_sweep_limit_below_one_exits_2(workdir, capsys, limit):
    rc = cli.main(["sweep", "--checkpoint", str(workdir.checkpoint),
                   "--data-root", str(workdir.data), "--limit", limit])
    assert rc == 2
    assert "limit" in capsys.readouterr().err


def test_ablate_single_axis(workdir, tmp_path, capsys):
    out = tmp_path / "ab"
    rc = cli.main(["ablate", "--config", str(workdir.config), "--data-root",
                   str(workdir.data), "--out", str(out), "--grid", "rpe"])
    assert rc == 0
    result = json.loads((out / "ablate.json").read_text())
    assert result["grid"] == ["rpe"]
    labels = [c["label"] for c in result["cells"]]
    assert labels == ["rpe-on", "rpe-off"]
    hashes = {c["config_hash"] for c in result["cells"]}
    assert len(hashes) == 2
    for label in labels:
        assert (out / label / "run0" / "metrics.jsonl").exists()
    assert "rpe-off" in capsys.readouterr().out


def test_ablate_unknown_axis_exits_2(workdir, capsys):
    rc = cli.main(["ablate", "--config", str(workdir.config), "--data-root",
                   str(workdir.data), "--out", "/tmp/unused",
                   "--grid", "flavor"])
    assert rc == 2
    assert "flavor" in capsys.readouterr().err


def test_ablate_empty_grid_exits_2(workdir, tmp_path, capsys):
    out = tmp_path / "ab"
    rc = cli.main(["ablate", "--config", str(workdir.config), "--data-root",
                   str(workdir.data), "--out", str(out), "--grid", ","])
    assert rc == 2
    assert "at least one axis" in capsys.readouterr().err
    assert not out.exists()


def test_cost_table_and_json(workdir, tmp_path, capsys):
    out = tmp_path / "cost"
    rc = cli.main(["cost", "--no-measure", "--config", str(workdir.config),
                   "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "total" in text and "MACs" in text
    blob = json.loads((out / "cost.json").read_text())
    # one row per stem bank: name, size, route, multiply-adds, FFT points
    rows = [ln.split() for ln in text.splitlines() if ln.startswith("stem.")]
    assert rows == [[b["name"], f"{b['size']}x{b['size']}", b["route"], f"{b['macs']:,}", "MACs",
                     f"{b['fft_points']:,}", "FFT", "points"] for b in blob["stem_banks"]]
    assert [r[0] for r in rows] == ["stem.b0.conv0", "stem.b0.proj"]
    cfg = {k: v for k, v in tiny_config().items() if k != "training"}
    assert blob == hz.cost_report(cfg, measure=False)


def test_cost_measured_json_on_stdout(workdir, capsys):
    rc = cli.main(["cost", "--config", str(workdir.config)])
    assert rc == 0
    text = capsys.readouterr().out
    report = json.loads(text[text.index("{"):])
    assert report["forward_seconds"] > 0.0
    assert "measured forward" in text


def test_data_root_from_environment(workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HARM_DATA_ROOT", str(workdir.data))
    rc = cli.main(["eval", "--checkpoint", str(workdir.checkpoint)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 6


def test_invocation_reproduces_run(workdir, tmp_path):
    """Re-running the recorded argv (new --out) gives identical metrics."""
    record = json.loads((workdir.trained / "invocation.json").read_text())
    argv = list(record["argv"])
    argv[argv.index("--out") + 1] = str(tmp_path / "replay")
    assert cli.main(argv) == 0
    original = (workdir.trained / "run0" / "metrics.jsonl").read_bytes()
    replay = (tmp_path / "replay" / "run0" / "metrics.jsonl").read_bytes()
    assert replay == original
