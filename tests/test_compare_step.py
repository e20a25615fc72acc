"""tools/compare_step.py: one train step's logits and gradients in two
checkouts.  The tool is a script, not a package module, so it is loaded by
path."""

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_step.py"


@pytest.fixture(scope="module")
def cs():
    spec = importlib.util.spec_from_file_location("compare_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_differing_logits_and_the_worst_gradient(cs):
    logits = np.array([[1.0, 2.0]])
    parent = {"logits": logits, "grad/a": np.array([3.0, 4.0]), "grad/b": np.array([1.0])}
    change = {"logits": logits + [[0.0, 1e-9]], "grad/a": np.array([3.0, 4.0 + 5e-7]),
              "grad/b": np.array([1.0 + 2e-6]), "grad/c": np.array([0.0])}
    lines = cs.compare(parent, change)
    assert lines[0].startswith("logits: differ (relative L2 4.472e-10)")
    assert lines[1:] == ["a: 1.000e-07", "b: 2.000e-06", "c: missing in parent",
                         "worst gradient: b 2.000e-06"]
    assert cs.compare(parent, parent)[0] == "logits: byte-identical"


def test_compare_reports_inference_logits_and_the_verify_report_after_the_peak(cs):
    logits, grad = np.array([[1.0, 2.0]]), {"grad/a": np.array([1.0])}
    parent = {"logits": logits, "peak_bytes": np.int64(2 ** 20), "inference/1": logits,
              "inference/16": np.array([[3.0, 4.0]]), "report": np.array('{"all_pass": true}'),
              **grad}
    change = dict(parent, peak_bytes=np.int64(2 ** 21), report=np.array('{"all_pass": false}'))
    change["inference/16"] = np.array([[3.0, 4.0 + 5e-6]])
    assert cs.compare(parent, change) == [
        "logits: byte-identical",
        "step peak (tracemalloc): parent 1.00 MiB, change 2.00 MiB (+1.00 MiB)",
        "inference logits, batch 1: byte-identical",
        "inference logits, batch 16: differ (relative L2 1.000e-06)",
        "verify report (f64): differ",
        "a: 0.000e+00",
        "worst gradient: a 0.000e+00"]
    assert cs.compare(parent, parent)[2:5] == [
        "inference logits, batch 1: byte-identical", "inference logits, batch 16: byte-identical",
        "verify report (f64): byte-identical"]


def test_two_copies_of_one_checkout_give_identical_steps(cs, tmp_path, capsys):
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert cs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "logits: byte-identical"
    peaks = re.fullmatch(r"step peak \(tracemalloc\): parent ([\d.]+) MiB, "
                         r"change ([\d.]+) MiB \([+-][\d.]+ MiB\)", lines[1])
    assert peaks and all(float(v) > 0 for v in peaks.groups()), lines[1]
    assert lines[2:5] == ["inference logits, batch 1: byte-identical",
                          "inference logits, batch 16: byte-identical",
                          "verify report (f64): byte-identical"]
    assert any(line.startswith("stem.b0.conv1.radial: ") for line in lines)
    assert lines[-1].startswith("worst gradient: ") and lines[-1].endswith(" 0.000e+00")


def test_a_checkout_without_the_package_is_a_usage_error(cs, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        cs.main([str(tmp_path), str(ROOT)])
    assert exit_info.value.code == 2


def test_batch_8_steps_run_the_split_kernel_first_conv_identically(cs, tmp_path, capsys, monkeypatch):
    # at batch 8 stem.b0.conv1 contracts kernel-first; with one BLAS thread
    # each child splits its frequency blocks over two threads
    from harmnet import stem as hs

    model, images, labels = cs.setup(0, 8)
    assert images.shape[0] == labels.shape[0] == 8
    bank = model.stem.blocks[0]["convs"][1][0]
    assert hs.conv_plan(bank, 8, *images.shape[-2:])["route"] == "kernel_first"
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--batch", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "logits: byte-identical"
    assert all(line.endswith(": byte-identical") for line in lines[2:5])
    assert lines[-1].startswith("worst gradient: ") and lines[-1].endswith(" 0.000e+00")


def test_a_batch_below_one_is_a_usage_error(cs):
    with pytest.raises(SystemExit) as exit_info:
        cs.main([str(ROOT), str(ROOT), "--batch", "0"])
    assert exit_info.value.code == 2
