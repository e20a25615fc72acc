"""Command-line entry point: train / eval / verify / sweep / ablate / cost.

Exit codes are a stable contract: 0 success, 1 check failure, 2 usage or
data error, 3 numeric abort.  Config values resolve file < environment
(``HARM_`` prefix) < ``--override``, and every command that writes artifacts
also writes an invocation record (argv, seeds, config hashes) beside them so
a run is reproducible from its output directory alone.
"""

import argparse
import difflib
import itertools
import json
import os
import sys
from pathlib import Path

from . import ctensor as ct
from . import data as hdata
from . import encoder as enc
from . import harness as hz
from . import model as hm
from . import stem as hs
from . import training as tr
from .errors import (ConfigError, ContractError, DataNotFoundError,
                     IntegrityError, NumericError, ParseError, ShapeError)

_SECTIONS = ("stem", "encoder", "head", "input", "training")
_BREAK_NORMS = ("legacy-gamma-negative",)
_ABLATE_AXES = {
    "norm": ("stem", "norm", hs.NORMS),
    "mixing": ("encoder", "strategy", enc.STRATEGIES),
    "rpe": ("encoder", "rpe", (True, False)),
}


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def full_defaults() -> dict:
    return {**hm.mnist_config(), "training": tr.train_defaults()}


def valid_keys() -> list:
    return hm.config_keys() + [f"training.{k}" for k in tr.train_defaults()]


def _unknown_key(key: str):
    close = difflib.get_close_matches(key, valid_keys(), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise ConfigError(f"unknown config key {key!r}{hint}")


def parse_value(text: str):
    """JSON literal when it parses (3, 0.5, true, [8,16]), bare string else."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply(cfg: dict, dotted: str, value):
    section, _, key = dotted.partition(".")
    if section not in cfg or key not in cfg[section]:
        _unknown_key(dotted)
    cfg[section][key] = value


def _merge_file(cfg: dict, path):
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for section, vals in raw.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r} in {path}; "
                              f"valid: {sorted(cfg)}")
        if not isinstance(vals, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        for key, value in vals.items():
            _apply(cfg, f"{section}.{key}", value)


def env_overrides(environ) -> list:
    """(dotted key, value) pairs from HARM_SECTION_KEY variables.

    HARM_DATA_ROOT (the dataset root) and HARM_FULL_ACCEPTANCE (the slow
    test gate) are not config overrides.  Any other HARM_ variable that
    does not name a config key is rejected like a bad --override, so typos
    fail loudly.
    """
    out = []
    for name in sorted(environ):
        if not name.startswith("HARM_") or name in ("HARM_DATA_ROOT", "HARM_FULL_ACCEPTANCE"):
            continue
        section, _, key = name[len("HARM_"):].lower().partition("_")
        out.append((f"{section}.{key}", parse_value(environ[name])))
    return out


def resolve_config(args, environ) -> tuple:
    """(model config, train config), both validated; file < env < CLI."""
    cfg = full_defaults()
    if getattr(args, "config", None):
        _merge_file(cfg, args.config)
    for dotted, value in env_overrides(environ):
        _apply(cfg, dotted, value)
    for item in getattr(args, "override", None) or []:
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"--override must be KEY=VALUE, got {item!r}")
        _apply(cfg, key.strip(), parse_value(text))
    if getattr(args, "seed", None) is not None:
        cfg["training"]["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        cfg["training"]["runs"] = args.runs
    model_cfg = hm.validate_config(
        {s: cfg[s] for s in _SECTIONS if s != "training"})
    tcfg = tr.validate_train_config(cfg["training"])
    return model_cfg, tcfg


def _data_root(args, environ) -> Path:
    root = getattr(args, "data_root", None) or environ.get("HARM_DATA_ROOT")
    if not root:
        raise DataNotFoundError(
            "no dataset root: pass --data-root or set HARM_DATA_ROOT")
    return Path(root)


def _write_invocation(out_dir: Path, record: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"version": 1, **record}
    (out_dir / "invocation.json").write_text(json.dumps(record, indent=2,
                                                        sort_keys=True))


def _invocation(args, argv, model_cfg, tcfg=None, **extra) -> dict:
    rec = {"command": args.command, "argv": list(argv),
           "config_hash": hm.config_hash(model_cfg)}
    if tcfg is not None:
        rec["train_config_hash"] = hm.config_hash(tcfg)
        rec["seeds"] = [tcfg["seed"] + i for i in range(tcfg["runs"])]
    rec.update(extra)
    return rec


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _train_cells(model_cfg, tcfg, splits, out_dir, precision) -> dict:
    """Train --runs seeds of one configuration into out_dir/run<i>."""
    runs = []
    for i in range(tcfg["runs"]):
        run_cfg = dict(tcfg, seed=tcfg["seed"] + i)
        model = hm.build(model_cfg, run_cfg["seed"], precision)
        run_dir = out_dir / f"run{i}"
        metrics = tr.train(model, splits, run_cfg, run_dir)
        (run_dir / "metrics.json").write_text(json.dumps(metrics, indent=2,
                                                         sort_keys=True))
        runs.append(metrics)
    return {"runs": runs, "aggregate": tr.aggregate_runs(runs)}


def cmd_train(args, environ, argv) -> int:
    model_cfg, tcfg = resolve_config(args, environ)
    precision = args.precision or "f32"
    splits = hdata.build_benchmark(args.benchmark, _data_root(args, environ),
                                   seed=tcfg["seed"])
    out_dir = Path(args.out)
    _write_invocation(out_dir, _invocation(
        args, argv, model_cfg, tcfg, precision=precision,
        benchmark=args.benchmark))
    result = _train_cells(model_cfg, tcfg, splits, out_dir, precision)
    summary = {"version": 1, "benchmark": args.benchmark,
               "config_hash": hm.config_hash(model_cfg),
               "train_config_hash": hm.config_hash(tcfg), **result}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2,
                                                     sort_keys=True))
    agg = result["aggregate"]
    print(f"{args.benchmark}: test error "
          f"{agg['test_error_mean']:.4f} +/- {agg['test_error_std']:.4f} "
          f"over {len(result['runs'])} run(s)")
    return 0


def cmd_eval(args, environ, argv) -> int:
    precision = args.precision or "f32"
    model = hm.load(args.checkpoint, precision=precision)
    splits = hdata.build_benchmark(args.benchmark, _data_root(args, environ),
                                   seed=args.seed or 0)
    ds = splits[args.split]
    inp = model.config["input"]
    x = hdata.preprocess(ds.images, inp["pad"], inp["upscale_factor"])
    err = tr.error_rate(model, x, ds.labels)
    result = {"version": 1, "checkpoint": str(args.checkpoint),
              "benchmark": args.benchmark, "split": args.split,
              "samples": int(len(ds.labels)), "error_rate": err,
              "accuracy": 1.0 - err,
              "config_hash": hm.config_hash(model.config)}
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out_dir = Path(args.out)
        _write_invocation(out_dir, _invocation(
            args, argv, model.config, precision=precision,
            benchmark=args.benchmark, checkpoint=str(args.checkpoint)))
        (out_dir / "eval.json").write_text(json.dumps(result, indent=2,
                                                      sort_keys=True))
    return 0


def _parse_angles(text: str) -> set:
    try:
        return {float(tok) for tok in text.split(",") if tok.strip()}
    except ValueError as e:
        raise ConfigError(f"--angles must be comma-separated numbers, "
                          f"got {text!r}") from e


def cmd_verify(args, environ, argv) -> int:
    model_cfg, _ = resolve_config(args, environ)
    precision = args.precision or "f64"
    model = None
    if args.checkpoint:
        # checkpoints store f32 payloads; widening is exact, so the f64
        # thresholds still apply to a trained model
        model = hm.load(args.checkpoint, precision=precision)
        model_cfg = model.config
    report = hz.verify_all_lemmas(args.seed or 0, precision,
                                  config=model_cfg, model=model)
    if args.angles:
        keep = _parse_angles(args.angles)
        # the phase checks at 0 degrees are always kept, so the filter must
        # name a quarter turn the suite runs, and nothing else
        turns = {e["angle_deg"] for e in report["entries"]} - {0.0}
        if not keep - {0.0} <= turns or not keep & turns:
            off = sorted(keep - turns - {0.0} or keep)
            raise ConfigError(f"--angles selects no check at {off}; the suite "
                              f"runs at {', '.join(map(str, sorted(turns)))} degrees")
        report["entries"] = [e for e in report["entries"]
                             if e["angle_deg"] in keep or e["angle_deg"] == 0.0]
        report["angles_filter"] = sorted(keep)
    if args.break_norm:
        # demo: hold the legacy norm's negative-scale output to the
        # phase-preservation requirement it was exempted from as a witness
        witness = next(e for e in report["entries"]
                       if e["check"] == "phase_witness_legacy_cbn")
        broken = dict(witness, check="break_norm_" +
                      args.break_norm.replace("-", "_"),
                      threshold=hz.TOLERANCES["phase_preservation"],
                      witness=False)
        broken["passed"] = broken["error"] < broken["threshold"]
        report["entries"].append(broken)
        report["break_norm"] = args.break_norm
    report["all_pass"] = all(e["passed"] for e in report["entries"])
    print(hz.report_json(report))
    if args.out:
        out_dir = Path(args.out)
        _write_invocation(out_dir, _invocation(
            args, argv, model_cfg, precision=precision,
            seed=args.seed or 0, checkpoint=args.checkpoint,
            break_norm=args.break_norm))
        (out_dir / "report.json").write_text(hz.report_json(report))
    if not report["all_pass"]:
        for e in report["entries"]:
            if not e["passed"]:
                print(f"FAIL {e['check']} order={e['order']} "
                      f"angle={e['angle_deg']} error={e['error']:.3e} "
                      f"threshold={e['threshold']:.1e}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args, environ, argv) -> int:
    precision = args.precision or "f32"
    model = hm.load(args.checkpoint, precision=precision)
    splits = hdata.build_benchmark(args.benchmark, _data_root(args, environ),
                                   seed=args.seed or 0)
    curve = hz.stability_sweep(model, splits[args.split], args.angle_step,
                               args.interpolation, args.limit)
    csv = hz.curve_csv(curve)
    print(csv, end="")
    if args.out:
        out_dir = Path(args.out)
        _write_invocation(out_dir, _invocation(
            args, argv, model.config, precision=precision,
            benchmark=args.benchmark, checkpoint=str(args.checkpoint),
            angle_step=args.angle_step, interpolation=args.interpolation,
            limit=args.limit, samples=curve["samples"]))
        (out_dir / "curve.csv").write_text(csv)
    return 0


def _cell_label(settings: dict) -> str:
    def show(v):
        return {True: "on", False: "off"}.get(v, v)
    return "_".join(f"{axis}-{show(v)}" for axis, v in settings.items())


def cmd_ablate(args, environ, argv) -> int:
    model_cfg, tcfg = resolve_config(args, environ)
    precision = args.precision or "f32"
    axes = [tok.strip() for tok in args.grid.split(",") if tok.strip()]
    for axis in axes:
        if axis not in _ABLATE_AXES:
            raise ConfigError(f"unknown ablation axis {axis!r}; "
                              f"valid: {sorted(_ABLATE_AXES)}")
    if not axes:
        raise ConfigError("--grid must name at least one axis")
    splits = hdata.build_benchmark(args.benchmark, _data_root(args, environ),
                                   seed=tcfg["seed"])
    out_dir = Path(args.out)
    _write_invocation(out_dir, _invocation(
        args, argv, model_cfg, tcfg, precision=precision,
        benchmark=args.benchmark, grid=axes))
    cells = []
    for values in itertools.product(*(_ABLATE_AXES[a][2] for a in axes)):
        settings = dict(zip(axes, values))
        cfg = {k: dict(v) for k, v in model_cfg.items()}
        for axis, value in settings.items():
            section, key, _ = _ABLATE_AXES[axis]
            cfg[section][key] = value
        cfg = hm.validate_config(cfg)
        label = _cell_label(settings)
        result = _train_cells(cfg, tcfg, splits, out_dir / label, precision)
        agg = result["aggregate"]
        cells.append({"label": label, "settings": settings,
                      "config_hash": hm.config_hash(cfg), **result})
        print(f"{label}: test error {agg['test_error_mean']:.4f} "
              f"+/- {agg['test_error_std']:.4f}")
    (out_dir / "ablate.json").write_text(json.dumps(
        {"version": 1, "benchmark": args.benchmark, "grid": axes,
         "train_config_hash": hm.config_hash(tcfg), "cells": cells},
        indent=2, sort_keys=True))
    return 0


def cmd_cost(args, environ, argv) -> int:
    model_cfg, _ = resolve_config(args, environ)
    report = hz.cost_report(model_cfg, measure=args.measure,
                            seed=args.seed or 0)
    rows = [("stem", report["stem_macs"]),
            ("encoder attention", report["encoder_attention_macs"]),
            ("encoder projections", report["encoder_projection_macs"]),
            ("head", report["head_macs"]),
            ("total", report["total_macs"])]
    width = max(len(n) for n, _ in rows)
    print(f"input {report['input_size']}x{report['input_size']}, "
          f"{report['patches']} patches; stem banks at batch 1:")
    for b in report["stem_banks"]:
        print(f"{b['name']:<{width}}  {b['size']:>3}x{b['size']:<3}  {b['route']:<14}  "
              f"{b['macs']:>14,} MACs  {b['fft_points']:>9,} FFT points")
    for name, macs in rows:
        print(f"{name:<{width}}  {macs:>14,} MACs")
    if args.measure:
        print(f"measured forward: {report['forward_seconds']:.3f} s")
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        out_dir = Path(args.out)
        _write_invocation(out_dir, _invocation(args, argv, model_cfg,
                                               measure=args.measure))
        (out_dir / "cost.json").write_text(blob)
    else:
        print(blob)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmnet",
        description="rotation-equivariant complex-valued vision models: "
                    "train, verify equivariance, sweep stability, count cost")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (partial; "
                        "missing keys take defaults)")
    common.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="dotted config override, repeatable "
                             "(e.g. training.epochs=5)")
    common.add_argument("--seed", type=int, help="base seed")
    common.add_argument("--precision", choices=sorted(ct.DTYPES),
                        help="float width (default: f32 compute, f64 verify)")
    common.add_argument("--data-root", help="dataset directory "
                        "(or HARM_DATA_ROOT)")
    common.add_argument("--out", help="output directory for artifacts")

    sub = parser.add_subparsers(dest="command", required=True)

    def benchmark_flag(p):
        p.add_argument("--benchmark", choices=hdata.BENCHMARKS,
                       default="rotated-mnist")

    p = sub.add_parser("train", parents=[common],
                       help="train --runs seeds and aggregate")
    benchmark_flag(p)
    p.add_argument("--runs", type=int, help="number of seeds")
    p.set_defaults(fn=cmd_train, out_required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="error rate of a checkpoint on a split")
    benchmark_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"),
                   default="test")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", parents=[common],
                       help="run the equivariance check suite")
    p.add_argument("--checkpoint", help="verify a trained model instead "
                   "of a fresh build")
    p.add_argument("--angles", help="comma-separated angle filter, "
                   "e.g. 90,180,270")
    p.add_argument("--break-norm", choices=_BREAK_NORMS,
                   help="intentionally failing demo of a known-flawed norm")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="accuracy vs input rotation angle (CSV)")
    benchmark_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"),
                   default="test")
    p.add_argument("--angle-step", type=int, default=15)
    p.add_argument("--interpolation", choices=hdata.INTERPOLATIONS,
                   default="bilinear")
    p.add_argument("--limit", type=int, help="cap on evaluated samples")
    p.set_defaults(fn=cmd_sweep, out_required=False)

    p = sub.add_parser("ablate", parents=[common],
                       help="train a grid of architecture variants")
    benchmark_flag(p)
    p.add_argument("--runs", type=int, help="seeds per cell")
    p.add_argument("--grid", default="norm,mixing,rpe",
                   help="comma-separated axes from norm,mixing,rpe")
    p.set_defaults(fn=cmd_ablate, out_required=True)

    p = sub.add_parser("cost", parents=[common],
                       help="multiply-adds of what runs at batch 1 and measured forward time")
    p.add_argument("--no-measure", dest="measure", action="store_false",
                   help="skip the timed forward pass")
    p.set_defaults(fn=cmd_cost, measure=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage error, 0 on --help
        return e.code if isinstance(e.code, int) else 2
    if getattr(args, "out_required", False) and not args.out:
        print(f"error: {args.command} requires --out", file=sys.stderr)
        return 2
    try:
        return args.fn(args, os.environ, argv)
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError, IntegrityError, DataNotFoundError,
            FileNotFoundError, ShapeError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
