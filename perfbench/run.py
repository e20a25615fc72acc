"""harmnet benchmark runner: one workload per invocation.

    python3 perfbench/run.py --workload {train,sweep,serve,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a repository checkout; the package is imported from
its `src/` directory.  With --trace 0 the workload runs untraced and the
end-to-end metrics are reported; with --trace 1 operations alternate
between untraced and traced under per-layer spans, and the per-layer
metrics (per traced operation, set-up spans apart) plus the tracing
overhead are reported.  The last
line of standard output is the result object; the two lines before it
carry the run environment and the workload's named figures.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train", "sweep", "serve", "verify")
# layers called only while setting up; reported as set-up totals, not per operation
SETUP_LAYERS = ("model.load",)
# fresh set-up processes per run, spread over the operation loop; the
# median of their host-scaled times is reported
SETUP_REPEATS = 7
# one BLAS thread: the package's determinism contract assumes single-threaded
# numpy, and a shared 2-core box gives steadier figures without contention
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB", "checks_passed_ratio": "ratio"}
# workload-specific names of the headline figures: name -> (source metric, scale, unit)
NAMED = {
    "train": {"train_samples_per_s": ("throughput_per_s", 1.0, "1/s")},
    "sweep": {"sweep_images_per_s": ("throughput_per_s", 1.0, "1/s")},
    "serve": {"serve_latency_p50_ms": ("latency_p50_ms", 1.0, "ms"),
              "serve_latency_p90_ms": ("latency_p90_ms", 1.0, "ms"),
              "serve_requests_per_s": ("throughput_per_s", 1.0, "1/s")},
    "verify": {"verify_s": ("latency_p50_ms", 1e-3, "s")},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def fresh_setup_s(args) -> float:
    """Set-up seconds of one fresh process, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(op, seconds: float, tracer=None, between=None, repeats: int = 0):
    """Closed loop: run `op` back to back until `seconds` of operation time
    have passed.

    With a tracer, operations alternate between untraced and traced, so a
    drift in machine speed falls on both halves alike.  `between` returns
    seconds it measured itself; it is called `repeats` times, spread evenly
    over the operation time and not counted in it.  Each time is returned
    as a pair (wall seconds, seconds scaled to the reference host speed,
    see hostspeed).  Returns the untraced and traced operation times, the
    items processed and the times `between` returned."""
    import hostspeed

    clock = hostspeed.HostClock()
    times = {False: [], True: []}
    items = 0
    spent = 0.0
    extra = []
    while True:
        while len(extra) < repeats and spent >= seconds * len(extra) / repeats:
            wall = between()
            extra.append((wall, clock.scale(wall)))
        if spent >= seconds and (tracer is None or times[True]):
            return times[False], times[True], items, extra
        traced = tracer is not None and len(times[False]) > len(times[True])
        if traced:
            tracer.install()
            request = f"op-{len(times[False]) + len(times[True])}"
            n, wall, scaled = clock.call(lambda: tracer.root(request, op), inside=False)
            tracer.uninstall()
        else:
            n, wall, scaled = clock.call(op, inside=tracer is None)
        items += n
        times[traced].append((wall, scaled))
        spent += wall


def environment(wl) -> dict:
    """Threading, library versions and the dtypes one forward pass produces."""
    import numpy as np
    import scipy
    import scipy.fft
    import spans
    import synth
    from harmnet import ctensor as ct

    model = wl.probe_model()
    size, channels = model.input_size, model.config["input"]["channels"]
    x = synth.rng_for(0, "probe").random((1, channels, size, size)).astype(ct.DTYPES[wl.precision][0])
    probe = spans.Tracer()
    probe.install()
    try:
        logits = model.forward(x)
    finally:
        probe.uninstall()
    prefix = "conv2d.dtype."
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "blas_threads": blas_threads(np, scipy),
        "fft_workers": scipy.fft.get_workers(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "precision": wl.precision,
        "input_dtype": x.dtype.name,
        "conv_output_dtypes": {k[len(prefix):]: int(v) for k, v in probe.counters.items()
                               if k.startswith(prefix)},
        "logits_dtype": logits.data.dtype.name,
    }


def blas_threads(*packages) -> dict:
    """Thread count each bundled OpenBLAS reports (library path -> threads)."""
    import ctypes

    out = {}
    for pkg in packages:
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}.libs/{lib.name}"] = fn()
                    break
    return out


def end_to_end(args, wl, workdir) -> tuple:
    wl.setup(args.seed, workdir)
    wl.warmup()
    times, _, items, setups = measure(wl.op, args.seconds, between=lambda: fresh_setup_s(args),
                                      repeats=SETUP_REPEATS)
    peak = peak_rss_mb()
    checks = wl.checks()
    passed = sum(ok for _, ok in checks)
    # reported figures are host-scaled (column 1); wall-clock ones (column 0) go to detail
    timing = [timing_values([t[col] for t in times], [s[col] for s in setups], items)
              for col in (0, 1)]
    values = dict(timing[1], peak_rss_mb=peak, checks_passed_ratio=passed / len(checks))
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    named = {k: metric(values[src] * scale, unit) for k, (src, scale, unit) in NAMED[wl.name].items()}
    named["failed_ratio"] = metric((len(checks) - passed) / len(checks), "ratio")
    wall = {k: metric(v, END_TO_END_UNITS[k]) for k, v in timing[0].items()}
    detail = {"workload": wl.name, "item": wl.item, "items": items, "latency_samples": len(times),
              "setup_samples_s": [s[0] for s in setups], "metrics": named, "wall_clock": wall,
              "operation_ms": [t[0] * 1e3 for t in times],
              "host_scale": [t[1] / t[0] for t in times]}
    return metrics, detail, checks


def timing_values(op_s: list, setup_s: list, items: int) -> dict:
    ms = sorted(t * 1e3 for t in op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": items / sum(op_s),
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
    }


def per_layer(args, wl, workdir) -> tuple:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.setup(args.seed, workdir)
    finally:
        tracer.uninstall()
    tracer.counters.clear()     # counters describe the operations only
    wl.warmup()
    plain, traced, _, _ = measure(wl.op, args.seconds, tracer)
    checks = wl.checks()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(span_file)

    # operation figures are per traced operation, so a faster program that
    # fits more operations into the run does not inflate them
    n = len(traced)
    metrics = {}
    for name, (calls, total_ns, self_ns) in tracer.layer_totals(setup=False).items():
        if name in SETUP_LAYERS:
            continue
        metrics[f"{name}.calls_per_op"] = metric(calls / n, "count")
        metrics[f"{name}.ms_per_op"] = metric(total_ns / 1e6 / n, "ms")
        metrics[f"{name}.self_ms_per_op"] = metric(self_ns / 1e6 / n, "ms")
    setup_totals = tracer.layer_totals(setup=True)
    for name in SETUP_LAYERS:
        calls, total_ns, self_ns = setup_totals[name]
        metrics[f"{name}.setup_calls"] = metric(calls, "count")
        metrics[f"{name}.setup_ms"] = metric(total_ns / 1e6, "ms")
        metrics[f"{name}.setup_self_ms"] = metric(self_ns / 1e6, "ms")
    c = tracer.counters
    backward_calls = metrics["ctensor.backward.calls_per_op"]["value"] * n
    metrics["ctensor.conv2d.computed_bytes_in_per_op"] = metric(c["conv2d.bytes_in"] / n, "B")
    metrics["ctensor.conv2d.computed_bytes_out_per_op"] = metric(c["conv2d.bytes_out"] / n, "B")
    metrics["ctensor.conv2d.out_bytes_per_element"] = metric(
        c["conv2d.bytes_out"] / c["conv2d.elements_out"] if c["conv2d.elements_out"] else 0, "B")
    metrics["ctensor.backward.tape_nodes_per_call"] = metric(
        c["backward.tape_nodes"] / backward_calls if backward_calls else 0, "count")
    metrics["trace.overhead_pct"] = metric(
        (statistics.median(t[1] for t in traced) / statistics.median(t[1] for t in plain) - 1.0)
        * 100.0, "%")
    metrics["trace.spans_per_op"] = metric(
        sum(request != "setup" for *_, request in tracer.spans) / n, "count")
    detail = {"workload": wl.name, "untraced_operations": len(plain), "traced_operations": len(traced),
              "span_file": str(span_file.relative_to(ROOT))}
    return metrics, detail, checks


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "harmnet" / "__init__.py").is_file():
        print(f"perfbench: no harmnet package under {SRC}; run from the root of a "
              f"repository checkout", file=sys.stderr)
        return 2
    # numpy is first imported below, after this: OpenBLAS reads these once, at load
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harmnet

    if Path(harmnet.__file__).resolve().parent != (SRC / "harmnet").resolve():
        print(f"perfbench: imported harmnet from {harmnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            wl.setup(args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, detail, checks = run(args, wl, workdir)
        env = environment(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not ok for _, ok in checks)
    detail["failed_checks"] = sorted({name for name, ok in checks if not ok})
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
