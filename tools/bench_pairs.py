"""Alternating parent/change pairs of perfbench runs, recorded as a BENCH_*.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workload serve --seeds 3001-3010 \
        --out BENCH_03_example.json [--seconds 18] [--trace 0]

PARENT and CHANGE are two checkouts (each with its own `src/` and
`perfbench/`).  For each seed, `python3 perfbench/run.py` runs once in each
checkout, one after the other; the side that runs first alternates from pair
to pair, starting with the parent.  Nothing else runs in between, so keep the
host otherwise idle.

With --trace 0 each pair's end-to-end metrics are appended to
`workloads[WORKLOAD].pairs`, and its summary is recomputed over all of them:
per metric, each side's median and quartiles (linear percentiles) and the
number of pairs the change won (by the `better` direction in CHANGE's
BENCHMARK.json; ties count for neither), for the host-scaled figure and,
under `wall_clock`, for the unscaled one.  The host probe runs on the main
thread while any other thread of the program keeps working, so a program
that computes on several threads can flatter its host-scaled figures; its
wall-clock ones show whether a gain stands on its own.  With --trace 1 each
pair's per-layer metrics are appended to `traces.runs[WORKLOAD]`, and
`traces.summary[WORKLOAD]` is recomputed the same way per metric: each
side's quartiles and the change's wins, by the metric's direction in
CHANGE's BENCHMARK.json (`per_layer`, else `end_to_end`, else lower).  Every
side keeps perfbench's `env` line (CPU affinity, BLAS threads, FFT workers,
...), which says which threading the program saw.  An existing
--out file is updated, not replaced, so a record is built one call at a
time, and the alternation continues from the pairs already recorded.  The
record's prose (`change`, `claim`, `host`, `method`) is written by hand.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds:g} --trace {trace}"


def parse_seeds(text: str) -> list:
    """'3001-3010' or '3001,3005,3009' (or a mix) -> a list of ints.  A
    reversed range such as '3010-3001' is an error, not an empty list."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        if hi and int(hi) < int(lo):
            raise argparse.ArgumentTypeError(f"seed range {part!r} is reversed")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its last output line (the result object), the
    detail line before it and the env line before that."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env, detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-3:])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed_checks": result["failed"],
            "detail": detail["detail"], "env": env["env"]}


def side_record(run: dict) -> dict:
    """One side of an end-to-end pair: the host-scaled metrics perfbench
    reports, and its wall-clock timings, which show when host scaling
    rather than the program moved a figure."""
    scale = run["detail"]["host_scale"]
    wall = {k: v["value"] for k, v in run["detail"]["wall_clock"].items()}
    return {"metrics": run["metrics"], "wall_clock": wall, "correct": run["correct"],
            "failed_checks": run["failed_checks"], "host_scale": [min(scale), max(scale)],
            "latency_samples": run["detail"]["latency_samples"], "env": run["env"]}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    """Each side's quartiles of one figure over the pairs and the number of
    pairs the change won in the `better` direction ("lower" or "higher")."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_wins": wins, "pairs": len(parent)}


def side_values(pairs: list, name: str, figures: str = None) -> tuple:
    """The parent's and the change's values of one figure over the pairs,
    read from each side's `figures` dict ("metrics" or "wall_clock"), or
    from the side itself for a traced pair."""
    return tuple([(p[side] if figures is None else p[side][figures])[name] for p in pairs]
                 for side in ("parent", "change"))


def summarize(pairs: list, better: dict) -> dict:
    """Per host-scaled metric, `compare`; metrics that have a wall-clock
    figure too (the timings) carry its `compare` under `wall_clock`."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        way = better.get(name, "lower")
        out[name] = compare(*side_values(pairs, name, "metrics"), way)
        if name in pairs[0]["parent"].get("wall_clock", {}):
            out[name]["wall_clock"] = compare(*side_values(pairs, name, "wall_clock"), way)
    return out


def summarize_traces(pairs: list, better: dict) -> dict:
    """Per per-layer metric that every traced run reports, `compare`."""
    return {name: compare(*side_values(pairs, name), better.get(name, "lower"))
            for name in pairs[0]["parent"]
            if all(name in p[side] for p in pairs for side in ("parent", "change"))}


def host_scale(pairs: list, side: str) -> list:
    return [min(p[side]["host_scale"][0] for p in pairs),
            max(p[side]["host_scale"][1] for p in pairs)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 3001-3010 or 3001,3004")
    p.add_argument("--out", required=True, type=Path, help="BENCH_*.json to create or update")
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error(f"{checkout} has no perfbench/run.py")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    command = COMMAND.format(seconds=args.seconds, trace=args.trace)
    if args.trace:
        traces = record.setdefault("traces", {"command": command, "runs": {}})
        pairs = traces["runs"].setdefault(args.workload, [])
    else:
        record.setdefault("command", command)
        pairs = record.setdefault("workloads", {}).setdefault(args.workload, {}).setdefault("pairs", [])
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    for seed in args.seeds:
        parent_first = len(pairs) % 2 == 0
        sides = ("parent", "change") if parent_first else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds, args.trace)
                for side in sides}
        if args.trace:
            pairs.append({"seed": seed, "parent": runs["parent"]["metrics"],
                          "change": runs["change"]["metrics"],
                          "env": {side: runs[side]["env"] for side in ("parent", "change")}})
            shown = "ctensor.conv2d.ms_per_op"
        else:
            pairs.append({"seed": seed, "parent_first": parent_first,
                          "change": side_record(runs["change"]),
                          "parent": side_record(runs["parent"])})
            shown = "latency_p50_ms"
        print(f"{args.workload} seed {seed}: {shown} parent {runs['parent']['metrics'][shown]:.1f} "
              f"change {runs['change']['metrics'][shown]:.1f}", file=sys.stderr, flush=True)
        if args.trace:
            traces.setdefault("summary", {})[args.workload] = summarize_traces(pairs, better)
        else:
            record["workloads"][args.workload].update(
                summary=summarize(pairs, better),
                host_scale={side: host_scale(pairs, side) for side in ("parent", "change")})
        # written after every pair, so a run cut short keeps the pairs it made
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
