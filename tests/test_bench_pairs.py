"""tools/bench_pairs.py: seed lists, quartiles and the pair count behind a
perf claim.  The tool is a script, not a package module, so it is loaded by
path."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(parent: dict, change: dict) -> dict:
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def test_parse_seeds_ranges_and_singles(bp):
    assert bp.parse_seeds("3001-3003,3007") == [3001, 3002, 3003, 3007]
    assert bp.parse_seeds("5") == [5]


def test_reversed_seed_range_is_a_usage_error(bp, tmp_path, capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="reversed"):
        bp.parse_seeds("3010-3001")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bp.main([str(tmp_path), str(tmp_path), "--workload", "serve",
                 "--seeds", "3010-3001", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "reversed" in capsys.readouterr().err
    assert not out.exists()


def test_quartiles_of_one_value_collapse_to_it(bp):
    assert bp.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_quartiles_are_inclusive_linear_percentiles(bp):
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_summarize_counts_wins_by_direction_and_ties_for_neither(bp):
    pairs = [pair({"latency_p50_ms": 10.0, "throughput_per_s": 5.0},
                  {"latency_p50_ms": 9.0, "throughput_per_s": 6.0}),
             pair({"latency_p50_ms": 10.0, "throughput_per_s": 5.0},
                  {"latency_p50_ms": 10.0, "throughput_per_s": 5.0}),    # a tie
             pair({"latency_p50_ms": 10.0, "throughput_per_s": 5.0},
                  {"latency_p50_ms": 8.0, "throughput_per_s": 7.0})]
    out = bp.summarize(pairs, {"latency_p50_ms": "lower", "throughput_per_s": "higher"})
    assert out["latency_p50_ms"]["change_wins"] == 2
    assert out["throughput_per_s"]["change_wins"] == 2
    assert out["latency_p50_ms"]["pairs"] == 3
    assert out["latency_p50_ms"]["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert out["latency_p50_ms"]["change"] == {"median": 9.0, "q1": 8.5, "q3": 9.5}
    # the direction decides which side a move favours; unnamed metrics are "lower"
    flipped = bp.summarize(pairs, {"latency_p50_ms": "higher", "throughput_per_s": "lower"})
    assert flipped["latency_p50_ms"]["change_wins"] == 0
    assert flipped["throughput_per_s"]["change_wins"] == 0
    assert bp.summarize(pairs, {})["throughput_per_s"]["change_wins"] == 0


def timed_pair(parent_ms: float, change_ms: float, parent_wall: float, change_wall: float) -> dict:
    return {"parent": {"metrics": {"latency_p50_ms": parent_ms, "peak_rss_mb": 100.0},
                       "wall_clock": {"latency_p50_ms": parent_wall}},
            "change": {"metrics": {"latency_p50_ms": change_ms, "peak_rss_mb": 100.0},
                       "wall_clock": {"latency_p50_ms": change_wall}}}


def test_summarize_puts_wall_clock_quartiles_beside_the_host_scaled_ones(bp):
    # host-scaled figures win every pair while the wall clock wins only one
    pairs = [timed_pair(10.0, 8.0, 20.0, 21.0), timed_pair(10.0, 8.0, 20.0, 19.0),
             timed_pair(10.0, 8.0, 20.0, 22.0)]
    out = bp.summarize(pairs, {"latency_p50_ms": "lower"})
    assert out["latency_p50_ms"]["change_wins"] == 3
    wall = out["latency_p50_ms"]["wall_clock"]
    assert wall["change_wins"] == 1 and wall["pairs"] == 3
    assert wall["parent"] == {"median": 20.0, "q1": 20.0, "q3": 20.0}
    assert wall["change"] == {"median": 21.0, "q1": 20.0, "q3": 21.5}
    assert "wall_clock" not in out["peak_rss_mb"]     # memory has no wall-clock figure


FAKE_RUN = '''import json, sys
wall = {WALL}
print(json.dumps({{"env": {{"cpu_affinity": 2, "blas_threads": {{"numpy": {BLAS}}}, "fft_workers": 1}}}}))
print(json.dumps({{"detail": {{"host_scale": [0.5, 0.6], "latency_samples": 3,
                               "wall_clock": {{"latency_p50_ms": {{"value": wall, "unit": "ms"}}}}}}}}))
print(json.dumps({{"correct": True, "failed": 0,
                   "metrics": {{"latency_p50_ms": {{"value": wall / 2, "unit": "ms"}},
                               "ctensor.conv2d.ms_per_op": {{"value": wall, "unit": "ms"}}}}}}))
'''


def fake_checkout(root: Path, wall: float, blas: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(WALL=wall, BLAS=blas))
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "latency_p50_ms", "better": "lower"}]}')
    return root


def test_record_keeps_each_sides_env_line_and_wall_clock_summary(bp, tmp_path):
    parent = fake_checkout(tmp_path / "parent", 20.0, 2)
    change = fake_checkout(tmp_path / "change", 10.0, 1)
    out = tmp_path / "BENCH.json"
    args = [str(parent), str(change), "--workload", "sweep", "--out", str(out)]
    assert bp.main(args + ["--seeds", "1-2"]) == 0
    assert bp.main(args + ["--seeds", "3", "--trace", "1"]) == 0
    record = json.loads(out.read_text())
    sweep = record["workloads"]["sweep"]
    for p in sweep["pairs"]:
        assert p["parent"]["env"]["blas_threads"] == {"numpy": 2}
        assert p["change"]["env"]["blas_threads"] == {"numpy": 1}
        assert p["change"]["env"]["cpu_affinity"] == 2 and p["change"]["env"]["fft_workers"] == 1
    summary = sweep["summary"]["latency_p50_ms"]
    assert summary["change"]["median"] == 5.0 and summary["change_wins"] == 2
    assert summary["wall_clock"]["parent"]["median"] == 20.0
    assert summary["wall_clock"]["change"]["median"] == 10.0
    trace = record["traces"]["runs"]["sweep"][0]
    assert trace["env"]["parent"]["blas_threads"] == {"numpy": 2}
    assert trace["change"] == {"latency_p50_ms": 5.0, "ctensor.conv2d.ms_per_op": 10.0}


def test_summarize_traces_uses_per_layer_directions_and_common_metrics(bp):
    # ms_per_op falls in two of three pairs; a "higher" direction flips the
    # count; a metric one run lacks is left out
    runs = [({"stem.forward.ms_per_op": 10.0, "only.here": 1.0}, {"stem.forward.ms_per_op": 8.0}),
            ({"stem.forward.ms_per_op": 12.0}, {"stem.forward.ms_per_op": 12.5}),
            ({"stem.forward.ms_per_op": 11.0}, {"stem.forward.ms_per_op": 9.0})]
    pairs = [{"parent": p, "change": c} for p, c in runs]
    out = bp.summarize_traces(pairs, {"stem.forward.ms_per_op": "lower"})
    assert set(out) == {"stem.forward.ms_per_op"}
    ms = out["stem.forward.ms_per_op"]
    assert ms["change_wins"] == 2 and ms["pairs"] == 3
    assert ms["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert ms["change"] == {"median": 9.0, "q1": 8.5, "q3": 10.75}
    assert bp.summarize_traces(pairs, {"stem.forward.ms_per_op": "higher"}
                               )["stem.forward.ms_per_op"]["change_wins"] == 1


def test_trace_record_is_summarized_by_the_per_layer_directions(bp, tmp_path):
    parent = fake_checkout(tmp_path / "parent", 20.0, 1)
    change = fake_checkout(tmp_path / "change", 10.0, 1)
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "latency_p50_ms", "better": "lower"}],'
        ' "per_layer": [{"name": "ctensor.conv2d.ms_per_op", "better": "higher"}]}')
    out = tmp_path / "BENCH.json"
    assert bp.main([str(parent), str(change), "--workload", "serve", "--out", str(out),
                    "--seeds", "1-3", "--trace", "1"]) == 0
    summary = json.loads(out.read_text())["traces"]["summary"]["serve"]
    assert summary["latency_p50_ms"]["change_wins"] == 3
    assert summary["ctensor.conv2d.ms_per_op"]["change_wins"] == 0   # "higher" is better here
    assert summary["ctensor.conv2d.ms_per_op"]["parent"]["median"] == 20.0
    assert summary["ctensor.conv2d.ms_per_op"]["pairs"] == 3
