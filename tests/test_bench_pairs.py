"""tools/bench_pairs.py: seed lists, quartiles and the pair count behind a
perf claim.  The tool is a script, not a package module, so it is loaded by
path."""

import argparse
import importlib.util
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
