"""The statistics and pair order of `tools/bench_pairs.py`, on fixed inputs;
no benchmark is run."""
import importlib.util
import os
import statistics

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schedule_alternates_one_pair_per_seed(tool):
    assert tool.schedule([7, 8, 9]) == [
        (1, 7, ("parent", "change")), (2, 8, ("change", "parent")),
        (3, 9, ("parent", "change"))]


def test_lower_is_better_with_a_tie(tool):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 10.0]
    s = tool.summarize(parent, change, "lower")
    assert s["parent_quartiles"] == [2.75, 8.25] == statistics.quantiles(parent, n=4)[::2]
    assert (s["median_parent"], s["median_change"]) == (5.5, 5.0)
    assert (s["wins"], s["losses"], s["ties"]) == (9, 0, 1)
    # 9 of 10 wins, but 0.5 apart against a quartile spread of 5.5.
    assert s["gain_rule_met"] is False
    far = [p - 6.0 for p in parent[:9]] + [10.0]
    assert tool.summarize(parent, far, "lower")["gain_rule_met"] is True


def test_higher_is_better_needs_nine_wins_in_ten(tool):
    parent = [10.0] * 5 + [11.0] * 5
    change = [20.0] * 8 + [9.0] * 2
    s = tool.summarize(parent, change, "higher")
    assert (s["wins"], s["losses"], s["ties"]) == (8, 2, 0)
    assert s["gain_rule_met"] is False
    change[8] = 20.0
    assert tool.summarize(parent, change, "higher")["gain_rule_met"] is True
    # The same numbers read as lower-is-better are losses.
    assert tool.summarize(parent, change, "lower")["wins"] == 1


def test_metric_without_direction_and_a_single_pair(tool):
    s = tool.summarize([3.0], [4.0], None)
    assert s == {"parent": [3.0], "change": [4.0], "median_parent": 3.0,
                 "median_change": 4.0, "parent_quartiles": [3.0, 3.0]}


def test_gain_rule_needs_ten_pairs(tool):
    # A clear win in every pair, with no parent spread, is not enough on
    # fewer than 10 pairs.
    assert tool.summarize([3.0], [2.0], "lower")["gain_rule_met"] is False
    for pairs in (2, 9):
        s = tool.summarize([3.0] * pairs, [2.0] * pairs, "lower")
        assert (s["wins"], s["gain_rule_met"]) == (pairs, False)
    assert tool.summarize([3.0] * 10, [2.0] * 10, "lower")["gain_rule_met"] is True


def test_compact_keeps_short_lists_and_cuts_sample_lists(tool):
    errors = [f"train[{i}]: failed" for i in range(12)]
    record = {"sha": "ab", "setup_runs_s": [0.2, 0.1, 0.3], "blas": [{"threads": 2}],
              "api_seconds": [float(v) for v in range(11)], "errors": errors,
              "ref_samples": [[float(t), 0.003] for t in range(11)],
              "stage_seconds": {"train": [1.0] * 10 + [3.0, 3.0], "extract": [2.0]}}
    assert tool.compact(record) == {
        "sha": "ab", "setup_runs_s": [0.2, 0.1, 0.3], "blas": [{"threads": 2}],
        "api_seconds": {"median": 5.0, "count": 11}, "errors": errors,
        "ref_samples": {"count": 11},
        "stage_seconds": {"train": {"median": 1.0, "count": 12}, "extract": [2.0]}}
