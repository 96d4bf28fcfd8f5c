"""The arithmetic of tools/bench_pairs.py on a fixed table of runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 9.0, 13.0, 10.0, 14.0, 8.0, 11.0, 12.0]
CHANGE = [11.0, 11.0, 12.0, 10.0, 13.0, 12.0, 15.0, 9.0, 10.0, 13.0]


def test_median_and_quartiles_are_the_exclusive_method():
    s = bench_pairs.summarize(PARENT)
    # sorted: 8 9 10 10 11 11 12 12 13 14; quartiles at ranks 2.75 and 8.25
    assert s["median"] == 11.0
    assert s["q1"] == pytest.approx(9.75)
    assert s["q3"] == pytest.approx(12.25)
    assert s["runs"] == PARENT


def test_pairs_won_follow_the_direction_and_ties_win_nothing():
    higher = bench_pairs.compare(PARENT, CHANGE, "higher")
    # pair by pair: win, loss, win, win, tie, win, win, win, loss, win
    assert higher["change_wins"] == 7 and higher["pairs"] == 10
    lower = bench_pairs.compare(PARENT, CHANGE, "lower")
    assert lower["change_wins"] == 2
    assert higher["change_over_parent"] == pytest.approx(11.5 / 11.0)


def test_the_median_gap_is_weighed_against_the_parents_spread():
    near = bench_pairs.compare(PARENT, CHANGE, "higher")
    assert near["median_gap_exceeds_parent_iqr"] is False     # 0.5 vs 2.5
    far = bench_pairs.compare(PARENT, [v + 3.0 for v in PARENT], "higher")
    assert far["median_gap_exceeds_parent_iqr"] is True       # 3.0 vs 2.5
    assert far["change_wins"] == 10


def test_a_direction_other_than_higher_or_lower_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, CHANGE, "faster")


def test_a_median_worse_by_more_than_the_bound_is_past_it():
    # parent median 11.0; 25% worse is 8.25 for "higher", 13.75 for "lower"
    slower = [v - 3.0 for v in PARENT]                        # median 8.0
    assert bench_pairs.against_bound(PARENT, slower, "higher", 0.25)["past_bound"] is True
    assert bench_pairs.against_bound(PARENT, slower, "higher", 0.3)["past_bound"] is False
    assert bench_pairs.against_bound(PARENT, slower, "lower", 0.25)["past_bound"] is False
    larger = [v + 3.0 for v in PARENT]                        # median 14.0
    assert bench_pairs.against_bound(PARENT, larger, "lower", 0.25)["past_bound"] is True
    assert bench_pairs.against_bound(PARENT, larger, "higher", 0.25)["past_bound"] is False
    # exactly at the bound is not past it
    at = [v * 0.75 for v in PARENT]                           # median 8.25
    assert bench_pairs.against_bound(PARENT, at, "higher", 0.25)["past_bound"] is False


def test_a_spread_wider_than_the_bound_leaves_a_metric_unresolved():
    # the parent's interquartile range is 2.5, 22.7% of its median 11.0
    assert bench_pairs.against_bound(PARENT, CHANGE, "higher", 0.2)["unresolved"] is True
    assert bench_pairs.against_bound(PARENT, CHANGE, "higher", 0.25)["unresolved"] is False
    # unless every change run beats every parent run, in the metric's direction
    above = [v + 10.0 for v in PARENT]                        # 18 and up, parent at most 14
    assert bench_pairs.against_bound(PARENT, above, "higher", 0.2)["unresolved"] is False
    assert bench_pairs.against_bound(PARENT, above, "lower", 0.2)["unresolved"] is True
    below = [v - 7.0 for v in PARENT]                         # at most 7, parent 8 and up
    assert bench_pairs.against_bound(PARENT, below, "lower", 0.2)["unresolved"] is False
