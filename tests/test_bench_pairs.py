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


_BENCH = {"workloads": [{"name": "circuits"}, {"name": "quotient"}],
          "end_to_end": [{"name": "jobs_per_s"}, {"name": "job_s.p50"}]}


def _row(parent, change, better):
    return {"better": better, **bench_pairs.compare(parent, change, better)}


def test_a_claim_is_met_by_nine_wins_and_a_median_gap_past_the_parents_spread():
    # CHANGE wins 7 of 10 and its median gap 0.5 is inside the IQR 2.5
    assert bench_pairs.claim("circuits", "jobs_per_s", _row(PARENT, CHANGE, "higher"))[
        "met"] is False
    # every run 3.0 better: 10 wins, gap 3.0 past 2.5
    faster = [v + 3.0 for v in PARENT]
    block = bench_pairs.claim("circuits", "jobs_per_s", _row(PARENT, faster, "higher"))
    assert block["met"] is True and block["workload"] == "circuits"
    assert block["metric"] == "jobs_per_s" and "9 of 10" in block["target"]
    # the same runs read as a time are a loss, not a gain
    assert bench_pairs.claim("circuits", "job_s.p50", _row(PARENT, faster, "lower"))[
        "met"] is False
    assert block["factor"] == pytest.approx(14.0 / 11.0) and block["change_wins"] == 10
    assert block["median_gap"] == 3.0 and block["parent_iqr"] == pytest.approx(2.5)
    # a required factor is met at 14/11 = 1.27 and missed at 1.3
    assert bench_pairs.claim("circuits", "jobs_per_s", _row(PARENT, faster, "higher"), 1.25)[
        "met"] is True
    short = bench_pairs.claim("circuits", "jobs_per_s", _row(PARENT, faster, "higher"), 1.3)
    assert short["met"] is False and "at least 1.3" in short["target"]
    # a time better by the same runs: the parent's median over the change's
    slower = [v + 3.0 for v in PARENT]
    assert bench_pairs.claim("circuits", "job_s.p50", _row(slower, PARENT, "lower"), 1.25)[
        "met"] is True
    # eight wins are too few, however far the medians lie apart
    eight = [v + 5.0 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]]
    row = _row(PARENT, eight, "higher")
    assert row["change_wins"] == 8 and row["median_gap_exceeds_parent_iqr"]
    assert bench_pairs.claim("circuits", "jobs_per_s", row)["met"] is False


@pytest.mark.parametrize("spec", ["circuit/jobs_per_s", "circuits/jobs", "circuits",
                                  "jobs_per_s/circuits", ""])
def test_a_claim_on_an_unknown_workload_or_metric_is_refused(spec):
    assert bench_pairs.parse_claim("quotient/job_s.p50", _BENCH) == ("quotient", "job_s.p50")
    with pytest.raises(ValueError):
        bench_pairs.parse_claim(spec, _BENCH)
