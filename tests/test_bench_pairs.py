"""The summary of ``scripts/bench_pairs.py`` on hand-made runs and records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.80] * 10
    assert bench_pairs.verdict(WALL, parent, faster)["verdict"] == "gain"
    # two lost pairs of ten: no gain, however large the gap
    mixed = [0.80] * 8 + [1.10, 1.10]
    result = bench_pairs.verdict(WALL, parent, mixed)
    assert (result["wins"], result["verdict"]) == (8, "within bound")
    # every pair won, but by less than the parent's interquartile range
    result = bench_pairs.verdict(WALL, parent, [value - 0.01 for value in parent])
    assert (result["wins"], result["verdict"]) == (10, "within bound")


def test_a_gain_is_withheld_when_more_of_the_change_s_jobs_fail():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    assert bench_pairs.verdict(WALL, parent, [0.80] * 10, more_failures=True)["verdict"] == "withheld"
    # the failures withhold only a gain
    assert bench_pairs.verdict(WALL, parent, [1.30] * 10, more_failures=True)["verdict"] == "worse"
    # shares of the attempted jobs, over every run of a side
    assert bench_pairs.failure_share([(0, 100), (0, 90)]) == 0.0
    assert bench_pairs.failure_share([(1, 100), (2, 200)]) == pytest.approx(0.01)
    assert bench_pairs.failure_share([]) == 0.0


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wide_parent_spread_is_unresolved_unless_the_runs_separate():
    parent = [10.0, 10.0, 10.0, 30.0, 30.0]  # interquartile range 20, beyond 0.25 * 10
    assert bench_pairs.verdict(WALL, parent, [12.0, 9.0, 11.0, 12.0, 9.5])["verdict"] == "unresolved"
    # every run of the change below every run of the parent, by less than the spread
    result = bench_pairs.verdict(WALL, parent, [9.9] * 5)
    assert (result["wins"], result["verdict"]) == (5, "within bound")


@pytest.mark.parametrize(
    "metric,parent,change,outcome",
    [
        (WALL, [1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "worse"),
        (WALL, [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "within bound"),
        # a metric where higher is better: a fall is a regression
        ({"name": "hit_ratio", "unit": "1", "better": "higher", "bound": 0.1}, [0.9, 0.91, 0.89, 0.9], [0.7] * 4, "worse"),
        ({"name": "hit_ratio", "unit": "1", "better": "higher", "bound": 0.1}, [0.5, 0.51, 0.49, 0.5], [0.9] * 4, "gain"),
    ],
    ids=["slower-beyond-bound", "slower-within-bound", "higher-better-fell", "higher-better-rose"],
)
def test_worse_is_judged_by_the_bound_in_the_metric_direction(metric, parent, change, outcome):
    assert bench_pairs.verdict(metric, parent, change)["verdict"] == outcome


def test_job_kinds_sum_the_fastest_untraced_times():
    record = {"job_seconds": [[False, [0.3, 0.5, 0.7]], [True, [0.1, 0.1, 0.1]], [False, [0.2, 0.6, 0.4]]]}
    labels = ["build N=4", "sector N=4 #1", "sector N=4 #2"]
    assert bench_pairs.job_sums(record, labels) == pytest.approx({"build N=4": 0.2, "sector N=4": 0.9})
    assert bench_pairs.job_sums(record, labels, per_job=True) == pytest.approx(
        {"build N=4": 0.2, "sector N=4 #1": 0.5, "sector N=4 #2": 0.4}
    )
    with pytest.raises(ValueError, match="3 jobs a round, the labels 2"):
        bench_pairs.job_sums(record, labels[:2])


def test_report_rows_give_medians_ratios_and_wins():
    pairs = [
        ({"sector N=4": 2.0, "build N=4": 2.0}, {"sector N=4": 1.0, "build N=4": 2.0}),
        ({"sector N=4": 2.0, "build N=4": 6.0}, {"sector N=4": 3.0, "build N=4": 6.0}),
        ({"sector N=4": 4.0, "build N=4": 1.0}, {"sector N=4": 1.0, "build N=4": 1.5}),
    ]
    # shares of the parent's round total, per pair: sector 1/2, 1/4 and 4/5
    sector, build = bench_pairs.job_rows(pairs)
    assert sector == ("sector N=4", 2.0, 1.0, 0.5, 2, 0.5)
    assert build == ("build N=4", 2.0, 2.0, 1.0, 0, 0.5)
    verdicts = [bench_pairs.verdict(WALL, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])]
    failures = {"parent": [(0, 40), (0, 40), (1, 40)], "change": [(0, 50), (0, 50), (0, 50)]}
    text = bench_pairs.report("oracle-sweep", 3, failures, verdicts, bench_pairs.job_rows(pairs))
    assert text.splitlines()[0] == "workload oracle-sweep: 3 pairs"
    assert text.splitlines()[1] == "failed jobs: parent 1 of 120, change 0 of 150"
    assert text.splitlines()[3].endswith(" 3/3    gain")
    assert text.splitlines()[-3].split() == ["job", "kind", "parent", "ms", "change", "ms", "ratio", "faster", "share"]
    assert text.splitlines()[-2].split() == ["sector", "N=4", "2000.000", "1000.000", "0.500", "2/3", "50.0%"]
    assert text.splitlines()[-1].split() == ["build", "N=4", "2000.000", "2000.000", "1.000", "0/3", "50.0%"]
