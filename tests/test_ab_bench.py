"""The summary and verdict of ``scripts/ab_bench.py``, on canned runs."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "ab_bench", os.path.join(os.path.dirname(HERE), "scripts", "ab_bench.py")
)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

BASE = [1.00, 1.10, 0.90, 1.00, 1.05, 0.95, 1.02, 0.98, 1.00, 1.01]
# wall_s of ten rvar-suite pairs on a busy host: the base's IQR is 29% of
# its median, wider than the bound
WIDE_BASE = [0.611, 0.606, 0.462, 0.469, 0.593, 0.451, 0.442, 0.397, 0.563, 0.623]
WIDE_HEAD = [0.609, 0.555, 0.594, 0.419, 0.444, 0.577, 0.450, 0.596, 0.633, 0.634]
BOUND = 0.25
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": BOUND},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": BOUND},
]


def canned_runs(wall, failed=(0, 0)):
    """Ten pairs of runs with wall_s ``wall(tree, base value)``, a fixed
    peak_rss_mb, and ``failed`` of 100 operations in the base and head
    runs of the first pair."""
    runs = []
    for pair, b in enumerate(BASE):
        # the tree that runs first alternates, as in a real session
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for tree in order:
            lost = failed[tree == "head"] if pair == 0 else 0
            runs.append({"pair": pair, "seed": pair, "tree": tree,
                         "metrics": {"wall_s": wall(tree, b), "peak_rss_mb": 50.0},
                         "attempted": 100, "failed": lost})
    return runs


def test_quartiles_by_the_inclusive_method():
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_clear_gain_is_better():
    s = ab_bench.verdict(BASE, [0.7 * b for b in BASE], "lower", BOUND)
    assert s["verdict"] == "better"
    assert s["head_better_in"] == "10 of 10"
    assert s["median_change"] == pytest.approx(-0.3)
    assert s["base"]["iqr"] == pytest.approx(s["base"]["q3"] - s["base"]["q1"])


def test_a_loss_is_worse_only_past_the_bound():
    assert ab_bench.verdict(BASE, [1.3 * b for b in BASE], "lower", BOUND)["verdict"] == "worse"
    # a loss in every pair that stays inside the bound is no regression
    s = ab_bench.verdict(BASE, [1.1 * b for b in BASE], "lower", BOUND)
    assert (s["head_better_in"], s["verdict"]) == ("0 of 10", "within bound")
    # for a metric where higher is better the same numbers read the other way
    assert ab_bench.verdict(BASE, [1.3 * b for b in BASE], "higher", BOUND)["verdict"] == "better"


def test_a_median_past_the_bound_is_worse_in_any_spread():
    head = [b + 0.3 * 0.6 for b in WIDE_BASE]
    assert ab_bench.verdict(WIDE_BASE, head, "lower", BOUND)["verdict"] == "worse"
    # worse in only half the pairs, yet the median moved past the bound
    head = [b if i % 2 else 1.6 * b for i, b in enumerate(BASE)]
    s = ab_bench.verdict(BASE, head, "lower", BOUND)
    assert s["median_change"] > BOUND
    assert (s["head_better_in"], s["verdict"]) == ("0 of 10", "worse")


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    s = ab_bench.verdict(WIDE_BASE, WIDE_HEAD, "lower", BOUND)
    assert s["base"]["iqr"] > BOUND * s["base"]["median"]
    assert s["median_change"] == pytest.approx(0.134, abs=1e-3)
    assert s["verdict"] == "unresolved"
    # the same runs under a wider bound are within it
    assert ab_bench.verdict(WIDE_BASE, WIDE_HEAD, "lower", 0.4)["verdict"] == "within bound"
    # a gain in every pair is unresolved too while the trees overlap
    head = [0.8 * b for b in WIDE_BASE]
    s = ab_bench.verdict(WIDE_BASE, head, "lower", BOUND)
    assert (s["head_better_in"], s["verdict"]) == ("10 of 10", "unresolved")


def test_a_gain_past_a_wide_spread_counts_when_no_runs_overlap():
    head = [0.3 + 0.01 * i for i in range(10)]
    s = ab_bench.verdict(WIDE_BASE, head, "lower", BOUND)
    assert s["head_better_than_every_base_run"]
    assert s["verdict"] == "better"


def test_eight_wins_of_ten_are_within_bound():
    head = [0.7 * b for b in BASE]
    head[3] = head[7] = 2.0
    s = ab_bench.verdict(BASE, head, "lower", BOUND)
    assert s["head_better_in"] == "8 of 10"
    assert s["verdict"] == "within bound"


def test_a_gain_inside_the_base_spread_is_within_bound():
    # better in every pair, but by less than the base's IQR
    head = [b - 0.01 for b in BASE]
    s = ab_bench.verdict(BASE, head, "lower", BOUND)
    assert s["head_better_in"] == "10 of 10"
    assert s["verdict"] == "within bound"


def test_the_same_runs_are_within_bound():
    s = ab_bench.verdict(BASE, list(BASE), "lower", BOUND)
    assert (s["head_better_in"], s["verdict"]) == ("0 of 10", "within bound")


def halved(tree, b):
    return b if tree == "base" else 0.5 * b


def test_summary_pairs_runs_by_their_pair_index():
    summary = ab_bench.summarize(canned_runs(halved), END_TO_END)
    assert summary["wall_s"]["verdict"] == "better"
    assert summary["wall_s"]["head"]["median"] == pytest.approx(0.5 * summary["wall_s"]["base"]["median"])
    assert summary["peak_rss_mb"]["verdict"] == "within bound"
    assert summary["peak_rss_mb"]["unit"] == "MiB"
    assert summary["wall_s"]["bound"] == BOUND


def test_a_gain_does_not_count_when_more_operations_fail():
    runs = canned_runs(halved, failed=(0, 1))
    assert ab_bench.failed_shares(runs) == {"base": 0.0, "head": 0.001}
    summary = ab_bench.summarize(runs, END_TO_END)
    assert summary["wall_s"]["head_better_in"] == "10 of 10"
    assert summary["wall_s"]["verdict"] == "within bound"
    # as many failures in both trees leave the gain standing
    summary = ab_bench.summarize(canned_runs(halved, failed=(1, 1)), END_TO_END)
    assert summary["wall_s"]["verdict"] == "better"


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        ab_bench.verdict([1.0, 2.0], [1.0], "lower", BOUND)
