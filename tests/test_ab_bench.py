"""scripts/ab_bench.py's summary of alternating parent/change pairs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SPEC = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "stage1_per_s", "better": "higher", "bound": 0.25},
]}
# per pair (parent, change): wall_s, stage1_per_s and minflt
VALUES = {
    "parent": ([10, 11, 12, 13, 14], [100, 200, 300, 400, 500], [1, 2, 3, 4, 5]),
    "change": ([14, 15, 16, 17, 18], [150, 150, 330, 450, 600], [6, 7, 8, 9, 10]),
}


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, wall, rate, minflt, failed=0):
    result = {"failed": failed, "attempted": 3,
              "metrics": {"wall_s": {"value": wall}, "stage1_per_s": {"value": rate}}}
    return {"workload": "w", "pair": pair, "side": side, "minflt": minflt, "result": result}


def _runs():
    runs = []
    for pair in range(5):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            wall, rate, minflt = (column[pair] for column in VALUES[side])
            runs.append(_run(pair, side, wall, rate, minflt, failed=int(side == "change")))
    # pair 5 has no change run and pair 6's change run printed no result: both are dropped
    runs.append(_run(5, "parent", 1e6, 1e-6, 99))
    runs += [_run(6, "parent", 1e6, 1e-6, 99), dict(_run(6, "change", 0, 0, 99), result=None)]
    return runs


def test_summary_per_metric(ab_bench):
    out = ab_bench.summarize(_runs(), SPEC)["w"]
    assert out["pairs"] == 5
    assert out["parent_checks_failed"] == "0 of 15"
    assert out["change_checks_failed"] == "5 of 15"
    assert out["parent_minflt"] == [1, 2, 3, 4, 5]
    assert out["change_minflt"] == [6, 7, 8, 9, 10]
    assert (out["parent_minflt_median"], out["parent_minflt_quartiles"]) == (3, [2, 4])
    assert (out["change_minflt_median"], out["change_minflt_quartiles"]) == (8, [7, 9])
    assert out["wall_s"] == {
        "parent_median": 12, "change_median": 16, "change_over_parent": 1.3333,
        "parent_quartiles": [11, 13], "change_quartiles": [15, 17], "parent_iqr": 2,
        "change_wins": "0 of 5", "worse_by": 0.3333, "bound": 0.25, "within_bound": False,
        "unresolved": False,
    }
    assert out["stage1_per_s"] == {
        "parent_median": 300, "change_median": 330, "change_over_parent": 1.1,
        "parent_quartiles": [200, 400], "change_quartiles": [150, 450], "parent_iqr": 200,
        "change_wins": "4 of 5", "worse_by": -0.1, "bound": 0.25, "within_bound": True,
        "unresolved": True,
    }


def test_workload_with_no_whole_pair_has_no_summary(ab_bench):
    runs = [_run(0, "parent", 1, 1, 1), dict(_run(0, "change", 1, 1, 1), result=None)]
    assert ab_bench.summarize(runs, SPEC) == {}


def _pairs(parent, change):
    """Runs of five pairs whose wall_s and stage1_per_s both read ``parent`` and ``change``."""
    return [_run(pair, side, value, value, 0)
            for pair in range(5) for side, value in (("parent", parent[pair]),
                                                     ("change", change[pair]))]


@pytest.mark.parametrize("parent,change,wall,rate", [
    # parent median 100, IQR 15 against a bound of 0.25 * 100: resolved either way
    ([90, 95, 100, 110, 115], [100] * 5, False, False),
    # IQR exactly the bound times the median is not wider than it
    ([80, 95, 100, 120, 125], [100] * 5, False, False),
    # IQR 30: unresolved, unless every change run is better than every parent run
    ([70, 90, 100, 120, 130], [100] * 5, True, True),
    ([70, 90, 100, 120, 130], [60, 61, 62, 63, 64], False, True),
    ([70, 90, 100, 120, 130], [131, 140, 150, 160, 170], True, False),
    # a change run that ties the parent's best run does not beat it
    ([70, 90, 100, 120, 130], [70, 61, 62, 63, 64], True, True),
])
def test_unresolved_when_the_parent_spreads_past_the_bound(ab_bench, parent, change, wall, rate):
    out = ab_bench.summarize(_pairs(parent, change), SPEC)["w"]
    assert (out["wall_s"]["unresolved"], out["stage1_per_s"]["unresolved"]) == (wall, rate)
