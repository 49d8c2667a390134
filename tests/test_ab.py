"""The statistics of tools/ab.py on canned perfbench lines; no perfbench runs."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def line(correct=True, **metrics):
    return json.dumps({"correct": correct, "attempted": 9, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})


def canned_runs(parent, change, correct=True):
    return [{"parent": json.loads(line(price_s=p, price_s_1bp=10 * p)),
             "change": json.loads(line(correct, price_s=c, price_s_1bp=c))}
            for p, c in zip(parent, change)]


def test_last_json_line_is_read_as_is(ab):
    out = "perfbench euro-t1: ...\n  price_s = 0.2 s\n" + line(price_s=0.2) + "\n\n"
    assert ab.last_json(out)["metrics"]["price_s"]["value"] == 0.2
    with pytest.raises(ValueError):
        ab.last_json("\n")


def test_summary_is_median_quartiles_and_count(ab):
    s = ab.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert s == {"median": 3.0, "q1": 2.0, "q3": 4.0, "count": 5}


def test_wins_are_counted_per_round(ab):
    # round 1: the change wins pairs 1, 2 and 4; round 2: pair 5 only
    parent = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    change = [0.9, 0.8, 1.2, 0.7, 0.5, 1.0]
    rep = ab.compare(canned_runs(parent, change), "price_s", pairs_per_round=4)
    assert rep["rounds"] == [{"wins": 3, "pairs": 4}, {"wins": 1, "pairs": 2}]
    assert rep["median_ratio"] == pytest.approx(np.median(np.array(change) / parent))
    assert rep["parent"]["count"] == rep["change"]["count"] == 6


def test_bootstrap_interval_holds_the_median_and_is_reproducible(ab):
    ratios = np.linspace(0.05, 0.15, 11)
    lo, hi = ab.bootstrap_ci(ratios)
    assert lo <= np.median(ratios) <= hi
    assert ratios.min() <= lo and hi <= ratios.max()
    assert (lo, hi) == ab.bootstrap_ci(ratios)
    assert ab.bootstrap_ci(np.full(7, 0.5)) == (0.5, 0.5)


def test_report_counts_correct_runs_per_side(ab):
    rep = ab.report(canned_runs([1.0, 2.0], [0.5, 1.0], correct=False), pairs_per_round=2)
    assert rep["correct"] == {"parent": 2, "change": 0}
    assert sorted(rep["metrics"]) == ["price_s", "price_s_1bp"]
    # price_s_1bp: parent 10 and 20 against 0.5 and 1, a ratio of 0.05
    m = rep["metrics"]["price_s_1bp"]
    assert m["rounds"] == [{"wins": 2, "pairs": 2}]
    assert m["median_ratio"] == pytest.approx(0.05)
    assert m["ci95"] == pytest.approx((0.05, 0.05))
