"""The statistics of tools/ab.py on canned perfbench lines; no perfbench runs."""
import importlib.util
import json
import subprocess
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


TIER1_OUT = """\
........................................................................ [ 12%]
..........F............................................................. [100%]
============================= slowest 5 durations ==============================
23.94s call     tests/test_acceptance.py::test_criterion_5_bermudan_tables
22.52s call     tests/test_acceptance.py::test_criterion_9_cost_profile
14.51s call     tests/test_acceptance.py::test_criterion_2_constant_drift_oracle
10.99s call     tests/test_acceptance.py::test_criterion_4_european_tables
0.91s setup    tests/test_bermudan.py::TestCalibration::test_golden_policy_fit[1.0]

(40 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_mc.py::TestRowSlices::test_full_width_cuts_chunk_rows[5] - assert
1 failed, 576 passed in 138.46s (0:02:18)
"""


def test_tier1_report_reads_the_slowest_tests_and_the_summary(ab):
    rep = ab.tier1_report(TIER1_OUT, 140.25)
    assert rep["wall_s"] == 140.25
    assert rep["summary"] == "1 failed, 576 passed in 138.46s (0:02:18)"
    assert [t["seconds"] for t in rep["slowest"]] == [23.94, 22.52, 14.51, 10.99, 0.91]
    assert rep["slowest"][0]["test"] == "tests/test_acceptance.py::test_criterion_5_bermudan_tables"
    assert rep["slowest"][4]["phase"] == "setup"
    # the banner form of a verbose run reads the same
    banner = ab.tier1_report("===== 577 passed in 116.02s (0:01:56) =====\n", 1.0)
    assert banner == {"wall_s": 1.0, "summary": "577 passed in 116.02s (0:01:56)", "slowest": []}


def test_an_incorrect_run_stops_the_comparison(ab, monkeypatch, capsys):
    # pair 1 is correct on both sides; in pair 2 the change runs first
    # and is not correct: the run stops there, names it and exits 1
    runs = iter([line(price_s=1.0, price_s_1bp=1.0), line(price_s=0.9, price_s_1bp=0.9),
                 line(False, price_s=0.9, price_s_1bp=0.9)])
    sides = []

    def run_side(root, workload, seed, seconds):
        sides.append(root)
        return json.loads(next(runs)), {}

    monkeypatch.setattr(ab, "git", lambda *args, cwd=None: "abc")
    monkeypatch.setattr(ab, "export_commit", lambda sha, dest: None)
    monkeypatch.setattr(ab, "run_side", run_side)
    assert ab.main(["--workload", "euro-t1", "--pairs", "3", "--tag", "never"]) == 1
    assert len(sides) == 3 and sides[2] == ab.ROOT
    err = capsys.readouterr().err
    assert "euro-t1 pair 2: the change run is not correct (1 of 9 calls failed)" in err
    assert not (ab.ROOT / "BENCH_never.json").exists()


def test_parent_is_exported_from_git(ab, tmp_path, monkeypatch):
    # the parent side runs on the committed files alone, as perfbench
    # needs them: not the uncommitted edit, not the repository itself
    repo, dest = tmp_path / "repo", tmp_path / "parent"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "m.py").write_text("x = 1\n")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "c"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    (repo / "src" / "m.py").write_text("x = 2\n")
    monkeypatch.setattr(ab, "ROOT", repo)
    ab.export_commit("HEAD", dest)
    assert (dest / "src" / "m.py").read_text() == "x = 1\n"
    assert not (dest / ".git").exists()
