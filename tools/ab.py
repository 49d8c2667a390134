"""A/B runs of perfbench: this checkout against a parent commit.

    python tools/ab.py --parent HEAD~1 --pairs 10 --rounds 1 [--workload euro-t10]
                       [--seed 7] [--seconds 15] [--tag NAME]

The parent commit's files are exported with ``git archive`` into a
temporary directory, removed afterwards.  Each pair runs one fresh
``perfbench/run.py`` process per side, the side that goes first
alternating from pair to pair, and reads the last JSON line each prints,
as is.  A run that is not ``correct`` stops the comparison: it is named
(workload, pair, side) and the exit status is 1.  For every end-to-end
metric (all are lower-is-better seconds) it prints, per round, how many
pairs the change won, and over all pairs the median of change / parent
with a percentile bootstrap interval.  With ``--tag NAME`` it also runs
Tier-1 once in this checkout and writes ``BENCH_NAME.json`` at its root:
per workload, side and metric the median, quartiles and count; each
side's correct-run count; the environment from perfbench's own record;
both commits; Tier-1's wall time, summary line and five slowest tests;
and the known defects of perfbench as notes.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("euro-t1", "euro-t10", "bermudan-t1")
SIDES = ("parent", "change")
BOOTSTRAP = 4000
LEVEL = 0.95

#: Defects of perfbench that bear on these numbers; they stay until
#: perfbench itself is changed.
NOTES = (
    "setup_s counts source compilation when PYTHONDONTWRITEBYTECODE=1 is set.",
    "SpeedProbe runs a threaded (16384, 19) product before every timed call, so "
    "OpenBLAS's worker may still spin when the call starts; two-CPU gains on short "
    "calls read smaller than they are.",
    "Times are scaled by one run's median probe wall; a machine whose speed drifts "
    "within a run is only partly corrected.",
    "price_s_1bp is price_s x sd^2 of the first price call; it assumes sd^2 ~ 1/M, "
    "which understates a randomised lattice rule.",
    "tracing.py keeps one span stack for all threads, and the trigger and the proxy "
    "transition have no span of their own (per-layer metrics only).",
)


def last_json(stdout: str) -> dict:
    """The last line of perfbench's standard output, parsed as is."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def summary(values) -> dict:
    """Median, quartiles and count of one side's values of one metric."""
    v = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "count": int(v.size)}


def bootstrap_ci(ratios, seed: int = 0, reps: int = BOOTSTRAP, level: float = LEVEL):
    """Percentile bootstrap interval of the median of ``ratios``."""
    r = np.asarray(ratios, dtype=np.float64)
    idx = np.random.default_rng(seed).integers(0, r.size, size=(reps, r.size))
    meds = np.median(r[idx], axis=1)
    tail = 50.0 * (1.0 - level)
    lo, hi = np.percentile(meds, [tail, 100.0 - tail])
    return float(lo), float(hi)


def compare(runs: list[dict], metric: str, pairs_per_round: int) -> dict:
    """Paired statistics of one metric over ``runs``, one dict per pair.

    A pair is ``{"parent": result, "change": result}``, each result a
    perfbench JSON line.  The change wins a pair when its value is lower.
    """
    par = np.array([p["parent"]["metrics"][metric]["value"] for p in runs])
    chg = np.array([p["change"]["metrics"][metric]["value"] for p in runs])
    wins = chg < par
    rounds = [{"wins": int(wins[k:k + pairs_per_round].sum()),
               "pairs": int(wins[k:k + pairs_per_round].size)}
              for k in range(0, len(runs), pairs_per_round)]
    ratio = chg / par
    return {
        "parent": summary(par),
        "change": summary(chg),
        "rounds": rounds,
        "median_ratio": float(np.median(ratio)),
        f"ci{round(100 * LEVEL)}": bootstrap_ci(ratio),
    }


def report(runs: list[dict], pairs_per_round: int) -> dict:
    metrics = sorted(runs[0]["parent"]["metrics"])
    return {
        "correct": {side: sum(bool(p[side]["correct"]) for p in runs) for side in SIDES},
        "pairs": len(runs),
        "metrics": {m: compare(runs, m, pairs_per_round) for m in metrics},
    }


def print_report(workload: str, rep: dict) -> None:
    print(f"{workload}: {rep['pairs']} pairs, correct runs "
          + ", ".join(f"{s} {rep['correct'][s]}/{rep['pairs']}" for s in SIDES))
    for name, m in rep["metrics"].items():
        wins = " ".join(f"{r['wins']}/{r['pairs']}" for r in m["rounds"])
        lo, hi = m[f"ci{round(100 * LEVEL)}"]
        print(f"  {name:12s} parent {m['parent']['median']:.4g}  change "
              f"{m['change']['median']:.4g}  ratio {m['median_ratio']:.3f} "
              f"[{lo:.3f}, {hi:.3f}]  wins {wins}")


#: One line of pytest's ``--durations`` table: seconds, phase, test id.
_DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)\s*$")
#: pytest's closing line, e.g. "577 passed, 2 failed in 138.46s (0:02:18)".
_SUMMARY = re.compile(r"^=*\s*(\d+ \w+.* in [0-9.]+s\b.*?)\s*=*$")


def tier1_report(stdout: str, wall_s: float) -> dict:
    """Tier-1's wall time, its closing summary and its slowest tests, from pytest's output."""
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(_DURATION.match, stdout.splitlines()) if m]
    summary = [m[1] for m in map(_SUMMARY.match, stdout.splitlines()) if m]
    return {"wall_s": wall_s, "summary": summary[-1] if summary else None,
            "slowest": slowest[:5]}


def run_tier1(root: Path) -> dict:
    """Run Tier-1 once in ``root``, as ROADMAP.md states it, and time it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=5"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return tier1_report(proc.stdout, time.perf_counter() - start)


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_commit(sha: str, dest: Path) -> None:
    """The files of commit ``sha``, written under ``dest`` by ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One fresh perfbench process in ``root``: its JSON line and its environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    record = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    return last_json(proc.stdout), json.loads(record.read_text())["env"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent commit (default HEAD~1)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10, help="pairs per round")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--tag")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    parent_sha = git("rev-parse", args.parent)
    change_sha = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    tmp = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    export_commit(parent_sha, tmp)
    roots = {"parent": tmp, "change": ROOT}
    out = {"tag": args.tag, "commits": {"parent": parent_sha, "change": change_sha},
           "settings": {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
                        "rounds": args.rounds},
           "env": None, "workloads": {}, "notes": list(NOTES)}
    try:
        for wl in workloads:
            runs = []
            for k in range(args.pairs * args.rounds):
                pair = {}
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    pair[side], env = run_side(roots[side], wl, args.seed, args.seconds)
                    if not pair[side]["correct"]:
                        print(f"ab: {wl} pair {k + 1}: the {side} run is not correct "
                              f"({pair[side]['failed']} of {pair[side]['attempted']} calls "
                              "failed); see its .perfbench_out record", file=sys.stderr)
                        return 1
                    if side == "change":
                        out["env"] = env
                runs.append(pair)
                print(f"{wl} pair {k + 1}: " + ", ".join(
                    f"{s} price_s_1bp {pair[s]['metrics']['price_s_1bp']['value']:.4g}"
                    for s in SIDES), flush=True)
            out["workloads"][wl] = report(runs, args.pairs)
            print_report(wl, out["workloads"][wl])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.tag:
        out["tier1"] = run_tier1(ROOT)
        print(f"tier-1: {out['tier1']['summary']}, wall {out['tier1']['wall_s']:.1f} s")
        path = ROOT / f"BENCH_{args.tag}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
