"""Desk-call benchmark of wkbmc: timed public calls on three workloads.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload euro-t1 --seed 7 --seconds 15 --trace 0

Every workload uses the shipped case study (``configs/case_study.cfg``),
the level-1 kernel, bump h = 3.5e-5 and Delta on the last component.
A run warms each call up at a small sample count (all but the Bermudan
policy fit, which costs the same at any M), then times the
workload's calls in turn; each call repeats until the next repeat would
take it past its equal share of ``--seconds`` (every call runs at least
twice).  Each timed call's result is checked against the published
reference and against the first call of its kind, bit for bit.

``--trace 0`` prints the end-to-end metrics (medians over the run's
calls).  ``--trace 1`` adds one traced pass over the calls after the
untraced ones and prints the per-layer metrics taken from its spans
(see ``tracing.py``).  Times are reported at a reference machine speed
(see ``SpeedProbe``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (environment, raw walls, every call's
value, sd, ESS and largest weight, and the spans) goes to
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "case_study.cfg"
OUT_DIR = ROOT / ".perfbench_out"

LEVEL = 1
H = 3.5e-5
CALIB_PATHS = 10_000
CALIB_SEED = 101
WARM_M = 4096
SETUP_REPEATS = 3
MIN_REPEATS = 2
#: Median wall of one SpeedProbe() on the machine the benchmark was tuned
#: on (2-vCPU Xeon KVM guest, numpy 2.4.6, OpenBLAS 0.3.31): reported
#: times are seconds at that speed.
PROBE_REF_S = 0.08
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Workload(NamedTuple):
    product: str
    t1: float
    m: int
    why: str


WORKLOADS = {
    "euro-t1": Workload(
        "european", 1.0, 100_000,
        "one-shot price and Delta dominate; the 10-step Euler oracle is the contrast",
    ),
    "euro-t10": Workload(
        "european", 10.0, 100_000,
        "one-shot cost should match euro-t1; the 100-step Euler oracle dominates",
    ),
    "bermudan-t1": Workload(
        "bermudan", 1.0, 20_000,
        "continuation Euler steps over partly alive rows and the exercise trigger",
    ),
}

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "price_s": "s",
    "delta_s": "s",
    "euler_s": "s",
    "price_s_1bp": "s",
}


class Call(NamedTuple):
    key: str                 # "price", "delta" or "euler": the metric it feeds
    label: str               # public function the call enters, as module.name
    fn: Callable[[], object]
    reference: tuple | None  # (kind, level) in harness.REFERENCE, or None


def european_calls(est, cfg, m: int, seed: int) -> list[Call]:
    def inputs():
        return est.european_inputs(cfg, LEVEL, m=m, seed=seed, h=H)

    def euler():
        inp = inputs()
        return est.euler_price(cfg, cfg.t1, inp.payoff, m=m, seed=seed, scale=inp.scale)

    return [
        Call("price", "estimators.price", lambda: est.price(inputs()),
             ("european_price", LEVEL)),
        Call("delta", "estimators.delta_fd", lambda: est.delta_fd(inputs(), cfg.n - 1),
             ("european_delta", LEVEL)),
        Call("euler", "estimators.euler_price", euler, ("european_price", "euler")),
    ]


def bermudan_calls(brm, cfg, m: int, seed: int) -> list[Call]:
    # Price and Delta run under the latest fitted policy; the warm-up
    # skips the fit (it costs the same at any M) and prices premium-free.
    n_dates = len(cfg.exercise_indices)
    held = {"policy": brm.AndersenPolicy(cfg.exercise_indices, cfg.exercise_dates, [0.0] * n_dates)}

    def calibrate():
        held["policy"] = brm.calibrate_policy(cfg, n_paths=CALIB_PATHS, seed=CALIB_SEED)
        return held["policy"]

    return [
        Call("euler", "bermudan.calibrate_policy", calibrate, None),
        Call("price", "bermudan.bermudan_price",
             lambda: brm.bermudan_price(cfg, held["policy"], level=LEVEL, m=m, seed=seed),
             ("bermudan_price", LEVEL)),
        Call("delta", "bermudan.bermudan_delta_fd",
             lambda: brm.bermudan_delta_fd(
                 cfg, held["policy"], i=cfg.n - 1, h=H, level=LEVEL, m=m, seed=seed),
             ("bermudan_delta", LEVEL)),
    ]


def audit_fields(result) -> dict:
    """What a result says, as plain numbers; equal dumps mean equal bits."""
    if hasattr(result, "thresholds"):
        return {
            "thresholds": result.thresholds.tolist(),
            "objectives": result.objectives.tolist(),
        }
    return {
        "value": result.value,
        "sd": result.sd,
        "m": result.m,
        "ess": result.ess,
        "max_weight": result.max_weight,
    }


class Ledger:
    """Every checked call of a run: wall time, result fields and problems."""

    def __init__(self, harness, t1: float) -> None:
        self._harness = harness
        self._t1 = t1
        self._first: dict[str, str] = {}
        self.records: list[dict] = []

    def add(self, call: Call, result, wall: float, phase: str) -> dict:
        fields = audit_fields(result)
        problems = []
        if call.reference is not None:
            ref, ref_sd = self._harness.reference(call.reference[0], self._t1, call.reference[1])
            gate = max(0.005 * abs(ref), 3.0 * math.hypot(fields["sd"], ref_sd))
            gap = abs(fields["value"] - ref)
            if not gap < gate:
                problems.append(f"|{fields['value']:.4f} - {ref}| = {gap:.4f} >= gate {gate:.4f}")
        elif not all(math.isfinite(v) for v in fields["thresholds"]):
            problems.append("non-finite threshold")
        key = json.dumps(fields)
        if self._first.setdefault(call.key, key) != key:
            problems.append("differs bit for bit from the first call with the same inputs")
        rec = {"call": call.label, "key": call.key, "phase": phase, "wall_s": wall,
               **fields, "problems": problems}
        self.records.append(rec)
        return rec

    def walls(self, key: str, phase: str = "timed") -> list[float]:
        return [r["wall_s"] for r in self.records if r["key"] == key and r["phase"] == phase]

    def first(self, key: str) -> dict:
        return json.loads(self._first[key])

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


class SpeedProbe:
    """Fixed, program-independent work that tracks the machine's speed.

    The shared virtual machine this benchmark was tuned on changes speed
    by up to a factor of two within minutes, for every process alike.  The probe
    mixes array work shaped like one batch of the estimators
    (16384 x 19 matmul, exp, logaddexp, expit) with interpreter work, and
    runs before every timed call and every set-up.  Timings are
    reported at the reference speed: the run's medians times
    ``PROBE_REF_S / median probe wall``.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = 0.1 * rng.standard_normal((16384, 19))
        self._g = 0.2 * rng.standard_normal((19, 19))
        self.walls: list[float] = []

    def __call__(self) -> None:
        import numpy as np
        from scipy.special import expit

        t0 = time.perf_counter()
        for _ in range(3):
            u = self._x @ self._g.T
            c = np.exp(u) * expit(u) / (1.0 + np.logaddexp(0.0, u))
            np.sum(c * c, axis=1)
        acc = 0
        for i in range(20_000):
            acc ^= hash((i, acc & 0xFF))
        self.walls.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return PROBE_REF_S / statistics.median(self.walls)


def run_call(call: Call, probe: SpeedProbe, tracer=None):
    probe()
    t0 = time.perf_counter()
    result = call.fn() if tracer is None else tracer.call(call.label, call.fn)
    return result, time.perf_counter() - t0


def timed_calls(calls: list[Call], seconds: float, ledger: Ledger, probe: SpeedProbe) -> None:
    """Time the calls in turn, each within its share of ``seconds``.

    A call repeats while its next repeat, at its mean wall so far, still
    fits in ``seconds / len(calls)``, and at least ``MIN_REPEATS`` times.
    Cheap calls thus get as many samples as the budget allows, while an
    expensive one (the 100-step oracle) is not cut below two.
    """
    share = seconds / len(calls)
    while True:
        due = []
        for call in calls:
            walls = ledger.walls(call.key)
            if len(walls) < MIN_REPEATS or sum(walls) * (1 + 1 / len(walls)) <= share:
                due.append(call)
        if not due:
            return
        for call in due:
            result, wall = run_call(call, probe)
            ledger.add(call, result, wall, "timed")


def setup_times(t1: float, probe: SpeedProbe) -> list[float]:
    """Fresh-interpreter set-up: import wkbmc, load the config, build it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(CONFIG), repr(t1)]
    out = []
    for _ in range(SETUP_REPEATS):
        probe()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def alive_ratio(brm, cfg, policy, m: int, seed: int) -> float:
    """Alive rows over stepped rows across the continuation legs.

    The continuation steps every row of a batch on every leg; a row is
    alive on a leg until the date it exercised at.
    """
    freq = brm.exercise_frequencies(cfg, policy, level=LEVEL, m=m, seed=seed)
    stepped = alive = stopped = 0.0
    t_prev = cfg.t1
    for k, date in enumerate(policy.dates):
        steps = round((date - t_prev) / cfg.dt_berm)
        stepped += steps
        alive += steps * (1.0 - stopped)
        stopped += freq[k]
        t_prev = date
    return alive / stepped


def environment(np, scipy, blas_threads: int, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "cpu": cpu,
        "nproc": _nproc(),
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
        "commit": _git_commit(),
        "seed": seed,
        "calibration_seed": CALIB_SEED,
    }


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def per_layer_metrics(totals: dict, alive: float, overhead: float) -> dict:
    from tracing import DRIVERS, LAYERS

    metrics = {}
    for name in LAYERS:
        t = totals[name]
        metrics[f"{name}.self_s"] = (t["self_s"], "s")
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.rows"] = (t["rows"], "rows")
    for group in DRIVERS:
        metrics[f"{group}.driver.self_s"] = (totals[f"{group}.driver"]["self_s"], "s")
    metrics["bermudan.continuation_alive_ratio"] = (alive, "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wkbmc" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"perfbench: no wkbmc sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    # One process carries all load; its BLAS may use every core, no more.
    blas_threads = _nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import wkbmc
    from wkbmc import bermudan as brm
    from wkbmc import estimators as est
    from wkbmc import harness, lmm

    if Path(wkbmc.__file__).resolve().parent != (SRC / "wkbmc").resolve():
        print(f"perfbench: imported wkbmc from {wkbmc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment(np, scipy, blas_threads, args.seed)
    cfg = harness.build_config(lmm.load_config(CONFIG), wl.t1)
    make_calls = european_calls if wl.product == "european" else bermudan_calls
    module = est if wl.product == "european" else brm
    calls = make_calls(module, cfg, wl.m, args.seed)

    probe = SpeedProbe()
    probe()
    probe.walls.clear()
    setup = [] if args.trace else setup_times(wl.t1, probe)
    for call in make_calls(module, cfg, WARM_M, args.seed):
        if call.label != "bermudan.calibrate_policy":
            call.fn()
    ledger = Ledger(harness, wl.t1)
    timed_calls(calls, args.seconds, ledger, probe)

    medians = {k: statistics.median(ledger.walls(k)) for k in ("price", "delta", "euler")}
    report = {"workload": args.workload, "why": wl.why, "t1": wl.t1, "m": wl.m,
              "level": LEVEL, "h": H, "seconds": args.seconds, "env": env,
              "setup_s": setup}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed(wkbmc):
            traced = [ledger.add(call, *run_call(call, probe, tracer), "traced") for call in calls]
        overhead = sum(rec["wall_s"] - medians[rec["key"]] for rec in traced)
        for cid in tracer.overfull_calls():
            traced[cid]["problems"].append("child self times exceed the call's wall time")
        alive = 0.0
        if wl.product == "bermudan":
            policy = brm.calibrate_policy(cfg, n_paths=CALIB_PATHS, seed=CALIB_SEED)
            alive = alive_ratio(brm, cfg, policy, wl.m, args.seed)
        metrics = per_layer_metrics(tracer.layer_totals(), alive, overhead)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "price_s": medians["price"],
            "delta_s": medians["delta"],
            "euler_s": medians["euler"],
            "price_s_1bp": medians["price"] * ledger.first("price")["sd"] ** 2,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}

    scale = probe.scale()
    report["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["probe_walls_s"] = probe.walls
    report["speed_scale"] = scale
    metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in metrics.items()}
    report["calls"] = ledger.records
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "call_id", "parent", "start", "end", "rows"],
             "spans": tracer.spans}))

    print_summary(report, calls, ledger, metrics)
    return 0


def print_summary(report: dict, calls: list[Call], ledger: Ledger, metrics: dict) -> None:
    """Readable lines, then the one-line JSON result as the last line."""
    attempted = len(ledger.records)
    failed = ledger.failed
    print(f"perfbench {report['workload']}: {report['why']}")
    print(f"  T1={report['t1']:g} M={report['m']} level={LEVEL} h={H:g} "
          f"seed={report['env']['seed']} calibration_seed={CALIB_SEED}")
    print("  env " + json.dumps(report["env"]))
    for call in calls:
        walls = ledger.walls(call.key)
        shown = {k: v for k, v in ledger.first(call.key).items()
                 if k in ("value", "sd", "ess", "max_weight", "thresholds")}
        print(f"  {call.label}: {len(walls)} calls, median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s; " + json.dumps(shown))
    for rec in ledger.records:
        for problem in rec["problems"]:
            print(f"  FAILED {rec['call']} ({rec['phase']}): {problem}")
    walls = report["probe_walls_s"]
    print(f"  speed probe: median {statistics.median(walls):.4f} s over {len(walls)} runs; "
          f"times below are at the reference {PROBE_REF_S} s (x {report['speed_scale']:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
