"""Benchmark drivers: case-study tables, cost curves, self checks, calibration.

The reference numbers below are the published benchmark values for the
flat-curve semiannual case study (3.5% forwards, 20% vol, 3.5% strike,
annual exercise rights out to the last reset), quoted in basis points
with the standard deviation of the mean at five hundred thousand
samples.  Desk-scale runs use fewer samples, so their own SD column is
the right yardstick when comparing against these.

Every driver emits rows in one fixed CSV schema.  All columns are
deterministic functions of (config, seed, M) except ``wall_ms``, which
is measured wall-clock time; determinism checks strip it first.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np

from . import bermudan as brm
from . import estimators as est
from . import lmm, mc, proxy, wkb
from .payoffs import SwaptionSpec, swaption_payoff

__all__ = [
    "CSV_HEADER",
    "T1_SWEEP",
    "BENCH_ESTIMATORS",
    "TABLE_KIND",
    "REFERENCE",
    "reference",
    "case_study_raw",
    "build_config",
    "strip_wall",
    "run_table",
    "run_bench",
    "run_explosion",
    "run_selftest",
    "calibrate_n",
]

CSV_HEADER = "estimator,T1,level,value_bp,sd_bp,M,h,seed,wall_ms"
T1_SWEEP = (1.0, 2.0, 5.0, 10.0)
LEVELS = ("euler", "lgn", "0", "1")
#: Estimator groups ``run_bench`` can time.
BENCH_ESTIMATORS = ("european", "bermudan")

DEFAULT_SAMPLES = 100_000
FULL_SAMPLES = 500_000
DEFAULT_H = 3.5e-5
DEFAULT_SEED = 7
CALIBRATION_PATHS = 10_000
CALIBRATION_SEED = 101

TABLE_KIND = {
    1: "european_price",
    2: "european_delta",
    3: "bermudan_price",
    4: "bermudan_delta",
}

# benchmark study values: kind -> level -> T1 -> (value_bp, sd_bp at 5e5)
REFERENCE = {
    "european_price": {
        "euler": {1.0: (178.9, 0.4), 2.0: (245.3, 0.6), 5.0: (351.3, 1.0), 10.0: (429.6, 1.5)},
        "lgn":   {1.0: (179.0, 0.4), 2.0: (246.5, 0.6), 5.0: (359.8, 1.0), 10.0: (451.4, 1.6)},
        "0":     {1.0: (181.6, 0.4), 2.0: (251.4, 0.6), 5.0: (376.4, 1.1), 10.0: (495.6, 1.7)},
        "1":     {1.0: (178.9, 0.4), 2.0: (244.3, 0.6), 5.0: (352.7, 1.0), 10.0: (431.8, 1.4)},
    },
    "european_delta": {
        "euler": {1.0: (1768.3, 2.8), 2.0: (1726.4, 2.9), 5.0: (1599.6, 3.2), 10.0: (1417.1, 3.8)},
        "lgn":   {1.0: (1774.2, 2.8), 2.0: (1732.1, 2.9), 5.0: (1615.9, 3.3), 10.0: (1474.0, 4.2)},
        "0":     {1.0: (1794.9, 2.9), 2.0: (1729.0, 2.9), 5.0: (1722.5, 3.5), 10.0: (1668.0, 4.7)},
        "1":     {1.0: (1770.7, 2.8), 2.0: (1729.0, 2.9), 5.0: (1597.0, 3.2), 10.0: (1422.7, 3.9)},
    },
    "bermudan_price": {
        "euler": {1.0: (351.2, 0.7), 2.0: (388.4, 0.8), 5.0: (461.5, 1.1), 10.0: (523.7, 1.6)},
        "lgn":   {1.0: (350.9, 0.7), 2.0: (388.2, 0.8), 5.0: (466.3, 1.1), 10.0: (543.6, 1.7)},
        "0":     {1.0: (354.7, 0.7), 2.0: (396.6, 0.8), 5.0: (492.9, 1.1), 10.0: (601.2, 1.7)},
        "1":     {1.0: (351.2, 0.7), 2.0: (387.3, 0.8), 5.0: (460.8, 1.1), 10.0: (523.6, 1.5)},
    },
    "bermudan_delta": {
        "euler": {1.0: (2709.2, 3.5), 2.0: (2631.1, 3.5), 5.0: (2392.9, 3.7), 10.0: (2101.5, 4.4)},
        "lgn":   {1.0: (2720.9, 3.5), 2.0: (2630.5, 3.5), 5.0: (2407.7, 3.8), 10.0: (2152.5, 4.7)},
        "0":     {1.0: (2747.2, 3.5), 2.0: (2700.7, 3.6), 5.0: (2561.9, 4.0), 10.0: (2443.4, 5.3)},
        "1":     {1.0: (2709.2, 3.5), 2.0: (2628.6, 3.5), 5.0: (2398.0, 3.8), 10.0: (2111.5, 4.4)},
    },
}


def reference(kind: str, t1: float, level) -> tuple[float, float]:
    """Benchmark (value, sd) for one cell; raises KeyError off the grid."""
    return REFERENCE[kind][str(level)][float(t1)]


def case_study_raw() -> dict:
    """Settings of the benchmark case study, minus the maturity."""
    return {
        "n": 19,
        "delta": 0.5,
        "l0": 0.035,
        "vol": 0.2,
        "rho_inf": 0.3,
        "strike": 0.035,
        "exercise_indices": tuple(range(1, 20, 2)),
    }


def build_config(raw: dict | None, t1: float) -> lmm.ModelConfig:
    return lmm.make_config(dict(raw) if raw else case_study_raw(), t1)


def _row(estimator, t1, level, value, sd, m, h, seed, wall_ms) -> str:
    h_txt = f"{h:g}" if h is not None else ""
    return (
        f"{estimator},{t1:g},{level},{value:.10g},{sd:.10g},"
        f"{m},{h_txt},{seed},{wall_ms}"
    )


def strip_wall(csv_text: str) -> str:
    """Drop the wall-clock column, the one non-deterministic field."""
    return "\n".join(
        line.rsplit(",", 1)[0] for line in csv_text.splitlines() if line
    )


def _finish(lines: list[str], out) -> str:
    text = "\n".join(lines) + "\n"
    if out is not None:
        from pathlib import Path

        Path(out).write_text(text)
    return text


# ---------------------------------------------------------------------------
# tables


def _european_cell(cfg, kind, level, m, seed, h):
    if level == "euler":
        inp = est.european_inputs(cfg, "lgn", m=m, seed=seed)
        if kind == "european_price":
            return est.euler_price(cfg, cfg.t1, inp.payoff, m=m, seed=seed, scale=inp.scale)
        return est.euler_delta_fd(
            cfg, cfg.t1, inp.payoff, i=cfg.n - 1, h=h, m=m, seed=seed, scale=inp.scale
        )
    inputs = est.european_inputs(cfg, level, m=m, seed=seed, h=h)
    if kind == "european_price":
        return est.price(inputs)
    return est.delta_fd(inputs, cfg.n - 1)


def _bermudan_cell(cfg, policy, kind, level, m, seed, h):
    if kind == "bermudan_price":
        return brm.bermudan_price(cfg, policy, level=level, m=m, seed=seed)
    return brm.bermudan_delta_fd(cfg, policy, i=cfg.n - 1, h=h, level=level, m=m, seed=seed)


def run_table(
    which: int,
    raw: dict | None = None,
    m: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    h: float = DEFAULT_H,
    t1s=T1_SWEEP,
    levels=LEVELS,
    out=None,
) -> str:
    """One benchmark table as CSV text (written to ``out`` when given).

    ``which`` selects the quantity: 1 European prices, 2 European
    Deltas, 3 Bermudan prices, 4 Bermudan Deltas.  Rows sweep maturity
    and estimator variant; M defaults to desk scale (1e5), pass 5e5 to
    reproduce the benchmark SDs.
    """
    if which not in TABLE_KIND:
        raise ValueError(f"table number must be 1..4, got {which}")
    kind = TABLE_KIND[which]
    bermudan_kind = kind.startswith("bermudan")
    lines = [CSV_HEADER]
    for t1 in t1s:
        cfg = build_config(raw, t1)
        policy = None
        if bermudan_kind:
            policy = brm.calibrate_policy(cfg, n_paths=CALIBRATION_PATHS, seed=CALIBRATION_SEED)
        for level in levels:
            t0 = time.perf_counter()
            if bermudan_kind:
                r = _bermudan_cell(cfg, policy, kind, level, m, seed, h)
            else:
                r = _european_cell(cfg, kind, level, m, seed, h)
            wall = int(round(1000.0 * (time.perf_counter() - t0)))
            h_used = h if "delta" in kind else None
            lines.append(_row(kind, t1, level, r.value, r.sd, m, h_used, seed, wall))
    return _finish(lines, out)


# ---------------------------------------------------------------------------
# cost curves


#: Seconds of summed wall each bench cell (one estimator at one T1) is
#: timed for, at least.  An estimator's cells are called round-robin,
#: one call per T1 per round, so a slow spell of the machine falls on
#: all of them alike.  With two calls of 0.1-0.3 s per cell, criterion
#: 9's one-shot T1=10/T1=1 ratio left its [0.8, 1.2] band in three of
#: twelve runs on a 2-vCPU VM.
_BENCH_CELL_WALL_S = 1.0


def _timed_cells(calls, repeats):
    """Warm each cell at full size, then time the cells round-robin.

    Rounds go on until every cell has ``repeats`` calls and
    ``_BENCH_CELL_WALL_S`` of summed wall; returns each cell's last
    result and fastest wall in ms.
    """
    results = [fn() for fn in calls]
    walls = [[] for _ in calls]
    while len(walls[0]) < repeats or min(map(sum, walls)) < _BENCH_CELL_WALL_S:
        for k, fn in enumerate(calls):
            t0 = time.perf_counter()
            results[k] = fn()
            walls[k].append(time.perf_counter() - t0)
    return [(r, int(round(1000.0 * min(w)))) for r, w in zip(results, walls)]


def run_bench(
    raw: dict | None = None,
    m: int = 20_000,
    seed: int = DEFAULT_SEED,
    t1s=T1_SWEEP,
    estimators=BENCH_ESTIMATORS,
    repeats: int = 2,
    out=None,
) -> str:
    """Wall-clock cost of each estimator across maturities, as CSV.

    The point of the sweep: the one-shot estimators price the T1 state
    directly, so their cost stays flat in T1, while anything that
    Euler-steps from time zero pays per step and grows linearly.  The
    one-shot Bermudan row crosses each gap between exercise dates in one
    weighted draw as well, so its cost follows the number of dates, not
    T1, while the Euler row steps the head and every gap.  Each cell is the call the price tables (1 and 3) make for it,
    warmed up at full size, then reported as its fastest call (see
    ``_timed_cells``).  ``estimators`` is a non-empty collection of
    names in ``BENCH_ESTIMATORS``.
    """
    if isinstance(estimators, str) or not estimators or any(
        name not in BENCH_ESTIMATORS for name in estimators
    ):
        raise ValueError(
            f"estimators must be a non-empty collection among {BENCH_ESTIMATORS}, "
            f"got {estimators!r}"
        )
    levels = ("1", "euler")
    cells = []  # (estimator, T1, level, call), in row order
    for t1 in t1s:
        cfg = build_config(raw, t1)
        if "european" in estimators:
            cells += [("bench_european", t1, level, partial(
                _european_cell, cfg, "european_price", level, m, seed, None)) for level in levels]
        if "bermudan" in estimators and cfg.exercise_indices:
            policy = brm.calibrate_policy(cfg, n_paths=CALIBRATION_PATHS, seed=CALIBRATION_SEED)
            cells += [("bench_bermudan", t1, level, partial(
                _bermudan_cell, cfg, policy, "bermudan_price", level, m, seed, None))
                for level in levels]
    timed = [None] * len(cells)
    for kind in dict.fromkeys((name, level) for name, _, level, _ in cells):
        picked = [k for k, c in enumerate(cells) if (c[0], c[2]) == kind]
        for k, res in zip(picked, _timed_cells([cells[k][3] for k in picked], repeats)):
            timed[k] = res
    lines = [CSV_HEADER]
    for (name, t1, level, _), (r, wall) in zip(cells, timed):
        lines.append(_row(name, t1, level, r.value, r.sd, m, None, seed, wall))
    return _finish(lines, out)


# ---------------------------------------------------------------------------
# explosion demo


def run_explosion(m: int = 100_000, seed: int = 0, out=None) -> str:
    """The closed-form blow-up of the fixed-sampler score estimator.

    Reports, per (sigma, s) pair, the predicted variance of the naive
    zero-expectation delta against the measured one; their ratio is 1
    up to sampling noise, and the predicted variance scales like
    1/(sigma^2 s), exploding as the horizon shrinks.
    """
    pairs = ((1.0, 1.0), (0.5, 0.5), (0.14, 0.5))
    x0 = np.full(19, 0.035)
    lines = ["sigma,s,M,var_predicted,var_measured,ratio,var_factor"]
    base = None
    for sigma, s in pairs:
        rep = est.explosion_demo(sigma, s, x0, m=m, seed=seed)
        if base is None:
            base = rep.predicted_var
        lines.append(
            f"{sigma:g},{s:g},{rep.m},{rep.predicted_var:.10g},"
            f"{rep.empirical_var:.10g},{rep.ratio:.6g},"
            f"{rep.predicted_var / base:.6g}"
        )
    return _finish(lines, out)


# ---------------------------------------------------------------------------
# self test


def _vol_structure_defects(vs) -> list[str]:
    bad = []
    if not np.allclose(vs.gamma, np.triu(vs.gamma), atol=0.0):
        bad.append("gamma not upper triangular")
    if not np.allclose(vs.gamma @ vs.gamma.T, vs.a, rtol=1e-12, atol=1e-15):
        bad.append("gamma gamma^T differs from a")
    if not np.allclose(vs.gamma_inv @ vs.gamma, np.eye(vs.n), atol=1e-10):
        bad.append("gamma_inv is not the inverse")
    if not np.allclose(vs.a, np.outer(vs.vol, vs.vol) * vs.corr, rtol=1e-13, atol=0.0):
        bad.append("a differs from outer(vol) * corr")
    return bad


def run_selftest(raw: dict | None = None, seed: int = 0, out=None) -> tuple[str, int]:
    """Run every module's cheap invariants; returns (report, n_failed)."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(seed)
    cfg = build_config(raw, 1.0)

    defects = _vol_structure_defects(cfg.vs)
    checks.append(
        ("vol_structure", not defects, "; ".join(defects) or "triangular root checks out")
    )

    tampered = replace(cfg.vs, gamma=np.roll(cfg.vs.gamma, 1, axis=1))
    t_defects = _vol_structure_defects(tampered)
    checks.append(
        (
            "vol_structure_tamper",
            bool(t_defects),
            f"{len(t_defects)} defect(s) flagged on a tampered copy"
            if t_defects
            else "tampered structure slipped through",
        )
    )

    b = np.array([0.25, -0.4, 0.1])
    model = wkb.constant_drift_model(b)
    x = rng.standard_normal((2000, 3))
    dt = 0.7
    y = x + dt * b + math.sqrt(dt) * rng.standard_normal((2000, 3))
    got = wkb.generic_log_density(model, 1, x, y, dt)
    dev = y - x - dt * b
    want = -1.5 * math.log(2.0 * math.pi * dt) - 0.5 * np.sum(dev * dev, axis=1) / dt
    err = float(np.max(np.abs(got - want)))
    checks.append(("constant_drift_oracle", err < 1e-10, f"max |log p - exact| = {err:.2e}"))

    p = proxy.make_proxy(cfg.vs, cfg.delta, cfg.t1, cfg.l0)
    z = rng.standard_normal((100, cfg.n))
    zeta = proxy.sample_g(p, z)
    lhs = (
        proxy.log_density(p, zeta)
        + np.sum(np.log(zeta), axis=1)
        + 0.5 * cfg.n * np.log(p.dt)
        + np.sum(np.log(np.diag(p.cov_factor / np.sqrt(p.dt))))
    )
    rhs = -0.5 * cfg.n * np.log(2.0 * np.pi) - 0.5 * np.sum(z * z, axis=1)
    err = float(np.max(np.abs(lhs - rhs)))
    checks.append(("measure_identity", err < 1e-12, f"max defect at 100 points = {err:.2e}"))

    const_inputs = est.EstimatorInputs(
        anchored=lambda anchor: est.anchored_libor_pair(cfg, cfg.t1, "lgn", anchor),
        payoff=lambda v: np.full(v.shape[:-1], 3.7),
        anchor=cfg.l0,
        m=4096,
        seed=seed,
    )
    r = est.price(const_inputs)
    checks.append(
        (
            "zero_variance_fixed_point",
            r.sd == 0.0 and abs(r.value - 3.7) < 1e-12,
            f"value {r.value}, sd {r.sd} (sd must be exactly zero)",
        )
    )

    acc_a = mc.MomentAccumulator()
    acc_b = mc.MomentAccumulator()
    batches = [rng.standard_normal(4096) for _ in range(6)]
    for bi, v in enumerate(batches):
        acc_a.add(bi, v)
    for bi in (3, 0, 5, 1, 4, 2):
        acc_b.add(bi, batches[bi])
    checks.append(
        (
            "batch_order_invariance",
            acc_a.finalize() == acc_b.finalize(),
            "shuffled batch order reproduces the reduction exactly",
        )
    )

    r1 = est.price(est.european_inputs(cfg, 1, m=20_000, seed=seed + 1))
    checks.append(
        (
            "weight_sanity",
            r1.max_weight < 1.5 and r1.ess > 0.9 * r1.m,
            f"max weight {r1.max_weight:.4f}, ESS {r1.ess:.0f} of {r1.m}",
        )
    )

    inp1 = est.european_inputs(cfg, 1, m=20_000, seed=seed + 2)
    re_ = est.euler_price(cfg, cfg.t1, inp1.payoff, m=20_000, seed=seed + 2, scale=inp1.scale)
    gate = 0.005 * abs(re_.value) + 3.0 * math.hypot(r1.sd, re_.sd)
    checks.append(
        (
            "euler_agreement",
            abs(r1.value - re_.value) < gate,
            f"direct {r1.value:.2f} vs euler {re_.value:.2f} (gate {gate:.2f})",
        )
    )

    exp_text = run_explosion(m=100_000, seed=seed)
    ratios = [float(line.split(",")[5]) for line in exp_text.splitlines()[1:]]
    ok = all(abs(q - 1.0) < 0.1 for q in ratios)
    checks.append(
        ("explosion_factors", ok, "measured/predicted = " + ", ".join(f"{q:.4f}" for q in ratios))
    )

    i, j = 1, 3
    sae = float(brm.still_alive_european(cfg, cfg.l0[None, :], i, j)[0])
    spec_j = SwaptionSpec(strike=cfg.strike, first_leg=j, style=cfg.payoff_style)
    nested = est.euler_price(
        cfg, cfg.tenor_date(j) - cfg.tenor_date(i),
        lambda v: swaption_payoff(cfg.delta, v, spec_j),
        m=20_000, seed=seed + 3, dt=cfg.dt_berm,
    ).value
    rel = sae / nested - 1.0
    checks.append(
        ("still_alive_european_vs_nested", abs(rel) < 0.02, f"relative gap {rel:+.4%}")
    )

    if cfg.exercise_indices:
        raw1 = dict(raw) if raw else case_study_raw()
        raw1["exercise_indices"] = (cfg.exercise_indices[0],)
        cfg1 = build_config(raw1, cfg.t1)
        pol1 = brm.calibrate_policy(cfg1, n_paths=CALIBRATION_PATHS, seed=CALIBRATION_SEED)
        b1 = brm.bermudan_price(cfg1, pol1, level=1, m=8192, seed=seed + 4)
        e1 = est.price(est.european_inputs(cfg1, 1, m=8192, seed=seed + 4))
        checks.append(
            (
                "one_date_degeneracy",
                abs(b1.value - e1.value) <= 3.0 * math.hypot(b1.sd, e1.sd),
                f"bermudan {b1.value:.4f} vs european {e1.value:.4f}",
            )
        )

        pol = brm.calibrate_policy(cfg, n_paths=CALIBRATION_PATHS, seed=CALIBRATION_SEED)
        flat = brm.AndersenPolicy(
            exercise_indices=pol.exercise_indices,
            dates=pol.dates,
            thresholds=np.zeros_like(pol.thresholds),
        )
        bc = brm.bermudan_price(cfg, pol, level=1, m=20_000, seed=seed + 5)
        b0 = brm.bermudan_price(cfg, flat, level=1, m=20_000, seed=seed + 5)
        checks.append(
            (
                "calibration_dominates_premium_free",
                bc.value >= b0.value - 3.0 * math.hypot(bc.sd, b0.sd),
                f"calibrated {bc.value:.2f} vs premium-free {b0.value:.2f}",
            )
        )

        frac = brm.stopping_disagreement(
            cfg, pol, i=cfg.n - 1, h=DEFAULT_H, level=1, m=10_000, seed=seed + 6
        )
        checks.append(
            (
                "stopping_reuse_diagnostic",
                frac < 0.02,
                f"bump pair disagrees on {frac:.3%} of paths",
            )
        )

    failed = sum(1 for _, ok, _ in checks if not ok)
    width = max(len(name) for name, _, _ in checks)
    lines = [
        f"[{'ok' if ok else 'FAIL':>4}] {name:<{width}}  {detail}"
        for name, ok, detail in checks
    ]
    lines.append(f"selftest: {len(checks)} checks, {failed} failure(s)")
    return _finish(lines, out), failed


# ---------------------------------------------------------------------------
# n / payoff calibration


def calibrate_n(
    raw: dict | None = None,
    m: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    out=None,
) -> tuple[dict, str]:
    """Fit rate count and payoff style to the benchmark European prices.

    Sweeps n in {19, 20} crossed with the two payoff readings, scores
    each by the summed squared deviation of Euler prices from the
    benchmark column over the maturity sweep, and returns the raw
    settings of the winner (written to ``out`` as a config file when
    given).
    """
    base = dict(raw) if raw else case_study_raw()
    targets = REFERENCE["european_price"]["euler"]
    lines = ["n,payoff_style,score_bp2," + ",".join(f"T1={t:g}" for t in T1_SWEEP)]
    best_entry = None
    for n in (19, 20):
        for style in ("on_sum", "per_leg"):
            trial = dict(base, n=n, payoff_style=style)
            score = 0.0
            vals = []
            for t1 in T1_SWEEP:
                cfg = build_config(trial, t1)
                inp = est.european_inputs(cfg, "lgn", m=m, seed=seed)
                r = est.euler_price(cfg, cfg.t1, inp.payoff, m=m, seed=seed, scale=inp.scale)
                score += (r.value - targets[t1][0]) ** 2
                vals.append(r.value)
            lines.append(
                f"{n},{style},{score:.4f}," + ",".join(f"{v:.2f}" for v in vals)
            )
            if best_entry is None or score < best_entry[0]:
                best_entry = (score, n, style)
    _, n_best, style_best = best_entry
    lines.append(f"winner: n={n_best} payoff_style={style_best}")
    winner = dict(base, n=n_best, payoff_style=style_best)
    if out is not None:
        lmm.save_config(out, winner)
    return winner, "\n".join(lines) + "\n"
