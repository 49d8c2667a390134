"""Acceptance gates for the whole package, one numbered criterion per test.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
in the failure report) and asserts at the stated tolerance.  Sample
counts follow the stated runtime budgets: desk scale (M = 1e5) for the
agreement gates, full scale (M = 5e5) only where a benchmark magnitude
is the target.  Everything is seeded; reruns are bit-identical.
"""
import math

import numpy as np
from scipy import stats

from wkbmc import bermudan as brm
from wkbmc import estimators as est
from wkbmc import harness, lmm, mc, proxy, wkb

M_DESK = 100_000
M_FULL = 500_000
H = 3.5e-5
SEED = 7


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} [{name}]: {detail}"


def _case(t1: float, **overrides) -> lmm.ModelConfig:
    raw = dict(harness.case_study_raw(), **overrides)
    return harness.build_config(raw, t1)


def test_criterion_1_fixed_sampler_explosion():
    # variance factor of the frozen-cloud delta equals 1/(sigma^2 s)
    # within 10% at M = 1e5 for the three (sigma, s) pairs
    x0 = np.full(19, 0.035)
    worst = 0.0
    factors = []
    for sigma, s in ((1.0, 1.0), (0.5, 0.5), (0.14, 0.5)):
        rep = est.explosion_demo(sigma, s, x0, m=100_000, seed=0)
        worst = max(worst, abs(rep.ratio - 1.0))
        factors.append(1.0 / (sigma**2 * s))
    detail = (
        f"max |measured/predicted - 1| = {worst:.4f} over factors "
        + ", ".join(f"{f:.1f}" for f in factors)
    )
    _report(1, "fixed-sampler explosion", worst < 0.10, detail)


def test_criterion_2_constant_drift_oracle():
    # level-1 kernel against the exact shifted Gaussian on 1e6 points,
    # evaluated in chunks to keep the quadrature intermediates small
    b = np.array([0.25, -0.4, 0.1])
    model = wkb.constant_drift_model(b)
    rng = np.random.default_rng(5)
    npts, chunk = 1_000_000, 50_000
    dt = 0.7
    exact = stats.multivariate_normal(mean=dt * b, cov=dt * np.eye(3))
    err = 0.0
    for _ in range(npts // chunk):
        x = rng.standard_normal((chunk, 3))
        y = x + dt * b + math.sqrt(dt) * rng.standard_normal((chunk, 3))
        got = wkb.generic_log_density(model, 1, x, y, dt)
        err = max(err, float(np.max(np.abs(got - exact.logpdf(y - x)))))
    _report(2, "constant-drift oracle", err < 1e-10,
            f"max |log p - exact| = {err:.2e} on {npts} points")


def test_criterion_3_truncation_order():
    # 2-D bounded-analytic-drift toy: log-log error slope ~= level + 1
    B = np.array([[-0.3, 0.4], [0.1, -0.2]])
    model = wkb.linear_drift_model(B)
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(40, 2))
    y = rng.uniform(-1, 1, size=(40, 2))
    steps = np.array([0.4, 0.2, 0.1, 0.05])
    slopes = {}
    for level in (0, 1):
        errs = [
            float(np.max(np.abs(
                wkb.linear_drift_exact_log_density(B, x, y, dt)
                - wkb.generic_log_density(model, level, x, y, dt)
            )))
            for dt in steps
        ]
        slopes[level] = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ok = all(abs(slopes[l] - (l + 1)) < 0.25 for l in (0, 1))
    _report(3, "truncation order", ok,
            f"slopes level 0: {slopes[0]:.3f} (want ~1), level 1: {slopes[1]:.3f} (want ~2)")


def test_criterion_4_european_tables():
    # order-1 price and delta vs the benchmark column at desk M, plus an
    # independent check against the internal path oracle
    rows = []
    ok = True
    for t1 in harness.T1_SWEEP:
        cfg = _case(t1)
        inp = est.european_inputs(cfg, 1, m=M_DESK, seed=SEED, h=H)
        p1 = est.price(inp)
        d1 = est.delta_fd(inp, cfg.n - 1)
        pe = est.euler_price(cfg, t1, inp.payoff, m=M_DESK, seed=SEED, scale=inp.scale)
        de = est.euler_delta_fd(
            cfg, t1, inp.payoff, cfg.n - 1, H, M_DESK, SEED, scale=inp.scale
        )
        for label, r, other, kind in (
            ("price/bench", p1, harness.reference("european_price", t1, 1), "bench"),
            ("delta/bench", d1, harness.reference("european_delta", t1, 1), "bench"),
            ("price/euler", p1, pe, "oracle"),
            ("delta/euler", d1, de, "oracle"),
        ):
            if kind == "bench":
                ref, ref_sd = other
                gate = max(0.005 * abs(ref), 3.0 * math.hypot(r.sd, ref_sd))
            else:
                ref, gate = other.value, 0.005 * abs(other.value) + 3.0 * math.hypot(r.sd, other.sd)
            gap = abs(r.value - ref)
            if gap >= gate:
                ok = False
                rows.append(f"T1={t1:g} {label}: |{r.value:.2f} - {ref:.2f}| = {gap:.2f} >= {gate:.2f}")
    detail = "; ".join(rows) if rows else "all 16 gates met (4 maturities x price/delta x bench/oracle)"
    _report(4, "European tables", ok, detail)


def test_criterion_5_bermudan_tables():
    # order-1 vs path oracle under one shared policy and seed at desk M,
    # dominance over the European, and the benchmark magnitudes at full M
    rows = []
    ok = True
    fits = {}
    for t1 in (1.0, 2.0):
        cfg = _case(t1)
        policy = fits[t1] = brm.calibrate_policy(cfg, n_paths=10_000, seed=101)
        p1 = brm.bermudan_price(cfg, policy, level=1, m=M_DESK, seed=SEED)
        pe = brm.bermudan_price(cfg, policy, level="euler", m=M_DESK, seed=SEED)
        d1 = brm.bermudan_delta_fd(cfg, policy, cfg.n - 1, H, level=1, m=M_DESK, seed=SEED)
        de = brm.bermudan_delta_fd(cfg, policy, cfg.n - 1, H, level="euler", m=M_DESK,
                                    seed=SEED)
        for label, a, b in (("price", p1, pe), ("delta", d1, de)):
            gate = 0.005 * abs(b.value) + 3.0 * math.hypot(a.sd, b.sd)
            gap = abs(a.value - b.value)
            if gap >= gate:
                ok = False
                rows.append(f"T1={t1:g} {label} vs oracle: {gap:.2f} >= {gate:.2f}")
        euro = est.price(est.european_inputs(cfg, 1, m=M_DESK, seed=SEED))
        slack = 3.0 * math.hypot(p1.sd, euro.sd)
        if p1.value < euro.value - slack:
            ok = False
            rows.append(f"T1={t1:g}: bermudan {p1.value:.2f} under european {euro.value:.2f}")

    cfg, policy = _case(1.0), fits[1.0]
    p_full = brm.bermudan_price(cfg, policy, level=1, m=M_FULL, seed=SEED)
    d_full = brm.bermudan_delta_fd(cfg, policy, cfg.n - 1, H, level=1, m=M_FULL, seed=SEED)
    for label, r, target in (("price", p_full, 351.2), ("delta", d_full, 2709.2)):
        rel = abs(r.value - target) / target
        rows.append(f"full-M {label} {r.value:.1f} vs {target} ({rel:.2%})")
        if rel >= 0.02:
            ok = False
    _report(5, "Bermudan tables", ok, "; ".join(rows))


def test_criterion_6_bump_nonexplosion():
    # re-anchored fd sd*sqrt(M) stays within a factor 2 across shrinking
    # horizons at the money; the frozen-cloud estimator grows like
    # 1/sqrt(horizon), checked in the money where payoff mass is stable
    horizons = (0.5, 0.25, 0.125, 0.0625)
    m = 40_000

    fd_scaled = []
    for t in horizons:
        cfg = _case(t)
        inp = est.european_inputs(cfg, 1, m=m, seed=SEED, h=H)
        fd_scaled.append(est.delta_fd(inp, cfg.n - 1).sd * math.sqrt(m))
    band = max(fd_scaled) / min(fd_scaled)

    nv_scaled = []
    for t in horizons:
        cfg = _case(t, strike=0.02)
        inp = est.european_inputs(cfg, 1, m=m, seed=SEED, h=H)
        nv_scaled.append(est.naive_delta(inp, cfg.n - 1).sd * math.sqrt(m))
    growth = [nv_scaled[k + 1] / nv_scaled[k] for k in range(3)]
    grows_like_root = all(1.3 < g < 1.55 for g in growth)

    detail = (
        f"fd band {band:.3f} (< 2), frozen-cloud growth per halving "
        + ", ".join(f"{g:.3f}" for g in growth)
        + f" (want ~{math.sqrt(2):.3f})"
    )
    _report(6, "bump non-explosion", band < 2.0 and grows_like_root, detail)


def test_criterion_7_exact_identities():
    rows = []

    # change of variables between the sampler map and the proxy density
    cfg = _case(1.0)
    rng = np.random.default_rng(2)
    anchors = cfg.l0 * np.exp(0.3 * rng.standard_normal((100, cfg.n)))
    defect = 0.0
    for anchor in anchors:
        p = proxy.make_proxy(cfg.vs, cfg.delta, cfg.t1, anchor)
        z = rng.standard_normal((1, cfg.n))
        zeta = proxy.sample_g(p, z)
        lhs = (
            proxy.log_density(p, zeta)
            + np.sum(np.log(zeta), axis=1)
            + 0.5 * cfg.n * np.log(p.dt)
            + np.sum(np.log(np.diag(p.cov_factor / np.sqrt(p.dt))))
        )
        rhs = -0.5 * cfg.n * np.log(2.0 * np.pi) - 0.5 * np.sum(z * z, axis=1)
        defect = max(defect, float(np.abs(lhs - rhs)[0]))
    ok = defect < 1e-12
    rows.append(f"measure identity defect {defect:.2e} at 100 anchors")

    # proxy-level sampling of a constant payoff: exactly zero variance
    inputs = est.EstimatorInputs(
        anchored=lambda x: est.anchored_libor_pair(cfg, cfg.t1, "lgn", x),
        payoff=lambda v: np.full(v.shape[:-1], 1.0),
        anchor=cfg.l0,
        m=4096,
        seed=SEED,
    )
    r = est.price(inputs)
    ok = ok and r.sd == 0.0
    rows.append(f"constant-payoff sd = {r.sd}")

    # a one-date exercise schedule collapses to the European
    cfg1 = _case(1.0, exercise_indices=(1,))
    policy = brm.calibrate_policy(cfg1, n_paths=10_000, seed=101)
    b = brm.bermudan_price(cfg1, policy, level=1, m=20_000, seed=SEED)
    e = est.price(est.european_inputs(cfg1, 1, m=20_000, seed=SEED))
    gap = abs(b.value - e.value)
    slack = 3.0 * math.hypot(b.sd, e.sd)
    ok = ok and gap <= slack
    rows.append(f"one-date degeneracy gap {gap:.2e} (3 SE = {slack:.2f})")

    _report(7, "exact identities", ok, "; ".join(rows))


def test_criterion_8_variance_bound_audit():
    # the second-moment bound on the re-anchored delta, checked with the
    # default conjugate exponents on the one-year European case
    cfg = _case(1.0)
    inp = est.european_inputs(cfg, 1, m=20_000, seed=SEED, h=H)
    rep = est.variance_audit(inp)
    detail = (
        f"lhs {rep.lhs:.4g} vs rhs {rep.rhs:.4g} "
        f"(terms {rep.terms[0]:.3g} + {rep.terms[1]:.3g} + {rep.terms[2]:.3g})"
    )
    _report(8, "variance-bound audit", rep.passed, detail)


def test_criterion_9_cost_profile():
    # direct cost flat in maturity, path-oracle cost linear in steps
    text = harness.run_bench(m=20_000, estimators=("european",), repeats=2)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    walls = {(r[2], float(r[1])): int(r[8]) for r in rows}
    direct = walls[("1", 10.0)] / walls[("1", 1.0)]
    euler = walls[("euler", 10.0)] / walls[("euler", 1.0)]
    ok = 0.8 < direct < 1.2 and 7.0 < euler < 13.0
    _report(9, "cost profile", ok,
            f"direct T1=10/T1=1 = {direct:.2f} (band [0.8, 1.2]), "
            f"path oracle {euler:.2f} (band [7, 13])")
