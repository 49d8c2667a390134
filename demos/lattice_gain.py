"""What the shifted lattice buys: the same rows, a smaller spread.

`price`, `delta_fd` and `gamma_fd` read their normals off a randomly
shifted rank-1 lattice (``wkbmc.lattice``).  This runs each of them, and
the same one-shot head on pseudo-random normals ("MC"), over 32 seeds
at M = 1e5 and T1 = 1 and 10, and prints the spread (sd over seeds) of
the values each way, their variance ratio, and the mean sd the lattice
calls report, which should match their spread.  Delta and the diagonal
Gamma are on the last rate, Gamma with bump h = 1e-3.  About two
minutes on two CPUs.
"""
import numpy as np

from wkbmc import estimators as est
from wkbmc import harness

M = 100_000
SEEDS = range(32)
H = {"price": None, "delta": 3.5e-5, "gamma": 1e-3}


def stencil(kind, inp, cfg):
    x, i, h = cfg.l0, cfg.n - 1, H[kind]
    if kind == "price":
        return [(x, inp.outer(x))]
    if kind == "delta":
        return est._delta_stencil(x, i, h, inp.outer)
    up, dn = est._bumped(x, i, h)
    coeffs = np.array([1.0, -2.0, 1.0]) / h**2
    return [(a, c * inp.outer(a)) for a, c in zip((up, x, dn), coeffs)]


print(f"M = {M}, {len(SEEDS)} seeds; spread = sd of the values over seeds")
print(f"{'call':>6} {'T1':>3} {'MC spread':>10} {'lattice spread':>15} {'var ratio':>10} "
      f"{'lattice mean sd':>16} {'lattice mean':>13}")
for t1 in (1.0, 10.0):
    cfg = harness.build_config(None, t1)
    for kind in ("price", "delta", "gamma"):
        lat, sds, pr = [], [], []
        for seed in SEEDS:
            inp = est.european_inputs(cfg, 1, m=M, seed=seed, h=H[kind])
            call = {"price": lambda: est.price(inp),
                    "delta": lambda: est.delta_fd(inp, cfg.n - 1),
                    "gamma": lambda: est.gamma_fd(inp, cfg.n - 1, cfg.n - 1)}[kind]
            r = call()
            lat.append(r.value)
            sds.append(r.sd)
            st = stencil(kind, inp, cfg)
            pr.append(est._estimate(st, est._one_shot_head(inp.anchored, st), M, seed,
                                    inp.payoff).value)
        s_mc, s_lat = np.std(pr, ddof=1), np.std(lat, ddof=1)
        print(f"{kind:>6} {t1:>3g} {s_mc:>10.4g} {s_lat:>15.4g} {(s_mc / s_lat) ** 2:>10.1f} "
              f"{np.mean(sds):>16.4g} {np.mean(lat):>13.2f}")
