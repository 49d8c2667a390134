"""One-shot importance-sampled estimators of price and sensitivities.

A single draw from the lognormal proxy replaces pathwise simulation: the
sample is weighted by the ratio of the truncated transition density to
the proxy density.  Sensitivities come from central differences in the
anchor state where the bump moves *everything* -- the sampler, the
kernel, and any outer discount factor -- while the underlying normals
stay fixed.  That re-anchoring is what keeps the variance bounded as
the time step shrinks; the fixed-sampler variant (`naive_delta`) is
kept only to demonstrate the blow-up it suffers.

Every stencil estimator, European and Bermudan, runs on one batch
driver, ``_estimate``.  A *stencil* lists (anchor, coefficient) pairs,
the coefficient holding the outer scale and the finite-difference
weight (width 1 for price, 2 for Delta, 3-4 for Gamma).  A *head* maps
a batch to each member's states, weights and weighted payoffs on
shared normals: the weighted one-shot draw, log-Euler from time zero,
or (for `naive_delta`) one frozen draw that every member only
reweights; `explosion_demo` has a toy head, and ``bermudan`` one that
follows an exercise policy from the first date, crossing each later
gap with ``_proxy_transition``: the same ``AnchoredPair`` draw and
weight, its start one state per row instead of one for all rows.
`price`, `delta_fd` and `gamma_fd` read the one-shot draw's normals off
the randomly shifted lattice of ``lattice.normals``: row g is point
g div R of replicate g mod R, and ``_estimate``'s accumulator keeps a
mean per replicate, so their ``sd`` is the spread of the R independent
replicate means.  The one dimension per rate is low and fixed, where
the lattice pays.  The one-shot Bermudan price reads this head off the
same lattice and its legs off the coordinates that follow (see
``bermudan``); every other head (the Bermudan Delta, policy fit and
diagnostics, the frozen cloud, the audit, the toy and the oracle)
stays on pseudo-random normals, and so does its row-level ``sd``.
Every batch loop is one ``mc.map_batches`` call: ``_estimate``'s,
`variance_audit`'s (the bound's norms), the Bermudan diagnostics'
(stops) and `calibrate_policy`'s (weighted exercise values and triggers
at every exercise date, on the Bermudan's level-1 one-shot paths).
Each call runs its batches at once, one thread per usable CPU, with
results bit-identical to a serial run.

Also here: the second-moment audit that checks the variance bound the
re-anchored construction satisfies, the iid-lognormal explosion example
with its closed-form variance, and log-Euler reference estimators used
as the validation oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lattice, mc
from .lmm import ModelConfig, evolve_log_euler, to_y
from .payoffs import SwaptionSpec, report_scale, swaption_payoff, swaption_payoff_grad
from .proxy import (
    LognormalProxy,
    log_density,
    make_proxy,
    sample_g,
)
from .wkb import WkbKernel, grad_log_weight_y, log_weight_y, make_libor_kernel

__all__ = [
    "McResult",
    "AnchoredPair",
    "anchored_libor_pair",
    "EstimatorInputs",
    "european_inputs",
    "price",
    "delta_fd",
    "naive_delta",
    "gamma_fd",
    "AuditReport",
    "variance_audit",
    "ExplosionReport",
    "explosion_demo",
    "euler_price",
    "euler_delta_fd",
]


@dataclass(frozen=True)
class McResult:
    """A Monte Carlo estimate with its statistical and weight diagnostics.

    ``sd`` is the standard error of ``value``.  On pseudo-random
    normals it is the population standard deviation of the per-sample
    values divided by sqrt(m).  The one-shot European calls (`price`,
    `delta_fd`, `gamma_fd`) and the one-shot Bermudan price
    (``bermudan_price`` at "lgn", 0 or 1) integrate on a randomly
    shifted lattice instead, whose rows are not independent: there
    ``value`` is still the row mean, and ``sd`` is std(replicate means,
    ddof=1) / sqrt(R) over its R independent replicates (16 up to 2**21
    rows).  ``max_weight``
    and ``ess`` (effective sample size, (sum w)^2 / sum w^2) expose
    importance-weight degeneracy; weights are never clipped, so a bad
    proxy shows up here rather than as silent bias.
    """

    value: float
    sd: float
    m: int
    seed: int
    max_weight: float = 1.0
    ess: float = float("nan")


@dataclass(frozen=True)
class AnchoredPair:
    """Sampler and density evaluators tied to the proxy's start state.

    The start, ``proxy.anchor``, is one state shared by every row of
    draws or one state per row.  ``kernel`` None means the proxy itself
    is the density model, so the importance weights are identically
    one; otherwise the kernel may be built at another state: c_1 on the
    diagonal is exact at the start and only its Taylor data is the
    anchor's (see ``wkb.log_weight_y``).
    """

    proxy: LognormalProxy
    kernel: WkbKernel | None = None

    @property
    def kappa(self) -> np.ndarray:
        """The proxy's mean shift in flat coordinates."""
        return self.proxy.mean_shift @ self.proxy.vs.gamma_inv.T

    def _flat(self, zeta: np.ndarray):
        """(y, kappa, start) in flat coordinates, for the weight's formulas."""
        vs = self.proxy.vs
        return to_y(vs, zeta), self.kappa, to_y(vs, self.proxy.anchor)

    def draw(self, z: np.ndarray) -> np.ndarray:
        return sample_g(self.proxy, z)

    def log_weight(self, zeta: np.ndarray) -> np.ndarray:
        """ln(p / phi) at the draws ``zeta``; ln p is this plus :meth:`log_proxy`."""
        if self.kernel is None:
            return np.zeros(zeta.shape[:-1])
        return log_weight_y(self.kernel, self.proxy.dt, *self._flat(zeta))

    def grad_log_weight(self, zeta: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`log_weight` in the rates, in closed form.

        The chart Jacobians cancel in ln p - ln phi, so this is the
        flat-coordinate gradient chained through y = Gamma^{-1} log zeta.
        """
        if self.kernel is None:
            return np.zeros(zeta.shape)
        gy = grad_log_weight_y(self.kernel, self.proxy.dt, *self._flat(zeta))
        return (gy @ self.proxy.vs.gamma_inv) / zeta

    def log_proxy(self, zeta: np.ndarray) -> np.ndarray:
        return log_density(self.proxy, zeta)


def anchored_libor_pair(cfg: ModelConfig, t: float, level, anchor=None) -> AnchoredPair:
    """Proxy plus (optionally) the truncated kernel, anchored at one state.

    ``level`` is "lgn" for the proxy-only estimator, or 0/1 for the
    truncation order of the kernel.
    """
    anchor = cfg.l0 if anchor is None else np.asarray(anchor, dtype=np.float64)
    p = make_proxy(cfg.vs, cfg.delta, t, anchor)
    if level == "lgn":
        return AnchoredPair(proxy=p)
    kernel = make_libor_kernel(cfg.vs, cfg.delta, anchor, level=int(level))
    return AnchoredPair(proxy=p, kernel=kernel)


@dataclass(frozen=True)
class EstimatorInputs:
    """Everything an estimator run needs.

    ``anchored`` builds the sampler/kernel pair for any anchor state, so
    the finite-difference estimators can re-anchor both sides of a bump.
    ``scale`` is an optional anchor-dependent outer factor (the deflated
    payoff's conversion to reporting units); its anchor dependence is
    part of what the sensitivity estimators differentiate.
    """

    anchored: Callable[[np.ndarray], AnchoredPair]
    payoff: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    m: int
    seed: int
    h: float | None = None
    scale: Callable[[np.ndarray], float] | None = None
    payoff_grad: Callable[[np.ndarray], np.ndarray] | None = None

    def outer(self, x: np.ndarray) -> float:
        return 1.0 if self.scale is None else float(self.scale(x))


def european_inputs(
    cfg: ModelConfig,
    level="lgn",
    m: int = 100_000,
    seed: int = 0,
    h: float | None = None,
) -> EstimatorInputs:
    """Wire up the single-expiry swaption paying at the first tenor date."""
    spec = SwaptionSpec(strike=cfg.strike, first_leg=1, style=cfg.payoff_style)
    return EstimatorInputs(
        anchored=lambda x: anchored_libor_pair(cfg, cfg.t1, level, x),
        payoff=lambda L: swaption_payoff(cfg.delta, L, spec),
        anchor=cfg.l0,
        m=m,
        seed=seed,
        h=h,
        scale=lambda x: report_scale(cfg, x),
        payoff_grad=lambda L: swaption_payoff_grad(cfg.delta, L, spec),
    )


def _one_shot(pair, z: np.ndarray, payoff=None):
    """Map a batch of normals to (zeta, w, w * payoff(zeta)) by ``mc.row_slices``.

    ``zeta`` are the proxy draws and ``w`` their importance weights; the
    weighted payoff is None when no payoff is given.
    """
    rows = z.shape[0]
    zeta = np.empty(z.shape)
    w = np.empty(rows)
    wf = None if payoff is None else np.empty(rows)
    for part in mc.row_slices(*z.shape):
        zc = pair.draw(z[part])
        wc = np.exp(pair.log_weight(zc))
        zeta[part] = zc
        w[part] = wc
        if wf is not None:
            wf[part] = wc * payoff(zc)
    return zeta, w, wf


def _proxy_transition(cfg: ModelConfig, first: int, dt: float):
    """Group mover: one weighted proxy draw of the live rates over ``dt``.

    The one-shot method of the first date, with the pair's start one
    state per row: each row draws its live rates (0-based columns
    ``first``..) from the proxy of ``cfg.vs.trailing(first)`` frozen at
    its own state, weighted by the level-1 kernel built once here at
    ``cfg.l0``'s trailing block.  Returns ``leg(group, rng)`` with the
    contract of ``lmm.evolve_log_euler`` (one (rows, n - first) block of
    normals from ``rng`` shared by the members, earlier rates carried
    over), which returns the moved members and their log weights.
    ``rng`` may also be a ``bermudan._LatticeLegs`` source, which reads
    the block off the shifted lattice.
    """
    vs, delta = cfg.vs.trailing(first), cfg.delta[first:]
    kernel = make_libor_kernel(vs, delta, cfg.l0[first:], level=1)

    def leg(group, rng):
        z = rng.standard_normal((group[0].shape[0], cfg.n - first))
        moved, log_w = [], []
        for g in group:
            x = np.empty(g.shape)
            x[:, :first] = g[:, :first]
            lw = np.empty(z.shape[0])
            for part in mc.row_slices(*z.shape):
                pair = AnchoredPair(make_proxy(vs, delta, dt, g[part, first:]), kernel)
                zeta = pair.draw(z[part])
                lw[part] = pair.log_weight(zeta)
                x[part, first:] = zeta
            moved.append(x)
            log_w.append(lw)
        return moved, log_w

    return leg


def _bumped(x: np.ndarray, i: int, h: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The anchor moved by +h and -h in component ``i``.

    Every finite-difference estimator forms its stencil here, so this
    is the one place a bump size is checked, a missing one included.
    """
    if h is None or not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"finite-difference bump h must be finite and > 0, got {h}")
    if not 0 <= i < x.shape[-1]:
        raise ValueError(f"component {i} outside 0..{x.shape[-1] - 1}")
    up = x.copy()
    dn = x.copy()
    up[i] += h
    dn[i] -= h
    if np.any(dn <= 0.0):
        raise ValueError(f"bump h={h} pushes component {i} of the anchor nonpositive")
    return up, dn


# ---------------------------------------------------------------------------
# the batch driver (see the module docstring)


def _one_shot_head(anchored, stencil, shift: np.ndarray | None = None):
    """Head: every member re-anchors the batch's shared normals.

    Maps (seed, batch index, rows, payoff) to the members' states,
    weights, weighted payoffs and a maker of the continuation generator.
    The normals are the batch's STREAM_XI draw or, given ``shift`` (the
    call's ``lattice.shifts`` at coordinates 0 .. n - 1), the batch's
    rows of the shifted lattice.
    """
    pairs = [anchored(a) for a, _ in stencil]
    n = stencil[0][0].shape[-1]

    def head(seed, bi, rows, payoff):
        if shift is None:
            z = mc.rng_for(seed, bi, mc.STREAM_XI).standard_normal((rows, n))
        else:  # batch bi starts at row bi * BATCH
            z = lattice.normals(shift, range(bi * mc.BATCH, bi * mc.BATCH + rows))
        states, w, wv = map(list, zip(*(_one_shot(pair, z, payoff) for pair in pairs)))
        return states, w, wv, lambda: mc.rng_for(seed, bi, mc.STREAM_CONT)

    return head


def _frozen_cloud_head(anchored, x: np.ndarray, stencil):
    """Head: one draw from the pair at ``x`` that every member reweights.

    Member k weights the shared cloud by p_k / phi_0, that is
    exp(log_weight_k + log_proxy_k - log_proxy_0): its kernel moves
    with the bump, the sampler does not.
    """
    pair0 = anchored(x)
    pairs = [anchored(a) for a, _ in stencil]
    n = x.shape[-1]

    def head(seed, bi, rows, payoff):
        z = mc.rng_for(seed, bi, mc.STREAM_XI).standard_normal((rows, n))
        zeta = pair0.draw(z)
        lphi = pair0.log_proxy(zeta)
        w = [np.exp(p.log_weight(zeta) + p.log_proxy(zeta) - lphi) for p in pairs]
        f = payoff(zeta)
        return [zeta] * len(w), w, [wk * f for wk in w], None

    return head


def _int_steps(span: float, dt: float, what: str, least: int = 0) -> int:
    steps = int(round(span / dt))
    if steps < least or abs(steps * dt - span) > 1e-9:
        raise ValueError(f"{what} ({span}) is not {least} or more whole steps of dt={dt}")
    return steps


def _euler_head(cfg: ModelConfig, stencil, t: float, dt: float):
    """Head: unweighted log-Euler from time 0 to ``t`` on shared increments.

    The continuation goes on drawing from the head's own generator.
    """
    n_steps = _int_steps(t, dt, "horizon", least=1)

    def head(seed, bi, rows, payoff):
        rng = mc.rng_for(seed, bi, mc.STREAM_EULER)
        starts = [np.broadcast_to(a, (rows, cfg.n)) for a, _ in stencil]
        final = evolve_log_euler(cfg, starts, n_steps, dt, rng)
        wv = None if payoff is None else [payoff(f) for f in final]
        return final, None, wv, lambda: rng

    return head


def _estimate(stencil, head, m: int, seed: int, payoff=None, replicates: int = 1) -> McResult:
    """Row mean of sum_k c_k w_k v_k, with the weight health of all members.

    The batches run through ``mc.map_batches`` and each reduces its
    weights and weighted values to partial moments at once, so the
    members' states die with their batch: held across batches they
    tripled a one-shot Delta's page faults.  Given ``replicates`` R > 1,
    row g also goes to replicate g mod R (``mc.MomentAccumulator``), and
    ``sd`` is the spread of the means of the min(m, R) replicates that
    hold rows.  ESS is m mean(w)^2 / mean(w^2), the moments pooled over every
    member's weights, so it never exceeds m; a non-finite weight, or all
    weights zero, makes it NaN.  One sample has no spread to report, so
    ``m`` must be at least two.
    """
    if m < 2:
        raise ValueError(f"need at least two samples, got {m}")
    vals = mc.MomentAccumulator(replicates)
    wacc = mc.MomentAccumulator()

    def batch(bi, lo, hi):
        w, wv = head(seed, bi, hi - lo, payoff)[1:3]
        vals.add(bi, sum(c * x for (_, c), x in zip(stencil, wv)), lo)
        if w is not None:
            wacc.add(bi, np.concatenate(w))
        return w is not None

    weighted = mc.map_batches(batch, m)[0]
    mean, sd, count, _ = vals.finalize()
    if not weighted:  # the head has no weights (log-Euler)
        return McResult(value=mean, sd=sd, m=count, seed=seed)
    w_mean, w_sd_of_mean, w_count, w_max = wacc.finalize()
    denom = w_sd_of_mean**2 * w_count + w_mean**2
    ess = float("nan") if denom == 0.0 else count * w_mean**2 / denom
    return McResult(value=mean, sd=sd, m=count, seed=seed, max_weight=w_max, ess=ess)


def _delta_stencil(x: np.ndarray, i: int, h: float, scale) -> list:
    up, dn = _bumped(x, i, h)
    return [(up, scale(up) / (2.0 * h)), (dn, -scale(dn) / (2.0 * h))]


def _one_shot_estimate(inputs: EstimatorInputs, stencil) -> McResult:
    shift = lattice.shifts(inputs.seed, lattice.replicates(inputs.m), inputs.anchor.shape[-1])
    head = _one_shot_head(inputs.anchored, stencil, shift)
    return _estimate(stencil, head, inputs.m, inputs.seed, inputs.payoff, shift.shape[0])


def price(inputs: EstimatorInputs) -> McResult:
    x = inputs.anchor
    return _one_shot_estimate(inputs, [(x, inputs.outer(x))])


def delta_fd(inputs: EstimatorInputs, i: int) -> McResult:
    """Central difference of the fully re-anchored weighted payoff.

    Both bump anchors see the same underlying normals; sampler, kernel
    and outer scale all move with the bump.
    """
    return _one_shot_estimate(inputs, _delta_stencil(inputs.anchor, i, inputs.h, inputs.outer))


def naive_delta(inputs: EstimatorInputs, i: int) -> McResult:
    """Kernel-only differentiation against a sampler that stays put.

    The sample cloud is drawn once from the unbumped anchor; only the
    kernel's anchor argument is differenced.  This is the construction
    whose variance blows up as the step shrinks -- kept as the point of
    comparison, not for production use.  The outer scale stays at the
    anchor too; ESS and the largest weight pool both members' weights.
    """
    h = inputs.h
    x = inputs.anchor
    up, dn = _bumped(x, i, h)
    s0 = inputs.outer(x)
    stencil = [(up, s0 / (2.0 * h)), (dn, -s0 / (2.0 * h))]
    head = _frozen_cloud_head(inputs.anchored, x, stencil)
    return _estimate(stencil, head, inputs.m, inputs.seed, inputs.payoff)


def gamma_fd(inputs: EstimatorInputs, i: int, j: int) -> McResult:
    """Second-order sensitivity by nested central differences.

    Diagonal: three-point stencil.  Off-diagonal: four corners.  All
    stencil anchors share the same normals, and every anchor carries its
    own sampler, kernel and scale, exactly as in :func:`delta_fd`.  ESS
    and the largest weight pool the weights of every stencil member.
    """
    h = inputs.h
    x = inputs.anchor
    if i == j:
        up, dn = _bumped(x, i, h)
        anchors = [up, x, dn]
        coeffs = np.array([1.0, -2.0, 1.0]) / h**2
    else:
        up_i, dn_i = _bumped(x, i, h)
        pp, pm = _bumped(up_i, j, h)
        mp, mm = _bumped(dn_i, j, h)
        anchors = [pp, pm, mp, mm]
        coeffs = np.array([1.0, -1.0, -1.0, 1.0]) / (4.0 * h**2)
    return _one_shot_estimate(
        inputs, [(a, c * inputs.outer(a)) for a, c in zip(anchors, coeffs)]
    )


# ---------------------------------------------------------------------------
# second-moment audit


#: The bound's three terms as (leading constant, Hölder exponent,
#: factors); see :class:`AuditReport`.
_AUDIT_TERMS = (
    (2.0, 3.0, ("du", "jac", "w")),
    (4.0, 3.0, ("u", "w", "m5")),
    (4.0, 4.0, ("u", "jac", "w", "m6")),
)

#: (factor, power) of every L^p norm the bound needs.
_AUDIT_NORMS = sorted({(kind, 2.0 * a) for _, a, kinds in _AUDIT_TERMS for kind in kinds})

#: Relative slack of :attr:`AuditReport.passed`.
_AUDIT_TOL = 0.05


@dataclass(frozen=True)
class AuditReport:
    """Empirical check of the second-moment bound on the delta sampler.

    ``lhs`` is the mean squared norm of the per-sample anchor gradient
    of the weighted payoff (the thing whose expectation bounds the
    estimator variance); ``rhs`` assembles the three product terms from
    the empirical factor norms in ``norms``, keyed ``"<factor>@<p>"``.

    Each term bounds E|X_1 ... X_k|^2 by prod_j ||X_j||_{2a}^2, the
    generalized Hölder inequality with k conjugate exponents a, k/a = 1.
    The exponents are fixed and equal within a term, (3, 3, 3),
    (3, 3, 3) and (4, 4, 4, 4), so no factor is asked for more moments
    than another and every factor enters through its L^6 or L^8 norm.
    Term 1 pairs the weight with the payoff gradient and the sampler
    Jacobian, term 2 with the payoff and the anchor-gradient mismatch,
    term 3 with the payoff, the evaluation-gradient mismatch and the
    Jacobian.  ``passed`` allows the left side 5% over the right: both
    are sample means, and the high-moment norms are the noisy ones.
    """

    lhs: float
    rhs: float
    terms: tuple[float, float, float]
    norms: dict
    m: int

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + _AUDIT_TOL)


def variance_audit(inputs: EstimatorInputs) -> AuditReport:
    """Estimate both sides of the variance bound and assert nothing.

    The report carries the verdict; callers decide what to do with a
    violation.  The outer scale is not part of the bound and is ignored
    here.  Needs ``payoff_grad`` for the gradient factor.  The terms use
    the fixed Hölder exponents (3, 3, 3), (3, 3, 3) and (4, 4, 4, 4)
    and the verdict a 5% tolerance, for the reasons :class:`AuditReport`
    gives.  The anchor gradients (sampler Jacobian, kernel/proxy
    mismatch, read off the estimator's own log weight, and the full
    weighted-payoff gradient on the left side) are central differences
    at the production bump size, so the audit checks the bound for the
    estimator actually run, not an idealized limit.  The mismatch
    gradient at the evaluation point (m6) does not depend on h; it is
    the closed-form gradient of the log weight in the sample,
    :meth:`AnchoredPair.grad_log_weight`.
    """
    if inputs.payoff_grad is None:
        raise ValueError("the audit needs an analytic payoff gradient")
    h = inputs.h
    x = inputs.anchor
    n = x.shape[-1]
    pair0 = inputs.anchored(x)
    sides = []
    for i in range(n):
        up, dn = _bumped(x, i, h)
        sides.append((inputs.anchored(up), inputs.anchored(dn)))

    lhs = mc.MomentAccumulator()
    accs = {key: mc.MomentAccumulator() for key in _AUDIT_NORMS}

    def batch(bi, lo, hi):
        z = mc.rng_for(inputs.seed, bi, mc.STREAM_XI).standard_normal((hi - lo, n))
        zeta, w, _ = _one_shot(pair0, z)

        grad_sq = np.zeros(hi - lo)
        jac_sq = np.zeros(hi - lo)
        m5_sq = np.zeros(hi - lo)
        for p_up, p_dn in sides:
            z_up, _, v_up = _one_shot(p_up, z, inputs.payoff)
            z_dn, _, v_dn = _one_shot(p_dn, z, inputs.payoff)
            d_i = (v_up - v_dn) / (2.0 * h)
            grad_sq = grad_sq + d_i**2
            jac_sq = jac_sq + np.sum(((z_up - z_dn) / (2.0 * h)) ** 2, axis=-1)
            m5 = (p_up.log_weight(zeta) - p_dn.log_weight(zeta)) / (2.0 * h)
            m5_sq = m5_sq + m5**2

        values = {
            "u": np.abs(inputs.payoff(zeta)),
            "du": np.linalg.norm(inputs.payoff_grad(zeta), axis=-1),
            "jac": np.sqrt(jac_sq),
            "w": w,
            "m5": np.sqrt(m5_sq),
            "m6": np.linalg.norm(pair0.grad_log_weight(zeta), axis=-1),
        }
        lhs.add(bi, grad_sq)
        for (kind, p), acc in accs.items():
            acc.add(bi, values[kind] ** p)

    mc.map_batches(batch, inputs.m)

    # (E |X|^p)^(1/p) from the accumulated mean of |X|^p
    norms = {(kind, p): acc.finalize()[0] ** (1.0 / p) for (kind, p), acc in accs.items()}
    terms = tuple(
        c * math.prod(norms[kind, 2.0 * a] for kind in kinds) ** 2
        for c, a, kinds in _AUDIT_TERMS
    )
    return AuditReport(
        lhs=lhs.finalize()[0],
        rhs=sum(terms),
        terms=terms,
        norms={f"{kind}@{p:g}": v for (kind, p), v in norms.items()},
        m=inputs.m,
    )


# ---------------------------------------------------------------------------
# the iid-lognormal explosion example


@dataclass(frozen=True)
class ExplosionReport:
    """Fixed-sampler delta variance against its closed form.

    For the product-lognormal model with a constant payoff, the
    fixed-sampler estimator of the j-th sensitivity has mean zero and
    estimator variance |x0|^2 / (x0_j^2 sigma^2 s M) exactly; the
    variance factor 1/(sigma^2 s) is what diverges as the step or the
    volatility shrinks.
    """

    empirical_var: float
    predicted_var: float
    mean: float
    mean_se: float
    m: int

    @property
    def ratio(self) -> float:
        return self.empirical_var / self.predicted_var


def explosion_demo(
    sigma: float, s: float, x0: np.ndarray, m: int, seed: int = 0, j: int = 0
) -> ExplosionReport:
    """Run the fixed-sampler sensitivity on the iid lognormal toy.

    The kernel equals the sampling density, so weights are one and the
    per-sample estimator is norm(x0) * d(log kernel)/dx_j evaluated in
    closed form; its variance factor is measured against 1/(sigma^2 s).
    """
    if sigma <= 0.0 or s <= 0.0:
        raise ValueError(f"need sigma > 0 and s > 0, got sigma={sigma}, s={s}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or np.any(x0 <= 0.0):
        raise ValueError("x0 must be a positive vector")
    if not 0 <= j < x0.shape[0]:
        raise ValueError(f"component {j} outside 0..{x0.shape[0] - 1}")
    c = float(np.linalg.norm(x0))
    var_ln = sigma**2 * s

    def head(seed, bi, rows, payoff):
        z = mc.rng_for(seed, bi, mc.STREAM_XI).standard_normal((rows, x0.shape[0]))
        zeta = x0 * np.exp(-0.5 * var_ln + sigma * np.sqrt(s) * z)
        # d(log kernel)/dx_j = (log(zeta_j/x_j) + var/2) / (var * x_j)
        score = (np.log(zeta[:, j] / x0[j]) + 0.5 * var_ln) / (var_ln * x0[j])
        return None, None, [c * score], None

    r = _estimate([(x0, 1.0)], head, m, seed)
    return ExplosionReport(
        empirical_var=r.sd**2,
        predicted_var=c**2 / (x0[j] ** 2 * var_ln * r.m),
        mean=r.value,
        mean_se=r.sd,
        m=r.m,
    )


# ---------------------------------------------------------------------------
# log-Euler reference estimators (the validation oracle)


def euler_price(
    cfg: ModelConfig,
    t: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    m: int,
    seed: int,
    dt: float | None = None,
    scale: Callable[[np.ndarray], float] | None = None,
) -> McResult:
    """Fine-grid pathwise reference for the one-date payoff from ``cfg.l0``."""
    dt = cfg.dt_euro if dt is None else dt
    stencil = [(cfg.l0, 1.0 if scale is None else float(scale(cfg.l0)))]
    return _estimate(stencil, _euler_head(cfg, stencil, t, dt), m, seed, payoff)


def euler_delta_fd(
    cfg: ModelConfig,
    t: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    i: int,
    h: float,
    m: int,
    seed: int,
    scale: Callable[[np.ndarray], float] | None = None,
) -> McResult:
    """Pathwise reference delta: bumped starts, common increments.

    The paths step on the ``cfg.dt_euro`` grid.
    """
    stencil = _delta_stencil(cfg.l0, i, h, lambda a: 1.0 if scale is None else float(scale(a)))
    return _estimate(stencil, _euler_head(cfg, stencil, t, cfg.dt_euro), m, seed, payoff)
