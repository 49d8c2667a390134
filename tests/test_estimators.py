import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from wkbmc import bermudan as brm
from wkbmc import estimators as est
from wkbmc import lmm, mc, payoffs, proxy, wkb


def case_cfg(t1=1.0, strike=0.035, n=19, **kw):
    return lmm.ModelConfig(
        n=n, t1=t1, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=strike, **kw,
    )


def const_payoff(c):
    return lambda zeta: np.full(zeta.shape[:-1], c)


def toy_inputs(level, payoff, n=3, t=0.5, m=5000, seed=0, h=1e-4, **kw):
    cfg = case_cfg(n=n)
    return est.EstimatorInputs(
        anchored=lambda x: est.anchored_libor_pair(cfg, t, level, x),
        payoff=payoff,
        anchor=cfg.l0,
        m=m,
        seed=seed,
        h=h,
        **kw,
    )


def assert_ess_pools_member_clouds(estimator, stencil):
    # ESS per row is m mean(w)^2 / mean(w^2) over the weights of every
    # stencil member (two clouds for Delta, three for diagonal Gamma)
    cfg = case_cfg()
    m, seed, h, i = 3000, 6, 3.5e-5, 18
    inp = est.european_inputs(cfg, 1, m=m, seed=seed, h=h, t=2.0)
    up, dn = est._bumped(cfg.l0, i, h)
    anchors = [up, dn] if stencil == "delta" else [up, cfg.l0, dn]
    z = mc.rng_for(seed, 0, mc.STREAM_XI).standard_normal((m, cfg.n))
    w = np.concatenate([
        np.exp(pair.log_weight(pair.draw(z))) for pair in map(inp.anchored, anchors)
    ])
    want = m * np.mean(w) ** 2 / np.mean(w * w)
    got = estimator(inp, i, h)
    assert abs(got.ess / want - 1.0) < 1e-9
    assert got.ess <= m
    assert_allclose(got.max_weight, np.max(w), rtol=1e-12)


class TestAnchoredPair:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("t1", [1.0, 10.0])
    def test_grad_log_weight_matches_fd(self, level, t1):
        cfg = case_cfg(t1=t1)
        pair = est.anchored_libor_pair(cfg, t1, level)
        zeta = pair.draw(np.random.default_rng(11).standard_normal((64, cfg.n)))
        got = pair.grad_log_weight(zeta)
        for j in range(cfg.n):
            step = 1e-5 * zeta[:, j]
            up, dn = zeta.copy(), zeta.copy()
            up[:, j] += step
            dn[:, j] -= step
            fd = (pair.log_weight(up) - pair.log_weight(dn)) / (2.0 * step)
            assert_allclose(got[:, j], fd, rtol=1e-5, atol=1e-6)

    def test_grad_log_weight_zero_without_kernel(self):
        cfg = case_cfg()
        pair = est.anchored_libor_pair(cfg, 1.0, "lgn")
        zeta = pair.draw(np.random.default_rng(12).standard_normal((8, cfg.n)))
        assert np.array_equal(pair.grad_log_weight(zeta), np.zeros((8, cfg.n)))


class TestPrice:
    def test_proxy_level_constant_payoff_is_exact(self):
        # kernel == proxy, f == c: every sample contributes exactly c
        r = est.price(toy_inputs("lgn", const_payoff(2.5)))
        assert r.value == 2.5
        assert r.sd == 0.0
        assert r.max_weight == 1.0
        assert r.ess == r.m

    def test_single_rate_level1_weights_are_unity(self):
        # one driftless rate: the l=1 kernel IS the sampling density
        vs = lmm.build_vol_structure(np.array([0.3]), np.eye(1))
        delta = np.array([0.5])
        anchor = np.array([0.04])
        p = proxy.make_proxy(vs, delta, 0.0, 2.0, anchor)
        kern = wkb.make_libor_kernel(vs, delta, anchor, level=1)
        pair = est.AnchoredPair(proxy=p, kernel=kern)
        z = np.random.default_rng(1).standard_normal((4000, 1))
        lw = pair.log_weight(pair.draw(z))
        assert np.max(np.abs(lw)) < 1e-12

    def test_single_rate_level0_weight_constant(self):
        # constant log-drift b = -a/2 in y: level 0 drops the exact
        # c1 = -b^2/2, so every weight is exp(b^2 dt / 2)
        vs = lmm.build_vol_structure(np.array([0.3]), np.eye(1))
        delta = np.array([0.5])
        anchor = np.array([0.04])
        dt = 2.0
        p = proxy.make_proxy(vs, delta, 0.0, dt, anchor)
        kern = wkb.make_libor_kernel(vs, delta, anchor, level=0)
        pair = est.AnchoredPair(proxy=p, kernel=kern)
        z = np.random.default_rng(2).standard_normal((2000, 1))
        w = np.exp(pair.log_weight(pair.draw(z)))
        b = -0.5 * vs.a_diag[0] / vs.gamma[0, 0]
        assert_allclose(w, np.exp(0.5 * b**2 * dt), rtol=1e-12)

    def test_level1_close_to_proxy_estimate_at_one_year(self):
        cfg = case_cfg()
        r_lgn = est.price(est.european_inputs(cfg, "lgn", m=40_000, seed=3))
        r_l1 = est.price(est.european_inputs(cfg, 1, m=40_000, seed=3))
        # same draws, nearly-unity weights: estimates differ by far less
        # than either standard error
        assert abs(r_l1.value - r_lgn.value) < 3.0 * r_lgn.sd
        assert r_l1.max_weight < 1.2
        assert r_l1.ess > 0.99 * r_l1.m

    def test_rejects_degenerate_sample_count(self):
        with pytest.raises(ValueError):
            est.price(toy_inputs("lgn", const_payoff(1.0), m=1))

    def test_seed_determinism(self):
        cfg = case_cfg()
        a = est.price(est.european_inputs(cfg, 1, m=30_000, seed=11))
        b = est.price(est.european_inputs(cfg, 1, m=30_000, seed=11))
        c = est.price(est.european_inputs(cfg, 1, m=30_000, seed=12))
        assert a == b
        assert a.value != c.value


class TestOneShot:
    def test_chunked_matches_whole_batch(self):
        # a row count that is not a multiple of the chunk
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=1000, seed=0)
        pair = inp.anchored(cfg.l0)
        z = np.random.default_rng(8).standard_normal((mc.BATCH - 3, cfg.n))
        zeta, w, wf = est._one_shot(pair, z, inp.payoff)
        whole = pair.draw(z)
        w_whole = np.exp(
            wkb.log_weight_y(pair.kernel, pair.proxy.dt, lmm.to_y(cfg.vs, whole), pair.kappa)
        )
        assert_allclose(zeta, whole, rtol=1e-12)
        assert_allclose(w, w_whole, rtol=1e-12)
        assert_allclose(wf, w_whole * inp.payoff(whole), rtol=1e-12, atol=0.0)
        assert est._one_shot(pair, z)[2] is None

    def test_repeats_bit_for_bit_past_one_batch(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=mc.BATCH + 1, seed=4, h=3.5e-5)
        assert est.price(inp) == est.price(inp)
        assert est.delta_fd(inp, 18) == est.delta_fd(inp, 18)


class TestDeltaFd:
    def test_zero_for_constant_payoff_at_proxy_level(self):
        r = est.delta_fd(toy_inputs("lgn", const_payoff(4.0)), 1)
        assert r.value == 0.0
        assert r.sd == 0.0

    def test_ess_pools_both_clouds(self):
        assert_ess_pools_member_clouds(lambda inp, i, h: est.delta_fd(inp, i), "delta")

    def test_needs_h(self):
        inp = toy_inputs("lgn", const_payoff(1.0), h=None)
        with pytest.raises(ValueError):
            est.delta_fd(inp, 0)

    def test_bump_through_zero_rejected(self):
        inp = toy_inputs("lgn", const_payoff(1.0), h=0.05)
        with pytest.raises(ValueError):
            est.delta_fd(inp, 0)
        with pytest.raises(ValueError):
            est.delta_fd(toy_inputs("lgn", const_payoff(1.0)), 7)

    def test_crn_halving_converges_on_smooth_payoff(self):
        # remove the kink: the plain deflated swap value is smooth, so
        # the central difference has O(h^2) bias and common draws make
        # successive halvings nearly deterministic
        cfg = case_cfg()

        def smooth(L):
            br = payoffs.bond_ratios(cfg.delta, L)
            return np.sum(br * cfg.delta * (L - cfg.strike), axis=-1)
        vals = []
        for h in (8e-3, 2e-3, 5e-4):
            inp = est.EstimatorInputs(
                anchored=lambda x: est.anchored_libor_pair(cfg, 1.0, 1, x),
                payoff=smooth, anchor=cfg.l0, m=20_000, seed=5, h=h,
            )
            vals.append(est.delta_fd(inp, 18).value)
        gaps = [abs(vals[0] / vals[1] - 1.0), abs(vals[1] / vals[2] - 1.0)]
        assert gaps[0] < 1e-6
        assert gaps[1] < gaps[0]

    def test_reanchored_variance_flat_as_horizon_shrinks(self):
        cfg = case_cfg()
        sds = []
        for t in (0.5, 0.125):
            inp = est.european_inputs(cfg, 1, m=10_000, seed=5, h=3.5e-5, t=t)
            sds.append(est.delta_fd(inp, 18).sd)
        assert max(sds) / min(sds) < 1.5

    def test_fixed_sampler_variance_grows_when_payoff_nonzero_at_anchor(self):
        cfg = case_cfg(strike=0.02)
        sds = []
        for t in (0.5, 0.125):
            inp = est.european_inputs(cfg, 1, m=10_000, seed=5, h=3.5e-5, t=t)
            sds.append(est.naive_delta(inp, 18).sd)
        # quartering the horizon should double the SD
        assert 1.7 < sds[1] / sds[0] < 2.3


class TestNaiveDelta:
    def test_unbiased_at_zero_for_constant_payoff(self):
        r = est.naive_delta(toy_inputs("lgn", const_payoff(3.0), m=40_000), 0)
        assert abs(r.value) < 3.0 * r.sd
        assert r.sd > 0.0

    def test_ess_pools_both_reweightings_of_one_cloud(self):
        # one cloud from the unbumped proxy, weighted once per bumped kernel
        cfg = case_cfg()
        m, seed, h, i = 3000, 6, 3.5e-5, 18
        inp = est.european_inputs(cfg, 1, m=m, seed=seed, h=h, t=2.0)
        pair0 = inp.anchored(cfg.l0)
        zeta = pair0.draw(mc.rng_for(seed, 0, mc.STREAM_XI).standard_normal((m, cfg.n)))
        w = np.concatenate([
            np.exp(inp.anchored(a).log_kernel(zeta) - pair0.log_proxy(zeta))
            for a in est._bumped(cfg.l0, i, h)
        ])
        got = est.naive_delta(inp, i)
        assert_allclose(got.ess, m * np.mean(w) ** 2 / np.mean(w * w), rtol=1e-9)
        assert_allclose(got.max_weight, np.max(w), rtol=1e-12)

    def test_rejects_a_single_sample(self):
        with pytest.raises(ValueError, match="at least two samples"):
            est.naive_delta(toy_inputs("lgn", const_payoff(3.0), m=1), 0)


def bs_exact_gamma(s0, sigma, t):
    d1 = 0.5 * sigma * np.sqrt(t)
    return stats.norm.pdf(d1) / (s0 * sigma * np.sqrt(t))


class TestGammaFd:
    def test_ess_pools_all_clouds(self):
        assert_ess_pools_member_clouds(lambda inp, i, h: est.gamma_fd(inp, i, i), "gamma")

    def test_zero_for_constant_payoff(self):
        r = est.gamma_fd(toy_inputs("lgn", const_payoff(1.0)), 0, 0)
        assert r.value == 0.0
        assert r.sd == 0.0

    def test_matches_one_dim_call_curvature(self):
        # driftless single rate with unit accrual is the standard
        # lognormal-forward call; its curvature is known exactly
        s0, sigma, t = 0.04, 0.25, 1.0
        vs = lmm.build_vol_structure(np.array([sigma]), np.eye(1))
        delta = np.array([1.0])
        spec = payoffs.SwaptionSpec(strike=s0, first_leg=1)

        def anchored(x):
            p = proxy.make_proxy(vs, delta, 0.0, t, x)
            kern = wkb.make_libor_kernel(vs, delta, x, level=1)
            return est.AnchoredPair(proxy=p, kernel=kern)

        inp = est.EstimatorInputs(
            anchored=anchored,
            payoff=lambda L: payoffs.swaption_payoff(delta, L, spec),
            anchor=np.array([s0]),
            m=100_000,
            seed=9,
            h=0.002,
        )
        r = est.gamma_fd(inp, 0, 0)
        exact = bs_exact_gamma(s0, sigma, t)
        assert abs(r.value - exact) < 3.0 * r.sd
        assert r.sd / exact < 0.05

    def test_symmetric_in_components(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=10_000, seed=4, h=1e-3)
        a = est.gamma_fd(inp, 2, 7)
        b = est.gamma_fd(inp, 7, 2)
        assert_allclose(a.value, b.value, rtol=1e-10)
        assert_allclose(a.sd, b.sd, rtol=1e-10)


class TestVarianceAudit:
    def test_needs_payoff_gradient(self):
        with pytest.raises(ValueError):
            est.variance_audit(toy_inputs("lgn", const_payoff(1.0)))

    def test_proxy_level_zeroes_mismatch_factors(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, "lgn", m=4000, seed=2, h=3.5e-5)
        rep = est.variance_audit(inp)
        assert rep.norms["m5@6"] == 0.0
        assert rep.norms["m6@8"] == 0.0
        assert rep.terms[1] == 0.0
        assert rep.terms[2] == 0.0
        assert rep.passed

    def test_bound_holds_for_level1_kernel(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=4000, seed=2, h=3.5e-5)
        rep = est.variance_audit(inp)
        assert rep.passed
        assert rep.lhs > 0.0
        assert rep.terms[0] > 0.0
        assert rep.m == 4000

    def test_golden_level1(self):
        # every factor but m6 is a central difference or a plain sample
        # value, so it is pinned to rounding; m6 (and the term it enters)
        # only to the agreement of its closed form with finite differences
        cfg = case_cfg()
        rep = est.variance_audit(est.european_inputs(cfg, 1, m=4000, seed=2, h=3.5e-5))
        assert_allclose(rep.lhs, 4.522740462527176, rtol=1e-12, atol=0.0)
        assert_allclose(rep.terms[0], 249.14446824806944, rtol=1e-12, atol=0.0)
        assert_allclose(rep.terms[1], 0.0533891788499879, rtol=1e-12, atol=0.0)
        assert_allclose(rep.terms[2], 2.684075035786515, rtol=1e-5, atol=0.0)
        want = {
            "u@6": 0.11529377795914163,
            "u@8": 0.14049850978075748,
            "du@6": 2.3798999323848338,
            "jac@6": 4.689494974724139,
            "jac@8": 4.815552646338011,
            "w@6": 1.0000595355369095,
            "w@8": 1.0000730383448335,
            "m5@6": 1.0019934887232969,
            "m6@8": 1.2106476370322046,
        }
        assert rep.norms.keys() == want.keys()
        for key, value in want.items():
            rtol = 1e-5 if key.startswith("m6") else 1e-12
            assert_allclose(rep.norms[key], value, rtol=rtol, atol=0.0, err_msg=key)

    def test_fixed_sampler_mismatch_factor_grows(self):
        # product-lognormal toy with the sampler pinned at the start
        # state: the kernel/proxy log-gradient difference is the raw
        # kernel score, whose norm scales like 1/(sigma sqrt(s))
        class FixedSamplerPair:
            def __init__(self, vs, delta, s, anchor, x0):
                self.inner = est.AnchoredPair(
                    proxy=proxy.make_proxy(vs, delta, 0.0, s, anchor)
                )
                self.fixed = est.AnchoredPair(
                    proxy=proxy.make_proxy(vs, delta, 0.0, s, x0)
                )

            def draw(self, z):
                return self.fixed.draw(z)

            def log_kernel(self, zeta):
                return self.inner.log_proxy(zeta)

            def log_proxy(self, zeta):
                return self.fixed.log_proxy(zeta)

            def log_weight(self, zeta):
                return self.log_kernel(zeta) - self.log_proxy(zeta)

            def grad_log_weight(self, zeta):
                # the audit asks only the unbumped pair, whose kernel and
                # sampler coincide, so its log weight is identically zero
                assert np.array_equal(self.inner.proxy.anchor, self.fixed.proxy.anchor)
                return np.zeros(zeta.shape)

        x0 = np.full(3, 0.05)
        delta = np.zeros(3)
        m5 = {}
        for sigma in (1.0, 0.5, 0.25):
            vs = lmm.build_vol_structure(np.full(3, sigma), np.eye(3))
            inp = est.EstimatorInputs(
                anchored=lambda x: FixedSamplerPair(vs, delta, 1.0, x, x0),
                payoff=const_payoff(float(np.linalg.norm(x0))),
                anchor=x0,
                m=4000,
                seed=6,
                h=1e-5,
                payoff_grad=lambda z: np.zeros_like(z),
            )
            rep = est.variance_audit(inp)
            m5[sigma] = rep.norms["m5@6"]
        assert m5[0.5] / m5[1.0] == pytest.approx(2.0, rel=0.15)
        assert m5[0.25] / m5[0.5] == pytest.approx(2.0, rel=0.15)


class TestExplosionDemo:
    def test_matches_closed_form_variance(self):
        x0 = np.full(10, 0.035)
        for sigma, s in ((1.0, 1.0), (0.5, 0.5), (0.14, 0.5)):
            rep = est.explosion_demo(sigma, s, x0, m=100_000, seed=3)
            assert 0.9 < rep.ratio < 1.1
            assert abs(rep.mean) < 3.0 * rep.mean_se

    def test_predicted_variance_formula(self):
        x0 = np.array([0.02, 0.05, 0.01])
        rep = est.explosion_demo(0.7, 0.3, x0, m=2000, seed=0, j=1)
        expected = np.sum((x0 / x0[1]) ** 2) / (2000 * 0.7**2 * 0.3)
        assert_allclose(rep.predicted_var, expected, rtol=1e-12)

    def test_variance_factor_decade_sweep(self):
        # M * Var * sigma^2 s / ||x0/x0_j||^2 pinned at 1 across a
        # decade of sigma^2 s
        x0 = np.full(5, 0.05)
        for var_ln in (1.0, 0.32, 0.1):
            rep = est.explosion_demo(np.sqrt(var_ln), 1.0, x0, m=50_000, seed=8)
            factor = rep.empirical_var * rep.m * var_ln / 5.0
            assert factor == pytest.approx(1.0, rel=0.1)

    def test_validation(self):
        ok = np.full(3, 0.05)
        with pytest.raises(ValueError):
            est.explosion_demo(0.0, 1.0, ok, m=100)
        with pytest.raises(ValueError):
            est.explosion_demo(0.5, -1.0, ok, m=100)
        with pytest.raises(ValueError):
            est.explosion_demo(0.5, 1.0, np.array([0.05, -0.01]), m=100)
        with pytest.raises(ValueError):
            est.explosion_demo(0.5, 1.0, ok, m=100, j=3)

    def test_rejects_a_single_sample(self):
        # one draw has no spread: refused, not reported as variance 0
        with pytest.raises(ValueError, match="at least two samples"):
            est.explosion_demo(0.5, 1.0, np.full(3, 0.05), m=1)


def _bump_estimators():
    """Every finite-difference estimator, as a call taking only the bump h."""
    cfg = case_cfg(n=3, exercise_indices=(1, 2))
    policy = brm.AndersenPolicy(cfg.exercise_indices, cfg.exercise_dates, [0.0, 0.0])
    payoff = const_payoff(1.0)

    def inputs(h):
        return est.european_inputs(cfg, 1, m=100, seed=0, h=h)

    return {
        "delta_fd": lambda h: est.delta_fd(inputs(h), 0),
        "naive_delta": lambda h: est.naive_delta(inputs(h), 0),
        "gamma_fd": lambda h: est.gamma_fd(inputs(h), 0, 0),
        "gamma_fd_cross": lambda h: est.gamma_fd(inputs(h), 0, 1),
        "variance_audit": lambda h: est.variance_audit(inputs(h)),
        "euler_delta_fd": lambda h: est.euler_delta_fd(cfg, cfg.t1, payoff, 0, h, 100, 0),
        "bermudan_delta_fd": lambda h: brm.bermudan_delta_fd(cfg, policy, 0, h, m=100),
        "euler_bermudan_delta_fd": lambda h: brm.bermudan_delta_fd(
            cfg, policy, 0, h, level="euler", m=100),
        "stopping_disagreement": lambda h: brm.stopping_disagreement(cfg, policy, 0, h, m=100),
    }


@pytest.mark.parametrize("h", [0.0, -3.5e-5, float("nan"), None])
@pytest.mark.parametrize("name", sorted(_bump_estimators()))
def test_bad_bump_refused_before_drawing(monkeypatch, name, h):
    # one check in _bumped: zero, negative, nan and missing bumps are
    # refused by every finite-difference estimator before a single
    # normal is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("drew normals for a refused bump")

    call = _bump_estimators()[name]
    monkeypatch.setattr(mc, "rng_for", no_draws)
    with pytest.raises(ValueError, match="must be finite and > 0"):
        call(h)


class TestEulerReference:
    def test_terminal_rate_martingale(self):
        cfg = case_cfg(n=5)
        r = est.euler_price(cfg, 1.0, lambda L: L[..., -1], m=40_000, seed=13)
        assert abs(r.value - cfg.l0[-1]) < 3.0 * r.sd

    def test_agrees_with_direct_estimator(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=40_000, seed=21)
        direct = est.price(inp)
        through = est.euler_price(cfg, 1.0, inp.payoff, m=40_000, seed=22, scale=inp.scale)
        se = np.hypot(direct.sd, through.sd)
        assert abs(direct.value - through.value) < 3.0 * se

    def test_delta_agrees_with_direct(self):
        cfg = case_cfg()
        inp = est.european_inputs(cfg, 1, m=40_000, seed=23, h=3.5e-5)
        direct = est.delta_fd(inp, 18)
        through = est.euler_delta_fd(
            cfg, 1.0, inp.payoff, 18, 3.5e-5, 40_000, 24, scale=inp.scale
        )
        se = np.hypot(direct.sd, through.sd)
        assert abs(direct.value - through.value) < 3.0 * se

    def test_rejects_uneven_horizon(self):
        cfg = case_cfg()
        with pytest.raises(ValueError):
            est.euler_price(cfg, 1.03, lambda L: L[..., 0], m=100, seed=0)

    def test_rejects_a_single_sample(self):
        # one path has no spread: refused, not reported with sd = 0
        with pytest.raises(ValueError, match="at least two samples"):
            est.euler_price(case_cfg(), 1.0, lambda L: L[..., 0], m=1, seed=0)


# (value, sd, m, ess, max_weight) at seed 7 on the 19-rate case study:
# European estimators at M = BATCH + 5 (level 1, Delta and Gamma on
# component 18, the cross Gamma on (2, 7)), Bermudan ones at M = 2048
# under the premium-free policy.  Any change to the random tableau (the
# generator, the sample -> normal mapping, the stream of a draw, the rows
# a continuation gap or step draws for, the batch split or the reduction
# order) moves these far beyond 1e-12.  Any change to the level-1
# kernel's Taylor data (the c_1 stencil, its steps, its quadrature order,
# its position term or the arithmetic of the segment averages it
# integrates) moves every weighted value here past 1e-12 too, and none
# of the Euler ones: the 4-node stencil rule that replaced 16 nodes
# moved the weighted values by at most 1.5e-5 sd.  Neither the size of
# the row slices nor the trigger's reading of the live rates alone
# moves any bit.  The level-1 Bermudan ESS and largest weight are those
# of the path weights.
GOLDEN = {
    "price": (183.1976711289868, 2.3758961649957464, 16389, 16388.760669842784, 1.0144357026271185),
    "delta_fd": (1794.2337707884244, 15.593212890449143, 16389, 16388.760669820815, 1.0144383662305567),
    "gamma_fd_diag": (7224.155033377671, 1108.4518107638899, 16389, None, None),
    "gamma_fd_cross": (15463.409679033386, 1177.9405008179979, 16389, None, None),
    "euler_price": (178.82009576954667, 2.3508268975571323, 16389, np.nan, 1.0),
    "euler_delta_fd": (1767.5675815557393, 15.535185517754707, 16389, np.nan, 1.0),
    "bermudan_price": (347.0104756541639, 8.82309932811761, 2048, 2047.9069786671091, 1.0257804091161433),
    "bermudan_delta_fd": (2811.384369634182, 50.35295534140029, 2048, 2047.9075163551945, 1.034726601093311),
    "euler_bermudan_price": (342.8072025042409, 8.949181788196626, 2048, np.nan, 1.0),
    "euler_bermudan_delta_fd": (2809.9466083064353, 51.544717402633495, 2048, np.nan, 1.0),
}


def golden_run(name):
    cfg = case_cfg(exercise_indices=tuple(range(1, 20, 2)))
    m = mc.BATCH + 5
    inp = est.european_inputs(cfg, 1, m=m, seed=7, h=3.5e-5)
    ginp = est.european_inputs(cfg, 1, m=m, seed=7, h=1e-3)
    flat = brm.AndersenPolicy(cfg.exercise_indices, cfg.exercise_dates, np.zeros(10))
    calls = {
        "price": lambda: est.price(inp),
        "delta_fd": lambda: est.delta_fd(inp, 18),
        "gamma_fd_diag": lambda: est.gamma_fd(ginp, 18, 18),
        "gamma_fd_cross": lambda: est.gamma_fd(ginp, 2, 7),
        "euler_price": lambda: est.euler_price(cfg, 1.0, inp.payoff, m, 7, scale=inp.scale),
        "euler_delta_fd": lambda: est.euler_delta_fd(
            cfg, 1.0, inp.payoff, 18, 3.5e-5, m, 7, scale=inp.scale),
        "bermudan_price": lambda: brm.bermudan_price(cfg, flat, level=1, m=2048, seed=7),
        "bermudan_delta_fd": lambda: brm.bermudan_delta_fd(
            cfg, flat, i=18, h=3.5e-5, level=1, m=2048, seed=7),
        "euler_bermudan_price": lambda: brm.bermudan_price(
            cfg, flat, level="euler", m=2048, seed=7),
        "euler_bermudan_delta_fd": lambda: brm.bermudan_delta_fd(
            cfg, flat, i=18, h=3.5e-5, level="euler", m=2048, seed=7),
    }
    return calls[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_tableau(name):
    value, sd, m, ess, max_weight = GOLDEN[name]
    r = golden_run(name)
    assert_allclose(r.value, value, rtol=1e-12, atol=0.0)
    assert_allclose(r.sd, sd, rtol=1e-12, atol=0.0)
    assert r.m == m
    assert r.seed == 7
    if ess is not None:
        assert_allclose(r.ess, ess, rtol=1e-12, atol=0.0)
        assert_allclose(r.max_weight, max_weight, rtol=1e-12, atol=0.0)
