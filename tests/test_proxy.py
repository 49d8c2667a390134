import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from wkbmc import lmm, proxy


def small_cfg(n=3):
    return lmm.ModelConfig(
        n=n, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035,
    )


class TestMoments:
    def test_terminal_component_hand_value(self):
        cfg = small_cfg(n=4)
        mean = proxy.make_proxy(cfg.vs, cfg.delta, 0.3, cfg.l0).mean_shift
        # terminal rate has no state drift: mean shift is -dt*a_nn/2
        assert_allclose(mean[-1], -0.3 * cfg.vs.a_diag[-1] / 2, rtol=1e-14)

    def test_small_rate_limit_kills_state_drift(self):
        cfg = small_cfg(n=3)
        x = np.full(3, 1e-13)
        mean = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, x).mean_shift
        assert_allclose(mean, -cfg.vs.a_diag / 2, rtol=1e-9)

    def test_validation(self):
        cfg = small_cfg()
        for dt in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                proxy.make_proxy(cfg.vs, cfg.delta, dt, cfg.l0)
        with pytest.raises(ValueError):
            proxy.make_proxy(cfg.vs, cfg.delta, 1.0, -cfg.l0)
        for bad in (np.nan, np.inf):
            anchor = cfg.l0.copy()
            anchor[1] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                proxy.make_proxy(cfg.vs, cfg.delta, 1.0, anchor)


class TestSampling:
    def test_sample_matches_moments(self):
        cfg = small_cfg(n=3)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, cfg.l0)
        rng = np.random.default_rng(9)
        m = 200_000
        zeta = proxy.sample_g(p, rng.standard_normal((m, 3)))
        logs = np.log(zeta / cfg.l0)
        se = logs.std(axis=0) / np.sqrt(m)
        assert np.all(np.abs(logs.mean(axis=0) - p.mean_shift) < 3 * se)
        assert_allclose(np.cov(logs.T), p.dt * cfg.vs.a, atol=5e-3)

    def test_density_normalises(self):
        # integrate the density by importance sampling from a second,
        # wider proxy anchored elsewhere; the ratio must average to one
        cfg = small_cfg(n=2)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, cfg.l0)
        wide = proxy.make_proxy(cfg.vs, cfg.delta, 2.0, cfg.l0 * 1.2)
        rng = np.random.default_rng(13)
        m = 400_000
        v = proxy.sample_g(wide, rng.standard_normal((m, 2)))
        r = np.exp(proxy.log_density(p, v) - proxy.log_density(wide, v))
        assert abs(r.mean() - 1.0) < 3 * r.std() / np.sqrt(m)


class TestDensity:
    def test_log_density_identity_in_z(self):
        # plugging the sampling map into the density must give back the
        # standard normal kernel exactly, up to the known Jacobian terms
        cfg = small_cfg(n=5)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 0.7, cfg.l0)
        rng = np.random.default_rng(21)
        z = rng.standard_normal((100, 5))
        zeta = proxy.sample_g(p, z)
        lhs = (
            proxy.log_density(p, zeta)
            + np.sum(np.log(zeta), axis=1)
            + 0.5 * 5 * np.log(p.dt)
            + np.sum(np.log(np.diag(p.cov_factor / np.sqrt(p.dt))))
        )
        rhs = -0.5 * 5 * np.log(2 * np.pi) - 0.5 * np.sum(z * z, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_against_scipy_multivariate_normal(self):
        cfg = small_cfg(n=2)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 0.9, cfg.l0)
        rng = np.random.default_rng(4)
        v = proxy.sample_g(p, rng.standard_normal((50, 2)))
        mvn = stats.multivariate_normal(
            mean=np.log(cfg.l0) + p.mean_shift, cov=p.dt * cfg.vs.a
        )
        want = mvn.logpdf(np.log(v)) - np.sum(np.log(v), axis=1)
        assert_allclose(proxy.log_density(p, v), want, rtol=1e-12)

    def test_marginal_against_scipy_lognorm(self):
        # log-values are jointly normal, so each marginal is lognormal;
        # a KS test on the last component catches scale slips
        cfg = small_cfg(n=2)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, cfg.l0)
        rng = np.random.default_rng(8)
        zeta = proxy.sample_g(p, rng.standard_normal((20_000, 2)))
        sigma = np.sqrt(p.dt * cfg.vs.a_diag[-1])
        ln = stats.lognorm(s=sigma, scale=cfg.l0[-1] * np.exp(p.mean_shift[-1]))
        ks = stats.kstest(zeta[:, -1], ln.cdf)
        assert ks.pvalue > 1e-4

    def test_rejects_nonpositive_points(self):
        cfg = small_cfg(n=3)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, cfg.l0)
        # NaN compares false with 0, so it and inf need their own check
        for bad in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive finite rates"):
                proxy.log_density(p, np.array([[bad, 0.03, 0.03], [0.03, 0.03, 0.03]]))
