import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from wkbmc import harness, lmm, proxy, wkb


def case_cfg(n=5, t1=1.0):
    return lmm.ModelConfig(
        n=n, t1=t1, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035
    )


def fd_drift_model(vs, delta, h=1e-6):
    """Libor drift in flat coordinates with FD derivatives, for cross-checks."""

    def b(z):
        return lmm.drift_mu_y(vs, delta, np.asarray(z, dtype=float))

    def grad(z):
        z = np.asarray(z, dtype=float)
        n = z.shape[-1]
        out = np.empty(z.shape + (n,))
        for p in range(n):
            e = np.zeros(n)
            e[p] = h
            out[..., :, p] = (b(z + e) - b(z - e)) / (2 * h)
        return out

    def lap(z):
        z = np.asarray(z, dtype=float)
        n = z.shape[-1]
        f0 = b(z)
        acc = np.zeros_like(f0)
        for p in range(n):
            e = np.zeros(n)
            e[p] = h
            acc = acc + (b(z + e) - 2 * f0 + b(z - e)) / h**2
        return acc

    return wkb.FlatDriftModel(b=b, grad=grad, lap=lap)


def y_pairs(cfg, count, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    y0 = lmm.to_y(cfg.vs, cfg.l0)
    x = y0 + spread * rng.standard_normal((count, cfg.n))
    y = y0 + spread * rng.standard_normal((count, cfg.n))
    return x, y


def gl_segment_average(delta, u, v, order=40):
    """Segment average of q = expit(. + log delta) from v to u, by Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (nodes + 1)
    ts = v[..., None] + s * (u - v)[..., None] + np.log(delta)[:, None]
    return np.sum(0.5 * weights * special.expit(ts), axis=-1)


class TestGenericCoefficients:
    def test_c0_zero_drift(self):
        model = wkb.constant_drift_model(np.zeros(3))
        x, y = np.ones(3), np.array([0.3, -1.0, 2.0])
        assert wkb.c0_generic(model, x, y) == 0.0

    def test_c0_constant_drift(self):
        b = np.array([0.4, -0.7])
        model = wkb.constant_drift_model(b)
        x = np.array([1.0, 2.0])
        y = np.array([0.5, 2.5])
        assert_allclose(wkb.c0_generic(model, x, y), (y - x) @ b, rtol=1e-14)

    def test_c0_linear_drift(self):
        B = np.array([[-0.3, 0.4], [0.1, -0.2]])
        model = wkb.linear_drift_model(B)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2))
        # segment average of B z is B (x + y) / 2
        want = np.sum((y - x) * ((x + y) / 2 @ B.T), axis=-1)
        assert_allclose(wkb.c0_generic(model, x, y), want, atol=1e-14)

    def test_grad_c0_against_fd(self):
        B = np.array([[-0.3, 0.4], [0.1, -0.2]])
        model = wkb.linear_drift_model(B)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 2))
        got = wkb.grad_c0_generic(model, z, y)
        h = 1e-7
        for p in range(2):
            e = np.zeros(2)
            e[p] = h
            fd = (wkb.c0_generic(model, z + e, y) - wkb.c0_generic(model, z - e, y)) / (2 * h)
            assert_allclose(got[:, p], fd, rtol=1e-6, atol=1e-9)

    def test_lap_c0_smooth_drift_against_fd(self):
        # a genuinely curved drift so the lap-of-b term is exercised
        def b(z):
            return np.stack([np.sin(z[..., 0]) * z[..., 1], np.cos(z[..., 1])], axis=-1)

        def grad(z):
            z0, z1 = z[..., 0], z[..., 1]
            out = np.empty(z.shape + (2,))
            out[..., 0, 0] = np.cos(z0) * z1
            out[..., 0, 1] = np.sin(z0)
            out[..., 1, 0] = 0.0
            out[..., 1, 1] = -np.sin(z1)
            return out

        def lap(z):
            z0, z1 = z[..., 0], z[..., 1]
            return np.stack([-np.sin(z0) * z1, -np.cos(z1)], axis=-1)

        model = wkb.FlatDriftModel(b=b, grad=grad, lap=lap)
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, size=(6, 2))
        y = rng.uniform(-1, 1, size=(6, 2))
        got = wkb.lap_c0_generic(model, z, y, order=24)
        h = 1e-4
        acc = np.zeros(6)
        f0 = wkb.c0_generic(model, z, y, order=24)
        for p in range(2):
            e = np.zeros(2)
            e[p] = h
            acc = acc + (
                wkb.c0_generic(model, z + e, y, order=24)
                - 2 * f0
                + wkb.c0_generic(model, z - e, y, order=24)
            ) / h**2
        assert_allclose(got, acc, rtol=5e-5, atol=1e-7)


class TestRecursion:
    def test_rhs_zero_drift(self):
        model = wkb.constant_drift_model(np.zeros(2))
        x, y = np.zeros(2), np.ones(2)
        assert_allclose(wkb.r0_generic(model, x, y), 0.0)

    def test_rhs_constant_drift(self):
        b = np.array([0.3, -0.5, 0.1])
        model = wkb.constant_drift_model(b)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((15, 3))
        y = rng.standard_normal((15, 3))
        # grad c_0 = -b everywhere, so R_0 = |b|^2/2 - |b|^2 = -|b|^2/2
        assert_allclose(wkb.r0_generic(model, x, y), -0.5 * b @ b, rtol=1e-13)

    def test_c1_constant_drift(self):
        b = np.array([0.3, -0.5])
        model = wkb.constant_drift_model(b)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 2))
        assert_allclose(wkb.c1_generic(model, x, y), -0.5 * b @ b, rtol=1e-13)

    def test_c1_boundary_value_is_r0(self):
        # at y = x the integral int R_0(x, x) s^0 ds collapses to R_0(x, x)
        B = np.array([[-0.3, 0.4], [0.1, -0.2]])
        model = wkb.linear_drift_model(B)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        r0 = wkb.r0_generic(model, x, x)
        assert_allclose(wkb.c1_generic(model, x, x), r0, rtol=1e-12)


class TestGenericDensity:
    def test_constant_drift_level1_exact(self):
        # for constant drift the truncation at level 1 is the exact kernel
        b = np.array([0.25, -0.4, 0.1])
        model = wkb.constant_drift_model(b)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2000, 3))
        dt = 0.7
        y = x + dt * b + np.sqrt(dt) * rng.standard_normal((2000, 3))
        got = wkb.generic_log_density(model, 1, x, y, dt)
        want = stats.multivariate_normal(cov=dt * np.eye(3)).logpdf(y - x - dt * b)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_level_two_not_available(self):
        model = wkb.constant_drift_model(np.zeros(2))
        with pytest.raises(NotImplementedError):
            wkb.generic_log_density(model, 2, np.zeros(2), np.ones(2), 0.5)

    def test_exact_linear_kernel_one_dim(self):
        # dZ = -k Z dt + dW has the textbook Ornstein-Uhlenbeck kernel
        k, t = 0.7, 0.9
        B = np.array([[-k]])
        x = np.array([[0.8]])
        y = np.array([[0.3]])
        var = (1 - np.exp(-2 * k * t)) / (2 * k)
        want = stats.norm(loc=0.8 * np.exp(-k * t), scale=np.sqrt(var)).logpdf(0.3)
        assert_allclose(wkb.linear_drift_exact_log_density(B, x, y, t)[0], want, rtol=1e-12)

    def test_truncation_error_slopes(self):
        # holding (x, y) fixed, the log-density defect of the level-l
        # truncation scales like dt^{l+1}
        B = np.array([[-0.3, 0.4], [0.1, -0.2]])
        model = wkb.linear_drift_model(B)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, size=(40, 2))
        y = rng.uniform(-1, 1, size=(40, 2))
        steps = np.array([0.4, 0.2, 0.1, 0.05])
        for level in (0, 1):
            errs = []
            for dt in steps:
                exact = wkb.linear_drift_exact_log_density(B, x, y, dt)
                approx = wkb.generic_log_density(model, level, x, y, dt)
                errs.append(np.max(np.abs(exact - approx)))
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert abs(slope - (level + 1)) < 0.25, (level, slope, errs)


def log_rate_offsets(cfg, sep, rng):
    """Flat-coordinate offsets whose log-rate components are all +-sep.

    The segment-average series switch on the log-rate separation
    Gamma (x - y), so this puts every entry on a chosen side of it.
    """
    signs = rng.choice([-1.0, 1.0], size=(sep.shape[0], cfg.n))
    return (sep[:, None] * signs) @ cfg.vs.gamma_inv.T


class TestLiborClosedForms:
    def test_c0_matches_generic_quadrature(self):
        cfg = case_cfg(n=5)
        model = wkb.FlatDriftModel(b=lambda z: lmm.drift_mu_y(cfg.vs, cfg.delta, z))
        x, y = y_pairs(cfg, 100, seed=4)
        got = wkb.libor_c0(cfg.vs, cfg.delta, x, y)
        want = wkb.c0_generic(model, x, y, order=32)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_c0_vanishes_on_diagonal(self):
        cfg = case_cfg(n=6)
        x, _ = y_pairs(cfg, 30, seed=5)
        assert_allclose(wkb.libor_c0(cfg.vs, cfg.delta, x, x), 0.0, atol=1e-14)

    def test_c0_grad_against_fd(self):
        cfg = case_cfg(n=4)
        z, y = y_pairs(cfg, 20, seed=6)
        got = wkb.libor_c0_grad(cfg.vs, cfg.delta, z, y)
        h = 1e-6
        for p in range(4):
            e = np.zeros(4)
            e[p] = h
            fd = (
                wkb.libor_c0(cfg.vs, cfg.delta, z + e, y)
                - wkb.libor_c0(cfg.vs, cfg.delta, z - e, y)
            ) / (2 * h)
            assert_allclose(got[:, p], fd, rtol=1e-5, atol=1e-10)

    def test_c0_lap_against_fd(self):
        # libor_r0 = |grad c0|^2/2 + lap c0/2 + b . grad c0, so the
        # Laplacian it forms from the segment averages can be recovered
        # and checked against second differences, with separations on
        # both sides of the K series switch
        cfg = case_cfg(n=4)
        rng = np.random.default_rng(12)
        y = lmm.to_y(cfg.vs, cfg.l0) + 0.3 * rng.standard_normal((16, 4))
        sep = np.repeat([1e-4, 0.9 * wkb._K_SERIES_EPS, 2.0 * wkb._K_SERIES_EPS, 0.5], 4)
        z = y + log_rate_offsets(cfg, sep, rng)
        grad = wkb.libor_c0_grad(cfg.vs, cfg.delta, z, y)
        b = lmm.drift_mu_y(cfg.vs, cfg.delta, z)
        r0 = wkb.libor_r0(cfg.vs, cfg.delta, z, y)
        got = 2.0 * (r0 - 0.5 * np.sum(grad * grad, axis=-1) - np.sum(b * grad, axis=-1))
        h = 3e-4
        f0 = wkb.libor_c0(cfg.vs, cfg.delta, z, y)
        fd = np.zeros_like(f0)
        for p in range(4):
            e = np.zeros(4)
            e[p] = h
            fd += (
                wkb.libor_c0(cfg.vs, cfg.delta, z + e, y)
                - 2 * f0
                + wkb.libor_c0(cfg.vs, cfg.delta, z - e, y)
            ) / h**2
        assert_allclose(got, fd, rtol=1e-3, atol=1e-8)

    def test_r0_single_pass_matches_public_pieces(self):
        # libor_r0 forms gradient and Laplacian from one evaluation of
        # the segment averages; the separate gradient call and a
        # separate K evaluation must agree, with separations on both
        # sides of the K series switch
        cfg = case_cfg(n=5)
        rng = np.random.default_rng(12)
        y = lmm.to_y(cfg.vs, cfg.l0) + 0.3 * rng.standard_normal((60, 5))
        sep = np.repeat([1e-4, 0.9 * wkb._K_SERIES_EPS, 2.0 * wkb._K_SERIES_EPS, 0.5], 15)
        dirs = rng.standard_normal((60, 5))
        z = y + sep[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        grad = wkb.libor_c0_grad(cfg.vs, cfg.delta, z, y)
        m, _, _, k = wkb._c0_pieces(cfg.vs, cfg.delta, z, y, want_k=True)
        lap = wkb._lap_from_pieces(cfg.vs, m, k)
        b = lmm.drift_mu_y(cfg.vs, cfg.delta, z)
        want = 0.5 * np.sum(grad * grad, axis=-1) + 0.5 * lap + np.sum(b * grad, axis=-1)
        assert_allclose(wkb.libor_r0(cfg.vs, cfg.delta, z, y), want, rtol=1e-12)

    def test_c0_antisymmetric(self):
        # c0 is a line integral along the segment, so swapping the
        # endpoints flips its sign.  The direct segment average is
        # symmetric in the endpoints; the series is expanded around the
        # second one, and cut after w^3 it keeps the symmetry just inside
        # the switch too (cut after w^2 it was off by 3e-10 at 0.9 eps)
        cfg = case_cfg(n=5)
        rng = np.random.default_rng(14)
        eps = wkb._FG_SERIES_EPS
        for seps in ([1e-5, 1e-4, 1.1 * eps, 2.0 * eps, 0.1, 1.0], [0.9 * eps]):
            sep = np.repeat(seps, 5)
            y = lmm.to_y(cfg.vs, cfg.l0) + 0.3 * rng.standard_normal((sep.shape[0], 5))
            x = y + log_rate_offsets(cfg, sep, rng)
            assert_allclose(
                wkb.libor_c0(cfg.vs, cfg.delta, x, y),
                -wkb.libor_c0(cfg.vs, cfg.delta, y, x),
                rtol=1e-12,
            )

    def test_c1_matches_generic_recursion(self):
        cfg = case_cfg(n=4)
        model = fd_drift_model(cfg.vs, cfg.delta)
        x, y = y_pairs(cfg, 10, spread=0.3, seed=9)
        got = wkb.libor_c1(cfg.vs, cfg.delta, x, y)
        want = wkb.c1_generic(model, x, y, order=16)
        assert_allclose(got, want, rtol=1e-4, atol=1e-8)

    def test_c1_boundary_equals_r0(self):
        cfg = case_cfg(n=5)
        x, _ = y_pairs(cfg, 100, seed=10)
        r0 = wkb.libor_r0(cfg.vs, cfg.delta, x, x)
        assert_allclose(wkb.libor_c1(cfg.vs, cfg.delta, x, x), r0, rtol=1e-12)

    def test_segment_average_series_continuity(self, monkeypatch):
        # the F/G/K evaluations switch to series near coincident
        # endpoints; both branches evaluated at the same separation,
        # just inside each switch point, must agree
        cfg = case_cfg(n=3)
        delta = cfg.delta
        u = cfg.vs.gamma @ lmm.to_y(cfg.vs, cfg.l0)
        checks = (
            ("_FG_SERIES_EPS", 0, 1e-10),
            ("_FG_SERIES_EPS", 1, 2e-9),
            ("_K_SERIES_EPS", 2, 1e-7),
        )
        for name, i, rtol in checks:
            w = 0.99 * getattr(wkb, name)
            series = wkb._segment_fgk(delta, u, u - w, want_k=True)[i]
            with monkeypatch.context() as m:
                m.setattr(wkb, name, 1e-12)
                if name == "_FG_SERIES_EPS":
                    m.setattr(wkb, "_K_SERIES_EPS", 1e-12)
                direct = wkb._segment_fgk(delta, u, u - w, want_k=True)[i]
            assert_allclose(series, direct, rtol=rtol)

    def test_segment_average_against_quadrature(self):
        # F must be the segment average of the logistic factor
        cfg = case_cfg(n=3)
        u = cfg.vs.gamma @ lmm.to_y(cfg.vs, cfg.l0)
        v = u + np.array([0.3, -0.5, 0.08])
        f, _, _ = wkb._segment_fgk(cfg.delta, u, v, want_k=False)
        assert_allclose(f, gl_segment_average(cfg.delta, u, v), rtol=1e-12)

    @pytest.mark.parametrize("sep", [0.5e-3, 0.99e-3, 1.01e-3, 2e-3, 1.0])
    def test_f_alone_against_quadrature(self, sep):
        # the F-only evaluator behind c_0, on the case-study curve, on
        # both sides of the series switch and for both signs of u - v
        cfg = harness.build_config(None, 1.0)
        u = lmm.to_y(cfg.vs, cfg.l0) @ cfg.vs.gamma.T
        signs = np.where(np.arange(cfg.n) % 2, 1.0, -1.0)
        v = np.stack([u - sep * signs, u + sep * signs])
        got = wkb._segment_f(cfg.delta, u, v)
        assert_allclose(got, gl_segment_average(cfg.delta, u, v), rtol=1e-10)


class TestLogistic:
    def test_matches_scipy_expit(self):
        t = np.linspace(-745.0, 745.0, 20001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wkb._expit(t)
        assert_allclose(got, special.expit(t), rtol=5e-16, atol=0.0)

    def test_infinities(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wkb._expit(np.array([-np.inf, np.inf]))
        assert got[0] == 0.0
        assert got[1] == 1.0


def four_point_hessian(vs, delta, x):
    """Hessian of y -> c_1(x, y) at y = x with each mixed partial from its
    own four corners x +- eps_i e_i +- eps_j e_j: 1 + 2 n^2 points."""
    n = x.shape[0]
    eps = wkb._TAYLOR_REL_STEP * np.maximum(np.abs(x), 1.0)
    step = np.diag(eps)
    points = [x] + [x + s * step[i] for i in range(n) for s in (1.0, -1.0)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    points += [x + si * step[i] + sj * step[j]
               for i, j in pairs for si in (1.0, -1.0) for sj in (1.0, -1.0)]
    assert len(points) == 1 + 2 * n * n
    vals = wkb.libor_c1(vs, delta, x, np.stack(points))
    f0, axis, corners = vals[0], vals[1 : 1 + 2 * n], vals[1 + 2 * n :]
    hess = np.diag((axis[0::2] - 2.0 * f0 + axis[1::2]) / eps**2)
    for (i, j), (fpp, fpm, fmp, fmm) in zip(pairs, corners.reshape(-1, 4)):
        hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * eps[i] * eps[j])
    return hess


class TestTaylorSurrogate:
    @pytest.mark.parametrize("n", [4, 19])
    def test_hessian_matches_four_point_stencil(self, n):
        # the diagonal-pair stencil has the four-point rule's O(eps^2)
        # error; the two differ at the stencil's round-off level
        cfg = case_cfg(n=n)
        x = lmm.to_y(cfg.vs, cfg.l0)
        _, _, hess = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        ref = four_point_hessian(cfg.vs, cfg.delta, x)
        assert np.max(np.abs(hess - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [4, 19])
    def test_stencil_order_matches_sixteen_nodes(self, n, monkeypatch):
        # the stencil segments are about 1e-4 long, so a 4-node rule
        # integrates them to the difference's own rounding floor
        cfg = case_cfg(n=n)
        x = lmm.to_y(cfg.vs, cfg.l0)
        f0, grad, hess = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        monkeypatch.setattr(wkb, "_STENCIL_NODES", wkb._C1_NODES)
        ref_f0, ref_grad, ref_hess = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        assert wkb._C1_NODES == 16
        assert_allclose(f0, ref_f0, rtol=1e-13, atol=0.0)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-9 * np.max(np.abs(ref_grad))
        assert np.max(np.abs(hess - ref_hess)) <= 1e-5 * np.max(np.abs(ref_hess))

    def test_quadrature_nodes_are_shared_and_read_only(self):
        assert wkb._STENCIL_NODES == 4
        for order in (wkb._C1_NODES, wkb._STENCIL_NODES):
            nodes, weights = wkb._gauss_legendre_01(order)
            again = wkb._gauss_legendre_01(order)
            assert nodes.shape == (order,)
            assert again[0] is nodes
            assert again[1] is weights
            for table in (nodes, weights):
                with pytest.raises(ValueError):
                    table[0] = 0.0

    def test_cubic_remainder(self):
        # below t ~ 1 the remainder drowns in the stencil's own noise,
        # so the slope is fit on the decade above it
        cfg = case_cfg(n=4)
        x = lmm.to_y(cfg.vs, cfg.l0)
        f0, grad, hess = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        assert_allclose(hess, hess.T)
        d = np.array([0.7, -0.2, 0.4, -0.5])
        d = d / np.linalg.norm(d)
        ts = np.array([4.0, 2.0, 1.0])
        errs = []
        for t in ts:
            y = x + t * d
            direct = wkb.libor_c1(cfg.vs, cfg.delta, x, y)
            quad = f0 + t * d @ grad + 0.5 * t**2 * d @ hess @ d
            errs.append(abs(direct - quad))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert 2.5 < slope < 3.8, (slope, errs)

    def test_surrogate_accurate_at_step_scale(self):
        # displacements of size sqrt(n dt) are what a one-shot draw
        # actually produces; the surrogate must track c_1 closely there
        cfg = case_cfg(n=4)
        x = lmm.to_y(cfg.vs, cfg.l0)
        f0, grad, hess = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        rng = np.random.default_rng(31)
        d = rng.standard_normal((50, 4))
        d *= 2.0 / np.linalg.norm(d, axis=1, keepdims=True)
        ys = x + d
        direct = wkb.libor_c1(cfg.vs, cfg.delta, np.broadcast_to(x, ys.shape), ys)
        quad = f0 + d @ grad + 0.5 * np.sum((d @ hess) * d, axis=-1)
        assert np.max(np.abs(direct - quad)) < 1e-5

    def test_value_at_anchor(self):
        cfg = case_cfg(n=3)
        x = lmm.to_y(cfg.vs, cfg.l0)
        f0, _, _ = wkb.libor_c1_taylor2(cfg.vs, cfg.delta, x)
        assert_allclose(f0, wkb.libor_r0(cfg.vs, cfg.delta, x, x), rtol=1e-12)

    @pytest.mark.parametrize("w", [19, 9, 3])
    def test_diagonal_is_minus_half_the_squared_drift(self, w):
        # mu_i reads only the later rates, so the flat drift b is
        # divergence-free and c_1(z, z) = R_0(z, z) = -|b(z)|^2 / 2, with
        # b dt the proxy's mean shift kappa in flat coordinates
        cfg = case_cfg(n=19)
        first = cfg.n - w
        vs, delta, dt = cfg.vs.trailing(first), cfg.delta[first:], 0.7
        rng = np.random.default_rng(w)
        rates = cfg.l0[first:] * np.exp(0.3 * rng.standard_normal((50, w)))
        kappa = proxy.make_proxy(vs, delta, dt, rates).mean_shift @ vs.gamma_inv.T
        z = lmm.to_y(vs, rates)
        want = -np.sum(kappa * kappa, axis=-1) / (2.0 * dt * dt)
        assert_allclose(wkb.libor_r0(vs, delta, z, z), want, rtol=1e-12, atol=0.0)
        assert_allclose(wkb.libor_c1(vs, delta, z, z), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("w", [17, 9, 3])
    def test_position_term_beats_translation(self, w):
        # the Bermudan continuation's gap into tenor index i = 20 - w: the
        # live rates start at the states a seeded batch reaches at the
        # previous exercise date and draw a one-year step from the proxy
        # at each row.  Against exact c_1 per row, the closed-form
        # diagonal at each row's start plus the translated quadratic must
        # do better than the surrogate it replaced: the quadratic
        # translated with the stencil's value at the anchor, plus a
        # first-order term in the start's offset from the anchor whose
        # gradient is a central difference of R_0 on the diagonal
        cfg = lmm.ModelConfig(
            n=19, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035
        )
        first = cfg.n - w
        start, end = cfg.tenor_date(first - 1), cfg.tenor_date(first + 1)
        rng = np.random.default_rng(11)
        x = proxy.sample_g(proxy.make_proxy(cfg.vs, cfg.delta, start, cfg.l0),
                           rng.standard_normal((2000, cfg.n)))[:, first:]
        vs, delta, dt = cfg.vs.trailing(first), cfg.delta[first:], end - start
        ker = wkb.make_libor_kernel(vs, delta, cfg.l0[first:], level=1)
        p = proxy.make_proxy(vs, delta, dt, x)
        zeta = proxy.sample_g(p, rng.standard_normal((2000, w)))
        xy, y = lmm.to_y(vs, x), lmm.to_y(vs, zeta)
        exact = wkb.libor_c1(vs, delta, xy, y)
        kappa = p.mean_shift @ vs.gamma_inv.T
        closed = -np.sum(kappa * kappa, axis=-1) / (2.0 * dt * dt) + ker.c1_taylor(y, xy)
        a = lmm.to_y(vs, cfg.l0[first:])
        f0, _, _ = wkb.libor_c1_taylor2(vs, delta, a)
        eps = wkb._TAYLOR_REL_STEP * np.maximum(np.abs(a), 1.0)
        zs = a + np.concatenate([np.diag(eps), -np.diag(eps)])
        r0 = wkb.libor_r0(vs, delta, zs, zs)
        pos_grad = (r0[:w] - r0[w:]) / (2.0 * eps)
        translated = f0 + ker.c1_taylor(y, xy) + (xy - a) @ pos_grad
        assert (np.mean(np.abs(dt * (closed - exact)))
                < np.mean(np.abs(dt * (translated - exact))))


def log_kernel(ker, p, v):
    """ln p_l(x, v) over rate vectors, started where the proxy ``p`` is: ln w + ln phi."""
    vs = p.vs
    kappa = p.mean_shift @ vs.gamma_inv.T
    lw = wkb.log_weight_y(ker, p.dt, lmm.to_y(vs, v), kappa, lmm.to_y(vs, p.anchor))
    return lw + proxy.log_density(p, v)


def log_jacobian(vs, v):
    """ln |dY/dL| of the chart Y = Gamma^{-1} log L at the rates ``v``."""
    return -np.sum(np.log(v), axis=-1) - np.sum(np.log(np.diag(vs.gamma)))


class TestKernel:
    def test_level0_at_anchor(self):
        cfg = case_cfg(n=4)
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=0)
        dt = 0.3
        p = proxy.make_proxy(cfg.vs, cfg.delta, dt, cfg.l0)
        got = np.exp(log_kernel(ker, p, cfg.l0) - log_jacobian(cfg.vs, cfg.l0))
        assert_allclose(got, (2 * np.pi * dt) ** -2.0, rtol=1e-13)

    def test_level1_at_anchor(self):
        cfg = case_cfg(n=4)
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=1)
        dt = 0.3
        x = lmm.to_y(cfg.vs, cfg.l0)
        p = proxy.make_proxy(cfg.vs, cfg.delta, dt, cfg.l0)
        got = log_kernel(ker, p, cfg.l0) - log_jacobian(cfg.vs, cfg.l0)
        r0 = wkb.libor_r0(cfg.vs, cfg.delta, x, x)
        assert_allclose(got, -2.0 * np.log(2 * np.pi * dt) + dt * r0, rtol=1e-12)

    def test_constructor_validation(self):
        cfg = case_cfg(n=3)
        with pytest.raises(ValueError):
            wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=2)
        with pytest.raises(ValueError):
            wkb.make_libor_kernel(cfg.vs, cfg.delta, -cfg.l0)
        for bad in (np.nan, np.inf):
            anchor = cfg.l0.copy()
            anchor[1] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                wkb.make_libor_kernel(cfg.vs, cfg.delta, anchor)

    def test_single_rate_is_exact_lognormal(self):
        # one rate has constant flat-coordinate drift, so the level-1
        # kernel must reproduce the lognormal transition to roundoff
        vs = lmm.build_vol_structure(np.array([0.2]), np.eye(1))
        delta = np.array([0.5])
        x = np.array([0.035])
        ker = wkb.make_libor_kernel(vs, delta, x, level=1)
        dt = 2.0
        v = np.linspace(0.01, 0.09, 25)[:, None]
        got = log_kernel(ker, proxy.make_proxy(vs, delta, dt, x), v)
        ln = stats.lognorm(s=0.2 * np.sqrt(dt), scale=0.035 * np.exp(-0.5 * 0.04 * dt))
        assert np.max(np.abs(got - ln.logpdf(v[:, 0]))) < 1e-10

    def test_density_integrates_to_one(self):
        # importance-sample the level-1 density with the lognormal proxy
        # over a full one-year single step of the production-size curve
        cfg = lmm.ModelConfig(
            n=19, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035
        )
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=1)
        p = proxy.make_proxy(cfg.vs, cfg.delta, 1.0, cfg.l0)
        rng = np.random.default_rng(42)
        m = 100_000
        zeta = proxy.sample_g(p, rng.standard_normal((m, 19)))
        ratio = np.exp(log_kernel(ker, p, zeta) - proxy.log_density(p, zeta))
        err = abs(ratio.mean() - 1.0)
        assert err < max(0.01, 4 * ratio.std() / np.sqrt(m)), (ratio.mean(), ratio.std())

    def test_log_weight_matches_density_ratio(self):
        # ln w + ln phi against the truncated density written out:
        # the flat Gaussian with phase c_0 + dt c_1~, c_1~ the exact
        # diagonal R_0(x, x) plus the translated quadratic, and the chart
        # Jacobian, so the cancellations inside log_weight_y are exact
        cfg = case_cfg(n=6)
        dt = 0.8
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=1)
        p = proxy.make_proxy(cfg.vs, cfg.delta, dt, cfg.l0)
        rng = np.random.default_rng(3)
        zeta = proxy.sample_g(p, rng.standard_normal((200, 6)))
        x, y = lmm.to_y(cfg.vs, cfg.l0), lmm.to_y(cfg.vs, zeta)
        c1 = wkb.libor_r0(cfg.vs, cfg.delta, x, x) + ker.c1_taylor(y, x)
        phase = wkb.libor_c0(cfg.vs, cfg.delta, x, y) + dt * c1
        flat = -3.0 * np.log(2 * np.pi * dt) - np.sum((y - x) ** 2, axis=-1) / (2 * dt) + phase
        want = flat + log_jacobian(cfg.vs, zeta)
        assert np.max(np.abs(log_kernel(ker, p, zeta) - want)) < 1e-10

    @pytest.mark.parametrize("level", [0, 1])
    def test_log_weight_with_a_start_per_row(self, level):
        # per-row starts: row r is weighted as if its own proxy and kernel
        # were built at its own start.  Level 0 has no surrogate, so that
        # is exact; at level 1 the surrogate of the kernel built at l0
        # differs from each row's own by its small c_1 error only
        cfg = case_cfg(n=6)
        dt = 0.8
        rng = np.random.default_rng(5)
        x = cfg.l0 * np.exp(0.2 * rng.standard_normal((40, 6)))
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=level)
        p = proxy.make_proxy(cfg.vs, cfg.delta, dt, x)
        zeta = proxy.sample_g(p, rng.standard_normal((40, 6)))
        got = log_kernel(ker, p, zeta)
        want = np.array([
            log_kernel(wkb.make_libor_kernel(cfg.vs, cfg.delta, xr, level),
                       proxy.make_proxy(cfg.vs, cfg.delta, dt, xr), zr)
            for xr, zr in zip(x, zeta)
        ])
        assert np.max(np.abs(got - want)) < (1e-12 if level == 0 else 4e-5)

    def test_start_at_the_anchor_changes_nothing(self):
        cfg = case_cfg(n=6)
        ker = wkb.make_libor_kernel(cfg.vs, cfg.delta, cfg.l0, level=1)
        a = lmm.to_y(cfg.vs, cfg.l0)
        y = a + 0.3 * np.random.default_rng(2).standard_normal((50, 6))
        start = np.broadcast_to(a, y.shape)
        assert np.array_equal(ker.c1_taylor(y, start), ker.c1_taylor(y, a))
