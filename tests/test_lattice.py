"""The shifted lattice behind the one-shot European calls, and its error bar."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from wkbmc import estimators as est
from wkbmc import lattice, lmm, mc

ROOT = Path(__file__).resolve().parents[1]


def case_cfg(t1=1.0, n=19):
    return lmm.ModelConfig(n=n, t1=t1, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3,
                           strike=0.035)


def load_cbc():
    spec = importlib.util.spec_from_file_location("cbc", ROOT / "tools" / "cbc.py")
    cbc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cbc)
    return cbc


class TestInverseNormal:
    def test_as241_matches_scipy(self):
        rng = np.random.default_rng(3)
        p = np.concatenate([
            rng.uniform(size=200_000),
            10.0 ** -np.arange(1, 300),
            1.0 - 10.0 ** -np.arange(1, 16),
            [0.075, 0.925, np.nextafter(0.075, 1.0), np.exp(-25.0)],  # region edges
        ])
        want = special.ndtri(p)
        err = np.abs(lattice.ndtri(p) - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) <= 1e-14

    def test_table_matches_scipy(self):
        u = (np.arange(1 << lattice.BITS) + 0.5) / (1 << lattice.BITS)
        want = special.ndtri(1.0 - np.abs(2.0 * u - 1.0))
        assert np.max(np.abs(lattice.normal_table() - want)) <= 1e-14

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, np.nan])
    def test_refuses_outside_the_open_interval(self, p):
        with pytest.raises(ValueError, match="strictly inside"):
            lattice.ndtri([0.5, p])


class TestTable:
    def test_mean_is_exactly_zero_and_variance_at_the_stated_bound(self):
        # each half is odd about its middle, the upper half mirrors the
        # lower: the mean is 0 exactly and the variance 1 - 2.0e-5
        t = lattice.normal_table()
        half = t.shape[0] // 2
        assert np.array_equal(t[:half], -t[:half][::-1])
        assert np.array_equal(t[half:], t[:half][::-1])
        assert np.sum(t) == 0.0
        var = np.mean(t * t)
        assert 1.0 - 2.1e-5 < var < 1.0 - 2.0e-5

    def test_built_once_and_read_only(self):
        assert lattice.normal_table() is lattice.normal_table()
        assert not lattice.normal_table().flags.writeable


class TestGeneratingVector:
    def test_committed_vector_is_the_cbc_search(self):
        assert tuple(load_cbc().fast_cbc()) == lattice.GENERATING_VECTOR

    def test_odd_and_on_the_grid(self):
        z = np.array(lattice.GENERATING_VECTOR)
        assert z.shape == (lattice.MAX_DIM,)
        assert np.all(z % 2 == 1) and np.all(z < 1 << lattice.BITS)
        assert len(set(z.tolist())) == z.size

    def test_more_rates_than_the_vector_covers_are_refused(self):
        n = lattice.MAX_DIM + 1
        inp = est.european_inputs(case_cfg(n=n), 1, m=64, seed=0)
        with pytest.raises(ValueError, match=f"at most {lattice.MAX_DIM} coordinates"):
            est.price(inp)

    def test_every_covered_rate_count_prices(self):
        for n in (2, lattice.MAX_DIM):
            r = est.price(est.european_inputs(case_cfg(n=n), 1, m=64, seed=0))
            assert np.isfinite(r.value) and r.sd > 0.0


class TestPoints:
    @pytest.mark.parametrize("r", [16, 48])
    def test_rows_read_their_own_points(self, r):
        # row g is point g div R of replicate g mod R, whatever slice or
        # batch it falls in, R dividing the batch or not
        shift = lattice.shifts(5, r, 19)
        lo, rows = 3 * mc.BATCH - 7, 2 * mc.CHUNK + 11
        got = lattice.normals(shift, lo, rows)
        g = np.arange(lo, lo + rows)
        rev = np.array([int(format(k, f"0{lattice.BITS}b")[::-1], 2) for k in g // r])
        z = np.array(lattice.GENERATING_VECTOR[18::-1], dtype=np.int64)
        cell = (rev[:, None] * z + shift[g % r].astype(np.int64)) % (1 << lattice.BITS)
        assert np.array_equal(got, lattice.normal_table()[cell])

    def test_first_points_of_a_replicate_are_the_embedded_lattices(self):
        # the first 2**k points of a replicate, unshifted, are the 2**k-point
        # rank-1 lattice: its cells are j z 2**(BITS-k) mod 2**BITS
        shift = np.zeros((1, 19), dtype=np.uint32)
        table = lattice.normal_table()
        for k in (4, 9):
            got = lattice.normals(shift, 0, 1 << k)
            z = np.array(lattice.GENERATING_VECTOR[18::-1], dtype=np.int64)
            j = np.arange(1 << k)[:, None]
            want = table[(j * z % (1 << k)) << (lattice.BITS - k)]
            assert np.array_equal(np.sort(got, axis=0), np.sort(want, axis=0))

    def test_shift_cells_are_keyed_by_seed_and_replicate(self):
        a = lattice.shifts(7, 16, 19)
        assert np.array_equal(a[:4], lattice.shifts(7, 4, 19))
        assert not np.array_equal(a, lattice.shifts(8, 16, 19))
        assert len({row.tobytes() for row in a}) == 16

    @pytest.mark.parametrize("m", [2, 1 << 21, (1 << 21) + 1, 5 * (1 << 21) + 3, 10**9])
    def test_no_point_is_read_twice(self, m):
        # row g reads point g div R: every index stays below 2**BITS, so
        # no (replicate, point) pair repeats
        r = lattice.replicates(m)
        assert r % 16 == 0
        assert (m - 1) // r < 1 << lattice.BITS
        assert r == 16 or (m - 1) // (r - 16) >= 1 << lattice.BITS


def rows_head(seed, bi, rows, payoff):
    # the values are the global row numbers
    lo = bi * mc.BATCH
    return None, None, [np.arange(lo, lo + rows, dtype=np.float64)], None


class TestReduction:
    @pytest.mark.parametrize("m", [2, 5, 16, 17, mc.BATCH + 5])
    def test_sd_is_the_spread_of_replicate_means(self, m):
        r = est._estimate([(np.ones(1), 1.0)], rows_head, m, seed=0, replicates=16)
        g = np.arange(m, dtype=np.float64)
        means = [g[k::16].mean() for k in range(min(m, 16))]
        assert r.value == pytest.approx(g.mean(), rel=1e-15)
        assert_allclose(r.sd, np.std(means, ddof=1) / np.sqrt(len(means)), rtol=1e-12)

    def test_constant_values_have_zero_sd(self):
        def head(seed, bi, rows, payoff):
            return None, None, [np.full(rows, 0.1)], None

        for m in (3, 37, mc.BATCH + 5):
            r = est._estimate([(np.ones(1), 1.0)], head, m, seed=0, replicates=16)
            assert r.value == 0.1 and r.sd == 0.0

    @pytest.mark.parametrize("m", [2, 5])
    def test_fewer_rows_than_replicates_price(self, m):
        r = est.price(est.european_inputs(case_cfg(), 1, m=m, seed=3))
        assert r.m == m and np.isfinite(r.value) and np.isfinite(r.sd) and r.sd > 0.0
        assert r.ess <= m


@pytest.mark.parametrize("kind", ["price", "delta", "gamma"])
def test_reported_sd_is_honest(kind):
    # over 32 seeds the spread of the values agrees with the mean reported
    # sd^2: var(values) / mean(sd^2) ~ F(31, 32 * 15) when sd is honest;
    # two-sided at 0.1%.  Gamma is the diagonal one, on the bump the
    # lattice demo uses.
    cfg = case_cfg()
    values, sd2 = [], []
    for seed in range(100, 132):
        inp = est.european_inputs(cfg, 1, m=8192, seed=seed,
                                  h=1e-3 if kind == "gamma" else 3.5e-5)
        r = {"price": lambda: est.price(inp), "delta": lambda: est.delta_fd(inp, 18),
             "gamma": lambda: est.gamma_fd(inp, 18, 18)}[kind]()
        values.append(r.value)
        sd2.append(r.sd**2)
    ratio = np.var(values, ddof=1) / np.mean(sd2)
    lo, hi = stats.f.ppf([0.0005, 0.9995], 31, 32 * 15)
    assert lo < ratio < hi, (ratio, lo, hi)
