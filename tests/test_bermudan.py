import sys
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wkbmc import bermudan as brm
from wkbmc import estimators as est
from wkbmc import lattice, lmm, mc
from wkbmc.payoffs import SwaptionSpec, bond_ratios, report_scale, swaption_payoff


def case_cfg(t1=1.0, strike=0.035, exercise=tuple(range(1, 20, 2)), **kw):
    args = dict(
        n=19, t1=t1, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3,
        strike=strike, exercise_indices=exercise,
    )
    args.update(kw)
    return lmm.ModelConfig(**args)


@lru_cache(maxsize=None)
def case_policy(t1=1.0):
    return brm.calibrate_policy(case_cfg(t1=t1), n_paths=10_000, seed=101)


@lru_cache(maxsize=None)
def case_price(t1=1.0, m=20_000, seed=7):
    return brm.bermudan_price(case_cfg(t1=t1), case_policy(t1), level=1, m=m, seed=seed)


def combined_gate(a, b, rel=0.005):
    return rel * abs(a.value) + 3.0 * np.hypot(a.sd, b.sd)


class TestBlack76:
    def test_zero_vol_is_intrinsic(self):
        assert brm.black76(1.3, 1.0, 0.0) == 1.3 - 1.0
        assert brm.black76(0.8, 1.0, 0.0) == 0.0

    def test_atm_hand_value(self):
        # f = k: value = f (2 Phi(v/2) - 1)
        from scipy.special import ndtr
        v = 0.4
        assert_allclose(brm.black76(1.0, 1.0, v), 2.0 * ndtr(v / 2.0) - 1.0, rtol=1e-14)

    def test_monotone_in_vol_and_above_intrinsic(self):
        vols = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        vals = brm.black76(1.1, 1.0, vols)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals > 0.1)

    def test_vectorised_and_scalar(self):
        out = brm.black76(np.array([1.0, 1.2]), 1.0, np.array([0.2, 0.0]))
        assert out.shape == (2,)
        assert out[1] == 1.2 - 1.0
        assert isinstance(brm.black76(1.0, 1.0, 0.2), float)


def sae_reference(cfg, x, i, j):
    """Still-alive European at T_i for one later date j, leg by leg."""
    tau = cfg.tenor_date(j) - cfg.tenor_date(i)
    d, xs = cfg.delta[j - 1:], x[..., j - 1:]
    u = d * bond_ratios(d, xs)
    if cfg.payoff_style == "per_leg":
        return np.sum(u * brm.black76(xs, cfg.strike, cfg.vol[j - 1:] * np.sqrt(tau)), axis=-1)
    annuity, ux = np.sum(u, axis=-1), u * xs
    floating = np.sum(ux, axis=-1)
    quad = np.einsum("...p,pq,...q->...", ux, cfg.vs.a[j - 1:, j - 1:], ux)
    return annuity * brm.black76(floating / annuity, cfg.strike, np.sqrt(tau * quad) / floating)


class TestStillAliveEuropean:
    def test_at_own_date_equals_intrinsic(self):
        cfg = case_cfg()
        x = np.linspace(0.02, 0.06, 19)[None, :] * np.array([[1.0], [1.3], [0.7]])
        for j in (1, 5, 19):
            spec = SwaptionSpec(strike=cfg.strike, first_leg=j, style=cfg.payoff_style)
            got = brm.still_alive_european(cfg, x, j, j)
            assert np.array_equal(got, swaption_payoff(cfg.delta, x, spec))

    def test_at_own_date_equals_intrinsic_per_leg(self):
        cfg = case_cfg(payoff_style="per_leg")
        x = np.full((2, 19), 0.04)
        spec = SwaptionSpec(strike=cfg.strike, first_leg=3, style="per_leg")
        got = brm.still_alive_european(cfg, x, 3, 3)
        assert np.array_equal(got, swaption_payoff(cfg.delta, x, spec))

    def test_zero_vol_limit_collapses_to_forward_intrinsic(self):
        # with vanishing vol the option value at T_i is the deflated value
        # of the forward-starting swap read off the current curve
        x = np.full((1, 19), 0.042)
        for style in ("on_sum", "per_leg"):
            cfg = case_cfg(vol=1e-9, payoff_style=style)
            spec = SwaptionSpec(strike=cfg.strike, first_leg=9, style=style)
            got = brm.still_alive_european(cfg, x, 1, 9)
            assert_allclose(got, swaption_payoff(cfg.delta, x, spec), rtol=1e-6)

    def test_validates_index_order(self):
        cfg = case_cfg()
        x = np.full((1, 19), 0.035)
        with pytest.raises(ValueError, match="1 <= i <= j"):
            brm.still_alive_european(cfg, x, 0, 3)
        with pytest.raises(ValueError, match="1 <= i <= j"):
            brm.still_alive_european(cfg, x, 5, 3)
        with pytest.raises(ValueError, match="1 <= i <= j"):
            brm.still_alive_european(cfg, x, 5, 20)

    @pytest.mark.parametrize("style", ["on_sum", "per_leg"])
    def test_one_call_matches_per_date_reference(self, style):
        # every later date in one call, against the per-date closed form
        # on the tail legs (explicit quadratic form); the sums run in
        # another order, so agreement is to rounding, not bit for bit
        cfg = case_cfg(payoff_style=style)
        x = 0.035 * np.exp(0.3 * np.random.default_rng(3).standard_normal((2000, 19)))
        for i in (1, 7, 17):
            later = list(range(i + 1, 20))
            got = brm.still_alive_european(cfg, x, i, later)
            assert got.shape == (2000, len(later))
            want = np.stack([sae_reference(cfg, x, i, j) for j in later], axis=-1)
            assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
            assert np.array_equal(got[:, 0], brm.still_alive_european(cfg, x, i, later[0]))

    def test_against_nested_monte_carlo(self):
        # approximation quality drives exercise ranking, so pin it against
        # a brute-force conditional expectation at the first date
        cfg = case_cfg()
        i, j, m = 1, 3, 50_000
        sae = float(brm.still_alive_european(cfg, cfg.l0[None, :], i, j)[0])
        spec = SwaptionSpec(strike=cfg.strike, first_leg=j, style=cfg.payoff_style)
        nested = est.euler_price(
            cfg, cfg.tenor_date(j) - cfg.tenor_date(i),
            lambda v: swaption_payoff(cfg.delta, v, spec),
            m=m, seed=99, dt=cfg.dt_berm,
        ).value
        assert abs(sae / nested - 1.0) < 0.02


def full_width_bond_ratios(delta, x):
    """Bond ratios over every rate, built from a reversed suffix copy."""
    g = 1.0 + delta * x
    suffix = np.cumprod(g[..., ::-1], axis=-1)[..., ::-1]
    out = np.ones_like(g)
    out[..., :-1] = suffix[..., 1:]
    return out


def masked_black76(f, k, v):
    """Black-76 with every entry masked, live or not."""
    from scipy.special import ndtr
    f, k, v = (np.asarray(a, dtype=np.float64) for a in (f, k, v))
    live = (v > 0.0) & (f > 0.0) & (k > 0.0)
    fs, ks, vs = (np.where(live, a, 1.0) for a in (f, k, v))
    d1 = np.log(fs / ks) / vs + 0.5 * vs
    return np.where(live, fs * ndtr(d1) - ks * ndtr(d1 - vs), np.maximum(f - k, 0.0))


def full_width_payoff(cfg, x, i):
    """Intrinsic value at T_i from the bond ratios of all n rates."""
    br, d, lj = full_width_bond_ratios(cfg.delta, x)[..., i - 1:], cfg.delta[i - 1:], x[..., i - 1:]
    if cfg.payoff_style == "per_leg":
        return np.sum(br * d * np.maximum(lj - cfg.strike, 0.0), axis=-1)
    return np.maximum(np.sum(br * d * (lj - cfg.strike), axis=-1), 0.0)


def full_width_europeans(cfg, x, i, js):
    """Still-alive Europeans at T_i with every array over all n rates."""
    js = np.asarray(js)
    tau = cfg.tenor[js - 1] - cfg.tenor[i - 1]
    j0 = js - 1
    u = cfg.delta * full_width_bond_ratios(cfg.delta, x)
    if cfg.payoff_style == "per_leg":
        return np.stack([
            np.sum(u[..., k:] * masked_black76(x[..., k:], cfg.strike, cfg.vol[k:] * np.sqrt(t)),
                   axis=-1)
            for k, t in zip(j0, tau)
        ], axis=-1)
    ux = u * x
    quad = ux * (ux * cfg.vs.a_diag + 2.0 * (ux @ cfg.vs.a_upper.T))
    annuity, floating, quad = (
        np.cumsum(c[..., ::-1], axis=-1)[..., ::-1][..., j0] for c in (u, ux, quad))
    v = np.sqrt(tau * quad) / floating
    return annuity * masked_black76(floating / annuity, cfg.strike, v)


def full_width_trigger(cfg, indices, k, states, floor=None):
    """``_trigger`` over all n rates, bond ratios built twice for the priced rows."""
    i = indices[k]
    intrinsic = full_width_payoff(cfg, states, i)
    later = indices[k + 1:]
    if not later:
        return intrinsic, intrinsic
    rows = slice(None) if floor is None else np.flatnonzero(intrinsic >= floor)
    trig = intrinsic.copy()
    x = states[rows]
    if x.shape[0]:
        trig[rows] -= np.maximum(full_width_europeans(cfg, x, i, later).max(axis=-1), 0.0)
    return intrinsic, trig


class TestLiveBlock:
    """The trigger and the Europeans read L_i .. L_n alone, bit for bit.

    The oracle is the full-width form: bond ratios, quadratic form and
    reversed sums over all n rates, the Black-76 masks always applied.
    """

    @staticmethod
    def states(cfg, k, rows=1500):
        date = cfg.tenor_date(cfg.exercise_indices[k])
        z = np.random.default_rng(k).standard_normal((rows, cfg.n))
        return cfg.l0 * np.exp(np.sqrt(date) * (z @ cfg.vs.gamma.T))

    @pytest.mark.parametrize("style", ["on_sum", "per_leg"])
    @pytest.mark.parametrize("t1", [1.0, 10.0])
    def test_trigger_matches_full_width(self, t1, style):
        cfg = case_cfg(t1=t1, payoff_style=style)
        indices, thresholds = cfg.exercise_indices, case_policy(t1).thresholds
        for k in range(len(indices)):
            x = self.states(cfg, k)
            for floor in (None, thresholds[k]):
                got = brm._trigger(cfg, indices, k, x, floor)
                want = full_width_trigger(cfg, indices, k, x, floor)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, floor)

    @pytest.mark.parametrize("style", ["on_sum", "per_leg"])
    @pytest.mark.parametrize("t1", [1.0, 10.0])
    def test_still_alive_european_matches_full_width(self, t1, style):
        cfg = case_cfg(t1=t1, payoff_style=style)
        indices = cfg.exercise_indices
        for k, i in enumerate(indices):
            x = self.states(cfg, k)
            assert np.array_equal(brm.still_alive_european(cfg, x, i, i),
                                  full_width_payoff(cfg, x, i))
            js = list(indices[k:])  # a j = i inside the sequence too
            assert np.array_equal(brm.still_alive_european(cfg, x, i, js),
                                  full_width_europeans(cfg, x, i, js))


class TestSlicedCrossTerm:
    @pytest.mark.parametrize("style", ["on_sum", "per_leg"])
    @pytest.mark.parametrize("width", [19, 9, 2])
    def test_europeans_match_one_whole_product(self, monkeypatch, width, style):
        # the cross term runs in row slices, two full ones and a one-row
        # tail joined to the second, and gives the bits of one product
        # over every row
        cfg = case_cfg(payoff_style=style)
        i = cfg.n - width + 1
        rows = 2 * (mc.CHUNK * 19 // width) + 1
        assert len(mc.row_slices(rows, width)) == 2
        z = np.random.default_rng(width).standard_normal((rows, width))
        x = cfg.l0[i - 1:] * np.exp(0.3 * (z @ cfg.vs.trailing(i - 1).gamma.T))
        br = bond_ratios(cfg.delta[i - 1:], x)
        js = np.arange(i, cfg.n + 1)
        got = brm._europeans(cfg, i, js, x, br)
        monkeypatch.setattr(mc, "row_slices", lambda n, w: [slice(0, n)])
        assert np.array_equal(got, brm._europeans(cfg, i, js, x, br))


class TestPolicyObject:
    def make(self, **kw):
        args = dict(
            exercise_indices=(1, 3), dates=np.array([1.0, 2.0]),
            thresholds=np.array([0.0, 0.01]),
        )
        args.update(kw)
        return brm.AndersenPolicy(**args)

    def test_valid_roundtrips_fields(self):
        p = self.make(n_paths=77, seed=5)
        assert p.exercise_indices == (1, 3)
        assert p.n_paths == 77

    def test_index_date_count_mismatch(self):
        with pytest.raises(ValueError, match="one date per"):
            self.make(exercise_indices=(1, 3, 5))

    def test_threshold_count_mismatch(self):
        with pytest.raises(ValueError, match="one threshold per"):
            self.make(thresholds=np.array([0.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            self.make(exercise_indices=(), dates=np.array([]), thresholds=np.array([]))

    def test_unsorted_dates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.make(dates=np.array([2.0, 1.0]))

    def test_nonfinite_thresholds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            self.make(thresholds=np.array([0.0, np.inf]))

    def test_save_writes_exact_lines(self, tmp_path):
        pol = case_policy()
        path = tmp_path / "policy.txt"
        brm.save_policy(pol, path)
        lines = path.read_text().splitlines()
        indices = ",".join(str(i) for i in pol.exercise_indices)
        assert lines[1] == f"# paths={pol.n_paths} seed={pol.seed} indices={indices}"
        rows = np.array([[float(v) for v in line.split()] for line in lines[2:]])
        assert np.array_equal(rows[:, 0], pol.dates)
        assert np.array_equal(rows[:, 1], pol.thresholds)


def past_head(seed, rows, n):
    """Batch 0's pseudo-random normals source with its (rows, n) head block drawn.

    The legs it then hands blocks to read the batch's STREAM_CONT cell.
    """
    source = est._Normals(seed, 0)
    source.block(range(rows), n)
    return source


def run_rule(cfg, thresholds, rows):
    """Exercise rule from the first date on a batch of flat curves.

    Row 0 sits far above the 3.5% strike, row 1 far below it.
    """
    pol = brm.AndersenPolicy(
        exercise_indices=cfg.exercise_indices,
        dates=cfg.exercise_dates,
        thresholds=thresholds,
    )
    legs = brm._legs(cfg, pol.exercise_indices, 1)
    (pay,), stop, _, _ = brm._run_policy(cfg, pol, [rows], past_head(0, 2, cfg.n), legs)
    return pay, stop


class TestStoppingTime:
    rows = np.repeat([[0.10], [0.001]], 19, axis=1)

    def test_deep_itm_stops_immediately(self):
        cfg = case_cfg()
        pay, stop = run_rule(cfg, np.zeros(10), self.rows)
        assert stop[0] == 0
        spec = SwaptionSpec(strike=cfg.strike, first_leg=1, style=cfg.payoff_style)
        assert pay[0] == swaption_payoff(cfg.delta, self.rows[0], spec)

    def test_worthless_path_never_stops(self):
        cfg = case_cfg()
        pay, stop = run_rule(cfg, np.full(10, 1e-3), self.rows)
        assert stop[1] == -1
        assert pay[1] == 0.0


#: (thresholds, objectives) of ``case_policy(t1)``.  The fit walks the
#: level-1 one-shot paths of ``bermudan_price`` (STREAM_XI head, then
#: one STREAM_CONT block per gap), so T1 = 10 costs what T1 = 1 does;
#: they were re-pinned when the fit left its log-Euler paths for these.
GOLDEN_POLICY = {
    1.0: (
        [0.009025387761011236, 0.007024268412918311, 0.009423725592993065,
         0.002041634247624005, 0.0008212420463149239, 0.0005876598795743065,
         0.0007687538066545633, 0.00016253067943048077, 6.615048279042099e-05, 0.0],
        [0.05071344433618948, 0.049975721361495126, 0.04771009321185228,
         0.04425348833960166, 0.039601733572356634, 0.034265673739537615,
         0.027722287135839487, 0.020628888411948584, 0.012665278484503214,
         0.004450098598544836],
    ),
    10.0: (
        [0.007015006529860188, 0.01055257686873634, 0.004395883685112373,
         0.0019192355281825724, 0.002455128366004783, 0.0014516969780281191,
         0.0005760843822579026, 5.463245874845479e-05, 0.0002432400323301026, 0.0],
        [0.0994835011557549, 0.09046326425173169, 0.08097765833820424,
         0.07173357122469624, 0.0609751842552796, 0.05091938338425357,
         0.04047898289032201, 0.02905547392299118, 0.017474875226463602,
         0.005902101154137729],
    ),
}


class TestCalibration:
    def test_needs_exercise_dates(self):
        with pytest.raises(ValueError, match="no exercise dates"):
            brm.calibrate_policy(case_cfg(exercise=()), n_paths=10_000, seed=0)

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError, match="at least 10000"):
            brm.calibrate_policy(case_cfg(), n_paths=5000, seed=0)

    def test_deterministic_in_seed(self):
        a = brm.calibrate_policy(case_cfg(), n_paths=10_000, seed=101)
        b = case_policy()
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.objectives, b.objectives)

    def test_objectives_decrease_backward(self):
        # each extra exercise right can only add value, so the backward
        # sweep's objective shrinks toward the last date
        pol = case_policy()
        assert np.all(np.diff(pol.objectives) <= 1e-12)
        assert pol.objectives[0] > pol.objectives[-1]

    def test_records_provenance(self):
        pol = case_policy()
        assert pol.n_paths == 10_000
        assert pol.seed == 101

    @pytest.mark.parametrize("t1", sorted(GOLDEN_POLICY))
    def test_golden_policy_fit(self, t1):
        # the ten-date case study at seed 101 on 10k paths: any change to
        # the calibration paths (stream, head, legs, path weights, batch
        # split) or to the threshold fit moves these far beyond 1e-12
        thresholds, objectives = GOLDEN_POLICY[t1]
        pol = case_policy(t1)
        assert_allclose(pol.thresholds, thresholds, rtol=1e-12, atol=0.0)
        assert_allclose(pol.objectives, objectives, rtol=1e-12, atol=0.0)


def fit_case(seed):
    """Small (trigger, exercised, continued) arrays for the threshold fit.

    Triggers repeat and include zero; a share of rows gains nothing by
    exercising.  Every value is a multiple of 1/8 and every sum is
    exact, so objectives that tie in exact arithmetic tie in floats.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    trig = rng.integers(-4, 5, n) / 8.0
    exercised = rng.integers(0, 8, n) / 8.0
    continued = np.where(rng.random(n) < 0.3, exercised,
                         rng.integers(0, 8, n) / 8.0 + rng.integers(-2, 2) / 8.0)
    return trig, exercised, continued


class TestThresholdFit:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        trig, ex, co = fit_case(seed)
        thr, obj = brm._fit_threshold(trig, ex, co)
        # every distinct trigger, zero, and never exercising
        cands = np.append(np.unique(np.append(trig, 0.0)), np.inf)
        objs = np.array([np.mean(np.where(trig >= h, ex, co)) for h in cands])
        best = objs.max()
        assert obj == best
        assert obj == np.mean(np.where(trig >= thr, ex, co))
        assert obj >= np.mean(co)
        if objs[cands == 0.0][0] == best:
            assert thr == 0.0
        elif objs[-1] == best:
            # never exercise: finite, above every trigger
            assert np.isfinite(thr) and thr > trig.max()
        else:
            assert thr == cands[objs == best].max()

    def test_cases_cover_every_tie_rule(self):
        # the seeds above reach all three branches of the tie rule
        kinds = set()
        for seed in range(40):
            trig, ex, co = fit_case(seed)
            thr, _ = brm._fit_threshold(trig, ex, co)
            kinds.add("zero" if thr == 0.0 else "never" if thr > trig.max() else "trigger")
        assert kinds == {"zero", "never", "trigger"}


class TestOneDateDegeneracy:
    def test_single_date_reduces_to_european(self):
        # the Delta keeps the European one-shot head on pseudo-random
        # normals (est.delta_fd itself reads the shifted lattice): same
        # draws, same weights, every path exercised at once, so the two
        # estimators walk through identical arithmetic
        cfg = case_cfg(exercise=(1,))
        pol = brm.calibrate_policy(cfg, n_paths=10_000, seed=101)
        assert pol.thresholds[0] == 0.0
        b = brm.bermudan_delta_fd(cfg, pol, i=18, h=3.5e-5, level=1, m=20_000, seed=7)
        inp = est.european_inputs(cfg, level=1, m=20_000, seed=7, h=3.5e-5)
        stencil = est._delta_stencil(cfg.l0, 18, 3.5e-5, inp.outer)
        e = est._estimate(stencil, est._one_shot_head(inp.anchored, stencil), 20_000, 7,
                          inp.payoff)
        assert b == e

    def test_single_date_agrees_with_the_lattice_european(self):
        # at one date the price's path is its head: coordinates 0 .. n - 1
        # of the same shifted lattice est.price reads (the shifts' first n
        # entries do not depend on how many coordinates a path has), so the
        # two are equal bit for bit, sd included
        cfg = case_cfg(exercise=(1,))
        pol = brm.calibrate_policy(cfg, n_paths=10_000, seed=101)
        b = brm.bermudan_price(cfg, pol, level=1, m=20_000, seed=7)
        e = est.price(est.european_inputs(cfg, level=1, m=20_000, seed=7))
        assert b == e

    def test_fit_walks_the_level_1_paths(self):
        # the fit draws its paths with the level-1 one-shot head and legs
        # on the same generator cells as the pseudo-random level-1 head of
        # _continued, and values them with the same path weights: at one
        # date its objective is that head's price
        cfg = case_cfg(exercise=(1,))
        pol = brm.calibrate_policy(cfg, n_paths=10_000, seed=101)
        stencil = [(cfg.l0, report_scale(cfg))]
        b = est._estimate(stencil, brm._continued(cfg, pol, 1, stencil), 10_000, 101)
        assert_allclose(report_scale(cfg) * pol.objectives[0], b.value, rtol=1e-12, atol=0.0)


class TestBermudanPricing:
    def test_dominates_european(self):
        b = case_price()
        e = est.price(est.european_inputs(case_cfg(), level=1, m=20_000, seed=7))
        assert b.value >= e.value - 3.0 * np.hypot(b.sd, e.sd)

    def test_agrees_with_euler_reference(self):
        cfg = case_cfg()
        b = case_price()
        e = brm.bermudan_price(cfg, case_policy(), level="euler", m=20_000, seed=3)
        assert abs(b.value - e.value) < combined_gate(b, e)

    def test_agrees_with_euler_reference_t1_2(self):
        cfg = case_cfg(t1=2.0)
        b = case_price(t1=2.0)
        e = brm.bermudan_price(cfg, case_policy(2.0), level="euler", m=20_000, seed=3)
        assert abs(b.value - e.value) < combined_gate(b, e)

    def test_beats_premium_free_policy(self):
        # H == 0 exercises as soon as intrinsic reaches the best remaining
        # European; calibration should not do worse
        cfg = case_cfg()
        flat = brm.AndersenPolicy(
            exercise_indices=cfg.exercise_indices,
            dates=cfg.exercise_dates,
            thresholds=np.zeros(10),
        )
        b0 = brm.bermudan_price(cfg, flat, level=1, m=20_000, seed=7)
        b = case_price()
        assert b.value >= b0.value - 3.0 * np.hypot(b.sd, b0.sd)

    def test_policy_config_mismatch_rejected(self):
        cfg = case_cfg()
        off = brm.AndersenPolicy(
            exercise_indices=cfg.exercise_indices,
            dates=cfg.exercise_dates + 0.25,
            thresholds=np.zeros(10),
        )
        with pytest.raises(ValueError, match="tenor grid"):
            brm.bermudan_price(cfg, off, level=1, m=4096, seed=0)

    def test_exercise_frequencies_are_a_distribution(self):
        cfg = case_cfg()
        freq = brm.exercise_frequencies(cfg, case_policy(), level=1, m=20_000, seed=7)
        assert freq.shape == (11,)
        assert np.all(freq >= 0.0)
        assert_allclose(freq.sum(), 1.0, rtol=1e-12)
        # ATM ten-date case: a healthy share exercises somewhere
        assert freq[-1] < 0.9
        assert freq[:-1].max() > 0.05

    def test_rejects_a_single_sample(self):
        # one path has no spread: refused, not reported with sd = 0
        with pytest.raises(ValueError, match="at least two samples"):
            brm.bermudan_price(case_cfg(), case_policy(), level=1, m=1, seed=7)

    def test_seed_determinism(self):
        a = brm.bermudan_price(case_cfg(), case_policy(), level=1, m=8192, seed=11)
        b = brm.bermudan_price(case_cfg(), case_policy(), level=1, m=8192, seed=11)
        c = brm.bermudan_price(case_cfg(), case_policy(), level=1, m=8192, seed=12)
        assert a == b
        assert a.value != c.value

    def test_slicing_moves_no_row(self, monkeypatch):
        # the one-shot draw, its weights and every gap's proxy leap work
        # row by row, so other slice sizes give the same bits
        runs = []
        for chunk in (mc.CHUNK, 37):
            monkeypatch.setattr(mc, "CHUNK", chunk)
            runs.append(brm.bermudan_price(case_cfg(), case_policy(), level=1, m=2048, seed=7))
        assert runs[0] == runs[1]


def stopped_paths(cfg, policy, m, seed):
    """Stops, path weights and weighted payoffs of the level-1 lattice price's rows."""
    stencil = [(cfg.l0, 1.0)]
    shift = lattice.shifts(seed, lattice.replicates(m),
                           brm._path_coordinates(cfg, policy.exercise_indices))
    head = brm._continued(cfg, policy, 1, stencil, shift=shift)
    runs = [head(seed, bi, hi - lo, None) for bi, lo, hi in mc.batch_slices(m)]
    return (np.concatenate([r[0][0] for r in runs]),
            np.concatenate([r[1][0] for r in runs]),
            np.concatenate([r[2][0] for r in runs]))


class TestLatticePrice:
    def test_reported_sd_is_honest(self):
        # over 32 seeds the spread of the values agrees with the mean
        # reported sd^2: var(values) / mean(sd^2) ~ F(31, 32 * 15) when sd
        # is honest; two-sided at 0.1%, as for the European calls
        from scipy import stats

        cfg, pol = case_cfg(), case_policy()
        runs = [brm.bermudan_price(cfg, pol, level=1, m=8192, seed=seed)
                for seed in range(200, 232)]
        ratio = np.var([r.value for r in runs], ddof=1) / np.mean([r.sd**2 for r in runs])
        lo, hi = stats.f.ppf([0.0005, 0.9995], 31, 32 * 15)
        assert lo < ratio < hi, (ratio, lo, hi)

    @pytest.mark.parametrize("k,factor", [(0, 1.5), (3, 0.5)])
    def test_rows_that_stop_alike_are_priced_alike(self, k, factor):
        # a row's normals are its own coordinates, whichever other rows
        # stopped, and its arithmetic does not depend on where it sits in
        # a slice: under two policies that differ in one threshold, every
        # row stopping on the same date gets the same payoff and path
        # weight, bit for bit
        cfg, pol = case_cfg(), case_policy()
        thresholds = pol.thresholds.copy()
        thresholds[k] *= factor
        other = brm.AndersenPolicy(pol.exercise_indices, pol.dates, thresholds)
        m = mc.BATCH + 2005
        stop_a, w_a, v_a = stopped_paths(cfg, pol, m, seed=7)
        stop_b, w_b, v_b = stopped_paths(cfg, other, m, seed=7)
        same = stop_a == stop_b
        # the rows that stop elsewhere run on through legs whose other rows
        # changed, in both batches
        assert 0 < np.count_nonzero(~same[:mc.BATCH]) and 0 < np.count_nonzero(~same[mc.BATCH:])
        assert np.array_equal(w_a[same], w_b[same])
        assert np.array_equal(v_a[same], v_b[same])


def minor_faults(call):
    """Minor page faults of one ``call()``, after a warm-up call."""
    resource = pytest.importorskip("resource")
    call()  # warm the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
class TestPageFaults:
    def test_continuation_reuses_its_memory(self):
        # (B, 19) float64 temporaries are 2.5 MB each: made fresh on every
        # step they land on new pages, about 340k minor faults per call at
        # M = BATCH.  Cache-sized slices and a reused normals buffer stay
        # on pages the process already holds.
        cfg, pol = case_cfg(), case_policy()
        assert minor_faults(
            lambda: brm.bermudan_price(cfg, pol, level=1, m=mc.BATCH, seed=7)) < 50_000

    def test_delta_reuses_its_memory(self):
        # the bump pair steps two members on one normals buffer
        cfg, pol = case_cfg(), case_policy()
        assert minor_faults(lambda: brm.bermudan_delta_fd(
            cfg, pol, i=18, h=3.5e-5, level=1, m=mc.BATCH, seed=7)) < 50_000


class TestBermudanDelta:
    def test_agrees_with_euler_reference(self):
        cfg = case_cfg()
        d = brm.bermudan_delta_fd(cfg, case_policy(), i=18, h=3.5e-5, level=1,
                                  m=10_000, seed=7)
        de = brm.bermudan_delta_fd(cfg, case_policy(), i=18, h=3.5e-5, level="euler",
                                   m=10_000, seed=3)
        assert abs(d.value - de.value) < combined_gate(d, de)

    def test_ess_pools_both_clouds(self):
        # ESS per row pair is m mean(w)^2 / mean(w^2) over all 2m path
        # weights: each member's head weight times its transition weights
        # up to the row's stop
        cfg = case_cfg()
        m, seed, h, i = 3000, 6, 3.5e-5, 18
        w, _, _ = rebuilt_stops(cfg, case_policy(), 1, est._bumped(cfg.l0, i, h), m, seed)
        w = np.concatenate(w)
        want = m * np.mean(w) ** 2 / np.mean(w * w)
        got = brm.bermudan_delta_fd(cfg, case_policy(), i=i, h=h, level=1, m=m, seed=seed).ess
        assert abs(got / want - 1.0) < 1e-9
        assert got <= m

    def test_shared_stopping_keeps_disagreement_rare(self):
        # the bump pair reuses the up branch's stopping decision; the pairs
        # that would genuinely decide differently at h = 3.5e-5 are a
        # fraction of a percent
        cfg = case_cfg()
        frac = brm.stopping_disagreement(cfg, case_policy(), i=18, h=3.5e-5,
                                         level=1, m=10_000, seed=7)
        assert 0.0 <= frac < 0.02


#: ``exercise_frequencies`` and ``stopping_disagreement`` of the calibrated
#: ten-date policy at level 1, seed 7, M = BATCH + 5 (a full batch and a
#: five-row one).  They pin which rows the continuation moves, where the
#: up branch stops, where the down branch would decide otherwise and the
#: path weights each path counts with.  A gap draws normals for its
#: running rows only, in row order, so a row's draw depends on how many
#: rows before it still run: any change to the running set, to the order
#: the normals are handed out in, to the generator or to the trigger
#: moves them far beyond 1e-12, and a change to a level-1 kernel's
#: Taylor data or to its c_1 on the diagonal moves them past it too (they
#: were re-pinned when that diagonal became the closed form at each
#: row's start, and again with the policy when the fit moved to the
#: level-1 one-shot paths).
GOLDEN_FREQUENCIES = [
    0.07855126255083786, 0.09578547764870377, 0.05692315783643407,
    0.0935338708456298, 0.06254818450294285, 0.052983422066636476,
    0.04484653806251585, 0.04912681798359269, 0.04688671313460342,
    0.41881455536810325, 0.0,
]
GOLDEN_DISAGREEMENT = 0.00012168194464620779


class TestGoldenContinuation:
    m = mc.BATCH + 5

    def test_exercise_frequencies(self):
        freq = brm.exercise_frequencies(case_cfg(), case_policy(), level=1, m=self.m, seed=7)
        assert_allclose(freq, GOLDEN_FREQUENCIES, rtol=1e-12, atol=0.0)

    def test_stopping_disagreement(self):
        frac = brm.stopping_disagreement(case_cfg(), case_policy(), i=18, h=3.5e-5,
                                         level=1, m=self.m, seed=7)
        assert_allclose(frac, GOLDEN_DISAGREEMENT, rtol=1e-12, atol=0.0)


def every_row_reference(cfg, policy, m, seed):
    """Euler Bermudan price that steps every row at every step, stopped or not.

    Each row's increments come from a generator of the test's own and do
    not depend on which rows still run: the law the running-rows tableau
    must keep.  Returns (value, standard error).
    """
    rng = np.random.default_rng(seed)
    k = np.log(np.broadcast_to(cfg.l0, (m, cfg.n)))
    pay = np.zeros(m)
    alive = np.ones(m, dtype=bool)
    t = 0.0
    for kd, date in enumerate(policy.dates):
        for _ in range(int(round((date - t) / cfg.dt_berm))):
            shock = np.sqrt(cfg.dt_berm) * (rng.standard_normal(k.shape) @ cfg.vs.gamma.T)
            k = lmm.log_euler_step(cfg.vs, cfg.delta, k, cfg.dt_berm, shock)
        t = date
        intrinsic, trig = brm._trigger(cfg, policy.exercise_indices, kd, np.exp(k))
        fire = alive & (trig >= policy.thresholds[kd])
        pay[fire] = intrinsic[fire]
        alive &= ~fire
    vals = pay * report_scale(cfg)
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(m))


class TestRunningRowsTableau:
    def test_stopped_rows_draw_nothing(self):
        # the gap into date k, at tenor index i, draws one normal per live
        # rate L_i .. L_n for each row that had not stopped before k, and
        # nothing for the others: once per gap after a one-shot head, once
        # per dt_berm step on log-Euler
        cfg, pol = case_cfg(), case_policy()
        m, seed = 3000, 7
        z = mc.rng_for(seed, 0, mc.STREAM_XI).standard_normal((m, cfg.n))
        states = est.anchored_libor_pair(cfg, cfg.t1, 1, cfg.l0).draw(z)
        steps = np.round(np.diff(pol.dates) / cfg.dt_berm).astype(np.int64)
        width = cfg.n - np.array(pol.exercise_indices[1:]) + 1
        for level in ("lgn", 0, 1, "euler"):
            # the log-Euler legs read the generator they are handed, the
            # proxy legs the STREAM_CONT blocks of a one-shot head's source
            euler = level == "euler"
            source = mc.rng_for(seed, 0, mc.STREAM_CONT) if euler else past_head(seed, m, cfg.n)
            legs = brm._legs(cfg, pol.exercise_indices, level)
            _, stop, _, _ = brm._run_policy(cfg, pol, [states], source, legs)
            blocks = steps if euler else np.ones_like(steps)
            running = np.array([np.count_nonzero((stop < 0) | (stop >= k))
                                for k in range(1, len(pol.dates))])
            drawn = int((blocks * width) @ running)
            assert 0 < drawn < m * int(blocks @ width)
            fresh = mc.rng_for(seed, 0, mc.STREAM_CONT)
            fresh.standard_normal(drawn)
            after = source.standard_normal(8) if euler else source.block(range(8), 1).ravel()
            assert np.array_equal(after, fresh.standard_normal(8))

    def test_law_matches_every_row_reference(self):
        cfg, pol = case_cfg(), case_policy()
        got = brm.bermudan_price(cfg, pol, level="euler", m=20_000, seed=5)
        value, sd = every_row_reference(cfg, pol, m=20_000, seed=5)
        assert abs(got.value - value) < 4.0 * np.hypot(got.sd, sd)


class TestLegs:
    def test_off_grid_gap_is_refused_before_any_batch(self, monkeypatch):
        # at dt_berm = 0.3 the head's 0.9 years are three steps, but the
        # gap to the second date is 1.0 / 0.3 steps: the log-Euler legs
        # refuse it when they are built, before a batch draws a single
        # path.  The fit steps on no grid, so it fits there all the same
        cfg = case_cfg(t1=0.9, dt_berm=0.3)
        assert np.all(np.isfinite(brm.calibrate_policy(cfg, n_paths=10_000, seed=101).thresholds))
        flat = brm.AndersenPolicy(cfg.exercise_indices, cfg.exercise_dates, np.zeros(10))
        entered = []
        map_batches = mc.map_batches

        def spy(fn, m):
            def batch(*args):
                entered.append(args)
                return fn(*args)

            return map_batches(batch, m)

        monkeypatch.setattr(mc, "map_batches", spy)
        with pytest.raises(ValueError, match="gap to exercise date"):
            brm.bermudan_price(cfg, flat, level="euler", m=2048, seed=7)
        assert entered == []

    @pytest.mark.parametrize("level", [1, "euler"])
    def test_run_policy_leaves_the_callers_group(self, level):
        cfg, pol = case_cfg(), case_policy()
        z = mc.rng_for(7, 0, mc.STREAM_XI).standard_normal((2048, cfg.n))
        zetas = [est.anchored_libor_pair(cfg, cfg.t1, 1, x).draw(z)
                 for x in est._bumped(cfg.l0, 18, 3e-4)]
        copies = [g.copy() for g in zetas]
        group = list(zetas)
        source = mc.rng_for(7, 0, mc.STREAM_CONT) if level == "euler" else past_head(7, 2048, cfg.n)
        brm._run_policy(cfg, pol, group, source, brm._legs(cfg, pol.exercise_indices, level))
        assert len(group) == 2 and all(g is zeta for g, zeta in zip(group, zetas))
        assert all(np.array_equal(g, c) for g, c in zip(group, copies))


def rebuilt_stops(cfg, policy, level, anchors, m, seed):
    """Members' path weights, stops and disagreement flags of one batch, from the tableau.

    A path weight is the head's importance weight times the exponential
    of the summed transition log weights up to the row's stop.
    """
    source = est._Normals(seed, 0)
    z = source.block(range(m), cfg.n)
    pairs = [est.anchored_libor_pair(cfg, cfg.t1, level, x) for x in anchors]
    zetas = [pair.draw(z) for pair in pairs]
    heads = [np.exp(pair.log_weight(zeta)) for pair, zeta in zip(pairs, zetas)]
    legs = brm._legs(cfg, policy.exercise_indices, level)
    _, stop, differ, log_w = brm._run_policy(cfg, policy, zetas, source, legs, audit=True)
    return [h * np.exp(lw) for h, lw in zip(heads, log_w)], stop, differ


class TestWeightedDiagnostics:
    m, seed, i, h = 2048, 7, 18, 3e-4

    def rebuilt(self, level):
        cfg = case_cfg()
        pol = case_policy()
        freq = brm.exercise_frequencies(cfg, pol, level=level, m=self.m, seed=self.seed)
        frac = brm.stopping_disagreement(cfg, pol, i=self.i, h=self.h, level=level,
                                         m=self.m, seed=self.seed)
        (w,), stop, _ = rebuilt_stops(cfg, pol, level, [cfg.l0], self.m, self.seed)
        bucket = np.where(stop < 0, len(pol.dates), stop)
        (w_up, _), _, differ = rebuilt_stops(
            cfg, pol, level, est._bumped(cfg.l0, self.i, self.h), self.m, self.seed)
        return freq, frac, (w, bucket), (w_up, differ)

    def test_proxy_level_weights_only_the_continuation(self):
        # the "lgn" head weighs one, but its gaps are crossed at level 1,
        # so a path weighs the product of its transition weights up to its
        # stop (one for a path stopped at T1); summed in the diagnostics'
        # own order, the shares agree to the last bit
        cfg = case_cfg()
        z = mc.rng_for(self.seed, 0, mc.STREAM_XI).standard_normal((self.m, cfg.n))
        pair = est.anchored_libor_pair(cfg, cfg.t1, "lgn", cfg.l0)
        assert np.all(np.exp(pair.log_weight(pair.draw(z))) == 1.0)
        freq, frac, (w, bucket), (w_up, differ) = self.rebuilt("lgn")
        moved = bucket > 0
        assert 0 < moved.sum() < self.m
        assert np.all(w[~moved] == 1.0) and np.all(w[moved] != 1.0)
        hist = np.bincount(bucket, weights=w, minlength=freq.shape[0])
        assert_allclose(freq, hist / hist.sum(), rtol=1e-15, atol=0.0)
        assert_allclose(frac, float(np.sum(w_up[differ])) / float(np.sum(w_up)),
                        rtol=1e-15, atol=0.0)
        assert frac > 0.0

    def test_level1_weights_each_path(self):
        freq, frac, (w, bucket), (w_up, differ) = self.rebuilt(1)
        want = np.bincount(bucket, weights=w, minlength=freq.shape[0]) / np.sum(w)
        assert_allclose(freq, want, rtol=1e-12, atol=1e-15)
        assert_allclose(frac, np.sum(w_up[differ]) / np.sum(w_up), rtol=1e-12)
        assert frac > 0.0
        # the weights do move the shares off the plain counts
        assert np.max(np.abs(freq - np.bincount(bucket, minlength=freq.shape[0]) / self.m)) > 0.0

    def test_euler_level_frequencies(self):
        # Euler paths carry no importance weight: each counts once
        freq = brm.exercise_frequencies(case_cfg(), case_policy(), level="euler",
                                        m=self.m, seed=self.seed)
        assert np.all(freq >= 0.0)
        assert_allclose(freq.sum(), 1.0, rtol=1e-12)
        counts = freq * self.m
        assert np.array_equal(counts, np.round(counts))

    def test_euler_level_disagreement(self):
        frac = brm.stopping_disagreement(case_cfg(), case_policy(), i=self.i, h=3.5e-5,
                                         level="euler", m=self.m, seed=self.seed)
        assert 0.0 <= frac < 0.02


def every_row_disagreement(cfg, policy, anchors, m, seed):
    """Share of Euler bump pairs whose own stopping times differ.

    Every row of both branches is stepped at every step, stopped or not,
    on increments from a generator of the test's own that do not depend
    on which rows still run; each branch stops by its own trigger over
    the full path.  Returns (share, binomial standard error).
    """
    rng = np.random.default_rng(seed)
    ks = [np.log(np.broadcast_to(a, (m, cfg.n))) for a in anchors]
    stops = np.full((len(ks), m), -1)
    t = 0.0
    for kd, date in enumerate(policy.dates):
        for _ in range(int(round((date - t) / cfg.dt_berm))):
            shock = np.sqrt(cfg.dt_berm) * (rng.standard_normal((m, cfg.n)) @ cfg.vs.gamma.T)
            ks = [lmm.log_euler_step(cfg.vs, cfg.delta, k, cfg.dt_berm, shock) for k in ks]
        t = date
        for stop, k in zip(stops, ks):
            _, trig = brm._trigger(cfg, policy.exercise_indices, kd, np.exp(k))
            stop[(stop < 0) & (trig >= policy.thresholds[kd])] = kd
    share = float(np.mean(stops[0] != stops[1]))
    return share, np.sqrt(share * (1.0 - share) / m)


class TestStopAudit:
    def test_audit_rides_the_plain_paths(self):
        # the audit only flags rows: it steps the rows the up branch keeps,
        # so it draws the plain run's continuation normals, row for row,
        # and returns its stops and payoffs
        cfg, pol = case_cfg(), case_policy()
        m, seed, i, h = 2048, 7, 18, 3e-4
        z = mc.rng_for(seed, 0, mc.STREAM_XI).standard_normal((m, cfg.n))
        zetas = [est.anchored_libor_pair(cfg, cfg.t1, 1, x).draw(z)
                 for x in est._bumped(cfg.l0, i, h)]
        legs = brm._legs(cfg, pol.exercise_indices, 1)
        runs = []
        for audit in (False, True):
            source = past_head(seed, m, cfg.n)
            pays, stop, differ, log_w = brm._run_policy(cfg, pol, list(zetas), source, legs,
                                                        audit=audit)
            runs.append((pays, stop, differ, log_w, source.block(range(8), 1)))
        (pays, stop, differ, log_w, after), (pays_a, stop_a, differ_a, log_w_a, after_a) = runs
        assert differ is None
        assert differ_a.dtype == bool and differ_a.any()
        assert np.array_equal(stop_a, stop)
        assert all(np.array_equal(a, b) for a, b in zip(pays_a, pays))
        assert all(np.array_equal(a, b) for a, b in zip(log_w_a, log_w))
        assert np.array_equal(after_a, after)

    def test_euler_law_matches_every_row_reference(self):
        cfg, pol = case_cfg(), case_policy()
        m, i, h = 20_000, 18, 1e-3
        got = brm.stopping_disagreement(cfg, pol, i=i, h=h, level="euler", m=m, seed=5)
        share, se = every_row_disagreement(cfg, pol, est._bumped(cfg.l0, i, h), m, seed=5)
        assert share > 0.0
        assert abs(got - share) < 4.0 * np.hypot(se, np.sqrt(got * (1.0 - got) / m))


TRIGGER = brm._trigger


def unpruned_trigger(cfg, indices, k, states, floor=None):
    """``_trigger`` with the floor dropped: every row gets its Europeans."""
    return TRIGGER(cfg, indices, k, states)


class TestPrunedTrigger:
    def test_rows_below_the_floor_only_lose_their_europeans(self):
        cfg, pol = case_cfg(), case_policy()
        states = est.anchored_libor_pair(cfg, cfg.t1, 1, cfg.l0).draw(
            mc.rng_for(7, 0, mc.STREAM_XI).standard_normal((3000, cfg.n)))
        floor = pol.thresholds[0]
        intrinsic, full = brm._trigger(cfg, pol.exercise_indices, 0, states)
        _, pruned = brm._trigger(cfg, pol.exercise_indices, 0, states, floor)
        cand = intrinsic >= floor
        assert 0 < cand.sum() < cand.size
        assert np.array_equal(pruned[cand], full[cand])
        assert np.array_equal(pruned[~cand], intrinsic[~cand])
        assert np.array_equal(pruned >= floor, full >= floor)

    @pytest.mark.parametrize("h", [3e-4, 3.5e-5])
    def test_pruning_moves_no_decision(self, monkeypatch, h):
        # a row whose intrinsic is below H_k cannot fire, so pricing the
        # Europeans on the other rows only leaves every stop, payoff and
        # audit flag as it was, bit for bit
        cfg, pol = case_cfg(), case_policy()
        m, seed, i = 4096, 7, 18
        z = mc.rng_for(seed, 0, mc.STREAM_XI).standard_normal((m, cfg.n))
        zetas = [est.anchored_libor_pair(cfg, cfg.t1, 1, x).draw(z)
                 for x in est._bumped(cfg.l0, i, h)]
        priced = []
        europeans = brm._europeans

        def counted(cfg, i, js, x, br):
            priced[-1] += x.shape[0]
            return europeans(cfg, i, js, x, br)

        monkeypatch.setattr(brm, "_europeans", counted)
        legs = brm._legs(cfg, pol.exercise_indices, 1)
        runs = []
        for trigger in (TRIGGER, unpruned_trigger):
            monkeypatch.setattr(brm, "_trigger", trigger)
            priced.append(0)
            source = past_head(seed, m, cfg.n)
            runs.append((*brm._run_policy(cfg, pol, list(zetas), source, legs, audit=True),
                         source.block(range(8), 1)))
        (pays, stop, differ, log_w, after), (pays_u, stop_u, differ_u, log_w_u, after_u) = runs
        assert np.array_equal(stop, stop_u)
        assert all(np.array_equal(a, b) for a, b in zip(pays, pays_u))
        assert all(np.array_equal(a, b) for a, b in zip(log_w, log_w_u))
        assert np.array_equal(differ, differ_u) and differ.any()
        assert np.array_equal(after, after_u)
        assert 0 < priced[0] < priced[1]


class TestTableauFence:
    def test_every_draw_covers_the_live_rates(self, monkeypatch):
        # the random tableau: every head draw of the pseudo-random Bermudan
        # calls is a (rows, n) block.  On the gap to tenor index i the
        # continuation draws one normal per live rate L_i .. L_n of each
        # running row, in date order: one (rows, n - i + 1) block per gap
        # after a one-shot head (the Delta, and the fit, which walks the
        # level-1 paths), one per dt_berm step on log-Euler
        # (level="euler").  The one-shot prices ("lgn", 0, 1) read the
        # lattice: their generators draw shifts and no normal at all
        cfg = case_cfg()
        indices = cfg.exercise_indices
        gaps = np.round(np.diff(cfg.tenor[np.array(indices) - 1]) / cfg.dt_berm).astype(int)
        per_gap = [cfg.n - i + 1 for i in indices[1:]]
        per_step = [w for w, steps in zip(per_gap, gaps) for _ in range(steps)]
        heads = {mc.STREAM_XI: [cfg.n], mc.STREAM_CONT: [],
                 mc.STREAM_EULER: [cfg.n] * round(cfg.t1 / cfg.dt_berm)}
        walks = {mc.STREAM_XI: [], mc.STREAM_CONT: per_gap, mc.STREAM_EULER: per_step}
        generators = []
        rng_for = mc.rng_for

        class Recording:
            def __init__(self, seed, bi, stream):
                self._gen = rng_for(seed, bi, stream)
                self.seed, self.stream, self.shapes = seed, stream, []
                generators.append(self)

            def standard_normal(self, size=None, *args, **kwargs):
                self.shapes.append(size)
                return self._gen.standard_normal(size, *args, **kwargs)

            def integers(self, *args, **kwargs):
                return self._gen.integers(*args, **kwargs)

        monkeypatch.setattr(mc, "rng_for", Recording)
        pol = brm.calibrate_policy(cfg, n_paths=brm._MIN_CALIBRATION_PATHS, seed=3)
        for level in ("lgn", 0, 1, "euler"):
            brm.bermudan_price(cfg, pol, level=level, m=2048, seed=7)
        brm.bermudan_delta_fd(cfg, pol, i=18, h=3.5e-5, level=1, m=2048, seed=7)
        shift = [g for g in generators if g.stream == mc.STREAM_SHIFT]
        assert len(shift) == 3 * lattice.replicates(2048) and not any(g.shapes for g in shift)
        generators = [g for g in generators if g.stream != mc.STREAM_SHIFT]
        assert sum(len(g.shapes) for g in generators) > len(per_step) + 2 * len(per_gap)
        for g in generators:
            assert all(isinstance(s, tuple) and len(s) == 2 and s[0] > 0 for s in g.shapes)
            head = heads[g.stream]
            widths = [s[1] for s in g.shapes]
            assert widths[:len(head)] == head
            cont = widths[len(head):]
            # a batch whose rows all stop early ends its walk early
            assert cont == walks[g.stream][:len(cont)]
            rows = [s[0] for s in g.shapes[len(head):]]
            assert all(a >= b for a, b in zip(rows, rows[1:]))
        # only the Euler oracle walks every gap step by step; the one-shot
        # runs cross every gap in one block each
        euler = [g for g in generators if g.stream == mc.STREAM_EULER]
        assert len(euler) == 1
        assert len(euler[0].shapes) == len(heads[mc.STREAM_EULER]) + len(per_step)
        cont = [g for g in generators if g.stream == mc.STREAM_CONT]
        assert len(cont) == 2
        assert all(len(g.shapes) == len(per_gap) for g in cont)
        # the fit (seed 3, one batch) is a level-1 walk that stops no row:
        # one STREAM_XI block, then one full-row STREAM_CONT block per gap
        fit = {g.stream: g.shapes for g in generators if g.seed == 3}
        rows = brm._MIN_CALIBRATION_PATHS
        assert fit == {mc.STREAM_XI: [(rows, cfg.n)],
                       mc.STREAM_CONT: [(rows, w) for w in per_gap]}
