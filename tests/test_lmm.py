import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wkbmc import lmm, mc


def case_cfg(n=5, t1=1.0, **kw):
    return lmm.ModelConfig(
        n=n, t1=t1, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035, **kw
    )


class TestCorrelation:
    def test_endpoints_and_diagonal(self):
        c = lmm.correlation_matrix(7, 0.3)
        assert_allclose(np.diag(c), 1.0)
        assert_allclose(c[0, -1], 0.3)
        assert_allclose(c, c.T)

    def test_positive_definite(self):
        c = lmm.correlation_matrix(19, 0.3)
        assert np.linalg.eigvalsh(c).min() > 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_degenerate_rho(self, bad):
        with pytest.raises(ValueError):
            lmm.correlation_matrix(5, bad)

    def test_rejects_single_rate(self):
        with pytest.raises(ValueError):
            lmm.correlation_matrix(1, 0.3)


class TestVolStructure:
    def test_factorisation(self):
        vs = lmm.build_vol_structure(np.full(8, 0.2), lmm.correlation_matrix(8, 0.3))
        assert_allclose(vs.gamma @ vs.gamma.T, vs.a, atol=1e-14)
        assert_allclose(vs.gamma, np.triu(vs.gamma))
        assert_allclose(vs.gamma_inv @ vs.gamma, np.eye(8), atol=1e-12)

    def test_last_rate_single_factor(self):
        vs = lmm.build_vol_structure(np.full(6, 0.2), lmm.correlation_matrix(6, 0.3))
        assert_allclose(vs.gamma[-1, :-1], 0.0)
        assert vs.gamma[-1, -1] > 0.0

    def test_y_drift_definition(self):
        vs = case_cfg().vs
        assert_allclose(vs.gamma @ vs.y_drift, -0.5 * vs.a_diag, atol=1e-15)

    def test_rejects_nonpositive_vol(self):
        with pytest.raises(ValueError):
            lmm.build_vol_structure(np.array([0.2, 0.0]), np.eye(2))


class TestDrift:
    def test_terminal_rate_driftless(self):
        cfg = case_cfg(n=6)
        L = np.random.default_rng(0).uniform(0.01, 0.08, size=(40, 6))
        mu = lmm.drift_mu(cfg.vs, cfg.delta, L)
        assert_allclose(mu[:, -1], 0.0)
        assert np.all(mu <= 1e-15)

    def test_two_rate_hand_value(self):
        cfg = case_cfg(n=2)
        L = np.array([0.03, 0.05])
        mu = lmm.drift_mu(cfg.vs, cfg.delta, L)
        q2 = 0.5 * 0.05 / (1.0 + 0.5 * 0.05)
        assert_allclose(mu[0], -cfg.vs.a[0, 1] * q2, rtol=1e-14)

    def test_y_coordinate_drift_consistency(self):
        cfg = case_cfg(n=5)
        rng = np.random.default_rng(1)
        L = rng.uniform(0.01, 0.08, size=(30, 5))
        y = lmm.to_y(cfg.vs, L)
        muy = lmm.drift_mu_y(cfg.vs, cfg.delta, y)
        assert_allclose(
            (muy - cfg.vs.y_drift) @ cfg.vs.gamma.T,
            lmm.drift_mu(cfg.vs, cfg.delta, L),
            atol=1e-14,
        )


class TestLogEuler:
    def test_terminal_rate_martingale(self):
        # the deflated measure makes the last rate driftless; a coarse
        # grid must still average back to the initial value
        cfg = case_cfg(n=5, t1=2.0)
        rng = np.random.default_rng(7)
        m = 40_000
        (final,) = lmm.evolve_log_euler(
            cfg, [np.broadcast_to(cfg.l0, (m, 5))], n_steps=20, dt=0.1, rng=rng
        )
        last = final[:, -1]
        err = abs(last.mean() - cfg.l0[-1])
        assert err < 3.0 * last.std() / np.sqrt(m)

    def test_common_increments_group(self):
        cfg = case_cfg()
        rng = np.random.default_rng(3)
        x = np.broadcast_to(cfg.l0, (100, cfg.n))
        a, b = lmm.evolve_log_euler(cfg, [x, x], n_steps=10, dt=0.1, rng=rng)
        assert_allclose(a, b)

    def test_one_block_per_step_whatever_the_group(self):
        # the random tableau: a step draws one (B, n) block, so a lone
        # member and a bump pair leave equal generators at the same draw
        cfg = case_cfg()
        x = np.broadcast_to(cfg.l0, (7, cfg.n))
        lone, pair = np.random.default_rng(5), np.random.default_rng(5)
        (a,) = lmm.evolve_log_euler(cfg, [x], n_steps=4, dt=0.1, rng=lone)
        b, _ = lmm.evolve_log_euler(cfg, [x, 1.01 * x], n_steps=4, dt=0.1, rng=pair)
        assert np.array_equal(a, b)
        assert lone.standard_normal() == pair.standard_normal()

    @pytest.mark.parametrize("rows", [mc.CHUNK + 1, 2 * mc.CHUNK + 1])
    def test_no_lone_row_leaves_the_block_product(self, rows):
        # a one-row slice would go through BLAS's matrix-vector product,
        # whose sums can differ in the last bit from the matrix-matrix
        # product that the rows of a block get
        cfg = case_cfg(n=19)
        x = np.random.default_rng(2).uniform(0.02, 0.05, size=(rows, cfg.n))
        group = [x, 1.01 * x]
        stepped = lmm.evolve_log_euler(cfg, group, 3, 0.05, mc.rng_for(2, 0, mc.STREAM_CONT))
        rng = mc.rng_for(2, 0, mc.STREAM_CONT)
        ks = [np.log(g) for g in group]
        for _ in range(3):
            z = rng.standard_normal(x.shape)
            shock = np.sqrt(0.05) * (z @ cfg.vs.gamma.T)
            ks = [lmm.log_euler_step(cfg.vs, cfg.delta, k, 0.05, shock) for k in ks]
        for got, k in zip(stepped, ks):
            assert np.array_equal(got, np.exp(k))

    @pytest.mark.parametrize("first, members", [(0, 1), (7, 2), (18, 3), (0, 3), (7, 1)])
    def test_stepper_buffers_move_no_bit(self, first, members):
        # the stepper's tiled operands, buffers, folded -a_upper and
        # in-place update give the plain log_euler_step's bits
        cfg = case_cfg(n=19)
        rows = 2 * mc.CHUNK * 19 // (19 - first) + 5
        x = np.random.default_rng(4).uniform(0.02, 0.05, size=(rows, cfg.n))
        group = [x * (1.0 + 0.01 * j) for j in range(members)]
        stepped = lmm.evolve_log_euler(cfg, group, 4, 0.05, mc.rng_for(4, 0, mc.STREAM_CONT),
                                       first)
        vs, delta = cfg.vs.trailing(first), cfg.delta[first:]
        rng = mc.rng_for(4, 0, mc.STREAM_CONT)
        ks = [np.log(g[:, first:]) for g in group]
        for _ in range(4):
            z = rng.standard_normal(ks[0].shape)
            for part in mc.row_slices(*z.shape):
                shock = np.sqrt(0.05) * (z[part] @ vs.gamma.T)
                for k in ks:
                    k[part] = lmm.log_euler_step(vs, delta, k[part], 0.05, shock)
        for got, k in zip(stepped, ks):
            assert np.array_equal(got[:, first:], np.exp(k))

    def test_slicing_moves_no_row(self, monkeypatch):
        # each row's step is its own arithmetic, so a narrow live block
        # ends bit for bit where it ends in slices of another size
        cfg = case_cfg(n=19)
        x = np.random.default_rng(8).uniform(0.02, 0.05, size=(3000, cfg.n))
        runs = []
        for chunk in (mc.CHUNK, 37):
            monkeypatch.setattr(mc, "CHUNK", chunk)
            runs.append(lmm.evolve_log_euler(cfg, [x, 1.01 * x], 6, 0.05,
                                             mc.rng_for(8, 0, mc.STREAM_CONT), first=17))
        assert len(mc.row_slices(3000, 2)) > 1
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    @pytest.mark.parametrize("first", [1, 6, 18])
    def test_live_block_steps_only_its_rates(self, first):
        # the rates before ``first`` come back untouched, the live ones as a
        # walk of the trailing model on (rows, n - first) normals leaves
        # them, and the generator ends where that many normals leave it:
        # each step draws the live rates' columns and no others
        cfg = case_cfg(n=19)
        rows, steps, dt = 2 * mc.CHUNK + 5, 5, 0.05
        x = np.random.default_rng(4).uniform(0.02, 0.05, size=(rows, cfg.n))
        group = [x, 1.01 * x]
        rng = mc.rng_for(4, 0, mc.STREAM_CONT)
        live = lmm.evolve_log_euler(cfg, group, steps, dt, rng, first=first)
        sub, delta = cfg.vs.trailing(first), cfg.delta[first:]
        ref_rng = mc.rng_for(4, 0, mc.STREAM_CONT)
        ks = [np.log(g[:, first:]) for g in group]
        for _ in range(steps):
            z = ref_rng.standard_normal((rows, cfg.n - first))
            ks = [k + (lmm.drift_mu(sub, delta, np.exp(k)) - 0.5 * sub.a_diag) * dt
                  + np.sqrt(dt) * (z @ sub.gamma.T) for k in ks]
        for start, k, b in zip(group, ks, live):
            assert np.array_equal(b[:, :first], start[:, :first])
            assert_allclose(b[:, first:], np.exp(k), rtol=1e-13, atol=0.0)
        fresh = mc.rng_for(4, 0, mc.STREAM_CONT)
        fresh.standard_normal(rows * (cfg.n - first) * steps)
        assert np.array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    @pytest.mark.parametrize("first", [0, 7])
    @pytest.mark.parametrize("members", [2, 3])
    def test_every_member_walks_as_it_would_alone(self, first, members):
        # the group forms each slice's increment once and every member
        # adds it: member j of the group ends bit for bit where a group
        # of that member alone ends on an identically seeded generator
        cfg = case_cfg(n=19)
        x = np.random.default_rng(6).uniform(0.02, 0.05, size=(2 * mc.CHUNK + 1, cfg.n))
        group = [x * (1.0 + 0.01 * j) for j in range(members)]
        stepped = lmm.evolve_log_euler(cfg, group, 4, 0.05, mc.rng_for(6, 0, mc.STREAM_CONT),
                                       first=first)
        for start, got in zip(group, stepped):
            (alone,) = lmm.evolve_log_euler(cfg, [start], 4, 0.05,
                                            mc.rng_for(6, 0, mc.STREAM_CONT), first=first)
            assert np.array_equal(got, alone)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_thread_outlives_a_failed_step(self, monkeypatch, cpus):
        # on two CPUs the lone batch draws its next normals on a helper
        # thread; a step that raises still leaves no thread behind
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        step, calls = lmm.log_euler_step, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("third step")
            return step(*args)

        monkeypatch.setattr(lmm, "log_euler_step", failing)
        cfg = case_cfg(n=19)
        x = np.broadcast_to(cfg.l0, (500, cfg.n))
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="third step"):
            mc.map_batches(lambda bi, lo, hi: lmm.evolve_log_euler(
                cfg, [x], 10, 0.05, mc.rng_for(1, bi, mc.STREAM_EULER)), 5)
        assert threading.active_count() == threads

    def test_trailing_block_is_a_model_of_its_own(self):
        vs = case_cfg(n=8).vs
        sub = vs.trailing(3)
        assert sub.n == 5
        assert_allclose(sub.gamma @ sub.gamma.T, sub.a, atol=1e-15)
        assert_allclose(sub.gamma_inv @ sub.gamma, np.eye(5), atol=1e-12)
        assert np.array_equal(sub.a_upper, np.triu(sub.a, k=1))
        assert np.array_equal(sub.a_diag, np.diag(sub.a))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=0.5), min_size=2, max_size=8),
)
def test_chart_roundtrip(rates):
    L = np.array(rates)
    n = L.shape[0]
    vs = lmm.build_vol_structure(np.full(n, 0.2), lmm.correlation_matrix(n, 0.3))
    assert_allclose(lmm.from_y(vs, lmm.to_y(vs, L)), L, rtol=1e-10)


class TestModelConfig:
    def test_tenor_grid(self):
        cfg = case_cfg(n=4, t1=2.0)
        assert_allclose(cfg.tenor, [2.0, 2.5, 3.0, 3.5, 4.0])
        assert cfg.tenor_date(1) == 2.0
        assert cfg.tenor_date(5) == 4.0
        with pytest.raises(ValueError):
            cfg.tenor_date(6)

    def test_exercise_dates(self):
        cfg = case_cfg(n=6, t1=1.0, exercise_indices=(1, 3, 5))
        assert_allclose(cfg.exercise_dates, [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            case_cfg(payoff_style="nonsense")
        with pytest.raises(ValueError):
            case_cfg(exercise_indices=(0,))
        with pytest.raises(ValueError):
            case_cfg(t1=-1.0)

    @pytest.mark.parametrize("indices", [(3, 1), (1, 1, 3)])
    def test_refuses_unordered_exercise_indices(self, indices):
        # out of order or repeated, the dates would fail deep inside a
        # policy fit; refused up front and by name
        with pytest.raises(ValueError, match=r"^exercise_indices must be strictly increasing"):
            case_cfg(exercise_indices=indices)

    @pytest.mark.parametrize("field, value", [
        ("l0", np.nan), ("vol", np.nan), ("delta", np.nan), ("strike", np.nan),
        ("t1", np.nan), ("t1", np.inf), ("rho_inf", np.nan), ("dt_euro", np.inf),
        ("delta", -0.5), ("delta", 0.0), ("l0", 0.0), ("vol", -0.2),
        ("dt_euro", 0.0), ("dt_berm", -0.05), ("t1", 0.0),
        ("l0", [0.035, 0.035, 0.035, np.inf, 0.035]),
    ])
    def test_refuses_bad_inputs_by_name(self, field, value):
        # refused up front and by name, not left to come out as a NaN
        # price or a ZeroDivisionError downstream
        args = dict(n=5, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035)
        args[field] = value
        with pytest.raises(ValueError, match=rf"^{field}(\[\d+\])? must be finite"):
            lmm.ModelConfig(**args)

    def test_names_the_offending_entry(self):
        # a vector names the entry at fault, not the whole broadcast vector
        args = dict(n=5, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035)
        args["vol"] = [0.2, 0.2, 0.2, np.nan, 0.2]
        with pytest.raises(ValueError, match=r"^vol\[3\] must be finite and positive, got nan$"):
            lmm.ModelConfig(**args)
        args["vol"], args["l0"] = 0.2, 0.0
        with pytest.raises(ValueError, match=r"^l0\[0\] must be finite and positive, got 0\.0$"):
            lmm.ModelConfig(**args)

    def test_make_config_names_missing_settings(self):
        with pytest.raises(ValueError, match=r"^config lacks delta, l0, vol, rho_inf, strike$"):
            lmm.make_config({"n": 3}, 1.0)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.cfg"
        raw = {
            "n": 19,
            "delta": 0.5,
            "l0": 0.035,
            "vol": 0.2,
            "rho_inf": 0.3,
            "strike": 0.035,
            "payoff_style": "on_sum",
            "exercise_indices": (1, 3, 5),
        }
        lmm.save_config(path, raw)
        back = lmm.load_config(path)
        assert back["n"] == 19
        assert back["exercise_indices"] == (1, 3, 5)
        cfg = lmm.make_config(back, t1=1.0)
        assert cfg.n == 19 and cfg.t1 == 1.0

    def test_vector_values(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("n = 3\nl0 = 0.03, 0.035, 0.04\n")
        raw = lmm.load_config(path)
        assert_allclose(raw["l0"], [0.03, 0.035, 0.04])

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("n = 19\nwhatkey = 3\n")
        with pytest.raises(ValueError, match=r":2:"):
            lmm.load_config(path)
        path.write_text("just words\n")
        with pytest.raises(ValueError, match=r":1:"):
            lmm.load_config(path)
        # malformed numbers: an integer, a vector entry, an exercise date
        for text, line in (
            ("n = abc\n", 1),
            ("n = 3\nvol = 0.2, x\n", 2),
            ("n = 3\n\nexercise_dates = 1, 3.5\n", 3),
        ):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"model\.cfg:{line}: bad value"):
                lmm.load_config(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("n = 3\nvol = 0.2\n\nvol = 0.3\n")
        with pytest.raises(ValueError, match=r"model\.cfg:4: .*'vol'.*model\.cfg:2"):
            lmm.load_config(path)

    def test_vector_length_mismatch_names_its_line(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("l0 = 0.03, 0.035\nn = 3\n")
        with pytest.raises(ValueError, match=r"model\.cfg:1: l0 has 2 entries, but n = 3"):
            lmm.load_config(path)
