import numpy as np
import pytest

from wkbmc import harness, lmm


class TestReference:
    def test_known_cells(self):
        assert harness.reference("european_price", 1.0, "euler") == (178.9, 0.4)
        assert harness.reference("european_delta", 10.0, 1) == (1422.7, 3.9)
        assert harness.reference("bermudan_price", 5.0, "lgn") == (466.3, 1.1)
        assert harness.reference("bermudan_delta", 2.0, "0") == (2700.7, 3.6)

    def test_off_grid_raises(self):
        with pytest.raises(KeyError):
            harness.reference("european_price", 3.0, "euler")
        with pytest.raises(KeyError):
            harness.reference("european_price", 1.0, 2)

    def test_every_kind_covers_the_sweep(self):
        for kind, by_level in harness.REFERENCE.items():
            assert set(by_level) == set(harness.LEVELS)
            for cells in by_level.values():
                assert set(cells) == set(harness.T1_SWEEP)


class TestCaseStudyConfig:
    def test_defaults_build(self):
        cfg = harness.build_config(None, 1.0)
        assert cfg.n == 19
        assert cfg.exercise_indices == tuple(range(1, 20, 2))
        assert cfg.payoff_style == "on_sum"

    def test_shipped_file_matches_builtin(self):
        raw = lmm.load_config("configs/case_study.cfg")
        base = harness.case_study_raw()
        for key in ("n", "strike", "rho_inf", "exercise_indices"):
            assert raw[key] == base[key]
        cfg = harness.build_config(raw, 2.0)
        assert cfg.t1 == 2.0
        np.testing.assert_allclose(cfg.l0, 0.035)


class TestRunTable:
    def test_bad_table_number(self):
        with pytest.raises(ValueError):
            harness.run_table(5)

    def test_csv_shape(self):
        text = harness.run_table(1, m=2000, t1s=(1.0,), levels=("lgn", "1"))
        lines = text.splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            assert fields[0] == "european_price"
            assert int(fields[5]) == 2000
            assert fields[6] == ""  # no bump column for prices

    def test_delta_table_records_h(self):
        text = harness.run_table(2, m=2000, t1s=(1.0,), levels=("1",), h=3.5e-5)
        fields = text.splitlines()[1].split(",")
        assert fields[0] == "european_delta"
        assert float(fields[6]) == 3.5e-5

    def test_deterministic_modulo_wall(self):
        a = harness.run_table(1, m=2000, t1s=(1.0, 2.0), levels=("lgn", "0"))
        b = harness.run_table(1, m=2000, t1s=(1.0, 2.0), levels=("lgn", "0"))
        assert harness.strip_wall(a) == harness.strip_wall(b)

    def test_seed_changes_values(self):
        a = harness.run_table(1, m=2000, t1s=(1.0,), levels=("lgn",), seed=7)
        b = harness.run_table(1, m=2000, t1s=(1.0,), levels=("lgn",), seed=8)
        assert harness.strip_wall(a) != harness.strip_wall(b)

    def test_prices_near_reference(self):
        # deterministic at fixed seed; 4 sd covers the desk-size noise
        text = harness.run_table(1, m=8000, t1s=(1.0, 2.0), levels=("lgn", "1"))
        for line in text.splitlines()[1:]:
            f = line.split(",")
            ref, _ = harness.reference("european_price", float(f[1]), f[2])
            assert abs(float(f[3]) - ref) < 4.0 * float(f[4])

    def test_bermudan_table_deterministic(self):
        kw = dict(m=1000, t1s=(1.0,), levels=("1",))
        a = harness.run_table(3, **kw)
        b = harness.run_table(3, **kw)
        assert harness.strip_wall(a) == harness.strip_wall(b)
        assert a.splitlines()[1].split(",")[0] == "bermudan_price"

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "t1.csv"
        text = harness.run_table(1, m=1000, t1s=(1.0,), levels=("lgn",), out=path)
        assert path.read_text() == text


class TestRunBench:
    def test_shape_and_walls(self, monkeypatch):
        # the shape needs no timing floor
        monkeypatch.setattr(harness, "_BENCH_CELL_WALL_S", 0.0)
        text = harness.run_bench(m=2000, t1s=(1.0, 2.0), estimators=("european",), repeats=1)
        lines = text.splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            f = line.split(",")
            assert f[0] == "bench_european"
            assert f[2] in ("1", "euler")
            assert int(f[8]) >= 0

    def test_bermudan_rows_present(self):
        text = harness.run_bench(m=1000, t1s=(1.0,), estimators=("bermudan",), repeats=1)
        names = [l.split(",")[0] for l in text.splitlines()[1:]]
        assert names == ["bench_bermudan", "bench_bermudan"]

    @pytest.mark.parametrize("estimators", [
        "european", "bermudan,european", (), ("foo",), ("european", "foo"),
    ], ids=["string", "comma-string", "empty", "unknown", "one-unknown"])
    def test_bad_estimators_refused_before_work(self, monkeypatch, estimators):
        def no_work(*args, **kwargs):
            raise AssertionError("built a config for refused estimators")

        monkeypatch.setattr(harness, "build_config", no_work)
        with pytest.raises(ValueError, match="estimators must be"):
            harness.run_bench(m=1000, t1s=(1.0,), estimators=estimators, repeats=1)


class TestRunExplosion:
    def test_ratio_and_factors(self):
        text = harness.run_explosion(m=20_000)
        lines = text.splitlines()
        assert len(lines) == 4
        rows = [l.split(",") for l in lines[1:]]
        for r in rows:
            assert abs(float(r[5]) - 1.0) < 0.1
        factors = [float(r[6]) for r in rows]
        np.testing.assert_allclose(factors, [1.0, 8.0, 1.0 / (0.14**2 * 0.5)], rtol=1e-4)


class TestSelftest:
    def test_all_green(self):
        text, failed = harness.run_selftest()
        assert failed == 0
        lines = text.splitlines()
        assert all(l.startswith("[  ok]") for l in lines[:-1])
        assert lines[-1].endswith("0 failure(s)")
        # the tamper probe runs and is flagged as the expected negative
        assert any("vol_structure_tamper" in l for l in lines)

    def test_reports_failures(self, monkeypatch):
        bad = "h\n1,1,100,1,2,2.0,1\n"
        monkeypatch.setattr(harness, "run_explosion", lambda m=0, seed=0, out=None: bad)
        text, failed = harness.run_selftest()
        assert failed == 1
        assert "[FAIL] explosion_factors" in text


class TestCalibrateN:
    def test_recovers_case_study(self, tmp_path):
        out = tmp_path / "fit.cfg"
        raw, report = harness.calibrate_n(m=20_000, out=out)
        assert raw["n"] == 19
        assert raw["payoff_style"] == "on_sum"
        assert "winner: n=19 payoff_style=on_sum" in report
        again = lmm.load_config(out)
        assert again["n"] == 19
        assert again["payoff_style"] == "on_sum"

    def test_report_lists_all_candidates(self):
        raw, report = harness.calibrate_n(m=1000)
        for tag in ("19,on_sum", "19,per_leg", "20,on_sum", "20,per_leg"):
            assert tag in report
        assert raw["n"] in (19, 20)
