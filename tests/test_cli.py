from pathlib import Path

import numpy as np
import pytest

from wkbmc import bermudan as brm
from wkbmc import cli, harness


class TestTable:
    def test_prints_csv(self, capsys):
        rc = cli.main(["table", "1", "--samples", "1000", "--level", "lgn"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 5  # four maturities, one level

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc = cli.main(
            ["table", "1", "--samples", "1000", "--level", "lgn", "--out", str(path)]
        )
        assert rc == 0
        assert path.read_text() == capsys.readouterr().out

    def test_config_flag(self, capsys):
        rc = cli.main(
            ["table", "1", "--config", "configs/case_study.cfg",
             "--samples", "1000", "--level", "lgn"]
        )
        assert rc == 0
        assert "european_price" in capsys.readouterr().out


class TestSamplesFlag:
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_rejects_non_positive(self, capsys, bad):
        # zero must not fall back to the default sample count
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table", "1", "--samples", bad, "--level", "lgn"])
        assert exit_info.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table", "1", "--level", "lgn"],
        ["table", "3", "--level", "lgn"],
        ["bench"],
        ["explosion-demo"],
        ["calibrate-n"],
    ])
    def test_rejects_a_single_sample(self, capsys, argv):
        # one sample has no standard error: refused while parsing, not by a
        # traceback from the estimator
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--samples", "1"])
        assert exit_info.value.code == 2
        assert ">= 2" in capsys.readouterr().err

    def test_policy_fit_needs_its_minimum(self, capsys):
        least = brm._MIN_CALIBRATION_PATHS
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["calibrate-policy", "--samples", str(least - 1)])
        assert exit_info.value.code == 2
        assert f">= {least}" in capsys.readouterr().err


#: the case study's 19 volatilities with a NaN fourth entry
VOL_WITH_NAN = ["0.2"] * 3 + ["nan"] + ["0.2"] * 15


class TestBadConfig:
    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("vol = 0.2", "vol = " + ", ".join(VOL_WITH_NAN)),
         "vol[3] must be finite and positive, got nan"),
        (lambda text: text + "foo\n", "expected 'key = value', got 'foo'"),
        (lambda text: text.replace("strike = 0.035", ""), "config lacks strike"),
    ])
    def test_exits_2_with_one_line(self, capsys, tmp_path, edit, message):
        # a config file that cannot make a model is refused before any
        # work, in one line, not by a traceback
        path = tmp_path / "bad.cfg"
        path.write_text(edit(Path("configs/case_study.cfg").read_text()))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["calibrate-policy", "--config", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("wkbmc: error: ") and message in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table", "1", "--config", str(tmp_path / "none.cfg")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "none.cfg" in err


def config_with_dates(tmp_path, line):
    """The case study's config file with its exercise_dates line replaced."""
    path = tmp_path / "dates.cfg"
    text = Path("configs/case_study.cfg").read_text()
    path.write_text(text.replace("exercise_dates = 1, 3, 5, 7, 9, 11, 13, 15, 17, 19", line))
    return str(path)


def no_work(*args, **kwargs):
    raise AssertionError("started work on a refused command line")


#: every subcommand, each of which takes ``--out``
EVERY_COMMAND = [
    ["calibrate-policy"],
    ["table", "1", "--samples", "2000", "--level", "1"],
    ["bench"],
    ["selftest"],
    ["explosion-demo"],
    ["calibrate-n"],
]


def no_run(monkeypatch):
    """Make every subcommand's run fail if it is reached."""
    for owner, name in ((harness, "run_table"), (harness, "run_bench"),
                        (harness, "run_selftest"), (harness, "run_explosion"),
                        (harness, "calibrate_n"), (brm, "calibrate_policy")):
        monkeypatch.setattr(owner, name, no_work)


class TestExerciseDates:
    @pytest.mark.parametrize("argv", [
        ["table", "3"],
        ["table", "4"],
        ["calibrate-policy"],
        ["bench", "--estimators", "bermudan"],
    ])
    def test_bermudan_command_needs_dates(self, capsys, monkeypatch, tmp_path, argv):
        # refused in one line before any work, not by a traceback from the
        # policy fit or a header-only CSV
        no_run(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--config", config_with_dates(tmp_path, "")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "declares no exercise_dates" in err

    def test_european_commands_run_without_dates(self, capsys, tmp_path):
        path = config_with_dates(tmp_path, "")
        assert cli.main(["table", "1", "--config", path, "--samples", "1000",
                         "--level", "lgn"]) == 0
        assert "european_price" in capsys.readouterr().out

    @pytest.mark.parametrize("dates", ["3, 1", "1, 1, 3"])
    @pytest.mark.parametrize("argv", [["calibrate-policy"], ["table", "3"]])
    def test_unordered_dates_refused(self, capsys, monkeypatch, tmp_path, argv, dates):
        monkeypatch.setattr(brm, "calibrate_policy", no_work)
        path = config_with_dates(tmp_path, f"exercise_dates = {dates}")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--config", path])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exercise_indices must be strictly increasing" in err


class TestOutPath:
    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_missing_directory_exits_2_before_work(self, capsys, monkeypatch, tmp_path, argv):
        # the file is written only after the run, so a directory that is
        # not there is refused up front, in one line, not by a traceback
        no_run(monkeypatch)
        out = tmp_path / "missing" / "f.txt"
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("wkbmc: error: --out ")
        assert f"{out.parent} is not an existing directory" in err
        assert not out.parent.exists()

    def test_file_as_directory_exits_2(self, capsys, monkeypatch, tmp_path):
        no_run(monkeypatch)
        (tmp_path / "plain").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["calibrate-policy", "--out", str(tmp_path / "plain" / "p.txt")])
        assert exit_info.value.code == 2
        assert "is not an existing directory" in capsys.readouterr().err

    def test_bare_file_name_is_accepted(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "run_selftest", lambda **kw: ("all good\n", 0))
        assert cli.main(["selftest", "--out", "s.txt"]) == 0
        assert capsys.readouterr().out == "all good\n"


class TestFlagsPerSubcommand:
    # a subcommand offers only the shared flags it reads
    @pytest.mark.parametrize("argv", [
        ["bench", "--level", "1"],
        ["selftest", "--level", "1"],
        ["explosion-demo", "--level", "1"],
        ["calibrate-n", "--level", "1"],
        ["calibrate-policy", "--level", "1"],
        ["selftest", "--samples", "1000"],
        ["explosion-demo", "--config", "configs/case_study.cfg"],
    ])
    def test_dropped_flag_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table", "2", "--h", "0"],
        ["table", "2", "--h", "-3.5e-5"],
        ["table", "2", "--h", "nan"],
        ["table", "2", "--h", "inf"],
        ["bench", "--estimators", "foo"],
        ["bench", "--estimators", "european,foo"],
        ["bench", "--estimators", ","],
        ["bench", "--repeats", "0"],
        ["bench", "--repeats", "-3"],
        ["calibrate-policy", "--t1", "nan"],
        ["calibrate-policy", "--t1", "-1"],
        ["calibrate-policy", "--t1", "0"],
        ["calibrate-policy", "--t1", "inf"],
    ])
    def test_bad_value_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert f"argument {flag}" in capsys.readouterr().err


class TestSelftest:
    def test_exit_codes(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_selftest", lambda **kw: ("all good\n", 0))
        assert cli.main(["selftest"]) == 0
        monkeypatch.setattr(harness, "run_selftest", lambda **kw: ("broken\n", 2))
        assert cli.main(["selftest"]) == 1
        assert "broken" in capsys.readouterr().out


class TestExplosionDemo:
    def test_prints_rows(self, capsys):
        rc = cli.main(["explosion-demo", "--samples", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("sigma,s,M,")
        assert len(out.splitlines()) == 4


class TestCalibratePolicy:
    def test_writes_loadable_policy(self, capsys, tmp_path):
        path = tmp_path / "pol.txt"
        rc = cli.main(
            ["calibrate-policy", "--t1", "1.0", "--samples", "10000", "--out", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "date threshold objective_bp"
        assert out[-1] == f"policy written to {path}"
        # every date reports its fitted objective, in basis points
        assert len(out) == 12 and all(np.isfinite(float(line.split()[2])) for line in out[1:11])
        lines = path.read_text().splitlines()
        direct = brm.calibrate_policy(
            harness.build_config(None, 1.0), n_paths=10_000, seed=harness.CALIBRATION_SEED
        )
        # the 'date threshold' lines hold repr floats, which round-trip exactly
        thresholds = [float(line.split()[1]) for line in lines if not line.startswith("#")]
        np.testing.assert_array_equal(thresholds, direct.thresholds)
        assert f"seed={harness.CALIBRATION_SEED}" in lines[1]

    def test_off_grid_t1_fits(self, capsys):
        # T1 = 1.03 is no whole number of dt_berm = 0.05 steps; the fit
        # walks one-shot paths, which step on no grid, so it fits there
        rc = cli.main(["calibrate-policy", "--t1", "1.03"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "date threshold objective_bp" and len(out) == 11
        assert out[1].split()[0] == "1.03"
        assert all(np.isfinite(float(line.split()[2])) for line in out[1:])


class TestCalibrateN:
    def test_smoke(self, capsys, monkeypatch, tmp_path):
        calls = {}

        def fake(raw=None, m=0, seed=0, out=None):
            calls.update(m=m, seed=seed, out=out)
            return {"n": 19}, "winner: n=19 payoff_style=on_sum\n"

        monkeypatch.setattr(harness, "calibrate_n", fake)
        path = tmp_path / "fit.cfg"
        rc = cli.main(["calibrate-n", "--samples", "500", "--seed", "3", "--out", str(path)])
        assert rc == 0
        assert calls == {"m": 500, "seed": 3, "out": str(path)}
        assert "winner" in capsys.readouterr().out


class TestBench:
    def test_european_only(self, capsys, monkeypatch):
        # the output's shape only: the timing floor that steadies
        # criterion 9's walls would run every cell for a second here
        monkeypatch.setattr(harness, "_BENCH_CELL_WALL_S", 0.0)
        rc = cli.main(
            ["bench", "--samples", "1000", "--estimators", "european", "--repeats", "1"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 9
        assert all(l.startswith("bench_european") for l in lines[1:])
