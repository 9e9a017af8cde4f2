import math

import pytest
import yaml

from kyfanreg.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from kyfanreg.harness import read_summaries
from kyfanreg.noise import NoiseSpec, kyfan_bound_gaussian


def write_config(path, raw):
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def small_filter_config():
    return {
        "schema_version": 1,
        "study": "filter",
        "seed": 123,
        "eta_grid": [0.05, 0.01],
        "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 40, "decay": 1.0},
        "truth": {"kind": "source-powerlaw", "exponent": 0.5, "power": -0.5, "norm": 1.0},
        "rule": {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 1.0, "constant": 1.0},
    }


def small_autoconv_config():
    return {
        "schema_version": 1,
        "study": "autoconv",
        "seed": 3,
        "eta_grid": [0.01],
        "trials_per_eta": 30,
        "noise_level": {"mode": "inflated-expectation",
                        "tau": {"kind": "constant", "value": 1.3}},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "autoconv", "size": 32},
        "truth": {"kind": "two-bump", "amplitude": 0.31},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    }


def small_nu_random_config():
    return {
        "schema_version": 1,
        "study": "nu-random",
        "seed": 3,
        "eta_grid": [1e-3],
        "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 30, "decay": 1.0},
        "truth": {"kind": "random-source", "power": -0.5, "norm": 1.0},
        "rule": {"kind": "discrepancy-stop", "tau_hat": 2.5},
    }


class TestKyfanCommands:
    def test_bound(self, capsys):
        assert main(["kyfan", "bound", "--eta", "0.1", "--m", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kyfan_bound_gaussian" in out
        bound = float(out.splitlines()[0].split("=")[1])
        assert bound == pytest.approx(kyfan_bound_gaussian(NoiseSpec(0.1, 4)))

    def test_bound_rejects_bad_eta(self, capsys):
        assert main(["kyfan", "bound", "--eta", "-1", "--m", "4"]) == EXIT_CONFIG

    def test_empirical(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("0.2\n0.2\n0.2\n0.9\n")
        assert main(["kyfan", "empirical", "--input", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) == pytest.approx(0.25)

    def test_empirical_missing_file(self, tmp_path, capsys):
        code = main(["kyfan", "empirical", "--input", str(tmp_path / "absent.csv")])
        assert code == EXIT_CONFIG

    def test_empirical_empty_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("")
        assert main(["kyfan", "empirical", "--input", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("config error:")

    def test_tail_with_mc(self, capsys):
        code = main(["kyfan", "tail", "--tau", "1.5", "--m", "4",
                     "--check-mc", "20000", "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        tail = float(out.splitlines()[0].split("=")[1])
        freq = float(out.splitlines()[1].split("=")[1].split()[0])
        assert abs(tail - freq) < 0.01

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_tail_mc_rejects_seed_out_of_range(self, seed, capsys):
        code = main(["kyfan", "tail", "--tau", "1.5", "--m", "4",
                     "--check-mc", "1000", "--seed", seed])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_tail_bad_seed_prints_nothing(self, capsys):
        code = main(["kyfan", "tail", "--tau", "1.5", "--m", "4",
                     "--check-mc", "10", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "seed" in captured.err

    def test_tail_negative_mc_count_is_config_error(self, capsys):
        code = main(["kyfan", "tail", "--tau", "1.5", "--m", "4", "--check-mc", "-3"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "--check-mc" in captured.err


class TestRunCommands:
    def test_filter_study_to_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", small_filter_config())
        out_path = tmp_path / "res.csv"
        assert main(["run", "filter-study", "--config", cfg, "--out", str(out_path)]) == EXIT_OK
        rows = read_summaries(out_path)
        assert len(rows) == 2
        assert rows[0].trials == 30

    def test_filter_study_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", small_filter_config())
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("eta,delta_eff,alpha_or_kstar")

    @pytest.mark.parametrize("raw", [small_filter_config(), small_autoconv_config()])
    def test_stdout_matches_out_file(self, tmp_path, capsys, raw):
        cfg = write_config(tmp_path / "c.yaml", raw)
        command = "filter-study" if raw["study"] == "filter" else raw["study"]
        out_path = tmp_path / "res.csv"
        assert main(["run", command, "--config", cfg, "--out", str(out_path)]) == EXIT_OK
        assert main(["run", command, "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.encode() == out_path.read_bytes()

    def test_string_solver_value_is_config_error(self, tmp_path, capsys):
        raw = small_nu_random_config()
        cfg = tmp_path / "nu.yaml"
        # 1e7 without a dot is a string to PyYAML
        cfg.write_text(yaml.safe_dump(raw) + "solver: {kmax: 1e7}\n")
        assert main(["run", "nu-random", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config.solver.kmax" in capsys.readouterr().err

    def test_infinite_eta_is_config_error(self, tmp_path, capsys):
        raw = dict(small_filter_config(), eta_grid=[math.inf, 1e-2])
        cfg = write_config(tmp_path / "c.yaml", raw)
        assert ".inf" in (tmp_path / "c.yaml").read_text()
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.eta_grid" in captured.err and captured.out == ""

    def test_huge_integer_eta_is_config_error(self, tmp_path, capsys):
        # 10**400 overflows a double
        raw = dict(small_filter_config(), eta_grid=[10**400, 1e-2])
        cfg = write_config(tmp_path / "c.yaml", raw)
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.eta_grid" in captured.err and captured.out == ""

    def test_csv_operator_is_config_error(self, tmp_path, capsys):
        # operators are given by their singular values; a dense matrix file is not read
        matrix = tmp_path / "a.csv"
        matrix.write_text("1.0,0.0\n0.0,0.5\n", encoding="utf-8")
        raw = dict(small_filter_config(), operator={"kind": "csv", "path": str(matrix)})
        cfg = write_config(tmp_path / "c.yaml", raw)
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.operator" in captured.err and captured.out == ""

    def test_study_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", small_filter_config())
        assert main(["run", "besov", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        raw = small_filter_config()
        raw["surprise"] = True
        cfg = write_config(tmp_path / "c.yaml", raw)
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_workers_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.yaml", dict(small_autoconv_config(), workers=4))
        assert main(["run", "autoconv", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "workers" in captured.err and captured.out == ""

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "filter-study", "--config", str(tmp_path / "none.yaml")])
        assert code == EXIT_CONFIG

    def test_nu_random_stdout_and_numerical_failure(self, tmp_path, capsys):
        raw = {
            "schema_version": 1,
            "study": "nu-random",
            "seed": 3,
            "eta_grid": [1e-3],
            "trials_per_eta": 30,
            "noise_level": {"mode": "kyfan-bound"},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "diagonal-powerlaw", "size": 30, "decay": 1.0},
            "truth": {"kind": "random-source", "power": -0.5, "norm": 1.0},
            "rule": {"kind": "discrepancy-stop", "tau_hat": 2.5},
            "solver": {"kmax": 2},  # unreachable stopping index: flagged trials
        }
        cfg = write_config(tmp_path / "nu.yaml", raw)
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_NUMERICAL
        raw["solver"] = {}
        cfg = write_config(tmp_path / "nu2.yaml", raw)
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_OK

    def test_zero_kmax_is_config_error(self, tmp_path, capsys):
        raw = dict(small_nu_random_config(), solver={"kmax": 0})  # no step would be taken
        cfg = write_config(tmp_path / "nu.yaml", raw)
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.solver.kmax" in captured.err and captured.out == ""

    def test_autoconv_size_not_power_of_two_is_config_error(self, tmp_path, capsys):
        raw = dict(small_autoconv_config(), operator={"kind": "autoconv", "size": 100})
        cfg = write_config(tmp_path / "a.yaml", raw)
        assert main(["run", "autoconv", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.operator" in captured.err and captured.out == ""

    @pytest.mark.parametrize("error", [ValueError("singular matrix"),
                                       FloatingPointError("overflow")])
    def test_error_inside_a_run_is_numerical_failure(self, tmp_path, capsys, monkeypatch, error):
        def fail(cfg):
            raise error

        monkeypatch.setattr("kyfanreg.cli.run_study", fail)
        cfg = write_config(tmp_path / "f.yaml", small_filter_config())
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {error}\n" and captured.out == ""

    def test_autoconv_csv_shape(self, tmp_path, capsys):
        raw = {
            "schema_version": 1,
            "study": "autoconv",
            "seed": 3,
            "eta_grid": [0.01],
            "trials_per_eta": 30,
            "noise_level": {"mode": "inflated-expectation",
                            "tau": {"kind": "constant", "value": 1.3}},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "autoconv", "size": 32},
            "truth": {"kind": "two-bump", "amplitude": 0.31},
            "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
        }
        cfg = write_config(tmp_path / "a.yaml", raw)
        out_path = tmp_path / "panels.csv"
        assert main(["run", "autoconv", "--config", cfg, "--out", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "eta,ratio_delta2_over_alpha,err"
        assert len(lines) == 2


class TestPredictCommands:
    def test_tikhonov_rate_table(self, capsys):
        code = main(["predict", "tikhonov-rate", "--model", "uniform",
                     "--rho-grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("rho_k,bound,xi,tau")
        slope_line = [l for l in out.splitlines() if l.startswith("# loglog_slope")][0]
        slope = float(slope_line.split("=")[1].split()[0])
        assert slope == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_bad_rho_grid(self, capsys):
        assert main(["predict", "tikhonov-rate", "--model", "uniform",
                     "--rho-grid", "2.0,0.5"]) == EXIT_CONFIG

    def test_nu_rate(self, capsys):
        assert main(["predict", "nu-rate", "--rho", "1e-4"]) == EXIT_OK
        out = capsys.readouterr().out
        exact = float(out.splitlines()[0].split("=")[1])
        approx = float(out.splitlines()[1].split("=")[1])
        resid = (1e-4) ** (2 * exact / (2 * exact + 1)) - 2 * exact
        assert abs(resid) <= 1e-12
        assert approx == pytest.approx(exact, rel=0.2)

    def test_nu_rate_domain(self, capsys):
        assert main(["predict", "nu-rate", "--rho", "1.5"]) == EXIT_CONFIG
