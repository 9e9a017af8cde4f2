import math

import pytest
import yaml

from kyfanreg import harness, special
from kyfanreg.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from kyfanreg.config import parse_config
from kyfanreg.harness import read_summaries, run_study
from kyfanreg.noise import NoiseSpec, kyfan_bound_gaussian
from kyfanreg.rules import (
    combined_model,
    heavy_tail_model,
    tikhonov_rate_predict,
    uniform_source_model,
)


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


def small_besov_config():
    return {
        "schema_version": 1,
        "study": "besov",
        "seed": 3,
        "eta_grid": [1e-3],
        "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "haar-diagonal", "levels": 4, "decay": 1.0},
        "truth": {"kind": "level-spikes", "norm": 1.0},
        "rule": {"kind": "kyfan-squared"},
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

    def test_empirical_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("0.2\nabc\n")
        assert main(["kyfan", "empirical", "--input", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"malformed distances in {path}" in captured.err

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

    def test_tail_huge_tau(self, capsys):
        code = main(["kyfan", "tail", "--tau", "1e200", "--m", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out == "tail_prob = 0\n"

    def test_tail_at_twenty_million_dimensions(self, capsys):
        # a = m/2 = 1e7 and z = 0.999a: the incomplete gamma series needs
        # about 27,000 terms
        code = main(["kyfan", "tail", "--tau", "0.9995", "--m", "20000000"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        assert float(captured.out.split("=")[1]) == pytest.approx(0.99921784791602719, rel=1e-7)

    def test_tail_series_failure_is_numerical_failure(self, capsys, monkeypatch):
        def failing_series(a, z):
            raise ArithmeticError(f"incomplete gamma series failed to converge (a={a}, z={z})")

        monkeypatch.setattr(special, "_gamma_p_series", failing_series)
        code = main(["kyfan", "tail", "--tau", "0.9995", "--m", "20000000"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: incomplete gamma series failed")
        assert captured.err.count("\n") == 1

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
        raw = small_besov_config()
        cfg = tmp_path / "besov.yaml"
        # 1e-6 without a dot is a string to PyYAML
        cfg.write_text(yaml.safe_dump(raw) + "solver: {s: 1e-6}\n")
        assert main(["run", "besov", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config.solver.s: expected a number" in capsys.readouterr().err

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

    @pytest.mark.parametrize("singular_values, values, message", [
        # unchecked, an infinite entry reaches the study and fails there numerically
        ([1.0, 0.5, 0.25, 0.125], [math.inf, 0.0, 0.0, 0.0],
         "config.truth.values[*]: expected a finite number, got inf"),
        # unchecked, numpy reads true and "1" as 1.0 and the study runs
        ([True, "0.5", 0.25, 0.125], [True, "1", 0.0, 0.0],
         "config.operator.singular_values[*]: expected a number, got True"),
    ], ids=["infinite-value", "bool-and-string"])
    def test_bad_list_entry_is_config_error(self, tmp_path, capsys, singular_values, values,
                                            message):
        raw = dict(small_filter_config(),
                   operator={"kind": "diagonal", "singular_values": singular_values},
                   truth={"kind": "explicit", "values": values},
                   rule={"kind": "fixed", "alpha": 0.01})
        cfg = write_config(tmp_path / "c.yaml", raw)
        assert main(["run", "filter-study", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_study_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", small_filter_config())
        assert main(["run", "besov", "--config", cfg]) == EXIT_CONFIG

    def test_zero_kyfan_squared_scale_is_config_error(self, tmp_path, capsys):
        raw = dict(small_besov_config(), rule={"kind": "kyfan-squared", "scale": 0.0})
        cfg = write_config(tmp_path / "besov.yaml", raw)
        assert main(["run", "besov", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config.rule: kyfan-squared scale must be positive, got 0.0" in captured.err

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

    def test_nu_random_stdout_and_numerical_failure(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "nu.yaml", small_nu_random_config())
        monkeypatch.setattr(harness, "_KMAX", 2)  # unreachable stopping index: flagged trials
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_NUMERICAL
        monkeypatch.undo()
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_OK

    def test_flagged_eta_fails_numerically_after_the_csv(self, tmp_path, capsys):
        # at eta = 0.1 the balancing equation has no bounding root, so all 30
        # trials are flagged; each row is still written
        from test_harness import STUDY_CONFIGS

        cfg = write_config(tmp_path / "besov.yaml",
                           dict(STUDY_CONFIGS["besov"], eta_grid=[0.1, 1.0e-3]))
        out_path = tmp_path / "besov.csv"
        assert main(["run", "besov", "--config", cfg, "--out", str(out_path)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: 30 of 30 trials flagged at eta 0.1\n"
        rows = read_summaries(out_path)
        assert [r.eta for r in rows] == [0.1, 1.0e-3]
        assert math.isinf(rows[0].alpha_or_kstar) and math.isfinite(rows[1].alpha_or_kstar)

    def test_zero_kmax_is_config_error(self, tmp_path, capsys):
        # the study fixes its step cap: kmax is no solver key, at any value
        raw = dict(small_nu_random_config(), solver={"kmax": 0})
        cfg = write_config(tmp_path / "nu.yaml", raw)
        assert main(["run", "nu-random", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config.solver: unknown key(s) ['kmax']" in captured.err and captured.out == ""

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

    def test_autoconv_csv_bytes(self, tmp_path):
        # the header, then each eta's eta, mean delta^2/alpha and Ky Fan error
        # at 17 significant digits
        raw = dict(small_autoconv_config(), eta_grid=[0.1, 0.01])
        cfg = write_config(tmp_path / "a.yaml", raw)
        out_path = tmp_path / "panels.csv"
        assert main(["run", "autoconv", "--config", cfg, "--out", str(out_path)]) == EXIT_OK
        summaries = run_study(parse_config(raw)).summaries
        assert len(summaries) == 2
        expected = "eta,ratio_delta2_over_alpha,err\n" + "".join(
            f"{s.eta:.17g},{s.ratio_delta2_alpha:.17g},{s.err_kyfan:.17g}\n" for s in summaries
        )
        assert out_path.read_bytes() == expected.encode()


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

    @pytest.mark.parametrize("model, build", [
        ("uniform", uniform_source_model),
        ("heavytail", heavy_tail_model),
        ("combined", combined_model),
    ])
    def test_tikhonov_rate_rows_match_the_library(self, model, build, capsys):
        rhos = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        assert main(["predict", "tikhonov-rate", "--model", model,
                     "--rho-grid", ",".join(map(str, rhos))]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = [(r, tikhonov_rate_predict(r, build())) for r in rhos]
        assert lines[:-1] == ["rho_k,bound,xi,tau"] + [
            f"{r:.17g},{p.bound:.17g},{p.xi:.17g},{p.tau:.17g}" for r, p in rows
        ]
        assert lines[-1].startswith("# loglog_slope = ")

    def test_underflowing_alpha_leaves_stdout_empty(self, capsys):
        code = main(["predict", "tikhonov-rate", "--model", "combined",
                     "--rho-grid", "1e-300,1e-2,1e-3"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "underflows to 0" in captured.err

    def test_single_noise_level_is_not_fitted(self, capsys):
        code = main(["predict", "tikhonov-rate", "--model", "uniform",
                     "--rho-grid", "1e-2,1e-2,1e-2"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "2 or more distinct noise values" in captured.err

    def test_bad_rho_grid(self, capsys):
        assert main(["predict", "tikhonov-rate", "--model", "uniform",
                     "--rho-grid", "2.0,0.5"]) == EXIT_CONFIG

    def test_non_numeric_rho_grid(self, capsys):
        assert main(["predict", "tikhonov-rate", "--model", "uniform",
                     "--rho-grid", "1e-2,x"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed --rho-grid" in captured.err

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
