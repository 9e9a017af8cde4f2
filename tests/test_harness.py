import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from kyfanreg import harness
from kyfanreg.config import _STUDY_SPECS, ConfigError, parse_config
from kyfanreg.harness import (
    CSV_COLUMNS,
    EtaSummary,
    export,
    export_autoconv_panels,
    fit_rate,
    read_summaries,
    run_study,
)

rng = np.random.default_rng(3)


def filter_config(**overrides):
    raw = {
        "schema_version": 1,
        "study": "filter",
        "seed": 42,
        "eta_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
        "trials_per_eta": 50,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 200, "decay": 1.0},
        "truth": {"kind": "source-powerlaw", "exponent": 0.5, "power": -0.5, "norm": 5.25},
        "rule": {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 5.25, "constant": 1.575},
    }
    raw.update(overrides)
    return parse_config(raw)


class TestFitRate:
    def test_exact_power(self):
        xs = np.logspace(-4, -1, 8)
        fit = fit_rate(list(zip(xs, xs**0.5)))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 8

    def test_constant_data(self):
        xs = np.logspace(-3, -1, 5)
        fit = fit_rate(list(zip(xs, np.full(5, 2.0))))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power(self):
        xs = np.logspace(-5, -1, 12)
        noise = 1.0 + 0.01 * rng.standard_normal(12)
        fit = fit_rate(list(zip(xs, xs**0.5 * noise)))
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0)])


def summary_row(eta=0.1, **kw):
    defaults = dict(
        eta=eta,
        delta_eff=0.2,
        alpha_or_kstar=0.3,
        err_mean=0.123456789012345678,
        err_kyfan=0.05,
        residual_mean=0.4,
        trials=50,
        truncated_count=2,
    )
    defaults.update(kw)
    return EtaSummary(**defaults)


class TestExport:
    def test_roundtrip_is_exact(self, tmp_path):
        rows = [summary_row(0.1), summary_row(0.03, err_mean=1.0 / 3.0)]
        path = tmp_path / "out.csv"
        export(rows, path)
        back = read_summaries(path)
        assert len(back) == 2
        for a, b in zip(rows, back):
            for col in CSV_COLUMNS:
                assert getattr(a, col) == getattr(b, col)

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        export([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_column_order(self, tmp_path):
        path = tmp_path / "cols.csv"
        export([summary_row()], path)
        header = path.read_text().splitlines()[0]
        assert header == "eta,delta_eff,alpha_or_kstar,err_mean,err_kyfan,residual_mean,trials,truncated_count"

    def test_io_error_has_path_context(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError) as info:
            export([summary_row()], missing_dir)
        assert "nope" in str(info.value)

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        export([summary_row(0.5)], path)
        before = path.read_bytes()
        calls = 0
        format_value = harness._format

        def failing_format(value):
            nonlocal calls
            calls += 1
            if calls > 12:  # partway through the second row
                raise RuntimeError("formatter failed")
            return format_value(value)

        monkeypatch.setattr(harness, "_format", failing_format)
        with pytest.raises(RuntimeError):
            export([summary_row(0.1), summary_row(0.03)], path)
        assert calls > 12
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            export([summary_row()], pipe)
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("row, fields", [("0.1,0.2,0.3", 3), ("0.1," * 8 + "9", 9)])
    def test_malformed_row_names_path_and_line(self, tmp_path, row, fields):
        path = tmp_path / "bad.csv"
        export([summary_row(0.1)], path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=f"bad.csv, line 3: expected 8 fields, got {fields}"):
            read_summaries(path)

    def test_autoconv_panels(self, tmp_path):
        rows = [summary_row(ratio_delta2_alpha=0.7)]
        path = tmp_path / "panels.csv"
        export_autoconv_panels(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eta,ratio_delta2_over_alpha,err"
        assert lines[1].startswith("0.1")


class TestFilterStudy:
    def test_repeat_runs_are_identical(self):
        cfg = filter_config(trials_per_eta=40)
        res1, res2 = run_study(cfg), run_study(cfg)
        assert res1.trials == res2.trials
        assert res1.summaries == res2.summaries

    def test_csv_determinism(self, tmp_path):
        cfg = filter_config(trials_per_eta=30, eta_grid=[0.1, 0.01])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export(run_study(cfg).summaries, p1)
        export(run_study(cfg).summaries, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_noise_sanity(self):
        cfg = filter_config(
            eta_grid=[1e-12],
            trials_per_eta=30,
            truth={"kind": "explicit", "values": [1.0] + [0.0] * 199},
            rule={"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 1.0, "constant": 1.0},
        )
        res = run_study(cfg)
        assert res.summaries[0].err_mean <= 1e-6

    def test_error_grows_with_eta(self):
        res = run_study(filter_config())
        etas = [s.eta for s in res.summaries]
        errs = [s.err_kyfan for s in res.summaries]
        rho, _ = spearmanr(etas, errs)
        assert rho >= 0.9

    def test_no_truncation_with_generous_caps(self):
        res = run_study(filter_config(trials_per_eta=30))
        assert all(s.truncated_count == 0 for s in res.summaries)

    def test_tight_caps_truncate_only_noisy_rows(self):
        cfg = filter_config(
            trials_per_eta=40,
            caps={"norm": 3.0, "sup": 3.0},  # ~1.3x the truth norm
        )
        res = run_study(cfg)
        fractions = [s.truncated_count / s.trials for s in res.summaries]
        assert fractions[-1] == 0.0  # caps never bind at the smallest eta
        assert fractions[0] >= fractions[-1]
        # truncated rows feed the zero solution into the mean error
        if res.summaries[0].truncated_count:
            assert res.summaries[0].err_mean >= res.summaries[0].err_kyfan * 0.5

    def test_discrepancy_rule_variant(self):
        cfg = filter_config(
            trials_per_eta=30,
            eta_grid=[0.01, 0.001],
            rule={"kind": "discrepancy", "tau1": 1.1, "tau2": 1.5},
        )
        res = run_study(cfg)
        for s in res.summaries:
            assert s.flagged_count == 0
            assert math.isfinite(s.alpha_or_kstar)

    def test_tsvd_filter_variant(self):
        cfg = filter_config(trials_per_eta=30, eta_grid=[0.01], solver={"filter": "tsvd"})
        res = run_study(cfg)
        assert res.summaries[0].err_mean < 5.25  # better than the zero solution

    def test_discrepancy_rule_with_a_zero_singular_value(self):
        # the kernel direction bounds the residual from below by |y_4|, about eta
        cfg = filter_config(
            trials_per_eta=30,
            eta_grid=[0.01, 0.001],
            operator={"kind": "diagonal", "singular_values": [1.0, 0.5, 0.25, 0.0]},
            truth={"kind": "explicit", "values": [1.0, -1.0, 0.5, 2.0]},
            rule={"kind": "discrepancy", "tau1": 1.1, "tau2": 1.5},
        )
        res = run_study(cfg)
        for s in res.summaries:
            assert s.flagged_count == 0
            assert math.isfinite(s.alpha_or_kstar)
        # the kernel component of the truth is lost, so no error falls below it
        assert all(t.error >= 2.0 for t in res.trials)

    @pytest.mark.parametrize("rule", [
        {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.5},
        {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 5.25, "constant": 1.575},
    ])
    def test_blocks_match_one_trial_at_a_time(self, monkeypatch, rule):
        # a sup cap under the truth's largest entry truncates most trials
        cfg = parse_config(dict(STUDY_CONFIGS["filter"], eta_grid=[0.1, 1e-2, 1e-3], rule=rule,
                                caps={"norm": 6.0, "sup": 2.0}))
        together = run_study(cfg)  # blocks of 20 trials at n = 200
        monkeypatch.setattr(harness, "_BLOCK_DOUBLES", 200)  # one trial per block
        alone = run_study(cfg)
        assert any(t.truncated for t in together.trials)
        assert together.trials == alone.trials
        assert together.summaries == alone.summaries

    def test_infeasible_trials_are_flagged_in_their_block(self, monkeypatch):
        # three zero singular values: a trial whose noise on them exceeds
        # tau2 * delta can fit no residual into the band, and reports the
        # zero solution, flagged, beside the trials that do
        cfg = filter_config(
            eta_grid=[0.1, 0.01], trials_per_eta=30,
            operator={"kind": "diagonal", "singular_values": [1.0, 0.0, 0.0, 0.0]},
            truth={"kind": "explicit", "values": [1.0, -1.0, 0.5, 2.0]},
            rule={"kind": "discrepancy", "tau1": 1.1, "tau2": 1.2},
            noise_level={"mode": "inflated-expectation", "tau": {"kind": "constant", "value": 1.01}},
        )
        together = run_study(cfg)
        flagged = [t for t in together.trials if t.flagged]
        assert flagged and len(flagged) < len(together.trials)
        assert all(math.isinf(t.alpha_or_kstar) for t in flagged)
        assert all(t.error == pytest.approx(2.5) for t in flagged)  # the truth's norm
        monkeypatch.setattr(harness, "_BLOCK_DOUBLES", 4)  # one trial per block
        assert run_study(cfg).trials == together.trials


class TestAutoconvStudy:
    def test_repeat_runs_are_identical(self):
        cfg = parse_config({
            "schema_version": 1, "study": "autoconv", "seed": 3,
            "eta_grid": [1e-2, 1e-3], "trials_per_eta": 30,
            "noise_level": {"mode": "inflated-expectation",
                            "tau": {"kind": "constant", "value": 1.3}},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "autoconv", "size": 32},
            "truth": {"kind": "two-bump", "amplitude": 0.31},
            "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
        })
        res1, res2 = run_study(cfg), run_study(cfg)
        assert res1.trials == res2.trials
        assert res1.summaries == res2.summaries

    def test_blocks_match_one_trial_at_a_time(self, monkeypatch):
        cfg = parse_config({
            "schema_version": 1, "study": "autoconv", "seed": 5,
            "eta_grid": [1e-1, 1e-2], "trials_per_eta": 30,
            "noise_level": {"mode": "inflated-expectation", "tau": {"kind": "log-inflating"}},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "autoconv", "size": 32},
            "truth": {"kind": "two-bump", "amplitude": 0.31},
            "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
        })
        together = run_study(cfg)  # one block holds all 30 trials at m = 32
        monkeypatch.setattr(harness, "_BLOCK_DOUBLES", 32)  # one trial per block
        alone = run_study(cfg)
        # trivial, flagged and in-band trials all occur, and one-trial blocks
        # of trivial data solve nothing
        assert any(math.isinf(t.alpha_or_kstar) for t in together.trials)
        assert any(t.flagged for t in together.trials)
        assert any(not t.flagged for t in together.trials)
        for a, b in zip(together.trials, alone.trials):
            assert (a.eta, a.trial, a.flagged, a.truncated) == (b.eta, b.trial, b.flagged, b.truncated)
            for field in ("alpha_or_kstar", "error", "error_truncated", "residual"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9)


class TestBesovStudy:
    @staticmethod
    def config(rule):
        return parse_config({
            "schema_version": 1, "study": "besov", "seed": 5,
            "eta_grid": [1e-3, 1e-4], "trials_per_eta": 30,
            "noise_level": {"mode": "kyfan-bound"},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "haar-diagonal", "levels": 6, "decay": 1.0},
            "truth": {"kind": "level-spikes", "norm": 1.0},
            "rule": rule,
            "solver": {"s": 1.0, "p": 1.0, "d": 1},
        })

    def test_summaries_and_alpha_rule(self):
        res = run_study(self.config({"kind": "kyfan-squared", "scale": 2.0}))
        for s in res.summaries:
            assert s.alpha_or_kstar == pytest.approx(2.0 * s.delta_eff**2)
        assert res.summaries[0].err_kyfan > res.summaries[1].err_kyfan

    def test_balance_rule_variant(self):
        from kyfanreg.rules import BesovBalanceParams, besov_balance_alpha

        res = run_study(self.config({"kind": "besov-balance", "constant": 1.0}))
        s = res.summaries[0]
        params = BesovBalanceParams(
            eta=1e-3, m=64, n=64, p=1.0, rho=1.0, zeta=1.5, beta=1.0
        )
        expected = besov_balance_alpha(params).alpha_tilde * 1e-6
        assert s.alpha_or_kstar == pytest.approx(expected, rel=1e-9)
        assert s.flagged_count == 0

    @pytest.mark.parametrize("p", [1.5, 1.0])
    def test_blocks_match_one_trial_at_a_time(self, monkeypatch, p):
        cfg = parse_config(dict(STUDY_CONFIGS["besov"], solver={"s": 1.0, "p": p, "d": 1}))
        together = run_study(cfg)  # one block holds all 30 trials at n = 64
        monkeypatch.setattr(harness, "_BLOCK_DOUBLES", 64)  # one trial per block
        alone = run_study(cfg)
        assert together.trials == alone.trials
        assert together.summaries == alone.summaries


class TestNuRandomStudy:
    def test_ratio_fields_and_determinism(self):
        raw = {
            "schema_version": 1, "study": "nu-random", "seed": 9,
            "eta_grid": [1e-2, 1e-3], "trials_per_eta": 60,
            "noise_level": {"mode": "kyfan-bound"},
            "caps": {"norm": 100.0, "sup": 100.0},
            "operator": {"kind": "diagonal-powerlaw", "size": 50, "decay": 1.0},
            "truth": {"kind": "random-source", "power": -0.5, "norm": 1.0},
            "rule": {"kind": "discrepancy-stop", "tau_hat": 2.5},
        }
        res1 = run_study(parse_config(raw))
        res2 = run_study(parse_config(raw))
        assert res1.trials == res2.trials
        for s in res1.summaries:
            assert s.rate_theory is not None and s.rate_theory > 0.0
            assert s.alpha_or_kstar >= 0.0

    @pytest.mark.parametrize("kmax, operator", [
        (2, {"kind": "diagonal-powerlaw", "size": 50, "decay": 1.0}),
        (10**7, {"kind": "haar-diagonal", "levels": 5, "decay": 1.0}),
    ])
    def test_blocks_match_one_trial_at_a_time(self, monkeypatch, kmax, operator):
        # eta = 1e-1 stops trials at k = 0, kmax = 2 stops the trials at
        # eta = 1e-3 short of the threshold, and the caps truncate
        cfg = parse_config(dict(STUDY_CONFIGS["nu-random"], eta_grid=[1e-1, 1e-2, 1e-3],
                                caps={"norm": 0.4, "sup": 0.4}, operator=operator,
                                solver={"kmax": kmax}))
        together = run_study(cfg)
        monkeypatch.setattr(harness, "_BLOCK_DOUBLES", 1)  # one trial per block
        alone = run_study(cfg)
        assert any(t.flagged for t in together.trials) == (kmax == 2)
        assert any(t.alpha_or_kstar == 0.0 for t in together.trials)
        assert any(t.truncated for t in together.trials)
        assert together.trials == alone.trials
        assert together.summaries == alone.summaries


class TestLandweberStopIndex:
    # residual^2 after k steps is 0.25^k: it first reaches 0.03 at k = 3,
    # which a search over powers of two alone misses when kmax = 3
    @example([(0.25, 1.0)], math.sqrt(0.03), 3, [])
    @example([(0.25, 1.0)], math.sqrt(0.03), 2, [])
    # the start already meets the threshold, and a threshold never reached
    @example([(0.5, 1.0)], 2.0, 4, [])
    @example([(0.99, 10.0)], 1e-3, 3, [])
    # one block with a row met at the start, one bisected and one never met
    @example([(0.25, 1.0)], math.sqrt(0.03), 3, [[0.01] * 5, [100.0] * 5])
    @given(
        st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 10.0)), min_size=1, max_size=5),
        st.floats(1e-3, 10.0),
        st.integers(1, 64),
        st.lists(st.lists(st.floats(0.0, 10.0), min_size=5, max_size=5), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, pairs, threshold, kmax, more_rows):
        # a (B, n) block: the drawn row, then more rows on the same q2
        q2, y_sq = (np.array(column) for column in zip(*pairs))
        block = np.array([y_sq] + [row[:q2.size] for row in more_rows])
        k_star, reached = harness._landweber_stop_index(q2, block, threshold, kmax)
        for row, k, met in zip(block, k_star, reached):
            brute = next(
                (j for j in range(kmax + 1)
                 if float(np.sum(q2**j * row)) <= threshold * threshold),
                None,
            )
            assert (k, met) == ((kmax, False) if brute is None else (brute, True))


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({
                "schema_version": 1, "study": "filter", "seed": 1,
                "eta_grid": [0.1], "trials_per_eta": 30,
                "noise_level": {"mode": "kyfan-bound"},
                "caps": {"norm": 1.0, "sup": 1.0},
                "operator": {"kind": "diagonal", "singular_values": [1.0]},
                "truth": {"kind": "explicit", "values": [1.0]},
                "rule": {"kind": "fixed", "alpha": 0.1},
                "workerz": 2,
            })

    def test_unknown_nested_key(self):
        cfg = {
            "schema_version": 1, "study": "filter", "seed": 1,
            "eta_grid": [0.1], "trials_per_eta": 30,
            "noise_level": {"mode": "kyfan-bound", "extra": 1},
            "caps": {"norm": 1.0, "sup": 1.0},
            "operator": {"kind": "diagonal", "singular_values": [1.0]},
            "truth": {"kind": "explicit", "values": [1.0]},
            "rule": {"kind": "fixed", "alpha": 0.1},
        }
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(cfg)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": 2, "study": "filter", "seed": 1,
                          "eta_grid": [0.1], "trials_per_eta": 30,
                          "noise_level": {"mode": "kyfan-bound"},
                          "caps": {"norm": 1.0, "sup": 1.0},
                          "operator": {"kind": "diagonal", "singular_values": [1.0]},
                          "truth": {"kind": "explicit", "values": [1.0]},
                          "rule": {"kind": "fixed", "alpha": 0.1}})

    def test_grid_must_decrease(self):
        with pytest.raises(ConfigError, match="decreasing"):
            filter_config(eta_grid=[0.01, 0.1])

    def test_minimum_trials(self):
        with pytest.raises(ConfigError, match="30"):
            filter_config(trials_per_eta=10)

    def test_workers_key_rejected(self):
        # trials run in one process: a worker count would set nothing
        with pytest.raises(ConfigError, match="unknown key.*workers"):
            filter_config(workers=4)

    def test_unknown_solver_keys_are_named(self):
        with pytest.raises(ConfigError, match="config.solver") as info:
            filter_config(solver={"filtre": "tsvd", "max_iterz": 3})
        assert "filtre" in str(info.value) and "max_iterz" in str(info.value)

    def test_solver_keys_belong_to_the_study(self):
        assert filter_config(solver={"filter": "tsvd"}).solver == {"filter": "tsvd"}
        # a nu-random key is not a filter-study key
        with pytest.raises(ConfigError, match="kmax"):
            filter_config(solver={"kmax": 10})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            filter_config(seed=seed)

    def test_largest_seed_accepted(self):
        assert filter_config(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("study, key, value, match", [
        # PyYAML reads 1e-6 without a dot as a string
        ("besov", "solver", {"s": "1e-6"}, "config.solver.s: expected a number"),
        ("filter", "operator", {"kind": "autoconv", "size": 32}, "not usable in the filter study"),
        ("besov", "rule", {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 1.0},
         "not usable in the besov study"),
        ("nu-random", "operator", {"kind": "csv", "path": "matrix.csv"},
         "not usable in the nu-random study"),
        ("filter", "solver", {"filter": "landweber"}, "config.solver.filter: expected one of"),
        ("besov", "solver", {"d": 1.5}, "config.solver.d: expected an integer"),
        ("nu-random", "truth", {"kind": "explicit", "values": [1.0]},
         "not usable in the nu-random study"),
        # operator and truth specs are checked by building them
        ("filter", "operator", {"kind": "diagonal-powerlaw", "size": 0, "decay": 1.0},
         "config.operator: singular_values must be a non-empty"),
        ("autoconv", "operator", {"kind": "autoconv", "size": 0},
         "config.operator: length must be a power of two"),
        ("autoconv", "operator", {"kind": "autoconv", "size": 100},
         "config.operator: length must be a power of two"),
        ("besov", "operator", {"kind": "haar-diagonal", "levels": 0, "decay": 1.0},
         "config.operator.levels: must be a positive integer"),
        ("filter", "truth", {"kind": "explicit", "values": [1.0, 0.0]},
         "config.truth: explicit truth has 2 values, but the solution length is 200"),
        # the discrepancy rule solves by Tikhonov whatever the filter
        ("filter", "solver", {"filter": "tsvd"}, "config.solver.filter: tsvd cannot be used"),
        ("nu-random", "operator", {"kind": "diagonal", "singular_values": [math.inf, 1.0]},
         "config.operator: singular values must be finite"),
        ("nu-random", "operator", {"kind": "diagonal", "singular_values": [math.nan]},
         "config.operator: singular values must be finite"),
        # YAML's .inf and .nan are numbers, but every setting must be finite
        ("filter", "eta_grid", [math.inf, 1e-2],
         r"config.eta_grid\[\*\]: expected a finite number"),
        ("filter", "caps", {"norm": math.nan, "sup": 100.0},
         "config.caps.norm: expected a finite number"),
        ("filter", "noise_level",
         {"mode": "inflated-expectation", "tau": {"kind": "constant", "value": math.inf}},
         "config.noise_level.tau.value: expected a finite number"),
        ("filter", "rule", {"kind": "apriori", "beta": 0.5, "nu": math.inf, "rho": 1.0},
         "config.rule.nu: expected a finite number"),
        # an integer too large for a double is not finite either
        ("filter", "eta_grid", [10**400, 1e-2],
         r"config.eta_grid\[\*\]: expected a finite number"),
        # a linear operator is given by its singular values; no dense matrix is read
        ("filter", "operator", {"kind": "csv", "path": "a.csv"}, "not usable in the filter study"),
    ])
    def test_study_mismatch_fails_at_parse(self, study, key, value, match):
        raw = dict(STUDY_CONFIGS[study], **{key: value})
        with pytest.raises(ConfigError, match=match):
            parse_config(raw)

    def test_long_value_is_shortened_in_the_message(self):
        with pytest.raises(ConfigError, match=r"config.eta_grid\[\*\]") as info:
            parse_config(dict(STUDY_CONFIGS["filter"], eta_grid=[10**400, 1e-2]))
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("study, key, value", [
        ("autoconv", "tol", 1e-6),
        ("autoconv", "max_iter", 800),
        ("autoconv", "max_budget", 6400),
        ("autoconv", "total_budget", 20000),
        ("autoconv", "max_alpha_steps", 40),
        ("autoconv", "step_safety", 0.9),
        ("nu-random", "gamma", 0.5),
    ])
    def test_removed_solver_keys_rejected(self, study, key, value):
        # the studies fix these settings, so a config may not set them even to those values
        with pytest.raises(ConfigError, match=rf"config.solver: unknown key\(s\) \['{key}'\]"):
            parse_config(dict(STUDY_CONFIGS[study], solver={key: value}))

    @pytest.mark.parametrize("study, key", [
        ("nu-random", "kmax"),
        ("besov", "d"),
    ])
    def test_integer_solver_keys_at_least_one(self, study, key):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"config.solver.{key}: must be at least 1"):
                parse_config(dict(STUDY_CONFIGS[study], solver={key: value}))
        assert parse_config(dict(STUDY_CONFIGS[study], solver={key: 1})).solver[key] == 1

    @pytest.mark.parametrize("solver, match", [
        ({"p": 0.5}, "config.solver.p: must lie in"),
        ({"p": 2.5}, "config.solver.p: must lie in"),
        ({"s": 0.0, "p": 2.0}, "config.solver.s: smoothness too low"),
        ({"s": -1.0, "p": 1.5}, "config.solver.s: smoothness too low"),
    ])
    def test_besov_smoothness_checked_at_parse(self, solver, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(dict(STUDY_CONFIGS["besov"], solver=solver))

    def test_solver_defaults_filled_in(self):
        assert parse_config(STUDY_CONFIGS["autoconv"]).solver == {}
        assert parse_config(STUDY_CONFIGS["filter"]).solver == {"filter": "tikhonov"}
        assert parse_config(STUDY_CONFIGS["besov"]).solver == {"s": 1.0, "p": 1.5, "d": 1}
        assert parse_config(STUDY_CONFIGS["nu-random"]).solver == {"kmax": 10**7}

    def test_rejects_deflating_tau(self):
        with pytest.raises(ConfigError):
            filter_config(noise_level={"mode": "inflated-expectation",
                                       "tau": {"kind": "constant", "value": 0.9}})

    def test_readme_configs_parse(self):
        # every YAML block in the README is a config the parser accepts
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.M | re.S)
        assert blocks
        for block in blocks:
            parse_config(yaml.safe_load(block))

    def test_readme_solver_keys_match_specs(self):
        # the README's per-study table names exactly the operator, truth and
        # rule kinds and the solver keys each study takes
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 5 and cells[0].strip("`") in _STUDY_SPECS:
                kinds = [set(re.findall(r"`([\w-]+)`", cell)) for cell in cells[1:4]]
                # a key is written `name` (default); "none" names no key
                keys = set(re.findall(r"`([\w-]+)` \(", cells[4]))
                rows[cells[0].strip("`")] = (*kinds, keys)
        assert rows == {
            study: (set(spec["operator"]), set(spec["truth"]), set(spec["rule"]), set(spec["solver"]))
            for study, spec in _STUDY_SPECS.items()
        }


# One small config per study; the summaries below were computed by the
# per-study loops this driver replaced, and are printed at 17 digits.
STUDY_CONFIGS = {
    "filter": {
        "schema_version": 1, "study": "filter", "seed": 42,
        "eta_grid": [1e-2, 1e-3], "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 200, "decay": 1.0},
        "truth": {"kind": "source-powerlaw", "exponent": 0.5, "power": -0.5, "norm": 5.25},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.5},
    },
    "autoconv": {
        "schema_version": 1, "study": "autoconv", "seed": 5,
        "eta_grid": [1e-1, 1e-2], "trials_per_eta": 30,
        "noise_level": {"mode": "inflated-expectation", "tau": {"kind": "log-inflating"}},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "autoconv", "size": 32},
        "truth": {"kind": "two-bump", "amplitude": 0.31},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    },
    "besov": {
        "schema_version": 1, "study": "besov", "seed": 5,
        "eta_grid": [1e-3, 1e-4], "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "haar-diagonal", "levels": 6, "decay": 1.0},
        "truth": {"kind": "level-spikes", "norm": 1.0},
        "rule": {"kind": "besov-balance", "constant": 1.0},
        "solver": {"s": 1.0, "p": 1.5, "d": 1},
    },
    "nu-random": {
        "schema_version": 1, "study": "nu-random", "seed": 9,
        "eta_grid": [1e-2, 1e-3], "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 50, "decay": 1.0},
        "truth": {"kind": "random-source", "power": -0.5, "norm": 1.0},
        "rule": {"kind": "discrepancy-stop", "tau_hat": 2.5},
    },
}

# (eta, delta_eff, alpha_or_kstar, err_mean, err_kyfan, residual_mean, trials,
#  truncated_count, flagged_count, ratio_delta2_alpha, rate_theory) per eta
PINNED_SUMMARIES = {
    "filter": [
        (0.01, 0.20000000000000004, 0.07498942093324558, 0.42763616039050817,
         0.43090290910476453, 0.23432380333440614, 30, 0, 0, None, None),
        (0.001, 0.020000000000000004, 0.005623413251903491, 0.12292904661259504,
         0.13097719248422238, 0.02381940065819717, 30, 0, 0, None, None),
    ],
    "autoconv": [
        (0.1, 0.5656854249492381, 0.18166764880760536, 1.7530079013864006,
         0.8, 0.6871686757043242, 30, 0, 6, 2.4233106388152934, None),
        (0.01, 0.05656854249492381, 0.023328161839512754, 0.36230409209006104,
         0.36573032660997884, 0.06794476544209921, 30, 0, 0, 0.2804104400362551, None),
    ],
    "besov": [
        (0.001, 0.011313708498984762, 9.335215843294253e-08, 0.15812697214861207,
         0.1763330782445417, 0.004096321120359548, 30, 0, 0, None, None),
        (0.0001, 0.001131370849898476, 1.6397566499069325e-11, 0.038884135802787184,
         0.04698597961911627, 4.64890982172936e-07, 30, 0, 0, None, None),
    ],
    "nu-random": [
        (0.01, 0.10000000000000002, 1.0, 0.38698782908366053,
         0.3882581077075918, 0.14014551540524944, 30, 0, 0, None, 0.3990129782602521),
        (0.001, 0.010000000000000002, 25.133333333333333, 0.20780085363373146,
         0.24660291568225676, 0.024537754640476455, 30, 0, 0, None, 0.27798742480956057),
    ],
}


@pytest.mark.parametrize("study", sorted(PINNED_SUMMARIES))
def test_pinned_summaries(study):
    res = run_study(parse_config(STUDY_CONFIGS[study]))
    assert res.study == study
    assert len(res.summaries) == len(PINNED_SUMMARIES[study])
    for s, pinned in zip(res.summaries, PINNED_SUMMARIES[study]):
        got = (s.eta, s.delta_eff, s.alpha_or_kstar, s.err_mean, s.err_kyfan, s.residual_mean,
               s.trials, s.truncated_count, s.flagged_count, s.ratio_delta2_alpha, s.rate_theory)
        for value, want in zip(got, pinned):
            if isinstance(want, float):
                assert value == pytest.approx(want, rel=1e-12)
            else:  # counts and absent fields compare exactly
                assert value == want
