"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is fixed here; nothing is calibrated at runtime.  Run with
plain ``pytest tests/test_acceptance.py`` (the lines print live even without
``-s``).
"""

import math
import time

import numpy as np

from kyfanreg import (
    BesovBalanceParams,
    ConstantTau,
    EmpiricalSample,
    InflatedExpectation,
    KyFanBound,
    LogInflatingTau,
    NoiseSpec,
    besov_balance_alpha,
    combined_model,
    delta_eff,
    empirical_kyfan,
    expected_norm,
    fit_rate,
    heavy_tail_model,
    kyfan_bound_gaussian,
    nu_effective,
    parse_config,
    run_study,
    sample_noise,
    tail_prob_tau,
    tikhonov_rate_predict,
    trial_rng,
    uniform_source_model,
)
from kyfanreg.operators import (
    AutoconvGrid,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
    autoconv_derivative_apply,
    haar_forward,
    haar_inverse,
)
from kyfanreg.regularization import Tikhonov, Tsvd, filter_value, prox_weighted_lp
from kyfanreg.special import lambert_w0, ln_gamma, reg_gamma_q


def report(capsys, number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {status}: {detail} [{elapsed:.1f} s / budget {budget:.0f} s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget ({elapsed:.1f} s)"


def test_criterion_1_gaussian_tail_identity(capsys):
    start = time.perf_counter()
    trials = 200_000
    worst = 0.0
    for m in (1, 4, 16):
        spec = NoiseSpec(eta=1.0, m=m)
        norms = np.linalg.norm(sample_noise(spec, seed=1001 + m, trials=trials), axis=1)
        mean_norm = expected_norm(spec)
        for tau in (1.2, 1.5, 2.0):
            p = tail_prob_tau(tau, m)
            # the identity takes no eta: bit-identical across noise levels
            assert p == tail_prob_tau(tau, m)
            freq = float(np.mean(norms >= tau * mean_norm))
            sd = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            worst = max(worst, abs(freq - p) / (3.0 * sd))
    elapsed = time.perf_counter() - start
    report(capsys, 1, worst <= 1.0,
           f"tail identity vs Monte Carlo, worst deviation {worst:.2f} of 3 binomial sd",
           elapsed, 10.0)


def test_criterion_2_kyfan_bound_containment(capsys):
    start = time.perf_counter()
    trials = 100_000
    slack = 2.0 / math.sqrt(trials)
    worst_margin = math.inf
    ok = True
    for eta in (1e-1, 1e-2, 1e-3):
        for m in (1, 4, 16):
            spec = NoiseSpec(eta=eta, m=m)
            norms = np.linalg.norm(sample_noise(spec, seed=2024, trials=trials), axis=1)
            est = empirical_kyfan(EmpiricalSample.from_values(norms))
            bound = kyfan_bound_gaussian(spec)
            ok = ok and (est <= bound + slack)
            worst_margin = min(worst_margin, bound + slack - est)
    elapsed = time.perf_counter() - start
    report(capsys, 2, ok,
           f"empirical Ky Fan within analytic bound, smallest margin {worst_margin:.4g}",
           elapsed, 10.0)


def test_criterion_3_filter_order_optimality(capsys):
    start = time.perf_counter()
    cfg = parse_config({
        "schema_version": 1,
        "study": "filter",
        "seed": 42,
        "eta_grid": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
        "trials_per_eta": 200,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 200, "decay": 1.0},
        "truth": {"kind": "source-powerlaw", "exponent": 0.5, "power": -0.5, "norm": 5.25},
        "rule": {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 5.25, "constant": 1.575},
    })
    res = run_study(cfg)
    fit = fit_rate([(s.delta_eff, s.err_kyfan) for s in res.summaries])
    elapsed = time.perf_counter() - start
    report(capsys, 3, abs(fit.slope - 0.5) <= 0.1,
           f"order-optimal rate: slope {fit.slope:.3f} (target 0.5 +/- 0.1, r^2 {fit.r_squared:.3f})",
           elapsed, 60.0)


def test_criterion_4_stochastic_tikhonov_rate_exponents(capsys):
    start = time.perf_counter()
    rhos = np.logspace(-1, -6, 6)
    uniform_fit = fit_rate(
        [(r, tikhonov_rate_predict(r, uniform_source_model()).bound) for r in rhos]
    )
    floor_c = 0.25
    floors = [tikhonov_rate_predict(r, heavy_tail_model(c=floor_c)).bound for r in rhos]
    combined_fit = fit_rate(
        [(r, tikhonov_rate_predict(r, combined_model()).bound) for r in rhos]
    )
    ok = (
        abs(uniform_fit.slope - 1.0 / 3.0) <= 0.02
        and all(b >= floor_c for b in floors)
        and abs(combined_fit.slope - 0.25) <= 0.02
    )
    elapsed = time.perf_counter() - start
    report(capsys, 4, ok,
           f"rate exponents: uniform {uniform_fit.slope:.4f} (1/3 +/- 0.02), "
           f"heavy-tail floor >= {floor_c}, combined {combined_fit.slope:.4f} (1/4 +/- 0.02)",
           elapsed, 5.0)


def _autoconv_config(tau_spec):
    return parse_config({
        "schema_version": 1,
        "study": "autoconv",
        "seed": 42,
        "eta_grid": [1e-1, 1e-2, 1e-3, 1e-4],
        "trials_per_eta": 100,
        "noise_level": {"mode": "inflated-expectation", "tau": tau_spec},
        "caps": {"norm": 1000.0, "sup": 1000.0},
        "operator": {"kind": "autoconv", "size": 128},
        "truth": {"kind": "two-bump", "amplitude": 0.31},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    })


def test_criterion_5_autoconvolution_figure_behavior(capsys):
    start = time.perf_counter()
    res_const = run_study(_autoconv_config({"kind": "constant", "value": 1.3}))
    ratios_const = [s.ratio_delta2_alpha for s in res_const.summaries]
    res_log = run_study(_autoconv_config({"kind": "log-inflating"}))
    ratios_log = [s.ratio_delta2_alpha for s in res_log.summaries]
    const_ok = all(r >= 0.5 * ratios_const[0] for r in ratios_const)
    log_ok = ratios_log[-1] <= ratios_log[0] / 5.0
    elapsed = time.perf_counter() - start
    detail = (
        f"constant tau ratio {['%.3g' % r for r in ratios_const]} stays above half its start; "
        f"log-inflating ratio {['%.3g' % r for r in ratios_log]} falls "
        f"{ratios_log[0] / ratios_log[-1]:.1f}x (need >= 5x)"
    )
    report(capsys, 5, const_ok and log_ok, detail, elapsed, 300.0)


def test_criterion_6_lambert_w_effective_rate(capsys):
    start = time.perf_counter()
    residual_ok = True
    for rho in (1e-2, 1e-4, 1e-6):
        est = nu_effective(rho)
        residual = rho ** (2.0 * est.nu_exact / (2.0 * est.nu_exact + 1.0)) - 2.0 * est.nu_exact
        residual_ok = residual_ok and abs(residual) <= 1e-12
    gap_coarse = abs(nu_effective(1e-2).nu_approx - nu_effective(1e-2).nu_exact) / nu_effective(1e-2).nu_exact
    gap_fine = abs(nu_effective(1e-6).nu_approx - nu_effective(1e-6).nu_exact) / nu_effective(1e-6).nu_exact
    approx_ok = gap_fine < gap_coarse

    cfg = parse_config({
        "schema_version": 1,
        "study": "nu-random",
        "seed": 17,
        "eta_grid": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
        "trials_per_eta": 300,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 100, "decay": 1.0},
        "truth": {"kind": "random-source", "power": -0.5, "norm": 1.0},
        "rule": {"kind": "discrepancy-stop", "tau_hat": 2.5},
    })
    res = run_study(cfg)
    ratios = [s.err_kyfan / s.rate_theory for s in res.summaries]
    ratio_ok = all(0.1 <= r <= 10.0 for r in ratios)
    elapsed = time.perf_counter() - start
    report(capsys, 6, residual_ok and approx_ok and ratio_ok,
           f"nu equation residual <= 1e-12; relative gap {gap_coarse:.3f} -> {gap_fine:.3f}; "
           f"error/rate ratios {['%.2f' % r for r in ratios]} within [0.1, 10]",
           elapsed, 120.0)


def test_criterion_7_besov_balancing_and_lifted_rate(capsys):
    start = time.perf_counter()
    params = BesovBalanceParams(eta=1e-3, m=256, n=256, p=1.0, rho=1.0, zeta=1.5, beta=1.0)
    balance = besov_balance_alpha(params)
    rel_gap = abs(balance.gap) / max(abs(balance.lhs), abs(balance.rhs))
    balance_ok = rel_gap <= 1e-8

    cfg = parse_config({
        "schema_version": 1,
        "study": "besov",
        "seed": 5,
        "eta_grid": [3e-3, 1e-3, 3e-4, 1e-4, 3e-5],
        "trials_per_eta": 200,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "haar-diagonal", "levels": 8, "decay": 1.0},
        "truth": {"kind": "level-spikes", "norm": 1.0},
        "rule": {"kind": "kyfan-squared", "scale": 1.0},
        "solver": {"s": 1.0, "p": 1.0, "d": 1},
    })
    res = run_study(cfg)
    fit = fit_rate([(s.delta_eff, s.err_kyfan) for s in res.summaries])
    target = 1.5 / (1.5 + 1.0)  # zeta/(zeta+beta)
    slope_ok = abs(fit.slope - target) <= 0.1
    elapsed = time.perf_counter() - start
    report(capsys, 7, balance_ok and slope_ok,
           f"balance self-residual {rel_gap:.2e} (<= 1e-8) at alpha~={balance.alpha_tilde:.4g}; "
           f"lifted slope {fit.slope:.3f} (target {target} +/- 0.1)",
           elapsed, 120.0)


def test_criterion_8_property_suites(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = []

    grid = AutoconvGrid(64)
    x, v, r = (rng.standard_normal(64) for _ in range(3))
    taylor = (
        autoconv_apply(grid, x + v)
        - autoconv_apply(grid, x)
        - autoconv_derivative_apply(grid, x, v)
        - autoconv_apply(grid, v)
    )
    checks.append(("autoconv exact Taylor", float(np.max(np.abs(taylor))) <= 1e-12))
    adjoint_gap = abs(
        autoconv_derivative_apply(grid, x, v) @ r
        - v @ autoconv_derivative_adjoint_apply(grid, x, r)
    )
    checks.append(("autoconv adjoint identity", adjoint_gap <= 1e-12))

    xs = rng.standard_normal(256)
    coeffs = haar_forward(xs)
    checks.append(
        ("Haar Parseval", abs(np.linalg.norm(coeffs) - np.linalg.norm(xs)) <= 1e-12)
    )
    checks.append(
        ("Haar roundtrip", float(np.max(np.abs(haar_inverse(coeffs) - xs))) <= 1e-12)
    )

    sigmas = np.logspace(-6, 0, 400)
    alphas = np.logspace(-8, 0, 25)
    for name, make in (("Tikhonov", Tikhonov), ("TSVD", Tsvd)):
        sups = [np.max(filter_value(make(a), sigmas) / sigmas) for a in alphas]
        slope = np.polyfit(np.log(alphas), np.log(sups), 1)[0]
        checks.append((f"{name} filter-condition slope", abs(slope + 0.5) <= 0.02))

    prox_ok = True
    for vv in np.linspace(-5.0, 5.0, 11):
        for t in (0.1, 1.0, 3.0):
            xp = prox_weighted_lp(vv, t, 1.5)
            prox_ok = prox_ok and abs(xp + t * 1.5 * np.sign(xp) * abs(xp) ** 0.5 - vv) <= 1e-12
    checks.append(("prox defining-equation residual", prox_ok))

    checks.append(("ln_gamma(0.5)", abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12))
    checks.append(("Q(1, z) = exp(-z)", abs(reg_gamma_q(1.0, 0.7854) - math.exp(-0.7854)) <= 1e-12))
    w = lambert_w0(1.0)
    checks.append(("Lambert W residual", abs(w * math.exp(w) - 1.0) <= 1e-12))

    failed = [name for name, ok in checks if not ok]
    elapsed = time.perf_counter() - start
    report(capsys, 8, not failed,
           f"{len(checks)} property checks" + (f"; failed: {failed}" if failed else " all hold"),
           elapsed, 10.0)


def test_criterion_9_convergence_without_a_source_condition(capsys):
    # x_k ~ k^-0.51 under sigma_k = k^-1 meets a source condition only for
    # nu < 0.01: the convergence theorem (error -> 0 when delta -> 0 and
    # delta^2 / alpha -> 0) applies, no rate theorem does
    start = time.perf_counter()
    cfg = parse_config({
        "schema_version": 1,
        "study": "filter",
        "seed": 3,
        "eta_grid": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
        "trials_per_eta": 200,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 100.0, "sup": 100.0},
        "operator": {"kind": "diagonal-powerlaw", "size": 2000, "decay": 1.0},
        "truth": {"kind": "source-powerlaw", "exponent": 0.0, "power": -0.51, "norm": 1.0},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    })
    res = run_study(cfg)
    # where delta_eff is capped at 1, every trial is the zero solution and
    # the Ky Fan error is exactly 1: the claim starts past those etas
    live = [s for s in res.summaries if s.err_kyfan < 1.0]
    errs = [s.err_kyfan for s in live]
    ratios = [s.delta_eff**2 / s.alpha_or_kstar for s in live]
    largest_rise = max(b - a for a, b in zip(errs, errs[1:]))
    ok = (
        len(live) >= 3
        and largest_rise <= 0.0
        and errs[-1] <= 0.5 * errs[0]
        and ratios[-1] < ratios[0]
    )
    elapsed = time.perf_counter() - start
    report(capsys, 9, ok,
           f"err_kyfan {['%.3g' % s.err_kyfan for s in res.summaries]}: largest rise past the "
           f"capped etas {largest_rise:.3g} (<= 0), last/first {errs[-1] / errs[0]:.3f} (<= 0.5); "
           f"delta^2/alpha {ratios[0]:.3g} -> {ratios[-1]:.3g} (must fall); "
           f"{sum(s.flagged_count for s in res.summaries)} flagged",
           elapsed, 30.0)


def test_criterion_10_lifting_mechanism_trial_by_trial(capsys):
    # The lifting theorem, trial by trial, on criterion 3's problem
    # (x = (A*A)^(1/2) z, ||z|| = 5.25).  Good event ||eps|| <= delta_eff:
    # the Tikhonov error obeys its deterministic bound at that delta,
    # sqrt(alpha) ||z|| / 2 + delta_eff / (2 sqrt(alpha)), where 1/2 is
    # mu^mu (1 - mu)^(1 - mu) at mu = 1/2.  Bad event ||eps|| > delta_eff:
    # its frequency is at most delta_eff, up to 3 binomial sd, which is what
    # a Ky Fan level means.
    start = time.perf_counter()
    source_norm = 5.25
    rules = (
        {"kind": "apriori", "beta": 0.5, "nu": 1.0, "rho": 5.25, "constant": 1.575},
        {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    )
    sizes = ((200, 200, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]), (16, 2000, [3e-2, 1e-2, 3e-3, 1e-3]))
    worst_ratio, good_trials, tightest = 0.0, 0, None
    ok = True
    for n, trials, etas in sizes:
        # the study's own draw: trial t at eta index i reads trial_rng(seed, i << 32 | t)
        noise_norms = [
            np.array([np.linalg.norm(eta * trial_rng(42, (i << 32) | t).standard_normal(n))
                      for t in range(trials)])
            for i, eta in enumerate(etas)
        ]
        for rule in rules:
            res = run_study(parse_config({
                "schema_version": 1,
                "study": "filter",
                "seed": 42,
                "eta_grid": etas,
                "trials_per_eta": trials,
                "noise_level": {"mode": "kyfan-bound"},
                "caps": {"norm": 100.0, "sup": 100.0},
                "operator": {"kind": "diagonal-powerlaw", "size": n, "decay": 1.0},
                "truth": {"kind": "source-powerlaw", "exponent": 0.5, "power": -0.5,
                          "norm": source_norm},
                "rule": rule,
            }))
            for i, summary in enumerate(res.summaries):
                records = res.trials[i * trials:(i + 1) * trials]
                delta = summary.delta_eff
                for record, norm in zip(records, noise_norms[i], strict=True):
                    alpha = record.alpha_or_kstar
                    if norm <= delta and math.isfinite(alpha):
                        bound = 0.5 * math.sqrt(alpha) * source_norm + delta / (2.0 * math.sqrt(alpha))
                        worst_ratio = max(worst_ratio, record.error / bound)
                        good_trials += 1
                bad = int(np.sum(noise_norms[i] > delta))
                allowed = trials * (delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials))
                ok = ok and bad <= allowed
                if delta < 1.0 and (tightest is None or allowed - bad < tightest[0]):
                    tightest = (allowed - bad, bad, allowed, n, etas[i])
    ok = ok and good_trials > 0 and worst_ratio <= 1.0
    elapsed = time.perf_counter() - start
    margin, bad, allowed, n, eta = tightest
    report(capsys, 10, ok,
           f"good event: worst error/bound {worst_ratio:.3f} (<= 1) over {good_trials} trials; "
           f"bad event: tightest margin {margin:.1f} trials ({bad} of at most {allowed:.1f} "
           f"at n = {n}, eta = {eta:g})",
           elapsed, 30.0)


def test_criterion_11_which_noise_levels_are_kyfan_levels(capsys):
    # The premise of lifting: delta_eff is a Ky Fan level, P(||eps|| > delta)
    # <= delta.  For each mode, m and eta, count how many of N draws of ||eps||
    # exceed delta and compare with N (delta' + 3 sqrt(delta' (1 - delta') / N)),
    # delta' = min(delta, 1).  The chi-square tail P = Q(m/2, delta^2 / (2 eta^2))
    # predicts each cell: it must hold where NP + 3 sd is at or below that
    # threshold, and fail where NP - 3 sd is above it.  Cells in between are
    # only reported.
    start = time.perf_counter()
    trials = 2000
    modes = {
        "kyfan-bound": KyFanBound(),
        "constant tau 1.3": InflatedExpectation(tau=ConstantTau(1.3)),
        "log tau": InflatedExpectation(tau=LogInflatingTau()),
    }
    etas = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    held, failed, between, wrong = 0, 0, [], []
    for cell, (m, eta) in enumerate((m, eta) for m in (4, 16, 128) for eta in etas):
        spec = NoiseSpec(eta=eta, m=m)
        norms = np.linalg.norm(sample_noise(spec, seed=1100 + cell, trials=trials), axis=1)
        for name, mode in modes.items():
            delta = delta_eff(spec, mode)
            capped = min(delta, 1.0)
            allowed = trials * (capped + 3.0 * math.sqrt(capped * (1.0 - capped) / trials))
            bad = int(np.sum(norms > delta))
            expected = trials * reg_gamma_q(m / 2.0, delta**2 / (2.0 * eta**2))
            spread = 3.0 * math.sqrt(expected * (1.0 - expected / trials))
            where = f"{name}, m = {m}, eta = {eta:g}: {bad} of at most {allowed:.1f}"
            if expected + spread <= allowed:
                held += 1
                if bad > allowed:
                    wrong.append(f"{where} (predicted to hold)")
            elif expected - spread > allowed:
                failed += 1
                if bad <= allowed:
                    wrong.append(f"{where} (predicted to fail)")
            else:
                between.append(f"{where} (predicted {expected:.1f})")
    elapsed = time.perf_counter() - start
    report(capsys, 11, not wrong and held > 0 and failed > 0,
           f"{held} cells hold and {failed} fail as the chi-square tail predicts; "
           f"mispredicted: {'; '.join(wrong) or 'none'}; "
           f"not asserted: {'; '.join(between) or 'none'}",
           elapsed, 10.0)


def test_criterion_12_lifted_rate_for_the_nonlinear_problem(capsys):
    # Criterion 5's autoconvolution problem under the kyfan-bound level.  l1
    # Tikhonov under the discrepancy principle converges at O(delta) given a
    # source condition and restricted injectivity (Grasmair, Haltmeier and
    # Scherzer 2008; Anzengruber and Ramlau 2010), and both hold here: F'(x)
    # at the two-bump truth is invertible in Haar coefficients, and the truth
    # has 6 nonzero ones.  Lifted, err_kyfan = O(delta_eff); the O(delta)
    # regime starts near delta_eff ~ 5e-3, so the slope is fitted over the
    # last four etas.
    start = time.perf_counter()
    res = run_study(parse_config({
        "schema_version": 1,
        "study": "autoconv",
        "seed": 42,
        "eta_grid": [1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6],
        "trials_per_eta": 30,
        "noise_level": {"mode": "kyfan-bound"},
        "caps": {"norm": 1000.0, "sup": 1000.0},
        "operator": {"kind": "autoconv", "size": 128},
        "truth": {"kind": "two-bump", "amplitude": 0.31},
        "rule": {"kind": "discrepancy", "tau1": 1.1, "tau2": 1.3},
    }))
    fit = fit_rate([(s.delta_eff, s.err_kyfan) for s in res.summaries[-4:]])
    flagged = sum(s.flagged_count for s in res.summaries)
    elapsed = time.perf_counter() - start
    report(capsys, 12, abs(fit.slope - 1.0) <= 0.2 and flagged == 0,
           f"err_kyfan {['%.3g' % s.err_kyfan for s in res.summaries]}: slope in delta_eff "
           f"over the last four etas {fit.slope:.3f} (1 +/- 0.2); {flagged} flagged (need 0)",
           elapsed, 60.0)
