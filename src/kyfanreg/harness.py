"""Monte Carlo experiment runner, rate fitting, and result export.

A study runs the lifting loop: per trial, draw Gaussian noise, compute the
effective noise level (Ky Fan bound or inflated expectation), run the
deterministic parameter-choice rule and solver, and record the
reconstruction error.  Per-eta summaries report the mean error of the
truncated solutions, the empirical Ky Fan error of the raw errors, and the
mean chosen parameter.

Determinism: every trial draws from a generator keyed by
(seed, eta_index << 32 | trial), and trials run serially in trial order,
so the config's ``workers`` value changes neither the outputs nor the
scheduling; summaries are reduced in trial order.  The autoconvolution
study solves the trials of an eta together, in blocks fixed by the grid
size and the trial order, so its outputs repeat exactly as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import BesovBalanceRule, ExperimentConfig, KyFanSquared
from .noise import (
    NoiseSpec,
    delta_eff,
    empirical_kyfan,
    EmpiricalSample,
    trial_rng,
    truncate_solution,
)
from .operators import (
    AutoconvGrid,
    SvdOperator,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
    autoconv_derivative_apply,
    besov_weights,
    haar_forward,
    haar_level_indices,
)
from .regularization import (
    LandweberFilter,
    NonConvergence,
    Tikhonov,
    Tsvd,
    filter_reconstruct,
    operator_norm_squared,
    prox_gradient_solve,
    prox_weighted_lp,
)
from .rules import (
    AprioriFilter,
    BesovBalanceParams,
    Discrepancy,
    DiscrepancyStop,
    Fixed,
    NoBracket,
    NoFeasibleAlpha,
    apriori_filter_alpha,
    besov_balance_alpha,
    discrepancy_alpha,
)
from .special import lambert_w0

__all__ = [
    "TrialResult",
    "EtaSummary",
    "StudyResult",
    "RateFit",
    "run_study",
    "fit_rate",
    "export",
    "read_summaries",
    "export_autoconv_panels",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class TrialResult:
    eta: float
    trial: int
    delta_eff: float
    alpha_or_kstar: float
    error: float           # ||x - x_true|| of the raw solution
    error_truncated: float  # same after the truncation cap
    residual: float
    truncated: bool
    flagged: bool = False
    ratio_delta2_alpha: float | None = None


@dataclass(frozen=True)
class EtaSummary:
    eta: float
    delta_eff: float
    alpha_or_kstar: float
    err_mean: float
    err_kyfan: float
    residual_mean: float
    trials: int
    truncated_count: int
    flagged_count: int = 0
    ratio_delta2_alpha: float | None = None
    rate_theory: float | None = None


@dataclass(frozen=True)
class StudyResult:
    study: str
    summaries: tuple
    trials: tuple


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_rate(points) -> RateFit:
    """Least-squares line through (log noise, log error) pairs."""
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points for a rate fit, got {len(pts)}")
    if any(a <= 0.0 or b <= 0.0 for a, b in pts):
        raise ValueError("rate fits require strictly positive values")
    lx = np.log([a for a, _ in pts])
    ly = np.log([b for _, b in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope), intercept=float(intercept), r_squared=r_sq, n_points=len(pts)
    )


# -- shared study machinery ---------------------------------------------------


def _stream_index(eta_idx: int, trial: int) -> int:
    return (eta_idx << 32) | trial


def _run_trials(cfg: ExperimentConfig, trial_fn) -> list:
    # serial, in trial order: each trial is GIL-bound numpy work on short
    # vectors, which a thread pool only slows down
    return [trial_fn(t) for t in range(cfg.trials_per_eta)]


def _summarize(eta: float, dlt: float, trials: list, **extras) -> EtaSummary:
    errs = np.array([t.error for t in trials])
    errs_trunc = np.array([t.error_truncated for t in trials])
    residuals = np.array([t.residual for t in trials])
    alphas = np.array([t.alpha_or_kstar for t in trials])
    finite = np.isfinite(alphas)
    alpha_mean = float(np.mean(alphas[finite])) if finite.any() else math.inf
    return EtaSummary(
        eta=eta,
        delta_eff=dlt,
        alpha_or_kstar=alpha_mean,
        err_mean=float(np.mean(errs_trunc)),
        err_kyfan=empirical_kyfan(EmpiricalSample.from_values(errs)),
        residual_mean=float(np.mean(residuals)),
        trials=len(trials),
        truncated_count=int(sum(t.truncated for t in trials)),
        flagged_count=int(sum(t.flagged for t in trials)),
        **extras,
    )


def _build_operator(spec: dict) -> SvdOperator:
    kind = spec["kind"]
    if kind == "diagonal":
        return SvdOperator.diagonal(np.asarray(spec["singular_values"], dtype=float))
    if kind == "diagonal-powerlaw":
        n = np.arange(1, spec["size"] + 1, dtype=float)
        return SvdOperator.diagonal(n ** (-spec["decay"]))
    if kind == "csv":
        return SvdOperator.from_csv(spec["path"])
    if kind == "haar-diagonal":
        levels = haar_level_indices(2 ** spec["levels"])
        return SvdOperator.diagonal(np.sort(2.0 ** (-spec["decay"] * levels))[::-1])
    raise ValueError(f"operator kind {kind!r} not usable here")


def _powerlaw_vector(n: int, power: float, norm: float) -> np.ndarray:
    v = np.arange(1, n + 1, dtype=float) ** power
    return v * (norm / np.linalg.norm(v))


def _build_truth(spec: dict, op: SvdOperator) -> np.ndarray:
    kind = spec["kind"]
    if kind == "explicit":
        x = np.asarray(spec["values"], dtype=float)
        if x.size != op.solution_dim:
            raise ValueError("explicit truth does not match the operator dimension")
        return x
    if kind == "source-powerlaw":
        z = _powerlaw_vector(op.solution_dim, spec["power"], spec["norm"])
        return op.source_element(spec["exponent"], z)
    raise ValueError(f"truth kind {kind!r} not usable here")


def _choose_alpha(cfg: ExperimentConfig, op, y_noisy, dlt):
    rule = cfg.rule
    if isinstance(rule, AprioriFilter):
        return apriori_filter_alpha(dlt, rule), None
    if isinstance(rule, Fixed):
        return rule.alpha, None
    if isinstance(rule, Discrepancy):
        result = discrepancy_alpha(op, y_noisy, dlt, rule)
        return result.alpha, result
    raise ValueError(f"rule {rule!r} is not supported by this study")


# -- filter study -------------------------------------------------------------


def _run_filter_study(cfg: ExperimentConfig) -> StudyResult:
    op = _build_operator(cfg.operator)
    x_true = _build_truth(cfg.truth, op)
    y_exact = op.apply(x_true)
    m = op.data_dim
    filter_name = cfg.solver.get("filter", "tikhonov")
    if filter_name not in ("tikhonov", "tsvd"):
        raise ValueError(f"unknown filter {filter_name!r} for the filter study")
    make_kind = Tikhonov if filter_name == "tikhonov" else Tsvd

    summaries, all_trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        spec = NoiseSpec(eta=eta, m=m)
        dlt = delta_eff(spec, cfg.noise_mode)

        def one_trial(t, eta=eta, eta_idx=eta_idx, dlt=dlt):
            rng = trial_rng(cfg.seed, _stream_index(eta_idx, t))
            y_noisy = y_exact + eta * rng.standard_normal(m)
            flagged = False
            try:
                alpha, disc = _choose_alpha(cfg, op, y_noisy, dlt)
            except NoFeasibleAlpha:
                # inconsistent data/noise estimate: report the zero solution
                alpha, disc, flagged = math.inf, None, True
            if disc is not None:
                x = disc.report.solution
            elif math.isinf(alpha):
                x = np.zeros(op.solution_dim)
            else:
                x = filter_reconstruct(op, y_noisy, make_kind(alpha))
            x_trunc = truncate_solution(x, cfg.caps.norm, cfg.caps.sup)
            truncated = not np.array_equal(x_trunc, x)
            return TrialResult(
                eta=eta,
                trial=t,
                delta_eff=dlt,
                alpha_or_kstar=alpha,
                error=float(np.linalg.norm(x - x_true)),
                error_truncated=float(np.linalg.norm(x_trunc - x_true)),
                residual=float(np.linalg.norm(op.apply(x) - y_noisy)),
                truncated=truncated,
                flagged=flagged,
            )

        trials = _run_trials(cfg, one_trial)
        summaries.append(_summarize(eta, dlt, trials))
        all_trials.extend(trials)
    return StudyResult(study="filter", summaries=tuple(summaries), trials=tuple(all_trials))


# -- autoconvolution study ----------------------------------------------------


def _two_bump_truth(m: int, amplitude: float) -> np.ndarray:
    # two piecewise-constant bumps on dyadic intervals over a positive base
    # level: exactly sparse in Haar, and bounded away from zero at s = 0 so
    # the triangular structure of the autoconvolution stays well-posed there
    t = (np.arange(m) + 0.5) / m
    x = np.full(m, amplitude)
    x[(t >= 0.125) & (t < 0.375)] += 0.5 * amplitude
    x[(t >= 0.625) & (t < 0.875)] += 0.25 * amplitude
    return x


def _constant_fit_init(grid: AutoconvGrid, y: np.ndarray) -> np.ndarray:
    # F(c*1)(s) = c^2 s; least-squares fit of c^2 against each row of data
    s = (np.arange(grid.m) + 1.0) * grid.h
    c_sq = np.maximum(y @ s / float(s @ s), 1e-6)
    return np.repeat(np.sqrt(c_sq)[:, np.newaxis], grid.m, axis=1)


def _haar_matrix(m: int) -> np.ndarray:
    # dense orthonormal transform matrix; one BLAS product per application
    # beats the recursive transform inside tight solver loops.  Rows hold
    # vectors, so c = x @ haar.T analyses and x = c @ haar synthesizes
    return np.column_stack([haar_forward(col) for col in np.eye(m)])


def _autoconv_solve(grid, haar, y_noisy, coeff_init, alpha, step, tol, max_iter, floor):
    # prox_gradient_solve takes the adjoint at the block it last sent
    # forward, so the synthesis c @ haar is computed once and reused
    last_c = last_x = None

    def fwd(c):
        nonlocal last_c, last_x
        last_c, last_x = c, c @ haar
        return autoconv_apply(grid, last_x)

    def adj(c, r):
        x = last_x if c is last_c else c @ haar
        return autoconv_derivative_adjoint_apply(grid, x, r) @ haar.T

    try:
        return prox_gradient_solve(
            fwd, adj, y_noisy, alpha=alpha, weights=None, p=1.0, step=step,
            x0=coeff_init, tol=tol, max_iter=max_iter, residual_floor=floor,
        )
    except NonConvergence as exc:
        return exc.report


def _alpha_continuation(grid, haar, y, lo_target, hi_target, knobs, seed):
    """Search alpha with residual in [lo_target, hi_target] for each data row.

    Each row starts above its kill-everything alpha and moves geometrically
    toward the band: x4 steps until the band is bracketed, then bisection in
    log alpha.  A row that stays above the band without converging first
    retries with a doubled iteration budget.  Every alpha step is one
    batched solve over the rows still searching.  Returns each row's last
    alpha, Haar coefficients and residual, and whether it ended in the band.
    """
    rows, m = y.shape
    x0 = _constant_fit_init(grid, y)
    coeffs = x0 @ haar.T
    lip = operator_norm_squared(
        lambda v: autoconv_derivative_apply(grid, x0, v),
        lambda r: autoconv_derivative_adjoint_apply(grid, x0, r),
        m, iters=30, seed=seed, rows=rows,
    )
    step = knobs["step_safety"] / np.maximum(lip, 1e-12)

    # start above the kill-everything alpha (prox fixed point at the init
    # needs alpha >= 2 max|gradient|), then continue downward
    grad0 = autoconv_derivative_adjoint_apply(grid, x0, autoconv_apply(grid, x0) - y) @ haar.T
    alpha = np.maximum(4.0 * np.max(np.abs(grad0), axis=1), 1e-12)
    del x0, grad0
    alpha_hi = np.full(rows, math.nan)
    alpha_lo = np.full(rows, math.nan)
    last_alpha = alpha.copy()
    residual = np.empty(rows)
    in_band = np.zeros(rows, dtype=bool)
    budget = np.full(rows, knobs["max_iter"])
    spent = np.zeros(rows, dtype=int)
    max_budget, total_budget = knobs["max_budget"], knobs["total_budget"]
    searching = np.arange(rows)
    for _ in range(knobs["max_alpha_steps"]):
        if not searching.size:
            break
        report = _autoconv_solve(
            grid, haar, y[searching], coeffs[searching], alpha[searching], step[searching],
            knobs["tol"], budget[searching], floor=0.97 * lo_target,
        )
        coeffs[searching] = report.solution
        residual[searching] = report.final_residual
        last_alpha[searching] = alpha[searching]
        spent[searching] += report.row_iterations
        converged = report.converged
        del report  # the next solve need not hold this one's arrays
        still = []
        for i, ok in zip(searching, converged):
            res, a = residual[i], alpha[i]
            if res > hi_target:
                if not ok and budget[i] < max_budget and spent[i] < total_budget:
                    # not yet converged and still above the band: the warm
                    # start keeps the progress, so retry with more budget
                    budget[i] *= 2
                    still.append(i)
                    continue
                alpha_hi[i] = a
                alpha[i] = a / 4.0 if math.isnan(alpha_lo[i]) else math.sqrt(a * alpha_lo[i])
            elif res < lo_target:
                alpha_lo[i] = a
                alpha[i] = a * 4.0 if math.isnan(alpha_hi[i]) else math.sqrt(a * alpha_hi[i])
            else:
                in_band[i] = True
                continue
            if spent[i] > total_budget:
                continue
            if alpha_hi[i] / alpha_lo[i] < 1.02:
                # the residual jumps across the band on this branch: no
                # in-band alpha exists, keep the closest attempt
                continue
            still.append(i)
        searching = np.array(still, dtype=int)
    return last_alpha, coeffs, residual, in_band


# Trials solved together: enough rows to spread numpy's per-call cost,
# few enough that each (rows, m) array holds at most this many doubles.
# A solve keeps about twenty such arrays alive; solving all 200 trials of an
# eta at m = 128 as one block raised peak memory by about 10%.
_BLOCK_DOUBLES = 4096


def _run_autoconv_study(cfg: ExperimentConfig) -> StudyResult:
    if cfg.operator["kind"] != "autoconv":
        raise ValueError("the autoconvolution study needs operator {kind: autoconv, size: m}")
    if not isinstance(cfg.rule, Discrepancy):
        raise ValueError("the autoconvolution study uses the discrepancy rule")
    m = cfg.operator["size"]
    grid = AutoconvGrid(m)
    if cfg.truth["kind"] == "two-bump":
        x_true = _two_bump_truth(m, cfg.truth["amplitude"])
    else:
        x_true = _build_truth(cfg.truth, SvdOperator.diagonal(np.ones(m)))
    y_exact = autoconv_apply(grid, x_true)
    c_true = haar_forward(x_true)
    haar = _haar_matrix(m)
    knobs = {
        "tol": cfg.solver.get("tol", 1e-6),
        "max_iter": int(cfg.solver.get("max_iter", 800)),
        "max_budget": int(cfg.solver.get("max_budget", 6400)),
        "total_budget": int(cfg.solver.get("total_budget", 20000)),
        "max_alpha_steps": int(cfg.solver.get("max_alpha_steps", 40)),
        "step_safety": cfg.solver.get("step_safety", 0.9),
    }
    rule = cfg.rule
    block_rows = max(1, _BLOCK_DOUBLES // m)

    def block_trials(eta_idx, eta, dlt, block):
        lo_target, hi_target = rule.tau1 * dlt, rule.tau2 * dlt
        y_noisy = np.stack([
            y_exact + eta * trial_rng(cfg.seed, _stream_index(eta_idx, t)).standard_normal(m)
            for t in block
        ])
        # trivial data: the zero solution already satisfies the bound
        trivial = np.linalg.norm(y_noisy, axis=1) <= lo_target
        alphas, coeffs, residuals, in_band = _alpha_continuation(
            grid, haar, y_noisy[~trivial], lo_target, hi_target, knobs, cfg.seed,
        )
        xs = coeffs @ haar
        solved_row = np.cumsum(~trivial) - 1  # each trial's row among the solved ones
        out = []
        for row, t in enumerate(block):
            if trivial[row]:
                out.append(TrialResult(
                    eta=eta, trial=t, delta_eff=dlt, alpha_or_kstar=math.inf,
                    error=float(np.linalg.norm(x_true)),
                    error_truncated=float(np.linalg.norm(x_true)),
                    residual=float(np.linalg.norm(y_noisy[row])), truncated=False,
                    ratio_delta2_alpha=0.0,
                ))
                continue
            i = solved_row[row]
            x_trunc = truncate_solution(xs[i], cfg.caps.norm, cfg.caps.sup)
            alpha = float(alphas[i])
            out.append(TrialResult(
                eta=eta, trial=t, delta_eff=dlt, alpha_or_kstar=alpha,
                error=float(np.linalg.norm(coeffs[i] - c_true)),
                error_truncated=float(np.linalg.norm((haar @ x_trunc) - c_true)),
                residual=float(residuals[i]),
                truncated=not np.array_equal(x_trunc, xs[i]),
                flagged=not in_band[i],
                ratio_delta2_alpha=dlt**2 / alpha,
            ))
        return out

    summaries, all_trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        spec = NoiseSpec(eta=eta, m=m)
        dlt = delta_eff(spec, cfg.noise_mode)
        trials = []
        for start in range(0, cfg.trials_per_eta, block_rows):
            block = range(start, min(start + block_rows, cfg.trials_per_eta))
            trials.extend(block_trials(eta_idx, eta, dlt, block))
        ratios = [t.ratio_delta2_alpha for t in trials]
        summaries.append(
            _summarize(eta, dlt, trials, ratio_delta2_alpha=float(np.mean(ratios)))
        )
        all_trials.extend(trials)
    return StudyResult(study="autoconv", summaries=tuple(summaries), trials=tuple(all_trials))


# -- Besov (weighted-l1/lp) study --------------------------------------------


def _level_spike_coeffs(levels: int, zeta: float, p: float, weights, norm: float) -> np.ndarray:
    n = 2**levels
    lev = haar_level_indices(n)
    c = np.zeros(n)
    c[0] = 1.0
    for j in range(1, levels + 1):
        first = int(np.argmax(lev == j))
        c[first] = 2.0 ** (-zeta * j)
    besov = float(np.sum(weights * np.abs(c) ** p)) ** (1.0 / p)
    return c * (norm / besov)


def _run_besov_study(cfg: ExperimentConfig) -> StudyResult:
    if cfg.operator["kind"] != "haar-diagonal":
        raise ValueError("the besov study needs operator {kind: haar-diagonal, ...}")
    if not isinstance(cfg.rule, (KyFanSquared, BesovBalanceRule)):
        raise ValueError("the besov study uses the kyfan-squared or besov-balance rule")
    levels = cfg.operator["levels"]
    n = 2**levels
    lev = haar_level_indices(n)
    sigma = 2.0 ** (-cfg.operator["decay"] * lev)

    s_smooth = cfg.solver.get("s", 1.0)
    p = cfg.solver.get("p", 1.0)
    d = int(cfg.solver.get("d", 1))
    bw = besov_weights(s_smooth, p, d, levels)
    if cfg.truth["kind"] != "level-spikes":
        raise ValueError("the besov study uses the level-spikes truth")
    rho = cfg.truth["norm"]
    c_true = _level_spike_coeffs(levels, bw.zeta, p, bw.weights, rho)
    y_exact = sigma * c_true

    summaries, all_trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        spec = NoiseSpec(eta=eta, m=n)
        dlt = delta_eff(spec, cfg.noise_mode)
        balance_failed = False
        if isinstance(cfg.rule, KyFanSquared):
            alpha = cfg.rule.scale * dlt**2 / rho**p
        else:
            params = BesovBalanceParams(
                eta=eta, m=n, n=n, p=p, rho=rho, zeta=bw.zeta,
                beta=cfg.operator["decay"], constant=cfg.rule.constant,
            )
            try:
                alpha = besov_balance_alpha(params).alpha_tilde * eta**2
            except NoBracket:
                alpha, balance_failed = math.inf, True

        def one_trial(t, eta=eta, eta_idx=eta_idx, dlt=dlt, alpha=alpha,
                      balance_failed=balance_failed):
            rng = trial_rng(cfg.seed, _stream_index(eta_idx, t))
            y_noisy = y_exact + eta * rng.standard_normal(n)
            if math.isinf(alpha):
                c = np.zeros(n)
            else:
                # diagonal operator: the weighted-lp minimizer separates per coefficient
                c = prox_weighted_lp(y_noisy / sigma, alpha * bw.weights / (2.0 * sigma**2), p)
            c_trunc = truncate_solution(c, cfg.caps.norm, cfg.caps.sup)
            return TrialResult(
                eta=eta, trial=t, delta_eff=dlt, alpha_or_kstar=alpha,
                error=float(np.linalg.norm(c - c_true)),
                error_truncated=float(np.linalg.norm(c_trunc - c_true)),
                residual=float(np.linalg.norm(sigma * c - y_noisy)),
                truncated=not np.array_equal(c_trunc, c),
                flagged=balance_failed,
            )

        trials = _run_trials(cfg, one_trial)
        summaries.append(_summarize(eta, dlt, trials))
        all_trials.extend(trials)
    return StudyResult(study="besov", summaries=tuple(summaries), trials=tuple(all_trials))


# -- random source exponent (Landweber) study ---------------------------------


def _landweber_stop_index(q2: np.ndarray, y_sq: np.ndarray, threshold: float, kmax: int):
    # residual^2 after k steps is sum q_n^(2k) y_n^2, monotone decreasing in k
    def res_sq(k):
        return float(np.sum(q2**k * y_sq))

    thr_sq = threshold * threshold
    if res_sq(0) <= thr_sq:
        return 0
    hi = 1
    while res_sq(hi) > thr_sq:
        hi *= 2
        if hi > kmax:
            raise NonConvergence(
                f"discrepancy level not reached within {kmax} Landweber steps",
                report=None,  # state carried by the caller
            )
    lo = hi // 2  # res_sq(lo) > thr_sq >= res_sq(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if res_sq(mid) > thr_sq:
            lo = mid
        else:
            hi = mid
    return hi


def _run_nu_random_study(cfg: ExperimentConfig) -> StudyResult:
    op = _build_operator(cfg.operator)
    if not op.is_diagonal:
        raise ValueError("the nu-random study needs a diagonal operator")
    if cfg.truth["kind"] != "random-source":
        raise ValueError("the nu-random study uses the random-source truth")
    if not isinstance(cfg.rule, DiscrepancyStop):
        raise ValueError("the nu-random study uses the discrepancy-stop rule")
    sigma = op.singular_values
    m = sigma.size
    v = _powerlaw_vector(m, cfg.truth["power"], cfg.truth["norm"])
    gamma = cfg.solver.get("gamma", 0.9 / float(sigma[0] ** 2))
    kmax = int(cfg.solver.get("kmax", 10**7))
    if gamma * sigma[0] ** 2 > 1.0:
        raise ValueError("gamma violates the Landweber contraction bound")
    q = 1.0 - gamma * sigma**2
    q2 = q * q
    tau_hat = cfg.rule.tau_hat

    summaries, all_trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        spec = NoiseSpec(eta=eta, m=m)
        dlt = delta_eff(spec, cfg.noise_mode)

        def one_trial(t, eta=eta, eta_idx=eta_idx, dlt=dlt):
            rng = trial_rng(cfg.seed, _stream_index(eta_idx, t))
            nu = rng.uniform(0.0, 0.5)
            x_true = sigma ** (2.0 * nu) * v
            y_noisy = sigma * x_true + eta * rng.standard_normal(m)
            y_sq = y_noisy * y_noisy
            flagged = False
            try:
                k_star = _landweber_stop_index(q2, y_sq, tau_hat * dlt, kmax)
            except NonConvergence:
                k_star, flagged = kmax, True
            if k_star == 0:
                x = np.zeros(m)
            else:
                x = filter_reconstruct(op, y_noisy, LandweberFilter(k_star, gamma))
            x_trunc = truncate_solution(x, cfg.caps.norm, cfg.caps.sup)
            return TrialResult(
                eta=eta, trial=t, delta_eff=dlt, alpha_or_kstar=float(k_star),
                error=float(np.linalg.norm(x - x_true)),
                error_truncated=float(np.linalg.norm(x_trunc - x_true)),
                residual=float(np.linalg.norm(sigma * x - y_noisy)),
                truncated=not np.array_equal(x_trunc, x),
                flagged=flagged,
            )

        trials = _run_trials(cfg, one_trial)
        if 0.0 < dlt < 1.0:
            neg_log = -math.log(dlt)
            rate_theory = lambert_w0(neg_log) / neg_log
        else:
            rate_theory = None
        summaries.append(_summarize(eta, dlt, trials, rate_theory=rate_theory))
        all_trials.extend(trials)
    return StudyResult(study="nu-random", summaries=tuple(summaries), trials=tuple(all_trials))


_STUDY_RUNNERS = {
    "filter": _run_filter_study,
    "autoconv": _run_autoconv_study,
    "besov": _run_besov_study,
    "nu-random": _run_nu_random_study,
}


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Run the configured Monte Carlo study; deterministic given the seed."""
    return _STUDY_RUNNERS[cfg.study](cfg)


# -- export -------------------------------------------------------------------

CSV_COLUMNS = (
    "eta",
    "delta_eff",
    "alpha_or_kstar",
    "err_mean",
    "err_kyfan",
    "residual_mean",
    "trials",
    "truncated_count",
)


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _summary_row(s: EtaSummary) -> list:
    return [
        s.eta, s.delta_eff, s.alpha_or_kstar, s.err_mean, s.err_kyfan,
        s.residual_mean, s.trials, s.truncated_count,
    ]


def export(summaries, path, fmt: str = "csv") -> None:
    """Write per-eta summaries; numbers carry 17 significant digits.

    ``csv`` writes exactly the documented columns with a header row;
    ``structured-text`` writes one aligned key = value block per row.
    """
    if fmt not in ("csv", "structured-text"):
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            if fmt == "csv":
                handle.write(",".join(CSV_COLUMNS) + "\n")
                for s in summaries:
                    handle.write(",".join(_format(v) for v in _summary_row(s)) + "\n")
            else:
                width = max(len(c) for c in CSV_COLUMNS)
                for s in summaries:
                    for name, value in zip(CSV_COLUMNS, _summary_row(s)):
                        handle.write(f"{name.ljust(width)} = {_format(value)}\n")
                    handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_summaries(path) -> list:
    """Re-ingest a summary CSV written by :func:`export`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path} does not carry the expected summary header")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        out.append(
            EtaSummary(
                eta=float(parts[0]),
                delta_eff=float(parts[1]),
                alpha_or_kstar=float(parts[2]),
                err_mean=float(parts[3]),
                err_kyfan=float(parts[4]),
                residual_mean=float(parts[5]),
                trials=int(parts[6]),
                truncated_count=int(parts[7]),
            )
        )
    return out


def export_autoconv_panels(summaries, path) -> None:
    """Plot-ready data for the two-panel ratio/error figure of the autoconv study."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("eta,ratio_delta2_over_alpha,err\n")
            for s in summaries:
                handle.write(
                    f"{_format(s.eta)},{_format(s.ratio_delta2_alpha)},{_format(s.err_kyfan)}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
