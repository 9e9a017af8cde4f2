"""Monte Carlo experiment runner, rate fitting, and result export.

A study runs the lifting loop: per trial, draw Gaussian noise, compute the
effective noise level (Ky Fan bound or inflated expectation), run the
deterministic parameter-choice rule and solver, and record the
reconstruction error.  Per-eta summaries report the mean error of the
truncated solutions, the empirical Ky Fan error of the raw errors, and the
mean chosen parameter.

One driver, ``run_study``, owns the only loop over the eta grid: noise
level, blocks of trials, summary.  A study supplies only what differs: its
setup, its once-per-eta work and a block solve.  ``_trial_result`` records
every trial.  The parsed config is known to suit the study.

Determinism: every trial draws from a generator keyed by
(seed, eta_index << 32 | trial), trials run serially in trial order, and
summaries are reduced in trial order.  The autoconvolution and Besov
studies solve the trials of an eta together, in blocks fixed by the grid
size and the trial order, so their outputs repeat exactly as well; a Besov
record does not depend on the block size at all.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, KyFanSquared
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
    autoconv_spectrum,
    besov_weights,
    haar_forward,
    haar_level_indices,
)
from .regularization import (
    LandweberFilter,
    NonConvergence,
    Tikhonov,
    Tsvd,
    _row_norms,
    filter_reconstruct,
    operator_norm_squared,
    prox_gradient_solve,
    prox_weighted_lp,
)
from .rules import (
    AprioriFilter,
    BesovBalanceParams,
    Fixed,
    NoBracket,
    NoFeasibleAlpha,
    apriori_filter_alpha,
    besov_balance_alpha,
    discrepancy_alpha,
    nu_effective,
)

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


# -- the study driver ---------------------------------------------------------


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Run the configured Monte Carlo study; deterministic given the seed.

    The study's setup returns the data dimension, the trials per block and
    ``at_eta(eta, delta_eff) -> (solve_block, rate_theory)``, which does the
    once-per-eta work.  ``solve_block(trials, rngs)`` draws each trial's data
    from its generator and returns the trials' records.
    """
    m, block_rows, at_eta = _STUDIES[cfg.study](cfg)
    summaries, all_trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        dlt = delta_eff(NoiseSpec(eta=eta, m=m), cfg.noise_mode)
        solve_block, rate_theory = at_eta(eta, dlt)
        trials = []
        for start in range(0, cfg.trials_per_eta, block_rows):
            block = range(start, min(start + block_rows, cfg.trials_per_eta))
            rngs = [trial_rng(cfg.seed, (eta_idx << 32) | t) for t in block]
            trials.extend(solve_block(block, rngs))
        summaries.append(_summarize(eta, dlt, trials, rate_theory))
        all_trials.extend(trials)
    return StudyResult(study=cfg.study, summaries=tuple(summaries), trials=tuple(all_trials))


def _each_trial(one_trial):
    """A block solve that solves the trials of its block one at a time."""
    return lambda block, rngs: list(map(one_trial, block, rngs))


def _trial_result(cfg, eta, trial, dlt, alpha, x, truth, residual, flagged=False,
                  ratio=None) -> TrialResult:
    """One trial's record: its errors against ``truth``, truncation and flag."""
    x_trunc = truncate_solution(x, cfg.caps.norm, cfg.caps.sup)
    return TrialResult(
        eta=eta,
        trial=trial,
        delta_eff=dlt,
        alpha_or_kstar=alpha,
        error=float(np.linalg.norm(x - truth)),
        error_truncated=float(np.linalg.norm(x_trunc - truth)),
        residual=residual,
        truncated=not np.array_equal(x_trunc, x),
        flagged=flagged,
        ratio_delta2_alpha=ratio,
    )


def _summarize(eta: float, dlt: float, trials: list, rate_theory) -> EtaSummary:
    errs = np.array([t.error for t in trials])
    errs_trunc = np.array([t.error_truncated for t in trials])
    residuals = np.array([t.residual for t in trials])
    alphas = np.array([t.alpha_or_kstar for t in trials])
    ratios = [t.ratio_delta2_alpha for t in trials]
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
        ratio_delta2_alpha=None if None in ratios else float(np.mean(ratios)),
        rate_theory=rate_theory,
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
    levels = haar_level_indices(2 ** spec["levels"])  # haar-diagonal
    return SvdOperator.diagonal(np.sort(2.0 ** (-spec["decay"] * levels))[::-1])


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
    if kind == "two-bump":
        return _two_bump_truth(op.solution_dim, spec["amplitude"])
    z = _powerlaw_vector(op.solution_dim, spec["power"], spec["norm"])  # source-powerlaw
    return op.source_element(spec["exponent"], z)


def _choose_alpha(cfg: ExperimentConfig, op, y_noisy, dlt):
    rule = cfg.rule
    if isinstance(rule, AprioriFilter):
        return apriori_filter_alpha(dlt, rule), None
    if isinstance(rule, Fixed):
        return rule.alpha, None
    result = discrepancy_alpha(op, y_noisy, dlt, rule)
    return result.alpha, result


# -- filter study -------------------------------------------------------------


def _filter_study(cfg: ExperimentConfig):
    op = _build_operator(cfg.operator)
    x_true = _build_truth(cfg.truth, op)
    y_exact = op.apply(x_true)
    make_kind = Tikhonov if cfg.solver["filter"] == "tikhonov" else Tsvd

    def at_eta(eta, dlt):
        def one_trial(t, rng):
            y_noisy = y_exact + eta * rng.standard_normal(op.data_dim)
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
            residual = float(np.linalg.norm(op.apply(x) - y_noisy))
            return _trial_result(cfg, eta, t, dlt, alpha, x, x_true, residual, flagged)

        return _each_trial(one_trial), None

    return op.data_dim, 1, at_eta


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


def _autoconv_solve(grid, haar, y_noisy, coeff_init, alpha, step, tol, max_iter):
    # prox_gradient_solve takes the adjoint at the block it last sent
    # forward, so the synthesis c @ haar and its spectrum are computed once
    # and reused
    last_c = last_x = last_spectrum = None

    def fwd(c):
        nonlocal last_c, last_x, last_spectrum
        last_c, last_x = c, c @ haar
        last_spectrum = autoconv_spectrum(grid, last_x)
        return autoconv_apply(grid, last_x, spectrum=last_spectrum)

    def adj(c, r):
        x, spectrum = (last_x, last_spectrum) if c is last_c else (c @ haar, None)
        return autoconv_derivative_adjoint_apply(grid, x, r, spectrum=spectrum) @ haar.T

    try:
        return prox_gradient_solve(
            fwd, adj, y_noisy, alpha=alpha, weights=None, p=1.0, step=step,
            x0=coeff_init, tol=tol, max_iter=max_iter,
        )
    except NonConvergence as exc:
        return exc.report


def _alpha_continuation(grid, haar, y, lo_target, hi_target, knobs, seed):
    """Search alpha with residual in [lo_target, hi_target] for each data row.

    Each row starts above its kill-everything alpha and moves geometrically
    toward the band: x4 steps until the band is bracketed, then bisection in
    log alpha.  A row that stays above the band without converging first
    retries with a doubled iteration budget.  Every alpha step is one
    batched solve over the rows still searching.  Each solve runs until it
    converges or spends its budget, and the residual is read at its end:
    the accelerated solver's residual can dip below the band on the way,
    and stopping at such a dip would read the alpha as below the band and
    trip the band-jump test.  Returns each row's last alpha, Haar
    coefficients and residual, and whether it ended in the band.
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
            knobs["tol"], budget[searching],
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


# Trials solved together by the autoconv and besov studies: enough rows to
# spread numpy's per-call cost, few enough that each (rows, m) array holds at
# most this many doubles.  An autoconv solve keeps about twenty such arrays
# alive; one 200-trial block per eta at m = 128 raised peak memory by 10%.
_BLOCK_DOUBLES = 4096


def _autoconv_study(cfg: ExperimentConfig):
    m = cfg.operator["size"]
    grid = AutoconvGrid(m)
    x_true = _build_truth(cfg.truth, SvdOperator.diagonal(np.ones(m)))
    y_exact = autoconv_apply(grid, x_true)
    haar = _haar_matrix(m)

    def at_eta(eta, dlt):
        lo_target, hi_target = cfg.rule.tau1 * dlt, cfg.rule.tau2 * dlt

        def solve_block(block, rngs):
            y_noisy = np.stack([y_exact + eta * rng.standard_normal(m) for rng in rngs])
            # trivial data: the zero solution already satisfies the bound
            trivial = np.linalg.norm(y_noisy, axis=1) <= lo_target
            alphas, coeffs, residuals, in_band = _alpha_continuation(
                grid, haar, y_noisy[~trivial], lo_target, hi_target, cfg.solver, cfg.seed,
            )
            xs = coeffs @ haar
            solved_row = np.cumsum(~trivial) - 1  # each trial's row among the solved ones
            out = []
            for row, t in enumerate(block):
                if trivial[row]:
                    out.append(_trial_result(
                        cfg, eta, t, dlt, math.inf, np.zeros(m), x_true,
                        float(np.linalg.norm(y_noisy[row])), ratio=0.0,
                    ))
                    continue
                i = solved_row[row]
                alpha = float(alphas[i])
                out.append(_trial_result(
                    cfg, eta, t, dlt, alpha, xs[i], x_true, float(residuals[i]),
                    flagged=not in_band[i], ratio=dlt**2 / alpha,
                ))
            return out

        return solve_block, None

    # read at run time, so that a test can shrink the blocks
    return m, max(1, _BLOCK_DOUBLES // m), at_eta


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


def _besov_study(cfg: ExperimentConfig):
    levels = cfg.operator["levels"]
    n = 2**levels
    lev = haar_level_indices(n)
    sigma = 2.0 ** (-cfg.operator["decay"] * lev)
    p = cfg.solver["p"]
    bw = besov_weights(cfg.solver["s"], p, cfg.solver["d"], levels)
    rho = cfg.truth["norm"]
    c_true = _level_spike_coeffs(levels, bw.zeta, p, bw.weights, rho)
    y_exact = sigma * c_true

    def at_eta(eta, dlt):
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

        def solve_block(block, rngs):
            y_noisy = np.stack([y_exact + eta * rng.standard_normal(n) for rng in rngs])
            if math.isinf(alpha):
                c = np.zeros_like(y_noisy)
            else:
                # diagonal operator: the weighted-lp minimizer separates per coefficient
                c = prox_weighted_lp(y_noisy / sigma, alpha * bw.weights / (2.0 * sigma**2), p)
            residuals = _row_norms(sigma * c - y_noisy)
            return [_trial_result(cfg, eta, t, dlt, alpha, x, c_true, float(r), balance_failed)
                    for t, x, r in zip(block, c, residuals)]

        return solve_block, None

    return n, max(1, _BLOCK_DOUBLES // n), at_eta


# -- random source exponent (Landweber) study ---------------------------------


def _landweber_stop_index(q2: np.ndarray, y_sq: np.ndarray, threshold: float, kmax: int):
    # the first k <= kmax with residual <= threshold, or None if there is none;
    # residual^2 after k steps is sum q_n^(2k) y_n^2, monotone decreasing in k
    def res_sq(k):
        return float(np.sum(q2**k * y_sq))

    thr_sq = threshold * threshold
    if res_sq(0) <= thr_sq:
        return 0
    lo, hi = 0, 1  # res_sq(lo) > thr_sq throughout
    while res_sq(hi) > thr_sq:
        if hi >= kmax:
            return None
        lo, hi = hi, min(2 * hi, kmax)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if res_sq(mid) > thr_sq:
            lo = mid
        else:
            hi = mid
    return hi


def _nu_random_study(cfg: ExperimentConfig):
    op = _build_operator(cfg.operator)
    sigma = op.singular_values
    m = sigma.size
    v = _powerlaw_vector(m, cfg.truth["power"], cfg.truth["norm"])
    gamma = cfg.solver["gamma"]
    if gamma is None:
        gamma = 0.9 / float(sigma[0] ** 2)
    kmax = cfg.solver["kmax"]
    q = 1.0 - gamma * sigma**2
    q2 = q * q

    def at_eta(eta, dlt):
        def one_trial(t, rng):
            nu = rng.uniform(0.0, 0.5)  # before the noise: the draw order fixes the data
            x_true = sigma ** (2.0 * nu) * v
            y_noisy = sigma * x_true + eta * rng.standard_normal(m)
            k_star = _landweber_stop_index(q2, y_noisy * y_noisy, cfg.rule.tau_hat * dlt, kmax)
            flagged = k_star is None
            if flagged:
                k_star = kmax
            if k_star == 0:
                x = np.zeros(m)
            else:
                x = filter_reconstruct(op, y_noisy, LandweberFilter(k_star, gamma))
            residual = float(np.linalg.norm(sigma * x - y_noisy))
            return _trial_result(cfg, eta, t, dlt, float(k_star), x, x_true, residual, flagged)

        # the lifted rate W(-log delta) / (-log delta) is twice the W approximation of nu
        rate_theory = 2.0 * nu_effective(dlt).nu_approx if 0.0 < dlt < 1.0 else None
        return _each_trial(one_trial), rate_theory

    return m, 1, at_eta


_STUDIES = {
    "filter": _filter_study,
    "autoconv": _autoconv_study,
    "besov": _besov_study,
    "nu-random": _nu_random_study,
}


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


# each column's type, for reading the rows back
_COLUMN_TYPES = tuple(typing.get_type_hints(EtaSummary)[c] for c in CSV_COLUMNS)


def _write_text(path, write) -> None:
    """Run ``write(handle)`` on an open text stream, or on the file at ``path``.

    A file is written in full to a temporary file beside it and then renamed
    onto it, so a write that fails partway leaves any earlier file intact.
    A device or pipe, such as /dev/stdout, is written in place: renaming a
    file onto it would replace it.
    """
    if hasattr(path, "write"):
        write(path)
        return
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            write(handle)
        if not in_place:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    finally:
        if not in_place and os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


def export(summaries, path, fmt: str = "csv") -> None:
    """Write per-eta summaries; numbers carry 17 significant digits.

    ``path`` is a file path or an open text stream.  ``csv`` writes exactly
    the documented columns with a header row; ``structured-text`` writes one
    aligned key = value block per row.
    """
    if fmt not in ("csv", "structured-text"):
        raise ValueError(f"unknown export format {fmt!r}")

    def write(handle):
        if fmt == "csv":
            handle.write(",".join(CSV_COLUMNS) + "\n")
            for s in summaries:
                handle.write(",".join(_format(getattr(s, c)) for c in CSV_COLUMNS) + "\n")
        else:
            width = max(len(c) for c in CSV_COLUMNS)
            for s in summaries:
                for name in CSV_COLUMNS:
                    handle.write(f"{name.ljust(width)} = {_format(getattr(s, name))}\n")
                handle.write("\n")

    _write_text(path, write)


def read_summaries(path) -> list:
    """Re-ingest a summary CSV written by :func:`export`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [(n, line.strip()) for n, line in enumerate(handle, 1) if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    if not lines or lines[0][1].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path} does not carry the expected summary header")
    out = []
    for n, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(
                f"{path}, line {n}: expected {len(CSV_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            values = [kind(part) for kind, part in zip(_COLUMN_TYPES, parts)]
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: {exc}") from exc
        out.append(EtaSummary(**dict(zip(CSV_COLUMNS, values))))
    return out


def export_autoconv_panels(summaries, path) -> None:
    """Plot-ready data for the two-panel ratio/error figure of the autoconv study.

    ``path`` is a file path or an open text stream.
    """

    def write(handle):
        handle.write("eta,ratio_delta2_over_alpha,err\n")
        for s in summaries:
            handle.write(
                f"{_format(s.eta)},{_format(s.ratio_delta2_alpha)},{_format(s.err_kyfan)}\n"
            )

    _write_text(path, write)
