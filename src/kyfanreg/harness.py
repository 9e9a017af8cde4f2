"""Monte Carlo experiment runner, rate fitting, and result export.

A study runs the lifting loop: per trial, draw Gaussian noise, compute the
effective noise level (Ky Fan bound or inflated expectation), run the
deterministic parameter-choice rule and solver, and record the
reconstruction error.  Per-eta summaries report the mean error of the
truncated solutions, the empirical Ky Fan error of the raw errors, and the
mean chosen parameter.

One driver, ``run_study``, owns the only loop over the eta grid: noise
level, blocks of trials, summary.  A study supplies only what differs: its
setup, its once-per-eta work and a block solve.  Every study solves the
trials of an eta together, as (B, n) blocks of at most _BLOCK_DOUBLES
doubles, and ``_trial_results`` records a block's trials.  The parsed
config is known to suit the study.

Determinism: every trial draws from a generator keyed by
(seed, eta_index << 32 | trial), blocks are fixed by the grid size and the
trial order, and summaries are reduced in trial order, so outputs repeat
exactly.  A filter, Besov or nu-random record does not depend on the block
size at all: their rules, filters and norms act row by row.  An autoconv
record agrees with solving its trial alone up to roundoff.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, KyFanSquared, build_operator, build_truth
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
    _row_powers,
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


def _trial_results(cfg, eta, block, dlt, alphas, xs, truth, residuals, flagged=False,
                   ratios=None) -> list:
    """The records of a block of trials, one per row of the (B, n) solutions ``xs``.

    ``alphas``, ``residuals``, ``flagged`` and ``ratios`` hold one value per
    trial, or one for the whole block; ``truth`` is one vector or one row
    per trial.  Errors are taken against ``truth``, before and after the
    truncation caps.
    """
    rows = len(block)
    x_trunc = truncate_solution(xs, cfg.caps.norm, cfg.caps.sup)
    columns = zip(
        block,
        np.broadcast_to(alphas, rows).tolist(),
        _row_norms(xs - truth).tolist(),
        _row_norms(x_trunc - truth).tolist(),
        np.broadcast_to(residuals, rows).tolist(),
        np.any(x_trunc != xs, axis=1).tolist(),
        np.broadcast_to(flagged, rows).tolist(),
        [None] * rows if ratios is None else np.broadcast_to(ratios, rows).tolist(),
    )
    return [
        TrialResult(eta=eta, trial=t, delta_eff=dlt, alpha_or_kstar=alpha, error=error,
                    error_truncated=error_trunc, residual=residual, truncated=truncated,
                    flagged=flag, ratio_delta2_alpha=ratio)
        for t, alpha, error, error_trunc, residual, truncated, flag, ratio in columns
    ]


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


# Trials solved together by every study: enough rows to spread numpy's
# per-call cost, few enough that each (rows, m) array holds at most this
# many doubles.  An autoconv solve keeps about twenty such arrays
# alive; one 200-trial block per eta at m = 128 raised peak memory by 10%.
_BLOCK_DOUBLES = 4096


# -- filter study -------------------------------------------------------------


def _filter_study(cfg: ExperimentConfig):
    op = build_operator(cfg.operator)
    n = op.size
    x_true = build_truth(cfg.truth, op)
    y_exact = op.apply(x_true)
    make_kind = Tikhonov if cfg.solver["filter"] == "tikhonov" else Tsvd

    def at_eta(eta, dlt):
        rule = cfg.rule
        alpha = None  # the discrepancy rule chooses one per trial
        if isinstance(rule, AprioriFilter):
            alpha = apriori_filter_alpha(dlt, rule)
        elif isinstance(rule, Fixed):
            alpha = rule.alpha

        def solve_block(block, rngs):
            y_noisy = y_exact + eta * np.stack([rng.standard_normal(n) for rng in rngs])
            if alpha is None:
                disc = discrepancy_alpha(op, y_noisy, dlt, rule)
                # an infeasible row has inconsistent data and noise level:
                # it reports the zero solution, flagged
                return _trial_results(cfg, eta, block, dlt, disc.alpha, disc.report.solution,
                                      x_true, disc.report.final_residual, disc.infeasible)
            x = filter_reconstruct(op, y_noisy, make_kind(alpha))
            return _trial_results(cfg, eta, block, dlt, alpha, x, x_true,
                                  _row_norms(op.singular_values * x - y_noisy))

        return solve_block, None

    return n, max(1, _BLOCK_DOUBLES // n), at_eta


# -- autoconvolution study ----------------------------------------------------


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
            fwd, adj, y_noisy, alpha=alpha, step=step, x0=coeff_init, tol=tol,
            max_iter=max_iter,
        )
    except NonConvergence as exc:
        return exc.report


def _alpha_continuation(grid, haar, y, lo_target, hi_target, seed):
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
        rows, m, iters=30, seed=seed,
    )
    step = _STEP_SAFETY / np.maximum(lip, 1e-12)

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
    budget = np.full(rows, _MAX_ITER)
    spent = np.zeros(rows, dtype=int)
    searching = np.arange(rows)
    for _ in range(_MAX_ALPHA_STEPS):
        if not searching.size:
            break
        report = _autoconv_solve(
            grid, haar, y[searching], coeffs[searching], alpha[searching], step[searching],
            _TOL, budget[searching],
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
                if not ok and budget[i] < _MAX_BUDGET and spent[i] < _TOTAL_BUDGET:
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
            if spent[i] > _TOTAL_BUDGET:
                continue
            if alpha_hi[i] / alpha_lo[i] < 1.02:
                # the residual jumps across the band on this branch: no
                # in-band alpha exists, keep the closest attempt
                continue
            still.append(i)
        searching = np.array(still, dtype=int)
    return last_alpha, coeffs, residual, in_band


# The autoconv alpha search: a solve stops at step _TOL or after its budget,
# _MAX_ITER doubling up to _MAX_BUDGET; a trial stops after _TOTAL_BUDGET
# iterations or _MAX_ALPHA_STEPS alphas; steps are _STEP_SAFETY / Lipschitz.
_TOL = 1e-6
_MAX_ITER = 800
_MAX_BUDGET = 6400
_TOTAL_BUDGET = 20000
_MAX_ALPHA_STEPS = 40
_STEP_SAFETY = 0.9


def _autoconv_study(cfg: ExperimentConfig):
    m = cfg.operator["size"]
    grid = AutoconvGrid(m)
    x_true = build_truth(cfg.truth, build_operator(cfg.operator))
    y_exact = autoconv_apply(grid, x_true)
    haar = _haar_matrix(m)

    def at_eta(eta, dlt):
        lo_target, hi_target = cfg.rule.tau1 * dlt, cfg.rule.tau2 * dlt

        def solve_block(block, rngs):
            y_noisy = np.stack([y_exact + eta * rng.standard_normal(m) for rng in rngs])
            # trivial data: the zero solution already satisfies the bound
            trivial = np.linalg.norm(y_noisy, axis=1) <= lo_target
            alphas, coeffs, residuals, in_band = _alpha_continuation(
                grid, haar, y_noisy[~trivial], lo_target, hi_target, cfg.seed,
            )
            alpha = np.full(len(block), math.inf)
            alpha[~trivial] = alphas
            x = np.zeros_like(y_noisy)
            x[~trivial] = coeffs @ haar
            residual = _row_norms(y_noisy)
            residual[~trivial] = residuals
            flagged = np.zeros(len(block), dtype=bool)
            flagged[~trivial] = ~in_band
            # a trivial trial's ratio delta^2 / inf is 0
            return _trial_results(cfg, eta, block, dlt, alpha, x, x_true, residual, flagged,
                                  ratios=dlt**2 / alpha)

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
            return _trial_results(cfg, eta, block, dlt, alpha, c, c_true,
                                  _row_norms(sigma * c - y_noisy), balance_failed)

        return solve_block, None

    return n, max(1, _BLOCK_DOUBLES // n), at_eta


# -- random source exponent (Landweber) study ---------------------------------


def _landweber_stop_index(q2: np.ndarray, y_sq: np.ndarray, threshold: float, kmax: int):
    """Each row's first k <= kmax with residual <= threshold, and whether it has one.

    Row i's residual^2 after k steps is sum_n q2_n^k y_sq[i, n], monotone
    decreasing in k.  The search doubles k until a row's residual meets the
    threshold, then bisects between the last two k; a row that never meets
    it by kmax gets kmax and is reported unreached.
    """
    thr_sq = threshold * threshold
    rows = y_sq.shape[0]
    lo = np.zeros(rows, dtype=int)  # residual above the threshold at lo, unless hi = 0
    hi = np.zeros(rows, dtype=int)
    reached = np.sum(y_sq, axis=1) <= thr_sq
    # doubling: every searching row is at the same k, a scalar power
    searching = np.flatnonzero(~reached)
    k_prev, k = 0, 1
    while searching.size:
        met = np.sum(q2**k * y_sq[searching], axis=1) <= thr_sq
        lo[searching], hi[searching] = k_prev, k
        reached[searching[met]] = True
        if k >= kmax:
            break
        searching = searching[~met]
        k_prev, k = k, min(2 * k, kmax)
    # bisection: each row between its own lo and hi, so one power per row
    open_ = np.flatnonzero(reached & (hi - lo > 1))
    while open_.size:
        mid = (lo[open_] + hi[open_]) // 2
        above = np.sum(_row_powers(q2, mid) * y_sq[open_], axis=1) > thr_sq
        lo[open_[above]] = mid[above]
        hi[open_[~above]] = mid[~above]
        open_ = open_[hi[open_] - lo[open_] > 1]
    return np.where(reached, hi, kmax), reached


def _nu_random_study(cfg: ExperimentConfig):
    op = build_operator(cfg.operator)
    sigma = op.singular_values
    m = sigma.size
    v = build_truth(cfg.truth, op)  # the source vector; nu is drawn per trial
    gamma = 0.9 / float(sigma[0] ** 2)  # a Landweber step that contracts
    kmax = cfg.solver["kmax"]
    q = 1.0 - gamma * sigma**2
    q2 = q * q

    def at_eta(eta, dlt):
        def solve_block(block, rngs):
            # each trial draws its exponent before its noise: the draw order fixes the data
            two_nu = 2.0 * np.array([rng.uniform(0.0, 0.5) for rng in rngs])
            noise = np.stack([rng.standard_normal(m) for rng in rngs])
            x_true = _row_powers(sigma, two_nu) * v
            y_noisy = sigma * x_true + eta * noise
            k_star, reached = _landweber_stop_index(
                q2, y_noisy * y_noisy, cfg.rule.tau_hat * dlt, kmax)
            x = filter_reconstruct(op, y_noisy, LandweberFilter(k_star, gamma))
            return _trial_results(cfg, eta, block, dlt, k_star.astype(float), x, x_true,
                                  _row_norms(sigma * x - y_noisy), ~reached)

        # the lifted rate W(-log delta) / (-log delta) is twice the W approximation of nu
        rate_theory = 2.0 * nu_effective(dlt).nu_approx if 0.0 < dlt < 1.0 else None
        return solve_block, rate_theory

    return m, max(1, _BLOCK_DOUBLES // m), at_eta


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


def export(summaries, path) -> None:
    """Write per-eta summaries as CSV; numbers carry 17 significant digits.

    ``path`` is a file path or an open text stream.  The CSV holds exactly
    the documented columns, after a header row.
    """

    def write(handle):
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for s in summaries:
            handle.write(",".join(_format(getattr(s, c)) for c in CSV_COLUMNS) + "\n")

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
