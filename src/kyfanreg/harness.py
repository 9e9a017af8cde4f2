"""Monte Carlo experiment runner, rate fitting, and result export.

A study runs the lifting loop: per trial, draw Gaussian noise, compute the
effective noise level (Ky Fan bound or inflated expectation), run the
deterministic parameter-choice rule and solver, and record the
reconstruction error.  Per-eta summaries report the mean error of the
truncated solutions, the empirical Ky Fan error of the raw errors, and the
mean chosen parameter.

One driver, ``run_study``, owns the only loop over the eta grid: noise
level, blocks of trials, errors, summary and records.  A study supplies
only what differs: its setup, its once-per-eta work and a block solve.
Every study solves the trials of an eta together, as (B, n) blocks of at
most _BLOCK_DOUBLES doubles, and its ``solve_block`` returns the block's
arrays: alpha, solutions, truth, residual, flags and delta^2 / alpha.  The
driver builds every ``TrialResult`` and ``EtaSummary`` from them.  The
parsed config is known to suit the study.

Determinism: every trial draws from a generator keyed by
(seed, eta_index << 32 | trial), blocks are fixed by the grid size and the
trial order, and summaries are reduced in trial order, so outputs repeat
exactly.  One generator is built per eta and re-keyed for each trial in
turn, which gives the trial the draws of its own keyed generator.  A
filter, Besov or nu-random record does not depend on the block size at
all: their rules, filters and norms act row by row.  An autoconv record
agrees with solving its trial alone up to roundoff.
"""

from __future__ import annotations

import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, KyFanSquared, build_operator, build_truth
from .noise import (
    NoiseSpec,
    delta_eff,
    empirical_kyfan,
    rekey,
    trial_rng,
    truncate_solution,
)
from .operators import (
    AutoconvGrid,
    _detail_blocks,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
    autoconv_spectrum,
    besov_weights,
    haar_forward,
    haar_level_indices,
)
from .regularization import (
    LandweberFilter,
    Tikhonov,
    Tsvd,
    _row_norms,
    _row_powers,
    filter_reconstruct,
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

# Not called here.  perfbench/tracing.py wraps these two names in this
# module, so they must stay importable from it.
from .operators import autoconv_derivative_apply  # noqa: F401
from .regularization import operator_norm_squared  # noqa: F401


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
    flagged: bool
    ratio_delta2_alpha: float | None


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
    if not all(0.0 < v < math.inf for pt in pts for v in pt):  # NaN fails too
        raise ValueError("rate fits require finite, strictly positive values")
    if len({a for a, _ in pts}) < 2:
        raise ValueError(f"rate fits need 2 or more distinct noise values, got only {pts[0][0]!r}")
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

    The study's setup returns the data dimension m, which fixes the trials
    per block, and ``at_eta(eta, delta_eff) -> (solve_block, rate_theory)``,
    which does the once-per-eta work.  ``solve_block(rngs)`` draws each
    trial's data from its generator, in one pass over the iterator
    ``rngs``: each item is the eta's one generator, re-keyed for the next
    trial, so a trial's draws must be made before the next item is taken.
    It returns ``(alpha, x, truth, residual, flagged, ratio)``: ``x`` holds
    one solution per row, ``truth`` is one vector or one row per trial, and
    each other value is one per trial or one for the block, with ``ratio``
    None where the study has no delta^2 / alpha.  The errors are taken
    here, against ``truth``, before and after the truncation caps, and each
    eta's columns give its summary and then its records.
    """
    m, at_eta = _STUDIES[cfg.study](cfg)
    block_rows = max(1, _BLOCK_DOUBLES // m)
    summaries, trials = [], []
    for eta_idx, eta in enumerate(cfg.eta_grid):
        dlt = delta_eff(NoiseSpec(eta=eta, m=m), cfg.noise_mode)
        solve_block, rate_theory = at_eta(eta, dlt)
        rng = trial_rng(cfg.seed, eta_idx << 32)
        blocks = []
        for start in range(0, cfg.trials_per_eta, block_rows):
            block_trials = range(start, min(start + block_rows, cfg.trials_per_eta))
            rngs = (rekey(rng, cfg.seed, (eta_idx << 32) | t) for t in block_trials)
            alpha, x, truth, residual, flagged, ratio = solve_block(rngs)
            x_trunc = truncate_solution(x, cfg.caps.norm, cfg.caps.sup)
            # a ratio of None broadcasts to a column of None (an object array)
            block = (alpha, _row_norms(x - truth), _row_norms(x_trunc - truth), residual,
                     np.any(x_trunc != x, axis=1), flagged, ratio)
            blocks.append([np.broadcast_to(v, len(block_trials)) for v in block])
        columns = [np.concatenate(column) for column in zip(*blocks)]
        alpha, err, err_trunc, residual, truncated, flagged, ratio = columns
        finite = np.isfinite(alpha)
        summaries.append(EtaSummary(
            eta=eta,
            delta_eff=dlt,
            alpha_or_kstar=float(np.mean(alpha[finite])) if finite.any() else math.inf,
            err_mean=float(np.mean(err_trunc)),
            err_kyfan=empirical_kyfan(err),
            residual_mean=float(np.mean(residual)),
            trials=err.size,
            truncated_count=int(np.count_nonzero(truncated)),
            flagged_count=int(np.count_nonzero(flagged)),
            ratio_delta2_alpha=None if ratio[0] is None else float(np.mean(ratio)),
            rate_theory=rate_theory,
        ))
        rows = zip(*(column.tolist() for column in columns))
        trials.extend(TrialResult(eta, t, dlt, *row) for t, row in enumerate(rows))
    return StudyResult(study=cfg.study, summaries=tuple(summaries), trials=tuple(trials))


# Trials solved together by every study: enough rows to spread numpy's
# per-call cost, few enough that each (rows, m) array holds at most this
# many doubles.  An autoconv solve keeps about twenty such arrays alive:
# on the autoconv benchmark (m = 128), 64-row blocks raise peak memory by
# 0.9 MB (1.5%) over 32-row ones, and 128-row blocks by 2.9 MB (4.7%).
_BLOCK_DOUBLES = 8192


# -- filter study -------------------------------------------------------------


def _filter_study(cfg: ExperimentConfig):
    op = build_operator(cfg.operator)
    n = op.size
    x_true = build_truth(cfg.truth, op)
    y_exact = op.singular_values * x_true
    make_kind = Tikhonov if cfg.solver["filter"] == "tikhonov" else Tsvd

    def at_eta(eta, dlt):
        rule = cfg.rule
        alpha = None  # the discrepancy rule chooses one per trial
        if isinstance(rule, AprioriFilter):
            alpha = apriori_filter_alpha(dlt, rule)
        elif isinstance(rule, Fixed):
            alpha = rule.alpha

        def solve_block(rngs):
            y_noisy = y_exact + eta * np.stack([rng.standard_normal(n) for rng in rngs])
            if alpha is None:
                disc = discrepancy_alpha(op, y_noisy, dlt, rule)
                # an infeasible row has inconsistent data and noise level:
                # it reports the zero solution, flagged
                return (disc.alpha, disc.report.solution, x_true, disc.report.final_residual,
                        disc.infeasible, None)
            x = filter_reconstruct(op, y_noisy, make_kind(alpha))
            return alpha, x, x_true, _row_norms(op.singular_values * x - y_noisy), False, None

        return solve_block, None

    return n, at_eta


# -- autoconvolution study ----------------------------------------------------


def _constant_fit_init(grid: AutoconvGrid, y: np.ndarray) -> np.ndarray:
    # F(c*1)(s) = c^2 s; least-squares fit of c^2 against each row of data
    s = (np.arange(grid.m) + 1.0) * grid.h
    c_sq = np.maximum(y @ s / float(s @ s), 1e-6)
    return np.repeat(np.sqrt(c_sq)[:, np.newaxis], grid.m, axis=1)


def _haar_step_scale(grid: AutoconvGrid, haar: np.ndarray) -> np.ndarray:
    # D = 1 / the row sums of |G|, G = K*K for K = F'(1) on Haar coefficients:
    # F'(c*1) v = 2 h c cumsum(v) maps coefficient i to 2 h c cumsum(haar[i]).
    # By Gershgorin, D G(c) / c^2 has no eigenvalue above 1 at any level c
    k = 2.0 * grid.h * np.cumsum(haar, axis=1)
    return 1.0 / np.sum(np.abs(k @ k.T), axis=1)


def _haar_matrix(m: int) -> np.ndarray:
    # dense orthonormal transform matrix; one BLAS product per application
    # beats the recursive transform inside tight solver loops.  Rows hold
    # vectors, so c = x @ haar.T analyses and x = c @ haar synthesizes
    return np.column_stack([haar_forward(col) for col in np.eye(m)])


def _autoconv_solve(grid, haar, y_noisy, coeff_init, alpha, step, tol):
    def linearize(c):
        # F and F'* at the synthesis x = c @ haar share its one spectrum
        x = c @ haar
        spectrum = autoconv_spectrum(grid, x)
        return (autoconv_apply(grid, x, spectrum=spectrum),
                lambda r: autoconv_derivative_adjoint_apply(grid, x, r, spectrum=spectrum) @ haar.T)

    return prox_gradient_solve(
        linearize, y_noisy, alpha=alpha, step=step, x0=coeff_init, tol=tol, max_iter=_MAX_ITER,
    )


def _alpha_continuation(grid, haar, y, lo_target, hi_target):
    """Search alpha with residual in [lo_target, hi_target] for each data row.

    Each row starts above its kill-everything alpha and moves geometrically
    toward the band, for at most _MAX_ALPHA_STEPS alphas.  Until the band is
    bracketed, a row steps by a secant through its last two (log alpha, log
    residual) points, aimed at the band's log-middle sqrt(lo * hi) and
    clamped to a factor in [1.2, 4]; its first step, and any step without a
    finite positive slope, is x4.  Once bracketed it bisects in log alpha.
    Every alpha step is one batched solve over the rows still searching.
    Each solve runs until it converges or spends its _MAX_ITER iterations,
    and the residual is read at its end: the accelerated solver's residual
    can dip below the band on the way, and stopping at such a dip would read
    the alpha as below the band and trip the band-jump test.  An unconverged
    end residual moves alpha like any other; the next solve starts from
    where this one stopped.
    Every solve of a row takes the same steps, one per Haar coefficient:
    _STEP_SAFETY * D / c^2 at the row's constant initial fit x0 = c*1, with
    D from ``_haar_step_scale``, so the steps scale F'(x0)'s Gram matrix in
    Haar coefficients to eigenvalues of at most _STEP_SAFETY.  One scalar
    step would be set by the coarsest coefficient, whose curvature is about
    10^4 times the finest one's at m = 128.  Returns each row's last alpha,
    Haar coefficients and residual, and whether it is flagged: searched,
    and ended outside the band.  A row whose solve ends at x = 0 above the
    band stops there, flagged: F'(0) = 0 makes 0 a fixed point of every
    later warm-started solve.  A row with ||y|| <= lo_target is trivial, by the test of
    ``discrepancy_alpha``: it keeps alpha = inf, zero coefficients and
    residual ||y||, unflagged, and is never solved.  A solve converges when
    its step falls to _TOL_REL * lo_target: the band asks for the residual
    to within a fraction of the noise level, at any noise level.
    """
    rows = len(y)
    tol = _TOL_REL * lo_target
    residual = _row_norms(y)
    searching = np.flatnonzero(residual > lo_target)
    x0 = _constant_fit_init(grid, y[searching])
    coeffs = np.zeros_like(y)
    coeffs[searching] = x0 @ haar.T
    # positive: the fit's level c is at least 1e-3
    step = np.zeros_like(y)
    step[searching] = _STEP_SAFETY * _haar_step_scale(grid, haar) / x0[:, :1] ** 2

    # start above the kill-everything alpha (prox fixed point at the init
    # needs alpha >= 2 max|gradient|, whatever the steps), then continue downward
    grad0 = autoconv_derivative_adjoint_apply(
        grid, x0, autoconv_apply(grid, x0) - y[searching]) @ haar.T
    alpha = np.full(rows, math.inf)
    alpha[searching] = np.maximum(4.0 * np.max(np.abs(grad0), axis=1), 1e-12)
    del x0, grad0
    alpha_hi = np.full(rows, math.nan)
    alpha_lo = np.full(rows, math.nan)
    last_alpha = alpha.copy()
    last_alpha[searching] = math.nan  # no earlier point: the first step is x4
    mid_target = math.sqrt(lo_target * hi_target)
    flagged = np.zeros(rows, dtype=bool)
    for _ in range(_MAX_ALPHA_STEPS):
        if not searching.size:
            break
        report = _autoconv_solve(
            grid, haar, y[searching], coeffs[searching], alpha[searching], step[searching], tol,
        )
        a_prev, r_prev = last_alpha[searching], residual[searching]
        coeffs[searching] = report.solution
        res = residual[searching] = report.final_residual
        a = last_alpha[searching] = alpha[searching]
        at_zero = ~report.solution.any(axis=1)
        del report  # the next solve need not hold this one's arrays
        above, below = res > hi_target, res < lo_target
        flagged[searching] = above | below
        up, down = searching[above], searching[below]
        alpha_hi[up] = a[above]
        alpha_lo[down] = a[below]
        with np.errstate(all="ignore"):  # nan or inf slopes are replaced below
            slope = np.log(res / r_prev) / np.log(a / a_prev)
            factor = np.clip(np.exp(np.abs(np.log(res / mid_target)) / slope), 1.2, 4.0)
        factor[~(np.isfinite(slope) & (slope > 0))] = 4.0
        alpha[up] = np.where(np.isnan(alpha_lo[up]), a[above] / factor[above],
                             np.sqrt(a[above] * alpha_lo[up]))
        alpha[down] = np.where(np.isnan(alpha_hi[down]), a[below] * factor[below],
                               np.sqrt(a[below] * alpha_hi[down]))
        # a row whose residual jumps across the band between two alphas 2%
        # apart has no in-band alpha on this branch: it keeps its closest attempt
        jumped = alpha_hi[searching] / alpha_lo[searching] < 1.02
        searching = searching[(above & ~at_zero | below) & ~jumped]
    return last_alpha, coeffs, residual, flagged


# The autoconv alpha search: a solve stops at step _TOL_REL * tau1 * delta_eff
# (the band's lower edge, since tau1 = tau2 is a band of width 0) or after
# _MAX_ITER iterations, a trial after _MAX_ALPHA_STEPS alphas (so at most
# 32,000 iterations); steps are _STEP_SAFETY * D / c^2.  Until bracketed,
# alpha moves by a secant factor in [1.2, 4]: 4 is the most a row ever moves,
# and 1.2 is about the band's own width in residual, 1.3 / 1.1.
_TOL_REL = 2e-3
_MAX_ITER = 800
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

        def solve_block(rngs):
            y_noisy = np.stack([y_exact + eta * rng.standard_normal(m) for rng in rngs])
            alpha, coeffs, residual, flagged = _alpha_continuation(
                grid, haar, y_noisy, lo_target, hi_target,
            )
            # a trivial trial's ratio delta^2 / inf is 0
            return alpha, coeffs @ haar, x_true, residual, flagged, dlt**2 / alpha

        return solve_block, None

    return m, at_eta


# -- Besov (weighted-l1/lp) study --------------------------------------------


def _level_spike_coeffs(levels: int, zeta: float, p: float, weights, norm: float) -> np.ndarray:
    n = 2**levels
    c = np.zeros(n)
    c[0] = 1.0
    for level, start, _ in _detail_blocks(n):  # one spike at the start of each level
        c[start] = 2.0 ** (-zeta * level)
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
                beta=cfg.operator["decay"],
            )
            try:
                alpha = besov_balance_alpha(params).alpha_tilde * eta**2
            except NoBracket:
                alpha, balance_failed = math.inf, True

        def solve_block(rngs):
            y_noisy = np.stack([y_exact + eta * rng.standard_normal(n) for rng in rngs])
            if math.isinf(alpha):
                c = np.zeros_like(y_noisy)
            else:
                # diagonal operator: the weighted-lp minimizer separates per coefficient
                c = prox_weighted_lp(y_noisy / sigma, alpha * bw.weights / (2.0 * sigma**2), p)
            return alpha, c, c_true, _row_norms(sigma * c - y_noisy), balance_failed, None

        return solve_block, None

    return n, at_eta


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


# The nu-random study's Landweber stop: a trial that has not met the
# discrepancy threshold after _KMAX steps stops there, flagged.
_KMAX = 10**7


def _nu_random_study(cfg: ExperimentConfig):
    op = build_operator(cfg.operator)
    sigma = op.singular_values
    m = sigma.size
    v = build_truth(cfg.truth, op)  # the source vector; nu is drawn per trial
    gamma = 0.9 / float(sigma[0] ** 2)  # a Landweber step that contracts
    q = 1.0 - gamma * sigma**2
    q2 = q * q

    def at_eta(eta, dlt):
        def solve_block(rngs):
            # each trial draws its exponent before its noise: the draw order fixes the data
            nus, noise = zip(*[(rng.uniform(0.0, 0.5), rng.standard_normal(m)) for rng in rngs])
            x_true = _row_powers(sigma, 2.0 * np.array(nus)) * v
            y_noisy = sigma * x_true + eta * np.stack(noise)
            k_star, reached = _landweber_stop_index(
                q2, y_noisy * y_noisy, cfg.rule.tau_hat * dlt, _KMAX)
            x = filter_reconstruct(op, y_noisy, LandweberFilter(k_star, gamma))
            return (k_star.astype(float), x, x_true, _row_norms(sigma * x - y_noisy), ~reached,
                    None)

        # the lifted rate W(-log delta) / (-log delta) is twice the W approximation of nu
        rate_theory = 2.0 * nu_effective(dlt).nu_approx if 0.0 < dlt < 1.0 else None
        return solve_block, rate_theory

    return m, at_eta


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


def export(rows, path, columns=tuple(zip(CSV_COLUMNS, CSV_COLUMNS))) -> None:
    """Write rows as CSV; numbers carry 17 significant digits.

    ``path`` is a file path or an open text stream.  ``columns`` holds one
    (header, field) pair per column; by default the CSV holds exactly the
    documented ``EtaSummary`` columns.  A header row comes first.  The whole
    text is built before anything is written.  A file is written to a
    temporary file beside it and then renamed onto it, so a write that fails
    partway leaves any earlier file intact.  A symbolic link is written
    through: the rename lands on the file it resolves to, and the link stays.
    /dev/stdout and /dev/stderr are written through ``sys.stdout`` and
    ``sys.stderr``: redirected to a regular file, they are one, and a rename
    onto it would drop what else the process writes there.  Any other device
    or pipe is written in place: renaming a file onto it would replace it.
    """
    headers, fields = zip(*columns)
    lines = [",".join(headers)]
    lines += [",".join(_format(getattr(row, f)) for f in fields) for row in rows]
    text = "\n".join(lines) + "\n"
    path = {"/dev/stdout": sys.stdout, "/dev/stderr": sys.stderr}.get(str(path), path)
    if hasattr(path, "write"):
        path.write(text)
        return
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        if not in_place:
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    finally:
        if not in_place and os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


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
