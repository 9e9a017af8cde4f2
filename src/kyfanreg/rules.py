"""Parameter-choice and rate-prediction rules.

Contains the a priori filter rule alpha = C (delta/rho)^(1/(beta(nu+1))),
the discrepancy principle for continuous alpha (Tikhonov filter, bisection
on the monotone residual, run on every row of a (B, n) data block at once
and reporting each row trivial, infeasible or in the band), the balancing
equation for weighted-lp (Besov) penalties, the inf-max stochastic
Tikhonov rate predictor, and the effective smoothness exponent solved from
rho^(2 nu / (2 nu + 1)) = 2 nu together with its Lambert-W approximation.
Iteration stopping by the discrepancy principle is the nu-random study's
batched Landweber stop search, ``harness._landweber_stop_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .noise import _log_term
from .regularization import SolveReport, Tikhonov, _row_norms, filter_reconstruct
from .special import lambert_w0, reg_gamma_q

__all__ = [
    "AprioriFilter",
    "Discrepancy",
    "DiscrepancyStop",
    "Fixed",
    "DiscrepancyResult",
    "NoBracket",
    "BesovBalanceParams",
    "BesovBalanceResult",
    "TikhonovRateModel",
    "RatePrediction",
    "NuEstimate",
    "apriori_filter_alpha",
    "discrepancy_alpha",
    "besov_balance_alpha",
    "tikhonov_rate_predict",
    "uniform_source_model",
    "heavy_tail_model",
    "combined_model",
    "nu_effective",
]


# -- rule parameter sets ---------------------------------------------------


@dataclass(frozen=True)
class AprioriFilter:
    """A priori rule alpha = C * (delta_eff / rho)^(1/(beta*(nu+1)))."""

    beta: float
    nu: float
    rho: float
    constant: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if not (self.nu >= 0.0):
            raise ValueError(f"nu must be nonnegative, got {self.nu!r}")
        if not (self.rho > 0.0):
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if not (self.constant > 0.0):
            raise ValueError(f"constant must be positive, got {self.constant!r}")


@dataclass(frozen=True)
class Discrepancy:
    """Residual band tau1 * delta <= ||A x_alpha - y|| <= tau2 * delta."""

    tau1: float
    tau2: float

    def __post_init__(self):
        if not (1.0 < self.tau1 <= self.tau2):
            raise ValueError(f"need 1 < tau1 <= tau2, got ({self.tau1!r}, {self.tau2!r})")


@dataclass(frozen=True)
class DiscrepancyStop:
    """Stop an iteration at the first residual <= tau_hat * delta (tau_hat > 2)."""

    tau_hat: float

    def __post_init__(self):
        if not (self.tau_hat > 2.0):
            raise ValueError(f"tau_hat must exceed 2, got {self.tau_hat!r}")


@dataclass(frozen=True)
class Fixed:
    """A fixed regularization parameter, no adaptation."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


class NoBracket(RuntimeError):
    """The balancing equation shows no sign change on the scan grid."""

    def __init__(self, message: str, scan):
        super().__init__(message)
        self.scan = scan


# -- a priori and discrepancy rules -----------------------------------------


def apriori_filter_alpha(delta_eff: float, rule: AprioriFilter) -> float:
    """alpha = C * (delta_eff / rho)^(1/(beta*(nu+1)))."""
    if not (delta_eff > 0.0):
        raise ValueError(f"delta_eff must be positive, got {delta_eff!r}")
    exponent = 1.0 / (rule.beta * (rule.nu + 1.0))
    return rule.constant * (delta_eff / rule.rho) ** exponent


@dataclass(frozen=True)
class DiscrepancyResult:
    """Per-row outcome of :func:`discrepancy_alpha` on a (B, n) block.

    ``alpha`` is inf on a trivial or infeasible row, whose solution is 0;
    every other row ended in the band.  ``report.row_iterations`` counts
    each row's residual evaluations and ``report.iterations`` their sum.
    """

    alpha: np.ndarray
    report: SolveReport
    trivial: np.ndarray
    infeasible: np.ndarray


def _tikhonov_residual_norm(s2: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    # each row's residual at its own alpha > 0 (sigma = 0 components stay in full)
    factor = alpha[:, np.newaxis] / (s2 + alpha[:, np.newaxis])
    return np.sqrt(np.sum((factor * y) ** 2, axis=1))


def discrepancy_alpha(op, y, delta_eff: float, rule: Discrepancy) -> DiscrepancyResult:
    """Choose alpha with tau1*delta <= ||A x_alpha - y|| <= tau2*delta (Tikhonov).

    ``y`` is a (B, n) block, and each row gets its own alpha.  The Tikhonov
    residual is continuous and non-decreasing in alpha, so a bisection on
    log(alpha) is exact: a bracket sweep by factors of 10 from sigma_1^2,
    then bisection to the band, on all rows at once.  A row with
    ||y|| <= tau1*delta is trivial: the zero solution already satisfies the
    bound.  As alpha -> 0 the residual falls to the norm of the data on the
    zero singular values; a row whose floor exceeds tau2*delta, whose
    residual stays above the band down to alpha = 1e-300, or whose
    bisection collapses onto a residual outside a zero-width band
    (tau1 == tau2) is infeasible: its data and noise level are
    inconsistent.  Both give alpha = inf.
    """
    if not (delta_eff > 0.0):
        raise ValueError(f"delta_eff must be positive, got {delta_eff!r}")
    s = op.singular_values
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != s.size:
        raise ValueError(f"data: expected a (B, {s.size}) block, got shape {y.shape}")
    s2 = s * s
    lo_target = rule.tau1 * delta_eff
    hi_target = rule.tau2 * delta_eff
    rows = y.shape[0]
    trivial = _row_norms(y) <= lo_target
    infeasible = ~trivial & (_row_norms(y[:, s == 0.0]) > hi_target)
    evals = np.zeros(rows, dtype=int)

    work = np.flatnonzero(~trivial & ~infeasible)
    scale = max(float(s[0]) ** 2, 1e-30)
    hi = np.full(rows, scale)
    evals[work] = 1
    sweep = work
    while sweep.size:
        sweep = sweep[_tikhonov_residual_norm(s2, y[sweep], hi[sweep]) < lo_target]
        hi[sweep] *= 10.0
        evals[sweep] += 1
        sweep = sweep[hi[sweep] <= 1e300]
    lo = np.minimum(hi, scale * 1e-12)
    sweep = work
    while sweep.size:
        sweep = sweep[_tikhonov_residual_norm(s2, y[sweep], lo[sweep]) > hi_target]
        lo[sweep] /= 10.0
        evals[sweep] += 1
        infeasible[sweep[lo[sweep] < 1e-300]] = True
        sweep = sweep[lo[sweep] >= 1e-300]

    alpha = np.full(rows, math.inf)
    active = work[~infeasible[work]]
    for _ in range(500):
        if not active.size:
            break
        a = np.sqrt(lo[active] * hi[active])
        alpha[active] = a
        res = _tikhonov_residual_norm(s2, y[active], a)
        evals[active] += 1
        below, above = res < lo_target, res > hi_target
        lo[active[below]] = a[below]
        hi[active[above]] = a[above]
        # zero-width band (tau1 == tau2): accept the bisection limit if its
        # residual lies in the band to roundoff
        moving = below | above
        collapsed = moving & (hi[active] / lo[active] < 1.0 + 1e-14)
        in_band = (lo_target * (1.0 - 1e-9) <= res) & (res <= hi_target * (1.0 + 1e-9))
        infeasible[active[collapsed & ~in_band]] = True
        active = active[moving & ~collapsed]
    alpha[infeasible] = math.inf

    solution = np.zeros_like(y)
    solved = np.isfinite(alpha)
    solution[solved] = filter_reconstruct(op, y[solved], Tikhonov(alpha[solved]))
    report = SolveReport(
        solution=solution, iterations=int(evals.sum()),
        final_residual=_row_norms(s * solution - y), row_iterations=evals,
    )
    return DiscrepancyResult(alpha=alpha, report=report, trivial=trivial, infeasible=infeasible)


# -- balancing rule for the weighted-lp penalty ------------------------------


@dataclass(frozen=True)
class BesovBalanceParams:
    """Inputs of the balancing equation for the weighted-lp prior.

    eta, m: noise level and data dimension; n: truncation level of the
    basis expansion; p in [1, 2]; rho: prior radius; zeta: smoothness gap;
    beta: operator decay exponent; constant: rate constant in front of the
    error term.
    """

    eta: float
    m: int
    n: int
    p: float
    rho: float
    zeta: float
    beta: float
    constant: float = 1.0

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")
        for name in ("m", "n"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("p must lie in [1, 2]")
        for name in ("rho", "zeta", "beta", "constant"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class BesovBalanceResult:
    alpha_tilde: float
    lhs: float
    rhs: float
    gap: float


# the balancing scan: log10(alpha_tilde) over this range, at this many points
_SCAN_LOG10_RANGE = (-12.0, 12.0)
_SCAN_POINTS = 481


def _besov_sides(params: BesovBalanceParams, alpha_tilde: float) -> tuple[float, float]:
    lm = min(_log_term(params.eta, params.m), 0.0)
    base = params.m - lm
    rho_p = params.rho**params.p
    err = params.eta * (math.sqrt(base) + math.sqrt(base + alpha_tilde * rho_p / 2.0))
    rho_tilde = params.rho + (rho_p + (2.0 * params.m - lm) / alpha_tilde) ** (1.0 / params.p)
    expo = params.zeta / (params.zeta + params.beta)
    lhs = params.constant * err**expo * rho_tilde ** (1.0 - expo)
    rhs = reg_gamma_q(params.m / 2.0, base) + reg_gamma_q(
        params.n / params.p, alpha_tilde * rho_p / 2.0
    )
    return lhs, rhs


def besov_balance_alpha(params: BesovBalanceParams) -> BesovBalanceResult:
    """Solve the balancing equation error-term = tail-probability-sum.

    Scans log10(alpha_tilde) on a fixed grid (``_SCAN_LOG10_RANGE``,
    ``_SCAN_POINTS``) for a sign change of LHS - RHS (no global
    monotonicity is assumed), then bisects to a relative gap of 1e-8.
    Raises :class:`NoBracket` with the scan table when no sign change
    exists.
    """
    grid = np.linspace(*_SCAN_LOG10_RANGE, _SCAN_POINTS)
    diffs = []
    for t in grid:
        lhs, rhs = _besov_sides(params, 10.0**t)
        diffs.append(lhs - rhs)
    diffs = np.asarray(diffs)

    bracket = None
    f_lo = 0.0
    for i in range(len(grid) - 1):
        if diffs[i] == 0.0:
            bracket = (grid[i], grid[i])
            f_lo = 0.0
            break
        if diffs[i] * diffs[i + 1] < 0.0:
            bracket = (grid[i], grid[i + 1])
            f_lo = float(diffs[i])
            break
    if bracket is None:
        raise NoBracket(
            "LHS - RHS has no sign change on the scan grid",
            scan=tuple((10.0**t, float(d)) for t, d in zip(grid, diffs)),
        )

    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lhs, rhs = _besov_sides(params, 10.0**mid)
        gap = lhs - rhs
        if abs(gap) <= 1e-8 * max(abs(lhs), abs(rhs)):
            return BesovBalanceResult(alpha_tilde=10.0**mid, lhs=lhs, rhs=rhs, gap=gap)
        if (gap > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    lhs, rhs = _besov_sides(params, 10.0**mid)
    return BesovBalanceResult(alpha_tilde=10.0**mid, lhs=lhs, rhs=rhs, gap=lhs - rhs)


# -- stochastic Tikhonov rate predictor --------------------------------------


@dataclass(frozen=True)
class TikhonovRateModel:
    """Tail model for the inf-max reconstruction bound.

    ``phi_cl(xi)`` bounds the probability that the closedness product
    exceeds xi; ``phi_de(tau)`` bounds the probability that the source
    element norm exceeds tau.  Both must accept numpy arrays.  The
    regularization parameter inside the bound is ``rho_K**alpha_exponent``.
    """

    phi_cl: Callable
    phi_de: Callable
    rate_constant: float = 1.0
    alpha_exponent: float = 1.0


@dataclass(frozen=True)
class RatePrediction:
    bound: float
    xi: float
    tau: float


# the inf-max search grids, read-only since each prediction hands them to the
# model: xi log-spaced in 1 - xi to resolve xi -> 1, tau over [1e-3, 1e3]
_XI_GRID = 1.0 - np.logspace(math.log10(1e-3), math.log10(1.0 - 1e-3), 200)
_TAU_GRID = np.logspace(-3.0, 3.0, 200)
_XI_GRID.flags.writeable = _TAU_GRID.flags.writeable = False


def tikhonov_rate_predict(rho_k: float, model: TikhonovRateModel) -> RatePrediction:
    """Exhaustive inf-max bound evaluation over ``_XI_GRID`` x ``_TAU_GRID``.

    Evaluates max{rho_K + phi_cl(xi) + phi_de(tau),
    c (rho_K + alpha tau) / (sqrt(alpha) sqrt(1 - xi))} on the grid and
    returns the minimum with its minimizing (xi, tau); ties resolve to the
    smallest flat grid index.
    """
    if not (0.0 < rho_k <= 1.0):
        raise ValueError(f"rho_k must lie in (0, 1], got {rho_k!r}")
    xi, tau = _XI_GRID, _TAU_GRID
    alpha = rho_k**model.alpha_exponent
    tail = rho_k + np.asarray(model.phi_cl(xi), dtype=float)[:, None] + np.asarray(
        model.phi_de(tau), dtype=float
    )[None, :]
    err = (
        model.rate_constant
        * (rho_k + alpha * tau[None, :])
        / (math.sqrt(alpha) * np.sqrt(1.0 - xi)[:, None])
    )
    bound = np.maximum(tail, err)
    flat = int(np.argmin(bound))
    i, j = np.unravel_index(flat, bound.shape)
    return RatePrediction(bound=float(bound[i, j]), xi=float(xi[i]), tau=float(tau[j]))


def uniform_source_model(rate_constant: float = 1.0) -> TikhonovRateModel:
    """Source norm uniform on [0, 1]: phi_cl = 1 - xi, phi_de = (1 - tau)_+."""
    return TikhonovRateModel(
        phi_cl=lambda xi: 1.0 - xi,
        phi_de=lambda tau: np.maximum(1.0 - tau, 0.0),
        rate_constant=rate_constant,
    )


def heavy_tail_model(c: float = 0.25, exponent: float = 1.0) -> TikhonovRateModel:
    """phi_de = c tau^-e with a closedness tail bounded below by c."""
    return TikhonovRateModel(
        phi_cl=lambda xi: np.full_like(np.asarray(xi, dtype=float), c),
        phi_de=lambda tau: c * np.asarray(tau, dtype=float) ** (-exponent),
    )


def combined_model(c: float = 1.0, rate_constant: float = 1.0) -> TikhonovRateModel:
    """phi_cl = 1 - xi and phi_de = c/(1 + tau) with alpha ~ rho_K^(5/4)."""
    return TikhonovRateModel(
        phi_cl=lambda xi: 1.0 - xi,
        phi_de=lambda tau: c / (1.0 + np.asarray(tau, dtype=float)),
        rate_constant=rate_constant,
        alpha_exponent=1.25,
    )


# -- effective smoothness from a uniformly distributed source exponent -------


@dataclass(frozen=True)
class NuEstimate:
    nu_exact: float
    nu_approx: float


def nu_effective(rho_k: float) -> NuEstimate:
    """Solve rho^(2 nu/(2 nu+1)) = 2 nu on (0, 1/2] and its W approximation.

    The exact root comes from bisection (the left side exceeds 2 nu near 0
    and is below it at nu = 1/2 for rho < 1); the approximation is
    nu = W(-log rho) / (-2 log rho).
    """
    if not (0.0 < rho_k < 1.0):
        raise ValueError(f"rho_k must lie in (0, 1), got {rho_k!r}")
    log_rho = math.log(rho_k)

    def g(nu: float) -> float:
        return math.exp(2.0 * nu / (2.0 * nu + 1.0) * log_rho) - 2.0 * nu

    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    nu_exact = 0.5 * (lo + hi)
    nu_approx = lambert_w0(-log_rho) / (-2.0 * log_rho)
    return NuEstimate(nu_exact=nu_exact, nu_approx=nu_approx)
