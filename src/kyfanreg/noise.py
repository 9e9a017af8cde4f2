"""Gaussian noise model and stochastic noise-level quantities.

The noise is epsilon ~ N(0, eta^2 I_m) on R^m.  This module provides the
sampler, the closed-form expectation of ||epsilon||_2 and its eta*sqrt(m)
upper bound, the analytic Ky Fan bound for Gaussian noise, the empirical
Ky Fan estimate, tail probabilities of ||epsilon|| against an inflated
expectation, tau(eta) inflation schedules, and the effective noise level
fed to deterministic parameter-choice rules.

Reproducibility
---------------
Every draw comes from a Philox generator keyed by (seed, index), built by
``trial_rng``.  ``sample_noise`` fills its (trials, m) array from the index-0
generator in row order, so its first k rows are the same for any
``trials >= k``.  Study loops key one generator per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import ln_gamma, reg_gamma_q

__all__ = [
    "NoiseSpec",
    "EmpiricalSample",
    "ConstantTau",
    "LogInflatingTau",
    "KyFanBound",
    "InflatedExpectation",
    "sample_noise",
    "trial_rng",
    "expected_norm",
    "expected_norm_upper",
    "kyfan_bound_gaussian",
    "tail_prob_tau",
    "empirical_kyfan",
    "tau_schedule",
    "delta_eff",
    "truncate_solution",
]

@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise level: covariance eta^2 * Identity on R^m."""

    eta: float
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be a positive finite real, got {self.eta!r}")


@dataclass(frozen=True)
class EmpiricalSample:
    """Realized distances d(X1, X2) across trials, for the plug-in estimator."""

    distances: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("distances must be a non-empty 1-d array")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must all be finite")
        if np.any(d < 0.0):
            raise ValueError("distances must all be nonnegative")
        object.__setattr__(self, "distances", d)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        arr = np.asarray(values, dtype=float).ravel()
        return cls(distances=arr)


@dataclass(frozen=True)
class ConstantTau:
    """Constant inflation factor; must exceed 1 (the expectation must inflate)."""

    c: float

    def __post_init__(self):
        if not (self.c > 1.0):
            raise ValueError(f"constant tau must be > 1, got {self.c!r}")


@dataclass(frozen=True)
class LogInflatingTau:
    """tau(eta) = max(1, sqrt(1 - ln(eta^2 2 pi m^2 (e/2)^m))); grows as eta -> 0."""


@dataclass(frozen=True)
class KyFanBound:
    """Use the analytic Gaussian Ky Fan bound as the effective noise level."""


@dataclass(frozen=True)
class InflatedExpectation:
    """Use tau(eta) * eta * sqrt(m), the inflated expectation upper bound."""

    tau: ConstantTau | LogInflatingTau


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index), each in [0, 2**64)."""
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError(
            f"seed and index must lie in [0, 2**64), got seed={seed!r}, index={index!r}"
        )
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def sample_noise(spec: NoiseSpec, seed: int, trials: int) -> np.ndarray:
    """Draw a (trials, m) array of i.i.d. N(0, eta^2) noise realizations.

    The rows are filled in order from ``trial_rng(seed, 0)``, so a shorter
    draw is a prefix of a longer one at the same seed.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    out = trial_rng(seed, 0).standard_normal((trials, spec.m))
    out *= spec.eta
    return out


def expected_norm(spec: NoiseSpec) -> float:
    """E||epsilon||_2 = eta * sqrt(2) * Gamma((m+1)/2) / Gamma(m/2) (chi mean)."""
    m = spec.m
    log_ratio = ln_gamma((m + 1) / 2.0) - ln_gamma(m / 2.0)
    return spec.eta * math.sqrt(2.0) * math.exp(log_ratio)


def expected_norm_upper(spec: NoiseSpec) -> float:
    """Upper bound eta * sqrt(m) >= E||epsilon||_2."""
    return spec.eta * math.sqrt(spec.m)


def _log_term(eta: float, m: int) -> float:
    # ln(eta^2 * 2 pi * m^2 * (e/2)^m), evaluated in logs to avoid overflow
    return (
        2.0 * math.log(eta)
        + math.log(2.0 * math.pi)
        + 2.0 * math.log(m)
        + m * (1.0 - math.log(2.0))
    )


def kyfan_bound_gaussian(spec: NoiseSpec) -> float:
    """Analytic Ky Fan bound for N(0, eta^2 I_m) noise against exact data.

    min{1, sqrt(2) * eta * sqrt(m - min(ln(eta^2 2 pi m^2 (e/2)^m), 0))}.
    """
    inner = spec.m - min(_log_term(spec.eta, spec.m), 0.0)
    return min(1.0, math.sqrt(2.0) * spec.eta * math.sqrt(inner))


def tail_prob_tau(tau: float, m: int) -> float:
    """P(||epsilon||_2 >= tau * E||epsilon||_2); independent of eta.

    Equals Q(m/2, (tau * Gamma((m+1)/2) / Gamma(m/2))^2) for the chi-mean
    expectation; accepts any tau > 0 (tends to 1 as tau -> 0).
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m!r}")
    log_ratio = ln_gamma((m + 1) / 2.0) - ln_gamma(m / 2.0)
    z = math.exp(2.0 * (math.log(tau) + log_ratio))
    return reg_gamma_q(m / 2.0, z)


def empirical_kyfan(sample: EmpiricalSample) -> float:
    """Exact empirical plug-in Ky Fan estimate by a single sorted scan.

    Uses the strict inequality d > eps and resolves the infimum exactly at
    the sorted sample values (the empirical tail is evaluated from the
    right at ties).
    """
    if not isinstance(sample, EmpiricalSample):
        sample = EmpiricalSample.from_values(sample)
    # exact infimum of {eps > 0 : #(d > eps)/n < eps} on the empirical law
    n = sample.distances.size
    vals, counts = np.unique(sample.distances, return_counts=True)
    exceed = (n - np.cumsum(counts)) / n  # step value of P(d > eps) on [v_j, v_{j+1})
    if vals[0] > 0.0:
        left = np.concatenate(([0.0], vals))
        step = np.concatenate(([1.0], exceed))
        right = np.concatenate((vals, [np.inf]))
    else:
        left = vals
        step = exceed
        right = np.concatenate((vals[1:], [np.inf]))
    feasible = step < right
    j = int(np.argmax(feasible))  # first feasible interval gives the infimum
    return float(max(left[j], step[j]))


def tau_schedule(spec: NoiseSpec, kind: ConstantTau | LogInflatingTau) -> float:
    """Inflation factor tau(eta) >= 1 for the expectation-based noise level."""
    if isinstance(kind, ConstantTau):
        return kind.c
    if isinstance(kind, LogInflatingTau):
        inner = 1.0 - _log_term(spec.eta, spec.m)
        # tau must inflate, never deflate: clamp at 1 from below
        return math.sqrt(inner) if inner > 1.0 else 1.0
    raise TypeError(f"unknown tau schedule {kind!r}")


def delta_eff(spec: NoiseSpec, mode: KyFanBound | InflatedExpectation) -> float:
    """Effective deterministic noise level substituted for delta."""
    if isinstance(mode, KyFanBound):
        return kyfan_bound_gaussian(spec)
    if isinstance(mode, InflatedExpectation):
        return tau_schedule(spec, mode.tau) * expected_norm_upper(spec)
    raise TypeError(f"unknown noise-level mode {mode!r}")


def truncate_solution(x: np.ndarray, norm_cap: float, sup_cap: float) -> np.ndarray:
    """Zero out solutions exceeding a priori caps (keeps expectations finite).

    ``x`` is one solution or a (B, n) block of them, one per row.  A row is
    kept when ||x||_2 <= norm_cap and max|x_i| <= sup_cap, and zeroed
    otherwise.
    """
    if not (norm_cap > 0.0 and sup_cap > 0.0):
        raise ValueError("caps must be positive")
    x = np.asarray(x, dtype=float)
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    keep = (norms <= norm_cap) & (np.max(np.abs(x), axis=-1, initial=0.0) <= sup_cap)
    return np.where(keep[..., np.newaxis], x, 0.0)
