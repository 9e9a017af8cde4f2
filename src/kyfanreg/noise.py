"""Gaussian noise model and stochastic noise-level quantities.

The noise is epsilon ~ N(0, eta^2 I_m) on R^m.  This module provides the
sampler, the closed-form expectation of ||epsilon||_2 and its eta*sqrt(m)
upper bound, the analytic Ky Fan bound for Gaussian noise, moment-based and
empirical Ky Fan estimates, tail probabilities of ||epsilon|| against an
inflated expectation, tau(eta) inflation schedules, and the effective noise
level fed to deterministic parameter-choice rules.

Reproducibility
---------------
Randomness is counter-based (Philox).  ``sample_noise`` assigns each trial a
fixed window of the raw counter stream, so every entry is a pure function of
(seed, trial index, component index) and batching or worker count cannot
change the output.  ``trial_rng`` keys an independent generator per trial for
study loops that need several draws of varying shape per trial.
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
    "kyfan_bound_moment",
    "tail_prob_tau",
    "empirical_kyfan",
    "tau_schedule",
    "delta_eff",
    "truncate_solution",
    "distance_to_set_kyfan",
]

_MASK64 = (1 << 64) - 1


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
    count: int

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("distances must be a non-empty 1-d array")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must all be finite")
        if np.any(d < 0.0):
            raise ValueError("distances must all be nonnegative")
        if self.count != d.size:
            raise ValueError(f"count={self.count} does not match len(distances)={d.size}")
        object.__setattr__(self, "distances", d)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        arr = np.asarray(values, dtype=float).ravel()
        return cls(distances=arr, count=arr.size)


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


def _philox_key(seed: int, index: int) -> np.ndarray:
    return np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, index)))


def _box_muller(raw: np.ndarray, m: int) -> np.ndarray:
    # raw: (trials, uniforms_per_trial) uint64 with uniforms_per_trial even.
    # (r >> 11) spans [0, 2^53); +1 keeps u1 in (0, 1] so the log is finite.
    half = raw.shape[1] // 2
    u1 = ((raw[:, :half] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[:, half:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty((raw.shape[0], 2 * half))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z[:, :m]


def sample_noise(spec: NoiseSpec, seed: int, trials: int) -> np.ndarray:
    """Draw a (trials, m) array of i.i.d. N(0, eta^2) noise realizations.

    Trial t occupies Philox counter blocks [t*b, (t+1)*b) for a fixed b, so
    the result is bit-identical for any chunking or worker layout.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    m = spec.m
    uniforms = 2 * ((m + 1) // 2)  # Box-Muller consumes pairs
    blocks_per_trial = (uniforms + 3) // 4
    per_trial = blocks_per_trial * 4

    out = np.empty((trials, m))
    chunk = max(1, (1 << 22) // per_trial)  # cap raw buffers at ~32 MB
    key = _philox_key(seed, 0)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        counter = np.zeros(4, dtype=np.uint64)
        counter[0] = (start * blocks_per_trial) & _MASK64
        bg = np.random.Philox(key=key, counter=counter)
        raw = bg.random_raw((stop - start) * per_trial).reshape(stop - start, per_trial)
        out[start:stop] = _box_muller(raw[:, :uniforms], m)
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


def kyfan_bound_moment(moment: float, s: int) -> float:
    """Moment bound (E d^s)^(1/(s+1)) on the Ky Fan distance."""
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise ValueError(f"s must be a positive integer, got {s!r}")
    if not (moment >= 0.0):
        raise ValueError(f"moment must be nonnegative, got {moment!r}")
    return moment ** (1.0 / (s + 1.0))


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


def _kyfan_estimate(values: np.ndarray) -> float:
    # exact infimum of {eps > 0 : #(d > eps)/n < eps} on the empirical law
    n = values.size
    vals, counts = np.unique(values, return_counts=True)
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


def empirical_kyfan(sample: EmpiricalSample) -> float:
    """Exact empirical plug-in Ky Fan estimate by a single sorted scan.

    Uses the strict inequality d > eps and resolves the infimum exactly at
    the sorted sample values (the empirical tail is evaluated from the
    right at ties).
    """
    if not isinstance(sample, EmpiricalSample):
        sample = EmpiricalSample.from_values(sample)
    return _kyfan_estimate(sample.distances)


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

    Returns x unchanged when ||x||_2 <= norm_cap and max|x_i| <= sup_cap,
    and the zero vector otherwise.
    """
    if not (norm_cap > 0.0 and sup_cap > 0.0):
        raise ValueError("caps must be positive")
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) <= norm_cap and (x.size == 0 or np.max(np.abs(x)) <= sup_cap):
        return x
    return np.zeros_like(x)


def distance_to_set_kyfan(per_trial_vectors, solution_set) -> float:
    """Empirical Ky Fan distance to a solution set.

    For each trial takes the minimum Euclidean distance over the set, then
    applies the empirical Ky Fan estimator; zero iff every trial lands in
    the set.
    """
    members = [np.asarray(s, dtype=float) for s in solution_set]
    if not members:
        raise ValueError("solution set must be non-empty")
    dists = np.empty(len(per_trial_vectors))
    for i, x in enumerate(per_trial_vectors):
        x = np.asarray(x, dtype=float)
        dists[i] = min(np.linalg.norm(x - s) for s in members)
    return _kyfan_estimate(dists)
