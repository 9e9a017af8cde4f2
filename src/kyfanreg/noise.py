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
``trials >= k``.  Study loops build one generator per eta and ``rekey`` it
for each trial, which puts it in the state a new ``trial_rng(seed, index)``
starts in: every trial's draws are those of its own keyed generator, without
the cost of building one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .special import ln_gamma, reg_gamma_q

@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise level: covariance eta^2 * Identity on R^m."""

    eta: float
    m: int

    def __post_init__(self):
        _integer(self.m, "m")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be a positive finite real, got {self.eta!r}")


def _distances(values) -> np.ndarray:
    """``values`` as a flat float array, checked non-empty, finite and nonnegative."""
    d = np.asarray(values, dtype=float).ravel()
    if d.size < 1:
        raise ValueError("distances must be a non-empty 1-d array")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must all be finite")
    if np.any(d < 0.0):
        raise ValueError("distances must all be nonnegative")
    return d


class EmpiricalSample:
    """``from_values(values)``: the values, checked as ``empirical_kyfan`` checks them.

    Kept only as the benchmark's spelling; its change in ROADMAP item 7 deletes it.
    """

    from_values = staticmethod(_distances)


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


def _integer(value, name: str, positive: bool = True) -> int:
    """``value`` as a Python integer, checked to be positive unless told not to.

    Python and numpy integers pass.  A bool does not, though Python counts
    True as 1, and a float is rejected, not truncated.  The ValueError
    names the argument ``name``.
    """
    k = None
    if not isinstance(value, bool):
        try:
            k = operator.index(value)
        except TypeError:
            pass
    if k is None or (positive and k < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return k


def _key(seed: int, index: int) -> tuple[int, int]:
    """(seed, index) as Python integers, each checked to lie in [0, 2**64)."""
    key = []
    for name, value in (("seed", seed), ("index", index)):
        k = _integer(value, name, positive=False)
        if not 0 <= k < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")
        key.append(k)
    return tuple(key)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index), integers in [0, 2**64)."""
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, index), dtype=np.uint64)))


def rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Put a ``trial_rng`` generator in the state ``trial_rng(seed, index)`` starts in.

    Counter 0, key (seed, index), an empty buffer and no cached 32-bit
    value: the draws that follow are bit for bit those of a new generator.
    Building one costs more: numpy's Philox reads OS entropy for a seed
    sequence even when it is given a key.  Returns ``rng``.
    """
    key = _key(seed, index)
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"rekey needs a Philox generator, got {type(rng.bit_generator).__name__}")
    # buffer_pos 4 marks the 4-word buffer used up: the next draw refills it
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def sample_noise(spec: NoiseSpec, seed: int, trials: int) -> np.ndarray:
    """Draw a (trials, m) array of i.i.d. N(0, eta^2) noise realizations.

    The rows are filled in order from ``trial_rng(seed, 0)``, so a shorter
    draw is a prefix of a longer one at the same seed.
    """
    _integer(trials, "trials")
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
    _integer(m, "m")
    log_ratio = ln_gamma((m + 1) / 2.0) - ln_gamma(m / 2.0)
    try:
        z = math.exp(2.0 * (math.log(tau) + log_ratio))
    except OverflowError:  # z is past the largest double, and Q(m/2, inf) = 0
        z = math.inf
    return reg_gamma_q(m / 2.0, z)


def empirical_kyfan(values) -> float:
    """Exact empirical plug-in Ky Fan estimate, inf{eps : #(d > eps)/n <= eps}.

    The distances d must be finite and nonnegative, at least one of them.
    With the sample sorted, d_(1) <= ... <= d_(n), and d_(0) = 0, the
    infimum is min_k max(d_(k), (n - k)/n): at most n - k values exceed
    d_(k), and between two sample values the tail count is constant.
    """
    d = np.concatenate(([0.0], _distances(values)))  # d_(0) = 0 sorts first: no d is negative
    n = d.size - 1
    d.sort()
    tail = np.arange(n, -1, -1, dtype=float)
    tail /= n  # (n - k)/n
    return float(np.min(np.maximum(d, tail, out=tail)))


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
