"""Correctness checks of the benchmark's outputs.

Each check compares the program's output with a computation written here,
apart from the program, or with a property the method must have. A check
returns the list of its failures; every message starts with the check's
name. No check compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import bdtr, bdtrc, gammaincc, lambertw

# Criterion 8's tolerance for the exact autoconvolution identities.
IDENTITY_TOL = 1e-12
# Two-sided probability below which a correct sampler's statistic counts as
# a failure: about 1e-10 per check, negligible over any number of seeds.
TAIL_P = 1e-10
# |z| beyond which a mean or variance of at least 10^6 normals is rejected;
# P(|Z| > 7) is about 2.6e-12.
Z_LIMIT = 7.0


# -- references, written apart from the program ------------------------------


def autoconv_ref(x):
    """[F(x)]_k = h sum_{j<=k} x_j x_{k-j} as an O(m^2) double sum."""
    m = len(x)
    return np.array([sum(x[j] * x[k - j] for j in range(k + 1)) / m for k in range(m)])


def autoconv_derivative_ref(x, v):
    """F'(x) v = 2h sum_{j<=k} x_j v_{k-j}."""
    m = len(x)
    return np.array([2.0 * sum(x[j] * v[k - j] for j in range(k + 1)) / m for k in range(m)])


def autoconv_adjoint_ref(x, r):
    """(F'(x)* r)_j = 2h sum_{k>=j} x_{k-j} r_k."""
    m = len(x)
    return np.array([2.0 * sum(x[k - j] * r[k] for k in range(j, m)) / m for j in range(m)])


def _log_term(eta, m):
    # ln(eta^2 2 pi m^2 (e/2)^m), clamped at 0 from above
    return min(0.0, 2 * math.log(eta) + math.log(2 * math.pi) + 2 * math.log(m) + m * (1 - math.log(2)))


def _gamma_ratio(m):
    # Gamma((m+1)/2) / Gamma(m/2)
    return math.exp(math.lgamma((m + 1) / 2) - math.lgamma(m / 2))


def kyfan_bound_ref(eta, m):
    """min{1, sqrt(2) eta sqrt(m - min(ln(eta^2 2 pi m^2 (e/2)^m), 0))}."""
    return min(1.0, math.sqrt(2.0) * eta * math.sqrt(m - _log_term(eta, m)))


def expected_norm_ref(eta, m):
    """E||N(0, eta^2 I_m)|| = eta sqrt(2) Gamma((m+1)/2) / Gamma(m/2)."""
    return eta * math.sqrt(2.0) * _gamma_ratio(m)


def tail_argument(tau, m):
    """z of P(||noise|| >= tau E||noise||) = Q(m/2, z): (tau Gamma((m+1)/2) / Gamma(m/2))^2."""
    return (tau * _gamma_ratio(m)) ** 2


def kyfan_direct(d):
    """inf{eps > 0 : #(d > eps)/n < eps}, evaluated on every candidate.

    eps - #(d > eps)/n is strictly increasing and right-continuous, so the
    infimum is the smallest eps with #(d > eps)/n <= eps. It lies at a
    sample value, where the count drops, or at a level k/n, where eps
    meets the count.
    """
    d = np.sort(np.asarray(d, dtype=float))
    n = d.size
    if d[-1] <= 0.0:
        return 0.0
    cand = np.concatenate((d[d > 0.0], np.arange(1, n + 1) / n))
    exceed = (n - np.searchsorted(d, cand, side="right")) / n
    return float(cand[exceed <= cand].min())


def slope_ref(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


def besov_sides_ref(eta, m, n, p, rho, zeta, beta, constant, alpha_tilde):
    """Both sides of the Besov balancing equation, with scipy's gamma tail."""
    lm = _log_term(eta, m)
    base = m - lm
    rho_p = rho**p
    err = eta * (math.sqrt(base) + math.sqrt(base + alpha_tilde * rho_p / 2))
    rho_tilde = rho + (rho_p + (2 * m - lm) / alpha_tilde) ** (1 / p)
    expo = zeta / (zeta + beta)
    lhs = constant * err**expo * rho_tilde ** (1 - expo)
    rhs = gammaincc(m / 2, base) + gammaincc(n / p, alpha_tilde * rho_p / 2)
    return lhs, float(rhs)


# -- checks -------------------------------------------------------------------


def check_kernels(case) -> list:
    """Autoconvolution, derivative and adjoint against the double sums, and
    the adjoint and exact Taylor identities."""
    x, v, r = case["x"], case["v"], case["r"]
    out = []
    for name, got, ref in (
        ("autoconv_apply", case["F(x)"], autoconv_ref(x)),
        ("autoconv_derivative_apply", case["F'(x)v"], autoconv_derivative_ref(x, v)),
        ("autoconv_derivative_adjoint_apply", case["F'(x)*r"], autoconv_adjoint_ref(x, r)),
    ):
        gap = float(np.max(np.abs(got - ref)))
        if not gap <= IDENTITY_TOL * max(1.0, float(np.max(np.abs(ref)))):
            out.append(f"kernel-vs-double-sum: {name} on {case['name']} is off by {gap:.3g}")
    adjoint_gap = abs(float(case["F'(x)v"] @ r) - float(v @ case["F'(x)*r"]))
    if not adjoint_gap <= IDENTITY_TOL:
        out.append(f"adjoint-identity: gap {adjoint_gap:.3g} on {case['name']}")
    taylor = case["F(x+v)"] - case["F(x)"] - case["F'(x)v"] - case["F(v)"]
    taylor_gap = float(np.max(np.abs(taylor)))
    if not taylor_gap <= IDENTITY_TOL:
        out.append(f"taylor-identity: gap {taylor_gap:.3g} on {case['name']}")
    return out


def check_autoconv_trials(result, rule) -> list:
    """Each trial is trivial, flagged, or has its residual in the band."""
    out = []
    for t in result.trials:
        lo, hi = rule.tau1 * t.delta_eff, rule.tau2 * t.delta_eff
        trivial = math.isinf(t.alpha_or_kstar) and t.residual <= lo
        if not (trivial or t.flagged or lo <= t.residual <= hi):
            out.append(
                f"trial-kind: eta {t.eta:g} trial {t.trial} has residual {t.residual:.6g} "
                f"outside [{lo:.6g}, {hi:.6g}] and is neither trivial nor flagged"
            )
    return out


def check_flagged_share(result) -> list:
    """No eta has more than half of its trials flagged (the CLI's exit-3 limit)."""
    return [
        f"flagged-share: {s.flagged_count} of {s.trials} trials flagged at eta {s.eta:g}"
        for s in result.summaries
        if 2 * s.flagged_count > s.trials
    ]


def check_ratio_fall(first, last, factor=5.0) -> list:
    """delta^2/alpha falls at least `factor` times from the largest eta to the smallest."""
    a, b = first.ratio_delta2_alpha, last.ratio_delta2_alpha
    if not (b > 0.0 and a >= factor * b):
        return [f"ratio-fall: delta^2/alpha goes {a:.4g} -> {b:.4g}, less than a {factor:g}x fall"]
    return []


def check_band(result, rule, rel=1e-9) -> list:
    """Every trial's residual lies in [tau1 delta, tau2 delta] (to roundoff)."""
    out = []
    for t in result.trials:
        lo, hi = rule.tau1 * t.delta_eff, rule.tau2 * t.delta_eff
        if not (lo * (1 - rel) <= t.residual <= hi * (1 + rel)):
            out.append(f"residual-band: eta {t.eta:g} trial {t.trial} residual {t.residual:.6g} "
                       f"outside [{lo:.6g}, {hi:.6g}]")
    return out


def check_slope(result, target, tol) -> list:
    """The fitted rate of err_kyfan against delta is within tol of target."""
    s = result.summaries
    slope = slope_ref([x.delta_eff for x in s], [x.err_kyfan for x in s])
    if not abs(slope - target) <= tol:
        return [f"rate-slope: {slope:.4f}, target {target:.4f} +/- {tol}"]
    return []


def check_delta(result, m) -> list:
    """Each eta's delta_eff equals the analytic Ky Fan bound."""
    out = []
    for s in result.summaries:
        bound = kyfan_bound_ref(s.eta, m)
        if not math.isclose(s.delta_eff, bound, rel_tol=1e-12):
            out.append(f"delta-eff: {s.delta_eff:.17g} at eta {s.eta:g}, bound {bound:.17g}")
    return out


def check_lambert_rate(result, lo=0.1, hi=10.0) -> list:
    """err_kyfan / (W(-ln delta) / (-ln delta)) lies in [lo, hi] at every eta."""
    out = []
    for s in result.summaries:
        neg_log = -math.log(s.delta_eff)
        ratio = s.err_kyfan / (float(lambertw(neg_log).real) / neg_log)
        if not lo <= ratio <= hi:
            out.append(f"lambert-rate: ratio {ratio:.4g} at eta {s.eta:g} outside [{lo}, {hi}]")
    return out


def check_balance(params, res, tol=1e-8) -> list:
    """The returned alpha~ solves the balancing equation to tol, recomputed here."""
    lhs, rhs = besov_sides_ref(
        params.eta, params.m, params.n, params.p, params.rho, params.zeta,
        params.beta, params.constant, res.alpha_tilde,
    )
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if not gap <= tol:
        return [f"balance-residual: {gap:.3g} at eta {params.eta:g}, alpha~ {res.alpha_tilde:.6g}"]
    return []


def check_roundtrip(written, read_back) -> list:
    """Summaries read back from the exported CSV are bit-identical."""
    fields = ("eta", "delta_eff", "alpha_or_kstar", "err_mean", "err_kyfan",
              "residual_mean", "trials", "truncated_count")
    if len(written) != len(read_back):
        return [f"export-roundtrip: {len(written)} rows written, {len(read_back)} read"]
    out = []
    for a, b in zip(written, read_back):
        for f in fields:
            x, y = getattr(a, f), getattr(b, f)
            same = x == y if isinstance(x, int) else float(x).hex() == float(y).hex()
            if not same:
                out.append(f"export-roundtrip: {f} at eta {a.eta:g} wrote {x!r}, read {y!r}")
    return out


def check_tail(norms, eta, m, tau, p_program) -> list:
    """The Monte Carlo frequency of ||noise|| >= tau E||noise|| fits tail_prob_tau.

    Rejects when either binomial tail of the observed count under
    p_program is below TAIL_P.
    """
    n = norms.size
    count = int(np.count_nonzero(norms >= tau * expected_norm_ref(eta, m)))
    below = bdtr(count, n, p_program)
    above = 1.0 if count == 0 else bdtrc(count - 1, n, p_program)
    if not (min(below, above) >= TAIL_P):
        return [f"tail-frequency: m {m} tau {tau}: {count} of {n} exceed, "
                f"tail_prob_tau {p_program:.6g}"]
    return []


def check_reg_gamma_q(a, z, value, rel=1e-10, abs_tol=1e-300) -> list:
    """The program's Q(a, z) agrees with scipy.special.gammaincc."""
    ref = float(gammaincc(a, z))
    if not abs(value - ref) <= max(rel * abs(ref), abs_tol):
        return [f"reg-gamma-q: Q({a}, {z:.6g}) = {value:.17g}, scipy {ref:.17g}"]
    return []


def check_kyfan(norms, value) -> list:
    """empirical_kyfan equals the direct evaluation of its definition."""
    ref = kyfan_direct(norms)
    if value != ref:
        return [f"kyfan-definition: empirical_kyfan {value!r}, direct {ref!r}"]
    return []


def check_kyfan_bound(value, eta, m, n, bound_program) -> list:
    """The bound is the analytic formula, and the empirical value is at most
    bound + 2/sqrt(n) (criterion 2)."""
    bound = kyfan_bound_ref(eta, m)
    out = []
    if not math.isclose(bound_program, bound, rel_tol=1e-12):
        out.append(f"kyfan-bound: kyfan_bound_gaussian {bound_program!r}, formula {bound!r}")
    if not value <= bound + 2.0 / math.sqrt(n):
        out.append(f"kyfan-containment: empirical {value:.6g} > bound {bound:.6g} + 2/sqrt({n})")
    return out


def check_moments(draw, eta) -> list:
    """The draws' mean and variance fit 0 and eta^2 (z-tests at Z_LIMIT)."""
    n = draw.size
    mean = float(draw.mean()) / eta
    var = float(draw.var()) / (eta * eta)
    out = []
    if not abs(mean) * math.sqrt(n) <= Z_LIMIT:
        out.append(f"noise-mean: {mean * eta:.4g} from {n} normals, expected 0")
    if not abs(var - 1.0) / math.sqrt(2.0 / n) <= Z_LIMIT:
        out.append(f"noise-variance: {var * eta * eta:.6g} from {n} normals, expected {eta * eta:.6g}")
    return out
