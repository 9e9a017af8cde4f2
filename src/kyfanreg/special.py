"""Scalar special functions used by the noise bounds and rate formulas.

Provides the log-gamma function, the regularized upper incomplete gamma
function Q(a, z) = Gamma(a, z) / Gamma(a), and the principal branch of the
Lambert W function.  All functions are pure and total over their documented
domains; out-of-domain inputs raise ValueError rather than being clamped.
"""

import math

_MAX_ITER = 10000
_REL_EPS = 1e-16
# smallest x with exp(x) > 0 in double precision
_EXP_UNDERFLOW = -745.0


def ln_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    if not (a > 0.0) or math.isinf(a):
        raise ValueError(f"ln_gamma requires a > 0, got {a!r}")
    return math.lgamma(a)


def reg_gamma_q(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) = Gamma(a, z) / Gamma(a).

    Q(a, 0) = 1 and Q(a, .) decreases monotonically to 0.  Evaluated by the
    lower power series for z < a + 1 and by a continued fraction otherwise,
    so both branches converge quickly.  Near z = a the series' terms fall
    like exp(-n^2 / 2a), so it needs about 8.6 sqrt(a) of them; it may take
    up to 10 sqrt(a), and at least 10,000.  ArithmeticError is raised if a
    branch still has not converged.  Near z = a the rounding of lgamma(a)
    bounds the relative accuracy: about 3e-8 at a = 1e8, 1e-6 at a = 1e9.
    """
    if not (a > 0.0) or math.isinf(a):
        raise ValueError(f"reg_gamma_q requires a > 0, got {a!r}")
    if not (z >= 0.0):
        raise ValueError(f"reg_gamma_q requires z >= 0, got {z!r}")
    if z == 0.0:
        return 1.0
    if math.isinf(z):
        return 0.0
    if z < a + 1.0:
        return 1.0 - _gamma_p_series(a, z)
    return _gamma_q_cont_frac(a, z)


def _scaled(a: float, z: float, value: float) -> float:
    # value * z^a e^-z / Gamma(a), the common scale of both expansions, or 0 if it underflows
    log_pref = a * math.log(z) - z - math.lgamma(a)
    return 0.0 if log_pref < _EXP_UNDERFLOW else value * math.exp(log_pref)


def _gamma_p_series(a: float, z: float) -> float:
    # lower-tail series: P(a,z) = z^a e^-z / Gamma(a) * sum_n z^n / (a)_{n+1}
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(max(_MAX_ITER, int(10.0 * math.sqrt(a)))):
        denom += 1.0
        term *= z / denom
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            return _scaled(a, z, total)
    raise ArithmeticError(f"incomplete gamma series failed to converge (a={a}, z={z})")


def _gamma_q_cont_frac(a: float, z: float) -> float:
    # modified Lentz evaluation of the upper-tail continued fraction
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return _scaled(a, z, h)
    raise ArithmeticError(
        f"incomplete gamma continued fraction failed to converge (a={a}, z={z})"
    )


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(z: float) -> float:
    """Principal branch W0 of the Lambert W function, w * exp(w) = z.

    Defined for z >= -1/e; the returned w satisfies w >= -1.  Halley
    iteration from a piecewise initial guess (branch-point series near
    -1/e, the argument itself near 0, log-based for large z).
    """
    if math.isnan(z):
        raise ValueError("lambert_w0 requires a real argument, got nan")
    if z < _BRANCH_POINT:
        # tolerate representation error at the branch point itself
        if z > _BRANCH_POINT * (1.0 + 4e-16):
            return -1.0
        raise ValueError(f"lambert_w0 requires z >= -1/e, got {z!r}")
    if z in (0.0, math.inf):  # W0(0) = 0 and W0(inf) = inf
        return z

    if z < -0.25:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    elif z < 2.0:
        w = z * (1.0 - z)  # two-term series about 0; crude but sufficient seed
        if w <= -1.0:
            w = -0.5
    else:
        l1 = math.log(z)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-14 * max(1.0, abs(z)):
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    return max(w, -1.0)
