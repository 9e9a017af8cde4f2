import math

import mpmath
import numpy as np
import pytest

from kyfanreg.special import lambert_w0, ln_gamma, reg_gamma_q


def upper_gamma_quadrature(a, z):
    # independent oracle: high-resolution quadrature of the tail integral
    with mpmath.workdps(30):
        val = mpmath.quad(lambda t: t ** (a - 1.0) * mpmath.exp(-t), [z, mpmath.inf])
        return float(val / mpmath.gamma(a))


def lambert_bisection(z, lo, hi):
    # independent oracle: bisection on w*e^w - z
    f = lambda w: w * math.exp(w) - z
    assert f(lo) <= 0.0 <= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLnGamma:
    def test_integer_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_recurrence(self):
        for a in np.logspace(-1, 2, 40):
            assert ln_gamma(a + 1.0) - ln_gamma(a) == pytest.approx(math.log(a), abs=1e-11)

    def test_wide_range_accuracy(self):
        for a in (1e-3, 0.37, 5.0, 123.4, 1e6):
            assert ln_gamma(a) == pytest.approx(math.lgamma(a), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-1.5)


class TestRegGammaQ:
    def test_at_zero(self):
        for a in (0.2, 1.0, 7.5, 64.0):
            assert reg_gamma_q(a, 0.0) == 1.0

    def test_exponential_closed_form(self):
        # Q(1, z) = exp(-z)
        for z in (0.1, 0.7854, 3.0, 20.0):
            assert reg_gamma_q(1.0, z) == pytest.approx(math.exp(-z), abs=1e-13)

    def test_half_one_against_quadrature(self):
        oracle = upper_gamma_quadrature(0.5, 1.0)
        assert oracle == pytest.approx(0.157299, abs=1e-6)
        assert reg_gamma_q(0.5, 1.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("a", [0.3, 1.7, 4.0, 12.5, 64.0])
    @pytest.mark.parametrize("z", [0.05, 0.9, 3.7, 30.0])
    def test_against_quadrature_grid(self, a, z):
        assert reg_gamma_q(a, z) == pytest.approx(upper_gamma_quadrature(a, z), abs=1e-12)

    def test_limits_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for a in (0.4, 1.0, 3.0, 17.0, 128.0):
            assert reg_gamma_q(a, 50.0 * a) < 1e-8
            zs = np.sort(rng.uniform(0.0, 6.0 * a, 30))
            qs = [reg_gamma_q(a, z) for z in zs]
            assert all(q1 >= q2 - 1e-14 for q1, q2 in zip(qs, qs[1:]))
            assert all(0.0 <= q <= 1.0 for q in qs)

    # near z = a the lower series needs about 8.6 sqrt(a) terms: more than
    # 10,000 from a = 1.4e6 on
    @pytest.mark.parametrize("a", [1e7, 1e8])
    @pytest.mark.parametrize("ratio", [0.999, 0.9999, 1.0])
    def test_large_a_near_the_mean(self, a, ratio):
        with mpmath.workdps(40):
            want = float(mpmath.gammainc(a, a * ratio, mpmath.inf, regularized=True))
        assert reg_gamma_q(a, a * ratio) == pytest.approx(want, rel=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_q(1.0, -0.1)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.inf) == math.inf
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_unit_against_bisection(self):
        oracle = lambert_bisection(1.0, 0.0, 1.0)
        assert oracle == pytest.approx(0.5671433, abs=1e-7)
        w = lambert_w0(1.0)
        assert w == pytest.approx(oracle, abs=1e-12)
        assert abs(w * math.exp(w) - 1.0) <= 1e-12

    def test_residuals_small(self):
        for z in (0.01, 0.5, 2.0, 10.0, 25.0):
            w = lambert_w0(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)

    def test_roundtrip_grid(self):
        for w in np.linspace(-1.0, 10.0, 89):
            z = w * math.exp(w)
            assert lambert_w0(z) == pytest.approx(w, abs=1e-10)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)
        assert lambert_w0(-0.3) >= -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))
