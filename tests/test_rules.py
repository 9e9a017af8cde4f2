import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kyfanreg import rules
from kyfanreg.harness import fit_rate
from kyfanreg.operators import SvdOperator
from kyfanreg.regularization import Tikhonov, filter_reconstruct
from kyfanreg.rules import (
    AprioriFilter,
    BesovBalanceParams,
    Discrepancy,
    DiscrepancyStop,
    Fixed,
    NoBracket,
    TikhonovRateModel,
    apriori_filter_alpha,
    besov_balance_alpha,
    combined_model,
    discrepancy_alpha,
    heavy_tail_model,
    nu_effective,
    tikhonov_rate_predict,
    uniform_source_model,
)

rng = np.random.default_rng(11)


class TestRuleValidation:
    def test_discrepancy_band(self):
        with pytest.raises(ValueError):
            Discrepancy(tau1=1.0, tau2=1.2)
        with pytest.raises(ValueError):
            Discrepancy(tau1=1.3, tau2=1.2)
        Discrepancy(tau1=1.1, tau2=1.1)

    def test_stop_rule(self):
        with pytest.raises(ValueError):
            DiscrepancyStop(tau_hat=2.0)
        DiscrepancyStop(tau_hat=2.01)

    def test_apriori_fields(self):
        with pytest.raises(ValueError):
            AprioriFilter(beta=0.0, nu=1.0, rho=1.0)
        with pytest.raises(ValueError):
            AprioriFilter(beta=0.5, nu=-0.1, rho=1.0)
        with pytest.raises(ValueError):
            Fixed(alpha=0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: AprioriFilter(beta=0.5, nu=1.0, rho=0.0), "rho must be positive, got 0.0"),
        (lambda: AprioriFilter(beta=0.5, nu=1.0, rho=1.0, constant=0.0),
         "constant must be positive, got 0.0"),
        (lambda: apriori_filter_alpha(0.0, AprioriFilter(beta=0.5, nu=1.0, rho=1.0)),
         "delta_eff must be positive, got 0.0"),
        (lambda: discrepancy_alpha(SvdOperator([1.0, 0.5]), np.ones((1, 2)), 0.0,
                                   Discrepancy(tau1=1.1, tau2=1.3)),
         "delta_eff must be positive, got 0.0"),
        (lambda: discrepancy_alpha(SvdOperator([1.0, 0.5]), np.ones(2), 0.1,
                                   Discrepancy(tau1=1.1, tau2=1.3)),
         re.escape("data: expected a (B, 2) block, got shape (2,)")),
        (lambda: BesovBalanceParams(eta=0.0, m=4, n=4, p=1.0, rho=1.0, zeta=0.5, beta=1.0),
         "eta must be positive"),
        (lambda: BesovBalanceParams(eta=0.1, m=4, n=4, p=3.0, rho=1.0, zeta=0.5, beta=1.0),
         re.escape("p must lie in [1, 2]")),
        (lambda: BesovBalanceParams(eta=0.1, m=4, n=4, p=1.0, rho=0.0, zeta=0.5, beta=1.0),
         "rho must be positive"),
    ], ids=["apriori-rho", "apriori-constant", "apriori-delta", "discrepancy-delta",
            "discrepancy-1d-data", "balance-eta", "balance-p", "balance-rho"])
    def test_argument_checks_name_the_argument(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestAprioriRule:
    def test_unit_ratio(self):
        rule = AprioriFilter(beta=0.5, nu=1.0, rho=0.37, constant=2.5)
        assert apriori_filter_alpha(0.37, rule) == pytest.approx(2.5)

    def test_exponent_nu1(self):
        rule = AprioriFilter(beta=0.5, nu=1.0, rho=1.0, constant=1.0)
        assert apriori_filter_alpha(0.01, rule) == pytest.approx(0.01)

    def test_exponent_nu0(self):
        rule = AprioriFilter(beta=0.5, nu=0.0, rho=1.0, constant=1.0)
        assert apriori_filter_alpha(0.01, rule) == pytest.approx(1e-4)

    def test_monotone_and_homogeneous(self):
        rule1 = AprioriFilter(beta=0.5, nu=0.7, rho=1.3, constant=1.0)
        rule2 = AprioriFilter(beta=0.5, nu=0.7, rho=1.3, constant=2.0)
        deltas = np.logspace(-6, -1, 12)
        alphas = [apriori_filter_alpha(d, rule1) for d in deltas]
        assert np.all(np.diff(alphas) > 0.0)
        for d in deltas:
            assert apriori_filter_alpha(d, rule2) == pytest.approx(
                2.0 * apriori_filter_alpha(d, rule1)
            )


def _reference_alpha(s, y, lo_target, hi_target):
    """The discrepancy rule on one data vector, one residual at a time.

    This is the scalar log-bisection that ``discrepancy_alpha`` runs on
    every row of a block at once.  It returns alpha, the number of residual
    evaluations, and the outcome: "trivial", "infeasible" or "in-band".
    """
    def residual(alpha):
        factor = alpha / (s * s + alpha)
        return math.sqrt(float(np.sum((factor * y) ** 2)))

    if float(np.linalg.norm(y)) <= lo_target:
        return math.inf, 0, "trivial"
    if float(np.linalg.norm(y[s == 0.0])) > hi_target:
        return math.inf, 0, "infeasible"
    scale = max(float(s[0]) ** 2, 1e-30)
    alpha_max = sys.float_info.max - float(np.max(s * s))  # s^2 + alpha stays finite
    hi, evals = min(scale, alpha_max), 1
    while residual(hi) < lo_target and hi <= alpha_max / 10.0:
        hi *= 10.0
        evals += 1
    lo = min(hi, scale * 1e-12)
    evals += 1
    while residual(lo) > hi_target:
        lo /= 10.0
        if lo < 1e-300:
            return math.inf, evals, "infeasible"
        evals += 1
    for _ in range(500):
        alpha = math.sqrt(lo) * math.sqrt(hi)
        res = residual(alpha)
        evals += 1
        if res < lo_target:
            lo = alpha
        elif res > hi_target:
            hi = alpha
        else:
            break
        if hi / lo < 1.0 + 1e-14:
            # zero-width band: the bisection limit must hold the residual
            if not (lo_target * (1.0 - 1e-9) <= res <= hi_target * (1.0 + 1e-9)):
                return math.inf, evals, "infeasible"
            break
    return alpha, evals, "in-band"


@st.composite
def _discrepancy_blocks(draw):
    """An operator, a (B, n) data block, a noise level and a band.

    Row scales span four decades around the band, so trivial rows occur,
    and singular values span eight, so that the bracket sweeps run both
    ways; a zero singular value puts a floor under the residual,
    infeasible when its data entry is large; and tau1 == tau2 is drawn half
    of the time.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=6))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    s = np.sort(10.0 ** gen.uniform(-8.0, 0.3, n))[::-1]
    if draw(st.booleans()):
        s[-1] = 0.0
    y = gen.standard_normal((rows, n)) * 10.0 ** gen.uniform(-3.0, 1.0, (rows, 1))
    delta = 10.0 ** gen.uniform(-2.0, 0.0)
    tau1 = 1.0 + 10.0 ** gen.uniform(-3.0, 0.0)
    tau2 = tau1 if draw(st.booleans()) else tau1 * (1.0 + 10.0 ** gen.uniform(-3.0, 0.0))
    return SvdOperator(s), y, delta, Discrepancy(tau1, tau2)


class TestDiscrepancyAlpha:
    def test_hand_computed_scalar_case(self):
        # Tikhonov residual on sigma=1, y=1 is alpha/(1+alpha): 0.5 at alpha=1
        op = SvdOperator([1.0])
        rule = Discrepancy(tau1=1.1, tau2=1.2)
        delta = 0.5 / 1.15  # places 0.5 inside the band
        result = discrepancy_alpha(op, [[1.0]], delta, rule)
        res = result.report.final_residual[0]
        assert rule.tau1 * delta <= res <= rule.tau2 * delta
        # band maps to alpha in [tau1*d/(1-tau1*d), tau2*d/(1-tau2*d)]
        lo = rule.tau1 * delta / (1.0 - rule.tau1 * delta)
        hi = rule.tau2 * delta / (1.0 - rule.tau2 * delta)
        assert lo <= result.alpha[0] <= hi

    def test_trivial_data(self):
        op = SvdOperator([1.0, 0.5])
        result = discrepancy_alpha(op, [[0.0, 0.0]], 0.1, Discrepancy(1.1, 1.3))
        assert result.trivial[0] and not result.infeasible[0]
        assert math.isinf(result.alpha[0])
        assert np.allclose(result.report.solution, 0.0)
        assert result.report.iterations == 0

    def test_small_delta_recovers_generalized_inverse(self):
        op = SvdOperator([1.0, 0.5, 0.25])
        x_true = np.array([1.0, -2.0, 0.5])
        y = op.singular_values * x_true
        result = discrepancy_alpha(op, [y], 1e-10, Discrepancy(1.5, 2.0))
        assert np.allclose(result.report.solution[0], x_true, atol=1e-6)

    def test_infeasible_band(self):
        # data outside the range of the operator keeps the residual high
        op = SvdOperator([1.0, 0.0])
        # the first row's kernel component of norm 1 can never be fit; the
        # second row's floor 0.05 lies below the band
        y = np.array([[0.1, 1.0], [1.0, 0.05]])
        result = discrepancy_alpha(op, y, 0.1, Discrepancy(1.1, 1.2))
        assert result.infeasible.tolist() == [True, False]
        assert not result.trivial.any()
        assert math.isinf(result.alpha[0]) and math.isfinite(result.alpha[1])
        assert np.array_equal(result.report.solution[0], [0.0, 0.0])
        assert result.report.row_iterations[0] == 0
        assert 1.1 * 0.1 <= result.report.final_residual[1] <= 1.2 * 0.1

    def test_postcondition_recomputed(self):
        op = SvdOperator(np.linspace(1.0, 0.1, 10))
        x_true = rng.standard_normal(10)
        y = op.singular_values * x_true + 0.01 * rng.standard_normal(10)
        rule = Discrepancy(1.1, 1.4)
        delta = 0.02
        result = discrepancy_alpha(op, [y], delta, rule)
        res = np.linalg.norm(op.singular_values * result.report.solution[0] - y)
        assert rule.tau1 * delta <= res <= rule.tau2 * delta
        assert res == pytest.approx(result.report.final_residual[0], abs=1e-10)

    def test_huge_singular_value_reaches_the_band(self):
        # residual alpha / (1e200 + alpha) in [0.95, 0.99] needs alpha near
        # 3.65e201, so lo * hi of the bisection bracket overflows a double
        rule = Discrepancy(1.1, 1.1 * 0.99 / 0.95)
        delta = 0.95 / 1.1
        result = discrepancy_alpha(SvdOperator([1e100]), [[1.0]], delta, rule)
        assert not result.infeasible[0] and not result.trivial[0]
        assert result.alpha[0] == pytest.approx(3.6517e201, rel=1e-4)
        assert result.report.row_iterations[0] == 9
        assert rule.tau1 * delta <= result.report.final_residual[0] <= rule.tau2 * delta

    def test_band_alpha_near_the_largest_double_is_reached(self):
        # at sigma_1 = 1e150 the band needs alpha near 3.65e301: the upward
        # sweep's cap is tied to sigma_1^2, not to a fixed 1e300
        rule = Discrepancy(1.1, 1.1 * 0.99 / 0.95)
        delta = 0.95 / 1.1
        result = discrepancy_alpha(SvdOperator([1e150]), [[1.0]], delta, rule)
        assert not result.infeasible[0] and not result.trivial[0]
        assert result.alpha[0] == pytest.approx(3.6517e301, rel=1e-4)
        assert rule.tau1 * delta <= result.report.final_residual[0] <= rule.tau2 * delta

    def test_band_past_the_sweep_cap_is_infeasible(self):
        # at sigma_1 = 5e153 the band needs alpha near 9.1e308, past the
        # largest double, and the sweep stops at its first alpha, sigma_1^2,
        # where the residual is 1/2 < 0.95: the bisection closes onto it
        # below the band, and only the collapse check ends the row
        rule = Discrepancy(1.1, 1.1 * 0.99 / 0.95)
        result = discrepancy_alpha(SvdOperator([5e153]), [[1.0]], 0.95 / 1.1, rule)
        assert result.infeasible.tolist() == [True] and not result.trivial[0]
        assert math.isinf(result.alpha[0])
        assert result.report.row_iterations[0] == 54
        assert np.array_equal(result.report.solution, [[0.0]])

    def test_evaluations_are_counted_once_each(self, monkeypatch):
        # report.iterations is the number of rows the residual was evaluated
        # on, and on a one-row call row_iterations is that same number
        evaluated = []
        residual_norm = rules._tikhonov_residual_norm

        def counting(s2, y, alpha):
            evaluated.append(len(y))
            return residual_norm(s2, y, alpha)

        monkeypatch.setattr(rules, "_tikhonov_residual_norm", counting)
        op = SvdOperator(np.arange(1, 201, dtype=float) ** -1.0)
        y = op.singular_values * np.arange(1, 201, dtype=float) ** -0.5
        y = y + 1e-2 * np.random.default_rng(4).standard_normal((50, 200))
        result = discrepancy_alpha(op, y, 0.2, Discrepancy(1.1, 1.3))
        assert not np.any(result.trivial | result.infeasible)
        assert result.report.iterations == sum(evaluated)
        # one row at a time, a row that reaches the sweep's cap included
        cases = [(op, y[:1], 0.2), (SvdOperator([5e153]), [[1.0]], 0.95 / 1.1),
                 (SvdOperator([1.0, 0.0]), [[1.0, 0.05]], 0.1)]
        for one_op, one_y, delta in cases:
            evaluated.clear()
            result = discrepancy_alpha(one_op, one_y, delta, Discrepancy(1.1, 1.1 * 0.99 / 0.95))
            assert result.report.row_iterations.tolist() == [sum(evaluated)]

    def test_residual_monotone_in_alpha(self):
        for _ in range(5):
            sig = np.sort(rng.uniform(0.05, 1.0, 8))[::-1]
            op = SvdOperator(sig)
            y = rng.standard_normal(8)
            alphas = np.logspace(-6, 2, 30)
            res = [
                np.linalg.norm(op.singular_values * filter_reconstruct(op, y, Tikhonov(a)) - y)
                for a in alphas
            ]
            assert np.all(np.diff(res) >= -1e-12)

    # a trivial row beside a solved one; a zero singular value under an
    # infeasible floor; a zero-width band; an alpha near 3.7e201 and one
    # near 1.8e-300, whose bisection brackets multiply past the largest
    # double and below the smallest; a band alpha near 3.7e301 and one
    # past the largest double
    @example((SvdOperator([1.0, 0.5]), np.array([[1e-3, 0.0], [1.0, -0.5]]), 0.1,
              Discrepancy(1.1, 1.3)))
    @example((SvdOperator([1.0, 0.0]), np.array([[0.1, 1.0], [1.0, 0.05]]), 0.1,
              Discrepancy(1.1, 1.2)))
    @example((SvdOperator([1.0, 0.3, 0.1]), np.array([[1.0, 0.5, 0.2], [0.3, 0.2, 0.1]]),
              0.05, Discrepancy(1.2, 1.2)))
    @example((SvdOperator([1e100]), np.array([[1.0]]), 0.95 / 1.1,
              Discrepancy(1.1, 1.1 * 0.99 / 0.95)))
    @example((SvdOperator([1e-15, 1e-150]), np.array([[0.0, 1.0]]), 0.5, Discrepancy(1.1, 1.3)))
    @example((SvdOperator([1e150]), np.array([[1.0]]), 0.95 / 1.1,
              Discrepancy(1.1, 1.1 * 0.99 / 0.95)))
    @example((SvdOperator([5e153, 0.0]), np.array([[1.0, 0.1]]), 0.95 / 1.1,
              Discrepancy(1.1, 1.1 * 0.99 / 0.95)))
    @given(_discrepancy_blocks())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_scalar_reference(self, case):
        op, y, delta, rule = case
        result = discrepancy_alpha(op, y, delta, rule)
        s = op.singular_values
        for i, row in enumerate(y):
            alpha, evals, outcome = _reference_alpha(s, row, rule.tau1 * delta, rule.tau2 * delta)
            assert result.alpha[i] == alpha
            assert result.report.row_iterations[i] == evals
            assert result.trivial[i] == (outcome == "trivial")
            assert result.infeasible[i] == (outcome == "infeasible")
        assert result.report.iterations == int(np.sum(result.report.row_iterations))


class TestBesovBalance:
    params = BesovBalanceParams(
        eta=1e-3, m=256, n=256, p=1.0, rho=1.0, zeta=1.5, beta=1.0
    )

    def test_self_residual(self):
        result = besov_balance_alpha(self.params)
        rel = abs(result.gap) / max(abs(result.lhs), abs(result.rhs))
        assert rel <= 1e-8

    def test_tail_term_limits(self):
        from kyfanreg.special import reg_gamma_q

        # second right-hand term: Q(n/p, alpha*rho^p/2) -> 1 at 0+, -> 0 at inf
        assert reg_gamma_q(256.0, 1e-12) == pytest.approx(1.0, abs=1e-12)
        assert reg_gamma_q(256.0, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_scan_is_pointwise_consistent(self):
        from kyfanreg.rules import _besov_sides

        lhs0, rhs0 = _besov_sides(self.params)(1e-6)
        lhs1, rhs1 = _besov_sides(self.params)(1e6)
        # far left: the rho term blows up the error side; far right it grows again
        assert lhs0 > rhs0
        assert lhs1 > rhs1

    def test_no_bracket_reports_scan(self):
        bad = BesovBalanceParams(eta=0.1, m=256, n=256, p=1.0, rho=1.0, zeta=1.5, beta=1.0)
        with pytest.raises(NoBracket) as info:
            besov_balance_alpha(bad)
        assert len(info.value.scan) > 100

    def test_skips_the_vacuous_root(self):
        from kyfanreg.rules import _besov_sides

        # a first root near alpha~ = 2.97 balances at LHS = RHS = 1, where the
        # tail bound says nothing; the rule returns the second one
        lhs, rhs = _besov_sides(self.params)(2.971)
        assert lhs == pytest.approx(1.0, abs=1e-3) and rhs == pytest.approx(1.0, abs=1e-3)
        result = besov_balance_alpha(self.params)
        assert result.alpha_tilde == pytest.approx(536.4, rel=1e-3)
        assert result.rhs == pytest.approx(0.22, abs=0.01)

    @staticmethod
    def _sides_with_roots(rhs_levels):
        # LHS - RHS = sin(pi (t - 0.3) / 8) in t = log10(alpha~): roots at
        # t = -7.7, 0.3 and 8.3, where RHS is rhs_levels[0], [1] and [2]
        def sides_at(params):
            def sides(alpha_tilde):
                t = math.log10(alpha_tilde)
                rhs = rhs_levels[0] if t < -4.0 else rhs_levels[1] if t < 4.0 else rhs_levels[2]
                return rhs + math.sin(math.pi * (t - 0.3) / 8.0), rhs
            return sides
        return sides_at

    def test_returns_the_root_with_the_smallest_bound(self, monkeypatch):
        from kyfanreg import rules

        monkeypatch.setattr(rules, "_besov_sides", self._sides_with_roots((0.9, 0.5, 0.7)))
        result = besov_balance_alpha(self.params)  # neither the first root nor the last
        assert math.log10(result.alpha_tilde) == pytest.approx(0.3, abs=1e-6)
        assert result.rhs == 0.5

    def test_only_vacuous_roots_raise_with_the_scan(self, monkeypatch):
        from kyfanreg import rules

        monkeypatch.setattr(rules, "_besov_sides", self._sides_with_roots((1.2, 1.0, 1.5)))
        with pytest.raises(NoBracket, match="3 root") as info:
            besov_balance_alpha(self.params)
        assert len(info.value.scan) == rules._SCAN_POINTS

    def test_exact_zero_on_the_scan_grid_is_the_root(self, monkeypatch):
        # LHS - RHS = alpha~ - target rises through exactly 0 at one grid
        # point, so neither neighbouring product is negative
        target = 10.0 ** np.linspace(*rules._SCAN_LOG10_RANGE, rules._SCAN_POINTS)[200]
        monkeypatch.setattr(rules, "_besov_sides", lambda params: lambda a: (a, target))
        result = besov_balance_alpha(self.params)
        assert (result.alpha_tilde, result.lhs, result.rhs) == (target, target, target)
        assert result.gap == 0.0


class TestTikhonovRatePredict:
    rhos = np.logspace(-1, -6, 6)

    def test_uniform_slope_one_third(self):
        pts = [(r, tikhonov_rate_predict(r, uniform_source_model()).bound) for r in self.rhos]
        assert fit_rate(pts).slope == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_heavy_tail_floor(self):
        model = heavy_tail_model(c=0.25)
        for r in self.rhos:
            assert tikhonov_rate_predict(r, model).bound >= 0.25

    def test_combined_slope_one_quarter(self):
        pts = [(r, tikhonov_rate_predict(r, combined_model()).bound) for r in self.rhos]
        assert fit_rate(pts).slope == pytest.approx(0.25, abs=0.02)

    def test_monotone_in_tails(self):
        base = uniform_source_model()
        shrunk = TikhonovRateModel(
            phi_cl=lambda xi: 0.5 * (1.0 - xi),
            phi_de=lambda tau: np.zeros_like(np.asarray(tau, dtype=float)),
        )
        for r in (1e-2, 1e-4):
            assert (
                tikhonov_rate_predict(r, shrunk).bound
                <= tikhonov_rate_predict(r, base).bound + 1e-15
            )

    def test_returns_minimizer(self):
        pred = tikhonov_rate_predict(1e-3, uniform_source_model())
        assert pred.rho_k == 1e-3
        assert 0.0 < pred.xi < 1.0
        assert pred.tau > 0.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            tikhonov_rate_predict(2.0, uniform_source_model())

    def test_rejects_underflowing_alpha(self):
        # 1e-300**1.25 is below the smallest double; 1e-300**1 is not
        assert tikhonov_rate_predict(1e-300, uniform_source_model()).bound > 0.0
        with pytest.raises(ValueError, match="underflows to 0"):
            tikhonov_rate_predict(1e-300, combined_model())


class TestNuEffective:
    def test_near_one_boundary(self):
        est = nu_effective(1.0 - 1e-9)
        assert est.nu_exact == pytest.approx(0.5, abs=1e-4)

    def test_defining_equation(self):
        for rho in (1e-2, 1e-4, 1e-6, 1e-9):
            est = nu_effective(rho)
            residual = rho ** (2.0 * est.nu_exact / (2.0 * est.nu_exact + 1.0)) - 2.0 * est.nu_exact
            assert abs(residual) <= 1e-12

    def test_approximation_improves(self):
        gap = {}
        for rho in (1e-2, 1e-6):
            est = nu_effective(rho)
            gap[rho] = abs(est.nu_approx - est.nu_exact) / est.nu_exact
        assert gap[1e-6] < gap[1e-2]

    def test_rate_decreasing_in_neg_log(self):
        from kyfanreg.special import lambert_w0

        rates = []
        for rho in np.logspace(-1, -8, 8):
            neg_log = -math.log(rho)
            rates.append(lambert_w0(neg_log) / neg_log)
        assert np.all(np.diff(rates) < 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            nu_effective(1.0)
        with pytest.raises(ValueError):
            nu_effective(0.0)
