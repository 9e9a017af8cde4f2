import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kyfanreg.operators import (
    AutoconvGrid,
    SvdOperator,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
)
from kyfanreg.regularization import (
    LandweberFilter,
    Tikhonov,
    Tsvd,
    filter_reconstruct,
    filter_value,
    operator_norm_squared,
    prox_gradient_solve,
    prox_weighted_lp,
    soft_threshold,
)

rng = np.random.default_rng(7)


class TestFilterValue:
    def test_tikhonov(self):
        assert filter_value(Tikhonov(1.0), 1.0) == pytest.approx(0.5)

    def test_tsvd_boundary_included(self):
        assert filter_value(Tsvd(0.25), 0.5) == 1.0
        assert filter_value(Tsvd(0.25), 0.499) == 0.0

    def test_landweber(self):
        assert filter_value(LandweberFilter(1, 1.0), 1.0) == pytest.approx(1.0)
        assert filter_value(LandweberFilter(3, 0.5), 1.0) == pytest.approx(1.0 - 0.5**3)

    def test_range(self):
        sigmas = np.logspace(-4, 0, 50)
        for kind in (Tikhonov(0.01), Tsvd(0.01), LandweberFilter(25, 1.0)):
            vals = filter_value(kind, sigmas)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def _identity(x):
    return x, lambda r: r


@pytest.mark.parametrize("call, message", [
    (lambda: prox_gradient_solve(_identity, np.ones(2), 1.0, 1.0, np.zeros(2), 1e-8, 10),
     "x0 must be a (B, m) block, got shape (2,)"),
    (lambda: prox_gradient_solve(_identity, np.ones((1, 3)), 1.0, 1.0, np.zeros((1, 2)), 1e-8, 10),
     "data shape (1, 3) does not match the unknown's (1, 2)"),
    (lambda: prox_gradient_solve(_identity, np.ones((1, 2)), 1.0, 0.0, np.zeros((1, 2)), 1e-8, 10),
     "step must be positive, got array([0.])"),
    (lambda: LandweberFilter(-1, 1.0), "k must be a nonnegative integer, got -1"),
    (lambda: LandweberFilter(1, 0.0), "gamma must be positive, got 0.0"),
    (lambda: Tikhonov(0.0), "alpha must be positive, got 0.0"),
    (lambda: filter_value(Tikhonov(1.0), [1.0, 0.0]), "filter_value requires sigma > 0"),
    (lambda: filter_reconstruct(SvdOperator([1.0, 0.5]), np.ones(3), Tikhonov(1.0)),
     "data: expected rows of length 2, got shape (3,)"),
], ids=["prox-1d-x0", "prox-data-shape", "prox-zero-step", "landweber-k", "landweber-gamma",
        "tikhonov-alpha", "filter-zero-sigma", "reconstruct-row-length"])
def test_argument_checks_name_the_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
class TestFilterConditions:
    """Numerical verification of the two filter inequalities with beta = 1/2."""

    sigmas = np.logspace(-6, 0, 400)
    alphas = np.logspace(-8, 0, 25)

    def _condition1_slope(self, make_kind):
        sups = [np.max(filter_value(make_kind(a), self.sigmas) / self.sigmas) for a in self.alphas]
        return np.polyfit(np.log(self.alphas), np.log(sups), 1)[0]

    def _condition2_slope(self, make_kind, nu_star):
        sups = [
            np.max((1.0 - filter_value(make_kind(a), self.sigmas)) * self.sigmas**nu_star)
            for a in self.alphas
        ]
        return np.polyfit(np.log(self.alphas), np.log(sups), 1)[0]

    def test_tikhonov_condition1(self):
        assert self._condition1_slope(Tikhonov) == pytest.approx(-0.5, abs=0.02)

    def test_tsvd_condition1(self):
        assert self._condition1_slope(Tsvd) == pytest.approx(-0.5, abs=0.02)

    def test_tikhonov_condition2_qualification(self):
        # beta * nu_star = 0.5 * 2 = 1 for the Tikhonov qualification nu* = 2
        assert self._condition2_slope(Tikhonov, 2.0) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("nu_star", [1.0, 2.0, 4.0])
    def test_tsvd_condition2_any_order(self, nu_star):
        assert self._condition2_slope(Tsvd, nu_star) == pytest.approx(
            0.5 * nu_star, abs=0.02 * nu_star
        )


class TestFilterReconstruct:
    def test_full_filter_is_generalized_inverse(self):
        sigma = np.array([1.0, 0.5, 0.25, 0.0])
        op = SvdOperator(sigma)
        y = rng.standard_normal(4)
        got = filter_reconstruct(op, y, Tsvd(0.25**2 / 2.0))
        # the kernel direction sigma = 0 is dropped
        assert np.allclose(got, [y[0] / 1.0, y[1] / 0.5, y[2] / 0.25, 0.0], atol=1e-14)

    def test_large_alpha_shrinks_to_zero(self):
        op = SvdOperator([1.0, 0.5])
        y = rng.standard_normal(2)
        for alpha in (1e2, 1e4, 1e6):
            x = filter_reconstruct(op, y, Tikhonov(alpha))
            assert np.linalg.norm(x) <= np.linalg.norm(y) * op.singular_values[0] / alpha

    def test_hand_computed_tikhonov(self):
        op = SvdOperator([1.0, 0.5])
        got = filter_reconstruct(op, [1.0, 1.0], Tikhonov(0.25))
        assert np.allclose(got, [0.8, 1.0], atol=1e-14)

    def test_linear_in_data(self):
        op = SvdOperator([2.0, 1.0, 0.3, 0.0, 0.0])
        kind = Tikhonov(0.1)
        y1, y2 = rng.standard_normal(5), rng.standard_normal(5)
        lhs = filter_reconstruct(op, 2.0 * y1 - 3.0 * y2, kind)
        rhs = 2.0 * filter_reconstruct(op, y1, kind) - 3.0 * filter_reconstruct(op, y2, kind)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_landweber_contraction_checked(self):
        op = SvdOperator([2.0])
        with pytest.raises(ValueError):
            filter_reconstruct(op, [1.0], LandweberFilter(5, 1.0))

    @pytest.mark.parametrize("make_kind, params", [
        (lambda k: LandweberFilter(k, 0.9), np.arange(40) % 5),  # k = 0 to 4
        (Tikhonov, np.geomspace(1e-4, 1.0, 40)),
        (Tsvd, np.geomspace(1e-4, 1.0, 40)),
    ])
    def test_one_parameter_per_row(self, make_kind, params):
        # each row bit for bit as alone and as with a scalar parameter
        op = SvdOperator(np.concatenate([np.geomspace(1.0, 1e-2, 99), [0.0]]))
        y = rng.standard_normal((40, 100))
        block = filter_reconstruct(op, y, make_kind(params))
        for i, param in enumerate(params):
            alone = filter_reconstruct(op, y[i:i + 1], make_kind(params[i:i + 1]))
            assert np.array_equal(block[i], alone[0])
            assert np.array_equal(block[i], filter_reconstruct(op, y[i], make_kind(param.item())))
        assert not np.any(block[params == 0])  # Landweber's k = 0 is the zero filter


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(0.0, 1.0) == 0.0
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_vectorized(self):
        v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.allclose(soft_threshold(v, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(1.0, np.nan)


class TestProxWeightedLp:
    def test_p1_reduces_to_soft(self):
        for v in np.linspace(-3, 3, 13):
            for t in (0.0, 0.5, 2.0):
                assert prox_weighted_lp(v, t, 1.0) == pytest.approx(
                    soft_threshold(v, t), abs=1e-15
                )

    def test_p2_closed_form(self):
        assert prox_weighted_lp(1.0, 0.5, 2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_rejects_nan_threshold(self, p):
        with pytest.raises(ValueError, match="nonnegative"):
            prox_weighted_lp(1.0, np.nan, p)
        with pytest.raises(ValueError, match="nonnegative"):
            prox_weighted_lp([1.0, 2.0], [0.5, np.nan], p)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=1.1, max_value=1.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_defining_equation(self, v, t, p):
        x = prox_weighted_lp(v, t, p)
        residual = x + t * p * np.sign(x) * abs(x) ** (p - 1.0) - v
        assert abs(residual) <= 1e-12

    def test_underflowing_root_returns_soft_threshold_limit(self):
        # for p ~ 1 the root (|v|/(tp))^(1/(p-1)) can underflow doubles; the
        # best representable answer is 0 with residual |v|
        x = prox_weighted_lp(1e-4, 1.0, 1.0 + 1.0 / 85.0)
        assert x == 0.0

    def test_vector_inputs(self):
        v = rng.standard_normal(20) * 3.0
        t = np.abs(rng.standard_normal(20))
        x = prox_weighted_lp(v, t, 1.5)
        res = x + t * 1.5 * np.sign(x) * np.abs(x) ** 0.5 - v
        assert np.max(np.abs(res)) <= 1e-12

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            prox_weighted_lp(1.0, 0.1, 0.5)

    @staticmethod
    def bisection_root(v, t, p):
        # the root of u + t p u^(p-1) = |v| by bisection in log u, as a float
        a = abs(v)
        if t == 0.0 or a == 0.0:
            return v
        tp = t * p

        def g(log_u):
            return math.exp(log_u) + tp * math.exp((p - 1.0) * log_u) - a

        # g < 0 at u = e^-10 min(|v|, (|v|/(t p))^(1/(p-1))), g >= 0 at u = |v|
        hi = math.log(a)
        lo = min(hi, (hi - math.log(tp)) / (p - 1.0)) - 10.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        u = min(math.exp(lo), math.exp(hi), key=lambda u: abs(u + tp * u ** (p - 1.0) - a))
        return math.copysign(u, v)

    # a root near 1.9e-178, and one below the smallest double
    @example(1.179857927644577, 143.7195838562522, 1.0 + 1.0 / 85.0)
    @example(1e-4, 1.0, 1.0 + 1.0 / 85.0)
    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=1.0 + 1.0 / 85.0, max_value=2.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_matches_bisection(self, v, t, p):
        def residual(x):
            return abs(x + t * p * math.copysign(abs(x) ** (p - 1.0), x) - v)

        x = prox_weighted_lp(v, t, p)
        reference = self.bisection_root(v, t, p)
        assert residual(x) <= residual(reference) + 1e-12 * max(abs(v), 1.0)

    @given(
        hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                   elements=st.floats(min_value=-1e3, max_value=1e3)),
        st.floats(min_value=1.0 + 1.0 / 85.0, max_value=2.0, exclude_max=True),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_matches_rows_and_scalars(self, v, p, data):
        t = data.draw(hnp.arrays(float, v.shape[1], elements=st.floats(0.0, 1e3)))
        block = prox_weighted_lp(v, t, p)
        rows = np.stack([prox_weighted_lp(row, t, p) for row in v])
        scalars = np.array([[prox_weighted_lp(vj, tj, p) for vj, tj in zip(row, t)] for row in v])
        assert block.shape == v.shape
        assert block.tobytes() == rows.tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("p", [1.0 + 1.0 / 85.0, 1.2, 1.5, 1.9])
    def test_zero_threshold_and_zero_data(self, p):
        assert prox_weighted_lp(3.0, 0.0, p) == 3.0
        assert prox_weighted_lp(0.0, 2.0, p) == 0.0
        v = np.array([3.0, -2.5, 1e-300, 0.0, 0.0])
        t = np.array([0.0, 0.0, 0.0, 2.0, 0.0])
        assert prox_weighted_lp(v, t, p).tobytes() == v.tobytes()


class TestProxGradient:
    def test_identity_operator_soft_threshold(self):
        y = rng.standard_normal((1, 6)) * 2.0
        alpha = 0.8
        report = prox_gradient_solve(
            lambda x: (x, lambda r: r), y, alpha=alpha, step=1.0, x0=np.zeros((1, 6)),
            tol=1e-14, max_iter=10_000,
        )
        assert np.allclose(report.solution, soft_threshold(y, alpha / 2.0), atol=1e-10)

    def test_huge_alpha_returns_zero(self):
        sigma = np.array([1.0, 0.5])
        report = prox_gradient_solve(
            lambda x: (sigma * x, lambda r: sigma * r), np.ones((1, 2)), alpha=1e6, step=0.9,
            x0=np.zeros((1, 2)), tol=1e-13, max_iter=1000,
        )
        assert np.allclose(report.solution, 0.0)

    def test_objective_monotone_in_linear_case(self):
        sigma = np.linspace(1.0, 0.1, 10)
        y = rng.standard_normal((1, 10))
        report = prox_gradient_solve(
            lambda x: (sigma * x, lambda r: sigma * r), y, alpha=0.2, step=0.9,
            x0=rng.standard_normal((1, 10)), tol=1e-12, max_iter=20_000, record_objective=True,
        )
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_nonconvergence_carries_state(self):
        sigma = np.linspace(1.0, 0.01, 12)
        y = rng.standard_normal((1, 12))
        report = prox_gradient_solve(
            lambda x: (sigma * x, lambda r: sigma * r), y, alpha=1e-6, step=0.9,
            x0=np.zeros((1, 12)), tol=1e-16, max_iter=5,
        )
        assert not report.converged.any()
        assert report.iterations == 5
        assert report.solution.shape == (1, 12)


@st.composite
def _diagonal_batches(draw):
    """Rows of independent diagonal problems with per-row alpha and step, and one budget."""
    rows = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    sigma = np.sort(gen.uniform(0.05, 1.0, n))[::-1]
    y = gen.standard_normal((rows, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    alpha = 10.0 ** gen.uniform(-4.0, 1.0, rows)
    step = gen.uniform(0.2, 1.0, rows)
    budget = int(gen.integers(0, 400))
    x0 = gen.standard_normal((rows, n))
    return sigma, y, alpha, step, budget, x0


class TestBatchedSolves:
    """A (B, m) solve is B one-row solves run together."""

    @given(_diagonal_batches())
    @settings(max_examples=100, deadline=None)
    def test_prox_rows_match_one_row_solves(self, problem):
        sigma, y, alpha, step, budget, x0 = problem
        lin = lambda x: (sigma * x, lambda r: sigma * r)  # noqa: E731 - acts on row blocks
        batch = prox_gradient_solve(
            lin, y, alpha=alpha, step=step, x0=x0, tol=1e-9, max_iter=budget,
        )
        assert batch.solution.shape == y.shape
        assert batch.iterations == int(np.sum(batch.row_iterations))
        for i in range(y.shape[0]):
            one = prox_gradient_solve(
                lin, y[i:i + 1], alpha=alpha[i], step=step[i], x0=x0[i:i + 1], tol=1e-9,
                max_iter=budget,
            )
            assert batch.row_iterations[i] == one.iterations
            assert batch.converged[i] == one.converged[0]
            scale = max(np.max(np.abs(one.solution)), 1e-300)
            assert np.max(np.abs(batch.solution[i] - one.solution[0])) <= 1e-12 * scale
            assert batch.final_residual[i] == pytest.approx(one.final_residual[0], rel=1e-12, abs=1e-300)

    def test_autoconv_rows_match_one_row_solves(self):
        grid = AutoconvGrid(32)
        gen = np.random.default_rng(11)
        x0 = 1.0 + 0.1 * gen.standard_normal((4, 32))
        y = autoconv_apply(grid, x0 + 0.05 * gen.standard_normal((4, 32)))
        lin = lambda x: (  # noqa: E731
            autoconv_apply(grid, x), lambda r: autoconv_derivative_adjoint_apply(grid, x, r))
        alpha, step = np.array([1e-2, 1e-1, 1.0, 1e-3]), 0.2
        batch = prox_gradient_solve(lin, y, alpha=alpha, step=step, x0=x0, tol=1e-6, max_iter=50)
        assert not batch.converged.all() and batch.converged.any()
        for i in range(4):
            one = prox_gradient_solve(lin, y[i:i + 1], alpha=alpha[i], step=step,
                                      x0=x0[i:i + 1], tol=1e-6, max_iter=50)
            assert batch.row_iterations[i] == one.iterations
            assert np.max(np.abs(batch.solution[i] - one.solution[0])) <= 1e-12 * np.max(np.abs(one.solution))

    @given(_diagonal_batches())
    @settings(max_examples=50, deadline=None)
    def test_block_step_rows_match_one_row_solves(self, problem):
        # one step per entry: s_ij sigma_j^2 <= 1 keeps each row's scaled Gram below I
        sigma, y, alpha, step, budget, x0 = problem
        step = np.outer(step, 1.0 / sigma**2)
        lin = lambda x: (sigma * x, lambda r: sigma * r)  # noqa: E731 - acts on row blocks
        batch = prox_gradient_solve(lin, y, alpha=alpha, step=step, x0=x0, tol=1e-9,
                                    max_iter=budget)
        for i in range(y.shape[0]):
            one = prox_gradient_solve(lin, y[i:i + 1], alpha=alpha[i], step=step[i:i + 1],
                                      x0=x0[i:i + 1], tol=1e-9, max_iter=budget)
            assert batch.row_iterations[i] == one.iterations
            assert batch.converged[i] == one.converged[0]
            scale = max(np.max(np.abs(one.solution)), 1e-300)
            assert np.max(np.abs(batch.solution[i] - one.solution[0])) <= 1e-12 * scale

    def test_per_row_step_spread_over_its_row_gives_the_same_report(self):
        gen = np.random.default_rng(5)
        sigma = np.geomspace(1.0, 0.1, 6)
        y, x0 = gen.standard_normal((3, 6)), gen.standard_normal((3, 6))
        alpha, step = np.array([1e-3, 1e-2, 1e-1]), np.array([0.9, 0.5, 1.0])
        lin = lambda x: (sigma * x, lambda r: sigma * r)  # noqa: E731
        per_row = prox_gradient_solve(lin, y, alpha=alpha, step=step, x0=x0, tol=1e-10,
                                      max_iter=5000)
        block = prox_gradient_solve(lin, y, alpha=alpha, step=np.repeat(step[:, np.newaxis], 6, 1),
                                    x0=x0, tol=1e-10, max_iter=5000)
        for field in ("solution", "final_residual", "row_iterations", "converged"):
            assert np.array_equal(getattr(block, field), getattr(per_row, field))
        assert per_row.converged.all()

    def test_steps_of_one_over_sigma_squared_solve_a_diagonal_problem_at_once(self):
        # the step that a diagonal Gram matrix asks of each entry: the first
        # iteration lands on the solution and the second finds it fixed
        sigma = np.geomspace(1.0, 1e-3, 8)
        y = np.random.default_rng(2).standard_normal((1, 8))
        report = prox_gradient_solve(lambda x: (sigma * x, lambda r: sigma * r), y, alpha=1e-4,
                                     step=1.0 / sigma[np.newaxis] ** 2, x0=np.zeros((1, 8)),
                                     tol=1e-12, max_iter=100)
        assert report.iterations == 2
        exact = soft_threshold(y[0] / sigma, 1e-4 / (2.0 * sigma**2))
        assert np.max(np.abs(report.solution[0] - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("step", [
        np.ones((2, 4)), np.ones((3, 3)), np.ones((2, 3, 1)), np.array([[1.0, 0.0, 1.0]] * 2),
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, math.nan]]),
    ], ids=["short-rows", "extra-row", "3-d", "zero-entry", "nan-entry"])
    def test_block_steps_are_checked(self, step):
        with pytest.raises(ValueError, match="step"):
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=0.1, step=step,
                x0=np.zeros((2, 3)), tol=1e-9, max_iter=10,
            )

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_operator_norm_rows_match_one_row(self, rows, n, seed):
        gen = np.random.default_rng(seed)
        mats = gen.standard_normal((rows, n, n))
        mats[0] *= gen.integers(0, 2)  # sometimes the zero map
        batch = operator_norm_squared(
            lambda v: np.einsum("bij,bj->bi", mats, v),
            lambda u: np.einsum("bji,bj->bi", mats, u),
            rows, n, iters=20, seed=3,
        )
        assert batch.shape == (rows,)
        for i in range(rows):
            one = operator_norm_squared(
                lambda v: v @ mats[i].T, lambda u: u @ mats[i], 1, n, iters=20, seed=3
            )
            assert batch[i] == pytest.approx(one[0], rel=1e-12, abs=1e-300)

    def test_batch_rejects_objective_recording(self):
        with pytest.raises(ValueError, match="one-row"):
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=0.1, step=1.0,
                x0=np.zeros((2, 3)), tol=1e-9, max_iter=10, record_objective=True,
            )

    def test_per_row_arguments_are_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=[0.1, -1.0], step=1.0,
                x0=np.zeros((2, 3)), tol=1e-9, max_iter=10,
            )
        with pytest.raises(ValueError, match="per row"):
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=[0.1, 0.2, 0.3], step=1.0,
                x0=np.zeros((2, 3)), tol=1e-9, max_iter=10,
            )
        with pytest.raises(ValueError, match="max_iter"):  # one budget for every row
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=0.1, step=1.0,
                x0=np.zeros((2, 3)), tol=1e-9, max_iter=[10, 20],
            )

    # a NaN or negative tol would run every row to max_iter unconverged
    @pytest.mark.parametrize("tol, max_iter, what", [
        (math.nan, 10, "tol"), (math.inf, 10, "tol"), (-1e-9, 10, "tol"), (1e-9, -1, "max_iter"),
        (1e-9, 1.5, "max_iter"), (1e-9, np.True_, "max_iter"),
    ])
    def test_tol_and_max_iter_are_checked(self, tol, max_iter, what):
        with pytest.raises(ValueError, match=what):
            prox_gradient_solve(
                lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=0.1, step=1.0,
                x0=np.zeros((2, 3)), tol=tol, max_iter=max_iter,
            )

    def test_zero_tol_and_zero_budget_are_allowed(self):
        report = prox_gradient_solve(
            lambda x: (x, lambda r: r), np.ones((2, 3)), alpha=0.1, step=1.0,
            x0=np.zeros((2, 3)), tol=0.0, max_iter=0,
        )
        assert not report.converged.any()
        assert report.iterations == 0
        assert np.array_equal(report.solution, np.zeros((2, 3)))

    def test_empty_block_returns_an_empty_report(self):
        calls = []

        def linearize(x):
            calls.append(x.shape)
            assert len(calls) < 5, "the solve kept iterating on an empty block"
            return x, lambda r: r

        report = prox_gradient_solve(
            linearize, np.zeros((0, 4)), alpha=1.0, step=0.5,
            x0=np.zeros((0, 4)), tol=1e-6, max_iter=10,
        )
        assert report.solution.shape == (0, 4)
        assert report.final_residual.shape == (0,)
        assert report.iterations == 0
        assert report.row_iterations.size == 0 and report.converged.size == 0


def _reference_solve(sigma, y, alpha, step, tol, max_iter, accelerate):
    """One diagonal problem by proximal gradient, written out for one vector.

    With ``accelerate`` this is the monotone FISTA with restart that
    ``prox_gradient_solve`` documents; without, it is plain proximal
    gradient.  Returns the solution and the iteration count.  Sums are
    taken as the solver takes them, so that a comparison decided at
    roundoff goes the same way in both.
    """
    def objective(v):
        r = sigma * v - y
        return np.einsum("i,i->", r, r) + alpha * np.sum(np.abs(v))

    x = z = np.zeros_like(y)
    value = objective(x)
    t = 1.0
    thresh = step * alpha / 2.0
    for k in range(1, max_iter + 1):
        x_next = soft_threshold(z - step * (sigma * (sigma * z - y)), thresh)
        stop = np.linalg.norm(x_next - z) <= tol
        next_value = objective(x_next)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if not accelerate:
            x = z = x_next
        elif next_value > value and t > 1.0:
            # not taken: keep x, and take a plain step from it next
            t, z = 1.0, x
        elif np.einsum("i,i->", z - x_next, x_next - x) > 0.0:
            t, x, z, value = 1.0, x_next, x_next, next_value
        else:
            t, z = t_next, x_next + (t - 1.0) / t_next * (x_next - x)
            x, value = x_next, next_value
        if stop:
            return x, k
    raise AssertionError(f"the reference solve needs more than {max_iter} iterations")


@st.composite
def _diagonal_problems(draw):
    """A (B, n) block of diagonal problems with per-row alpha.

    sigma spans [0.2, 1], so plain proximal gradient contracts only by about
    1 - 0.04 step per iteration on the smallest singular value.
    """
    rows = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=10))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sigma = np.sort(np.concatenate([[1.0, 0.2], gen.uniform(0.2, 1.0, n - 2)]))[::-1]
    y = gen.standard_normal((rows, n))
    alpha = 10.0 ** gen.uniform(-4.0, -2.0, rows)
    step = gen.uniform(0.5, 1.0)
    return sigma, y, alpha, step


def _solve_rows(problem, tol):
    # the solver's per-row iterations and solutions, and each row's data and alpha
    sigma, y, alpha, step = problem
    report = prox_gradient_solve(
        lambda x: (sigma * x, lambda r: sigma * r), y, alpha=alpha, step=step,
        x0=np.zeros_like(y), tol=tol, max_iter=20_000,
    )
    return list(zip(report.row_iterations, report.solution, y, alpha))


class TestAcceleratedProxGradient:
    """The accelerated solve against the closed form and against plain iteration."""

    @given(_diagonal_problems())
    @settings(max_examples=30, deadline=None)
    def test_matches_closed_form_on_every_drawn_row(self, problem):
        sigma = problem[0]
        for _, solution, yi, ai in _solve_rows(problem, 1e-12):
            # the diagonal functional separates: one prox per coefficient
            exact = soft_threshold(yi / sigma, ai / (2.0 * sigma**2))
            assert np.max(np.abs(solution - exact)) <= 1e-8

    def test_matches_closed_form_in_fewer_iterations(self):
        # acceleration need not win on every problem: on a drawn row whose
        # slow coordinate is thresholded to 0 from the start it took 22
        # iterations to plain iteration's 21.  With every coordinate active
        # and sigma^2 spanning two decades, it must win by a wide margin.
        sigma = np.geomspace(1.0, 0.1, 8)
        y = sigma * np.linspace(1.0, 2.0, 8) * np.tile([1.0, -1.0], 4)
        alpha, step, tol = 1e-4, 1.0, 1e-12
        exact = soft_threshold(y / sigma, alpha / (2.0 * sigma**2))
        assert np.all(exact != 0.0)
        problem = (sigma, y[np.newaxis], np.array([alpha]), step)
        ((iterations, solution, _, _),) = _solve_rows(problem, tol)
        assert np.max(np.abs(solution - exact)) <= 1e-8
        _, plain = _reference_solve(sigma, y, alpha, step, tol, 20_000, False)
        assert 3 * iterations < plain

    @given(_diagonal_problems())
    @settings(max_examples=40, deadline=None)
    def test_rows_follow_the_one_vector_reference(self, problem):
        sigma, _, _, step = problem
        tol = 1e-9
        for iterations, solution, yi, ai in _solve_rows(problem, tol):
            x, k = _reference_solve(sigma, yi, ai, step, tol, 20_000, True)
            assert iterations == k
            assert np.max(np.abs(solution - x)) <= 1e-12 * max(np.max(np.abs(x)), 1.0)

    @given(_diagonal_problems(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_objective_never_rises(self, problem, seed):
        sigma, y, alpha, step = problem
        report = prox_gradient_solve(
            lambda x: (sigma * x, lambda r: sigma * r), y[:1], alpha=alpha[0], step=step,
            x0=np.random.default_rng(seed).standard_normal(y[:1].shape), tol=1e-12,
            max_iter=20_000, record_objective=True,
        )
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])


class TestOperatorNormSquared:
    def test_diagonal(self):
        sigma = np.array([3.0, 1.0, 0.1])
        est = operator_norm_squared(lambda v: sigma * v, lambda u: sigma * u, 1, 3, iters=100)
        assert est == pytest.approx([9.0], rel=1e-6)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_out_of_range(self, seed):
        sigma = np.array([3.0, 1.0])
        with pytest.raises(ValueError, match="seed"):
            operator_norm_squared(lambda v: sigma * v, lambda u: sigma * u, 1, 2, seed=seed)
