import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kyfanreg.operators import (
    AutoconvGrid,
    SvdOperator,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
    autoconv_derivative_apply,
    autoconv_spectrum,
    besov_weights,
    haar_forward,
    haar_inverse,
    haar_level_indices,
)

rng = np.random.default_rng(42)


class TestSvdOperator:
    def test_identity(self):
        op = SvdOperator.diagonal([1.0, 1.0, 1.0])
        x = rng.standard_normal(3)
        assert op.size == 3
        assert np.allclose(op.apply(x), x, atol=1e-15)

    def test_diagonal_action(self):
        op = SvdOperator.diagonal([2.0, 0.5])
        assert np.allclose(op.apply([1.0, 1.0]), [2.0, 0.5])

    def test_linearity(self):
        op = SvdOperator.diagonal(np.sort(rng.uniform(0.0, 2.0, 4))[::-1])
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        a, b = 0.37, -1.2
        assert np.allclose(
            op.apply(a * x + b * y), a * op.apply(x) + b * op.apply(y), atol=1e-12
        )

    def test_norm_bound(self):
        op = SvdOperator.diagonal(np.sort(rng.uniform(0.0, 2.0, 6))[::-1])
        s1 = op.singular_values[0]
        for _ in range(20):
            x = rng.standard_normal(6)
            assert np.linalg.norm(op.apply(x)) <= s1 * np.linalg.norm(x) * (1.0 + 1e-10)

    def test_source_element(self):
        op = SvdOperator.diagonal([1.0, 0.5])
        w = np.array([1.0, 1.0])
        assert np.allclose(op.source_element(0.0, w), w)
        assert np.allclose(op.source_element(1.0, w), [1.0, 0.25])
        op4 = SvdOperator.diagonal([4.0])
        assert np.allclose(op4.source_element(0.5, [1.0]), [4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SvdOperator.diagonal([0.5, 1.0])  # increasing
        with pytest.raises(ValueError):
            SvdOperator.diagonal([1.0, -0.1])
        op = SvdOperator.diagonal([1.0, 0.5])
        with pytest.raises(ValueError):
            op.apply([1.0, 2.0, 3.0])


class TestAutoconvolution:
    grid = AutoconvGrid(64)

    def test_zero(self):
        assert np.allclose(autoconv_apply(self.grid, np.zeros(64)), 0.0)

    def test_constant_input_matches_integral(self):
        # for x = 1 the integral is s; node k carries s_k = (k+1)h exactly
        y = autoconv_apply(self.grid, np.ones(64))
        s = (np.arange(64) + 1.0) / 64.0
        assert np.max(np.abs(y - s)) <= self.grid.h * (1.0 + s[-1])

    def test_quadratic_scaling(self):
        x = rng.standard_normal(64)
        assert np.allclose(autoconv_apply(self.grid, 2.0 * x), 4.0 * autoconv_apply(self.grid, x))

    def test_exact_taylor_identity(self):
        for _ in range(10):
            x, v = rng.standard_normal(64), rng.standard_normal(64)
            lhs = (
                autoconv_apply(self.grid, x + v)
                - autoconv_apply(self.grid, x)
                - autoconv_derivative_apply(self.grid, x, v)
            )
            assert np.max(np.abs(lhs - autoconv_apply(self.grid, v))) < 1e-12

    def test_derivative_zero_direction(self):
        x = rng.standard_normal(64)
        assert np.allclose(autoconv_derivative_apply(self.grid, x, np.zeros(64)), 0.0)

    def test_finite_difference_slope(self):
        x, v = rng.standard_normal(64), rng.standard_normal(64)
        eps_grid = np.logspace(-2, -6, 5)
        errs = []
        for eps in eps_grid:
            fd = (autoconv_apply(self.grid, x + eps * v) - autoconv_apply(self.grid, x)) / eps
            errs.append(np.linalg.norm(fd - autoconv_derivative_apply(self.grid, x, v)))
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_adjoint_identity(self):
        for _ in range(100):
            x, v, r = (rng.standard_normal(64) for _ in range(3))
            lhs = autoconv_derivative_apply(self.grid, x, v) @ r
            rhs = v @ autoconv_derivative_adjoint_apply(self.grid, x, r)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_matches_dense_transpose(self):
        x = rng.standard_normal(64)
        dense = np.column_stack(
            [autoconv_derivative_apply(self.grid, x, e) for e in np.eye(64)]
        )
        r = rng.standard_normal(64)
        assert np.allclose(
            autoconv_derivative_adjoint_apply(self.grid, x, r), dense.T @ r, atol=1e-12
        )

    def test_adjoint_at_zero(self):
        r = rng.standard_normal(64)
        assert np.allclose(autoconv_derivative_adjoint_apply(self.grid, np.zeros(64), r), 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            autoconv_apply(self.grid, np.ones(32))


def _conv_ref(x, v):
    # O(m^2) double sum: h * sum_{j<=k} x_j v_{k-j}
    m = len(x)
    return np.array([sum(x[j] * v[k - j] for j in range(k + 1)) / m for k in range(m)])


def _corr_ref(x, r):
    # O(m^2) double sum: h * sum_{k>=j} x_{k-j} r_k
    m = len(x)
    return np.array([sum(x[k - j] * r[k] for k in range(j, m)) / m for j in range(m)])


@st.composite
def _kernel_inputs(draw):
    """x, v, r of one shape: a vector (m,) or a block (B, m), m and B from 1."""
    m = draw(st.integers(min_value=1, max_value=33))
    rows = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    shape = (m,) if rows is None else (rows, m)
    elements = st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False)
    return tuple(draw(arrays(np.float64, shape, elements=elements)) for _ in range(3))


def _rows(a):
    return np.atleast_2d(a)


class TestAutoconvKernelsProperties:
    """The FFT kernels against O(m^2) double sums, on vectors and row blocks."""

    @given(_kernel_inputs())
    @example((np.array([3.0]), np.array([-2.0]), np.array([0.5])))
    @example((np.array([[3.0]]), np.array([[-2.0]]), np.array([[0.5]])))
    @example(tuple(np.arange(1.0, 6.0).reshape(1, 5) * s for s in (1.0, -0.5, 2.0)))
    @settings(max_examples=150, deadline=None)
    def test_match_double_sums(self, xvr):
        x, v, r = xvr
        grid = AutoconvGrid(x.shape[-1])
        outs = (
            autoconv_apply(grid, x),
            autoconv_derivative_apply(grid, x, v),
            autoconv_derivative_adjoint_apply(grid, x, r),
        )
        for out in outs:
            assert out.shape == x.shape
        scale = 1.0 + np.max(np.abs(x)) * max(np.max(np.abs(x)), np.max(np.abs(v)), np.max(np.abs(r)))
        for xi, vi, ri, f, d, a in zip(_rows(x), _rows(v), _rows(r), *map(_rows, outs)):
            assert np.max(np.abs(f - _conv_ref(xi, xi))) <= 1e-12 * scale
            assert np.max(np.abs(d - 2.0 * _conv_ref(xi, vi))) <= 1e-12 * scale
            assert np.max(np.abs(a - 2.0 * _corr_ref(xi, ri))) <= 1e-12 * scale

    @given(_kernel_inputs())
    @settings(max_examples=150, deadline=None)
    def test_adjoint_and_taylor_identities(self, xvr):
        x, v, r = xvr
        grid = AutoconvGrid(x.shape[-1])
        size = max(np.max(np.abs(x)), np.max(np.abs(v)), np.max(np.abs(r)), 1.0)
        lhs = np.sum(autoconv_derivative_apply(grid, x, v) * r, axis=-1)
        rhs = np.sum(v * autoconv_derivative_adjoint_apply(grid, x, r), axis=-1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * size**3
        taylor = (
            autoconv_apply(grid, x + v)
            - autoconv_apply(grid, x)
            - autoconv_derivative_apply(grid, x, v)
            - autoconv_apply(grid, v)
        )
        assert np.max(np.abs(taylor)) <= 1e-12 * size**2

    @given(_kernel_inputs())
    @settings(max_examples=150, deadline=None)
    def test_shared_spectrum_is_bit_identical(self, xvr):
        x, _, r = xvr
        grid = AutoconvGrid(x.shape[-1])
        spectrum = autoconv_spectrum(grid, x)
        kept = spectrum.copy()
        assert np.array_equal(
            autoconv_apply(grid, x, spectrum=spectrum), autoconv_apply(grid, x)
        )
        assert np.array_equal(
            autoconv_derivative_adjoint_apply(grid, x, r, spectrum=spectrum),
            autoconv_derivative_adjoint_apply(grid, x, r),
        )
        # both kernels leave the shared spectrum as they found it
        assert np.array_equal(spectrum, kept)

    def test_rejects_a_spectrum_of_the_wrong_shape(self):
        grid = AutoconvGrid(8)
        x = np.ones((2, 8))
        with pytest.raises(ValueError, match="spectrum"):
            autoconv_apply(grid, x, spectrum=autoconv_spectrum(grid, x[0]))
        with pytest.raises(ValueError, match="spectrum"):
            autoconv_derivative_adjoint_apply(
                grid, x, x, spectrum=autoconv_spectrum(AutoconvGrid(16), np.ones((2, 16)))
            )

    def test_rows_are_independent(self):
        grid = AutoconvGrid(16)
        x, r = rng.standard_normal((2, 5, 16))
        block = autoconv_derivative_adjoint_apply(grid, x, r)
        for i in range(5):
            assert np.array_equal(block[i], autoconv_derivative_adjoint_apply(grid, x[i], r[i]))

    def test_rejects_mismatched_shapes(self):
        grid = AutoconvGrid(8)
        with pytest.raises(ValueError):
            autoconv_derivative_apply(grid, np.ones((2, 8)), np.ones((3, 8)))
        with pytest.raises(ValueError):
            autoconv_derivative_adjoint_apply(grid, np.ones(8), np.ones((1, 8)))
        with pytest.raises(ValueError):
            autoconv_apply(grid, np.ones((2, 2, 8)))


class TestHaar:
    def test_constant_vector(self):
        c = haar_forward(np.full(16, 2.5))
        assert c[0] == pytest.approx(2.5 * 4.0)
        assert np.allclose(c[1:], 0.0, atol=1e-14)

    def test_parseval(self):
        for _ in range(10):
            x = rng.standard_normal(32)
            assert np.linalg.norm(haar_forward(x)) == pytest.approx(
                np.linalg.norm(x), abs=1e-12
            )

    def test_roundtrip(self):
        for n in (1, 2, 4, 8, 64, 256):
            x = rng.standard_normal(n)
            assert np.max(np.abs(haar_inverse(haar_forward(x)) - x)) < 1e-12

    def test_orthogonal_matrix(self):
        for levels in range(1, 7):
            n = 2**levels
            w = np.column_stack([haar_forward(e) for e in np.eye(n)])
            assert np.allclose(w @ w.T, np.eye(n), atol=1e-10)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            haar_forward(np.ones(12))
        with pytest.raises(ValueError):
            haar_inverse(np.ones(3))

    def test_level_layout(self):
        lev = haar_level_indices(8)
        # scaling first, then blocks finest (level 3) to coarsest (level 1)
        assert list(lev) == [0, 3, 3, 3, 3, 2, 2, 1]


class TestBesovWeights:
    def test_level_zero_weight(self):
        for s, p, d in ((1.0, 2.0, 1), (1.0, 1.0, 1), (2.0, 1.5, 2)):
            bw = besov_weights(s, p, d, 3)
            assert bw.weights[0] == 1.0

    def test_p2_formula(self):
        bw = besov_weights(1.0, 2.0, 1, 4)
        assert bw.zeta == pytest.approx(1.0)
        lev = haar_level_indices(16)
        assert np.allclose(bw.weights, 2.0 ** (2.0 * lev))

    def test_p1_formula(self):
        bw = besov_weights(1.0, 1.0, 1, 4)
        assert bw.zeta == pytest.approx(1.5)
        lev = haar_level_indices(16)
        assert np.allclose(bw.weights, 2.0 ** (1.5 * lev))

    def test_monotone_in_level(self):
        bw = besov_weights(1.3, 1.4, 1, 5)
        lev = haar_level_indices(32)
        order = np.argsort(lev, kind="stable")
        assert np.all(np.diff(bw.weights[order]) >= 0.0)

    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(ValueError):
            besov_weights(0.0, 2.0, 1, 3)  # zeta = 0
        with pytest.raises(ValueError):
            besov_weights(-0.2, 1.5, 1, 3)  # zeta = -0.2 + 1/6 < 0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            besov_weights(1.0, 0.8, 1, 3)
        with pytest.raises(ValueError):
            besov_weights(1.0, 2.5, 1, 3)
