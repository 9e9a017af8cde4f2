"""Forward operators: compact linear maps given by their singular values,
the discrete autoconvolution map with derivative and adjoint, the
orthonormal Haar transform, and Besov weight generation.

Conventions
-----------
* An ``SvdOperator`` is written in its singular basis, A x = sigma * x.
  Gaussian white noise is invariant under the orthogonal change to that
  basis, so every linear study runs this diagonal sequence-space model.
* The autoconvolution of x on [0, 1] with m grid points uses the
  left-rectangle sum y_k = h * sum_{j<=k} x_j x_{k-j}, h = 1/m, which keeps
  the quadratic expansion F(x+v) = F(x) + F'(x)v + F(v) exact.
* The Haar transform is orthonormal with full decomposition; its
  coefficient layout is stated once, in ``_detail_blocks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import _integer

@dataclass(frozen=True)
class SvdOperator:
    """Compact linear operator in its singular basis: (A x)_n = sigma_n x_n.

    ``singular_values`` must be finite, non-increasing and nonnegative, with
    a finite square (at most about 1.34e154): filters and rules work with
    sigma^2.
    """

    singular_values: np.ndarray

    def __post_init__(self):
        # contiguous: numpy may pick a different kernel for a strided view,
        # and a row of a block would then depend on the block's size
        s = np.ascontiguousarray(self.singular_values, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("singular_values must be a non-empty 1-d array")
        if not np.all(np.isfinite(s)):
            raise ValueError("singular values must be finite")
        largest = float(np.max(s))
        if math.isinf(largest * largest):
            raise ValueError(f"singular values must have a finite square, got {largest!r}")
        if np.any(s < 0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(s) > 1e-12 * max(1.0, s[0])):
            raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "singular_values", s)

    @property
    def size(self) -> int:
        """Length of the data and solution vectors."""
        return self.singular_values.size

    def source_element(self, exponent: float, w) -> np.ndarray:
        """(A* A)^exponent w, i.e. the spectral multiplier sigma^(2*exponent).

        The caller passes the exponent explicitly (nu/2 for range conditions
        written with (A*A)^(nu/2), nu when the condition uses (A*A)^nu).
        """
        if exponent == 0.0:
            return np.array(w, dtype=float)
        s = self.singular_values
        mult = np.zeros_like(s)
        pos = s > 0.0
        mult[pos] = s[pos] ** (2.0 * exponent)
        return mult * w


@dataclass(frozen=True)
class AutoconvGrid:
    """Uniform grid of m points on [0, 1] with mesh width h = 1/m."""

    m: int

    def __post_init__(self):
        _integer(self.m, "m")

    @property
    def h(self) -> float:
        return 1.0 / self.m


def _fft_length(m: int) -> int:
    # smallest power of two >= 2m - 1: the circular product then holds every
    # lag of the linear convolution or correlation, so the first m entries
    # carry no wrap-around
    return 1 << (2 * m - 2).bit_length()


def _kernel_args(grid: AutoconvGrid, **arrays) -> list:
    # one check per call: every argument is (m,) or (B, m), all of one shape
    out = [np.asarray(a, dtype=float) for a in arrays.values()]
    shape = out[0].shape
    for what, a in zip(arrays, out):
        if a.ndim not in (1, 2) or a.shape[-1] != grid.m or a.shape != shape:
            raise ValueError(
                f"{what}: expected shape (m,) or (B, m) with m = {grid.m}, the same for "
                f"every argument, got {a.shape} (first argument {shape})"
            )
    return out


def _first_m(grid: AutoconvGrid, spectrum: np.ndarray, scale: float) -> np.ndarray:
    # scale * (inverse transform)[..., :m]; scaled in place on the kept view
    # so that a (B, m) batch allocates no more than the transform needs
    out = np.fft.irfft(spectrum, _fft_length(grid.m))[..., : grid.m]
    out *= scale
    return out


def autoconv_spectrum(grid: AutoconvGrid, x) -> np.ndarray:
    """The kernels' transform of ``x``, row by row.

    A caller that applies both ``autoconv_apply`` and
    ``autoconv_derivative_adjoint_apply`` at the same ``x`` can pass this as
    their ``spectrum`` argument, so that ``x`` is transformed once for both.
    """
    (x,) = _kernel_args(grid, input=x)
    return np.fft.rfft(x, _fft_length(grid.m))


def _spectrum_of(grid: AutoconvGrid, x: np.ndarray, spectrum) -> np.ndarray:
    # a fresh transform of x, or the caller's, which the kernels never modify
    n = _fft_length(grid.m)
    if spectrum is None:
        return np.fft.rfft(x, n)
    if np.shape(spectrum) != x.shape[:-1] + (n // 2 + 1,):
        raise ValueError(
            f"spectrum: expected shape {x.shape[:-1] + (n // 2 + 1,)} for an input of "
            f"shape {x.shape}, got {np.shape(spectrum)}"
        )
    return spectrum


def autoconv_apply(grid: AutoconvGrid, x, spectrum=None) -> np.ndarray:
    """[F(x)]_k = h * sum_{j<=k} x_j x_{k-j}, the discrete autoconvolution.

    ``x`` is one vector (m,) or a block (B, m) of B vectors, one per row.
    ``spectrum``, if given, is ``autoconv_spectrum(grid, x)``.
    """
    (x,) = _kernel_args(grid, input=x)
    spectrum = _spectrum_of(grid, x, spectrum)
    return _first_m(grid, spectrum * spectrum, grid.h)


def autoconv_derivative_apply(grid: AutoconvGrid, x, v) -> np.ndarray:
    """F'(x) v = 2 h * (truncated convolution of x and v), row by row."""
    x, v = _kernel_args(grid, linearization_point=x, direction=v)
    n = _fft_length(grid.m)
    spectrum = np.fft.rfft(x, n)
    spectrum *= np.fft.rfft(v, n)
    return _first_m(grid, spectrum, 2.0 * grid.h)


def autoconv_derivative_adjoint_apply(grid: AutoconvGrid, x, r, spectrum=None) -> np.ndarray:
    """F'(x)* r, the transpose of the truncated-convolution matrix, row by row.

    ``spectrum``, if given, is ``autoconv_spectrum(grid, x)``.
    """
    x, r = _kernel_args(grid, linearization_point=x, residual=r)
    # (F'(x)* r)_j = 2h * sum_{k>=j} x_{k-j} r_k: correlation at nonnegative lags
    spectrum = np.conjugate(_spectrum_of(grid, x, spectrum))
    spectrum *= np.fft.rfft(r, _fft_length(grid.m))
    return _first_m(grid, spectrum, 2.0 * grid.h)


_SQRT2 = math.sqrt(2.0)


def _detail_blocks(n: int):
    """(level, start, size) of each detail block of n Haar coefficients, finest first.

    This is the one statement of the coefficient layout.  Index 0 holds the
    scaling coefficient, at level 0; the detail blocks, of sizes n/2, n/4,
    ..., 1, follow it.  A block of size k is at level k.bit_length(), from
    log2(n) for the finest down to 1.  Raises ValueError unless n is a
    power of two.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    start, size = 1, n // 2
    while size:
        yield size.bit_length(), start, size
        start += size
        size //= 2


def haar_forward(x) -> np.ndarray:
    """Orthonormal discrete Haar transform, fully decomposed, laid out as in ``_detail_blocks``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("haar_forward expects a 1-d array")
    out = np.empty(x.size)
    s = x
    for _, start, size in _detail_blocks(x.size):
        even, odd = s[0::2], s[1::2]
        out[start : start + size] = (even - odd) / _SQRT2
        s = (even + odd) / _SQRT2
    out[0] = s[0]
    return out


def haar_inverse(c) -> np.ndarray:
    """Inverse of :func:`haar_forward` (exact up to roundoff)."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("haar_inverse expects a 1-d array")
    s = c[:1].copy()
    for _, start, size in reversed(list(_detail_blocks(c.size))):  # coarsest first
        d = c[start : start + size]
        out = np.empty(2 * size)
        out[0::2] = (s + d) / _SQRT2
        out[1::2] = (s - d) / _SQRT2
        s = out
    return s


def haar_level_indices(n: int) -> np.ndarray:
    """Level of each Haar coefficient: 0 = scaling, log2(n) = finest details."""
    levels = [0]
    for level, _, size in _detail_blocks(n):
        levels += [level] * size
    return np.array(levels)


@dataclass(frozen=True)
class BesovWeights:
    """Level-dependent weights w = 2^(zeta * level * p) for a weighted lp penalty.

    zeta = s - d*(1/2 - 1/p) must be positive for the weighted penalty to be
    a Besov-norm power; weights are non-decreasing in level.
    """

    zeta: float
    weights: np.ndarray


def besov_weights(s: float, p: float, d: int, levels: int) -> BesovWeights:
    """Weights for all 2^levels Haar coefficients, grouped by level."""
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p: must lie in [1, 2], got {p!r}")
    _integer(d, "d:")  # "d:" and "levels:" lead the message, as config.py reads it
    _integer(levels, "levels:")
    zeta = s - d * (0.5 - 1.0 / p)
    if not (zeta > 0.0):
        raise ValueError(f"s: smoothness too low: zeta = s - d(1/2 - 1/p) = {zeta!r} <= 0")
    lev = haar_level_indices(2**levels)
    w = 2.0 ** (zeta * p * lev)
    return BesovWeights(zeta=zeta, weights=w)
