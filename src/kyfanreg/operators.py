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
* The Haar transform is orthonormal with full decomposition.  Coefficient
  layout: index 0 is the overall scaling coefficient, followed by detail
  blocks from finest to coarsest (sizes m/2, m/4, ..., 1).  Levels are
  numbered 0 for the scaling coefficient up to log2(m) for the finest block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdOperator",
    "AutoconvGrid",
    "BesovWeights",
    "autoconv_apply",
    "autoconv_spectrum",
    "autoconv_derivative_apply",
    "autoconv_derivative_adjoint_apply",
    "haar_forward",
    "haar_inverse",
    "haar_level_indices",
    "besov_weights",
]

def _as_vector(x, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != n:
        raise ValueError(f"{what}: expected a vector of length {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class SvdOperator:
    """Compact linear operator in its singular basis: (A x)_n = sigma_n x_n.

    ``singular_values`` must be finite, non-increasing and nonnegative.
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
        if np.any(s < 0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(s) > 1e-12 * max(1.0, s[0])):
            raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "singular_values", s)

    @classmethod
    def diagonal(cls, singular_values) -> "SvdOperator":
        return cls(singular_values)

    @property
    def size(self) -> int:
        """Length of the data and solution vectors."""
        return self.singular_values.size

    def apply(self, x) -> np.ndarray:
        """A x = sigma * x."""
        return self.singular_values * _as_vector(x, self.size, "solution vector")

    def source_element(self, exponent: float, w) -> np.ndarray:
        """(A* A)^exponent w, i.e. the spectral multiplier sigma^(2*exponent).

        The caller passes the exponent explicitly (nu/2 for range conditions
        written with (A*A)^(nu/2), nu when the condition uses (A*A)^nu).
        """
        w = _as_vector(w, self.size, "source element")
        if exponent == 0.0:
            return w.copy()
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
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

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


def _check_power_of_two(n: int):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def haar_forward(x) -> np.ndarray:
    """Orthonormal discrete Haar transform, fully decomposed.

    Output layout: [scaling, finest detail block, ..., coarsest detail block].
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("haar_forward expects a 1-d array")
    _check_power_of_two(x.size)
    blocks = []
    s = x
    while s.size > 1:
        even, odd = s[0::2], s[1::2]
        blocks.append((even - odd) / _SQRT2)
        s = (even + odd) / _SQRT2
    return np.concatenate([s] + blocks) if blocks else s.copy()


def haar_inverse(c) -> np.ndarray:
    """Inverse of :func:`haar_forward` (exact up to roundoff)."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("haar_inverse expects a 1-d array")
    _check_power_of_two(c.size)
    n = c.size
    if n == 1:
        return c.copy()
    # detail blocks are stored finest first; rebuild from the coarsest
    offsets = []
    off, size = 1, n // 2
    while size >= 1:
        offsets.append((off, size))
        off += size
        size //= 2
    s = c[:1]
    for off, size in reversed(offsets):
        d = c[off : off + size]
        out = np.empty(2 * size)
        out[0::2] = (s + d) / _SQRT2
        out[1::2] = (s - d) / _SQRT2
        s = out
    return s


def haar_level_indices(n: int) -> np.ndarray:
    """Level of each Haar coefficient: 0 = scaling, log2(n) = finest details."""
    _check_power_of_two(n)
    levels = int(round(math.log2(n)))
    out = np.zeros(n, dtype=int)
    off, size, lev = 1, n // 2, levels
    while size >= 1:
        out[off : off + size] = lev
        off += size
        size //= 2
        lev -= 1
    return out


@dataclass(frozen=True)
class BesovWeights:
    """Level-dependent weights w = 2^(zeta * level * p) for a weighted lp penalty.

    zeta = s - d*(1/2 - 1/p) must be positive for the weighted penalty to be
    a Besov-norm power; weights are non-decreasing in level.
    """

    s: float
    p: float
    d: int
    levels: int
    zeta: float
    weights: np.ndarray


def besov_weights(s: float, p: float, d: int, levels: int) -> BesovWeights:
    """Weights for all 2^levels Haar coefficients, grouped by level."""
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p: must lie in [1, 2], got {p!r}")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"d: must be a positive integer, got {d!r}")
    if not (isinstance(levels, (int, np.integer)) and levels >= 1):
        raise ValueError(f"levels: must be a positive integer, got {levels!r}")
    zeta = s - d * (0.5 - 1.0 / p)
    if not (zeta > 0.0):
        raise ValueError(f"s: smoothness too low: zeta = s - d(1/2 - 1/p) = {zeta!r} <= 0")
    lev = haar_level_indices(2**levels)
    w = 2.0 ** (zeta * p * lev)
    return BesovWeights(s=float(s), p=float(p), d=int(d), levels=int(levels), zeta=zeta, weights=w)
