"""Solvers: spectral filter reconstructions and accelerated
proximal-gradient (FISTA) minimization of an l1-penalized least-squares
functional.

Conventions
-----------
* Filtered reconstruction: R_alpha(y)_n = F(sigma_n)/sigma_n * y_n where
  sigma_n > 0 and 0 where sigma_n = 0, with a filter value F in [0, 1].
* The penalized functional is ||F(x) - y||^2 + alpha * ||x||_1.
  Gradient steps use F'(x)*(F(x) - y), the gradient of half the squared
  residual, so the matching proximal threshold is step * alpha / 2.
  The fixed point then solves the functional above exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import _integer, trial_rng


@dataclass(frozen=True)
class _AlphaFilter:
    # a filter with one positive parameter alpha, a scalar or one per row
    alpha: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


class Tikhonov(_AlphaFilter):
    """Filter sigma^2 / (sigma^2 + alpha); alpha is a scalar or one per row."""


class Tsvd(_AlphaFilter):
    """Truncation filter: 1 when sigma^2 >= alpha, else 0 (boundary kept)."""


@dataclass(frozen=True)
class LandweberFilter:
    """Filter 1 - (1 - gamma sigma^2)^k after k linear Landweber steps.

    ``k`` is a nonnegative integer or one per row; k = 0 is the zero
    filter.  Requires gamma * sigma_1^2 <= 1 (contraction); checked where
    sigma_1 is known, i.e. at reconstruction time.
    """

    k: int | np.ndarray
    gamma: float

    def __post_init__(self):
        k = np.asarray(self.k)
        if not (np.issubdtype(k.dtype, np.integer) and np.all(k >= 0)):
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run; final_residual is ||F(solution) - data||.

    A prox-gradient solve reports (B,) arrays of final residuals,
    per-row iteration counts and convergence flags, and a discrepancy
    search its final residuals and per-row evaluation counts;
    ``iterations`` is then the total over rows.
    """

    solution: np.ndarray
    iterations: int
    final_residual: float | np.ndarray
    objective_trace: tuple = ()
    row_iterations: np.ndarray | None = None
    converged: np.ndarray | None = None


class NonConvergence(RuntimeError):
    """Not raised: a solve reports its unconverged rows in ``SolveReport.converged``.

    Kept exported because the benchmark's tracer, ``perfbench/tracing.py``,
    still imports it.
    """


def _per_row_column(param) -> np.ndarray:
    # a scalar parameter as it is, and one per row as a (B, 1) column
    param = np.asarray(param, dtype=float)
    return param[:, np.newaxis] if param.ndim else param


def _row_powers(base: np.ndarray, exponents) -> np.ndarray:
    # base ** e, one row per exponent e (or base ** e for a scalar e).  The
    # exponents are spread to a full array: numpy squares where a broadcast
    # exponent is 2 but not where an array holds it, so a row would
    # otherwise depend on the rows around it
    e = _per_row_column(exponents)
    return np.power(base, np.broadcast_to(e, np.broadcast(base, e).shape).copy())


def filter_value(kind, sigma):
    """Filter factor F(sigma) in [0, 1]; accepts scalars or arrays.

    A kind with one parameter per row, a (B,) alpha or k, gives one row of
    factors per parameter: a (B, n) block for n values of sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise ValueError("filter_value requires sigma > 0")
    s2 = sigma * sigma
    if isinstance(kind, Tikhonov):
        out = s2 / (s2 + _per_row_column(kind.alpha))
    elif isinstance(kind, Tsvd):
        out = np.where(s2 >= _per_row_column(kind.alpha), 1.0, 0.0)
    elif isinstance(kind, LandweberFilter):
        out = 1.0 - _row_powers(1.0 - kind.gamma * s2, kind.k)
    else:
        raise TypeError(f"unknown filter kind {kind!r}")
    return out if out.ndim else float(out)


def filter_reconstruct(op, y, kind) -> np.ndarray:
    """Filtered generalized inverse F(sigma)/sigma * y where sigma > 0, else 0.

    ``y`` is one data vector or a (B, n) block of them; a kind with one
    parameter per row needs the block.  Each row is filtered alone, so a
    row's result does not depend on the rows around it.
    """
    s = op.singular_values
    if isinstance(kind, LandweberFilter) and kind.gamma * s[0] ** 2 > 1.0 + 1e-12:
        raise ValueError(
            f"Landweber filter not contractive: gamma*sigma_1^2 = {kind.gamma * s[0]**2:.3g} > 1"
        )
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != s.size:
        raise ValueError(f"data: expected rows of length {s.size}, got shape {y.shape}")
    out = np.zeros_like(y)
    pos = s > 0.0
    out[..., pos] = filter_value(kind, s[pos]) / s[pos] * y[..., pos]
    return out


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0); accepts scalars or arrays, t >= 0."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):  # NaN fails too
        raise ValueError("threshold must be nonnegative")
    out = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    return out if out.ndim else float(out)


def _prox_power_vec(v: np.ndarray, t: np.ndarray, p: float) -> np.ndarray:
    # monotone Newton in s = |x|^(p-1), entry by entry (see prox_weighted_lp);
    # overflow needs |v| or 1/t near the largest double, and then only picks
    # the other starting bound or stops the entry
    v, t = np.broadcast_arrays(v, t)
    out = v.astype(float)  # t = 0 leaves v as it is
    idx = np.flatnonzero(t > 0.0)
    av = np.abs(v.ravel()[idx])
    tp = t.ravel()[idx] * p
    q = 1.0 / (p - 1.0)
    with np.errstate(over="ignore"):
        s = np.minimum(av ** (p - 1.0), av / tp)
        live = np.arange(idx.size)
        for _ in range(100):  # a guard: even p = 1 + 1e-9 stops within 16 steps
            sl = s[live]
            sq1 = sl ** (q - 1.0)
            s_next = sl - (sl * sq1 + tp[live] * sl - av[live]) / (q * sq1 + tp[live])
            down = s_next < sl
            live = live[down]
            if not live.size:
                break
            s[live] = s_next[down]
    out.ravel()[idx] = np.sign(v.ravel()[idx]) * s**q
    return out


def prox_weighted_lp(v, t, p: float):
    """Proximal map of t |.|^p for p in [1, 2].

    p = 1 is soft thresholding, p = 2 is v / (1 + 2t); for p in (1, 2) the
    output x solves x + t p sign(x)|x|^(p-1) = v (x = v where t = 0).  Newton
    in s = |x|^(p-1), on the convex increasing s^(1/(p-1)) + t p s - |v|,
    starts above the root at min(|v|^(p-1), |v|/(t p)) and falls onto it; an
    entry stops once a step no longer decreases s, so it depends on (v, t) only.
    A root that underflows double precision, as for p near 1, comes out as 0.
    """
    v_arr = np.asarray(v, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"p must lie in [1, 2], got {p!r}")
    if not np.all(t_arr >= 0.0):  # NaN fails too
        raise ValueError("threshold must be nonnegative")
    out = _prox_lp(v_arr, t_arr, p)
    return out if out.ndim else float(out)


def _prox_lp(v: np.ndarray, t: np.ndarray, p: float) -> np.ndarray:
    # prox_weighted_lp on float arrays whose arguments were already checked
    if p == 1.0:
        out = np.maximum(np.abs(v) - t, 0.0)
        out *= np.sign(v)
        return out
    if p == 2.0:
        return v / (1.0 + 2.0 * t)
    return _prox_power_vec(v, t, p)


def _row_norms(a: np.ndarray) -> np.ndarray:
    # Euclidean norm of each row; every row is reduced the same way whatever
    # the number of rows, so a batched row matches its one-row solve
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _per_row(value, rows: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim > 1 or (arr.ndim == 1 and arr.size != rows):
        raise ValueError(f"{what}: expected a scalar or one value per row ({rows}), got {arr.shape}")
    return np.broadcast_to(arr, (rows,)).copy()


def prox_gradient_solve(
    linearize,
    y,
    alpha,
    step,
    x0,
    tol: float,
    max_iter: int,
    record_objective: bool = False,
) -> SolveReport:
    """Accelerated proximal gradient on ||F(x) - y||^2 + alpha * ||x||_1, row by row.

    ``x0`` and ``y`` are (B, m) blocks of one shape, and each row is its own
    problem, with its own momentum and restarts.  Monotone FISTA (Beck and
    Teboulle 2009) with gradient-based adaptive restart (O'Donoghue and
    Candes 2015).  One iteration takes a proximal gradient step from the
    extrapolated point z, x+ = prox(z - step * F'(z)*(F(z) - y)) with
    proximal threshold step * alpha / 2 in each entry, and then
    extrapolates z <- x+ + (t - 1) / t+ * (x+ - x) with
    t+ = (1 + sqrt(1 + 4 t^2)) / 2, starting from z = x0 and t = 1.  When the step opposes the momentum,
    (z - x+) . (x+ - x) > 0, the momentum restarts: t = 1 and z = x+.  A
    step from momentum (t > 1) that would raise the objective is rejected:
    x stays, t = 1 and z = x, so the next step is a plain one.  The
    objective therefore never rises wherever plain proximal gradient steps
    do not raise it, as for a linear F whose steps meet the condition:
    diag(step)^1/2 F'(x)*F'(x) diag(step)^1/2 <= I near the iterates, for
    each row's steps.  A scalar step meets it when it is at most 1/L, L a
    bound on ||F'(x)||^2.
    A row converges when the step from the extrapolated point, ||x+ - z||,
    drops to ``tol`` (z is then a fixed point of the proximal gradient map
    to that accuracy), and stops unconverged after ``max_iter`` iterations.

    ``linearize(x)`` takes any (k, m) block of the rows and returns F(x)
    and a function r -> F'(x)* r at that block, both acting row by row: a
    row leaves the block as soon as it stops.  Each iteration linearizes
    twice, at z for the gradient and at x+ for the objective, where only
    F(x+) is used; work shared by F and F'(x)* belongs inside ``linearize``.
    ``alpha`` is a scalar or one value per row, and ``step`` a scalar, one
    value per row or a (B, m) block, one per entry; every row gets the same
    ``max_iter`` iterations.  ``tol`` must be finite and at least
    0, and ``max_iter`` at least 0.  A (0, m) block returns an empty report:
    no rows, 0 iterations, nothing unconverged.
    The report is returned whether or not every row converged.  Its
    ``solution`` is (B, m), ``final_residual`` is a (B,) array and
    ``iterations`` is the total over rows; ``row_iterations`` and
    ``converged`` hold each row's count and outcome.
    ``record_objective`` keeps the objective at x after every iteration, for
    a one-row block only.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x0 must be a (B, m) block, got shape {x.shape}")
    rows = x.shape[0]
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"data shape {y.shape} does not match the unknown's {x.shape}")
    alpha = _per_row(alpha, rows, "alpha")
    step = np.asarray(step, dtype=float)
    if step.ndim < 2:
        step = _per_row(step, rows, "step")
    elif step.shape != x.shape:
        raise ValueError(f"step: expected a scalar, one value per row or a {x.shape} block, "
                         f"got {step.shape}")
    if not np.all(alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not np.all(step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    if step.ndim == 1:
        step = step[:, np.newaxis]  # one step per row, as a (B, 1) column
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    max_iter = _integer(max_iter, "max_iter", positive=False)  # one budget for every row
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if record_objective and rows != 1:
        raise ValueError("record_objective needs a one-row block")
    thresh = step * alpha[:, np.newaxis] / 2.0

    def objective(xv, r):
        # each row's residual norm and objective
        res_sq = np.einsum("ij,ij->i", r, r)
        return np.sqrt(res_sq), res_sq + alpha * np.sum(np.abs(xv), axis=1)

    solution = np.empty_like(x)
    final = np.empty(rows)
    row_iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    res_norm, value = objective(x, linearize(x)[0] - y)
    trace = [float(value[0])] if record_objective else []
    z = x
    t = np.ones(rows)
    stop = np.zeros(rows, dtype=bool)
    k = 0
    while True:
        done = stop | (k >= max_iter)
        if done.any():
            idx = active[done]
            solution[idx] = x[done]
            final[idx] = res_norm[done]
            row_iterations[idx] = k
            converged[idx] = stop[done]
            keep = ~done
            active, x, z, t, y = active[keep], x[keep], z[keep], t[keep], y[keep]
            res_norm, value, alpha = res_norm[keep], value[keep], alpha[keep]
            step, thresh = step[keep], thresh[keep]
        if not active.size:  # also a (0, m) block, whose ``done`` is empty
            break
        k += 1
        f_z, adjoint = linearize(z)
        v = np.multiply(step, adjoint(f_z - y))
        del f_z, adjoint  # z's linearization need not live beside x+'s
        np.subtract(z, v, out=v)
        x_next = _prox_lp(v, thresh, 1.0)
        next_norm, next_value = objective(x_next, linearize(x_next)[0] - y)
        from_z = x_next - z
        move = x_next - x
        stop = _row_norms(from_z) <= tol
        # a step from momentum that would raise the objective is rejected:
        # the row keeps x and restarts, so its next step is a plain one from x
        taken = (next_value <= value) | (t == 1.0)
        # restart also where the step opposes the momentum: (z - x+) . (x+ - x) > 0
        restart = ~taken | (np.einsum("ij,ij->i", from_z, move) < 0.0)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = np.where(restart, 0.0, (t - 1.0) / t_next)
        t = np.where(restart, 1.0, t_next)
        x = np.where(taken[:, np.newaxis], x_next, x)
        res_norm = np.where(taken, next_norm, res_norm)
        value = np.where(taken, next_value, value)
        if record_objective:
            trace.append(float(value[0]))
        move *= momentum[:, np.newaxis]
        z = np.add(x, move, out=move)

    return SolveReport(
        solution=solution,
        iterations=int(row_iterations.sum()),
        final_residual=final,
        objective_trace=tuple(trace),
        row_iterations=row_iterations,
        converged=converged,
    )


def operator_norm_squared(
    apply_fn, adjoint_fn, rows: int, n: int, iters: int = 50, seed: int = 0
):
    """Estimate ||M_i||^2 by power iteration for each row's linear map M_i of width n.

    ``apply_fn`` and ``adjoint_fn`` act on a (rows, n) block, row i through
    its own linear map M_i, and a (rows,) array of estimates is returned.
    Every row starts from the same seeded vector and runs the iteration a
    one-row call would run.
    """
    v = np.tile(trial_rng(seed, 0).standard_normal(n), (rows, 1))
    v /= _row_norms(v)[:, np.newaxis]
    lam = np.zeros(rows)
    # a row whose M*M v vanishes has norm estimate 0
    live = np.ones(rows, dtype=bool)
    for _ in range(iters):
        u = adjoint_fn(apply_fn(v))
        norm = _row_norms(u)
        live &= norm != 0.0
        if not live.any():
            break
        lam = np.where(live, np.einsum("ij,ij->i", v, u), lam)
        # a dead row's u is (numerically) zero and is ignored from here on
        v = u / np.where(live, norm, 1.0)[:, np.newaxis]
    return np.where(live, np.maximum(lam, _row_norms(apply_fn(v)) ** 2), 0.0)
