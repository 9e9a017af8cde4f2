"""The benchmark's workloads: inputs made from the seed, the program calls a
round times, and the checks on their outputs.

A round is a fixed list of operations run back to back by one caller. Every
round of a run repeats the same operations on the same inputs. Each
operation is a batch of program calls, timed as a whole, followed by an
untimed check of its output. The program is called through the
``kyfanreg`` package and module attributes, so that ``tracing.traced``
can wrap those calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kyfanreg as kf

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
OUT_DIR = HERE / "out"

AUTOCONV_CONFIGS = ("constant-coarse", "constant-fine", "log-coarse", "log-fine")
LINEAR_CONFIGS = ("filter", "nu-random", "besov")
# (eta, m, draws): about 10^5 to 10^6 draws each, 12.6 million normals in all
NOISE_CASES = ((1e-1, 1, 1_000_000), (1e-2, 4, 500_000), (1e-3, 16, 200_000), (1e-2, 64, 100_000))
NOISE_TAUS = (1.1, 1.2, 1.5, 2.0)


@dataclass(frozen=True)
class Op:
    """One timed batch of program calls and the untimed check of its output.

    ``check`` takes this operation's output and the outputs of the round's
    earlier operations, by name, and returns failure messages.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def _seed(seed: int, index: int) -> int:
    # distinct streams for each input of a workload, all fixed by --seed
    return (seed << 8) | index


def _load(prefix: str, name: str, seed: int, index: int):
    cfg = kf.load_config(CONFIG_DIR / f"{prefix}-{name}.yaml")
    return dataclasses.replace(cfg, seed=_seed(seed, index))


def setup(workload: str, seed: int) -> dict:
    """Make the workload's inputs: load its configs and draw its vectors."""
    if workload == "autoconv":
        cfgs = {name: _load("autoconv", name, seed, i) for i, name in enumerate(AUTOCONV_CONFIGS)}
        m = cfgs["constant-fine"].operator["size"]
        rng = np.random.default_rng(_seed(seed, 255))
        truth = _two_bump(m, cfgs["constant-fine"].truth["amplitude"])
        cases = [("truth", truth, rng.standard_normal(m), rng.standard_normal(m)),
                 ("random", *(rng.standard_normal(m) for _ in range(3)))]
        return {"configs": cfgs, "grid": kf.AutoconvGrid(m), "kernel_cases": cases}
    if workload == "linear":
        cfgs = {name: _load("linear", name, seed, i) for i, name in enumerate(LINEAR_CONFIGS)}
        return {"configs": cfgs, "balance": _balance_params(cfgs["besov"])}
    if workload == "noise":
        return {"cases": [(eta, m, n, _seed(seed, i)) for i, (eta, m, n) in enumerate(NOISE_CASES)]}
    raise ValueError(f"unknown workload {workload!r}")


def _two_bump(m, amplitude):
    # the README's two-bump truth, built here from its definition
    t = (np.arange(m) + 0.5) / m
    x = np.full(m, amplitude)
    x[(t >= 0.125) & (t < 0.375)] += 0.5 * amplitude
    x[(t >= 0.625) & (t < 0.875)] += 0.25 * amplitude
    return x


def _balance_params(cfg) -> list:
    # the besov study's own problem: m = n = 2^levels, zeta = s - d(1/2 - 1/p)
    s, p, d = cfg.solver["s"], cfg.solver["p"], cfg.solver["d"]
    n = 2 ** cfg.operator["levels"]
    return [
        kf.BesovBalanceParams(eta=eta, m=n, n=n, p=p, rho=cfg.truth["norm"],
                              zeta=s - d * (0.5 - 1.0 / p), beta=cfg.operator["decay"])
        for eta in cfg.eta_grid
    ]


def ops(workload: str, inputs: dict) -> list:
    """The operations of one round of ``workload`` on ``inputs``."""
    import checks  # scipy is a check dependency, kept out of the timed set-up

    if workload == "autoconv":
        return _autoconv_ops(inputs, checks)
    if workload == "linear":
        return _linear_ops(inputs, checks)
    return _noise_ops(inputs, checks)


def _study(cfg):
    return lambda: kf.run_study(cfg)


def _autoconv_ops(inputs, checks) -> list:
    grid = inputs["grid"]

    def kernels():
        out = []
        for name, x, v, r in inputs["kernel_cases"]:
            out.append({
                "name": name, "x": x, "v": v, "r": r,
                "F(x)": kf.autoconv_apply(grid, x),
                "F(v)": kf.autoconv_apply(grid, v),
                "F(x+v)": kf.autoconv_apply(grid, x + v),
                "F'(x)v": kf.autoconv_derivative_apply(grid, x, v),
                "F'(x)*r": kf.autoconv_derivative_adjoint_apply(grid, x, r),
            })
        return out

    def study_check(cfg, name):
        def check(result, results):
            problems = checks.check_autoconv_trials(result, cfg.rule) + checks.check_flagged_share(result)
            if name == "log-fine" and "log-coarse" in results:
                # the log-inflating delta^2/alpha falls from eta = 1e-1 to 1e-3
                problems += checks.check_ratio_fall(results["log-coarse"].summaries[0],
                                                    result.summaries[-1])
            return problems
        return check

    cfgs = inputs["configs"]
    return [Op("kernels", kernels, lambda out, results: sum(map(checks.check_kernels, out), []))] + [
        Op(name, _study(cfgs[name]), study_check(cfgs[name], name)) for name in AUTOCONV_CONFIGS
    ]


def _roundtrip(checks, name, result) -> list:
    path = OUT_DIR / f"linear-{name}.csv"
    OUT_DIR.mkdir(exist_ok=True)
    kf.export(result.summaries, path)
    return checks.check_roundtrip(result.summaries, kf.read_summaries(path))


def _linear_ops(inputs, checks) -> list:
    cfgs = inputs["configs"]
    params = inputs["balance"]
    besov = cfgs["besov"]
    zeta = params[0].zeta
    specific = {
        "filter": lambda r: checks.check_band(r, cfgs["filter"].rule)
        + checks.check_slope(r, 0.5, 0.1),
        "nu-random": lambda r: checks.check_delta(r, cfgs["nu-random"].operator["size"])
        + checks.check_lambert_rate(r),
        "besov": lambda r: checks.check_slope(r, zeta / (zeta + besov.operator["decay"]), 0.1),
    }
    out = [
        Op(name, _study(cfgs[name]),
           lambda r, results, name=name: specific[name](r) + _roundtrip(checks, name, r))
        for name in LINEAR_CONFIGS
    ]
    out.append(Op(
        "balance",
        lambda: [kf.besov_balance_alpha(p) for p in params],
        lambda res, results: sum(map(checks.check_balance, params, res), []),
    ))
    return out


def _noise_ops(inputs, checks) -> list:
    def draw(eta, m, n, seed):
        def run():
            spec = kf.NoiseSpec(eta=eta, m=m)
            noise = kf.sample_noise(spec, seed, n)
            norms = np.linalg.norm(noise, axis=1)
            return {
                "noise": noise,
                "norms": norms,
                "kyfan": kf.empirical_kyfan(kf.EmpiricalSample.from_values(norms)),
                "tails": [kf.tail_prob_tau(tau, m) for tau in NOISE_TAUS],
                "bound": kf.kyfan_bound_gaussian(spec),
            }

        def check(out, results):
            problems = checks.check_moments(out.pop("noise"), eta)
            # the draw is released here, so peak memory holds one draw at a time
            norms = out.pop("norms")
            problems += checks.check_kyfan(norms, out["kyfan"])
            problems += checks.check_kyfan_bound(out["kyfan"], eta, m, n, out["bound"])
            for tau, p in zip(NOISE_TAUS, out["tails"]):
                problems += checks.check_tail(norms, eta, m, tau, p)
                problems += checks.check_reg_gamma_q(m / 2, checks.tail_argument(tau, m), p)
            return problems

        return Op(f"draw-m{m}", run, check)

    return [draw(*case) for case in inputs["cases"]]
