"""Command-line interface.

Subcommands
-----------
kyfan bound      analytic Gaussian noise quantities for (eta, m)
kyfan empirical  empirical Ky Fan estimate from a file of distances
kyfan tail       tail probability of ||noise|| above tau * expectation
run <study>      run a configured Monte Carlo study, write summary CSV
predict          evaluate the rate predictors

Every CSV, a study summary or the ``predict tikhonov-rate`` table, is
written by ``harness.export``.  Each is computed in full before it is
written, so a study or a ``--rho-grid`` entry that fails leaves standard
output empty.

Exit codes: 0 success, 2 configuration, argument or I/O error, 3 numerical
failure (an ArithmeticError, such as a series that fails to converge; an
error raised inside a study run, whose config has been checked in full by
then; or a study dominated by flagged trials).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .config import ConfigError, load_config
from .harness import export, fit_rate, run_study
from .noise import (
    NoiseSpec,
    empirical_kyfan,
    expected_norm,
    expected_norm_upper,
    kyfan_bound_gaussian,
    sample_noise,
    tail_prob_tau,
)
from .rules import (
    combined_model,
    heavy_tail_model,
    nu_effective,
    tikhonov_rate_predict,
    uniform_source_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# a study whose flagged trials exceed this fraction at any eta fails numerically
_FLAGGED_LIMIT = 0.5

# the autoconv study's CSV: the data of its two-panel ratio and error figure
_AUTOCONV_COLUMNS = (
    ("eta", "eta"), ("ratio_delta2_over_alpha", "ratio_delta2_alpha"), ("err", "err_kyfan"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kyfanreg",
        description="Noise-level estimation and regularization studies for "
        "inverse problems with stochastic noise.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    kyfan = top.add_parser("kyfan", help="noise-level quantities")
    kyfan_sub = kyfan.add_subparsers(dest="subcommand", required=True)

    bound = kyfan_sub.add_parser("bound", help="analytic bounds for N(0, eta^2 I_m)")
    bound.add_argument("--eta", type=float, required=True)
    bound.add_argument("--m", type=int, required=True)

    empirical = kyfan_sub.add_parser("empirical", help="empirical Ky Fan estimate")
    empirical.add_argument(
        "--input", required=True, help="text file with one nonnegative distance per line"
    )

    tail = kyfan_sub.add_parser("tail", help="P(||noise|| >= tau * E||noise||)")
    tail.add_argument("--tau", type=float, required=True)
    tail.add_argument("--m", type=int, required=True)
    tail.add_argument("--check-mc", type=int, default=0, metavar="N",
                      help="also report a Monte Carlo frequency over N samples")
    tail.add_argument("--seed", type=int, default=0)

    run = top.add_parser("run", help="Monte Carlo studies")
    run_sub = run.add_subparsers(dest="subcommand", required=True)
    for name, study in (
        ("filter-study", "filter"), ("autoconv", "autoconv"),
        ("besov", "besov"), ("nu-random", "nu-random"),
    ):
        sub = run_sub.add_parser(name)
        sub.set_defaults(study=study)
        sub.add_argument("--config", required=True)
        sub.add_argument("--out", default=None, help="summary CSV path (default: stdout)")

    predict = top.add_parser("predict", help="rate predictors")
    predict_sub = predict.add_subparsers(dest="subcommand", required=True)

    tikh = predict_sub.add_parser("tikhonov-rate")
    tikh.add_argument("--model", choices=("uniform", "heavytail", "combined"), required=True)
    tikh.add_argument("--rho-grid", required=True,
                      help="comma-separated Ky Fan noise levels, e.g. 1e-1,1e-2,1e-3")

    nu = predict_sub.add_parser("nu-rate")
    nu.add_argument("--rho", type=float, required=True)

    return parser


def _cmd_kyfan(args) -> int:
    if args.subcommand == "bound":
        spec = NoiseSpec(eta=args.eta, m=args.m)
        print(f"kyfan_bound_gaussian = {kyfan_bound_gaussian(spec):.17g}")
        print(f"expected_norm        = {expected_norm(spec):.17g}")
        print(f"expected_norm_upper  = {expected_norm_upper(spec):.17g}")
        return EXIT_OK
    if args.subcommand == "empirical":
        try:
            with warnings.catch_warnings():
                # an empty file is reported by the sample check below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(args.input, ndmin=1)
        except OSError as exc:
            raise ConfigError(f"cannot read distances from {args.input}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"malformed distances in {args.input}: {exc}") from exc
        print(f"empirical_kyfan = {empirical_kyfan(values):.17g}")
        return EXIT_OK
    if args.subcommand == "tail":
        if args.check_mc < 0:
            raise ConfigError(f"--check-mc must be a nonnegative count, got {args.check_mc}")
        # print only once every line is computed: a bad seed leaves stdout empty
        lines = [f"tail_prob = {tail_prob_tau(args.tau, args.m):.17g}"]
        if args.check_mc > 0:
            spec = NoiseSpec(eta=1.0, m=args.m)
            noise = sample_noise(spec, args.seed, args.check_mc)
            norms = np.linalg.norm(noise, axis=1)
            freq = float(np.mean(norms >= args.tau * expected_norm(spec)))
            lines.append(f"mc_frequency = {freq:.17g}  (N = {args.check_mc})")
        print("\n".join(lines))
        return EXIT_OK
    raise AssertionError(args.subcommand)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg.study != args.study:
        raise ConfigError(
            f"config declares study {cfg.study!r} but the subcommand expects {args.study!r}"
        )
    try:
        result = run_study(cfg)
    except ValueError as exc:  # an ArithmeticError is caught in main
        # the config was checked by building its specs: the computation failed
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = sys.stdout if args.out is None else args.out
    if cfg.study == "autoconv":
        export(result.summaries, out, _AUTOCONV_COLUMNS)
    else:
        export(result.summaries, out)
    worst = max(result.summaries, key=lambda s: s.flagged_count / s.trials)
    if worst.flagged_count / worst.trials > _FLAGGED_LIMIT:
        print(f"error: {worst.flagged_count} of {worst.trials} trials flagged at eta {worst.eta:g}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_MODELS = {
    "uniform": uniform_source_model,
    "heavytail": heavy_tail_model,
    "combined": combined_model,
}


def _cmd_predict(args) -> int:
    if args.subcommand == "tikhonov-rate":
        try:
            rhos = [float(v) for v in args.rho_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"malformed --rho-grid: {exc}") from exc
        if not rhos or any(not (0.0 < r <= 1.0) for r in rhos):
            raise ConfigError("--rho-grid entries must lie in (0, 1]")
        model = _MODELS[args.model]()
        # write only once every row and the fit are computed: a failure leaves stdout empty
        rows = [tikhonov_rate_predict(rho, model) for rho in rhos]
        fit = fit_rate([(r.rho_k, r.bound) for r in rows]) if len(rows) >= 3 else None
        export(rows, sys.stdout, [(c, c) for c in ("rho_k", "bound", "xi", "tau")])
        if fit is not None:
            print(f"# loglog_slope = {fit.slope:.6g}  r_squared = {fit.r_squared:.6g}")
        return EXIT_OK
    if args.subcommand == "nu-rate":
        if not (0.0 < args.rho < 1.0):
            raise ConfigError("--rho must lie in (0, 1)")
        est = nu_effective(args.rho)
        print(f"nu_exact   = {est.nu_exact:.17g}")
        print(f"nu_approx  = {est.nu_approx:.17g}")
        print(f"rate_bound = {2.0 * est.nu_approx:.17g}")
        return EXIT_OK
    raise AssertionError(args.subcommand)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "kyfan":
            return _cmd_kyfan(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "predict":
            return _cmd_predict(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # a series or an iteration that failed to converge
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
