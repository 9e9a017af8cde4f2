"""Print one SHA-256 per record set of ``run_study``, to check that records are kept.

    python3 scripts/record_digest.py

Run it in two checkouts and compare the outputs: equal lines mean equal
records. Each digest is taken over the ``repr`` of a study's summaries and
trials, so it sees every value and its Python type. The record sets are the
seven ``perfbench/configs/*.yaml`` at seeds 7 and 11, and the four
``STUDY_CONFIGS`` of ``tests/test_harness.py``. A last line digests the
``besov_balance_alpha`` results on the eta grid of
``perfbench/configs/linear-besov.yaml``, for the besov study's own problem,
and one more digests library functions whose rewrites must keep every bit:
the Haar transforms and levels for n = 2^0 to 2^10 on seeded inputs, and
``reg_gamma_q`` on a grid that reaches both of its expansions, z = 0,
z = inf and the underflow to 0. The next line digests the standard output
and exit code of the README's ``kyfan`` and ``predict`` commands, run through
``cli.main``. The last line digests what the config parser and the Ky Fan
estimator return: the ``repr`` of each parsed config of the record sets,
and ``empirical_kyfan`` on seeded samples of 1 to 10^5 values with ties and
zeros. The script only reads files and writes to standard output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # test_harness.py imports test_acceptance

import kyfanreg as kf  # noqa: E402
from kyfanreg import cli  # noqa: E402

SEEDS = (7, 11)


def _study_configs() -> dict:
    spec = importlib.util.spec_from_file_location("test_harness", ROOT / "tests" / "test_harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STUDY_CONFIGS


def record_sets():
    """Yield (name, parsed config) for every record set, in a fixed order."""
    for path in sorted((ROOT / "perfbench" / "configs").glob("*.yaml")):
        cfg = kf.load_config(path)
        for seed in SEEDS:
            yield f"{path.stem} seed {seed}", dataclasses.replace(cfg, seed=seed)
    for study, raw in _study_configs().items():
        yield f"STUDY_CONFIGS[{study}]", kf.parse_config(raw)


def balance_params() -> list:
    """One ``BesovBalanceParams`` per eta of linear-besov.yaml: m = n = 2^levels,
    zeta = s - d(1/2 - 1/p)."""
    cfg = kf.load_config(ROOT / "perfbench" / "configs" / "linear-besov.yaml")
    s, p, d = cfg.solver["s"], cfg.solver["p"], cfg.solver["d"]
    n = 2 ** cfg.operator["levels"]
    return [
        kf.BesovBalanceParams(eta=eta, m=n, n=n, p=p, rho=cfg.truth["norm"],
                              zeta=s - d * (0.5 - 1.0 / p), beta=cfg.operator["decay"])
        for eta in cfg.eta_grid
    ]


def _balance(params):
    try:
        return kf.besov_balance_alpha(params)
    except kf.NoBracket as exc:
        return ("NoBracket", str(exc), exc.scan)


def library_outputs() -> list:
    """Exact outputs (as Python floats and ints) of the Haar functions and ``reg_gamma_q``."""
    out = []
    for n in (2**k for k in range(11)):
        x = np.random.default_rng(n).standard_normal(n)
        coeffs = kf.haar_forward(x)
        out.append([coeffs.tolist(), kf.haar_inverse(coeffs).tolist(), kf.haar_inverse(x).tolist(),
                    kf.haar_level_indices(n).tolist()])
    # z < a + 1 takes the series and z >= a + 1 the continued fraction; at
    # a = 0.01, z = 1e4 the scale z^a e^-z / Gamma(a) underflows to 0
    zs = [0.0, math.inf, *np.geomspace(1e-4, 1e4, 81).tolist()]
    out.append([kf.reg_gamma_q(a, z) for a in np.geomspace(1e-2, 1e3, 31).tolist() for z in zs])
    return out


CLI_COMMANDS = (
    "kyfan bound --eta 0.01 --m 64",
    "kyfan tail --tau 1.5 --m 4 --check-mc 200000 --seed 1",
    *(f"predict tikhonov-rate --model {model} --rho-grid 1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"
      for model in ("uniform", "heavytail", "combined")),
    "predict nu-rate --rho 1e-4",
)


def cli_outputs() -> list:
    """(command, exit code, standard output) of each of ``CLI_COMMANDS``."""
    out = []
    for command in CLI_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(command.split())
        out.append((command, code, stdout.getvalue()))
    return out


def parse_and_kyfan_outputs() -> list:
    """``repr`` of each parsed config and ``empirical_kyfan`` of each seeded sample."""
    out = [repr(cfg) for _, cfg in record_sets()]
    for n in (1, 2, 3, 10, 100, 1000, 10**4, 10**5):
        rng = np.random.default_rng(n)
        # about a third of the values on a coarse grid that holds 0: ties and zeros
        d = np.where(rng.random(n) < 0.3, rng.integers(0, 5, n) / 4.0, rng.exponential(0.3, n))
        # spelled with from_values, which older trees' estimator needs
        out.append(kf.empirical_kyfan(kf.EmpiricalSample.from_values(d)))
    out.append(kf.empirical_kyfan(kf.EmpiricalSample.from_values(np.zeros(7))))
    return out


def _digest(text: str, name: str) -> None:
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}", flush=True)


def main() -> int:
    for name, cfg in record_sets():
        result = kf.run_study(cfg)
        _digest(repr((result.summaries, result.trials)), name)
    _digest(repr([_balance(params) for params in balance_params()]),
            "besov_balance_alpha linear-besov")
    _digest(repr(library_outputs()), "haar_forward haar_inverse haar_level_indices reg_gamma_q")
    _digest(repr(cli_outputs()), "cli kyfan bound, kyfan tail, predict tikhonov-rate and nu-rate")
    _digest(repr(parse_and_kyfan_outputs()), "parse_config empirical_kyfan")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
