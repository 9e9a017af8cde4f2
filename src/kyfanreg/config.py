"""Experiment configuration: a strict, versioned key-value schema.

Configs are YAML mappings with a mandatory ``schema_version``.  Unknown keys
anywhere are hard errors: a silently ignored typo can corrupt a whole Monte
Carlo study.  The same validator runs on in-memory dicts, so programmatic
and file-based configs share one code path.

Top-level keys
--------------
schema_version : must equal 1
study          : filter | autoconv | besov | nu-random
seed           : master seed, an integer in [0, 2**64)
eta_grid       : strictly decreasing list of positive reals
trials_per_eta : integer >= 30 (the Ky Fan estimator resolves 1/trials)
noise_level    : {mode: kyfan-bound} or
                 {mode: inflated-expectation, tau: {kind: constant, value: c}
                                              or  {kind: log-inflating}}
caps           : {norm: R, sup: S} truncation caps for expectation summaries
operator       : study-dependent operator spec (see below)
truth          : study-dependent ground-truth spec
rule           : parameter-choice rule spec
solver         : optional study-specific solver knobs (see _STUDY_SPECS);
                 integer knobs must be at least 1, and besov needs p in
                 [1, 2] and zeta = s - d(1/2 - 1/p) > 0

Operator specs: {kind: diagonal, singular_values: [...]},
{kind: diagonal-powerlaw, size: n, decay: q} for sigma_k = k^-q,
{kind: csv, path: file} for a dense matrix factorized by SVD,
{kind: haar-diagonal, levels: L, decay: b} acting as 2^(-b*level) on Haar
coefficients, and {kind: autoconv, size: m} for the quadratic
autoconvolution map on an m-point grid.

Truth specs: {kind: explicit, values: [...]},
{kind: source-powerlaw, exponent: e, power: p, norm: r} building
x = (A*A)^e z from z_k proportional to k^p scaled to ||z|| = r,
{kind: random-source, power: p, norm: r} (nu-random study; the source
exponent is drawn per trial), {kind: two-bump, amplitude: a} (autoconv),
and {kind: level-spikes, norm: r} (besov; one coefficient per level with
magnitudes 2^(-zeta*level), scaled to Besov norm r).

Rule specs: {kind: apriori, beta, nu, rho, constant},
{kind: discrepancy, tau1, tau2}, {kind: discrepancy-stop, tau_hat},
{kind: fixed, alpha}, {kind: kyfan-squared, scale} for
alpha = scale * rho_K^2 / rho^p, and {kind: besov-balance, constant} for
alpha = alpha_tilde(eta) * eta^2 with alpha_tilde from the balancing
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .noise import ConstantTau, InflatedExpectation, KyFanBound, LogInflatingTau
from .rules import AprioriFilter, Discrepancy, DiscrepancyStop, Fixed

__all__ = [
    "BesovBalanceRule",
    "ConfigError",
    "ExperimentConfig",
    "KyFanSquared",
    "load_config",
    "parse_config",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class KyFanSquared:
    """Lifted rule alpha = scale * rho_K^2 / rho^p (rho, p come from the study)."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0.0):
            raise ConfigError(f"kyfan-squared scale must be positive, got {self.scale!r}")


@dataclass(frozen=True)
class BesovBalanceRule:
    """Choose alpha by the balancing equation: alpha = alpha_tilde(eta) * eta^2.

    The per-eta balance parameters are completed from the study context
    (dimension, smoothness, prior radius); only the rate constant is free.
    """

    constant: float = 1.0

    def __post_init__(self):
        if not (self.constant > 0.0):
            raise ConfigError(f"besov-balance constant must be positive, got {self.constant!r}")


@dataclass(frozen=True)
class Caps:
    norm: float
    sup: float


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    seed: int
    eta_grid: tuple
    trials_per_eta: int
    noise_mode: KyFanBound | InflatedExpectation
    caps: Caps
    operator: dict
    truth: dict
    rule: object
    solver: dict = field(default_factory=dict)


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _take(mapping: dict, where: str, required: dict, optional: dict | None = None) -> dict:
    """Extract and type-check keys; any unknown key is a hard error."""
    optional = optional or {}
    known = set(required) | set(optional)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)!r}; allowed: {sorted(known)}")
    out = {}
    for key, kind in required.items():
        if key not in mapping:
            raise ConfigError(f"{where}: missing required key {key!r}")
        out[key] = _coerce(mapping[key], kind, f"{where}.{key}")
    for key, (kind, default) in optional.items():
        out[key] = _coerce(mapping[key], kind, f"{where}.{key}") if key in mapping else default
    return out


def _coerce(value, kind, where: str):
    if isinstance(kind, tuple):  # one of these strings
        if value not in kind:
            raise ConfigError(f"{where}: expected one of {list(kind)}, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return value
    if kind is dict:
        return _mapping(value, where)
    raise AssertionError(f"unhandled coercion kind {kind}")


def _parse_tau(spec: dict, where: str):
    kind = _mapping(spec, where).get("kind")
    if kind == "constant":
        got = _take(spec, where, {"kind": str, "value": float})
        try:
            return ConstantTau(got["value"])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "log-inflating":
        _take(spec, where, {"kind": str})
        return LogInflatingTau()
    raise ConfigError(f"{where}: unknown tau kind {kind!r}")


def _parse_noise_level(spec: dict, where: str):
    mode = _mapping(spec, where).get("mode")
    if mode == "kyfan-bound":
        _take(spec, where, {"mode": str})
        return KyFanBound()
    if mode == "inflated-expectation":
        got = _take(spec, where, {"mode": str, "tau": dict})
        return InflatedExpectation(tau=_parse_tau(got["tau"], f"{where}.tau"))
    raise ConfigError(f"{where}: unknown noise mode {mode!r}")


_OPERATOR_SCHEMAS = {
    "diagonal": ({"kind": str, "singular_values": list}, {}),
    "diagonal-powerlaw": ({"kind": str, "size": int, "decay": float}, {}),
    "csv": ({"kind": str, "path": str}, {}),
    "haar-diagonal": ({"kind": str, "levels": int, "decay": float}, {}),
    "autoconv": ({"kind": str, "size": int}, {}),
}

_TRUTH_SCHEMAS = {
    "explicit": ({"kind": str, "values": list}, {}),
    "source-powerlaw": (
        {"kind": str, "exponent": float, "power": float, "norm": float},
        {},
    ),
    "random-source": ({"kind": str, "power": float, "norm": float}, {}),
    "two-bump": ({"kind": str}, {"amplitude": (float, 1.0)}),
    "level-spikes": ({"kind": str, "norm": float}, {}),
}


_RULE_SCHEMAS = {
    "apriori": (AprioriFilter, {"beta": float, "nu": float, "rho": float}, {"constant": (float, 1.0)}),
    "discrepancy": (Discrepancy, {"tau1": float, "tau2": float}, {}),
    "discrepancy-stop": (DiscrepancyStop, {"tau_hat": float}, {}),
    "fixed": (Fixed, {"alpha": float}, {}),
    "kyfan-squared": (KyFanSquared, {}, {"scale": (float, 1.0)}),
    "besov-balance": (BesovBalanceRule, {}, {"constant": (float, 1.0)}),
}

# What each study runs: its operator, truth and rule kinds, and its solver
# keys with their types and defaults.  Any other kind or key is a
# ConfigError, and a parsed config's ``solver`` holds every key of its study.
_DIAGONAL_KINDS = ("diagonal", "diagonal-powerlaw", "haar-diagonal")
_STUDY_SPECS = {
    "filter": {
        "operator": (*_DIAGONAL_KINDS, "csv"),
        "truth": ("explicit", "source-powerlaw"),
        "rule": ("apriori", "fixed", "discrepancy"),
        "solver": {"filter": (("tikhonov", "tsvd"), "tikhonov")},
    },
    "autoconv": {
        "operator": ("autoconv",),
        "truth": ("two-bump", "explicit", "source-powerlaw"),
        "rule": ("discrepancy",),
        "solver": {
            "tol": (float, 1e-6),
            "max_iter": (int, 800),
            "max_budget": (int, 6400),
            "total_budget": (int, 20000),
            "max_alpha_steps": (int, 40),
            "step_safety": (float, 0.9),
        },
    },
    "besov": {
        "operator": ("haar-diagonal",),
        "truth": ("level-spikes",),
        "rule": ("kyfan-squared", "besov-balance"),
        "solver": {"s": (float, 1.0), "p": (float, 1.0), "d": (int, 1)},
    },
    "nu-random": {
        "operator": _DIAGONAL_KINDS,
        "truth": ("random-source",),
        "rule": ("discrepancy-stop",),
        # gamma None: the study uses 0.9 / sigma_1^2
        "solver": {"gamma": (float, None), "kmax": (int, 10**7)},
    },
}


def _parse_kinded(spec: dict, schemas: dict, where: str) -> dict:
    # the study's kind check has run: every kind that reaches here is known
    required, optional = schemas[spec["kind"]]
    return _take(spec, where, required, optional)


def _parse_rule(spec: dict, where: str):
    make, required, optional = _RULE_SCHEMAS[spec["kind"]]
    got = _take(spec, where, {"kind": str, **required}, optional)
    del got["kind"]
    try:
        return make(**got)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _largest_singular_value(operator: dict) -> float:
    # sigma_1 of a diagonal operator spec, as the study builds the operator
    if operator["kind"] == "diagonal":
        values = operator["singular_values"]
        return max((_coerce(v, float, "config.operator.singular_values[*]") for v in values),
                   default=0.0)
    if operator["kind"] == "haar-diagonal":
        # 2^(-decay * level) over the levels 0..L: level 0 leads unless decay < 0
        exponent = max(0.0, -operator["decay"] * operator["levels"])
        return math.inf if exponent >= 1024.0 else 2.0**exponent
    return 1.0  # diagonal-powerlaw: k^(-decay) at k = 1 leads a non-increasing sequence


def _check_landweber_step(gamma: float, operator: dict) -> None:
    # Landweber steps contract only for 0 < gamma * sigma_1^2 <= 1
    if not gamma > 0.0:
        raise ConfigError(f"config.solver.gamma: must be positive, got {gamma!r}")
    sigma_1 = _largest_singular_value(operator)
    if gamma * sigma_1**2 > 1.0:
        raise ConfigError(
            f"config.solver.gamma: {gamma!r} violates the Landweber contraction bound "
            f"gamma * sigma_1^2 <= 1 (sigma_1 = {sigma_1!r})"
        )


def _check_besov_smoothness(solver: dict) -> None:
    # the Besov weights need p in [1, 2] and zeta = s - d(1/2 - 1/p) > 0
    s, p, d = solver["s"], solver["p"], solver["d"]
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"config.solver.p: must lie in [1, 2], got {p!r}")
    zeta = s - d * (0.5 - 1.0 / p)
    if not zeta > 0.0:
        raise ConfigError(
            f"config.solver.s: smoothness too low: zeta = s - d(1/2 - 1/p) = {zeta!r} <= 0"
        )


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping and build the parsed experiment definition."""
    top = _take(
        _mapping(raw, "config"),
        "config",
        {
            "schema_version": int,
            "study": str,
            "seed": int,
            "eta_grid": list,
            "trials_per_eta": int,
            "noise_level": dict,
            "caps": dict,
            "operator": dict,
            "truth": dict,
            "rule": dict,
        },
        {"solver": (dict, {})},
    )
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {top['schema_version']!r}"
        )
    if top["study"] not in _STUDY_SPECS:
        raise ConfigError(f"config.study: unknown study {top['study']!r}; allowed: {list(_STUDY_SPECS)}")
    if not 0 <= top["seed"] < 2**64:
        raise ConfigError(f"config.seed: must lie in [0, 2**64), got {top['seed']!r}")
    study = _STUDY_SPECS[top["study"]]
    for key in ("operator", "truth", "rule"):
        kind, allowed = top[key].get("kind"), study[key]
        if kind not in allowed:
            raise ConfigError(
                f"config.{key}: kind {kind!r} is not usable in the {top['study']} study; "
                f"allowed: {list(allowed)}"
            )

    grid = [_coerce(v, float, "config.eta_grid[*]") for v in top["eta_grid"]]
    if not grid or any(not (v > 0.0) for v in grid):
        raise ConfigError("config.eta_grid: must be a non-empty list of positive reals")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("config.eta_grid: must be strictly decreasing")
    if top["trials_per_eta"] < 30:
        raise ConfigError(
            "config.trials_per_eta: need at least 30 trials per eta "
            "(the Ky Fan estimator resolves 1/trials)"
        )

    caps_got = _take(top["caps"], "config.caps", {"norm": float, "sup": float})
    if caps_got["norm"] <= 0.0 or caps_got["sup"] <= 0.0:
        raise ConfigError("config.caps: norm and sup caps must be positive")

    operator = _parse_kinded(top["operator"], _OPERATOR_SCHEMAS, "config.operator")
    solver = _take(top["solver"], "config.solver", {}, study["solver"])
    for key, (kind, _) in study["solver"].items():
        # every integer solver key counts iterations, steps or dimensions
        if kind is int and solver[key] < 1:
            raise ConfigError(f"config.solver.{key}: must be at least 1, got {solver[key]!r}")
    if solver.get("gamma") is not None:
        _check_landweber_step(solver["gamma"], operator)
    if top["study"] == "besov":
        _check_besov_smoothness(solver)

    return ExperimentConfig(
        study=top["study"],
        seed=top["seed"],
        eta_grid=tuple(grid),
        trials_per_eta=top["trials_per_eta"],
        noise_mode=_parse_noise_level(top["noise_level"], "config.noise_level"),
        caps=Caps(norm=caps_got["norm"], sup=caps_got["sup"]),
        operator=operator,
        truth=_parse_kinded(top["truth"], _TRUTH_SCHEMAS, "config.truth"),
        rule=_parse_rule(top["rule"], "config.rule"),
        solver=solver,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(raw)
