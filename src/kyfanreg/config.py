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
workers        : optional positive integer (default 1); validated, but
                 ignored: the value changes neither outputs nor scheduling
noise_level    : {mode: kyfan-bound} or
                 {mode: inflated-expectation, tau: {kind: constant, value: c}
                                              or  {kind: log-inflating}}
caps           : {norm: R, sup: S} truncation caps for expectation summaries
operator       : study-dependent operator spec (see below)
truth          : study-dependent ground-truth spec
rule           : parameter-choice rule spec
solver         : optional study-specific solver knobs; each study accepts
                 only its own keys (filter: filter; autoconv: tol,
                 max_iter, max_budget, total_budget, max_alpha_steps,
                 step_safety; besov: s, p, d; nu-random: gamma, kmax)

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
_STUDIES = ("filter", "autoconv", "besov", "nu-random")
_SOLVER_KEYS = {
    "filter": ("filter",),
    "autoconv": ("tol", "max_iter", "max_budget", "total_budget", "max_alpha_steps", "step_safety"),
    "besov": ("s", "p", "d"),
    "nu-random": ("gamma", "kmax"),
}


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
    workers: int = 1


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
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)!r}; allowed: {sorted(known)}")
    out = {}
    for key, kind in required.items():
        if key not in mapping:
            raise ConfigError(f"{where}: missing required key {key!r}")
        out[key] = _coerce(mapping[key], kind, f"{where}.{key}")
    for key, (kind, default) in optional.items():
        out[key] = _coerce(mapping[key], kind, f"{where}.{key}") if key in mapping else default
    return out


def _coerce(value, kind, where: str):
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


def _parse_kinded(spec: dict, schemas: dict, where: str) -> dict:
    kind = _mapping(spec, where).get("kind")
    if kind not in schemas:
        raise ConfigError(f"{where}: unknown kind {kind!r}; allowed: {sorted(schemas)}")
    required, optional = schemas[kind]
    return _take(spec, where, required, optional)


def _parse_rule(spec: dict, where: str):
    kind = _mapping(spec, where).get("kind")
    try:
        if kind == "apriori":
            got = _take(
                spec,
                where,
                {"kind": str, "beta": float, "nu": float, "rho": float},
                {"constant": (float, 1.0)},
            )
            return AprioriFilter(beta=got["beta"], nu=got["nu"], rho=got["rho"], constant=got["constant"])
        if kind == "discrepancy":
            got = _take(spec, where, {"kind": str, "tau1": float, "tau2": float})
            return Discrepancy(tau1=got["tau1"], tau2=got["tau2"])
        if kind == "discrepancy-stop":
            got = _take(spec, where, {"kind": str, "tau_hat": float})
            return DiscrepancyStop(tau_hat=got["tau_hat"])
        if kind == "fixed":
            got = _take(spec, where, {"kind": str, "alpha": float})
            return Fixed(alpha=got["alpha"])
        if kind == "kyfan-squared":
            got = _take(spec, where, {"kind": str}, {"scale": (float, 1.0)})
            return KyFanSquared(scale=got["scale"])
        if kind == "besov-balance":
            got = _take(spec, where, {"kind": str}, {"constant": (float, 1.0)})
            return BesovBalanceRule(constant=got["constant"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown rule kind {kind!r}")


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
        {"solver": (dict, {}), "workers": (int, 1)},
    )
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {top['schema_version']!r}"
        )
    if top["study"] not in _STUDIES:
        raise ConfigError(f"config.study: unknown study {top['study']!r}; allowed: {_STUDIES}")
    if not 0 <= top["seed"] < 2**64:
        raise ConfigError(f"config.seed: must lie in [0, 2**64), got {top['seed']!r}")
    allowed = _SOLVER_KEYS[top["study"]]
    unknown = set(top["solver"]) - set(allowed)
    if unknown:
        raise ConfigError(
            f"config.solver: unknown key(s) {sorted(unknown, key=str)!r} for the "
            f"{top['study']} study; allowed: {list(allowed)}"
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
    if top["workers"] < 1:
        raise ConfigError("config.workers: must be a positive integer")

    caps_got = _take(top["caps"], "config.caps", {"norm": float, "sup": float})
    if caps_got["norm"] <= 0.0 or caps_got["sup"] <= 0.0:
        raise ConfigError("config.caps: norm and sup caps must be positive")

    return ExperimentConfig(
        study=top["study"],
        seed=top["seed"],
        eta_grid=tuple(grid),
        trials_per_eta=top["trials_per_eta"],
        noise_mode=_parse_noise_level(top["noise_level"], "config.noise_level"),
        caps=Caps(norm=caps_got["norm"], sup=caps_got["sup"]),
        operator=_parse_kinded(top["operator"], _OPERATOR_SCHEMAS, "config.operator"),
        truth=_parse_kinded(top["truth"], _TRUTH_SCHEMAS, "config.truth"),
        rule=_parse_rule(top["rule"], "config.rule"),
        solver=dict(top["solver"]),
        workers=top["workers"],
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
