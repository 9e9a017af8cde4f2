"""Experiment configuration: a strict, versioned key-value schema.

Configs are YAML mappings with a mandatory ``schema_version``.  Unknown keys
anywhere are hard errors: a silently ignored typo can corrupt a whole Monte
Carlo study.  Every number, in a list too, must be finite and cannot be a
bool or a string, so YAML's ``.inf``, ``.nan``, ``true`` and ``"1"`` are
rejected.  The same validator runs on in-memory dicts, so programmatic and
file-based configs share one code path.

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
solver         : optional study-specific keys (see _STUDY_SPECS; autoconv
                 and nu-random take none); besov needs a positive integer d,
                 p in [1, 2] and zeta = s - d(1/2 - 1/p) > 0

Operator specs: a linear operator is given by its singular values, in its
singular basis: {kind: diagonal, singular_values: [...]} (non-increasing),
{kind: diagonal-powerlaw, size: n, decay: q} for sigma_k = k^-q, and
{kind: haar-diagonal, levels: L, decay: b} acting as 2^(-b*level) on Haar
coefficients.  {kind: autoconv, size: m} is the quadratic autoconvolution
map on an m-point grid, m a power of two.

Truth specs: {kind: explicit, values: [...]} of the operator's solution
length, {kind: source-powerlaw, exponent: e, power: p, norm: r} (filter
study) building x = (A*A)^e z from z_k proportional to k^p scaled to
||z|| = r,
{kind: random-source, power: p, norm: r} (nu-random study; the source
exponent is drawn per trial), {kind: two-bump, amplitude: a} (autoconv),
and {kind: level-spikes, norm: r} (besov; one coefficient per level with
magnitudes 2^(-zeta*level), scaled to Besov norm r).

Rule specs: {kind: apriori, beta, nu, rho, constant},
{kind: discrepancy, tau1, tau2}, {kind: discrepancy-stop, tau_hat},
{kind: fixed, alpha}, {kind: kyfan-squared, scale} for
alpha = scale * rho_K^2 / rho^p, and {kind: besov-balance} for
alpha = alpha_tilde(eta) * eta^2 with alpha_tilde from the balancing
equation.  The discrepancy rule solves by Tikhonov, so the filter study
rejects it with the tsvd filter.

A kind of operator, truth, rule, noise_level or tau is declared once, as
one entry of ``_SECTIONS``: its builder and its keys, with their types and
defaults.  ``_parse_spec`` reads every section from that table.

The parser checks operator and truth specs by building them with
``build_operator`` and ``build_truth``, the builders the studies call, and
checks the besov solver keys with ``besov_weights``.  A spec these reject
is a ConfigError that names its section, so a config that parses fails in
a study only for numerical reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .noise import ConstantTau, InflatedExpectation, KyFanBound, LogInflatingTau, _key
from .operators import SvdOperator, besov_weights, haar_level_indices
from .rules import AprioriFilter, Discrepancy, DiscrepancyStop, Fixed

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

    The balance parameters come from the study (dimension, smoothness,
    prior radius), with rate constant 1.
    """


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


def _take(mapping: dict, where: str, required: dict, optional: dict) -> dict:
    """Extract and type-check keys; any unknown key is a hard error."""
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
    if isinstance(kind, list):  # [float]: a list of that kind (first, as a list is unhashable)
        if isinstance(value, list):
            return [_coerce(v, kind[0], f"{where}[*]") for v in value]
        expected = "a list"
    elif kind in _SECTIONS:
        return _parse_spec(value, kind, where)
    elif kind is dict:
        return _mapping(value, where)
    elif isinstance(kind, tuple):  # one of these strings
        if value in kind:
            return value
        expected = f"one of {list(kind)}"
    elif kind is float:
        expected = "a number"
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the largest double
                number = math.inf
            if math.isfinite(number):
                return number
            expected = "a finite number"
    elif kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        expected = "an integer"
    elif kind is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    else:
        raise AssertionError(f"unhandled coercion kind {kind}")
    shown = repr(value)
    if len(shown) > 40:  # a long value, say a 400-digit integer, would bury the message
        shown = f"{shown[:40]}... ({len(shown)} characters)"
    raise ConfigError(f"{where}: expected {expected}, got {shown}")


# Each kinded section: the key that names its kind, the noun of its unknown-kind
# error, and its kinds.  A kind is its builder, its required keys with their
# types and its optional keys with (type, default); a key typed with a section's
# name is parsed as that section.  ``dict`` keeps the checked mapping, kind and all.
_SECTIONS = {
    "operator": ("kind", "operator kind", {
        "diagonal": (dict, {"singular_values": [float]}, {}),
        "diagonal-powerlaw": (dict, {"size": int, "decay": float}, {}),
        "haar-diagonal": (dict, {"levels": int, "decay": float}, {}),
        "autoconv": (dict, {"size": int}, {}),
    }),
    "truth": ("kind", "truth kind", {
        "explicit": (dict, {"values": [float]}, {}),
        "source-powerlaw": (dict, {"exponent": float, "power": float, "norm": float}, {}),
        "random-source": (dict, {"power": float, "norm": float}, {}),
        "two-bump": (dict, {}, {"amplitude": (float, 1.0)}),
        "level-spikes": (dict, {"norm": float}, {}),
    }),
    "rule": ("kind", "rule kind", {
        "apriori": (AprioriFilter, {"beta": float, "nu": float, "rho": float},
                    {"constant": (float, 1.0)}),
        "discrepancy": (Discrepancy, {"tau1": float, "tau2": float}, {}),
        "discrepancy-stop": (DiscrepancyStop, {"tau_hat": float}, {}),
        "fixed": (Fixed, {"alpha": float}, {}),
        "kyfan-squared": (KyFanSquared, {}, {"scale": (float, 1.0)}),
        "besov-balance": (BesovBalanceRule, {}, {}),
    }),
    "noise_level": ("mode", "noise mode", {
        "kyfan-bound": (KyFanBound, {}, {}),
        "inflated-expectation": (InflatedExpectation, {"tau": "tau"}, {}),
    }),
    "tau": ("kind", "tau kind", {
        "constant": (lambda value: ConstantTau(value), {"value": float}, {}),
        "log-inflating": (LogInflatingTau, {}, {}),
    }),
}


def _parse_spec(spec, section: str, where: str):
    """Check ``spec`` against its kind in ``_SECTIONS[section]`` and build it."""
    key, noun, kinds = _SECTIONS[section]
    kind = _mapping(spec, where).get(key)
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{where}: unknown {noun} {kind!r}")
    build, required, optional = kinds[kind]
    got = _take(spec, where, {key: str, **required}, optional)
    if build is dict:
        return got
    del got[key]
    return _built(where, build, **got)


# What each study runs: its operator, truth and rule kinds, and its solver
# keys with their types and defaults.  Any other kind or key is a
# ConfigError, and a parsed config's ``solver`` holds every key of its study.
_DIAGONAL_KINDS = ("diagonal", "diagonal-powerlaw", "haar-diagonal")
_STUDY_SPECS = {
    "filter": {
        "operator": _DIAGONAL_KINDS,
        "truth": ("explicit", "source-powerlaw"),
        "rule": ("apriori", "fixed", "discrepancy"),
        "solver": {"filter": (("tikhonov", "tsvd"), "tikhonov")},
    },
    "autoconv": {
        "operator": ("autoconv",),
        # no source-powerlaw: its exponent would act through the identity
        "truth": ("two-bump", "explicit"),
        "rule": ("discrepancy",),
        "solver": {},
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
        "solver": {},
    },
}


def _built(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a spec it rejects is a ConfigError at ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_operator(spec: dict) -> SvdOperator:
    """The operator of a parsed spec; for autoconv, the identity on its grid."""
    kind = spec["kind"]
    if kind == "diagonal":
        return SvdOperator(spec["singular_values"])
    if kind == "diagonal-powerlaw":
        n = np.arange(1, spec["size"] + 1, dtype=float)
        return SvdOperator(n ** (-spec["decay"]))
    if kind == "autoconv":
        # truth specs act through the identity; the study's Haar basis needs 2^L points
        haar_level_indices(spec["size"])
        return SvdOperator(np.ones(spec["size"]))
    levels = haar_level_indices(2 ** spec["levels"])  # haar-diagonal
    return SvdOperator(np.sort(2.0 ** (-spec["decay"] * levels))[::-1])


def build_truth(spec: dict, op: SvdOperator) -> np.ndarray:
    """The true solution of a parsed spec for ``op``; random-source gives its source z."""
    kind, n = spec["kind"], op.size
    if kind == "explicit":
        x = np.asarray(spec["values"], dtype=float)
        if x.shape != (n,):
            raise ValueError(f"explicit truth has {x.size} values, but the solution length is {n}")
        return x
    if kind == "two-bump":
        # two piecewise-constant bumps on dyadic intervals over a positive base
        # level: exactly sparse in Haar, and bounded away from zero at s = 0 so
        # the triangular structure of the autoconvolution stays well-posed there
        t, amplitude = (np.arange(n) + 0.5) / n, spec["amplitude"]
        x = np.full(n, amplitude)
        x[(t >= 0.125) & (t < 0.375)] += 0.5 * amplitude
        x[(t >= 0.625) & (t < 0.875)] += 0.25 * amplitude
        return x
    if kind == "level-spikes":
        raise ValueError("a level-spikes truth is built by the besov study from its Besov weights")
    z = np.arange(1, n + 1, dtype=float) ** spec["power"]
    z = z * (spec["norm"] / np.linalg.norm(z))  # z_k ~ k^power with ||z|| = norm
    return z if kind == "random-source" else op.source_element(spec["exponent"], z)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping and build the parsed experiment definition."""
    top = _take(
        _mapping(raw, "config"),
        "config",
        {
            "schema_version": int,
            "study": str,
            "seed": int,
            "eta_grid": [float],
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
    _built("config.seed", _key, top["seed"], 0)
    study = _STUDY_SPECS[top["study"]]
    for key in ("operator", "truth", "rule"):
        kind, allowed = top[key].get("kind"), study[key]
        if kind not in allowed:
            raise ConfigError(
                f"config.{key}: kind {kind!r} is not usable in the {top['study']} study; "
                f"allowed: {list(allowed)}"
            )

    grid = top["eta_grid"]
    if not grid or any(not (v > 0.0) for v in grid):
        raise ConfigError("config.eta_grid: must be a non-empty list of positive reals")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("config.eta_grid: must be strictly decreasing")
    if top["trials_per_eta"] < 30:
        raise ConfigError(
            "config.trials_per_eta: need at least 30 trials per eta "
            "(the Ky Fan estimator resolves 1/trials)"
        )

    caps_got = _take(top["caps"], "config.caps", {"norm": float, "sup": float}, {})
    if caps_got["norm"] <= 0.0 or caps_got["sup"] <= 0.0:
        raise ConfigError("config.caps: norm and sup caps must be positive")

    operator = _parse_spec(top["operator"], "operator", "config.operator")
    truth = _parse_spec(top["truth"], "truth", "config.truth")
    op = _built("config.operator", build_operator, operator)
    if truth["kind"] != "level-spikes":  # built from the Besov weights checked below
        _built("config.truth", build_truth, truth, op)
    solver = _take(top["solver"], "config.solver", {}, study["solver"])
    # the nu-random study's Landweber step 0.9 / sigma_1^2 must be a finite double
    sigma_1 = float(op.singular_values[0])
    if top["study"] == "nu-random" and not (sigma_1**2 > 0.0 and math.isfinite(0.9 / sigma_1**2)):
        raise ConfigError(
            "config.operator: the nu-random study's Landweber step 0.9 / sigma_1^2 is not "
            f"a finite number for sigma_1 = {sigma_1!r}"
        )
    if solver.get("filter") == "tsvd" and top["rule"]["kind"] == "discrepancy":
        raise ConfigError(
            "config.solver.filter: tsvd cannot be used with the discrepancy rule, "
            "which chooses alpha and solves by Tikhonov"
        )
    if top["study"] == "besov":
        try:
            besov_weights(solver["s"], solver["p"], solver["d"], operator["levels"])
        except ValueError as exc:  # the message starts with the argument's name
            section = "config.operator" if str(exc).startswith("levels:") else "config.solver"
            raise ConfigError(f"{section}.{exc}") from exc

    return ExperimentConfig(
        study=top["study"],
        seed=top["seed"],
        eta_grid=tuple(grid),
        trials_per_eta=top["trials_per_eta"],
        noise_mode=_parse_spec(top["noise_level"], "noise_level", "config.noise_level"),
        caps=Caps(norm=caps_got["norm"], sup=caps_got["sup"]),
        operator=operator,
        truth=truth,
        rule=_parse_spec(top["rule"], "rule", "config.rule"),
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
