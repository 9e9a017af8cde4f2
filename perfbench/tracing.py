"""Spans around the program's public functions, recorded from outside ``src/``.

``traced`` swaps each function in ``TARGETS`` for a wrapper at the name the
program calls it through, and puts the originals back when it ends. A
"span" target records every call with its start, end and the span that
caused it. A "leaf" target is called millions of times inside the solver
loop, so only its call count and total time are kept, under the span that
encloses the call.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import kyfanreg
import kyfanreg.harness
import kyfanreg.noise
import kyfanreg.rules
from kyfanreg import NonConvergence

_AUTOCONV = ("autoconv_apply", "autoconv_derivative_apply", "autoconv_derivative_adjoint_apply")

# (module, name, kind). The package-level names are the entry points the
# benchmark calls; the harness, rules and noise names are the ones the
# program calls internally.
TARGETS = (
    *((kyfanreg, name, "span") for name in (
        "load_config", "run_study", "sample_noise", "empirical_kyfan", "tail_prob_tau",
        "kyfan_bound_gaussian", "besov_balance_alpha")),
    *((kyfanreg, name, "leaf") for name in _AUTOCONV),
    *((kyfanreg.harness, name, "leaf") for name in _AUTOCONV),
    *((kyfanreg.harness, name, "span") for name in (
        "prox_gradient_solve", "operator_norm_squared", "discrepancy_alpha",
        "besov_balance_alpha", "empirical_kyfan")),
    *((kyfanreg.harness, name, "leaf") for name in (
        "prox_weighted_lp", "filter_reconstruct", "trial_rng")),
    (kyfanreg.rules, "reg_gamma_q", "leaf"),
    (kyfanreg.noise, "reg_gamma_q", "leaf"),
)

# What a span keeps of its result: a count summed into a layer metric.
_INFO = {
    "prox_gradient_solve": lambda out: out.iterations,
    "discrepancy_alpha": lambda out: out.report.iterations,
    "sample_noise": lambda out: out.size,
    "run_study": lambda out: sum(t.flagged for t in out.trials),
}

# name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "operators.autoconv_calls": ("count", "lower"),
    "operators.autoconv_s": ("s", "lower"),
    "operators.autoconv_us_per_call": ("us", "lower"),
    "regularization.prox_solves": ("count", "lower"),
    "regularization.prox_iters": ("count", "lower"),
    "regularization.prox_self_s": ("s", "lower"),
    "regularization.prox_us_per_iter": ("us", "lower"),
    "regularization.power_iter_s": ("s", "lower"),
    "regularization.prox_lp_s": ("s", "lower"),
    "regularization.filter_s": ("s", "lower"),
    "rules.discrepancy_s": ("s", "lower"),
    "rules.discrepancy_evals": ("count", "lower"),
    "rules.balance_s": ("s", "lower"),
    "special.reg_gamma_q_calls": ("count", "lower"),
    "special.reg_gamma_q_s": ("s", "lower"),
    "noise.trial_rng_s": ("s", "lower"),
    "noise.sample_s": ("s", "lower"),
    "noise.normals_per_s": ("1/s", "higher"),
    "noise.kyfan_s": ("s", "lower"),
    "noise.largest_draw_mb": ("MB", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.flagged_trials": ("count", "lower"),
    "config.load_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that must repeat exactly from one traced round or run to the next.
COUNTS = tuple(name for name, (unit, _) in LAYER_METRICS.items() if unit == "count") + (
    "noise.largest_draw_mb",
)


class Tracer:
    """Spans and leaf aggregates of one traced stretch of the benchmark."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, info]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, seconds]
        self._open = [None]

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1], None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except NonConvergence as exc:
                # a solve that ran out of budget still spent its iterations
                if exc.report is not None:
                    record[4] = exc.report.iterations
                raise
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if name in _INFO:
                record[4] = _INFO[name](out)
            return out

        return wrapper

    def leaf(self, name, fn):
        leaves, opened = self.leaves, self._open

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = leaves[(opened[-1], name)]
                cell[0] += 1
                cell[1] += time.perf_counter() - start

        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans and leaves cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent is not None:
                covered[parent] += seconds
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def records(self):
        """Spans and leaf aggregates as JSON-ready rows."""
        for index, (name, start, end, parent, info) in enumerate(self.spans):
            yield {"span": index, "name": name, "start": start, "end": end,
                   "parent": parent, "info": info}
        for (parent, name), (calls, seconds) in self.leaves.items():
            yield {"leaf": name, "parent": parent, "calls": calls, "seconds": seconds}


@contextmanager
def traced(tracer: Tracer):
    """Route the program's calls in TARGETS through ``tracer`` while open."""
    saved = []
    try:
        for module, name, kind in TARGETS:
            original = getattr(module, name)
            saved.append((module, name, original))
            make = tracer.span if kind == "span" else tracer.leaf
            setattr(module, name, make(name, original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def round_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round (all but config and trace.*)."""
    total, own, info = defaultdict(float), defaultdict(float), defaultdict(list)
    calls = defaultdict(int)
    for (name, start, end, _, extra), self_s in zip(tracer.spans, tracer.self_times()):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        if extra is not None:
            info[name].append(extra)
    for (_, name), (n, seconds) in tracer.leaves.items():
        total[name] += seconds
        calls[name] += n

    autoconv_calls = sum(calls[n] for n in _AUTOCONV)
    autoconv_s = sum(total[n] for n in _AUTOCONV)
    prox_iters = sum(info["prox_gradient_solve"])
    normals = sum(info["sample_noise"])
    return {
        "operators.autoconv_calls": autoconv_calls,
        "operators.autoconv_s": autoconv_s,
        "operators.autoconv_us_per_call": 1e6 * autoconv_s / autoconv_calls if autoconv_calls else 0.0,
        "regularization.prox_solves": calls["prox_gradient_solve"],
        "regularization.prox_iters": prox_iters,
        "regularization.prox_self_s": own["prox_gradient_solve"],
        "regularization.prox_us_per_iter":
            1e6 * total["prox_gradient_solve"] / prox_iters if prox_iters else 0.0,
        "regularization.power_iter_s": total["operator_norm_squared"],
        "regularization.prox_lp_s": total["prox_weighted_lp"],
        "regularization.filter_s": total["filter_reconstruct"],
        "rules.discrepancy_s": total["discrepancy_alpha"],
        "rules.discrepancy_evals": sum(info["discrepancy_alpha"]),
        "rules.balance_s": total["besov_balance_alpha"],
        "special.reg_gamma_q_calls": calls["reg_gamma_q"],
        "special.reg_gamma_q_s": total["reg_gamma_q"],
        "noise.trial_rng_s": total["trial_rng"],
        "noise.sample_s": total["sample_noise"],
        "noise.normals_per_s": normals / total["sample_noise"] if normals else 0.0,
        "noise.kyfan_s": total["empirical_kyfan"],
        "noise.largest_draw_mb": 8 * max(info["sample_noise"], default=0) / 1e6,
        "harness.self_s": own["run_study"],
        "harness.flagged_trials": sum(info["run_study"]),
    }


def combine_rounds(rounds: list) -> tuple:
    """Median of each time over the traced rounds, the first round's counts,
    and the names of the counts that differ between rounds."""
    merged = {name: rounds[0][name] if name in COUNTS else statistics.median(r[name] for r in rounds)
              for name in rounds[0]}
    unsteady = [name for name in COUNTS if name in merged
                and any(r[name] != rounds[0][name] for r in rounds)]
    return merged, unsteady
