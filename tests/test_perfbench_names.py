"""The names and config keys the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps program functions by module attribute, and
``perfbench/workloads.py`` reads the benchmark configs by key. This builds
both without running an operation, so that a change to the package that
breaks either fails here rather than only when the benchmark runs.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import kyfanreg
from kyfanreg.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    # no bytecode caches: the benchmark directory is only read
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


def test_tracing_wraps_and_restores_every_target(perfbench):
    tracing, _ = perfbench
    originals = [getattr(module, name) for module, name, _ in tracing.TARGETS]
    with tracing.traced(tracing.Tracer()):
        pass
    assert [getattr(module, name) for module, name, _ in tracing.TARGETS] == originals


@pytest.mark.parametrize("workload", ["autoconv", "linear", "noise"])
def test_workload_operations_build(perfbench, workload):
    _, workloads = perfbench
    ops = workloads.ops(workload, workloads.setup(workload, 7))
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)


def test_linear_studies_call_the_traced_names(perfbench):
    # a study that reaches the rule, the filter or the generator by another
    # name than the wrapped one would read 0 in its layer metrics
    from test_harness import STUDY_CONFIGS

    tracing, _ = perfbench
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for study in ("filter", "nu-random"):
            kyfanreg.run_study(parse_config(STUDY_CONFIGS[study]))
    calls = Counter(name for name, *_ in tracer.spans)
    for (_, name), (count, _) in tracer.leaves.items():
        calls[name] += count
    assert all(calls[name] for name in ("discrepancy_alpha", "filter_reconstruct", "trial_rng"))
    assert tracing.round_metrics(tracer)["rules.discrepancy_evals"] > 0
