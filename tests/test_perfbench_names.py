"""The names and config keys the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps program functions by module attribute, and
``perfbench/workloads.py`` reads the benchmark configs by key. This builds
both without running an operation, and checks every package name the
benchmark's source reads, so that a change to the package that breaks
either fails here rather than only when the benchmark runs.
"""

import ast
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


def _package_names(source):
    """The names a module reads from the package: ``kf.<name>`` after
    ``import kyfanreg as kf`` (or ``kyfanreg.<name>``), and ``from kyfanreg
    import <name>``."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "kyfanreg" or (
                        alias.asname is None and alias.name.startswith("kyfanreg.")):
                    aliases.add(alias.asname or "kyfanreg")
        elif isinstance(node, ast.ImportFrom) and node.module == "kyfanreg":
            names.update(alias.name for alias in node.names)
    names.update(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    )
    return names


def test_every_package_name_the_benchmark_reads_exists():
    # a name read only inside a run or check closure would otherwise fail
    # only when the benchmark runs that operation
    seen, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        names = _package_names(path.read_text(encoding="utf-8"))
        seen |= names
        missing += [f"{path.name}: kyfanreg.{name}" for name in sorted(names)
                    if not hasattr(kyfanreg, name)]
    assert {"EmpiricalSample", "export", "run_study", "harness"} <= seen
    assert missing == []


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


def test_autoconv_study_calls_the_traced_names(perfbench):
    # the solver and the kernels it calls must be reached through the wrapped
    # names, and the step comes from a closed form, not the power iteration
    from test_harness import STUDY_CONFIGS

    tracing, _ = perfbench
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        kyfanreg.run_study(parse_config(STUDY_CONFIGS["autoconv"]))
    spans = Counter(name for name, *_ in tracer.spans)
    leaves = Counter()
    for (_, name), (count, _) in tracer.leaves.items():
        leaves[name] += count
    assert spans["prox_gradient_solve"] and not spans["operator_norm_squared"]
    assert leaves["autoconv_apply"] and leaves["autoconv_derivative_adjoint_apply"]
    assert tracing.round_metrics(tracer)["regularization.prox_iters"] > 0


def test_prox_iterations_count_unconverged_solves(perfbench, monkeypatch):
    # a solve that ends unconverged returns its report like any other, and
    # the benchmark's iteration count must include its iterations
    from test_harness import STUDY_CONFIGS

    tracing, _ = perfbench
    reports = []
    solve = kyfanreg.harness.prox_gradient_solve

    def counting_solve(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(kyfanreg.harness, "_MAX_ITER", 3)
    monkeypatch.setattr(kyfanreg.harness, "prox_gradient_solve", counting_solve)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        kyfanreg.run_study(parse_config(STUDY_CONFIGS["autoconv"]))
    assert any(not report.converged.all() for report in reports)
    assert tracing.round_metrics(tracer)["regularization.prox_iters"] == sum(
        report.iterations for report in reports)
