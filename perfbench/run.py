"""Benchmark of kyfanreg: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {autoconv,linear,noise} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
The run repeats whole rounds of the workload until S seconds have passed
(at least one round), checks every round's outputs, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread: the program is serial, and extra threads only add noise
# on a small shared box (set before numpy is first imported)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
WORKLOADS = ("autoconv", "linear", "noise")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _run_round(ops, problems: list) -> tuple:
    """Run each operation timed, then check it untimed; return (wall, failed)."""
    results, wall, failed = {}, 0.0, 0
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a fault in the program fails this operation only
            wall += time.perf_counter() - start
            failed += 1
            _log(f"operation {op.name} raised:\n{traceback.format_exc()}")
            continue
        wall += time.perf_counter() - start
        found = op.check(out, results)
        results[op.name] = out
        if found:
            failed += 1
            problems.extend(f"{op.name}: {p}" for p in found)
    return wall, failed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must lie in [0, 2^32)")
    if not args.seconds >= 0:
        p.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kyfanreg" / "__init__.py").is_file():
        _log(f"no kyfanreg package under {SRC}: run from the root of a full checkout")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import workloads

        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import workloads

    if args.trace:
        import tracing

        setup_tracer = tracing.Tracer()
        with tracing.traced(setup_tracer):
            inputs = workloads.setup(args.workload, args.seed)
    else:
        inputs = workloads.setup(args.workload, args.seed)
        setup_s = statistics.median(_probe_setup(args) for _ in range(SETUP_PROBES))
    ops = workloads.ops(args.workload, inputs)

    problems, attempted, failed = [], 0, 0
    walls, traced_walls, layer_rounds = [], [], []
    first_trace = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, bad = _run_round(ops, problems)
        walls.append(wall)
        attempted, failed = attempted + len(ops), failed + bad
        if args.trace:
            # each untimed round is followed by a traced one of the same work
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                wall, bad = _run_round(ops, problems)
            traced_walls.append(wall)
            attempted, failed = attempted + len(ops), failed + bad
            layer_rounds.append(tracing.round_metrics(tracer))
            first_trace = first_trace or tracer
        _log(f"round {len(walls)}: {walls[-1]:.4f} s"
             + (f", traced {traced_walls[-1]:.4f} s" if args.trace else ""))

    if args.trace:
        values, unsteady = tracing.combine_rounds(layer_rounds)
        problems += [f"trace: {name} differs between traced rounds" for name in unsteady]
        values["config.load_s"] = sum(
            (end - begin for name, begin, end, _, _ in setup_tracer.spans if name == "load_config"),
            0.0)
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for row in first_trace.records():
                handle.write(json.dumps(row) + "\n")
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": _peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for p in problems:
        _log(f"CHECK FAILED {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
