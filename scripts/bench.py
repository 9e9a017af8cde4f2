"""Write BENCH_<N>.json: the benchmark workloads, the tier-1 run and the machine.

    python3 scripts/bench.py --pr N

Run from anywhere inside a checkout. For each of the ``autoconv``, ``linear``
and ``noise`` workloads it runs ``perfbench/run.py`` twice at seed 7 for the
``run_seconds`` of ``BENCHMARK.json``, with ``--trace 0`` (end-to-end
metrics) and with ``--trace 1`` (per-layer metrics), and keeps the JSON
object each prints last. It then times the tier-1 suite and reads each
``ACCEPTANCE <n> ... [x s / budget y s]`` line. The file, written to the
root of the checkout, also records ``nproc``, the Python, numpy and BLAS
versions, the git commit and ``src_lines``, the line count of
``src/kyfanreg/*.py``; ``git_dirty`` is true when tracked files differ from
that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("autoconv", "linear", "noise")
SEED = 7
ACCEPTANCE = re.compile(
    r"ACCEPTANCE (\d+) (PASS|FAIL): (.*) \[([\d.]+) s / budget ([\d.]+) s\]")
SUMMARY = re.compile(r"(\d+) (passed|failed|errors?|skipped)\b")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _workload(name: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    acceptance = {
        number: {"status": status, "detail": detail, "elapsed_s": float(elapsed),
                 "budget_s": float(budget)}
        for number, status, detail, elapsed, budget in ACCEPTANCE.findall(proc.stdout)
    }
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in SUMMARY.findall(last)}
    return {"exit_code": proc.returncode, "wall_s": wall, "counts": counts,
            "acceptance": acceptance}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {
        "pr": args.pr,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "src_lines": sum(len(path.read_text().splitlines())
                         for path in (ROOT / "src" / "kyfanreg").glob("*.py")),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        record["workloads"][name] = {
            f"trace_{trace}": _workload(name, seconds, trace)
            for trace in (0, 1)
        }
        print(f"{name}: done", file=sys.stderr, flush=True)
    record["tier1"] = _tier1()
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
