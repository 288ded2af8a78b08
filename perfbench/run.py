"""Benchmark entry point: one workload, one fresh process, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh-erew-uniform --seed 1 \\
        --seconds 20 --trace 0

Each run starts a fresh single-threaded worker process with
``REPRO_ENGINE`` unset, so the library's ``engine="auto"`` default is
what gets measured.  The worker checks the program's outputs; the last
line printed here is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  Full results (context,
self-time table, failures) and Chrome traces land in ``.perfbench/``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a run must end within this many seconds; the worker gets the rest
DEADLINE_S = 175
#: thread pools a numpy build may start; pinned so runs are single-threaded
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=DEADLINE_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
