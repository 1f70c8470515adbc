"""Benchmark of the bmetric CLI: three workloads, end to end and per module.

    python3 perfbench/run.py --workload chain-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # the three workloads in turn

Run from the root of a checkout.  Each workload runs in its own process (see
``worker.py``), so its peak RSS is its own; that process imports the library
from the checkout's ``src`` by absolute path, with BLAS/OpenMP pools at one
thread.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``src/bmetric`` the script exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the benchmark's directory

from workloads import WORKLOADS  # noqa: E402  (after the bytecode setting)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
MAIN_WORKLOADS = ("chain-pipeline", "doubling-exact", "weak-exhaustive")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run has to end within 180 s; keep a margin for start-up


def wall_cap(seconds: float) -> float:
    """Wall-clock cap of one workload process; jobs it cuts off count as failed."""
    return min(RUN_LIMIT_S - 10.0, 60.0 + 3.0 * seconds)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({v: "1" for v in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cap = wall_cap(seconds)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC),
           "--cap", str(cap), "--workdir", str(WORKDIR)]
    WORKDIR.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=cap + 10.0)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        print(f"error: workload {name} did not end within {cap + 10.0:.0f} s", file=sys.stderr)
        return 1, exc.stdout or ""
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and result.keys() == keys else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "bmetric" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'bmetric'}; run from the root of a full checkout",
              file=sys.stderr)
        return 1

    names = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, stdout = run_workload(name, args.seed, args.seconds, args.trace)
        result = result_of(stdout) if code == 0 else None
        lines = stdout.strip().splitlines()
        body = lines[:-1] if result is not None else lines
        if body:
            print("\n".join(body), flush=True)
        if result is None:
            print(f"error: workload {name} gave no result (exit code {code})", file=sys.stderr)
            return code or 1
        if len(names) == 1:
            combined = result
            break
        print(f"{name}: " + json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
