"""Write ``reference.json``: the digest of every job's report at the reference seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right.  A benchmark run
at the reference seed then counts as failed every job whose report differs.
Reports that break an invariant are refused.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bmetric.cli as cli

import checks
from worker import Runner
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    stored: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            runner = Runner(workload, Path(tmp), cli, checks, reference={})
            runner.make_inputs(checks.REFERENCE_SEED)
            digests = stored.setdefault(name, {})
            for job in workload.jobs:
                result = runner.run_job(job)
                if result.problems:
                    print(f"{name} {job.key}: {result.problems}", file=sys.stderr)
                    return 1
                payload = json.loads((Path(tmp) / "report.json").read_text())
                digests[job.key] = checks.digest(payload["report"])
            print(f"{name}: {len(digests)} reports", flush=True)
    (HERE / "reference.json").write_text(json.dumps(
        {"seed": checks.REFERENCE_SEED, "workloads": stored}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
