"""One benchmark run of one workload, in the process that ``run.py`` starts.

The run is a closed loop with one client on one thread: each job calls
``bmetric.cli.main(argv)`` in-process with ``--out``, so it covers argument
parsing, JSON read, validation, compute and JSON emit.  A run is a whole
number of rounds, each running every job of the workload once, until the
jobs' own time reaches ``--seconds``.  Every report is checked (see
``checks.py``); a job that fails, raises, writes a wrong report or is cut
off by the wall-clock cap counts as failed.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones give
per-module calls and self time (see ``spans.py``), and the two kinds together
give the tracing overhead.  Human-readable lines go first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
# Untraced runs measure at least this many rounds, so the slowest job type of
# every workload has enough samples that the tail sits inside one job type
# instead of jumping between types as the round count changes.
MIN_ROUNDS = 3
COMMANDS = ("constants", "remetrize", "pipeline", "verify", "doubling")


class WallCapReached(BaseException):
    """Raised from SIGALRM; a BaseException so the CLI's handlers pass it on."""


def _on_alarm(signum, frame):
    raise WallCapReached()


@dataclass
class JobResult:
    job: Job
    seconds: float
    problems: list[str]
    counts: dict[str, int] = field(default_factory=dict)


def report_counts(argv, report: dict) -> dict[str, int]:
    """Exact work counts read from a report."""
    if argv[0] == "doubling":
        return {"doubling.cells": report["doubling"]["critical_radii_examined"]}
    if argv[0] == "remetrize":
        return {"remetrize.bisection_steps": len(report["search_trace"])}
    if argv[0] == "pipeline":
        return {"embed.dimension": report["embedding"]["N"]}
    return {}


REPORT_COUNTS = ("doubling.cells", "remetrize.bisection_steps", "embed.dimension")


class Runner:
    def __init__(self, workload, workdir: Path, cli, checks, reference: dict):
        self.workload = workload
        self.workdir = workdir
        self.cli = cli
        self.checks = checks
        self.reference = reference
        self.paths: dict[str, Path] = {}
        self.dist: dict = {}
        self.results: list[JobResult] = []

    def make_inputs(self, seed: int) -> None:
        for name, space in self.workload.make_inputs(seed).items():
            path = self.workdir / f"{name}.json"
            path.write_text(space.to_json() + "\n")
            self.paths[name] = path
            self.dist[name] = space.dist

    def run_job(self, job: Job, tracer=None) -> JobResult:
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        argv = [job.argv[0], str(self.paths[job.input]), *job.argv[1:], "--out", str(out), "--quiet"]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(argv)
            else:
                with tracer.job():
                    code = self.cli.main(argv)
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            return JobResult(job, time.perf_counter() - start, [f"raised {exc!r}"])
        seconds = time.perf_counter() - start
        try:
            payload = json.loads(out.read_text())
        except (OSError, ValueError):
            payload = None
        problems = self.checks.job_problems(
            job.argv, code, payload, self.dist[job.input], self.reference.get(job.key))
        counts = {}
        if not problems:
            try:
                counts = report_counts(job.argv, payload["report"])
            except (KeyError, TypeError) as exc:
                print(f"warning: no work count in the {job.key} report: {exc!r}", file=sys.stderr)
        return JobResult(job, seconds, problems, counts)

    def run_round(self, tracer=None) -> dict[str, list]:
        """Run every job once; returns per-span [calls, self seconds] when traced."""
        layers: dict[str, list] = {}
        for job in self.workload.jobs:
            result = self.run_job(job, tracer)
            self.results.append(result)
            for problem in result.problems:
                print(f"FAILED {job.key}: {problem}", file=sys.stderr)
            if tracer is not None:
                for name, (calls, self_s) in tracer.fold().items():
                    acc = layers.setdefault(name, [0, 0.0])
                    acc[0] += calls
                    acc[1] += self_s
        return layers


def machine_info(numpy_version: str) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(durations)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(measured: list[JobResult], setup_s: float) -> dict:
    durations = [r.seconds for r in measured]
    return {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(sum(1 for r in measured if not r.problems) / sum(durations), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def job_times(measured: list[JobResult]) -> dict:
    """Job-time medians and tail, printed but not in the result line: under a fixed
    job mix each is the time of one job type, so it moves more between runs than
    the throughput does."""
    durations = [r.seconds for r in measured]
    tail_s, pct = tail(durations)
    print(f"job_tail_s is p{pct:.1f} of {len(durations)} measured jobs")
    out = {"job_p50_s": metric(statistics.median(durations), "s"),
           "job_tail_s": metric(tail_s, "s")}
    for command in COMMANDS:
        times = [r.seconds for r in measured if r.job.command == command]
        if times:
            out[f"{command}_p50_s"] = metric(statistics.median(times), "s")
    return out


def per_layer(tracer, traced: list[dict], traced_results: list[list[JobResult]],
              overhead: float, job_span: str) -> dict:
    out = {}
    for name in [t.name for t in tracer.present] + [job_span]:
        calls = [layers.get(name, [0, 0.0])[0] for layers in traced]
        if len(set(calls)) > 1:
            print(f"warning: {name} calls differ between traced rounds: {calls}", file=sys.stderr)
        out[f"{name}.calls"] = metric(calls[0], "count")
        out[f"{name}.self_s"] = metric(
            statistics.median(layers.get(name, [0, 0.0])[1] for layers in traced), "s")
    first = traced_results[0]
    for name in REPORT_COUNTS:
        out[name] = metric(sum(r.counts.get(name, 0) for r in first), "count")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True, help="absolute path of the library's src directory")
    ap.add_argument("--cap", type=float, required=True, help="wall-clock cap of the run, seconds")
    ap.add_argument("--workdir", required=True, help="scratch directory for inputs and reports")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, args.cap)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        return _run(args, workload, workdir)
    except WallCapReached:
        print(f"error: set-up exceeded the {args.cap:.0f} s wall-clock cap", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir: Path) -> int:
    # The library import is part of set-up time, so it happens here, timed.
    t0 = time.perf_counter()
    import numpy
    import bmetric
    import bmetric.cli as cli

    import_s = time.perf_counter() - t0
    import checks
    import spans

    if not Path(bmetric.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: imported bmetric from {bmetric.__file__}, not from {args.src}",
              file=sys.stderr)
        return 1
    reference = {}
    if args.seed == checks.REFERENCE_SEED:
        stored = json.loads((HERE / "reference.json").read_text())["workloads"]
        reference = stored.get(workload.name, {})
    runner = Runner(workload, workdir, cli, checks, reference)

    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        runner.make_inputs(args.seed)
        gen_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    runner.run_round()  # warm-up: checked, counted as attempted, not timed as a job
    warmup_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(gen_s) + warmup_s

    tracer = spans.Tracer() if args.trace else None
    plain: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    traced_layers: list[dict] = []
    measured_s = 0.0
    cut_off = 0
    min_plain = 1 if tracer else MIN_ROUNDS
    try:
        while measured_s < args.seconds or len(plain) < min_plain or (tracer and not traced):
            start = len(runner.results)
            trace_round = tracer is not None and len(plain) > len(traced)
            if trace_round:
                tracer.install()
                try:
                    traced_layers.append(runner.run_round(tracer))
                finally:
                    tracer.uninstall()
                traced.append(runner.results[start:])
            else:
                runner.run_round()
                plain.append(runner.results[start:])
            measured_s += sum(r.seconds for r in runner.results[start:])
    except WallCapReached:
        cut_off = 1
        print(f"error: a job was cut off by the {args.cap:.0f} s wall-clock cap", file=sys.stderr)
    signal.setitimer(signal.ITIMER_REAL, 0)

    attempted = len(runner.results) + cut_off
    failed = sum(1 for r in runner.results if r.problems) + cut_off
    measured_plain = [r for rnd in plain for r in rnd]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"rounds {len(plain)} untraced + {len(traced)} traced")
    print("machine " + json.dumps(machine_info(numpy.__version__)))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs, warm-up included)")
    print(f"setup_s parts: import {import_s:.4f} s, inputs {statistics.median(gen_s):.4f} s "
          f"(median of {SETUP_REPEATS}), warm-up round {warmup_s:.4f} s")
    if not measured_plain:
        print("error: no complete measured round", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(measured_plain, setup_s)
        extra = job_times(measured_plain)
    else:
        if not traced_layers:
            print("error: no complete traced round", file=sys.stderr)
            return 1
        measured_traced = [r for rnd in traced for r in rnd]
        overhead = ((len(measured_traced) / sum(r.seconds for r in measured_traced))
                    / (len(measured_plain) / sum(r.seconds for r in measured_plain)))
        metrics = per_layer(tracer, traced_layers, traced, overhead, spans.JOB_SPAN)
        extra = {}
        if tracer.missing:
            print("trace targets not found, metrics left out: " + ", ".join(tracer.missing))
    for name, m in {**metrics, **extra}.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
