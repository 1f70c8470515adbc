"""Correctness checks of one job's report, without calling library code.

Two layers:

* invariants that hold for any seed (sandwich and triangle inequality of a
  remetrized D, ordered doubling brackets, certified pipeline constant, ...);
* for the reference seed, agreement with ``reference.json``: every value and
  witness equal, floats to a relative 1e-9.  Matrices are compared through
  weighted sums with positive weights, which agree to the same tolerance
  whenever the entries do.  ``critical_radii_examined`` and ``search_trace``
  are left out because planned optimisations redefine them.
"""

from __future__ import annotations

import math

import numpy as np

REFERENCE_SEED = 0
REL_TOL = 1e-9
LIBRARY_RTOL = 1e-9  # the slack the library itself allows in its certificates
ROUNDING = 1e-12  # room for one rounding step in a recomputed product or sum
VOLATILE_KEYS = frozenset({"critical_radii_examined", "search_trace"})


def _flag(argv, name: str, default: float | None = None) -> float | None:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _bracket(rep: dict, where: str, problems: list[str]) -> None:
    lo, hi, exact = rep["lower"], rep["upper"], rep["exact"]
    if not 1 <= lo <= hi:
        problems.append(f"{where}: bracket [{lo}, {hi}] is not ordered")
    if exact and lo != hi:
        problems.append(f"{where}: exact but lower {lo} != upper {hi}")


def _remetrize(rep: dict, dist: np.ndarray, eps: float, problems: list[str]) -> None:
    D = np.asarray(rep["D"], dtype=float)
    p = rep["p"]
    if D.shape != dist.shape:
        problems.append(f"remetrize: D has shape {D.shape}, input {dist.shape}")
        return
    if not 0 < p <= 1:
        problems.append(f"remetrize: exponent {p} outside (0, 1]")
    if rep["sandwich_hi"] > 1.0 + eps:
        problems.append(f"remetrize: sandwich_hi {rep['sandwich_hi']} exceeds 1 + eps")
    off = ~np.eye(D.shape[0], dtype=bool)
    powered = dist ** p
    if not (D[off] <= powered[off]).all():
        problems.append("remetrize: D > d^p at some pair")
    if not (powered[off] <= (1.0 + eps) * D[off] * (1.0 + ROUNDING)).all():
        problems.append("remetrize: d^p > (1+eps) D at some pair")
    for j in range(D.shape[0]):
        if not (D <= (D[:, j, None] + D[None, j, :]) * (1.0 + ROUNDING)).all():
            problems.append(f"remetrize: D breaks the triangle inequality through point {j}")
            break


def invariant_problems(argv, report: dict, dist: np.ndarray) -> list[str]:
    """Checks that hold for every seed; argv is the job's subcommand and flags."""
    problems: list[str] = []
    command = argv[0]
    if command == "constants":
        if not report["relaxation_K"] >= 1.0:
            problems.append(f"constants: relaxation_K {report['relaxation_K']} < 1")
        if not report["polygonal_c"] >= 1.0:
            problems.append(f"constants: polygonal_c {report['polygonal_c']} < 1")
    elif command == "remetrize":
        _remetrize(report, dist, _flag(argv, "--eps"), problems)
    elif command == "pipeline":
        if not 1.0 <= report["C_prime"] <= report["stage_bound"] * (1.0 + LIBRARY_RTOL):
            problems.append(
                f"pipeline: C_prime {report['C_prime']} outside [1, {report['stage_bound']}]")
        if not math.isclose(report["alpha_prime"], report["p"] * _flag(argv, "--alpha"),
                            rel_tol=ROUNDING):
            problems.append("pipeline: alpha_prime != p * alpha")
        if report["embedding"]["N"] < 1:
            problems.append("pipeline: empty embedding")
    elif command == "doubling":
        _bracket(report["doubling"], "doubling", problems)
        if "--weak" in argv:
            _bracket(report["weak"], "weak", problems)
    elif command == "verify":
        theorem = report["theorem"]
        if report["holds"] is not True:
            problems.append(f"verify {theorem}: claim reported as not holding")
        if theorem == "2.1":
            if not report["relaxation_K"] >= 1.0:
                problems.append(f"verify 2.1: relaxation_K {report['relaxation_K']} < 1")
            if not report["worst_ratio"] <= report["bound"] * (1.0 + ROUNDING):
                problems.append("verify 2.1: worst_ratio above K^2")
        elif theorem == "4.3":
            if not report["c"] >= 1.0:
                problems.append(f"verify 4.3: c {report['c']} < 1")
        elif theorem == "3.3":
            for part in ("base", "transformed"):
                lo, hi = report[part]
                if not 1 <= lo <= hi or (report["exact"] and lo != hi):
                    problems.append(f"verify 3.3: {part} bracket [{lo}, {hi}] inconsistent")
    return problems


def digest(value):
    """Report value reduced for the reference: matrices become weighted sums."""
    if isinstance(value, dict):
        return {k: digest(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list) and value and isinstance(value[0], list):
        m = np.asarray(value, dtype=float)
        w = 1.0 + np.arange(m.size, dtype=float).reshape(m.shape) / m.size
        return {"shape": list(m.shape), "sum": float(m.sum()), "weighted_sum": float((w * m).sum()),
                "min": float(m.min()), "max": float(m.max())}
    if isinstance(value, list):
        return [digest(v) for v in value]
    return value


def reference_problems(expected, actual, path: str = "report") -> list[str]:
    """Differences between a stored digest and a fresh one."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in reference_problems(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in reference_problems(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        ok = (not isinstance(expected, bool) and not isinstance(actual, bool)
              and isinstance(expected, (int, float)) and isinstance(actual, (int, float))
              and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0))
    else:
        ok = type(expected) is type(actual) and expected == actual
    return [] if ok else [f"{path}: {actual!r} != reference {expected!r}"]


def job_problems(argv, exit_code, payload, dist: np.ndarray, expected=None) -> list[str]:
    """Everything wrong with one job's outcome; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not isinstance(payload, dict) or payload.get("manifest", {}).get("command") != argv[0]:
        return ["report missing or written by another command"]
    report = payload["report"]
    try:
        problems = invariant_problems(argv, report, dist)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
    if expected is not None:
        problems += reference_problems(expected, digest(report))
    return problems
