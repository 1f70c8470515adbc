"""Digests of every CLI subcommand's report on four small seeded inputs.

Each case runs one command in-process and compares its exit code, stderr and
report with the stored digest in ``report_digests.json``: values, witnesses
and strings exactly, floats to a relative 1e-9, and a matrix through its
shape, sum, weighted sum, min and max (the digest of ``perfbench/checks.py``,
keeping every key).  A change meant to keep reports byte-identical leaves the
file as it is; a change meant to alter a report regenerates it with

    PYTHONPATH=src python tests/test_report_digests.py

which first prints each changed value as (input, command, key path): stored
→ new, and each added or removed case.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from bmetric import cli

DIGESTS = Path(__file__).with_name("report_digests.json")
REL_TOL = 1e-9

INPUTS = {
    "rb12": ("--family", "random-bmetric", "--n", "12", "--K", "2", "--seed", "1"),
    "ex31-4": ("--family", "example31", "--n", "4"),
    "euc10": ("--family", "euclidean-points", "--n", "10", "--dim", "2", "--seed", "2"),
    "rb24": ("--family", "random-bmetric", "--n", "24", "--K", "2", "--seed", "2"),
}
COMMANDS = (
    ("constants",),
    ("remetrize",),
    ("remetrize", "--eps", "0.5"),
    ("remetrize", "--eps", "0.05"),
    ("doubling",),
    ("doubling", "--weak"),  # sampled weak bracket above 20 points (rb24)
    ("doubling", "--weak", "--exact-max", "6"),  # the same weak report: it ignores --exact-max
    ("doubling", "--exact-max", "4"),  # greedy and counting bracket cells
    ("embed", "--alpha", "0.5"),
    ("pipeline", "--alpha", "0.75"),
    *(("verify", "--theorem", t) for t in ("2.1", "2.2", "3.3", "3.4", "3.5", "4.1", "4.3")),
    ("verify", "--theorem", "3.3", "--exact-max", "4"),
)
CASES = [("generate", name) for name in INPUTS] + [
    (" ".join(argv), name) for name in INPUTS for argv in COMMANDS]


def digest(value):
    """Report value reduced for storage: matrices become weighted sums."""
    if isinstance(value, dict):
        return {k: digest(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], list):
        m = np.asarray(value, dtype=float)
        w = 1.0 + np.arange(m.size, dtype=float).reshape(m.shape) / m.size
        return {"shape": list(m.shape), "sum": float(m.sum()), "weighted_sum": float((w * m).sum()),
                "min": float(m.min()), "max": float(m.max())}
    if isinstance(value, list):
        return [digest(v) for v in value]
    return value


def differences(expected, actual, path="") -> list[tuple]:
    """(key path, stored, new) of each value that differs: a dict with other
    keys, or a list of another length, differs as a whole."""
    if isinstance(expected, dict) and isinstance(actual, dict) and expected.keys() == actual.keys():
        return [p for k in expected for p in differences(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in differences(e, a, f"{path}[{i}]")]
    if type(expected) is float and type(actual) is float:
        ok = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        ok = type(expected) is type(actual) and expected == actual
    return [] if ok else [(path, expected, actual)]


def run(argv: list[str], out: Path) -> dict:
    """Exit code, stderr and report digest of one in-process CLI run."""
    out.unlink(missing_ok=True)
    with redirect_stderr(io.StringIO()) as err:
        code = cli.main([*argv, "--out", str(out), "--quiet"])
    result = {"exit": code, "stderr": err.getvalue()}
    if out.exists():
        payload = json.loads(out.read_text())
        result["parameters"] = payload["manifest"]["parameters"]
        result["report"] = digest(payload["report"])
    return result


def run_case(command: str, name: str, workdir: Path) -> dict:
    space = workdir / f"{name}.json"
    if command == "generate":
        result = run(["generate", *INPUTS[name], "--space-out", str(space)],
                     workdir / "report.json")
        result["space"] = digest(json.loads(space.read_text()))
        return result
    if not space.exists():
        run_case("generate", name, workdir)
    argv = command.split()
    return run([argv[0], str(space), *argv[1:]], workdir / "report.json")


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("digests")


@pytest.mark.parametrize("command,name", CASES, ids=["_".join((n, *c.split())) for c, n in CASES])
def test_report_matches_stored_digest(stored, workdir, command, name):
    actual = run_case(command, name, workdir)
    assert differences(stored[name][command], actual) == []


def test_every_stored_case_runs(stored):
    assert sorted((c, n) for n in stored for c in stored[n]) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table: dict = {}
        for command, name in CASES:
            table.setdefault(name, {})[command] = run_case(command, name, Path(tmp))
    old = json.loads(DIGESTS.read_text())
    for name in sorted(old.keys() | table.keys()):
        before, after = old.get(name, {}), table.get(name, {})
        for command in sorted(before.keys() | after.keys()):
            if command not in before or command not in after:
                print(f"{'removed' if command in before else 'added'} ({name}, {command})")
                continue
            for path, was, now in differences(before[command], after[command]):
                print(f"({name}, {command}, {path}): {was!r} → {now!r}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {DIGESTS}", file=sys.stderr)
