"""Benchmark workloads: seeded input spaces and the CLI jobs run on them.

A round runs every job of a workload once, in the order listed, so every
round has the same job mix.  Inputs depend only on the seed.  Where one seeded
instance's cost varies much from seed to seed (the verify 3.3 input, the weak
doubling inputs), a run has two instances, so a run's figures depend less on
the seed.  This module
imports no library code at import time, so ``run.py`` can read the workload
names without importing ``bmetric``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

CHAIN_COMMANDS = (
    ("constants",),
    ("remetrize", "--eps", "0.5"),
    ("pipeline", "--alpha", "0.75"),
    ("verify", "--theorem", "2.1"),
    ("verify", "--theorem", "4.3"),
)
DOUBLING = ("doubling",)
VERIFY_33 = ("verify", "--theorem", "3.3", "--p", "0.5")
WEAK = ("doubling", "--weak", "--exact-max", "14")


@dataclass(frozen=True)
class Job:
    input: str
    argv: tuple[str, ...]  # subcommand and its flags; the input path goes after the subcommand

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join((self.input,) + self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]  # seed -> {input name: SemimetricSpace}
    jobs: tuple[Job, ...]


def sub_seed(seed: int, index: int) -> int:
    """Independent generator seed for the index-th seeded input of a run."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _chain_inputs(n: int):
    def make(seed: int) -> dict:
        from bmetric import random_bmetric

        return {
            "bmetric-a": random_bmetric(n, 2.0, sub_seed(seed, 0)),
            "bmetric-b": random_bmetric(n, 2.0, sub_seed(seed, 1)),
        }

    return make


def _doubling_inputs(n: int, grid: int, hub: int, n_verify: int):
    def make(seed: int) -> dict:
        from bmetric import euclidean_points, example31, random_bmetric, snowflaked_grid

        return {
            "bmetric": random_bmetric(n, 2.0, sub_seed(seed, 0)),
            "euclidean": euclidean_points(n, 2, sub_seed(seed, 1)),
            "grid": snowflaked_grid(grid, 0.5),
            "hub": example31(hub),
            "bmetric-small-a": random_bmetric(n_verify, 2.0, sub_seed(seed, 2)),
            "bmetric-small-b": random_bmetric(n_verify, 2.0, sub_seed(seed, 3)),
        }

    return make


def _weak_inputs(n: int, naturals: int, star: int, hub: int):
    def make(seed: int) -> dict:
        from bmetric import doubling_not_weak, euclidean_points, example31, random_bmetric

        return {
            "bmetric-a": random_bmetric(n, 2.0, sub_seed(seed, 0)),
            "bmetric-b": random_bmetric(n, 2.0, sub_seed(seed, 1)),
            "euclidean-a": euclidean_points(n, 2, sub_seed(seed, 2)),
            "euclidean-b": euclidean_points(n, 2, sub_seed(seed, 3)),
            "star": doubling_not_weak(naturals, star),
            "hub": example31(hub),
        }

    return make


CHAIN_JOBS = tuple(Job(i, c) for i in ("bmetric-a", "bmetric-b") for c in CHAIN_COMMANDS)
DOUBLING_JOBS = tuple(Job(i, DOUBLING) for i in ("bmetric", "euclidean", "grid", "hub")) + tuple(
    Job(i, VERIFY_33) for i in ("bmetric-small-a", "bmetric-small-b"))
WEAK_JOBS = tuple(Job(i, WEAK) for i in
                  ("bmetric-a", "bmetric-b", "euclidean-a", "euclidean-b", "star", "hub"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-pipeline", _chain_inputs(300), CHAIN_JOBS),
        Workload("doubling-exact", _doubling_inputs(30, 6, 12, 20), DOUBLING_JOBS),
        Workload("weak-exhaustive", _weak_inputs(14, 7, 7, 6), WEAK_JOBS),
        # Tiny variants with the same jobs, for the benchmark's own tests.
        Workload("chain-pipeline-smoke", _chain_inputs(12), CHAIN_JOBS),
        Workload("doubling-exact-smoke", _doubling_inputs(10, 3, 3, 8), DOUBLING_JOBS),
        Workload("weak-exhaustive-smoke", _weak_inputs(7, 3, 3, 2), WEAK_JOBS),
    )
}
