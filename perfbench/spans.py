"""Span tracing of library calls, installed from outside the library.

A :class:`Tracer` wraps each target function at every ``bmetric`` module
that binds it (``floyd_warshall`` is bound in ``shortest_path``,
``constants`` and ``remetrize``), so calls made through any of those names
are seen.  Each call records a span ``(id, name, start, end, parent)``.
A span's self time is its duration minus the time its child spans cover;
spans nest on one thread, so the children of a span never overlap.

Targets that cannot be found (a module or function renamed) are listed in
``Tracer.missing`` and left out rather than failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, "<module>.<function>"
    module: str
    attr: str  # "function" or "Class.method"
    moves: str  # end-to-end metrics a change to this layer should move, and where


_CHAIN = "on chain-pipeline; no change predicted on doubling-exact and weak-exhaustive"
TARGETS = (
    Target("shortest_path.floyd_warshall", "bmetric.shortest_path", "floyd_warshall",
           "jobs_per_s, remetrize_p50_s, pipeline_p50_s " + _CHAIN),
    Target("remetrize.epsilon_remetrize", "bmetric.remetrize", "epsilon_remetrize",
           "jobs_per_s, remetrize_p50_s, pipeline_p50_s " + _CHAIN),
    Target("remetrize.chain_metric", "bmetric.remetrize", "chain_metric",
           "jobs_per_s, verify_p50_s " + _CHAIN),
    Target("remetrize.frink_verify", "bmetric.remetrize", "frink_verify",
           "jobs_per_s, verify_p50_s " + _CHAIN),
    Target("constants.relaxation_constant", "bmetric.constants", "relaxation_constant",
           "constants_p50_s, pipeline_p50_s, verify_p50_s, peak_rss_mb " + _CHAIN),
    Target("constants.polygonal_constant", "bmetric.constants", "polygonal_constant",
           "constants_p50_s " + _CHAIN),
    Target("embed.bmetric_assouad_pipeline", "bmetric.embed", "bmetric_assouad_pipeline",
           "pipeline_p50_s " + _CHAIN),
    Target("embed.assouad_embed", "bmetric.embed", "assouad_embed", "pipeline_p50_s " + _CHAIN),
    Target("embed.bilipschitz_ratios", "bmetric.embed", "bilipschitz_ratios",
           "pipeline_p50_s " + _CHAIN),
    Target("embed.Embedding.pairwise_norms", "bmetric.embed", "Embedding.pairwise_norms",
           "pipeline_p50_s " + _CHAIN),
    Target("spaces.from_json", "bmetric.spaces", "SemimetricSpace.from_json",
           "job_p50_s on chain-pipeline; negligible elsewhere"),
    Target("spaces.validate", "bmetric.spaces", "validate",
           "job_p50_s on chain-pipeline; negligible elsewhere"),
    Target("doubling.doubling_constant", "bmetric.doubling", "doubling_constant",
           "doubling_p50_s, jobs_per_s on doubling-exact; little on weak-exhaustive"),
    Target("doubling.cover_requirement", "bmetric.doubling", "cover_requirement",
           "doubling_p50_s, jobs_per_s on doubling-exact; little on weak-exhaustive"),
    Target("doubling.ball", "bmetric.doubling", "ball",
           "doubling_p50_s, jobs_per_s on doubling-exact; little on weak-exhaustive"),
    Target("doubling.snowflake_doubling_check", "bmetric.doubling", "snowflake_doubling_check",
           "verify_p50_s, jobs_per_s on doubling-exact"),
    Target("doubling.weak_doubling_constant", "bmetric.doubling", "weak_doubling_constant",
           "jobs_per_s, doubling_p50_s on weak-exhaustive"),
    Target("setcover.exact_min_cover", "bmetric.setcover", "exact_min_cover",
           "jobs_per_s on weak-exhaustive first, doubling-exact second"),
    Target("setcover.greedy_cover", "bmetric.setcover", "greedy_cover",
           "jobs_per_s on weak-exhaustive first, doubling-exact second"),
)
JOB_SPAN = "cli"


def _library_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bmetric" or name.startswith("bmetric."))]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.present: list[Target] = []
        self.missing: list[str] = []
        for t in targets:
            try:
                module = importlib.import_module(t.module)
                owner, _, attr = t.attr.rpartition(".")
                if owner:
                    getattr(module, owner).__dict__[attr]
                else:
                    getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(t.name)
            else:
                self.present.append(t)

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every present target at every module or class binding it."""
        modules = _library_modules()
        for t in self.present:
            owner_name, _, attr = t.attr.rpartition(".")
            module = importlib.import_module(t.module)
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(t.name, raw.__func__))
                else:
                    new = self._wrap(t.name, raw)
                self._patch(owner, attr, raw, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(t.name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, new)

    def _patch(self, owner, attr: str, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def job(self):
        """Root span around one job; its self time is the CLI glue around library calls."""
        return self.span(JOB_SPAN)

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def fold(self) -> dict[str, list]:
        """Per-name [calls, self seconds] of the recorded spans; clears them."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, list] = {}
        for sid, name, start, end, _ in self.spans:
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - child_time.get(sid, 0.0)
        self.spans.clear()
        return out
