"""The benchmark traces library functions by name (``perfbench/spans.py``);
a renamed or deleted target would drop its per-layer metrics without failing
the benchmark run, so this suite checks that each one still resolves."""

from pathlib import Path


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    assert spans.Tracer().missing == []
