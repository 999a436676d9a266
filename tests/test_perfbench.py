import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_probe_targets_exist(monkeypatch):
    """Every library name the benchmark's trace probes wrap still exists:
    `spans.probes` looks each one up and raises KeyError for a missing one,
    which the benchmark would otherwise show only when run with tracing."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spans = importlib.import_module("spans")
    with spans.probes(spans.Recorder()):
        pass
