"""The benchmark's per-layer metrics are named after qproc functions.

Its tracer wraps each `<module>.<name>` it reports (a module-level function
or class, or a method of a class in that module, such as
`loops.next_program` for `CorrectionRule.next_program`). A refactor that
renames or removes one would leave that layer reading zero calls, so every
name must still resolve.
"""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _resolves(layer: str) -> bool:
    module_name, name = layer.split(".")
    module = importlib.import_module(f"qproc.{module_name}")
    if hasattr(module, name):
        return True
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
    return any(hasattr(c, name) for c in classes)


def test_per_layer_call_metrics_name_existing_functions():
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    layers = [m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")]
    assert len(layers) >= 20
    assert [layer for layer in layers if not _resolves(layer)] == []
