"""The benchmark's per-layer metric names against the package they trace."""

import importlib
import inspect
import json
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# perfbench wraps each function of these modules' __all__, plus one class
MODULES = ("phase_space", "resource_prep", "dc_protocol", "advantage_analysis", "cli_scan")
WRAPPED_CLASSES = {("phase_space", "SymplecticTransform")}


def test_per_layer_metrics_name_public_functions():
    # the benchmark raises KeyError for a metric its trace does not produce, so
    # a renamed or removed function would break every traced run
    names = [metric["name"] for metric in json.loads(MANIFEST.read_text())["per_layer"]]
    layered = [name.split(".") for name in names if name.split(".")[0] in MODULES]
    assert len(layered) > 20
    for parts in layered:
        module = importlib.import_module(f"cvdcnet.{parts[0]}")
        if len(parts) == 2:  # the module's own self time
            continue
        module_name, attr = parts[:2]
        assert attr in module.__all__, f"{'.'.join(parts)}: {attr} is not public"
        obj = getattr(module, attr)
        if (module_name, attr) in WRAPPED_CLASSES:
            assert inspect.isclass(obj)
            continue
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (
            f"{'.'.join(parts)}: {attr} is not a function defined in {module.__name__}"
        )
